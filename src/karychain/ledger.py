"""Simulated proof-of-existence blockchain.

Digests submitted to the pending pool are batched into blocks: the block
header commits to a Merkle root over the batch, chains to its predecessor
by double-SHA-256 hash, and is mined by nonce search until the hash has
the required number of leading zero bits. Each anchored digest gets a
receipt carrying its Merkle inclusion path plus the block reference, so
existence and integrity can be re-verified later against the stored chain.

`Ledger.validate_chain` is the one judge of blocks: heights, hash links,
Merkle roots, proof of work and an empty genesis. `verify_receipt` checks
only the receipt against a block of a chain that passes that audit.

Merkle trees pair leaves left to right and promote an odd trailing node
unchanged to the next level (no Bitcoin-style duplication); promotion
levels contribute no path entry. The chain persists as an append-only file
of canonical-JSON lines, receipts as one canonical-JSON file per digest.

The ledger is a single logical writer: submissions and mining serialize on
one lock, reads work on consistent snapshots.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .canonical import (
    DIGEST,
    DIGEST_LEN,
    DIGESTS,
    U64,
    CanonicalJsonError,
    IntRange,
    MerklePath,
    Record,
    canonical_dumps,
    canonical_loads_strict,
    sha256,
)

ZERO32 = bytes(DIGEST_LEN)
# height, prev_hash, merkle_root, timestamp, difficulty, nonce
_HEADER = struct.Struct(">Q32s32sQBQ")
_NONCE = struct.Struct(">Q")
BLOCK_HEADER_LEN = _HEADER.size
SIDE_LEFT = "LEFT"
SIDE_RIGHT = "RIGHT"
_DIFFICULTY = IntRange(0, 255)


class LedgerError(Exception):
    pass


class DuplicatePendingError(LedgerError):
    """The digest is already waiting in the pending pool."""


class EmptyPoolError(LedgerError):
    """Mining was requested with nothing to anchor."""


# ---------------------------------------------------------------------------
# Merkle tree


def _merkle_levels(leaves: Sequence[bytes]) -> list[list[bytes]]:
    """Every level of the tree, leaves first; a non-empty tree ends at its root."""
    level = list(leaves)
    levels = [level]
    while len(level) > 1:
        # an append loop: a comprehension costs more on the small trees the
        # chain audit hashes once per block
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(sha256(level[i] + level[i + 1]))
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        levels.append(nxt)
        level = nxt
    return levels


def _path_in(levels: list[list[bytes]], index: int) -> list[tuple[bytes, str]]:
    path: list[tuple[bytes, str]] = []
    for level in levels[:-1]:
        if index % 2 == 0:
            if index + 1 < len(level):
                path.append((level[index + 1], SIDE_RIGHT))
        else:
            path.append((level[index - 1], SIDE_LEFT))
        index //= 2
    return path


def merkle_root_of(leaves: Sequence[bytes]) -> bytes:
    """Root over the leaf digests; empty input roots to 32 zero bytes."""
    if not leaves:
        return ZERO32
    return _merkle_levels(leaves)[-1][0]


def merkle_path_of(leaves: Sequence[bytes], index: int) -> list[tuple[bytes, str]]:
    """Sibling path from leaves[index] to the root as (digest, side) steps.

    `side` names where the sibling sits relative to the running node.
    Levels where the node is promoted contribute no step.
    """
    if not 0 <= index < len(leaves):
        raise ValueError(f"leaf index {index} out of range for {len(leaves)} leaves")
    return _path_in(_merkle_levels(leaves), index)


def apply_merkle_path(leaf: bytes, path: Sequence[tuple[bytes, str]]) -> bytes:
    """Replay a sibling path from a leaf up to the root it implies."""
    node = leaf
    for sibling, side in path:
        if side == SIDE_RIGHT:
            node = sha256(node + sibling)
        elif side == SIDE_LEFT:
            node = sha256(sibling + node)
        else:
            raise ValueError(f"unknown path side {side!r}")
    return node


# ---------------------------------------------------------------------------
# Blocks and receipts


@dataclass(frozen=True)
class Block(Record):
    height: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    difficulty: int
    nonce: int
    tx_digests: tuple[bytes, ...]

    FIELDS = {
        "height": U64,
        "prev_hash": DIGEST,
        "merkle_root": DIGEST,
        "timestamp": U64,
        "difficulty": _DIFFICULTY,
        "nonce": U64,
        "tx_digests": DIGESTS,
    }

    def header(self) -> bytes:
        return _HEADER.pack(
            self.height,
            self.prev_hash,
            self.merkle_root,
            self.timestamp,
            self.difficulty,
            self.nonce,
        )


def block_hash(block: Block) -> bytes:
    """Double SHA-256 over the 89-byte header."""
    return sha256(sha256(block.header()))


def meets_difficulty(digest: bytes, difficulty: int) -> bool:
    """Whether a 32-byte hash is below the target: has `difficulty` leading zero bits."""
    return int.from_bytes(digest, "big") < 1 << (256 - difficulty)


def _first_nonce(prefix: bytes, difficulty: int) -> tuple[int, bytes]:
    """The smallest nonce, and its block hash, whose header meets `difficulty`.

    `prefix` is the header without its trailing nonce, and is hashed once;
    each attempt copies that SHA-256 state, feeds it the 8 nonce bytes and
    hashes the result again, then compares as `meets_difficulty` does.
    """
    midstate = hashlib.sha256(prefix)
    copy, pack, sha, from_bytes = midstate.copy, _NONCE.pack, hashlib.sha256, int.from_bytes
    target = 1 << (256 - difficulty)
    nonce = 0
    while True:
        inner = copy()
        inner.update(pack(nonce))
        digest = sha(inner.digest()).digest()
        if from_bytes(digest, "big") < target:
            return nonce, digest
        nonce += 1


@dataclass(frozen=True)
class AnchorReceipt(Record):
    """Proof that a digest was committed into a specific block."""

    target_digest: bytes
    block_height: int
    block_hash: bytes
    merkle_root: bytes
    merkle_path: tuple[tuple[bytes, str], ...]
    anchor_timestamp: int

    FIELDS = {
        "target_digest": DIGEST,
        "block_height": U64,
        "block_hash": DIGEST,
        "merkle_root": DIGEST,
        "merkle_path": MerklePath(DIGEST_LEN, (SIDE_LEFT, SIDE_RIGHT)),
        "anchor_timestamp": U64,
    }


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


GENESIS = Block(
    height=0,
    prev_hash=ZERO32,
    merkle_root=ZERO32,
    timestamp=0,
    difficulty=0,
    nonce=0,
    tx_digests=(),
)


# ---------------------------------------------------------------------------
# Ledger


class Ledger:
    """Chain state plus the pending pool, optionally persisted to disk.

    With a path, the chain file is loaded strictly (every line must be the
    canonical encoding of its block) and each mined block appends one line.
    A pending path persists the pool between processes.
    """

    def __init__(
        self,
        path: Path | None = None,
        pending_path: Path | None = None,
        difficulty: int = 8,
    ):
        self.difficulty = _DIFFICULTY.check(difficulty, "difficulty")
        self.path = Path(path) if path is not None else None
        self.pending_path = Path(pending_path) if pending_path is not None else None
        self._lock = threading.Lock()
        self._blocks: list[Block] = []
        # insertion-ordered, so membership is O(1) and the order is kept
        self._pending: dict[bytes, None] = {}
        # the last audit: (blocks covered, their hashes, verdict)
        self._audit: tuple[list[Block], list[bytes], bool] = ([], [], True)
        if self.path is not None and self.path.exists():
            self._blocks = _load_chain_file(self.path)
            if not self._blocks:
                raise LedgerError(f"ledger file {self.path} is empty")
        # read before the genesis write below, so a refused pool leaves no
        # new chain file behind
        if self.pending_path is not None and self.pending_path.exists():
            self._pending = _load_pending_file(self.pending_path)
        if not self._blocks:
            self._blocks = [GENESIS]
            if self.path is not None:
                write_file(self.path, _block_line(GENESIS).encode("ascii"))

    @property
    def blocks(self) -> tuple[Block, ...]:
        with self._lock:
            return tuple(self._blocks)

    @property
    def height(self) -> int:
        with self._lock:
            return self._blocks[-1].height

    @property
    def pending(self) -> tuple[bytes, ...]:
        with self._lock:
            return tuple(self._pending)

    def submit_anchor(self, digest: bytes, *more: bytes) -> int:
        """Queue digests, in order, for the next block with one pool write;
        returns the first one's pool position.

        All or none: a digest already pending or given twice raises
        DuplicatePendingError before the pool file is touched, and after any
        failure the pool in memory is as it was.
        """
        digests = (digest,) + more
        for d in digests:
            DIGEST.check(d, "digest")
        with self._lock:
            pending = self._pending
            position = len(pending)
            try:
                for d in digests:
                    if d in pending:
                        raise DuplicatePendingError(f"digest {d.hex()} is already pending")
                    pending[d] = None
                self._write_pending_locked()
            except BaseException:
                while len(pending) > position:
                    pending.popitem()
                raise
        return position

    def mine_block(self, now: int) -> tuple[Block, list[AnchorReceipt]]:
        """Drain the pool into one proof-of-work block and emit receipts."""
        U64.check(now, "timestamp")
        with self._lock:
            if not self._pending:
                raise EmptyPoolError("no pending digests to mine")
            txs = tuple(self._pending)
            tip = self._blocks[-1]
            levels = _merkle_levels(txs)
            root = levels[-1][0]
            fields = (tip.height + 1, block_hash(tip), root, now, self.difficulty)
            prefix = _HEADER.pack(*fields, 0)[: -_NONCE.size]
            nonce, bh = _first_nonce(prefix, self.difficulty)
            block = Block(*fields, nonce=nonce, tx_digests=txs)
            receipts = [
                AnchorReceipt(
                    target_digest=d,
                    block_height=block.height,
                    block_hash=bh,
                    merkle_root=root,
                    merkle_path=tuple(_path_in(levels, i)),
                    anchor_timestamp=now,
                )
                for i, d in enumerate(txs)
            ]
            self._blocks.append(block)
            self._pending.clear()
            if self.path is not None:
                with self.path.open("a", encoding="ascii") as fh:
                    fh.write(_block_line(block))
            self._write_pending_locked()
        return block, receipts

    def verify_receipt(self, digest: bytes, receipt: AnchorReceipt) -> VerifyResult:
        """Check a receipt against the digest and a block of the audited chain.

        All failures yield ok=False with a reason code instead of raising;
        on a chain that fails `validate_chain` the reason is chain-invalid.
        """
        if not isinstance(digest, bytes) or len(digest) != DIGEST_LEN:
            return VerifyResult(False, "malformed-digest")
        if receipt.target_digest != digest:
            return VerifyResult(False, "target-mismatch")
        if apply_merkle_path(digest, receipt.merkle_path) != receipt.merkle_root:
            return VerifyResult(False, "path-mismatch")
        blocks, hashes, chain_ok = self._audited()
        if not chain_ok:
            return VerifyResult(False, "chain-invalid")
        height = receipt.block_height
        if height >= len(blocks):
            return VerifyResult(False, "no-such-block")
        block = blocks[height]
        if hashes[height] != receipt.block_hash:
            return VerifyResult(False, "block-hash-mismatch")
        if block.merkle_root != receipt.merkle_root:
            return VerifyResult(False, "merkle-root-mismatch")
        if receipt.anchor_timestamp != block.timestamp:
            return VerifyResult(False, "timestamp-mismatch")
        # Leaves and inner nodes hash alike, so a path from an inner node also
        # reaches the root; only digests the block lists were anchored.
        if digest not in block.tx_digests:
            return VerifyResult(False, "not-in-block")
        return VerifyResult(True)

    def validate_chain(self) -> bool:
        """Audit the stored blocks: heights, hash links, Merkle roots, proof
        of work, and a genesis block that lists no digests."""
        return self._audited()[2]

    def _audited(self) -> tuple[list[Block], list[bytes], bool]:
        """One snapshot of the chain audit: (blocks covered, their hashes, verdict).

        The last audit is remembered. Blocks are only ever appended, so while
        the stored chain still starts with the covered blocks (compared whole:
        the header does not cover the tx list), a clean verdict is extended
        over the blocks appended since and a failed one stands. Otherwise the
        whole chain is audited.
        """
        with self._lock:
            covered, hashes, ok = audit = self._audit
            if covered and self._blocks == covered:
                return audit
            blocks = list(self._blocks)
        start = len(covered)
        if blocks[:start] != covered:
            start, hashes = 0, []
        elif not ok:
            return audit
        else:
            hashes = list(hashes)
        prev = hashes[-1] if hashes else ZERO32
        for i in range(start, len(blocks)):
            block = blocks[i]
            if block.height != i or block.prev_hash != prev or (i == 0 and block.tx_digests):
                break
            if block.merkle_root != merkle_root_of(block.tx_digests):
                break
            prev = block_hash(block)
            if not meets_difficulty(prev, block.difficulty):
                break
            hashes.append(prev)
        audit = (blocks, hashes, len(hashes) == len(blocks))
        with self._lock:
            self._audit = audit
        return audit

    def _write_pending_locked(self) -> None:
        if self.pending_path is not None:
            text = canonical_dumps(DIGESTS.encode(self._pending))
            write_file(self.pending_path, text.encode("ascii"))


class TipLedger(Ledger):
    """The pool and the chain's last block, all that `mine_block` reads:
    `blocks`, `validate_chain` and `verify_receipt` raise LedgerError. An
    empty pool is refused before a missing chain file is started."""

    def __init__(self, path: Path, pending_path: Path, difficulty: int = 8):
        super().__init__(pending_path=pending_path, difficulty=difficulty)
        if not self._pending:
            raise EmptyPoolError("no pending digests to mine")
        self.path = Path(path)
        if self.path.exists():
            self._blocks = [_load_chain_tip(self.path)]
        else:
            write_file(self.path, _block_line(GENESIS).encode("ascii"))

    @property
    def blocks(self) -> tuple[Block, ...]:
        raise LedgerError("only the chain's tip was read")

    def _audited(self) -> tuple[list[Block], list[bytes], bool]:
        raise LedgerError("only the chain's tip was read")


def write_file(path: Path, data: bytes) -> None:
    """Write a whole workspace file, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _block_line(block: Block) -> str:
    return canonical_dumps(block.to_json_dict()) + "\n"


# A chain file is parsed one chunk of whole lines at a time, each chunk as
# one JSON array of at most this many characters (a longer line is a chunk
# of its own), so that loading holds one chunk's parsed objects at a time
# beside the blocks: a whole-file parse raised peak memory by megabytes.
_CHUNK_CHARS = 64 * 1024
# Every canonical block line starts with its first sorted key and ends with
# the list of its last one, tx_digests.
_LINE_HEAD = '{"%s":' % min(Block.FIELDS)
_LINE_TAIL = "]}"
_LINE_JOIN = _LINE_TAIL + "\n" + _LINE_HEAD


def _chain_text(path: Path) -> str:
    """The chain file as text: ASCII, and empty or ending in a newline."""
    try:
        # decoded from bytes: read_text would turn "\r\n" and "\r" into "\n"
        raw = path.read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"ledger file is not ASCII: {exc}") from exc
    if raw and not raw.endswith("\n"):
        raise LedgerError("ledger file must end with a newline")
    return raw


def _load_chain_file(path: Path) -> list[Block]:
    raw = _chain_text(path)
    blocks: list[Block] = []
    pos, lineno = 0, 1
    while pos < len(raw):
        end = raw.rfind("\n", pos, pos + _CHUNK_CHARS)
        if end < pos:
            end = raw.index("\n", pos)  # one line longer than a chunk
        chunk = raw[pos:end]
        lines = chunk.count("\n") + 1
        blocks += _parse_chunk(chunk, lines) or _parse_lines(chunk, lineno)
        pos, lineno = end + 1, lineno + lines
    return blocks


def _load_chain_tip(path: Path) -> Block:
    """The chain file's last block. The whole file must pass `_framed`; only
    its last line is decoded, strictly: the chain audit reads the rest."""
    raw = _chain_text(path)
    lines = raw.count("\n")
    if not _framed(raw, lines, len(raw) - 1):  # framed in place, not copied
        raise LedgerError("ledger file is not one block per line")
    return _parse_lines(raw[raw.rfind("\n", 0, -1) + 1 : -1], lines)[0]


def _framed(text: str, lines: int, end: int) -> bool:
    """Whether text[:end] is framed as `lines` block lines joined by
    newlines, with no "\r", which would hide a line break from the count."""
    return (
        text.startswith(_LINE_HEAD)
        and text.endswith(_LINE_TAIL, 0, end)
        and text.count(_LINE_JOIN, 0, end) == lines - 1
        and text.find("\r", 0, end) < 0
    )


def _parse_chunk(chunk: str, lines: int) -> list[Block] | None:
    """The blocks of newline-separated lines, with one strict parse of them
    all as a JSON array; None if they are not one canonical block per line.

    The array can be canonical while its lines are not: a newline moved into
    a tx_digests list, with a comma moved to the line's end, leaves the
    joined text unchanged. Once every object has decoded as a block, every
    line starting with a block's first key pins each line start to a block
    start, since no object opens inside a block, and as many blocks as
    lines leaves no block to span a line break.
    """
    if not _framed(chunk, lines, len(chunk)):
        return None
    try:
        objs = canonical_loads_strict("[" + chunk.replace("\n", ",") + "]")
        if len(objs) != lines:
            return None
        return Block.from_json_dicts(objs)
    except CanonicalJsonError:
        return None


def _parse_lines(chunk: str, first_lineno: int) -> list[Block]:
    """The blocks of newline-separated lines, one strict parse per line, so
    that a refusal names its line."""
    blocks = []
    # split on "\n" alone: splitlines() also breaks on \v, \f, and friends,
    # which would let a mutated separator byte pass unnoticed
    for lineno, line in enumerate(chunk.split("\n"), start=first_lineno):
        try:
            blocks.append(Block.from_json_dict(canonical_loads_strict(line)))
        except CanonicalJsonError as exc:
            raise LedgerError(f"ledger line {lineno}: {exc}") from exc
    return blocks


def _load_pending_file(path: Path) -> dict[bytes, None]:
    """The pool as `pending.json` holds it: a list of distinct digests."""
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"pending pool file is not ASCII: {exc}") from exc
    obj = canonical_loads_strict(text)
    try:
        digests = DIGESTS.check(DIGESTS.decode(obj, "pending pool"), "pending pool")
    except ValueError as exc:
        raise LedgerError(str(exc)) from exc
    pool = dict.fromkeys(digests)
    if len(pool) != len(digests):
        raise LedgerError("pending pool lists a digest twice")
    return pool


class ReceiptStore:
    """Directory of receipts, one canonical-JSON file per anchored digest."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def path_for(self, digest: bytes) -> Path:
        DIGEST.check(digest, "digest")
        return self.directory / f"{digest.hex()}.receipt.json"

    def save(self, receipt: AnchorReceipt) -> Path:
        path = self.path_for(receipt.target_digest)
        write_file(path, canonical_dumps(receipt.to_json_dict()).encode("ascii"))
        return path

    def load(self, digest: bytes) -> AnchorReceipt | None:
        path = self.path_for(digest)
        if not path.exists():
            return None
        try:
            text = path.read_text(encoding="ascii")
            return AnchorReceipt.from_json_dict(canonical_loads_strict(text))
        except (UnicodeDecodeError, CanonicalJsonError) as exc:
            raise CanonicalJsonError(f"receipt {path.name} rejected: {exc}") from exc

    def get(self, digest: bytes) -> AnchorReceipt | None:
        """Dict-style lookup, so the store can stand in for a receipts map."""
        return self.load(digest)
