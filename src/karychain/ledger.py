"""Simulated proof-of-existence blockchain.

Digests submitted to the pending pool are batched into blocks: the block
header commits to a Merkle root over the batch, chains to its predecessor
by double-SHA-256 hash, and is mined by nonce search until the hash has
the required number of leading zero bits. Each anchored digest gets a
receipt carrying its Merkle inclusion path plus the block reference, so
existence and integrity can be re-verified later against the stored chain.

`Chain.validate_chain` is the one judge of blocks: heights, hash links,
Merkle roots, proof of work and an empty genesis. Past genesis, the
difficulty a block states must reach the chain's `min_difficulty` floor.
`verify_receipt` checks only the receipt against a block of a chain that
passes that audit.

Merkle trees pair leaves left to right and promote an odd trailing node
unchanged to the next level (no Bitcoin-style duplication); promotion
levels contribute no path entry. The chain persists as an append-only file
of canonical-JSON lines, each exactly what `_line_of` writes for its block,
receipts as one canonical-JSON file per digest.

Each workspace file has one owner: `Pool` the pending pool's; `Chain`
(every block), `read_tip` (the last), `start_chain` (the genesis line) and
`append_block` the chain file's. `mine_block` is pure. `mine_pool`, the one
mine sequence of `Ledger.mine_block` and `kary mine`, runs it on a given tip,
then saves each receipt, appends the block and clears the pool. `Ledger`,
the library's facade, is a `Chain` that also holds a `Pool`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

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
# Mining, the pool and the chain


def mine_block(digests: Sequence[bytes], tip: Block, difficulty: int,
               now: int) -> tuple[Block, list[AnchorReceipt]]:
    """One proof-of-work block of `digests`, in order, linked to `tip`, and
    a receipt per digest. Pure: it reads and writes nothing."""
    U64.check(now, "timestamp")
    if not digests:
        raise EmptyPoolError("no pending digests to mine")
    txs = tuple(digests)
    levels = _merkle_levels(txs)
    root = levels[-1][0]
    fields = (tip.height + 1, block_hash(tip), root, now, difficulty)
    prefix = _HEADER.pack(*fields, 0)[: -_NONCE.size]
    nonce, bh = _first_nonce(prefix, difficulty)
    block = Block(*fields, nonce=nonce, tx_digests=txs)
    receipts = [AnchorReceipt(d, block.height, bh, root, tuple(_path_in(levels, i)), now)
                for i, d in enumerate(txs)]
    return block, receipts


class Pool:
    """The pending pool: distinct digests waiting, in order, for the next
    block. With a path it is that file (`pending.json`), loaded strictly and
    rewritten whole on every change; a missing file is an empty pool."""

    def __init__(self, path: Path | None = None):
        self.path = Path(path) if path is not None else None
        # insertion-ordered, so membership is O(1) and the order is kept
        self._digests: dict[bytes, None] = {}
        if self.path is None or not self.path.exists():
            return
        try:
            text = self.path.read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise LedgerError(f"pending pool file is not ASCII: {exc}") from exc
        obj = canonical_loads_strict(text)
        try:
            digests = DIGESTS.check(DIGESTS.decode(obj, "pending pool"), "pending pool")
        except ValueError as exc:
            raise LedgerError(str(exc)) from exc
        self._digests = dict.fromkeys(digests)
        if len(self._digests) != len(digests):
            raise LedgerError("pending pool lists a digest twice")

    @property
    def digests(self) -> tuple[bytes, ...]:
        return tuple(self._digests)

    def submit(self, *digests: bytes) -> int:
        """Queue digests, in order, with one pool write; returns the first
        one's position.

        All or none: a digest already pending or given twice raises
        DuplicatePendingError before the pool file is touched, and after any
        failure the pool in memory is as it was.
        """
        for d in digests:
            DIGEST.check(d, "digest")
        pool = self._digests
        position = len(pool)
        try:
            for d in digests:
                if d in pool:
                    raise DuplicatePendingError(f"digest {d.hex()} is already pending")
                pool[d] = None
            self._write()
        except BaseException:
            while len(pool) > position:
                pool.popitem()
            raise
        return position

    def clear(self) -> None:
        """Drain the pool, once its digests are in a block."""
        self._digests.clear()
        self._write()

    def _write(self) -> None:
        if self.path is not None:
            write_file(self.path, canonical_dumps(DIGESTS.encode(self._digests)).encode("ascii"))


def mine_pool(pool: Pool, tip: Block, difficulty: int, now: int, append: Callable[[Block], None],
              save: Callable[[AnchorReceipt], object] | None = None,
              ) -> tuple[Block, list[AnchorReceipt]]:
    """Mine the pool onto `tip`, given and never re-read, in crash-safe order:
    `save` each receipt (if given), `append` the block, clear the pool. Until
    the clear, mining again mends a failure at any step."""
    block, receipts = mine_block(pool.digests, tip, difficulty, now)
    if save is not None:
        for receipt in receipts:
            save(receipt)
    append(block)
    pool.clear()
    return block, receipts


class Chain:
    """The blocks of a chain file, loaded strictly: every line must be the
    canonical encoding of its block; a missing file raises FileNotFoundError.
    Without a path the chain is genesis alone, in memory."""

    def __init__(self, path: Path | None = None, min_difficulty: int = 0):
        self.path = Path(path) if path is not None else None
        self.min_difficulty = _DIFFICULTY.check(min_difficulty, "min_difficulty")
        self._lock = threading.Lock()
        self._blocks = [GENESIS] if self.path is None else _load_chain_file(self.path)
        if not self._blocks:
            raise LedgerError(f"ledger file {self.path} is empty")
        # the last audit: (blocks covered, their hashes, verdict)
        self._audit: tuple[list[Block], list[bytes], bool] = ([], [], True)

    @property
    def blocks(self) -> tuple[Block, ...]:
        with self._lock:
            return tuple(self._blocks)

    @property
    def height(self) -> int:
        with self._lock:
            return self._blocks[-1].height

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
        of work at no less than `min_difficulty` past genesis, and a genesis
        block that lists no digests."""
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
        floor = self.min_difficulty
        for i in range(start, len(blocks)):
            block = blocks[i]
            if block.height != i or block.prev_hash != prev or (i == 0 and block.tx_digests):
                break
            if block.difficulty < floor and i:
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


class Ledger(Chain):
    """The library's ledger: a `Chain` that holds a `Pool` and mines it with
    `mine_pool` onto the tip it holds in memory, under the chain's lock,
    saving no receipts. A new chain file is started with genesis; each mined
    block appends one line. A pending path persists the pool between
    processes. A ledger that would mine below its own `min_difficulty` floor
    is refused."""

    def __init__(self, path: Path | None = None, pending_path: Path | None = None,
                 difficulty: int = 8, min_difficulty: int = 0):
        self.difficulty = _DIFFICULTY.check(difficulty, "difficulty")
        if difficulty < _DIFFICULTY.check(min_difficulty, "min_difficulty"):
            raise ValueError(f"difficulty {difficulty} is below min_difficulty {min_difficulty}")
        # read first, so that a refused pool leaves no new chain file behind
        self._pool = Pool(pending_path)
        self.pending_path = self._pool.path
        path = Path(path) if path is not None else None
        # a chain file started here holds genesis alone: not read back
        started = path is not None and start_chain(path)
        super().__init__(None if started else path, min_difficulty)
        self.path = path

    @property
    def pending(self) -> tuple[bytes, ...]:
        with self._lock:
            return self._pool.digests

    def submit_anchor(self, digest: bytes, *more: bytes) -> int:
        """Queue digests for the next block; see `Pool.submit`."""
        with self._lock:
            return self._pool.submit(digest, *more)

    def mine_block(self, now: int) -> tuple[Block, list[AnchorReceipt]]:
        """Drain the pool into one block with `mine_pool`, and emit receipts."""
        with self._lock:
            return mine_pool(self._pool, self._blocks[-1], self.difficulty, now, self._append)

    def _append(self, block: Block) -> None:
        # before the pool is cleared: the next block is mined on the file's tip
        if self.path is not None:
            append_block(self.path, block)
        self._blocks.append(block)


def write_file(path: Path, data: bytes) -> None:
    """Write a whole workspace file, creating its directory if it is missing."""
    try:
        path.write_bytes(data)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


# A block's chain line: its canonical JSON, keys sorted, with no whitespace,
# integers in decimal and bytes in lowercase hex. Filled only with values a
# Block holds or `Block.from_json_dicts` has checked, it is exactly what
# `canonical_dumps(block.to_json_dict())` writes.
_LINE = (
    '{"difficulty":%d,"height":%d,"merkle_root":"%s","nonce":%d,'
    '"prev_hash":"%s","timestamp":%d,"tx_digests":[%s]}'
)


def _line_of(obj: dict) -> str:
    """The chain line, without its newline, of a block's JSON values."""
    txs = obj["tx_digests"]
    txs = '"%s"' % '","'.join(txs) if txs else ""
    return _LINE % (obj["difficulty"], obj["height"], obj["merkle_root"], obj["nonce"],
                    obj["prev_hash"], obj["timestamp"], txs)


def _block_line(block: Block) -> str:
    return _line_of(block.to_json_dict()) + "\n"


def start_chain(path: Path) -> bool:
    """Start a chain file with the genesis line unless one exists, and say
    whether it did: the only writer of a genesis line."""
    if path.exists():
        return False
    write_file(path, _block_line(GENESIS).encode("ascii"))
    return True


def append_block(path: Path, block: Block) -> None:
    """Append one block's line to the chain file: the only chain append. An
    append that fails leaves the file as it was, so mining again mends it."""
    size = None
    try:
        with path.open("a", encoding="ascii") as fh:
            size = fh.tell()
            fh.write(_block_line(block))
    except BaseException:
        if size is not None:
            # once closed: a buffered writer flushes what it holds at close
            os.truncate(path, size)
        raise


# A chain file is parsed one chunk of whole lines at a time, each chunk as
# one JSON array of at most this many characters (a longer line is a chunk
# of its own), so that loading holds one chunk's parsed objects at a time
# beside the blocks: a whole-file parse raised peak memory by megabytes.
_CHUNK_CHARS = 64 * 1024
# Every chain line starts with its first key and ends with the list of its
# last one, tx_digests: what the tip read's framing pass counts.
_LINE_HEAD = _LINE[: _LINE.index(":") + 1]
_LINE_TAIL = _LINE[-2:]
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


def read_tip(path: Path) -> Block:
    """The chain file's last block. The whole file must be framed as block
    lines, with no "\r", which would hide a line break from the count; only
    its last line is decoded, strictly: the chain audit reads the rest."""
    raw = _chain_text(path)
    lines, end = raw.count("\n"), len(raw) - 1  # framed in place, not copied
    if not (
        raw.startswith(_LINE_HEAD)
        and raw.endswith(_LINE_TAIL, 0, end)
        and raw.count(_LINE_JOIN, 0, end) == lines - 1
        and raw.find("\r", 0, end) < 0
    ):
        raise LedgerError("ledger file is not one block per line")
    return _parse_lines(raw[raw.rfind("\n", 0, -1) + 1 : -1], lines)[0]


def _parse_chunk(chunk: str, lines: int) -> list[Block] | None:
    """The blocks of `lines` newline-separated lines, with one JSON parse of
    them all as an array; None unless each line is its block's chain line.

    The array alone proves little: a newline moved into a tx_digests list,
    with a comma moved to the line's end, leaves the joined text unchanged.
    So once every object has decoded as a block, the chunk must equal the
    lines `_line_of` writes from the values just checked. That one compare
    fixes both the framing (one block per line) and the canonical form.
    """
    try:
        objs = json.loads("[" + chunk.replace("\n", ",") + "]")
        if len(objs) != lines:
            return None
        blocks = Block.from_json_dicts(objs)
    except (ValueError, RecursionError):
        return None
    if "\n".join(map(_line_of, objs)) != chunk:
        return None
    return blocks


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
