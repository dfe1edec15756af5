"""Simulated proof-of-existence blockchain.

Digests submitted to the pending pool are batched into blocks: the block
header commits to a Merkle root over the batch, chains to its predecessor
by double-SHA-256 hash, and is mined by nonce search until the hash has
the required number of leading zero bits. Each anchored digest gets a
receipt carrying its Merkle inclusion path plus the block reference, so
existence and integrity can be re-verified later against the stored chain.

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
from typing import Any, Iterator, Sequence

from .canonical import (
    CanonicalJsonError,
    canonical_dumps,
    canonical_loads_strict,
    parse_hex,
    require_hex,
    require_int,
    require_str,
)

DIGEST_LEN = 32
ZERO32 = bytes(32)
# height, prev_hash, merkle_root, timestamp, difficulty, nonce
_HEADER = struct.Struct(">Q32s32sQBQ")
_NONCE = struct.Struct(">Q")
BLOCK_HEADER_LEN = _HEADER.size
SIDE_LEFT = "LEFT"
SIDE_RIGHT = "RIGHT"


class LedgerError(Exception):
    pass


class DuplicatePendingError(LedgerError):
    """The digest is already waiting in the pending pool."""


class EmptyPoolError(LedgerError):
    """Mining was requested with nothing to anchor."""


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _check_digest(digest: bytes, what: str = "digest") -> None:
    if not isinstance(digest, bytes) or len(digest) != DIGEST_LEN:
        raise ValueError(f"{what} must be exactly {DIGEST_LEN} bytes")


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
class Block:
    height: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    difficulty: int
    nonce: int
    tx_digests: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("height must be >= 0")
        if not 0 <= self.difficulty <= 255:
            raise ValueError("difficulty must be in 0..255")
        if not 0 <= self.timestamp < 2**64 or not 0 <= self.nonce < 2**64:
            raise ValueError("timestamp and nonce must fit in 64 bits")
        _check_digest(self.prev_hash, "prev_hash")
        _check_digest(self.merkle_root, "merkle_root")
        object.__setattr__(self, "tx_digests", tuple(self.tx_digests))
        for d in self.tx_digests:
            _check_digest(d, "tx digest")

    def header(self) -> bytes:
        return _HEADER.pack(
            self.height,
            self.prev_hash,
            self.merkle_root,
            self.timestamp,
            self.difficulty,
            self.nonce,
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash.hex(),
            "merkle_root": self.merkle_root.hex(),
            "timestamp": self.timestamp,
            "difficulty": self.difficulty,
            "nonce": self.nonce,
            "tx_digests": [d.hex() for d in self.tx_digests],
        }

    @classmethod
    def from_json_dict(cls, obj: Any) -> "Block":
        if not isinstance(obj, dict):
            raise CanonicalJsonError("block must be a JSON object")
        known = {
            "height",
            "prev_hash",
            "merkle_root",
            "timestamp",
            "difficulty",
            "nonce",
            "tx_digests",
        }
        if set(obj) != known:
            raise CanonicalJsonError("block has missing or unknown fields")
        raw_txs = obj.get("tx_digests")
        if not isinstance(raw_txs, list):
            raise CanonicalJsonError("tx_digests must be a list")
        txs = []
        for d in raw_txs:
            if not isinstance(d, str):
                raise CanonicalJsonError("tx digest must be a hex string")
            txs.append(parse_hex(d, DIGEST_LEN, "tx digest"))
        try:
            return cls(
                height=require_int(obj, "height", 0, 2**64 - 1),
                prev_hash=require_hex(obj, "prev_hash", DIGEST_LEN),
                merkle_root=require_hex(obj, "merkle_root", DIGEST_LEN),
                timestamp=require_int(obj, "timestamp", 0, 2**64 - 1),
                difficulty=require_int(obj, "difficulty", 0, 255),
                nonce=require_int(obj, "nonce", 0, 2**64 - 1),
                tx_digests=tuple(txs),
            )
        except ValueError as exc:
            raise CanonicalJsonError(str(exc)) from exc


def block_hash(block: Block) -> bytes:
    """Double SHA-256 over the 89-byte header."""
    return sha256(sha256(block.header()))


def leading_zero_bits(digest: bytes) -> int:
    value = int.from_bytes(digest, "big")
    return 8 * len(digest) - value.bit_length()


def meets_difficulty(digest: bytes, difficulty: int) -> bool:
    return leading_zero_bits(digest) >= difficulty


def _first_nonce(prefix: bytes, difficulty: int) -> tuple[int, bytes]:
    """The smallest nonce, and its block hash, whose header meets `difficulty`.

    `prefix` is the header without its trailing nonce, and is hashed once;
    each attempt copies that SHA-256 state, feeds it the 8 nonce bytes and
    hashes the result again. A hash has at least `difficulty` leading zero
    bits exactly when it is below the target.
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
class AnchorReceipt:
    """Proof that a digest was committed into a specific block."""

    target_digest: bytes
    block_height: int
    block_hash: bytes
    merkle_root: bytes
    merkle_path: tuple[tuple[bytes, str], ...]
    anchor_timestamp: int

    def __post_init__(self) -> None:
        _check_digest(self.target_digest, "target_digest")
        _check_digest(self.block_hash, "block_hash")
        _check_digest(self.merkle_root, "merkle_root")
        if self.block_height < 0:
            raise ValueError("block_height must be >= 0")
        if not 0 <= self.anchor_timestamp < 2**64:
            raise ValueError("anchor_timestamp must fit in 64 bits")
        object.__setattr__(self, "merkle_path", tuple(self.merkle_path))
        for sibling, side in self.merkle_path:
            _check_digest(sibling, "path sibling")
            if side not in (SIDE_LEFT, SIDE_RIGHT):
                raise ValueError(f"unknown path side {side!r}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "target_digest": self.target_digest.hex(),
            "block_height": self.block_height,
            "block_hash": self.block_hash.hex(),
            "merkle_root": self.merkle_root.hex(),
            "merkle_path": [
                {"sibling": sibling.hex(), "side": side} for sibling, side in self.merkle_path
            ],
            "anchor_timestamp": self.anchor_timestamp,
        }

    @classmethod
    def from_json_dict(cls, obj: Any) -> "AnchorReceipt":
        if not isinstance(obj, dict):
            raise CanonicalJsonError("receipt must be a JSON object")
        known = {
            "target_digest",
            "block_height",
            "block_hash",
            "merkle_root",
            "merkle_path",
            "anchor_timestamp",
        }
        if set(obj) != known:
            raise CanonicalJsonError("receipt has missing or unknown fields")
        raw_path = obj.get("merkle_path")
        if not isinstance(raw_path, list):
            raise CanonicalJsonError("merkle_path must be a list")
        path = []
        for step in raw_path:
            if not isinstance(step, dict) or set(step) != {"sibling", "side"}:
                raise CanonicalJsonError("each path step needs sibling and side")
            side = require_str(step, "side", (SIDE_LEFT, SIDE_RIGHT))
            path.append((require_hex(step, "sibling", DIGEST_LEN), side))
        try:
            return cls(
                target_digest=require_hex(obj, "target_digest", DIGEST_LEN),
                block_height=require_int(obj, "block_height", 0, 2**64 - 1),
                block_hash=require_hex(obj, "block_hash", DIGEST_LEN),
                merkle_root=require_hex(obj, "merkle_root", DIGEST_LEN),
                merkle_path=tuple(path),
                anchor_timestamp=require_int(obj, "anchor_timestamp", 0, 2**64 - 1),
            )
        except ValueError as exc:
            raise CanonicalJsonError(str(exc)) from exc


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
        allow_empty_blocks: bool = False,
    ):
        if not 0 <= difficulty <= 255:
            raise ValueError("difficulty must be in 0..255")
        self.difficulty = difficulty
        self.allow_empty_blocks = allow_empty_blocks
        self.path = Path(path) if path is not None else None
        self.pending_path = Path(pending_path) if pending_path is not None else None
        self._lock = threading.Lock()
        self._blocks: list[Block] = []
        # insertion-ordered, so membership is O(1) and the order is kept
        self._pending: dict[bytes, None] = {}
        # tip block and tip hash of the last clean audit
        self._audited: tuple[Block, bytes] | None = None
        if self.path is not None and self.path.exists():
            self._blocks = list(_load_chain_file(self.path))
            if not self._blocks:
                raise LedgerError(f"ledger file {self.path} is empty")
        else:
            self._blocks = [GENESIS]
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.write_text(_block_line(GENESIS), encoding="ascii")
        if self.pending_path is not None and self.pending_path.exists():
            self._pending = _load_pending_file(self.pending_path)

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

    def submit_anchor(self, digest: bytes) -> int:
        """Queue a digest for the next block; returns its pool position."""
        _check_digest(digest)
        with self._lock:
            if digest in self._pending:
                raise DuplicatePendingError(f"digest {digest.hex()} is already pending")
            self._pending[digest] = None
            position = len(self._pending) - 1
            self._write_pending_locked()
        return position

    def mine_block(self, now: int) -> tuple[Block, list[AnchorReceipt]]:
        """Drain the pool into one proof-of-work block and emit receipts."""
        if not 0 <= now < 2**64:
            raise ValueError("timestamp must fit in 64 bits")
        with self._lock:
            if not self._pending and not self.allow_empty_blocks:
                raise EmptyPoolError("no pending digests to mine")
            txs = tuple(self._pending)
            tip = self._blocks[-1]
            levels = _merkle_levels(txs)
            root = levels[-1][0] if txs else ZERO32
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
        """Check a receipt against the digest and the stored chain.

        All failures yield ok=False with a reason code instead of raising.
        """
        if not isinstance(digest, bytes) or len(digest) != DIGEST_LEN:
            return VerifyResult(False, "malformed-digest")
        if receipt.target_digest != digest:
            return VerifyResult(False, "target-mismatch")
        if apply_merkle_path(digest, receipt.merkle_path) != receipt.merkle_root:
            return VerifyResult(False, "path-mismatch")
        with self._lock:
            if not 0 <= receipt.block_height < len(self._blocks):
                return VerifyResult(False, "no-such-block")
            block = self._blocks[receipt.block_height]
            prev = self._blocks[receipt.block_height - 1] if receipt.block_height > 0 else None
        bh = block_hash(block)
        if bh != receipt.block_hash:
            return VerifyResult(False, "block-hash-mismatch")
        if block.merkle_root != receipt.merkle_root:
            return VerifyResult(False, "merkle-root-mismatch")
        if not meets_difficulty(bh, block.difficulty):
            return VerifyResult(False, "pow-unsatisfied")
        if prev is not None:
            if block.prev_hash != block_hash(prev):
                return VerifyResult(False, "chain-link-broken")
        elif block.prev_hash != ZERO32:
            return VerifyResult(False, "chain-link-broken")
        if receipt.anchor_timestamp != block.timestamp:
            return VerifyResult(False, "timestamp-mismatch")
        # Leaves and inner nodes hash alike, so a path from an inner node also
        # reaches the root; only digests the block lists were anchored.
        if digest not in block.tx_digests:
            return VerifyResult(False, "not-in-block")
        return VerifyResult(True)

    def validate_chain(self) -> bool:
        """Audit the stored blocks: invariants, heights, and hash links.

        A clean audit remembers its tip block and tip hash. While that block
        is still stored at its height, later calls audit only the blocks
        appended since; otherwise they audit the whole chain. The whole
        block is compared, not its hash: the header does not cover the
        tx list.
        """
        with self._lock:
            blocks = list(self._blocks)
            audited = self._audited
        if not blocks:
            return False
        start, prev = 0, ZERO32
        if audited is not None:
            tip, tip_hash = audited
            if tip.height < len(blocks) and blocks[tip.height] == tip:
                start, prev = tip.height + 1, tip_hash
        if start == 0 and (blocks[0].tx_digests or blocks[0].merkle_root != ZERO32):
            return False
        for i in range(start, len(blocks)):
            block = blocks[i]
            if block.height != i or block.prev_hash != prev:
                return False
            if block.merkle_root != merkle_root_of(block.tx_digests):
                return False
            prev = block_hash(block)
            if not meets_difficulty(prev, block.difficulty):
                return False
        with self._lock:
            self._audited = (blocks[-1], prev)
        return True

    def _write_pending_locked(self) -> None:
        if self.pending_path is None:
            return
        self.pending_path.parent.mkdir(parents=True, exist_ok=True)
        text = canonical_dumps([d.hex() for d in self._pending])
        self.pending_path.write_text(text, encoding="ascii")


def _block_line(block: Block) -> str:
    return canonical_dumps(block.to_json_dict()) + "\n"


def _load_chain_file(path: Path) -> Iterator[Block]:
    try:
        raw = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"ledger file is not ASCII: {exc}") from exc
    if raw and not raw.endswith("\n"):
        raise LedgerError("ledger file must end with a newline")
    # split on "\n" alone: splitlines() also breaks on \v, \f, and friends,
    # which would let a mutated separator byte pass unnoticed
    for lineno, line in enumerate(raw[:-1].split("\n"), start=1):
        try:
            yield Block.from_json_dict(canonical_loads_strict(line))
        except CanonicalJsonError as exc:
            raise LedgerError(f"ledger line {lineno}: {exc}") from exc


def _load_pending_file(path: Path) -> dict[bytes, None]:
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"pending pool file is not ASCII: {exc}") from exc
    obj = canonical_loads_strict(text)
    if not isinstance(obj, list):
        raise LedgerError("pending pool file must hold a JSON list")
    out: dict[bytes, None] = {}
    for item in obj:
        if not isinstance(item, str):
            raise LedgerError("pending pool entries must be hex strings")
        digest = parse_hex(item, DIGEST_LEN, "pending digest")
        if digest in out:
            raise LedgerError(f"pending pool lists digest {item} twice")
        out[digest] = None
    return out


class ReceiptStore:
    """Directory of receipts, one canonical-JSON file per anchored digest."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def path_for(self, digest: bytes) -> Path:
        _check_digest(digest)
        return self.directory / f"{digest.hex()}.receipt.json"

    def save(self, receipt: AnchorReceipt) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(receipt.target_digest)
        path.write_text(canonical_dumps(receipt.to_json_dict()), encoding="ascii")
        return path

    def load(self, digest: bytes) -> AnchorReceipt | None:
        path = self.path_for(digest)
        if not path.exists():
            return None
        return self._read(path)

    def load_all(self) -> dict[bytes, AnchorReceipt]:
        """Map of target digest to receipt for every stored receipt file."""
        out: dict[bytes, AnchorReceipt] = {}
        if not self.directory.is_dir():
            return out
        for path in sorted(self.directory.glob("*.receipt.json")):
            receipt = self._read(path)
            out[receipt.target_digest] = receipt
        return out

    @staticmethod
    def _read(path: Path) -> AnchorReceipt:
        try:
            text = path.read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise CanonicalJsonError(f"receipt file is not ASCII: {exc}") from exc
        return AnchorReceipt.from_json_dict(canonical_loads_strict(text))
