"""Fragment wire format, payload manifest, partitioning, and recombination.

A payload's ciphertext is cut into k slices, each carried by one fragment
file together with that fragment's key share and, depending on the class
code, digests of the slices it depends on:

* I_A: mutually dependent, every fragment embeds the digests of all k-1
  other slices;
* I_B: fully independent, no embedded references;
* I_C: semi-dependent, each fragment references its successor's slice
  (the last references none);
* II: no references, but execution requires all fragments present and
  active simultaneously (enforced by the workflow layer).

Binary layout (big-endian): magic "KARY", version u8, index u8, k u8,
class u8, share_x u8, share_len u32, share_y, slice_len u32, slice,
dep_count u8, dep_count 32-byte digests. The manifest travels out of band
as canonical JSON with extension `.kmanifest.json`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

from .canonical import (
    DIGEST,
    DIGEST_LEN,
    DIGESTS,
    U64,
    CanonicalJsonError,
    EnumName,
    Hex,
    IntRange,
    Record,
    canonical_bytes,
    canonical_loads_strict,
    sha256,
    sha256_each,
)

MAGIC = b"KARY"
WIRE_VERSION = 1
MANIFEST_VERSION = 1
NONCE_LEN = 12
MAX_K = 255
MANIFEST_SUFFIX = ".kmanifest.json"


class ClassCode(enum.IntEnum):
    I_A = 0x00
    I_B = 0x01
    I_C = 0x02
    II = 0x03


class KeyScheme(enum.Enum):
    XOR_SPLIT = "XOR_SPLIT"
    SHAMIR = "SHAMIR"


class PartitionStrategy(enum.Enum):
    CONTIGUOUS = "CONTIGUOUS"
    INTERLEAVE = "INTERLEAVE"


class FragmentError(ValueError):
    """A fragment violates the wire format or its structural invariants."""


class BadMagicError(FragmentError):
    pass


class UnsupportedVersionError(FragmentError):
    pass


class TruncatedError(FragmentError):
    pass


class LengthOverrunError(FragmentError):
    pass


class TrailingDataError(FragmentError):
    pass


def dep_indices(index: int, k: int, class_code: ClassCode) -> tuple[int, ...]:
    """Indices whose slices a fragment's dep digests reference, in dep order."""
    if class_code is ClassCode.I_A:
        return (*range(1, index), *range(index + 1, k + 1))
    if class_code is ClassCode.I_C and index < k:
        return (index + 1,)
    return ()


@dataclass(frozen=True)
class Fragment:
    index: int
    k: int
    class_code: ClassCode
    share_x: int
    share_y: bytes
    slice: bytes
    dep_digests: tuple[bytes, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise FragmentError(f"k must be in 1..{MAX_K}, got {self.k}")
        if not 1 <= self.index <= self.k:
            raise FragmentError(f"index must be in 1..{self.k}, got {self.index}")
        if not 1 <= self.share_x <= 255:
            raise FragmentError(f"share_x must be in 1..255, got {self.share_x}")
        if not isinstance(self.class_code, ClassCode):
            raise FragmentError(f"unknown class code {self.class_code!r}")
        object.__setattr__(self, "dep_digests", tuple(self.dep_digests))
        expected = len(dep_indices(self.index, self.k, self.class_code))
        if len(self.dep_digests) != expected:
            raise FragmentError(
                f"fragment {self.index}/{self.k} class {self.class_code.name} "
                f"must carry {expected} dep digests, got {len(self.dep_digests)}"
            )
        for d in self.dep_digests:
            if len(d) != DIGEST_LEN:
                raise FragmentError("dep digests must be 32 bytes")

    @cached_property
    def slice_digest(self) -> bytes:
        # Computed once per fragment, here or by `cache_slice_digests`; the
        # slice is immutable bytes, so the cached value stays valid and is
        # left out of eq/hash.
        return sha256(self.slice)

    def serialize(self) -> bytes:
        head = bytes([WIRE_VERSION, self.index, self.k, self.class_code.value, self.share_x])
        return b"".join(
            [
                MAGIC,
                head,
                struct.pack(">I", len(self.share_y)),
                self.share_y,
                struct.pack(">I", len(self.slice)),
                self.slice,
                bytes([len(self.dep_digests)]),
                *self.dep_digests,
            ]
        )


def cache_slice_digests(frags: Sequence[Fragment], blobs: Sequence[bytes] = ()) -> list[bytes]:
    """Hash the blobs and the slices of `frags` not hashed yet in one
    `sha256_each` batch, cache those slices' digests, and return the blobs'
    digests."""
    todo = [frag for frag in frags if "slice_digest" not in frag.__dict__]
    digests = sha256_each([*blobs, *(frag.slice for frag in todo)])
    for frag, digest in zip(todo, digests[len(blobs):]):
        frag.__dict__["slice_digest"] = digest
    return digests[: len(blobs)]


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(f"fragment ends inside {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_declared(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise LengthOverrunError(
                f"{what} declares {n} bytes but only {len(self.data) - self.pos} remain"
            )
        return self.take(n, what)


def parse_fragment(data: bytes) -> Fragment:
    """Decode one fragment, raising a distinct error per malformation kind."""
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    version = r.take(1, "version")[0]
    if version != WIRE_VERSION:
        raise UnsupportedVersionError(f"unsupported fragment version {version}")
    index = r.take(1, "index")[0]
    k = r.take(1, "k")[0]
    class_byte = r.take(1, "class code")[0]
    try:
        class_code = ClassCode(class_byte)
    except ValueError:
        raise FragmentError(f"unknown class code byte 0x{class_byte:02x}") from None
    share_x = r.take(1, "share_x")[0]
    share_len = struct.unpack(">I", r.take(4, "share length"))[0]
    share_y = r.take_declared(share_len, "share")
    slice_len = struct.unpack(">I", r.take(4, "slice length"))[0]
    slice_bytes = r.take_declared(slice_len, "slice")
    dep_count = r.take(1, "dep count")[0]
    remaining = len(data) - r.pos
    try:
        dep_block = r.take_declared(DIGEST_LEN * dep_count, "dep digests")
    except LengthOverrunError:
        short = remaining // DIGEST_LEN
        raise LengthOverrunError(
            f"dep digest {short} declares {DIGEST_LEN} bytes but only "
            f"{remaining - DIGEST_LEN * short} remain"
        ) from None
    deps = tuple(dep_block[i : i + DIGEST_LEN] for i in range(0, len(dep_block), DIGEST_LEN))
    if r.pos != len(data):
        raise TrailingDataError(f"{len(data) - r.pos} trailing bytes after fragment")
    return Fragment(
        index=index,
        k=k,
        class_code=class_code,
        share_x=share_x,
        share_y=share_y,
        slice=slice_bytes,
        dep_digests=deps,
    )


# ---------------------------------------------------------------------------
# Partitioning


def partition_payload(ciphertext: bytes, k: int, strategy: PartitionStrategy) -> list[bytes]:
    """Cut the ciphertext into k slices whose sizes differ by at most one byte.

    CONTIGUOUS deals consecutive runs; INTERLEAVE stripes byte j to slice
    j mod k.
    """
    if k < 1:
        raise ValueError(f"fragment count must be >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"fragment count must be <= {MAX_K}, got {k}")
    if len(ciphertext) < k:
        raise ValueError(f"ciphertext of {len(ciphertext)} bytes cannot fill {k} slices")
    if strategy is PartitionStrategy.CONTIGUOUS:
        base, extra = divmod(len(ciphertext), k)
        slices = []
        pos = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            slices.append(ciphertext[pos : pos + size])
            pos += size
        return slices
    if strategy is PartitionStrategy.INTERLEAVE:
        return [ciphertext[i::k] for i in range(k)]
    raise ValueError(f"unknown partition strategy {strategy!r}")


def unpartition(slices: Sequence[bytes], strategy: PartitionStrategy) -> bytes:
    """Inverse of partition_payload for slices given in index order."""
    if not slices:
        raise ValueError("cannot unpartition an empty slice list")
    if strategy is PartitionStrategy.CONTIGUOUS:
        return b"".join(slices)
    if strategy is PartitionStrategy.INTERLEAVE:
        k = len(slices)
        total = sum(len(s) for s in slices)
        out = bytearray(total)
        for i, s in enumerate(slices):
            try:
                out[i::k] = s
            except ValueError:
                raise ValueError(
                    "slice lengths are inconsistent with round-robin interleaving"
                ) from None
        return bytes(out)
    raise ValueError(f"unknown partition strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Manifest


@dataclass(frozen=True)
class PayloadManifest(Record):
    """Out-of-band description of one fragmented payload."""

    k: int
    threshold: int
    class_code: ClassCode
    key_scheme: KeyScheme
    partition_strategy: PartitionStrategy
    partition_seed: int
    nonce: bytes
    slice_digests: tuple[bytes, ...]
    ciphertext_digest: bytes
    plaintext_digest: bytes
    version: int = MANIFEST_VERSION

    FIELDS = {
        "version": IntRange(MANIFEST_VERSION, MANIFEST_VERSION),
        "k": IntRange(1, MAX_K),
        "threshold": IntRange(1, MAX_K),
        "class_code": EnumName(ClassCode),
        "key_scheme": EnumName(KeyScheme),
        "partition_strategy": EnumName(PartitionStrategy),
        # kept in the format; both partition strategies ignore it
        "partition_seed": U64,
        "nonce": Hex(NONCE_LEN),
        "slice_digests": DIGESTS,
        "ciphertext_digest": DIGEST,
        "plaintext_digest": DIGEST,
    }

    def _check_together(self) -> None:
        if self.threshold > self.k:
            raise ValueError(f"threshold must be in 1..{self.k}, got {self.threshold}")
        if self.key_scheme is KeyScheme.XOR_SPLIT and self.threshold != self.k:
            raise ValueError("XOR_SPLIT requires threshold == k")
        if len(self.slice_digests) != self.k:
            raise ValueError(
                f"expected {self.k} slice digests, got {len(self.slice_digests)}"
            )

    def canonical_bytes(self) -> bytes:
        return canonical_bytes(self.to_json_dict())

    def digest(self) -> bytes:
        """SHA-256 of the canonical manifest encoding (the anchored identity)."""
        return sha256(self.canonical_bytes())

    @classmethod
    def from_canonical_bytes(cls, data: bytes) -> "PayloadManifest":
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CanonicalJsonError("manifest must be ASCII") from exc
        return cls.from_json_dict(canonical_loads_strict(text))


# ---------------------------------------------------------------------------
# Fragment construction and recombination


def build_fragments(
    slices: Sequence[bytes],
    shares: Sequence[Any],
    manifest: PayloadManifest,
) -> list[bytes]:
    """Assemble and serialize the k fragments for a partitioned ciphertext.

    Slices must match the manifest's digests; share i must carry abscissa
    i+1 so the share stays bound to its fragment index.
    """
    if len(slices) != manifest.k or len(shares) != manifest.k:
        raise ValueError(
            f"expected {manifest.k} slices and shares, got {len(slices)} and {len(shares)}"
        )
    if tuple(sha256(s) for s in slices) != manifest.slice_digests:
        raise ValueError("slice digests do not match the manifest")
    return _serialize_fragments(slices, shares, manifest)


def _serialize_fragments(
    slices: Sequence[bytes],
    shares: Sequence[Any],
    manifest: PayloadManifest,
) -> list[bytes]:
    """`build_fragments` for slices whose digests the manifest was just
    built from, so they are not hashed again."""
    digests = manifest.slice_digests
    blobs = []
    for i, (piece, share) in enumerate(zip(slices, shares), start=1):
        if share.x != i:
            raise ValueError(f"share abscissa {share.x} does not match fragment index {i}")
        deps = tuple(digests[j - 1] for j in dep_indices(i, manifest.k, manifest.class_code))
        fragment = Fragment(
            index=i,
            k=manifest.k,
            class_code=manifest.class_code,
            share_x=share.x,
            share_y=share.y,
            slice=piece,
            dep_digests=deps,
        )
        blobs.append(fragment.serialize())
    return blobs


@dataclass(frozen=True)
class RecombinationCandidate:
    """An ordered selection of (fragment index, slice digest) pairs."""

    entries: tuple[tuple[int, bytes], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((i, bytes(d)) for i, d in self.entries))
        indices = [i for i, _ in self.entries]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("candidate indices must be strictly increasing")


def combine(a: Fragment, b: Fragment) -> set[RecombinationCandidate]:
    """Order two fragments into index-increasing candidates.

    Equal indices admit no valid ordering, so the result is empty.
    """
    if a.index == b.index:
        return set()
    first, second = (a, b) if a.index < b.index else (b, a)
    return {
        RecombinationCandidate(
            entries=(
                (first.index, first.slice_digest),
                (second.index, second.slice_digest),
            )
        )
    }


def is_member(candidate: RecombinationCandidate, manifest: PayloadManifest) -> bool:
    """Whether a candidate is a (possibly partial) word of the manifest's code.

    Partial candidates are members when every present entry matches the
    manifest's slice digest at its index; out-of-range indices never match.
    """
    for index, digest in candidate.entries:
        if not 1 <= index <= manifest.k:
            return False
        if digest != manifest.slice_digests[index - 1]:
            return False
    return True


def relate(a: Fragment, b: Fragment, manifest: PayloadManifest) -> bool:
    """Whether some ordered combination of the two fragments is in the code."""
    return any(is_member(w, manifest) for w in combine(a, b))
