"""Canonical JSON, the field kinds its records are declared with, and SHA-256.

`sha256` hashes one input. `sha256_each` hashes a batch: when the process
may run on two CPUs or more, the batch totals at least 1 MiB and its
chunks average at least 64 KiB, it splits the chunks, balanced by bytes,
between the calling thread and one helper thread that asks to run on
another CPU (hashlib releases the GIL while it hashes a large buffer); any
other batch is hashed serially.

Canonical form: keys sorted ascending, no insignificant whitespace, ASCII
output, integers only (floats are never produced and never accepted). Strict
loading re-serializes and compares, so any value-preserving re-encoding of a
stored document (case-flipped hex, reordered keys, inserted whitespace) is
rejected rather than silently normalized.

`Block`, `AnchorReceipt` and `PayloadManifest` derive from `Record` and
declare their fields once, in a `FIELDS` table mapping each field name to a
kind (`IntRange`, `Hex`, `HexList`, `EnumName`, `MerklePath`). The table
gives each record its construction checks, `to_json_dict` and
`from_json_dict` (`from_json_dicts` for many records at once), so a record
built in Python obeys exactly what the reader accepts. A kind's `check`
judges a Python value (type, range, width), `encode` writes it as JSON, and
`decode` reads it back, judging only its JSON encoding (a string of
lowercase hex, a known enum name). Each value is checked once, however the
record is made: by `check`, or by a kind's `decode_many`, which judges a
whole column as `check(decode(raw))` would judge each value.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import itertools
import json
import os
import threading
from typing import Any, ClassVar, Sequence, TypeVar

DIGEST_LEN = 32


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _other_cpus() -> set[int]:
    """The CPUs the calling thread may run on besides its current one; empty
    where the platform does not say."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # field 39, the CPU last run on; fields count on after the ")"
            # that closes field 2, the thread's name
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, IndexError, ValueError):
        return set()


# A helper thread pays for its start and its turns at the GIL only on large
# batches of large chunks. Through this function on a 2-vCPU VM, two threads
# took 1.16-1.25x the serial time on a k=255 gate's batch (510 chunks, 4.3 KiB
# on average) and 0.98-1.38x on 2 or 8 MiB of 8 KiB chunks, but 0.67-0.82x on
# 16 KiB chunks and 0.58-0.74x from 64 KiB up, where the gain levels off.
_CPUS = _usable_cpus()
_SPLIT_MIN_BYTES = 1 << 20
_SPLIT_MIN_MEAN = 64 << 10


def sha256_each(chunks: Sequence[bytes]) -> list[bytes]:
    """The SHA-256 digest of each chunk, in order.

    A batch that meets the split rule of the module docstring is hashed on
    the calling thread and one helper thread, which asks to run on a CPU
    other than the caller's, then calls nothing but hashlib, and is joined
    before this returns. An error on either thread, such as the TypeError
    for a chunk that is not a buffer, is raised here.
    """
    sizes = [len(chunk) for chunk in chunks]
    total = sum(sizes)
    if _CPUS < 2 or total < _SPLIT_MIN_BYTES or total < _SPLIT_MIN_MEAN * len(chunks):
        return [hashlib.sha256(chunk).digest() for chunk in chunks]
    # largest first, each to the side with fewer bytes so far
    sides: tuple[list[int], list[int]] = ([], [])  # the caller's, the helper's
    loads = [0, 0]
    for i in sorted(range(len(chunks)), key=sizes.__getitem__, reverse=True):
        side = int(loads[1] < loads[0])
        sides[side].append(i)
        loads[side] += sizes[i]
    mine, theirs = sides
    digests: list[Any] = [None] * len(chunks)
    failed: list[BaseException] = []
    elsewhere = _other_cpus()

    def helper() -> None:
        try:
            # A kernel that does not balance load (a cpuset with
            # sched_load_balance 0) keeps a new thread on its parent's CPU,
            # where it would only take turns with the caller.
            if elsewhere:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, elsewhere)
            for i in theirs:
                digests[i] = hashlib.sha256(chunks[i]).digest()
        except BaseException as exc:  # re-raised on the calling thread below
            failed.append(exc)

    thread = threading.Thread(target=helper, name="sha256_each")
    thread.start()
    try:
        for i in mine:
            digests[i] = hashlib.sha256(chunks[i]).digest()
    finally:
        thread.join()
    if failed:
        raise failed[0]
    return digests


class CanonicalJsonError(ValueError):
    """Document is not in canonical form or violates its schema."""


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_bytes(obj: Any) -> bytes:
    return canonical_dumps(obj).encode("ascii")


def canonical_loads_strict(text: str) -> Any:
    """Parse JSON and require the input to be byte-identical to canonical form."""
    try:
        obj = json.loads(text)
        canonical = canonical_dumps(obj)
    except json.JSONDecodeError as exc:
        raise CanonicalJsonError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise CanonicalJsonError("JSON nests too deeply") from None
    if canonical != text:
        raise CanonicalJsonError("document is not in canonical JSON form")
    return obj


# ---------------------------------------------------------------------------
# Field kinds: `check` returns the value (a sequence as a tuple) or raises
# ValueError. `decode_many` decodes and checks one field of many records at
# once, as `check(decode(raw))` per value would; a kind with a faster way
# for a whole column overrides it, and falls back to this per-value loop
# whenever its shortcut cannot prove every value good, so that a bad value
# raises the same error either way.


class _Kind:
    def decode_many(self, raws: list[Any], name: str) -> list[Any]:
        check, decode = self.check, self.decode
        return [check(decode(raw, name), name) for raw in raws]


class IntRange(_Kind):
    """An integer in lo..hi; bools and floats are refused."""

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi

    def check(self, value: Any, name: str) -> int:
        if type(value) is not int or not self.lo <= value <= self.hi:
            raise ValueError(f"{name} must be an integer in {self.lo}..{self.hi}, got {value!r}")
        return value

    def encode(self, value: int) -> int:
        return value

    def decode(self, raw: Any, name: str) -> Any:
        return raw

    def decode_many(self, raws: list[Any], name: str) -> list[Any]:
        # type() is exact, so bools (a subclass of int) fail the test
        if not raws or (
            set(map(type, raws)) == {int} and self.lo <= min(raws) and max(raws) <= self.hi
        ):
            return raws
        return super().decode_many(raws, name)


def _unhex(raw: Any, name: str) -> bytes:
    # canonical hex is exactly what bytes.hex() writes: lowercase, unseparated
    if type(raw) is str:
        try:
            value = bytes.fromhex(raw)
        except ValueError:
            pass
        else:
            if value.hex() == raw:
                return value
    raise ValueError(f"{name} must be a lowercase hex string, got {raw!r}")


def _unhex_many(raws: list[Any], width: int) -> list[bytes] | None:
    """Every entry decoded if each is exactly `width` bytes of lowercase hex,
    else None. Encoding the joined values back and comparing refuses upper
    case and the whitespace `bytes.fromhex` skips."""
    try:
        values = list(map(bytes.fromhex, raws))
    except (TypeError, ValueError):
        return None
    if values and set(map(len, values)) != {width}:
        return None
    if b"".join(values).hex() != "".join(raws):
        return None
    return values


class Hex(_Kind):
    """Bytes of a fixed width, written as lowercase hex."""

    def __init__(self, width: int):
        self.width = width

    def check(self, value: Any, name: str) -> bytes:
        if not isinstance(value, bytes) or len(value) != self.width:
            raise ValueError(f"{name} must be exactly {self.width} bytes")
        return value

    def encode(self, value: bytes) -> str:
        return value.hex()

    def decode(self, raw: Any, name: str) -> bytes:
        return _unhex(raw, name)

    def decode_many(self, raws: list[Any], name: str) -> list[bytes]:
        values = _unhex_many(raws, self.width)
        return super().decode_many(raws, name) if values is None else values


class HexList(_Kind):
    """A tuple of fixed-width byte strings, written as a list of lowercase hex."""

    def __init__(self, width: int):
        self.width = width

    def check(self, value: Any, name: str) -> tuple[bytes, ...]:
        items, width = tuple(value), self.width
        for item in items:
            if not isinstance(item, bytes) or len(item) != width:
                raise ValueError(f"every entry of {name} must be exactly {width} bytes")
        return items

    def encode(self, value: tuple[bytes, ...]) -> list[str]:
        return [item.hex() for item in value]

    def decode(self, raw: Any, name: str) -> tuple[bytes, ...]:
        if type(raw) is not list:
            raise ValueError(f"{name} must be a list")
        return tuple([_unhex(item, name) for item in raw])

    def decode_many(self, raws: list[Any], name: str) -> list[tuple[bytes, ...]]:
        values = None
        if set(map(type, raws)) <= {list}:
            values = _unhex_many(list(itertools.chain.from_iterable(raws)), self.width)
        if values is None:
            return super().decode_many(raws, name)
        out, start = [], 0
        for end in itertools.accumulate(map(len, raws)):
            out.append(tuple(values[start:end]))
            start = end
        return out


class EnumName(_Kind):
    """A member of an enum, written as its name."""

    def __init__(self, enum_cls: type[enum.Enum]):
        self.enum_cls = enum_cls

    def check(self, value: Any, name: str) -> enum.Enum:
        if not isinstance(value, self.enum_cls):
            raise ValueError(f"{name} must be a {self.enum_cls.__name__}, got {value!r}")
        return value

    def encode(self, value: enum.Enum) -> str:
        return value.name

    def decode(self, raw: Any, name: str) -> enum.Enum:
        member = self.enum_cls.__members__.get(raw) if type(raw) is str else None
        if member is None:
            raise ValueError(f"{name} must name a {self.enum_cls.__name__}, got {raw!r}")
        return member


class MerklePath(_Kind):
    """A tuple of (sibling digest, side) steps, written as a list of
    {"sibling": hex, "side": name} objects."""

    def __init__(self, width: int, sides: tuple[str, ...]):
        self.width, self.sides = width, sides

    def check(self, value: Any, name: str) -> tuple[tuple[bytes, str], ...]:
        # one loop over every step: mining builds a receipt per anchored digest
        steps, width, sides = tuple(value), self.width, self.sides
        for sibling, side in steps:
            if not isinstance(sibling, bytes) or len(sibling) != width:
                raise ValueError(f"each sibling in {name} must be exactly {width} bytes")
            if side not in sides:
                raise ValueError(f"unknown path side {side!r}")
        return steps

    def encode(self, value: tuple[tuple[bytes, str], ...]) -> list[dict[str, str]]:
        return [{"sibling": sibling.hex(), "side": side} for sibling, side in value]

    def decode(self, raw: Any, name: str) -> tuple[tuple[bytes, Any], ...]:
        if type(raw) is not list:
            raise ValueError(f"{name} must be a list")
        steps = []
        for step in raw:
            if type(step) is not dict or step.keys() != {"sibling", "side"}:
                raise ValueError(f"each step of {name} needs exactly sibling and side")
            steps.append((_unhex(step["sibling"], name), step["side"]))
        return tuple(steps)


U64 = IntRange(0, 2**64 - 1)
DIGEST = Hex(DIGEST_LEN)
DIGESTS = HexList(DIGEST_LEN)

R = TypeVar("R", bound="Record")


class Record:
    """Base of a frozen dataclass whose fields are all declared in `FIELDS`.

    A subclass with checks that span fields puts them in `_check_together`.
    """

    FIELDS: ClassVar[dict[str, Any]]
    _checks: ClassVar[tuple[tuple[str, Any], ...]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # bound once per class: mining builds a receipt per anchored digest,
        # and looking the kind's method up per field made it measurably slower
        cls._checks = tuple((name, kind.check) for name, kind in cls.FIELDS.items())

    def __post_init__(self) -> None:
        for name, check in self._checks:
            value = getattr(self, name)
            checked = check(value, name)
            if checked is not value:
                object.__setattr__(self, name, checked)
        self._check_together()

    def _check_together(self) -> None:
        """Checks that span fields, run once every field has passed its own."""

    def to_json_dict(self) -> dict[str, Any]:
        return {name: kind.encode(getattr(self, name)) for name, kind in self.FIELDS.items()}

    @classmethod
    def from_json_dict(cls: type[R], obj: Any) -> R:
        return cls.from_json_dicts([obj])[0]

    @classmethod
    def from_json_dicts(cls: type[R], objs: list[Any]) -> list[R]:
        """The records the JSON objects encode, decoded one field at a time
        across all of them: a chain load decodes thousands of blocks. Each
        value is checked here once, by its kind's `decode_many`, so
        `__init__`, which would check it again, is skipped."""
        keys = cls.FIELDS.keys()
        for obj in objs:
            if type(obj) is not dict or obj.keys() != keys:
                raise CanonicalJsonError(f"{cls.__name__} has missing or unknown fields")
        records, new, names = [], object.__new__, tuple(keys)
        try:
            columns = [
                kind.decode_many([obj[name] for obj in objs], name)
                for name, kind in cls.FIELDS.items()
            ]
            for values in zip(*columns):
                record = new(cls)
                record.__dict__.update(zip(names, values))
                record._check_together()
                records.append(record)
        except ValueError as exc:
            raise CanonicalJsonError(str(exc)) from exc
        return records
