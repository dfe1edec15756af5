"""The canonical-JSON records: one field table gives their checks and codecs."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from karychain.canonical import (
    CanonicalJsonError,
    canonical_bytes,
    canonical_dumps,
    canonical_loads_strict,
)
from karychain.fragments import ClassCode, KeyScheme, PartitionStrategy, PayloadManifest
from karychain.ledger import AnchorReceipt, Block

RECORDS = (Block, AnchorReceipt, PayloadManifest)

digests = st.binary(min_size=32, max_size=32)
u64 = st.integers(0, 2**64 - 1)
steps = st.tuples(digests, st.sampled_from(["LEFT", "RIGHT"]))

blocks = st.builds(
    Block,
    height=u64,
    prev_hash=digests,
    merkle_root=digests,
    timestamp=u64,
    difficulty=st.integers(0, 255),
    nonce=u64,
    tx_digests=st.lists(digests, max_size=6).map(tuple),
)

receipts = st.builds(
    AnchorReceipt,
    target_digest=digests,
    block_height=u64,
    block_hash=digests,
    merkle_root=digests,
    merkle_path=st.lists(steps, max_size=9).map(tuple),
    anchor_timestamp=u64,
)


@st.composite
def manifests(draw):
    k = draw(st.integers(1, 255))
    scheme = draw(st.sampled_from(KeyScheme))
    threshold = k if scheme is KeyScheme.XOR_SPLIT else draw(st.integers(1, k))
    return PayloadManifest(
        k=k,
        threshold=threshold,
        class_code=draw(st.sampled_from(ClassCode)),
        key_scheme=scheme,
        partition_strategy=draw(st.sampled_from(PartitionStrategy)),
        partition_seed=draw(u64),
        nonce=draw(st.binary(min_size=12, max_size=12)),
        slice_digests=tuple(draw(st.lists(digests, min_size=k, max_size=k))),
        ciphertext_digest=draw(digests),
        plaintext_digest=draw(digests),
    )


@given(st.one_of(blocks, receipts, manifests()))
def test_every_record_round_trips_through_canonical_bytes(record):
    data = canonical_bytes(record.to_json_dict())
    decoded = type(record).from_json_dict(canonical_loads_strict(data.decode("ascii")))
    assert decoded == record
    assert canonical_bytes(decoded.to_json_dict()) == data


D = bytes(range(32))
BASE = {
    Block: dict(
        height=7,
        prev_hash=D,
        merkle_root=D,
        timestamp=1_700_000_000,
        difficulty=8,
        nonce=12345,
        tx_digests=(D, D[::-1]),
    ),
    AnchorReceipt: dict(
        target_digest=D,
        block_height=7,
        block_hash=D,
        merkle_root=D,
        merkle_path=((D, "LEFT"), (D[::-1], "RIGHT")),
        anchor_timestamp=1_700_000_000,
    ),
    PayloadManifest: dict(
        version=1,
        k=1,
        threshold=1,
        class_code=ClassCode.I_A,
        key_scheme=KeyScheme.SHAMIR,
        partition_strategy=PartitionStrategy.CONTIGUOUS,
        partition_seed=0,
        nonce=bytes(12),
        slice_digests=(D,),
        ciphertext_digest=D,
        plaintext_digest=D,
    ),
}

MISSING = object()  # drop the key from the JSON object
NONE = object()  # no such value on this side

H31, H32 = "ab" * 31, "ab" * 32
STEP = {"sibling": H32, "side": "LEFT"}

# (record, field, bad Python value, bad JSON value). The key-set rows have
# no Python value: a missing or unknown keyword is a TypeError in Python.
BAD = [
    (Block, "height", True, True),
    (Block, "height", 1.0, 1.0),
    (Block, "height", 2**64, 2**64),
    (Block, "height", -1, -1),
    (Block, "prev_hash", bytes(31), H31),
    (Block, "prev_hash", H32, H32.upper()),
    (Block, "merkle_root", bytes(33), "ab" * 33),
    (Block, "merkle_root", None, None),
    (Block, "timestamp", 2**64, 2**64),
    (Block, "timestamp", False, False),
    (Block, "difficulty", 256, 256),
    (Block, "difficulty", 8.0, 8.0),
    (Block, "nonce", 2**64, 2**64),
    (Block, "nonce", True, True),
    (Block, "tx_digests", (bytes(31),), [H31]),
    (Block, "tx_digests", (H32,), H32),
    (Block, "tx_digests", (D, None), [H32, H32.upper()]),
    (Block, "tx_digests", NONE, MISSING),
    (Block, "extra", NONE, 0),
    (AnchorReceipt, "target_digest", bytes(31), H31),
    (AnchorReceipt, "target_digest", H32, " " + H32[1:]),
    (AnchorReceipt, "block_height", 2**64, 2**64),
    (AnchorReceipt, "block_height", True, True),
    (AnchorReceipt, "block_hash", bytes(31), H32.upper()),
    (AnchorReceipt, "merkle_root", 1, 1),
    (AnchorReceipt, "merkle_path", ((D, "UP"),), [{"sibling": H32, "side": "UP"}]),
    (AnchorReceipt, "merkle_path", ((bytes(31), "LEFT"),), [{"sibling": H31, "side": "LEFT"}]),
    (AnchorReceipt, "merkle_path", ((D, "left"),), [{"sibling": H32.upper(), "side": "LEFT"}]),
    (AnchorReceipt, "merkle_path", NONE, [{"sibling": H32}]),
    (AnchorReceipt, "merkle_path", NONE, [{**STEP, "depth": 1}]),
    (AnchorReceipt, "merkle_path", NONE, STEP),
    (AnchorReceipt, "anchor_timestamp", 2**64, 2**64),
    (AnchorReceipt, "anchor_timestamp", 1.5, 1.5),
    (AnchorReceipt, "anchor_timestamp", NONE, MISSING),
    (AnchorReceipt, "extra", NONE, "x"),
    (PayloadManifest, "version", 2, 2),
    (PayloadManifest, "version", True, True),
    (PayloadManifest, "k", True, True),
    (PayloadManifest, "k", 0, 0),
    (PayloadManifest, "k", 256, 256),
    (PayloadManifest, "threshold", 0, 0),
    (PayloadManifest, "threshold", 2, 2),
    (PayloadManifest, "threshold", 1.0, 1.0),
    (PayloadManifest, "class_code", "I_A", "I_Z"),
    (PayloadManifest, "class_code", 0, 0),
    (PayloadManifest, "key_scheme", "SHAMIR", "shamir"),
    (PayloadManifest, "partition_strategy", PartitionStrategy, "RANDOM"),
    (PayloadManifest, "partition_seed", 2**64, 2**64),
    (PayloadManifest, "partition_seed", -1, -1),
    (PayloadManifest, "partition_seed", True, True),
    (PayloadManifest, "nonce", bytes(11), "00" * 11),
    (PayloadManifest, "nonce", "00" * 12, "AA" * 12),
    (PayloadManifest, "slice_digests", (D, D), [H32, H32]),
    (PayloadManifest, "slice_digests", (bytes(31),), [H31]),
    (PayloadManifest, "slice_digests", NONE, H32),
    (PayloadManifest, "ciphertext_digest", bytes(31), H31),
    (PayloadManifest, "plaintext_digest", H32, H32.upper()),
    (PayloadManifest, "plaintext_digest", NONE, MISSING),
    (PayloadManifest, "extra", NONE, []),
]


def test_bad_value_table_covers_every_field():
    for cls in RECORDS:
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(cls.FIELDS) == fields
        assert {field for c, field, *_ in BAD if c is cls} == fields | {"extra"}


@pytest.mark.parametrize(
    "cls, field, py_bad, json_bad",
    BAD,
    ids=[f"{cls.__name__}-{field}-{i}" for i, (cls, field, *_) in enumerate(BAD)],
)
def test_bad_field_is_refused_in_python_and_in_json(cls, field, py_bad, json_bad):
    base = BASE[cls]
    if py_bad is not NONE:
        with pytest.raises(ValueError):
            cls(**{**base, field: py_bad})
    obj = cls(**base).to_json_dict()
    if json_bad is MISSING:
        del obj[field]
    else:
        obj[field] = json_bad
    # the bad document is itself canonical, so only the field table refuses it
    text = canonical_dumps(obj)
    assert canonical_loads_strict(text) == obj
    with pytest.raises(CanonicalJsonError):
        cls.from_json_dict(canonical_loads_strict(text))


# JSON values that a whole-column decode could let through where a value at
# a time does not: whitespace that bytes.fromhex skips, upper case, a bool
# among integers, and list entries of the wrong width that together make
# whole digests
TRICKY = [
    (Block, "prev_hash", " " + H32 + " "),
    (Block, "merkle_root", H32[:-2] + "AB"),
    (Block, "nonce", False),
    (Block, "tx_digests", [H32[:62], H32 + "ab"]),
    (Block, "tx_digests", [H32, H32[:-2] + " ab"]),
    (Block, "tx_digests", [H32 + H32]),
    (Block, "tx_digests", [[H32]]),
    (AnchorReceipt, "block_hash", H32[:-1] + "g"),
]


@pytest.mark.parametrize(
    "cls, field, json_bad",
    [(cls, field, json_bad) for cls, field, _, json_bad in BAD] + TRICKY,
    ids=[f"{row[0].__name__}-{row[1]}-{i}" for i, row in enumerate(BAD + TRICKY)],
)
def test_bad_field_is_refused_among_many(cls, field, json_bad):
    good = cls(**BASE[cls]).to_json_dict()
    bad = dict(good)
    if json_bad is MISSING:
        del bad[field]
    else:
        bad[field] = json_bad
    with pytest.raises(CanonicalJsonError) as alone:
        cls.from_json_dict(bad)
    with pytest.raises(CanonicalJsonError) as many:
        cls.from_json_dicts([good, bad, good])
    assert str(many.value) == str(alone.value)


@given(
    st.one_of(
        st.lists(blocks, max_size=8).map(lambda rs: (Block, rs)),
        st.lists(receipts, max_size=4).map(lambda rs: (AnchorReceipt, rs)),
        st.lists(manifests(), max_size=3).map(lambda rs: (PayloadManifest, rs)),
    )
)
def test_many_records_decode_as_each_alone(case):
    cls, records = case
    objs = [canonical_loads_strict(canonical_dumps(r.to_json_dict())) for r in records]
    decoded = cls.from_json_dicts(objs)
    assert decoded == [cls.from_json_dict(obj) for obj in objs] == records
