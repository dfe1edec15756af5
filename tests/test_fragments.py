"""Wire format, partitioning, and recombination predicate tests."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from karychain.canonical import CanonicalJsonError
from karychain.fragments import (
    _BLOCK,
    BadMagicError,
    ClassCode,
    Fragment,
    FragmentError,
    KeyScheme,
    LengthOverrunError,
    PartitionStrategy,
    PayloadManifest,
    RecombinationCandidate,
    TrailingDataError,
    TruncatedError,
    UnsupportedVersionError,
    build_fragments,
    combine,
    is_member,
    parse_fragment,
    partition_payload,
    relate,
    unpartition,
)
from karychain.sharing import SecretShare

CONTIG = PartitionStrategy.CONTIGUOUS
ILEAVE = PartitionStrategy.INTERLEAVE


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def make_manifest(slices, class_code=ClassCode.I_B, key_scheme=KeyScheme.SHAMIR,
                  threshold=None, strategy=CONTIG, nonce=b"\x00" * 12):
    k = len(slices)
    return PayloadManifest(
        k=k,
        threshold=k if threshold is None else threshold,
        class_code=class_code,
        key_scheme=key_scheme,
        partition_strategy=strategy,
        partition_seed=0,
        nonce=nonce,
        slice_digests=tuple(sha256(s) for s in slices),
        ciphertext_digest=sha256(b"".join(slices)),
        plaintext_digest=sha256(b"payload"),
    )


def make_fragments(slices, class_code=ClassCode.I_B):
    manifest = make_manifest(slices, class_code=class_code)
    shares = [SecretShare(x=i + 1, y=bytes(32)) for i in range(len(slices))]
    blobs = build_fragments(slices, shares, manifest)
    return manifest, [parse_fragment(b) for b in blobs], blobs


class TestPartition:
    def test_contiguous_even_split(self):
        data = bytes(range(8))
        assert partition_payload(data, 4, CONTIG) == [
            bytes([0, 1]), bytes([2, 3]), bytes([4, 5]), bytes([6, 7])
        ]

    def test_k1_identity(self):
        data = b"anything at all"
        assert partition_payload(data, 1, CONTIG) == [data]
        assert partition_payload(data, 1, ILEAVE) == [data]

    def test_interleave_stripes_bytes(self):
        data = bytes([0, 1, 2, 3, 4, 5])
        slices = partition_payload(data, 2, ILEAVE)
        assert slices == [bytes([0, 2, 4]), bytes([1, 3, 5])]
        # de-interleave oracle: byte j came from slice j mod k
        rebuilt = bytearray(len(data))
        takers = [iter(s) for s in slices]
        for j in range(len(data)):
            rebuilt[j] = next(takers[j % 2])
        assert bytes(rebuilt) == data

    def test_slice_sizes_differ_by_at_most_one(self, rng):
        for _ in range(50):
            data = rng.randbytes(rng.randint(16, 400))
            k = rng.randint(1, 16)
            for strategy in (CONTIG, ILEAVE):
                sizes = [len(s) for s in partition_payload(data, k, strategy)]
                assert max(sizes) - min(sizes) <= 1
                assert sum(sizes) == len(data)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_payload(b"abc", 0, CONTIG)
        with pytest.raises(ValueError):
            partition_payload(b"ab", 3, CONTIG)

    def test_unpartition_trivial(self):
        assert unpartition([b"\x00\x01", b"\x02\x03"], CONTIG) == bytes(range(4))
        assert unpartition([b"xyz"], CONTIG) == b"xyz"
        assert unpartition([b"xyz"], ILEAVE) == b"xyz"

    def test_unpartition_empty_rejected(self):
        with pytest.raises(ValueError):
            unpartition([], CONTIG)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=4096),
        k=st.integers(1, 16),
        strategy=st.sampled_from([CONTIG, ILEAVE]),
    )
    def test_round_trip_property(self, data, k, strategy):
        if len(data) < k:
            data = data * k
        slices = partition_payload(data, k, strategy)
        assert unpartition(slices, strategy) == data

    def test_round_trip_large_payload(self, rng):
        data = rng.randbytes(1 << 20)
        for k in (1, 7, 16):
            for strategy in (CONTIG, ILEAVE):
                assert unpartition(partition_payload(data, k, strategy), strategy) == data

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 17, 255])
    @pytest.mark.parametrize("longest", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_interleave_across_block_edges(self, rng, k, longest):
        # the first slice is `longest` bytes and the last k // 2 are one byte
        # shorter, so a block edge and a short last block are both crossed
        data = rng.randbytes(longest * k - k // 2)
        slices = partition_payload(data, k, ILEAVE)
        assert slices == [data[i::k] for i in range(k)]
        assert len(slices[0]) == longest
        assert unpartition(slices, ILEAVE) == data

    @pytest.mark.parametrize("slices", [
        [b"x" * 22, b"x" * 18],  # 2 bytes moved from one slice to its neighbour
        [b"x" * 3, b"x" * 4, b"x" * 4],  # a short slice before a long one
        [b"", b"xyz"],  # an empty slice beside a full one
    ], ids=["moved", "short-first", "empty"])
    def test_unpartition_refuses_lengths_that_cannot_interleave(self, slices):
        with pytest.raises(ValueError, match="^slice lengths are inconsistent with "
                                             "round-robin interleaving$"):
            unpartition(slices, ILEAVE)

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(0, 6), min_size=1, max_size=6))
    def test_unpartition_accepts_the_lengths_a_strided_fill_accepts(self, lengths):
        slices = [bytes([i]) * n for i, n in enumerate(lengths)]
        k, out = len(slices), bytearray(sum(lengths))
        try:  # the reference: byte j of the ciphertext is taken from slice j mod k
            for i, piece in enumerate(slices):
                out[i::k] = piece
        except ValueError:
            with pytest.raises(ValueError, match="round-robin"):
                unpartition(slices, ILEAVE)
        else:
            assert unpartition(slices, ILEAVE) == out


def random_fragment(rng):
    k = rng.randint(1, 9)
    index = rng.randint(1, k)
    class_code = rng.choice(list(ClassCode))
    ndeps = {
        ClassCode.I_A: k - 1,
        ClassCode.I_B: 0,
        ClassCode.I_C: 1 if index < k else 0,
        ClassCode.II: 0,
    }[class_code]
    return Fragment(
        index=index,
        k=k,
        class_code=class_code,
        share_x=index,
        share_y=rng.randbytes(32),
        slice=rng.randbytes(rng.randint(0, 120)),
        dep_digests=tuple(rng.randbytes(32) for _ in range(ndeps)),
    )


class TestWireFormat:
    def test_round_trip_random_corpus(self, rng):
        for _ in range(300):
            frag = random_fragment(rng)
            assert parse_fragment(frag.serialize()) == frag

    def test_serialization_is_injective(self, rng):
        seen = {}
        for _ in range(500):
            frag = random_fragment(rng)
            blob = frag.serialize()
            if blob in seen:
                assert seen[blob] == frag
            seen[blob] = frag
        parsed = [parse_fragment(b) for b in seen]
        assert len(set(seen)) == len(parsed)

    def test_bad_magic(self):
        frag = Fragment(1, 1, ClassCode.I_B, 1, b"s", b"body")
        blob = frag.serialize()
        with pytest.raises(BadMagicError):
            parse_fragment(b"XARY" + blob[4:])

    def test_unsupported_version(self):
        blob = Fragment(1, 1, ClassCode.I_B, 1, b"s", b"body").serialize()
        with pytest.raises(UnsupportedVersionError):
            parse_fragment(blob[:4] + b"\x02" + blob[5:])

    def test_unknown_class_byte(self):
        blob = bytearray(Fragment(1, 1, ClassCode.I_B, 1, b"s", b"body").serialize())
        blob[7] = 0x12
        with pytest.raises(FragmentError):
            parse_fragment(bytes(blob))

    def test_every_prefix_errors(self, rng):
        frag = Fragment(
            2, 3, ClassCode.I_C, 2, rng.randbytes(32), rng.randbytes(20), (rng.randbytes(32),)
        )
        blob = frag.serialize()
        for cut in range(len(blob)):
            with pytest.raises((TruncatedError, LengthOverrunError)):
                parse_fragment(blob[:cut])

    def test_length_overrun_is_distinct(self):
        blob = Fragment(1, 1, ClassCode.I_B, 1, b"abcd", b"body").serialize()
        # cut inside the length-prefixed share region
        with pytest.raises(LengthOverrunError):
            parse_fragment(blob[: 9 + 4 + 2])

    def test_dep_block_overrun_names_first_short_digest(self, rng):
        frag = Fragment(
            1, 4, ClassCode.I_A, 1, b"s", b"body", tuple(rng.randbytes(32) for _ in range(3))
        )
        blob = frag.serialize()
        # keep the first digest and 10 bytes of the second
        with pytest.raises(LengthOverrunError, match="dep digest 1 declares 32 bytes but only 10"):
            parse_fragment(blob[: len(blob) - 64 + 10])
        assert parse_fragment(blob).dep_digests == frag.dep_digests

    def test_cached_slice_digest_stays_out_of_equality(self, rng):
        blob = Fragment(2, 3, ClassCode.I_C, 2, b"s", rng.randbytes(20), (bytes(32),)).serialize()
        warm, cold = parse_fragment(blob), parse_fragment(blob)
        assert warm.slice_digest == sha256(warm.slice)
        assert warm == cold and hash(warm) == hash(cold)
        assert "slice_digest" not in repr(warm)

    def test_trailing_garbage_rejected(self):
        blob = Fragment(1, 1, ClassCode.I_B, 1, b"s", b"body").serialize()
        with pytest.raises(TrailingDataError):
            parse_fragment(blob + b"\x00")

    def test_dep_count_rule_enforced(self):
        with pytest.raises(FragmentError):
            Fragment(1, 4, ClassCode.I_A, 1, b"s", b"x", dep_digests=())
        with pytest.raises(FragmentError):
            Fragment(1, 4, ClassCode.I_B, 1, b"s", b"x", dep_digests=(bytes(32),))
        with pytest.raises(FragmentError):
            Fragment(4, 4, ClassCode.I_C, 4, b"s", b"x", dep_digests=(bytes(32),))


class TestBuildFragments:
    def test_class_ib_has_no_deps(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        _, frags, _ = make_fragments(slices, ClassCode.I_B)
        assert all(f.dep_digests == () for f in frags)

    def test_class_ia_references_all_others(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        _, frags, _ = make_fragments(slices, ClassCode.I_A)
        digests = [sha256(s) for s in slices]
        for f in frags:
            expected = tuple(d for j, d in enumerate(digests, start=1) if j != f.index)
            assert f.dep_digests == expected

    def test_class_ic_forward_chain(self, rng):
        slices = [rng.randbytes(8) for _ in range(3)]
        _, frags, _ = make_fragments(slices, ClassCode.I_C)
        digests = [sha256(s) for s in slices]
        assert frags[0].dep_digests == (digests[1],)
        assert frags[1].dep_digests == (digests[2],)
        assert frags[2].dep_digests == ()

    def test_count_mismatch_rejected(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        manifest = make_manifest(slices)
        shares = [SecretShare(x=i + 1, y=bytes(32)) for i in range(3)]
        with pytest.raises(ValueError):
            build_fragments(slices, shares, manifest)

    def test_slice_digest_mismatch_rejected(self, rng):
        slices = [rng.randbytes(8) for _ in range(2)]
        manifest = make_manifest(slices)
        shares = [SecretShare(x=i + 1, y=bytes(32)) for i in range(2)]
        with pytest.raises(ValueError):
            build_fragments([slices[1], slices[0]], shares, manifest)

    def test_swapped_share_abscissas_rejected(self, rng):
        slices = [rng.randbytes(8) for _ in range(3)]
        manifest = make_manifest(slices)
        shares = [SecretShare(x=x, y=bytes(32)) for x in (2, 1, 3)]
        with pytest.raises(ValueError, match="abscissa 2 does not match fragment index 1"):
            build_fragments(slices, shares, manifest)

    def test_parsed_digests_match_manifest(self, rng):
        slices = [rng.randbytes(16) for _ in range(5)]
        manifest, frags, _ = make_fragments(slices)
        for f in frags:
            assert f.slice_digest == manifest.slice_digests[f.index - 1]


class TestRecombination:
    def test_forced_order(self, rng):
        slices = [rng.randbytes(8) for _ in range(2)]
        manifest, (f1, f2), _ = make_fragments(slices)
        candidates = combine(f1, f2)
        assert candidates == {
            RecombinationCandidate(
                entries=((1, f1.slice_digest), (2, f2.slice_digest))
            )
        }

    def test_duplicate_index_yields_nothing(self, rng):
        slices = [rng.randbytes(8) for _ in range(2)]
        _, (f1, _), _ = make_fragments(slices)
        assert combine(f1, f1) == set()

    def test_reordering(self, rng):
        slices = [rng.randbytes(8) for _ in range(3)]
        _, frags, _ = make_fragments(slices)
        candidates = combine(frags[2], frags[0])
        (cand,) = candidates
        assert [i for i, _ in cand.entries] == [1, 3]

    def test_candidate_requires_increasing_indices(self):
        with pytest.raises(ValueError):
            RecombinationCandidate(entries=((2, bytes(32)), (1, bytes(32))))
        with pytest.raises(ValueError):
            RecombinationCandidate(entries=((1, bytes(32)), (1, bytes(32))))

    def test_member_genuine_pair(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        manifest, frags, _ = make_fragments(slices)
        (cand,) = combine(frags[0], frags[1])
        assert is_member(cand, manifest)

    def test_member_rejects_flipped_digest(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        manifest, frags, _ = make_fragments(slices)
        (cand,) = combine(frags[0], frags[1])
        (i1, d1), rest = cand.entries[0], cand.entries[1]
        flipped = bytes([d1[0] ^ 0x01]) + d1[1:]
        assert not is_member(RecombinationCandidate(entries=((i1, flipped), rest)), manifest)

    def test_member_rejects_out_of_range_index(self, rng):
        slices = [rng.randbytes(8) for _ in range(2)]
        manifest, _, _ = make_fragments(slices)
        cand = RecombinationCandidate(entries=((3, bytes(32)),))
        assert not is_member(cand, manifest)

    def test_partial_candidate_is_member(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        manifest, frags, _ = make_fragments(slices)
        cand = RecombinationCandidate(entries=((2, frags[1].slice_digest),))
        assert is_member(cand, manifest)

    def test_relate_matches_exhaustive_oracle(self, rng):
        # Brute-force: a pair relates iff indices differ and each member's
        # slice digest equals the manifest's entry at its index.
        slices = [rng.randbytes(8) for _ in range(4)]
        manifest, genuine, _ = make_fragments(slices)
        forged = []
        for f in genuine:
            forged.append(
                Fragment(
                    index=f.index,
                    k=f.k,
                    class_code=f.class_code,
                    share_x=f.share_x,
                    share_y=f.share_y,
                    slice=f.slice + b"!",
                    dep_digests=f.dep_digests,
                )
            )
        pool = genuine + forged
        for a in pool:
            for b in pool:
                expected = a.index != b.index and all(
                    sha256(f.slice) == manifest.slice_digests[f.index - 1] for f in (a, b)
                )
                assert relate(a, b, manifest) == expected, (a.index, b.index)

    def test_relate_symmetric_and_manifest_specific(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        manifest, frags, _ = make_fragments(slices)
        other_manifest = make_manifest([rng.randbytes(8) for _ in range(4)])
        for a in frags:
            for b in frags:
                assert relate(a, b, manifest) == relate(b, a, manifest)
                assert not relate(a, b, other_manifest)


class TestManifest:
    def test_canonical_round_trip(self, rng):
        slices = [rng.randbytes(8) for _ in range(4)]
        manifest = make_manifest(slices, strategy=ILEAVE, nonce=rng.randbytes(12))
        data = manifest.canonical_bytes()
        assert PayloadManifest.from_canonical_bytes(data) == manifest

    def test_non_canonical_encodings_rejected(self, rng):
        slices = [rng.randbytes(8) for _ in range(2)]
        manifest = make_manifest(slices)
        data = manifest.canonical_bytes()
        with pytest.raises(CanonicalJsonError):
            PayloadManifest.from_canonical_bytes(data + b" ")
        with pytest.raises(CanonicalJsonError):
            PayloadManifest.from_canonical_bytes(data.replace(b":", b": ", 1))
        # value-preserving hex case flip must still be rejected
        hexpos = data.index(manifest.slice_digests[0].hex().encode())
        flipped = bytearray(data)
        for i in range(hexpos, hexpos + 64):
            if chr(flipped[i]).isalpha():
                flipped[i] = ord(chr(flipped[i]).upper())
                break
        assert bytes(flipped) != data
        with pytest.raises(CanonicalJsonError):
            PayloadManifest.from_canonical_bytes(bytes(flipped))

    def test_xor_requires_full_threshold(self, rng):
        slices = [rng.randbytes(8) for _ in range(3)]
        with pytest.raises(ValueError):
            make_manifest(slices, key_scheme=KeyScheme.XOR_SPLIT, threshold=2)

    def test_threshold_bounds(self, rng):
        slices = [rng.randbytes(8) for _ in range(3)]
        with pytest.raises(ValueError):
            make_manifest(slices, threshold=4)
        with pytest.raises(ValueError):
            make_manifest(slices, threshold=0)

    def test_digest_length_enforced(self, rng):
        with pytest.raises(ValueError):
            PayloadManifest(
                k=1,
                threshold=1,
                class_code=ClassCode.I_B,
                key_scheme=KeyScheme.SHAMIR,
                partition_strategy=CONTIG,
                partition_seed=0,
                nonce=bytes(12),
                slice_digests=(b"short",),
                ciphertext_digest=bytes(32),
                plaintext_digest=bytes(32),
            )
