"""Producer/consumer workflow tests: gating, assembly, and activation."""

import random
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings, strategies as st

from karychain import canonical as canonical_module
from karychain import cli as cli_module
from karychain import fragments as fragments_module
from karychain import ledger as ledger_module
from karychain import workflow as workflow_module
from karychain.fragments import (
    ClassCode,
    FragmentError,
    KeyScheme,
    PartitionStrategy,
    TruncatedError,
    parse_fragment,
    sha256,
    unpartition,
)
from karychain.ledger import Ledger
from karychain.workflow import (
    LAGRANGE,
    NEVILLE,
    AssemblyError,
    DecryptionError,
    DependencyCheckError,
    ExecutionError,
    ExecutionRefused,
    InsufficientSharesError,
    InsufficientSlicesError,
    PlaintextDigestMismatch,
    VerificationFailure,
    assemble,
    execute,
    produce,
    reconstruct_key,
    verify_fragments,
    verify_manifest_anchor,
)

PAYLOAD = b"benign demonstration payload " * 40


def anchored_env(
    payload=PAYLOAD,
    k=4,
    t=4,
    class_code=ClassCode.I_B,
    scheme=KeyScheme.SHAMIR,
    strategy=PartitionStrategy.CONTIGUOUS,
    seed=1234,
    difficulty=4,
):
    rng = random.Random(seed)
    manifest, frags = produce(payload, k, t, class_code, scheme, strategy, rng=rng)
    ledger = Ledger(difficulty=difficulty)
    ledger.submit_anchor(manifest.digest())
    for blob in frags:
        ledger.submit_anchor(sha256(blob))
    _, receipts = ledger.mine_block(now=1_700_000_000)
    receipt_map = {r.target_digest: r for r in receipts}
    return manifest, frags, receipt_map, ledger


class TestProduce:
    def test_four_fragments_and_manifest(self):
        manifest, frags = produce(
            PAYLOAD, 4, 4, ClassCode.I_B, KeyScheme.SHAMIR,
            PartitionStrategy.CONTIGUOUS, rng=random.Random(1),
        )
        assert manifest.k == 4 and len(frags) == 4
        for blob in frags:
            frag = parse_fragment(blob)
            assert frag.dep_digests == ()
            assert frag.slice_digest == manifest.slice_digests[frag.index - 1]

    def test_k1_degenerate_share_is_key(self):
        seed = 77
        manifest, (blob,) = produce(
            PAYLOAD, 1, 1, ClassCode.I_B, KeyScheme.SHAMIR,
            PartitionStrategy.CONTIGUOUS, rng=random.Random(seed),
        )
        key = random.Random(seed).randbytes(32)
        frag = parse_fragment(blob)
        assert frag.share_y == key
        ct = ChaCha20Poly1305(key).decrypt(manifest.nonce, frag.slice, None)
        assert ct == PAYLOAD

    def test_key_absent_from_outputs_when_threshold_above_one(self):
        seed = 99
        manifest, frags = produce(
            PAYLOAD, 4, 2, ClassCode.I_B, KeyScheme.SHAMIR,
            PartitionStrategy.CONTIGUOUS, rng=random.Random(seed),
        )
        key = random.Random(seed).randbytes(32)
        blob_pool = b"".join(frags) + manifest.canonical_bytes()
        assert key not in blob_pool

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            produce(b"", 2, 2, ClassCode.I_B, KeyScheme.SHAMIR,
                    PartitionStrategy.CONTIGUOUS, rng=random.Random(1))

    def test_xor_scheme_threshold_must_be_k(self):
        with pytest.raises(ValueError):
            produce(PAYLOAD, 4, 2, ClassCode.I_B, KeyScheme.XOR_SPLIT,
                    PartitionStrategy.CONTIGUOUS, rng=random.Random(1))


class TestVerifyFragments:
    def test_all_genuine_all_valid(self):
        manifest, frags, receipts, ledger = anchored_env()
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        assert all(s.ok for s in statuses)
        assert verify_manifest_anchor(manifest, receipts, ledger)

    def test_missing_receipt_reports_unanchored(self):
        manifest, frags, receipts, ledger = anchored_env()
        del receipts[sha256(frags[1])]
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        assert statuses[1].anchored is False
        assert statuses[1].anchor_reason == "unanchored"
        assert statuses[0].ok and statuses[2].ok and statuses[3].ok

    def test_failing_chain_is_audited_once(self, monkeypatch):
        manifest, frags, receipts, ledger = anchored_env()
        ledger.submit_anchor(sha256(b"later"))
        ledger.mine_block(now=1_700_000_001)
        # block 2 fails the audit; the payload's block 1 is untouched
        ledger._blocks[2] = replace(ledger._blocks[2], tx_digests=(sha256(b"forged"),))
        roots = []
        root_of = ledger_module.merkle_root_of

        def counting(leaves):
            roots.append(len(leaves))
            return root_of(leaves)

        monkeypatch.setattr(ledger_module, "merkle_root_of", counting)
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        assert [s.anchor_reason for s in statuses] == ["chain-invalid"] * 4
        # blocks 0, 1 and 2 once, not once per receipt
        assert len(roots) == 3

    def test_unparseable_blob_fails_at_its_position(self):
        manifest, frags, receipts, ledger = anchored_env()
        frags = list(frags)
        frags[1] = frags[1][:3]
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        assert [s.index for s in statuses] == [1, 2, 3, 4]
        assert statuses[1].to_json_dict() == {
            "index": 2, "anchored": False,
            "anchor_reason": "unparseable: fragment ends inside magic",
            "slice_ok": False, "deps_ok": False, "consistent": False, "ok": False,
        }
        assert isinstance(statuses[1].fragment, TruncatedError)
        assert statuses[0].ok and statuses[2].ok and statuses[3].ok

    @pytest.mark.parametrize("cut", [[2], [1, 2, 3]], ids=["one", "every"])
    def test_short_key_share_is_inconsistent(self, cut):
        manifest, frags = produce(
            PAYLOAD, 3, 3, ClassCode.I_B, KeyScheme.XOR_SPLIT,
            PartitionStrategy.CONTIGUOUS, rng=random.Random(5),
        )
        frags = [
            replace(f, share_y=f.share_y[:31]).serialize() if f.index in cut else blob
            for f, blob in zip(map(parse_fragment, frags), frags)
        ]
        ledger = Ledger(difficulty=4)
        for digest in [manifest.digest(), *map(sha256, frags)]:
            ledger.submit_anchor(digest)
        _, receipts = ledger.mine_block(now=1_700_000_000)
        receipts = {r.target_digest: r for r in receipts}
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        assert [s.index for s in statuses if not s.consistent] == cut
        assert all(s.anchored and s.slice_ok and s.deps_ok for s in statuses)
        with pytest.raises(VerificationFailure) as exc_info:
            assemble(frags, manifest, receipts, ledger)
        assert exc_info.value.indices == tuple(cut)

    def _tamper_slice(self, blob):
        frag = parse_fragment(blob)
        bad = bytearray(frag.slice)
        bad[0] ^= 0x01
        tampered = type(frag)(
            index=frag.index,
            k=frag.k,
            class_code=frag.class_code,
            share_x=frag.share_x,
            share_y=frag.share_y,
            slice=bytes(bad),
            dep_digests=frag.dep_digests,
        )
        return tampered.serialize()

    def test_ia_tamper_cascades_to_every_dependent(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.I_A)
        frags = list(frags)
        frags[2] = self._tamper_slice(frags[2])
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        assert statuses[2].slice_ok is False
        for s in statuses:
            if s.index != 3:
                assert s.deps_ok is False
            assert not s.ok

    def test_ic_tamper_hits_exactly_the_predecessor(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.I_C)
        frags = list(frags)
        frags[1] = self._tamper_slice(frags[1])
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        by_index = {s.index: s for s in statuses}
        assert by_index[2].slice_ok is False
        assert by_index[1].deps_ok is False and by_index[1].slice_ok is True
        assert by_index[3].deps_ok is True and by_index[4].deps_ok is True


class TestAssemble:
    def test_unparseable_blob_raises_its_own_error(self):
        manifest, frags, receipts, ledger = anchored_env()
        frags = list(frags)
        frags[1] = frags[1][:3]
        frags[2] = b"XXXX" + frags[2][4:]
        with pytest.raises(TruncatedError, match="^fragment ends inside magic$"):
            assemble(frags, manifest, receipts, ledger)

    @pytest.mark.parametrize("class_code", list(ClassCode))
    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_round_trip_all_classes(self, class_code, strategy):
        case_rng = random.Random(f"{class_code.name}/{strategy.value}")
        random_payload = case_rng.randbytes(case_rng.randint(64, 4096))
        manifest, frags, receipts, ledger = anchored_env(
            payload=random_payload, class_code=class_code, strategy=strategy, seed=5
        )
        payload, report = assemble(frags, manifest, receipts, ledger)
        assert payload == random_payload
        assert report.all_valid

    def test_round_trip_xor_scheme(self):
        manifest, frags, receipts, ledger = anchored_env(scheme=KeyScheme.XOR_SPLIT)
        payload, _ = assemble(frags, manifest, receipts, ledger)
        assert payload == PAYLOAD

    def test_methods_agree(self):
        manifest, frags, receipts, ledger = anchored_env(seed=31)
        p1, r1 = assemble(frags, manifest, receipts, ledger, method=LAGRANGE)
        p2, r2 = assemble(frags, manifest, receipts, ledger, method=NEVILLE)
        assert p1 == p2 == PAYLOAD
        assert r1.key_method == LAGRANGE and r2.key_method == NEVILLE
        assert [s.to_json_dict() for s in r1.fragment_statuses] == [
            s.to_json_dict() for s in r2.fragment_statuses
        ]

    def test_threshold_below_k_relaxes_key_not_data(self):
        manifest, frags, receipts, ledger = anchored_env(t=3, seed=8)
        short = [b for b in frags if parse_fragment(b).index != 4]
        # the key alone reconstructs from any 3 fragments and is consistent
        key_a = reconstruct_key(short, manifest)
        key_b = reconstruct_key([frags[0], frags[1], frags[3]], manifest)
        key_c = reconstruct_key(frags, manifest)
        assert key_a == key_b == key_c
        # but assembly still requires every slice
        with pytest.raises(InsufficientSlicesError) as exc:
            assemble(short, manifest, receipts, ledger)
        assert exc.value.indices == (4,)

    @pytest.fixture
    def handed(self, monkeypatch):
        """The share abscissas each interpolation is handed, by method."""
        calls = {LAGRANGE: [], NEVILLE: []}
        for method, name in ((LAGRANGE, "reconstruct_lagrange"), (NEVILLE, "reconstruct_neville")):
            original = getattr(workflow_module, name)

            def counted(shares, original=original, seen=calls[method]):
                seen.append([s.x for s in shares])
                return original(shares)

            monkeypatch.setattr(workflow_module, name, counted)
        return calls

    def test_shamir_key_interpolates_only_the_threshold_lowest_shares(self, handed):
        manifest, frags, receipts, ledger = anchored_env(k=8, t=3, seed=9)
        shuffled = [frags[i] for i in (6, 2, 7, 0, 5, 1, 4, 3)]
        for method in (LAGRANGE, NEVILLE):
            key = reconstruct_key(shuffled, manifest, method)
            assert handed[method] == [[1, 2, 3]]
            assert key == reconstruct_key([frags[7], frags[4], frags[5]], manifest, method)
            payload, _ = assemble(frags, manifest, receipts, ledger, method=method)
            assert payload == PAYLOAD
            assert handed[method][-1] == [1, 2, 3]

    def test_altered_share_beyond_the_threshold_is_refused_by_its_anchor(self, handed):
        manifest, frags, receipts, ledger = anchored_env(k=8, t=3, seed=9)
        share_y = 13  # magic, five u8 fields, share_len u32
        blob = bytearray(frags[7])
        assert parse_fragment(bytes(blob)).index == 8
        blob[share_y] ^= 0x01
        altered = [*frags[:7], bytes(blob)]
        assert parse_fragment(altered[7]).share_y != parse_fragment(frags[7]).share_y
        for method in (LAGRANGE, NEVILLE):
            with pytest.raises(VerificationFailure) as exc:
                assemble(altered, manifest, receipts, ledger, method=method)
            assert exc.value.indices == (8,)
        assert handed == {LAGRANGE: [], NEVILLE: []}

    def test_too_few_shares_for_key(self):
        manifest, frags, receipts, ledger = anchored_env(t=3, seed=8)
        with pytest.raises(InsufficientSharesError):
            reconstruct_key(frags[:2], manifest)

    def test_duplicate_shares_count_once(self):
        manifest, frags, receipts, ledger = anchored_env(k=8, t=3, seed=9)
        f1, f2, f3 = frags[:3]
        with pytest.raises(InsufficientSharesError) as exc:
            reconstruct_key([f1, f1, f2], manifest)
        assert exc.value.indices == (1, 2)
        assert reconstruct_key([f1, f1, f2, f3], manifest) == reconstruct_key(frags, manifest)

    def test_xor_key_needs_every_share(self):
        manifest, frags, receipts, ledger = anchored_env(scheme=KeyScheme.XOR_SPLIT)
        with pytest.raises(InsufficientSharesError):
            reconstruct_key(frags[:3], manifest)
        with pytest.raises(InsufficientSharesError) as exc:
            reconstruct_key([*frags[:3], frags[0]], manifest)
        assert exc.value.indices == (4,)

    def test_manifest_must_be_anchored(self):
        manifest, frags, receipts, ledger = anchored_env()
        del receipts[manifest.digest()]
        with pytest.raises(VerificationFailure):
            assemble(frags, manifest, receipts, ledger)

    def test_verification_gate_fires_before_decryption(self, rng):
        # mutate any single fragment bit: the refusal must be a parse or
        # verification failure, never an AEAD or plaintext-digest error
        manifest, frags, receipts, ledger = anchored_env(seed=13)
        for _ in range(1000):
            idx = rng.randrange(len(frags))
            blob = bytearray(frags[idx])
            bit = rng.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            mutated = list(frags)
            mutated[idx] = bytes(blob)
            with pytest.raises((VerificationFailure, FragmentError)):
                assemble(mutated, manifest, receipts, ledger)

    def test_gate_soundness_exhaustive_on_small_instance(self):
        # flip every byte of every structural artifact of a k=2 instance:
        # the manifest encoding and both fragment blobs; each flip refuses
        manifest, frags, receipts, ledger = anchored_env(
            payload=b"tiny payload for the exhaustive gate", k=2, t=2, seed=21
        )
        mbytes = manifest.canonical_bytes()
        for pos in range(len(mbytes)):
            corrupted = bytearray(mbytes)
            corrupted[pos] ^= 0x01
            try:
                mutated = type(manifest).from_canonical_bytes(bytes(corrupted))
            except Exception:
                continue  # unparseable manifest cannot even reach the gate
            with pytest.raises(AssemblyError):
                assemble(frags, mutated, receipts, ledger)
        for idx in range(2):
            for pos in range(len(frags[idx])):
                corrupted = bytearray(frags[idx])
                corrupted[pos] ^= 0x01
                mutated_frags = list(frags)
                mutated_frags[idx] = bytes(corrupted)
                with pytest.raises((AssemblyError, FragmentError)):
                    assemble(mutated_frags, manifest, receipts, ledger)

    @pytest.mark.parametrize(
        "fields, error, message, payload",
        [
            pytest.param(fields, error, message, payload,
                         id="-".join([*fields, error.__name__, message]) + suffix)
            for fields, error, message in [
                (["ciphertext_digest"], VerificationFailure, "ciphertext digest mismatch"),
                (["nonce"], DecryptionError, "authenticated decryption failed"),
                (["plaintext_digest"], PlaintextDigestMismatch, "payload digest mismatch"),
                # the ciphertext is judged before the tag that also fails
                (["ciphertext_digest", "nonce"], VerificationFailure,
                 "ciphertext digest mismatch"),
            ]
            # a 2 MiB payload hashes its ciphertext and plaintext on two threads
            for payload, suffix in [(PAYLOAD, ""), (random.Random(5).randbytes(2 << 20), "-2MiB")]
        ],
    )
    def test_anchored_altered_manifest_refused_after_the_slices(
        self, monkeypatch, fields, error, message, payload
    ):
        # the altered manifest is itself anchored, so only the checks after
        # reassembly can refuse it
        monkeypatch.setattr(canonical_module, "_CPUS", 2)
        manifest, frags = produce(payload, 4, 4, ClassCode.I_B, KeyScheme.SHAMIR,
                                  PartitionStrategy.CONTIGUOUS, rng=random.Random(5))
        altered = replace(manifest, **{
            field: bytes([getattr(manifest, field)[0] ^ 1]) + getattr(manifest, field)[1:]
            for field in fields
        })
        ledger = Ledger(difficulty=4)
        ledger.submit_anchor(altered.digest(), *map(sha256, frags))
        _, receipts = ledger.mine_block(now=1_700_000_000)
        receipts = {r.target_digest: r for r in receipts}
        with pytest.raises(error, match=message):
            assemble(frags, altered, receipts, ledger)

    def test_invalid_ledger_refuses(self):
        manifest, frags, receipts, ledger = anchored_env()
        ledger._blocks[1] = ledger._blocks[0]
        with pytest.raises(VerificationFailure):
            assemble(frags, manifest, receipts, ledger)

    def test_unknown_method_rejected(self):
        manifest, frags, receipts, ledger = anchored_env()
        with pytest.raises(ValueError):
            assemble(frags, manifest, receipts, ledger, method="NEWTON")


class TestExecute:
    def test_class_i_trace_is_ordered_and_disjoint(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.I_B)
        trace = execute(frags, manifest)
        assert [e.index for e in trace] == [1, 2, 3, 4]
        for a, b in zip(trace, trace[1:]):
            assert a.end < b.start

    def test_class_i_runs_in_index_order_even_if_given_shuffled(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.I_C)
        trace = execute(list(reversed(frags)), manifest)
        assert [e.index for e in trace] == [1, 2, 3, 4]

    def test_class_ii_intervals_pairwise_overlap(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.II)
        trace = execute(frags, manifest)
        assert len(trace) == 4
        assert max(e.start for e in trace) < min(e.end for e in trace)

    def test_class_ii_failing_action_refuses_without_a_hang(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.II)

        def failing(frag):
            raise RuntimeError(f"action {frag.index} failed")

        raised = []

        def activate():
            try:
                execute(frags, manifest, actions={3: failing})
            except ExecutionError as exc:
                raised.append(exc)

        worker = threading.Thread(target=activate, daemon=True)
        worker.start()
        worker.join(timeout=20)  # below the 30 s barrier timeout
        assert not worker.is_alive()
        (exc,) = raised
        assert type(exc) is ExecutionError
        assert str(exc) == "parallel activation failed: action 3 failed"

    def test_class_ii_missing_fragment_refuses(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.II)
        with pytest.raises(ExecutionRefused) as exc:
            execute(frags[:3], manifest)
        assert exc.value.indices == (4,)

    def test_dependency_recheck_aborts_class_ia(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.I_A)
        frags = list(frags)
        tampered = TestVerifyFragments()._tamper_slice(frags[3])
        frags[3] = tampered
        with pytest.raises(DependencyCheckError) as exc:
            execute(frags, manifest)
        assert exc.value.indices == (1,)

    def test_custom_actions_recorded(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.I_B)
        actions = {2: lambda f: f"custom for {f.index}"}
        trace = execute(frags, manifest, actions=actions)
        assert trace[1].note == "custom for 2"
        assert trace[0].note == "fragment 1 activated"


class TestOneDependencyCheck:
    """`execute` refuses, before the activation, every fragment whose
    dependencies `verify_fragments` reports unmet, and no other."""

    @pytest.mark.parametrize(
        "class_code, unmet", [(ClassCode.I_A, [1, 2, 3, 4]), (ClassCode.I_C, [4])]
    )
    def test_a_larger_split_under_a_smaller_manifest_is_refused(self, class_code, unmet):
        manifest, _ = produce(PAYLOAD, 4, 4, class_code, KeyScheme.SHAMIR,
                              PartitionStrategy.CONTIGUOUS, rng=random.Random(5))
        _, frags = produce(PAYLOAD, 5, 5, class_code, KeyScheme.SHAMIR,
                           PartitionStrategy.CONTIGUOUS, rng=random.Random(6))
        statuses = verify_fragments(frags, manifest, {}, Ledger(difficulty=0))
        assert [s.index for s in statuses if not s.deps_ok] == unmet
        ran = []
        with pytest.raises(DependencyCheckError) as exc:
            execute(frags, manifest, actions=dict.fromkeys(range(1, 6), ran.append))
        assert exc.value.indices == (unmet[0],)
        assert [f.index for f in ran] == list(range(1, unmet[0]))


def _flip(data: bytes, position: int) -> bytes:
    return data[:position] + bytes([data[position] ^ 0x01]) + data[position + 1:]


@st.composite
def mutated_sets(draw):
    """A complete set of small fragments with one mutation, and its manifest.

    The mutation flips a byte of a dependency digest or of a slice, or takes
    fragments `first..last` from a split with another k."""
    k = draw(st.integers(2, 8))
    mutation = draw(st.sampled_from(["dep digest", "slice", "other k"]))
    classes = [ClassCode.I_A, ClassCode.I_C] if mutation == "dep digest" else list(ClassCode)
    class_code = draw(st.sampled_from(classes))
    scheme = draw(st.sampled_from(list(KeyScheme)))
    t = k if scheme is KeyScheme.XOR_SPLIT else draw(st.integers(1, k))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    manifest, blobs = produce(PAYLOAD[:40], k, t, class_code, scheme,
                              PartitionStrategy.CONTIGUOUS, rng=rng)
    if mutation == "other k":
        other_k = draw(st.integers(2, 8).filter(lambda n: n != k))
        other_t = other_k if scheme is KeyScheme.XOR_SPLIT else min(t, other_k)
        _, others = produce(PAYLOAD[:40], other_k, other_t, class_code, scheme,
                            PartitionStrategy.CONTIGUOUS, rng=rng)
        # one fragment (first == last) or a run of them; with all of 1..k the
        # only unmet dependency may be a dependency digest count
        last = min(k, other_k)
        first = draw(st.integers(1, last))
        blobs[first - 1:last] = others[first - 1:last]
        return manifest, blobs
    if mutation == "slice":
        frag = parse_fragment(blobs[draw(st.integers(0, k - 1))])
        frag = replace(frag, slice=_flip(frag.slice, draw(st.integers(0, len(frag.slice) - 1))))
    else:
        frag = parse_fragment(blobs[draw(st.integers(0, k - 2))])  # under I_C, k has no deps
        deps = list(frag.dep_digests)
        j = draw(st.integers(0, len(deps) - 1))
        deps[j] = _flip(deps[j], draw(st.integers(0, 31)))
        frag = replace(frag, dep_digests=tuple(deps))
    blobs[frag.index - 1] = frag.serialize()
    return manifest, blobs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_sets())
def test_execute_refuses_exactly_the_lowest_fragment_verify_reports_unmet(case):
    manifest, blobs = case
    statuses = verify_fragments(blobs, manifest, {}, Ledger(difficulty=0))
    unmet = [s.index for s in statuses if not s.deps_ok]
    if not unmet:
        assert len(execute(blobs, manifest)) == manifest.k
        return
    with pytest.raises(DependencyCheckError) as exc:
        execute(blobs, manifest)
    assert exc.value.indices == (min(unmet),)


class TestRun:
    @pytest.mark.parametrize("class_code", list(ClassCode))
    def test_run_is_assemble_then_execute(self, class_code):
        manifest, frags, receipts, ledger = anchored_env(class_code=class_code)
        payload, report = workflow_module.run(frags, manifest, receipts, ledger)
        assembled, assembled_report = assemble(frags, manifest, receipts, ledger)
        assert payload == assembled == PAYLOAD
        assert report.fragment_statuses == assembled_report.fragment_statuses
        expected = execute(frags, manifest)
        trace = report.activation_trace
        if class_code is ClassCode.II:
            # threads take their start ticks in any order
            by_index = lambda e: e.index  # noqa: E731
            assert [(e.index, e.note) for e in sorted(trace, key=by_index)] == [
                (e.index, e.note) for e in sorted(expected, key=by_index)
            ]
            assert max(e.start for e in trace) < min(e.end for e in trace)
        else:
            assert trace == tuple(expected)

    def test_run_refuses_what_assemble_refuses(self):
        manifest, frags, receipts, ledger = anchored_env(class_code=ClassCode.II)
        with pytest.raises(InsufficientSlicesError) as exc:
            workflow_module.run(frags[:3], manifest, receipts, ledger)
        assert exc.value.indices == (4,)


class TestDeterminism:
    def test_identical_seeds_identical_artifacts(self):
        runs = []
        for _ in range(2):
            manifest, frags, receipts, ledger = anchored_env(seed=2024)
            runs.append(
                (
                    manifest.canonical_bytes(),
                    tuple(frags),
                    tuple(sorted((d.hex(), r.to_json_dict()["block_hash"])
                                 for d, r in receipts.items())),
                    [b.to_json_dict() for b in ledger.blocks],
                )
            )
        assert runs[0] == runs[1]


class TestGateWork:
    """The gate's work is linear in k: one parse per blob, one hash per slice."""

    PAYLOAD = random.Random(7).randbytes(64 << 10)

    @pytest.fixture
    def env(self):
        return anchored_env(
            payload=self.PAYLOAD, k=16, t=16, class_code=ClassCode.I_A,
            strategy=PartitionStrategy.INTERLEAVE,
        )

    @pytest.fixture
    def counted(self, monkeypatch):
        """Record every blob parsed and every input hashed by the gate, one
        at a time or in a `sha256_each` batch."""
        seen = {"parsed": Counter(), "hashed": []}
        parse, digest = workflow_module.parse_fragment, fragments_module.sha256
        digest_each = fragments_module.sha256_each

        def counting_parse(blob):
            seen["parsed"][blob] += 1
            return parse(blob)

        def counting_sha256(data):
            seen["hashed"].append(bytes(data))
            return digest(data)

        def counting_sha256_each(chunks):
            seen["hashed"].extend(map(bytes, chunks))
            return digest_each(chunks)

        for module in (workflow_module, cli_module):
            monkeypatch.setattr(module, "parse_fragment", counting_parse)
            monkeypatch.setattr(module, "sha256", counting_sha256)
        for module in (workflow_module, fragments_module):
            monkeypatch.setattr(module, "sha256_each", counting_sha256_each)
        monkeypatch.setattr(fragments_module, "sha256", counting_sha256)
        return seen

    @pytest.fixture
    def cli_workspace(self, tmp_path):
        """A k=16 I_A set split, anchored and mined with `kary`; the global
        options and the manifest and fragment paths."""
        payload = tmp_path / "payload.bin"
        payload.write_bytes(self.PAYLOAD)
        root = tmp_path / "ws"
        base = ["--workspace", str(root), "--seed", "3", "--difficulty", "4"]
        files = [str(root / "fragments" / "manifest.kmanifest.json")]
        files += [str(root / "fragments" / f"frag_{i}.kary") for i in range(1, 17)]
        for args in (
            ["split", str(payload), "-k", "16", "--class-code", "I_A",
             "--strategy", "INTERLEAVE"],
            ["anchor", *files],
            ["mine"],
        ):
            res = CliRunner().invoke(cli_module.main, [*base, *args],
                                     env={"KARY_TIMESTAMP": "1700000000"})
            assert res.exit_code == 0, res.output
        return base, files

    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_cli_gate_parses_and_hashes_each_blob_once(self, cli_workspace, counted, command):
        base, files = cli_workspace
        counted["parsed"].clear()
        counted["hashed"].clear()
        res = CliRunner().invoke(cli_module.main, [*base, command, *files])
        assert res.exit_code == 0, res.output
        blobs = [Path(f).read_bytes() for f in files[1:]]
        slices = [parse_fragment(b).slice for b in blobs]
        assert counted["parsed"] == Counter(blobs)
        hashed = Counter(counted["hashed"])
        assert {b: hashed[b] for b in blobs} == Counter(blobs)
        assert {s: hashed[s] for s in slices} == Counter(slices)

    def test_produce_hashes_each_byte_three_times(self, counted):
        # the plaintext, the ciphertext and its slices, once each
        manifest, frags = produce(
            self.PAYLOAD, 16, 16, ClassCode.I_A, KeyScheme.SHAMIR,
            PartitionStrategy.INTERLEAVE, rng=random.Random(3),
        )
        ciphertext_len = len(self.PAYLOAD) + 16
        assert sum(map(len, counted["hashed"])) == len(self.PAYLOAD) + 2 * ciphertext_len
        slices = [parse_fragment(b).slice for b in frags]
        assert Counter(counted["hashed"]) & Counter(slices) == Counter(slices)

    def test_assemble_parses_each_blob_once(self, env, counted):
        manifest, frags, receipts, ledger = env
        payload, _ = assemble(frags, manifest, receipts, ledger)
        assert payload == self.PAYLOAD
        assert counted["parsed"] == Counter(frags)

    def test_assemble_hashes_about_four_times_the_payload(self, env, counted):
        manifest, frags, receipts, ledger = env
        assemble(frags, manifest, receipts, ledger)
        ciphertext_len = len(self.PAYLOAD) + 16
        slices = [parse_fragment(b).slice for b in frags]
        headers = sum(len(b) - len(s) for b, s in zip(frags, slices))
        # blobs, slices, ciphertext and plaintext, plus the manifest's own digest
        bound = 4 * ciphertext_len + headers + len(manifest.canonical_bytes())
        assert sum(map(len, counted["hashed"])) <= bound
        assert Counter(counted["hashed"]) & Counter(slices) == Counter(slices)

    def test_execute_hashes_each_slice_once(self, env, counted):
        manifest, frags, receipts, ledger = env
        execute(frags, manifest)
        assert Counter(counted["hashed"]) == Counter(parse_fragment(b).slice for b in frags)

    def test_execute_on_verified_fragments_needs_no_parse_or_hash(self, env, counted):
        manifest, frags, receipts, ledger = env
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        counted["parsed"].clear()
        counted["hashed"].clear()
        trace = execute([s.fragment for s in statuses], manifest)
        assert [e.index for e in trace] == list(range(1, 17))
        assert not counted["parsed"] and not counted["hashed"]

    def test_report_does_not_pin_slices(self, env):
        manifest, frags, receipts, ledger = env
        _, report = assemble(frags, manifest, receipts, ledger)
        assert all(s.fragment is None for s in report.fragment_statuses)

    def test_blob_and_parsed_inputs_agree(self, env):
        manifest, frags, receipts, ledger = env
        parsed = [parse_fragment(b) for b in frags]
        statuses = verify_fragments(frags, manifest, receipts, ledger)
        assert all(s.ok for s in statuses)
        assert [s.fragment for s in statuses] == parsed
        assert [s.to_json_dict() for s in statuses] == [
            {"index": i, "anchored": True, "anchor_reason": None, "slice_ok": True,
             "deps_ok": True, "consistent": True, "ok": True}
            for i in range(1, 17)
        ]
        key = reconstruct_key(frags, manifest)
        assert key == reconstruct_key(parsed, manifest)
        assert key == reconstruct_key(list(reversed(parsed)), manifest, LAGRANGE)
        ciphertext = unpartition([f.slice for f in parsed], PartitionStrategy.INTERLEAVE)
        assert ChaCha20Poly1305(key).decrypt(manifest.nonce, ciphertext, None) == self.PAYLOAD
        assert execute(frags, manifest) == execute(parsed, manifest)


class TestGateWorkOnTwoThreads(TestGateWork):
    """The same counts where the blobs, slices, ciphertext and plaintext are
    large enough for `sha256_each` to hash them on two threads."""

    PAYLOAD = random.Random(7).randbytes(2 << 20)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(canonical_module, "_CPUS", 2)

    @pytest.fixture(autouse=True)
    def sha256_on_the_calling_thread_only(self, monkeypatch):
        # karybench's tracer wraps `sha256` under these names with a span
        # stack that only one thread may touch; the helper calls hashlib alone
        caller = threading.get_ident()
        for module in (canonical_module, fragments_module, workflow_module, cli_module):
            def guarded(data, digest=module.sha256):
                assert threading.get_ident() == caller, "sha256 called off the calling thread"
                return digest(data)

            monkeypatch.setattr(module, "sha256", guarded)
