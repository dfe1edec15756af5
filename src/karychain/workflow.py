"""End-to-end workflow: produce fragments, verify against the ledger, assemble, run.

Producer side: encrypt the payload with ChaCha20-Poly1305 (empty associated
data, 16-byte tag appended), cut the ciphertext into k slices, split the key
per the chosen scheme, and emit k fragments plus a manifest. The raw key is
never part of any output.

Consumer side: reassembly is gated. Every fragment must carry a verifying
anchor receipt for its whole serialized bytes, match the manifest's slice
digest at its index, satisfy its dependency digests (as many as the
manifest's class and k give), and agree with the manifest structurally;
the manifest itself must be anchored and the stored chain must audit
clean. Only then is the key reconstructed (Neville by default, Lagrange as
cross-check), the ciphertext reassembled, and the payload decrypted and
digest-checked.

The gate does work linear in k: it parses and hashes each fragment blob
once and hands the parsed fragments on to key reconstruction, reassembly
and activation (`run`), and it hashes each slice once
(`Fragment.slice_digest` is cached), however many other fragments embed
that slice's digest. Receipts come from a dict or a `ReceiptStore`.

The large hashes go to `sha256_each` one batch at a time: the producer's
slices, ciphertext and plaintext; the gate's blobs and their slices; the
reassembled ciphertext and plaintext; and the slices of an I_A or I_C
activation, before it re-checks them. A batch of at least 1 MiB whose
chunks average at least 64 KiB is split between the calling thread and one
helper thread when the process may run on two CPUs. Other batches, such as
a 64 KiB payload's at k=255 (about 4 KiB per chunk), are hashed serially.

Activation follows the class code: Class I runs actions in index order,
and before each activation repeats the gate's one dependency check on the
cached digests of the immutable slices, so `execute` raises
`DependencyCheckError` wherever `verify_fragments` reports a fragment not
`deps_ok`. Class II holds all activations at a rendezvous barrier so each
starts before any completes, and refuses outright if a fragment is missing.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .canonical import sha256  # noqa: F401  (karybench's tracer wraps it under this name)
from .canonical import sha256_each
from .fragments import (
    NONCE_LEN,
    ClassCode,
    Fragment,
    FragmentError,
    KeyScheme,
    PartitionStrategy,
    PayloadManifest,
    _serialize_fragments,
    build_fragments,  # noqa: F401  (karybench's tracer wraps it under this name)
    cache_slice_digests,
    dep_indices,
    parse_fragment,
    partition_payload,
    unpartition,
)
from .ledger import AnchorReceipt, Chain, ReceiptStore, VerifyResult
from .sharing import (
    SecretShare,
    reconstruct_lagrange,
    reconstruct_neville,
    reconstruct_xor,
    split_secret_shamir,
    split_secret_xor,
)

KEY_LEN = 32

LAGRANGE = "LAGRANGE"
NEVILLE = "NEVILLE"

ActionFn = Callable[[Fragment], str | None]
Receipts = Mapping[bytes, AnchorReceipt] | ReceiptStore


class WorkflowError(Exception):
    """Base of every refusal of the gate or of activation; carries the
    offending fragment indices."""

    def __init__(self, message: str, indices: Sequence[int] = ()):
        super().__init__(message)
        self.indices = tuple(indices)


class AssemblyError(WorkflowError):
    """Base for every reason assembly refuses."""


class VerificationFailure(AssemblyError):
    pass


class InsufficientSharesError(AssemblyError):
    pass


class InsufficientSlicesError(AssemblyError):
    pass


class DecryptionError(AssemblyError):
    pass


class PlaintextDigestMismatch(AssemblyError):
    pass


class ExecutionError(WorkflowError):
    """Base for every reason activation fails."""


class ExecutionRefused(ExecutionError):
    """Activation never started (missing fragments)."""


class DependencyCheckError(ExecutionError):
    """A pre-activation dependency re-check failed."""


@dataclass(frozen=True)
class FragmentStatus:
    index: int
    anchored: bool
    anchor_reason: str | None
    slice_ok: bool
    deps_ok: bool
    consistent: bool
    # the parsed fragment (or the error refusing its blob), for later stages
    fragment: Fragment | FragmentError | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.anchored and self.slice_ok and self.deps_ok and self.consistent

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "anchored": self.anchored,
            "anchor_reason": self.anchor_reason,
            "slice_ok": self.slice_ok,
            "deps_ok": self.deps_ok,
            "consistent": self.consistent,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ActivationEvent:
    index: int
    start: int
    end: int
    note: str | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {"index": self.index, "start": self.start, "end": self.end, "note": self.note}


@dataclass
class AssemblyReport:
    fragment_statuses: tuple[FragmentStatus, ...]
    manifest_anchored: bool
    key_method: str
    decryption_ok: bool
    activation_trace: tuple[ActivationEvent, ...] = field(default_factory=tuple)

    @property
    def all_valid(self) -> bool:
        return self.manifest_anchored and all(s.ok for s in self.fragment_statuses)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "fragment_statuses": [s.to_json_dict() for s in self.fragment_statuses],
            "manifest_anchored": self.manifest_anchored,
            "key_method": self.key_method,
            "decryption_ok": self.decryption_ok,
            "activation_trace": [e.to_json_dict() for e in self.activation_trace],
        }


# ---------------------------------------------------------------------------
# Producer


def produce(
    payload: bytes,
    k: int,
    threshold: int,
    class_code: ClassCode,
    key_scheme: KeyScheme,
    strategy: PartitionStrategy,
    rng: random.Random | None = None,
    partition_seed: int = 0,
) -> tuple[PayloadManifest, list[bytes]]:
    """Encrypt, fragment, and share the key; returns (manifest, fragment blobs).

    The freshly generated key is used for encryption and the split, then
    dropped; no return value or artifact contains it.
    """
    if not payload:
        raise ValueError("payload must be nonempty")
    rng = rng if rng is not None else random.SystemRandom()
    key = rng.randbytes(KEY_LEN)
    nonce = rng.randbytes(NONCE_LEN)
    ciphertext = ChaCha20Poly1305(key).encrypt(nonce, payload, None)
    slices = partition_payload(ciphertext, k, strategy)
    *slice_digests, ciphertext_digest, plaintext_digest = sha256_each(
        [*slices, ciphertext, payload]
    )
    if key_scheme is KeyScheme.XOR_SPLIT:
        shares = split_secret_xor(key, k, rng)
    else:
        shares = split_secret_shamir(key, threshold, k, rng)
    manifest = PayloadManifest(
        k=k,
        threshold=threshold,
        class_code=class_code,
        key_scheme=key_scheme,
        partition_strategy=strategy,
        partition_seed=partition_seed,
        nonce=nonce,
        slice_digests=tuple(slice_digests),
        ciphertext_digest=ciphertext_digest,
        plaintext_digest=plaintext_digest,
    )
    return manifest, _serialize_fragments(slices, shares, manifest)


# ---------------------------------------------------------------------------
# Verification


def verify_fragments(
    fragment_blobs: Sequence[bytes],
    manifest: PayloadManifest,
    receipts: Receipts,
    ledger: Chain,
) -> list[FragmentStatus]:
    """Independently check anchoring, slice digest, and dependency digests.

    Receipts are keyed by the SHA-256 of the whole serialized fragment.
    A fragment with no receipt reports anchor_reason "unanchored". Each
    status carries its parsed fragment. A blob that does not parse fails
    every check under its argument position, with anchor_reason
    "unparseable: ..." and the FragmentError as its fragment.
    """
    parsed: list[Fragment | FragmentError] = []
    frags, frag_blobs = [], []
    by_index: dict[int, Fragment] = {}
    duplicates = set()
    for blob in fragment_blobs:
        try:
            frag = parse_fragment(blob)
        except FragmentError as exc:
            parsed.append(exc)
            continue
        parsed.append(frag)
        frags.append(frag)
        frag_blobs.append(blob)
        if frag.index in by_index:
            duplicates.add(frag.index)
        by_index[frag.index] = frag
    blob_digests = iter(cache_slice_digests(frags, frag_blobs))
    statuses = []
    for position, (blob, frag) in enumerate(zip(fragment_blobs, parsed), start=1):
        if isinstance(frag, FragmentError):
            statuses.append(
                FragmentStatus(
                    index=position,
                    anchored=False,
                    anchor_reason=f"unparseable: {frag}",
                    slice_ok=False,
                    deps_ok=False,
                    consistent=False,
                    fragment=frag,
                )
            )
            continue
        anchor = _verify_anchor(next(blob_digests), receipts, ledger)
        consistent = (
            frag.k == manifest.k
            and frag.class_code is manifest.class_code
            and frag.share_x == frag.index
            and len(frag.share_y) == KEY_LEN
            and frag.index not in duplicates
        )
        slice_ok = (
            1 <= frag.index <= manifest.k
            and frag.slice_digest == manifest.slice_digests[frag.index - 1]
        )
        deps_ok = _unmet_dependency(frag, manifest, by_index) is None
        statuses.append(
            FragmentStatus(
                index=frag.index,
                anchored=anchor.ok,
                anchor_reason=anchor.reason,
                slice_ok=slice_ok,
                deps_ok=deps_ok,
                consistent=consistent,
                fragment=frag,
            )
        )
    return statuses


def _unmet_dependency(
    frag: Fragment, manifest: PayloadManifest, by_index: Mapping[int, Fragment]
) -> str | None:
    """The first of `frag`'s dependencies that does not hold, or None: the
    one check behind the gate's `deps_ok` and each activation's re-check.
    Carrying more or fewer dependency digests than the manifest's class and
    k give is unmet too."""
    refs = dep_indices(frag.index, manifest.k, manifest.class_code)
    if len(frag.dep_digests) != len(refs):
        return f"carries {len(frag.dep_digests)} dependency digests, not {len(refs)}"
    for dep_digest, ref_index in zip(frag.dep_digests, refs):
        referenced = by_index.get(ref_index)
        if referenced is None or referenced.slice_digest != dep_digest:
            return f"dependency on {ref_index} unsatisfied"
    return None


def _by_index(
    fragments: Sequence[bytes | Fragment], k: int
) -> tuple[dict[int, Fragment], list[int]]:
    """The fragments by index, parsing those still in wire form (of several
    with one index, the last counts), and the indices of 1..k none has."""
    parsed = (f if isinstance(f, Fragment) else parse_fragment(f) for f in fragments)
    by_index = {f.index: f for f in parsed}
    return by_index, sorted(set(range(1, k + 1)) - by_index.keys())


def verify_manifest_anchor(
    manifest: PayloadManifest,
    receipts: Receipts,
    ledger: Chain,
) -> VerifyResult:
    """The manifest's canonical digest must itself be anchored and verifiable."""
    return _verify_anchor(manifest.digest(), receipts, ledger)


def _verify_anchor(digest: bytes, receipts: Receipts, ledger: Chain) -> VerifyResult:
    receipt = receipts.get(digest)
    if receipt is None:
        return VerifyResult(False, "unanchored")
    return ledger.verify_receipt(digest, receipt)


# ---------------------------------------------------------------------------
# Key reconstruction and assembly


def reconstruct_key(
    fragment_blobs: Sequence[bytes | Fragment],
    manifest: PayloadManifest,
    method: str = NEVILLE,
) -> bytes:
    """Rebuild the payload key from the shares embedded in the fragments.

    Takes fragment blobs or already parsed fragments; of several with one
    index, only one counts. Needs all k fragments under XOR_SPLIT, any
    `threshold` distinct ones under SHAMIR, of which only the `threshold`
    lowest-index shares are interpolated: t points fix the key,
    and more would cost O(k^2) instead of O(t^2). This succeeds independently
    of slice completeness: the key threshold relaxes only the key, never the
    data.
    """
    if method not in (LAGRANGE, NEVILLE):
        raise ValueError(f"unknown reconstruction method {method!r}")
    # one fragment per index: a repeated share adds no point to interpolate
    by_index, missing = _by_index(fragment_blobs, manifest.k)
    shares = [SecretShare(x=f.share_x, y=f.share_y) for _, f in sorted(by_index.items())]
    if manifest.key_scheme is KeyScheme.XOR_SPLIT:
        if missing or len(shares) != manifest.k:
            raise InsufficientSharesError("XOR split needs every fragment's share", indices=missing)
        return reconstruct_xor(shares)
    if len(shares) < manifest.threshold:
        raise InsufficientSharesError(
            f"have {len(shares)} shares, need {manifest.threshold}",
            indices=sorted(by_index),
        )
    shares = shares[: manifest.threshold]
    if method == LAGRANGE:
        return reconstruct_lagrange(shares)
    return reconstruct_neville(shares)


def assemble(
    fragment_blobs: Sequence[bytes],
    manifest: PayloadManifest,
    receipts: Receipts,
    ledger: Chain,
    method: str = NEVILLE,
) -> tuple[bytes, AssemblyReport]:
    """Verify everything, reconstruct the key, reassemble, and decrypt.

    Raises a distinct AssemblyError subclass at the first failing gate; the
    failing fragment indices ride on the exception. A blob that does not
    parse raises its own FragmentError.
    """
    return _assemble(fragment_blobs, manifest, receipts, ledger, method)[:2]


def run(
    fragment_blobs: Sequence[bytes],
    manifest: PayloadManifest,
    receipts: Receipts,
    ledger: Chain,
    method: str = NEVILLE,
) -> tuple[bytes, AssemblyReport]:
    """`assemble`, then `execute` the fragments the gate parsed; the report
    carries the activation trace."""
    payload, report, parsed = _assemble(fragment_blobs, manifest, receipts, ledger, method)
    report.activation_trace = tuple(execute(parsed, manifest))
    return payload, report


def _assemble(
    fragment_blobs: Sequence[bytes],
    manifest: PayloadManifest,
    receipts: Receipts,
    ledger: Chain,
    method: str,
) -> tuple[bytes, AssemblyReport, list[Fragment]]:
    """The gate behind `assemble` and `run`; also returns the parsed fragments."""
    if method not in (LAGRANGE, NEVILLE):
        raise ValueError(f"unknown reconstruction method {method!r}")
    if not ledger.validate_chain():
        raise VerificationFailure("ledger chain failed validation")
    manifest_result = verify_manifest_anchor(manifest, receipts, ledger)
    if not manifest_result:
        raise VerificationFailure(f"manifest anchor invalid: {manifest_result.reason}")
    statuses = verify_fragments(fragment_blobs, manifest, receipts, ledger)
    for s in statuses:
        if isinstance(s.fragment, FragmentError):
            raise s.fragment
    bad = [s.index for s in statuses if not s.ok]
    if bad:
        raise VerificationFailure(f"fragment verification failed for {bad}", indices=bad)
    by_index, missing = _by_index([s.fragment for s in statuses], manifest.k)
    if missing:
        raise InsufficientSlicesError(
            f"fragments {missing} are missing; every slice is required", indices=missing
        )
    parsed = [f for _, f in sorted(by_index.items())]
    key = reconstruct_key(parsed, manifest, method)
    ciphertext = unpartition([f.slice for f in parsed], manifest.partition_strategy)
    # decrypted before the ciphertext is judged, so that both are hashed in
    # one batch; the checks still refuse in the order of the gate
    tag_failure = None
    try:
        payload = ChaCha20Poly1305(key).decrypt(manifest.nonce, ciphertext, None)
    except InvalidTag as exc:
        payload, tag_failure = b"", exc
    ciphertext_digest, plaintext_digest = sha256_each([ciphertext, payload])
    if ciphertext_digest != manifest.ciphertext_digest:
        raise VerificationFailure("reassembled ciphertext digest mismatch")
    if tag_failure is not None:
        raise DecryptionError("authenticated decryption failed") from tag_failure
    if plaintext_digest != manifest.plaintext_digest:
        raise PlaintextDigestMismatch("recovered payload digest mismatch")
    report = AssemblyReport(
        # the report outlives the gate; it does not pin the parsed slices
        fragment_statuses=tuple(replace(s, fragment=None) for s in statuses),
        manifest_anchored=True,
        key_method=method,
        decryption_ok=True,
    )
    return payload, report, parsed


# ---------------------------------------------------------------------------
# Activation


def default_action(fragment: Fragment) -> str:
    return f"fragment {fragment.index} activated"


def execute(
    fragment_blobs: Sequence[bytes | Fragment],
    manifest: PayloadManifest,
    actions: Mapping[int, ActionFn] | None = None,
) -> list[ActivationEvent]:
    """Run each fragment's benign action under the class's execution rule.

    Takes fragment blobs or already parsed fragments. Returns the activation
    trace ordered by start tick. Ticks come from one monotonic logical clock,
    so ordering and overlap are checkable from the trace alone.
    """
    by_index, missing = _by_index(fragment_blobs, manifest.k)
    if missing:
        raise ExecutionRefused(f"fragments {missing} are missing", indices=missing)
    actions = actions or {}
    clock = itertools.count(1)
    if manifest.class_code is ClassCode.II:
        return _execute_parallel(by_index, manifest, actions, clock)
    return _execute_sequential(by_index, manifest, actions, clock)


def _run_action(frag: Fragment, actions: Mapping[int, ActionFn]) -> str | None:
    return actions.get(frag.index, default_action)(frag)


def _execute_sequential(
    by_index: Mapping[int, Fragment],
    manifest: PayloadManifest,
    actions: Mapping[int, ActionFn],
    clock,
) -> list[ActivationEvent]:
    # fragment 1's shape is empty exactly when the class references no slice at this k;
    # otherwise the re-checks compare slice digests, hashed here in one batch
    if dep_indices(1, manifest.k, manifest.class_code):
        cache_slice_digests(list(by_index.values()))
    events = []
    for index in range(1, manifest.k + 1):
        frag = by_index[index]
        unmet = _unmet_dependency(frag, manifest, by_index)
        if unmet is not None:
            raise DependencyCheckError(f"fragment {index} {unmet}", indices=[index])
        start = next(clock)
        note = _run_action(frag, actions)
        end = next(clock)
        events.append(ActivationEvent(index=index, start=start, end=end, note=note))
    return events


def _execute_parallel(
    by_index: Mapping[int, Fragment],
    manifest: PayloadManifest,
    actions: Mapping[int, ActionFn],
    clock,
) -> list[ActivationEvent]:
    # Every activation must be live at once: each thread marks its start,
    # meets the barrier, and only then may any run its action and finish.
    barrier = threading.Barrier(manifest.k)
    lock = threading.Lock()
    events: list[ActivationEvent] = []
    failures: list[Exception] = []

    def activate(frag: Fragment) -> None:
        try:
            with lock:
                start = next(clock)
            barrier.wait(timeout=30)
            note = _run_action(frag, actions)
            with lock:
                end = next(clock)
                events.append(ActivationEvent(index=frag.index, start=start, end=end, note=note))
        except Exception as exc:  # surface worker errors to the caller
            barrier.abort()
            with lock:
                failures.append(exc)

    threads = [
        threading.Thread(target=activate, args=(by_index[i],), name=f"fragment-{i}")
        for i in range(1, manifest.k + 1)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise ExecutionError(f"parallel activation failed: {failures[0]}")
    events.sort(key=lambda e: e.start)
    return events
