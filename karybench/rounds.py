"""One round of a workload, driven through karychain's library or its CLI.

A round: the producer turns the round's payloads into fragments and
manifests, every digest is anchored in one mined block, the consumer gate
opens every payload, and it refuses four tampered sets of one payload. Only
the four stages are timed (and traced); the output checks that follow each
round use checks.py and run outside them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

import checks
from checks import require
from karychain import cli, fragments, workflow
from karychain.fragments import ClassCode, KeyScheme, PartitionStrategy, PayloadManifest
from karychain.ledger import Ledger
from workloads import T0, TAMPERED_SETS, Spec, jobs, tamper_rng

MANIFEST = "manifest.kmanifest.json"
PROBE_LOOPS = 20_000
PROBE_REFERENCE_S = 0.00075  # the probe on an uncontended core of the 2-vCPU build host


def probe() -> float:
    """Median of three runs of a fixed pure-Python loop: how fast the host interprets now."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i & 7
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


@dataclass
class State:
    """A workload's workspace: the chain file, and for the library its producer."""

    workspace: Path
    height: int
    ledger: Ledger | None = None

    @property
    def chain(self) -> Path:
        return self.workspace / "ledger.jsonl"


@dataclass
class Stages:
    """Times each stage call; a tracer counts only inside them.

    A call is labelled "<stage>" or "<stage>:<kind>"; every round makes the
    same calls, so each label's samples are alike and their median times the
    number of such calls per round gives the stage's typical round time.

    With `reference`, each call is preceded by a probe, and its time is scaled
    by PROBE_REFERENCE_S / probe: seconds at the reference interpreter speed.
    The host switches every few seconds into a contended state that slows
    interpreted code ~1.5x; this keeps that out of workloads bound by it.
    """

    tracer: object = None
    reference: bool = False
    samples: dict = field(default_factory=lambda: defaultdict(list))
    opened: dict = field(default_factory=lambda: defaultdict(int))

    @contextlib.contextmanager
    def __call__(self, label: str, join: bool = False):
        """Time one call; with join, add it to the label's last sample (a batch)."""
        tracer = self.tracer
        scale = PROBE_REFERENCE_S / probe() if self.reference else 1.0
        if tracer is not None:
            before = tracer.snapshot() if label == "open" else None
            tracer.on = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - t0) * scale
            if join:
                self.samples[label][-1] += elapsed
            else:
                self.samples[label].append(elapsed)
            if tracer is not None:
                tracer.on = False
                if before is not None:
                    after = tracer.snapshot()
                    for key, span, pos in (("parse_calls", "fragments.parse", 0),
                                           ("sha256_bytes", "fragments.sha256", 1)):
                        self.opened[key] += after[span][pos] - before[span][pos]

    def per_round(self, stage: str, rounds: int) -> float:
        return sum(statistics.median(times) * len(times) / rounds
                   for label, times in self.samples.items()
                   if label.split(":")[0] == stage)

    def total(self) -> float:
        return sum(sum(times) for times in self.samples.values())


def kary(workspace: Path, *args: str) -> int:
    """Run one `kary` command in this process; returns its exit code."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            cli.main.main(args=["--workspace", str(workspace), *args], prog_name="kary",
                          standalone_mode=True)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return 0


def open_state(spec: Spec, workspace: Path) -> State:
    """Open the starting ledger (library) or workspace (CLI) and audit it."""
    if spec.cli:
        require(kary(workspace, "ledger", "validate") == 0, "starting workspace audit")
        return State(workspace, spec.chain_blocks)
    ledger = Ledger(path=workspace / "ledger.jsonl", difficulty=spec.difficulty)
    require(ledger.validate_chain(), "starting chain audit")
    return State(workspace, spec.chain_blocks, ledger)


def warm_up(spec: Spec, scratch: Path) -> None:
    """One tiny produce/anchor/open cycle, so first-call costs land in set-up."""
    payload = random.Random(0).randbytes(1024)
    if spec.cli:
        scratch.mkdir(parents=True)
        (scratch / "p.bin").write_bytes(payload)
        ws = scratch / "ws"
        require(kary(ws, "--seed", "1", "split", str(scratch / "p.bin"), "-k", "4") == 0,
                "warm-up split")
        files = [str(ws / "fragments" / MANIFEST)] + [
            str(ws / "fragments" / f"frag_{i}.kary") for i in range(1, 5)]
        require(kary(ws, "anchor", *files) == 0, "warm-up anchor")
        require(kary(ws, "--difficulty", "0", "mine") == 0, "warm-up mine")
        require(kary(ws, "run", *files) == 0, "warm-up run")
        shutil.rmtree(scratch)
        return
    manifest, blobs = workflow.produce(
        payload, 4, 3, ClassCode.I_A, KeyScheme.SHAMIR, PartitionStrategy.INTERLEAVE,
        rng=random.Random(1))
    ledger = Ledger(difficulty=0)
    for digest in [manifest.digest(), *map(fragments.sha256, blobs)]:
        ledger.submit_anchor(digest)
    _, receipts = ledger.mine_block(now=T0)
    got, _ = workflow.assemble(blobs, manifest, {r.target_digest: r for r in receipts}, ledger)
    workflow.execute(blobs, manifest)
    require(got == payload, "warm-up payload")


def run_round(spec: Spec, seed: int, r: int, state: State, stage: Stages) -> int:
    """Run and check round r; returns the proof-of-work attempts of its block."""
    if spec.cli:
        return _cli_round(spec, seed, r, state, stage)
    return _library_round(spec, seed, r, state, stage)


def _flip(data: bytes, at: int, bit: int) -> bytes:
    out = bytearray(data)
    out[at] ^= 1 << bit
    return bytes(out)


def _changed_manifest(manifest_bytes: bytes) -> bytes:
    obj = json.loads(manifest_bytes)
    obj["partition_seed"] += 1
    return checks.canonical(obj).encode("ascii")


# ---------------------------------------------------------------------------
# Library rounds (bulk, wide)


def _library_round(spec: Spec, seed: int, r: int, state: State, stage: Stages) -> int:
    round_jobs = jobs(spec, seed, r)
    strategy = PartitionStrategy(spec.strategy)
    made = []
    with stage("produce"):
        for job in round_jobs:
            manifest, blobs = workflow.produce(
                job.payload, spec.k, job.threshold, ClassCode[job.cls],
                KeyScheme(job.scheme), strategy, rng=random.Random(job.key_seed))
            made.append((manifest, manifest.canonical_bytes(), blobs))

    state.height += 1
    with stage("anchor"):
        digests = []
        for manifest, _, blobs in made:
            digests.append(manifest.digest())
            digests.extend(fragments.sha256(blob) for blob in blobs)
        for digest in digests:
            state.ledger.submit_anchor(digest)
        _, receipt_list = state.ledger.mine_block(now=T0 + state.height)
        receipts = {rc.target_digest: rc for rc in receipt_list}

    opened = []
    with stage("open"):
        consumer = Ledger(path=state.chain)
        for _, manifest_bytes, blobs in made:
            manifest = PayloadManifest.from_canonical_bytes(manifest_bytes)
            payload, _ = workflow.assemble(blobs, manifest, receipts, consumer)
            opened.append((payload, workflow.execute(blobs, manifest)))
    stage.opened["fragments"] += sum(len(blobs) for _, _, blobs in made)
    stage.opened["payload_bytes"] += sum(len(job.payload) for job in round_jobs)

    # Tampered copies of one payload's set, built before the refusals are timed.
    rng = tamper_rng(seed, r)
    manifest, manifest_bytes, blobs = made[r % len(made)]
    i = rng.randrange(spec.k)
    frag = checks.read_fragment(blobs[i])
    flipped = list(blobs)
    flipped[i] = _flip(blobs[i], frag["slice_at"] + rng.randrange(len(frag["slice"])),
                       rng.randrange(8))
    missing = blobs[:i] + blobs[i + 1:]
    target = fragments.sha256(blobs[i])
    sibling, side = receipts[target].merkle_path[0]
    bad_receipt = dataclasses.replace(
        receipts[target],
        merkle_path=((_flip(sibling, rng.randrange(32), rng.randrange(8)), side),
                     *receipts[target].merkle_path[1:]))
    tampered = [
        (flipped, manifest_bytes, receipts),
        (missing, manifest_bytes, receipts),
        (blobs, _changed_manifest(manifest_bytes), receipts),
        (blobs, manifest_bytes, {**receipts, target: bad_receipt}),
    ]
    refused = []
    for name, (set_blobs, set_manifest, set_receipts) in zip(TAMPERED_SETS, tampered):
        with stage(f"refuse:{name}"):
            try:
                workflow.assemble(set_blobs, PayloadManifest.from_canonical_bytes(set_manifest),
                                  set_receipts, consumer)
            except workflow.AssemblyError as exc:
                refused.append(type(exc))
            else:
                refused.append(None)

    # Output checks.
    require(refused == [workflow.VerificationFailure] * len(tampered),
            f"tampered sets refused as {refused}")
    again, _ = workflow.assemble(blobs, manifest, receipts, consumer)
    require(again == round_jobs[r % len(made)].payload, "untampered set accepted after refusals")
    for job, (m, m_bytes, m_blobs), (payload, events) in zip(round_jobs, made, opened):
        require(payload == job.payload, "recovered payload")
        manifest_obj = json.loads(m_bytes)
        frags = checks.check_fragment_set(m_blobs, manifest_obj, job.payload, job.cls)
        checks.check_trace([e.to_json_dict() for e in events], spec.k, job.cls)
        if job.scheme == "SHAMIR":
            _check_keys(m, m_blobs, frags, manifest_obj, job, random.Random(f"{seed}/{r}"))
    blocks = checks.read_chain(state.chain)
    return checks.check_block_round(
        blocks, state.height, spec.difficulty, T0 + state.height, digests,
        {d: rc.to_json_dict() for d, rc in receipts.items()})


def _check_keys(manifest, blobs, frags, manifest_obj, job, rng) -> None:
    """Lagrange and Neville agree, on all shares and on a threshold subset,
    and the key decrypts the independently reassembled ciphertext."""
    subset = sorted(rng.sample(range(len(blobs)), job.threshold))
    keys = {
        workflow.reconstruct_key(chosen, manifest, method)
        for chosen in (blobs, [blobs[i] for i in subset])
        for method in (workflow.LAGRANGE, workflow.NEVILLE)
    }
    require(len(keys) == 1, "Lagrange and Neville keys agree")
    ciphertext = checks.unpartition([f["slice"] for f in frags], manifest_obj["partition_strategy"])
    plain = ChaCha20Poly1305(keys.pop()).decrypt(bytes.fromhex(manifest_obj["nonce"]),
                                                 ciphertext, None)
    require(plain == job.payload, "reconstructed key decrypts the payload")


# ---------------------------------------------------------------------------
# CLI rounds (notary)


def _cli_round(spec: Spec, seed: int, r: int, state: State, stage: Stages) -> int:
    # Splits overwrite ws/fragments, as repeated `kary split` in one workspace
    # does; each set is copied out afterwards. Payload files are rewritten in
    # place, so no timed call waits on a new directory's metadata.
    ws = state.workspace
    payload_dir = ws.parent / "payloads"
    payload_dir.mkdir(exist_ok=True)
    round_dir = ws.parent / f"round-{r}"
    round_dir.mkdir()
    round_jobs = jobs(spec, seed, r)
    sets = []
    for j, job in enumerate(round_jobs):
        payload_path = payload_dir / f"p{j}.bin"
        payload_path.write_bytes(job.payload)
        with stage("produce", join=j % len(spec.mix) > 0):
            code = kary(ws, "--seed", str(job.key_seed), "split", str(payload_path),
                        "-k", str(spec.k), "-t", str(job.threshold), "--class-code", job.cls,
                        "--scheme", job.scheme, "--strategy", spec.strategy)
        require(code == 0, f"kary split exit {code}")
        out = round_dir / f"p{j}"
        shutil.copytree(ws / "fragments", out)
        sets.append([str(out / MANIFEST)] + [str(out / f"frag_{i}.kary")
                                             for i in range(1, spec.k + 1)])

    state.height += 1
    os.environ["KARY_TIMESTAMP"] = str(T0 + state.height)
    with stage("anchor"):
        anchor_code = kary(ws, "anchor", *[p for files in sets for p in files])
        mine_code = kary(ws, "--difficulty", str(spec.difficulty), "mine")
    require((anchor_code, mine_code) == (0, 0), f"kary anchor/mine exit {anchor_code}/{mine_code}")

    for j, (job, files) in enumerate(zip(round_jobs, sets)):
        with stage("open", join=j % len(spec.mix) > 0):
            code = kary(ws, "run", *files)
        require(code == 0, f"kary run exit {code}")
        trace = json.loads((ws / "activation_trace.json").read_text())["activation_trace"]
        checks.check_trace(trace, spec.k, job.cls)
    stage.opened["fragments"] += spec.k * len(sets)
    stage.opened["payload_bytes"] += sum(len(job.payload) for job in round_jobs)

    rng = tamper_rng(seed, r)
    j = r % len(sets)
    files = sets[j]
    i = rng.randrange(spec.k)
    frag_path = Path(files[1 + i])
    blob = frag_path.read_bytes()
    frag = checks.read_fragment(blob)
    bad_dir = round_dir / "tampered"
    bad_dir.mkdir()
    bad_frag = bad_dir / frag_path.name
    bad_frag.write_bytes(_flip(blob, frag["slice_at"] + rng.randrange(len(frag["slice"])),
                               rng.randrange(8)))
    bad_manifest = bad_dir / MANIFEST
    bad_manifest.write_bytes(_changed_manifest(Path(files[0]).read_bytes()))
    receipt_path = ws / "receipts" / f"{checks.sha256(blob).hex()}.receipt.json"
    receipt_text = receipt_path.read_text()
    receipt = json.loads(receipt_text)
    sibling = bytearray.fromhex(receipt["merkle_path"][0]["sibling"])
    sibling[rng.randrange(32)] ^= 1 << rng.randrange(8)
    receipt["merkle_path"][0]["sibling"] = sibling.hex()

    flip, missing, changed, bad_path = (f"refuse:{name}" for name in TAMPERED_SETS)
    codes = []
    with stage(flip):
        codes.append(kary(ws, "verify", files[0], *files[1:1 + i], str(bad_frag),
                          *files[2 + i:]))
    with stage(missing):
        codes.append(kary(ws, "run", *files[:1 + i], *files[2 + i:]))
    with stage(changed):
        codes.append(kary(ws, "verify", str(bad_manifest), *files[1:]))
    receipt_path.write_text(checks.canonical(receipt))
    with stage(bad_path):
        codes.append(kary(ws, "run", *files))
    receipt_path.write_text(receipt_text)

    # Output checks.
    require(codes == [1, 1, 1, 1], f"tampered sets exited {codes}")
    recovered = round_dir / "recovered.bin"
    require(kary(ws, "assemble", *files, "--out", str(recovered)) == 0,
            "untampered set accepted after refusals")
    require(recovered.read_bytes() == round_jobs[j].payload, "recovered payload")
    digests, receipts = [], {}
    for job, paths in zip(round_jobs, sets):
        blobs = [Path(p).read_bytes() for p in paths]
        checks.check_fragment_set(blobs[1:], json.loads(blobs[0]), job.payload, job.cls)
        for data in blobs:
            digest = checks.sha256(data)
            digests.append(digest)
            receipts[digest] = json.loads(
                (ws / "receipts" / f"{digest.hex()}.receipt.json").read_text())
    blocks = checks.read_chain(state.chain)
    return checks.check_block_round(blocks, state.height, spec.difficulty,
                                    T0 + state.height, digests, receipts)
