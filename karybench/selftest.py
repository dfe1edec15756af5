#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes seconds.

    python3 karybench/selftest.py

Runs every workload's rounds and output checks on small inputs, untraced and
traced, and asserts that they pass with no failed operation and report every
metric BENCHMARK.json names. Then shows that the independent checks reject
corrupted outputs, and that run.py exits non-zero without printing a result
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "bulk": dict(payload_bytes=64 << 10, k=4, threshold=4, difficulty=4, trace_rounds=2),
    "wide": dict(payload_bytes=4 << 10, k=32, threshold=16, difficulty=4, trace_rounds=2),
    "notary": dict(payloads=8, difficulty=4, chain_blocks=20, trace_rounds=2),
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads(work: Path) -> None:
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    for name, spec in workloads.SPECS.items():
        tiny = dataclasses.replace(spec, **TINY[name])
        start = work / name / "start" / "ws"
        workloads.write_start(tiny, 7, start)
        runner, metrics = run.run_untraced(tiny, 7, 0.5, work / name / "plain", start, probes=0)
        assert runner.correct and runner.failed == 0, name
        assert runner.attempted % tiny.ops_per_round == 0, name
        assert set(metrics) == end_to_end, (name, set(metrics) ^ end_to_end)
        assert all(value > 0 for value, _ in metrics.values()), (name, metrics)
        runner, metrics = run.run_traced(tiny, 7, work / name / "traced", start)
        assert runner.correct and runner.failed == 0, name
        assert set(metrics) == per_layer, (name, set(metrics) ^ per_layer)
        print(f"ok {name}: untraced and traced rounds pass their checks")


def anchored_payload(workspace: Path):
    """One I_A payload anchored at difficulty 4 in a file-backed ledger."""
    from karychain import Ledger, workflow
    from karychain.fragments import ClassCode, KeyScheme, PartitionStrategy, sha256

    payload = random.Random(3).randbytes(3000)
    manifest, blobs = workflow.produce(
        payload, 3, 2, ClassCode.I_A, KeyScheme.SHAMIR, PartitionStrategy.INTERLEAVE,
        rng=random.Random(4))
    workloads.write_start(dataclasses.replace(workloads.SPECS["bulk"], chain_blocks=0), 1,
                          workspace)
    ledger = Ledger(path=workspace / "ledger.jsonl", difficulty=4)
    for digest in [manifest.digest(), *map(sha256, blobs)]:
        ledger.submit_anchor(digest)
    _, mined = ledger.mine_block(now=workloads.T0 + 1)
    receipts = {rc.target_digest: rc.to_json_dict() for rc in mined}
    blocks = checks.read_chain(workspace / "ledger.jsonl")
    return payload, json.loads(manifest.canonical_bytes()), blobs, blocks, receipts


def test_checks_reject_corruption(work: Path) -> None:
    payload, manifest, blobs, blocks, receipts = anchored_payload(work / "corrupt")
    checks.check_fragment_set(blobs, manifest, payload, "I_A")
    checks.check_block(blocks[1], blocks[0], 1)
    checks.check_block_round(blocks, 1, 4, workloads.T0 + 1, list(receipts), receipts)
    checks.check_trace([{"index": i, "start": 2 * i - 1, "end": 2 * i} for i in (1, 2, 3)],
                       3, "I_A")

    frag = checks.read_fragment(blobs[1])
    bad_blobs = list(blobs)
    bad_blobs[1] = bytearray(blobs[1])
    bad_blobs[1][frag["slice_at"]] ^= 1
    bad_blobs[1] = bytes(bad_blobs[1])
    target = next(iter(receipts))
    bad_receipt = json.loads(json.dumps(receipts[target]))
    sibling = bytearray.fromhex(bad_receipt["merkle_path"][0]["sibling"])
    sibling[0] ^= 1
    bad_receipt["merkle_path"][0]["sibling"] = sibling.hex()
    cases = {
        "flipped slice": lambda: checks.check_fragment_set(bad_blobs, manifest, payload, "I_A"),
        "flipped receipt sibling": lambda: checks.check_receipt(
            bad_receipt, blocks[1], target),
        "broken block link": lambda: checks.check_block(
            {**blocks[1], "prev_hash": "00" * 32}, blocks[0], 1),
        "wrong merkle root": lambda: checks.check_block(
            {**blocks[1], "merkle_root": "11" * 32}, blocks[0], 1),
        "class I out of order": lambda: checks.check_trace(
            [{"index": i, "start": 2 * i - 1, "end": 2 * i} for i in (2, 1, 3)], 3, "I_A"),
        "class II without rendezvous": lambda: checks.check_trace(
            [{"index": 1, "start": 1, "end": 2}, {"index": 2, "start": 3, "end": 4}], 2, "II"),
    }
    for label, case in cases.items():
        try:
            case()
        except checks.CheckError:
            continue
        raise AssertionError(f"check accepted a {label}")
    print(f"ok checks reject: {', '.join(cases)}")


def test_bare_directory(work: Path) -> None:
    bare = work / "bare"
    (bare / "karybench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "karybench")
    proc = subprocess.run(
        [*BENCH["command"], "--workload", "bulk", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok run.py refuses to run without the karychain sources")


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        test_workloads(work)
        test_checks_reject_corruption(work)
        test_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
