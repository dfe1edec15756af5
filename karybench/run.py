#!/usr/bin/env python3
"""The karychain benchmark.

Usage, from the root of a source checkout:

    python3 karybench/run.py --workload bulk|wide|notary --seed N --seconds S --trace 0|1

With --trace 0 the workload repeats whole rounds for S seconds and prints
the end-to-end metrics. With --trace 1 it runs a fixed number of rounds three
times from the same starting state (untraced, traced, traced) and prints the
per-layer metrics of the first traced pass, its overhead over the untraced
pass, and fails if the exact counts of the two traced passes differ. The last
line of standard output is one JSON object; a summary goes to standard error.
See karybench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".karybench"
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, this one included

import checks  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def start_setup(spec, workspace: Path, scratch: Path):
    """Set-up from `import karychain` to the first round; returns (seconds, state)."""
    t0 = time.perf_counter()
    import rounds

    state = rounds.open_state(spec, workspace)
    rounds.warm_up(spec, scratch)
    return time.perf_counter() - t0, state


def probe_setup(spec, seed: int, workspace: Path) -> float:
    """Time set-up in a fresh interpreter that opens the same starting workspace."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", spec.name, "--seed", str(seed),
         "--probe-setup", str(workspace)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def theil_sen_at(points: list[tuple[int, float]], x: float) -> float:
    """Robust line through (attempts, seconds) points, evaluated at x.

    Slope is the median of pairwise slopes and the intercept the median
    residual. With a single distinct attempt count it is the median time.
    """
    slopes = [(t2 - t1) / (n2 - n1) for i, (n1, t1) in enumerate(points)
              for n2, t2 in points[i + 1:] if n2 != n1]
    slope = statistics.median(slopes) if slopes else 0.0
    return statistics.median(t - slope * n for n, t in points) + slope * x


class Runner:
    """Repeats whole rounds, counting operations and proof-of-work attempts."""

    def __init__(self, spec, seed: int):
        import rounds

        self.rounds = rounds
        self.spec = spec
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.attempts: list[int] = []

    def run(self, state, stages, *, count: int | None = None, seconds: float | None = None):
        """Run rounds until `count` are done or `seconds` have passed; True if all ran."""
        t_start = time.perf_counter()
        for r in itertools.count():
            self.attempted += self.spec.ops_per_round
            try:
                attempts = self.rounds.run_round(self.spec, self.seed, r, state, stages)
            except checks.CheckError:
                traceback.print_exc()
                self.correct = False
                return False
            except Exception:
                traceback.print_exc()
                self.failed += self.spec.ops_per_round
                return False
            self.attempts.append(attempts)
            if count is not None and r + 1 >= count:
                return True
            if seconds is not None and time.perf_counter() - t_start >= seconds:
                return True

    def end_to_end(self, stages, setup: list[float]) -> dict:
        n = len(self.attempts)
        anchor = list(zip(self.attempts, stages.samples["anchor"]))
        return {
            "setup_s": (statistics.median(setup), "s"),
            "produce_s": (stages.per_round("produce", n), "s"),
            "anchor_s": (theil_sen_at(anchor, 2 ** self.spec.difficulty), "s"),
            "open_s": (stages.per_round("open", n), "s"),
            "refuse_s": (stages.per_round("refuse", n), "s"),
            "peak_rss_MiB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }


def fresh_copy(start: Path, dest: Path) -> Path:
    shutil.copytree(start, dest)
    return dest


def run_untraced(spec, seed: int, seconds: float, work: Path, start: Path,
                 probes: int = SETUP_SAMPLES - 1) -> tuple[Runner, dict]:
    """Rounds for `seconds`; end-to-end metrics, set-up from `probes` + 1 processes."""
    setup = [probe_setup(spec, seed, start) for _ in range(probes)]
    own, state = start_setup(spec, fresh_copy(start, work / "pass0" / "ws"), work / "warm")
    setup.append(own)
    runner = Runner(spec, seed)
    import rounds

    stages = rounds.Stages(reference=spec.interpreted)
    runner.run(state, stages, seconds=seconds)
    metrics = runner.end_to_end(stages, setup) if runner.attempts else {}
    print(f"{spec.name}: {len(runner.attempts)} rounds, setup samples "
          f"{[round(x, 4) for x in setup]}, PoW attempts {runner.attempts}", file=sys.stderr)
    for label, times in sorted(stages.samples.items()):
        print(f"  {label}: {len(times)} samples, median {statistics.median(times):.4f} s",
              file=sys.stderr)
    return runner, metrics


def run_traced(spec, seed: int, work: Path, start: Path) -> tuple[Runner, dict]:
    """An untraced and two traced passes of spec.trace_rounds; per-layer metrics."""
    import rounds
    from tracer import EXACT_COUNTS, Tracer, layer_metrics

    _, state = start_setup(spec, fresh_copy(start, work / "pass0" / "ws"), work / "warm")
    runner = Runner(spec, seed)
    base = rounds.Stages()
    passes = []
    if runner.run(state, base, count=spec.trace_rounds):
        for n in (1, 2):
            state = rounds.open_state(spec, fresh_copy(start, work / f"pass{n}" / "ws"))
            tracer = Tracer()
            stages = rounds.Stages(tracer)
            tracer.install()
            try:
                ok = runner.run(state, stages, count=spec.trace_rounds)
            finally:
                tracer.uninstall()
            if not ok:
                break
            passes.append((layer_metrics(tracer, spec.trace_rounds, stages.opened),
                           stages.total()))
    if len(passes) < 2:
        return runner, {}
    (first, traced), (second, _) = passes
    for name in EXACT_COUNTS:
        if first[name] != second[name]:
            print(f"{name} differs between traced passes: {first[name]} != {second[name]}",
                  file=sys.stderr)
            runner.correct = False
    metrics = dict(first)
    metrics["trace.overhead_pct"] = (100.0 * (traced / base.total() - 1.0), "%")
    return runner, metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "karychain" / "__init__.py").is_file():
        print(f"error: no karychain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = workloads.SPECS[args.workload]
    if args.probe_setup is not None:
        scratch = args.probe_setup.parent / f"warm-probe-{os.getpid()}"
        seconds, _ = start_setup(spec, args.probe_setup, scratch)
        print(seconds)
        return 0
    work = WORK / f"{spec.name}-{os.getpid()}"
    try:
        start = work / "start" / "ws"
        workloads.write_start(spec, args.seed, start)
        if args.trace:
            runner, metrics = run_traced(spec, args.seed, work, start)
        else:
            runner, metrics = run_untraced(spec, args.seed, args.seconds, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    if not metrics:
        print("error: the workload did not complete", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
