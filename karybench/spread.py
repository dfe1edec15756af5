#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 karybench/spread.py --workload wide --seeds 1-10 [--trace 0|1] [--out FILE]

For every metric it prints the median over the seeds, and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json. The full
per-seed results are written as JSON to --out (default
karybench/results/<workload>-trace<T>.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    out = args.out or HERE / "results" / f"{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"| {args.workload} metric | unit | median | IQR/median | bound |")
    print("|---|---|---|---|---|")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = "-"
        if len(values) > 1 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        print(f"| {name} | {first['unit']} | {median:.6g} | {spread} | "
              f"{bounds.get(name, '-')} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
