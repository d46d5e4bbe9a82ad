#!/usr/bin/env python3
"""Compare this checkout's end-to-end metrics with a parent checkout's over
alternating benchmark runs.

    python3 scripts/bench_pairs.py ../parent --workload scenario_a --pairs 10 --seconds 12

Each pair runs `perfbench/run.py --workload W --seconds S --trace 0` once in
PARENT_DIR and once in this checkout, the parent first in odd pairs and this
checkout first in even ones, so that a slow spell of the host falls on both
sides alike.  Only each run's result line (the JSON object it prints last)
is read.  For each end-to-end metric of BENCHMARK.json the script prints the
median of either side, the parent's quartiles and the pairs this checkout
won, a win being a value better than the parent's of the same pair in the
metric's direction.  A run with a failed operation is named, and the script
then exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seconds):
    """The result line of one `--trace 0` run in a checkout."""
    proc = subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"),
                           "--workload", workload, "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    failed = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seconds)
            if result["failed"] or not result["correct"]:
                failed.append(f"pair {pair} {side}: {result['failed']} of "
                              f"{result['attempted']} operations failed")
            runs[side].append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"pair {pair}: " + "  ".join(
            f"{name} {runs['parent'][-1].get(name, float('nan')):.4g} -> "
            f"{runs['change'][-1].get(name, float('nan')):.4g}" for name in metrics), flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s:")
    for name, better in metrics.items():
        if not all(name in r for side in runs.values() for r in side):
            print(f"  {name}: missing from some runs")
            continue
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(old, new))
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else old * 3
        print(f"  {name} ({better} is better): parent {statistics.median(old):.4f}"
              f" (quartiles {q1:.4f}-{q3:.4f}, IQR {q3 - q1:.4f}) -> change"
              f" {statistics.median(new):.4f}, change won {wins}/{len(old)}")
    for line in failed:
        print(f"FAILED: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
