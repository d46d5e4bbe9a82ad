#!/usr/bin/env python3
"""Run every workload listed in BENCHMARK.json once and write BENCH_<n>.json.

    python3 scripts/bench_trajectory.py 7            # about three minutes

Each workload runs as `perfbench/run.py --workload W --trace 0` for the
benchmark's run_seconds, so every file in the trajectory has the same run
length, and its result line (the JSON
object the run prints last) is kept as it is.  The file also records what
the numbers belong to, from the run's environment record: the commit and
whether src/ differed from it, the src/ sha256 and non-blank line count,
nproc, and the Python, numpy and BLAS versions.  Comparing two of these
files gives the trajectory of the end-to-end metrics across changes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / ".perfbench_out"
SEED = 1  # perfbench/run.py's default


def run_workload(name, seconds):
    """(result line, environment) of one `--trace 0` run of a workload."""
    proc = subprocess.run([sys.executable, str(RUN), "--workload", name, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    with open(OUT / f"{name}-seed{SEED}-trace0.json") as fh:
        environment = json.load(fh)["environment"]
    return result, environment


def src_dirty():
    proc = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True, check=False)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="writes BENCH_<n>.json at the repository root")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    results, env = {}, None
    for workload in bench["workloads"]:
        name = workload["name"]
        results[name], env = run_workload(name, seconds)
        print(f"{name}: {json.dumps(results[name]['metrics'])}", flush=True)
    record = {
        "commit": env["git_commit"],
        "src_differs_from_commit": src_dirty(),
        "src_sha256": env["src_sha256"],
        "src_nonblank_lines": env["src_nonblank_lines"],
        "nproc": env["nproc"],
        "python": env["python"],
        "numpy": env["numpy"],
        "blas": env["blas"],
        "seed": SEED,
        "seconds": seconds,
        "results": results,
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
