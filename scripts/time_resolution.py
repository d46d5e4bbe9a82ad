#!/usr/bin/env python3
"""Time `run` of a scenario with only its grid resolution changed.

    python3 scripts/time_resolution.py scenarios/scenario_b.cfg 4 --runs 3

The scenario must use the grid mesh generator.  Each run goes through
cli.run in this process, with its artifacts in a temporary directory,
and prints the verdict, the records by class (transverse/tangent/
skeleton-hit) as in "PASS 167/0/0", its wall time and, next to it, the
wall time of its barycentric subdivision set-up (perturb.subdivision_data,
timed by a wrapper installed from here).  A run whose pipeline aborts
prints ABORT, after cli.run's own message on stderr.
"""

import argparse
import contextlib
import io
import re
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from transtri import cli, perturb  # noqa: E402

RECORDS = re.compile(r"records: \d+ \(transverse (\d+), tangent (\d+), skeleton-hit (\d+)\)")


def timed(fn, spent):
    """fn, adding the wall time of each call to spent[0]."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
    return wrapper


def time_run(scenario, seed):
    """Verdict and records by class of one run, its wall time in s and that
    of its subdivision_data calls."""
    spent, plain = [0.0], perturb.subdivision_data
    perturb.subdivision_data = timed(plain, spent)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(scenario, seed=seed, out_dir=tmp)
            wall = time.perf_counter() - t0
            summary = Path(tmp) / "summary.txt"
            text = summary.read_text() if summary.exists() else None
    finally:
        perturb.subdivision_data = plain
    if text is None:
        return "ABORT", wall, spent[0]
    verdict = re.search(r"result: (\w+)", text).group(1)
    return f"{verdict} {'/'.join(RECORDS.search(text).groups())}", wall, spent[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scenario", help="a scenario file with a grid mesh")
    ap.add_argument("resolution", type=int)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=None, help="the scenario's seed by default")
    args = ap.parse_args()
    if args.resolution < 1:
        ap.error("the resolution must be at least 1")
    scenario = cli.load_scenario(args.scenario)
    if scenario.mesh_spec.get("generator") != "grid":
        sys.exit(f"{args.scenario}: the mesh is not a grid, so it has no resolution")
    scenario.mesh_spec["resolution"] = args.resolution
    for i in range(args.runs):
        result, wall, setup = time_run(scenario, args.seed)
        print(f"run {i + 1}: {result} in {wall:.2f} s (subdivision_data {setup:.3f} s)",
              flush=True)


if __name__ == "__main__":
    main()
