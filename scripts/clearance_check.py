#!/usr/bin/env python3
"""Check the clearance search against the sampled search it replaced.

    python3 scripts/clearance_check.py scenarios/scenario_b.cfg 2 3 4

The scenario must use the grid mesh generator.  For each resolution and
each level of the mesh it prints the number of simplices, how many of
their c_sigma values equal (by repr) those of the sampled halving search
(tests/oracles.py: sampled_c_sigma, which tests fiber samples in a few
directions with perturb.containment_ok), and the wall time of each
search, both on the same barycentric subdivision, built once per
resolution.  A search that finds a simplex without clearance prints the
DegenerateGeometryError instead.  It exits 1 if any value differs.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import sampled_c_sigma  # noqa: E402
from transtri import cli, perturb  # noqa: E402
from transtri.charts import TriangulationState  # noqa: E402
from transtri.errors import DegenerateGeometryError  # noqa: E402


def timed(search, *args):
    """search(*args) or the DegenerateGeometryError it raises, and its wall
    time in ms."""
    t0 = time.perf_counter()
    try:
        out = search(*args)
    except DegenerateGeometryError as exc:
        out = exc
    return out, 1e3 * (time.perf_counter() - t0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scenario", help="a scenario file with a grid mesh")
    ap.add_argument("resolutions", type=int, nargs="+")
    args = ap.parse_args()
    if min(args.resolutions) < 1:
        ap.error("every resolution must be at least 1")
    scenario = cli.load_scenario(args.scenario)
    if scenario.mesh_spec.get("generator") != "grid":
        sys.exit(f"{args.scenario}: the mesh is not a grid, so it has no resolution")
    differ = False
    for res in args.resolutions:
        scenario.mesh_spec["resolution"] = res
        cplx, real, _ = cli._build_inputs(scenario)
        state, config = TriangulationState(cplx, real), scenario.config
        sd = perturb.subdivision_data(state)
        for level in range(state.ambient_dim):
            simplices = cplx.by_dim(level)
            got, ms = timed(perturb.estimate_c_sigma, state, simplices, config, sd)
            want, ms_sampled = timed(sampled_c_sigma, state, simplices, config, sd)
            if isinstance(got, list) and isinstance(want, list):
                equal = sum(repr(a) == repr(b) for a, b in zip(got, want))
                result = f"{equal} equal"
                differ |= equal < len(simplices)
            else:
                result = f"exact: {got!r}; sampled: {want!r}"
                differ |= repr(got) != repr(want)
            print(f"resolution {res} level {level}: {len(simplices)} simplices, {result}; "
                  f"{ms:.1f} ms exact, {ms_sampled:.1f} ms sampled", flush=True)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
