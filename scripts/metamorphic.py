#!/usr/bin/env python3
"""Metamorphic checks of verify-only: a similarity or a vertex relabelling
of the input must leave the verdict and the records by class unchanged.

    python3 scripts/metamorphic.py        # about a minute

Prints verify-only's verdict and records by class (transverse/tangent/
skeleton-hit) of scenarios A and B scaled by s in {1e-4, 1e-2, 1e2, 1e4}
about the origin (tests/test_verify.py's scaling), and of the six shipped
scenarios under four vertex relabellings (tests/test_verify.py's
RELABELLINGS), each next to the s = 1 / identity case.  A line that
differs from its reference ends in "MISMATCH"; exits 1 on any mismatch.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_verify import (RELABELLINGS, VERIFY_SCENARIOS, _relabelled,  # noqa: E402
                         _scaled_scenario)
from transtri import cli  # noqa: E402
from transtri.charts import TriangulationState  # noqa: E402
from transtri.verify import verify_triangulation  # noqa: E402

SCALES = (1e-4, 1e-2, 1e2, 1e4)


def verify_only(cplx, real, h, config):
    """Verdict and records by class of verify-only, as "FAIL 108/8/4"."""
    report = verify_triangulation(TriangulationState(cplx, real), h, config)
    d = report.diagnostics
    return (f"{'PASS' if report.passed else 'FAIL'} "
            f"{d['n_transverse']}/{d['n_tangent']}/{d['n_skeleton_hits']}")


def main():
    mismatches = 0

    def show(label, got, want):
        nonlocal mismatches
        bad = got != want
        mismatches += bad
        print(f"{label}: {got}" + ("  MISMATCH" if bad else ""), flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("scenario_a", "scenario_b"):
            want = None
            for s in (1.0,) + SCALES:
                scenario = _scaled_scenario(Path(tmp), name, s)
                got = verify_only(*cli._build_inputs(scenario), scenario.config)
                want = want or got
                show(f"{name} scale {s:g}", got, want)
    for name in VERIFY_SCENARIOS:
        scenario = cli.load_scenario(str(ROOT / "scenarios" / f"{name}.cfg"))
        cplx, real, h = cli._build_inputs(scenario)
        want = verify_only(cplx, real, h, scenario.config)
        show(f"{name} labels identity", want, want)
        for relabel in sorted(RELABELLINGS):
            perm = RELABELLINGS[relabel](len(real.vertex_ids))
            show(f"{name} labels {relabel}",
                 verify_only(*_relabelled(cplx, real, perm), h, scenario.config), want)
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
