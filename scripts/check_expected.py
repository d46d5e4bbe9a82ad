#!/usr/bin/env python3
"""Check every entry of perfbench/expected.json: `run` of scenario_a and
scenario_b at seeds 1-10 and `verify-only` of the six shipped scenarios.

Each run must match its recorded exit status, verdict, records by class
and the sha256 of chain_metadata.txt.  Prints one line per mismatch and
"N/N match"; exits 1 on any mismatch.  Takes about 12 s on 2 vCPUs.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from transtri.cli import load_scenario, run, verify_only  # noqa: E402

RECORDS = re.compile(r"records: \d+ \(transverse (\d+), tangent (\d+), skeleton-hit (\d+)\)")


def expected_cases():
    """(kind, scenario name, seed or None, pinned entry) of every case, in
    file order, runs by ascending seed."""
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)
    cases = []
    for name, entry in expected["run"].items():
        for seed, pinned in sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])):
            cases.append(("run", name, int(seed), dict(entry, **pinned)))
    for name, entry in expected["verify"].items():
        cases.append(("verify", name, None, entry))
    return cases


def case_label(kind, name, seed):
    return f"{kind} {name}" + (f" seed {seed}" if seed is not None else "")


def run_case(kind, name, seed, out_dir):
    """Run one case quietly, writing its artifacts to out_dir; returns the
    exit status."""
    scenario = load_scenario(os.path.join(ROOT, "scenarios", f"{name}.cfg"))
    with contextlib.redirect_stdout(io.StringIO()):
        if kind == "run":
            return run(scenario, seed=seed, out_dir=out_dir)
        return verify_only(scenario, out_dir=out_dir)


def observed(kind, name, seed, out_dir):
    """(exit, verdict, records by class, metadata sha256) of one run."""
    code = run_case(kind, name, seed, out_dir)
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        summary = fh.read()
    with open(os.path.join(out_dir, "chain_metadata.txt"), "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    counts = [int(c) for c in RECORDS.search(summary).groups()]
    return {"exit": code, "result": summary.split("\n", 1)[0].split(": ", 1)[1],
            "records": dict(zip(("transverse", "tangent", "skeleton-hit"), counts)),
            "metadata_sha256": sha}


def main():
    cases = expected_cases()
    matched = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (kind, name, seed, exp) in enumerate(cases):
            got = observed(kind, name, seed, os.path.join(tmp, str(i)))
            wrong = [key for key in ("exit", "result", "records", "metadata_sha256")
                     if got[key] != exp[key]]
            for key in wrong:
                print(f"MISMATCH {case_label(kind, name, seed)}: {key} {got[key]!r}, "
                      f"expected {exp[key]!r}")
            matched += not wrong
    print(f"{matched}/{len(cases)} match")
    return 0 if matched == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
