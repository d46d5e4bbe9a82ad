#!/usr/bin/env python3
"""Check every entry of perfbench/expected.json: `run` of scenario_a and
scenario_b at seeds 1-10 and `verify-only` of the six shipped scenarios.

Each run must match its recorded exit status, verdict, records by class
and the sha256 of chain_metadata.txt.  Prints one line per mismatch and
"N/N match"; exits 1 on any mismatch.  Takes about two minutes.
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


def observed(kind, name, seed, out_dir):
    """(exit, verdict, records by class, metadata sha256) of one run."""
    scenario = load_scenario(os.path.join(ROOT, "scenarios", f"{name}.cfg"))
    with contextlib.redirect_stdout(io.StringIO()):
        if kind == "run":
            code = run(scenario, seed=seed, out_dir=out_dir)
        else:
            code = verify_only(scenario, out_dir=out_dir)
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        summary = fh.read()
    with open(os.path.join(out_dir, "chain_metadata.txt"), "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    counts = [int(c) for c in RECORDS.search(summary).groups()]
    return {"exit": code, "result": summary.split("\n", 1)[0].split(": ", 1)[1],
            "records": dict(zip(("transverse", "tangent", "skeleton-hit"), counts)),
            "metadata_sha256": sha}


def main():
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)
    cases = []
    for name, entry in expected["run"].items():
        for seed, pinned in sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])):
            cases.append(("run", name, int(seed), dict(entry, **pinned)))
    for name, entry in expected["verify"].items():
        cases.append(("verify", name, None, entry))
    matched = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (kind, name, seed, exp) in enumerate(cases):
            got = observed(kind, name, seed, os.path.join(tmp, str(i)))
            wrong = [key for key in ("exit", "result", "records", "metadata_sha256")
                     if got[key] != exp[key]]
            label = f"{kind} {name}" + (f" seed {seed}" if seed is not None else "")
            for key in wrong:
                print(f"MISMATCH {label}: {key} {got[key]!r}, expected {exp[key]!r}")
            matched += not wrong
    print(f"{matched}/{len(cases)} match")
    return 0 if matched == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
