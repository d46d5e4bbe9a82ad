#!/usr/bin/env python3
"""Print the sha256 of every artifact of the 26 cases of
perfbench/expected.json, one "<case> <file> <sha256>" line each.

The artifacts are report.csv, summary.txt (without its elapsed-seconds
line, the only timing in it), mesh.svg, mesh.obj, curve_samples.csv and
chain_metadata.txt, whichever a case writes.  Two checkouts produce the
same artifacts exactly when their outputs are identical:

    python3 scripts/artifact_digests.py > new.txt
    diff old.txt new.txt

Runs every case once, which takes about 12 s on 2 vCPUs.
"""

import hashlib
import os
import sys
import tempfile

from check_expected import case_label, expected_cases, run_case

ARTIFACTS = ("report.csv", "summary.txt", "mesh.svg", "mesh.obj", "curve_samples.csv",
             "chain_metadata.txt")


def digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"elapsed-seconds:"))
    return hashlib.sha256(data).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for i, (kind, name, seed, _) in enumerate(expected_cases()):
            out_dir = os.path.join(tmp, str(i))
            code = run_case(kind, name, seed, out_dir)
            label = case_label(kind, name, seed).replace(" ", "_")
            print(f"{label} exit {code}")
            for art in ARTIFACTS:
                path = os.path.join(out_dir, art)
                if os.path.exists(path):
                    print(f"{label} {art} {digest(path)}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
