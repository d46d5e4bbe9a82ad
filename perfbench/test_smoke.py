"""Smoke test of the benchmark: one traced operation of every workload.

Not part of the tier-1 suite (pytest's testpaths is tests/); run it with
``python3 -m pytest -q perfbench``.  It takes about a minute.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes_every_check():
    res = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                         text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
