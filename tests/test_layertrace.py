"""The benchmark's layer tracer (perfbench/layertrace.py) still finds every
transtri function and method it wraps, so a refactor that renames or drops
a traced boundary fails here instead of in the minute-long smoke run."""

import importlib.util
from pathlib import Path

import transtri.cli  # noqa: F401  (imports every module the tracer wraps)

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def test_every_traced_boundary_exists():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
