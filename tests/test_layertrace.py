"""What the benchmark (perfbench/) relies on still holds, so a change that
breaks it fails here instead of in the minute-long smoke run:

* its layer tracer still finds every transtri function and method it
  wraps, so no traced boundary was renamed or dropped;
* scenario A at seed 1 still gives the chain metadata and records that
  its cross-commit gate, perfbench/expected.json, pins.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import transtri.cli  # noqa: F401  (imports every module the tracer wraps)
from transtri.charts import dump_chain_metadata

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


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


def test_scenario_a_matches_the_cross_commit_gate(scenario_a_run):
    with open(PERFBENCH / "expected.json") as fh:
        expected = json.load(fh)["run"]["scenario_a"]["seeds"]["1"]
    meta = dump_chain_metadata(scenario_a_run["state"]).encode()
    assert hashlib.sha256(meta).hexdigest() == expected["metadata_sha256"]
    d = scenario_a_run["report"].diagnostics
    records = {"transverse": d["n_transverse"], "tangent": d["n_tangent"],
               "skeleton-hit": d["n_skeleton_hits"]}
    assert records == expected["records"]
