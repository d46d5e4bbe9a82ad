"""What the benchmark (perfbench/) relies on still holds, so a change that
breaks it fails here instead of in the minute-long smoke run:

* its layer tracer still finds every transtri function and method it
  wraps, so no traced boundary was renamed or dropped;
* scenario A at seed 1 still gives the chain metadata and records that
  its cross-commit gate, perfbench/expected.json, pins, and `run` of
  scenario B at seed 1 the exit status, verdict, records by class and
  chain metadata that the same file pins;
* verify-only of every shipped scenario still gives the exit status,
  verdict, records by class and chain metadata that the same file pins.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

import transtri.cli  # noqa: F401  (imports every module the tracer wraps)
from transtri.charts import dump_chain_metadata
from transtri.cli import load_scenario, run, verify_only

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"
RECORDS = re.compile(r"records: \d+ \(transverse (\d+), tangent (\d+), skeleton-hit (\d+)\)")


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


def _gate_outcome(code, out_dir):
    """What the cross-commit gate pins of a command's exit status and the
    artifacts it wrote to out_dir."""
    summary = (out_dir / "summary.txt").read_text()
    counts = [int(c) for c in RECORDS.search(summary).groups()]
    return {"exit": code, "result": summary.split("\n", 1)[0].split(": ", 1)[1],
            "records": dict(zip(("transverse", "tangent", "skeleton-hit"), counts)),
            "metadata_sha256": hashlib.sha256(
                (out_dir / "chain_metadata.txt").read_bytes()).hexdigest()}


def test_scenario_b_run_matches_the_cross_commit_gate(tmp_path, capsys):
    with open(PERFBENCH / "expected.json") as fh:
        expected = json.load(fh)["run"]["scenario_b"]
    code = run(load_scenario(str(ROOT / "scenarios" / "scenario_b.cfg")), seed=1,
               out_dir=str(tmp_path))
    assert _gate_outcome(code, tmp_path) == {"exit": expected["exit"],
                                             "result": expected["result"],
                                             **expected["seeds"]["1"]}


def _expected_verify():
    with open(PERFBENCH / "expected.json") as fh:
        return json.load(fh)["verify"]


@pytest.mark.parametrize("name", sorted(_expected_verify()))
def test_verify_only_matches_the_cross_commit_gate(tmp_path, capsys, name):
    code = verify_only(load_scenario(str(ROOT / "scenarios" / f"{name}.cfg")),
                       out_dir=str(tmp_path))
    assert _gate_outcome(code, tmp_path) == _expected_verify()[name]
