#!/usr/bin/env python3
"""transtri benchmark: timed scenario runs, a correctness gate on every
operation, and a per-layer trace.

    python3 perfbench/run.py --workload scenario_b --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from the ``src/`` directory next
to ``perfbench/`` and nowhere else.  Workloads (see README.md for why each
was chosen):

- ``scenario_b``: one operation is ``cli.run`` of scenarios/scenario_b.cfg;
- ``scenario_a``: one operation is ``cli.run`` of scenarios/scenario_a.cfg;
- ``verify_unperturbed``: one operation is ``cli.verify_only`` of all six
  shipped scenarios.

``--seed`` is passed to ``cli.run`` as the pipeline seed (the same as
``transtri run --seed``); verify-only has no randomness.  Operations run one
at a time in this process, back to back, until the next one would likely
end past ``--seconds`` (but at least three untraced ones; with ``--trace 1``
at least one untraced and one traced).  Each is checked before it counts: exit
status, verdict, records by classification and the sha256 of
``chain_metadata.txt`` against expected.json, and byte-identical metadata
across the repeated operations of a run.

``--trace 0`` prints the end-to-end metrics: the median over operations of
each operation's wall and CPU time divided by the mean time of the passes
of a fixed reference loop run just before and just after it; set-up time
(median over fresh processes started between the operations, each divided
by the reference pass that follows it); and the peak RSS of a fresh
process that runs one operation.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics from the traced ones (medians over traced operations),
the kernel probes run on the final state afterwards, and the tracing
overhead (traced minus untraced median wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, every sample and the metadata hashes, goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` and the spans of a
traced run to ``.perfbench_out/<workload>-seed<seed>-spans.npz``; artifacts
of each operation go to a temporary directory under ``.perfbench_out`` that
is removed afterwards.  ``--smoke`` runs one traced operation of every
workload with every check on and exits 1 if any check fails.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# transtri is single-threaded; idle BLAS worker threads on a small shared
# machine only add noise.  This has to happen before numpy is first imported,
# and the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import layertrace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 9
# A median needs a few samples; scenario_b's 20-s operations would
# otherwise give one or two per run.
MIN_UNTRACED_OPS = 3
PROBE_POINTS = 200
GN_PROBE_REPEATS = 25

VERIFY_SCENARIOS = ["scenario_a", "scenario_b", "scenario_b_degenerate", "scenario_c",
                    "scenario_tangent", "scenario_disjoint"]
WORKLOADS = {
    "scenario_b": ("run", ["scenario_b"]),
    "scenario_a": ("run", ["scenario_a"]),
    "verify_unperturbed": ("verify", VERIFY_SCENARIOS),
}

END_TO_END = {"wall_per_ref": "ref", "cpu_per_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PROBE_METRICS = {
    "charts.apply_us.random": "us", "charts.apply_us.near_vertex": "us",
    "charts.apply_jac_us.random": "us", "charts.apply_jac_us.near_vertex": "us",
    "charts.invert_us.random": "us", "charts.invert_us.near_vertex": "us",
    "verify.gn_probe_us": "us", "simplicial.locate_probe_us": "us",
}
RUN_METRICS = {"trace.overhead_s": "s", "trace.overhead_ratio": "ratio", "failed_ratio": "ratio"}

_RECORDS = re.compile(r"^records: (\d+) \(transverse (\d+), tangent (\d+), skeleton-hit (\d+)\)$")


def import_transtri():
    """Import transtri from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "transtri" / "__init__.py").is_file():
        sys.exit(f"perfbench: no transtri package under {SRC}")
    sys.path.insert(0, str(SRC))
    import transtri
    import transtri.cli

    if Path(transtri.__file__).resolve().parent != (SRC / "transtri").resolve():
        sys.exit(f"perfbench: imported transtri from {transtri.__file__}, not {SRC}")
    return transtri


# ---------------------------------------------------------------------------
# environment record


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def _src_record():
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += sum(1 for ln in data.decode().splitlines() if ln.strip())
    return digest.hexdigest(), lines


def environment():
    src_sha, src_lines = _src_record()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": src_sha,
        "src_nonblank_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# operations and their correctness gate


class Workload:
    """The scenarios of one workload, parsed once, plus the checks' state."""

    def __init__(self, name, seed, transtri):
        self.kind, self.scenario_names = WORKLOADS[name]
        self.seed = seed
        self.cli = transtri.cli
        self.scenarios = [self.cli.load_scenario(str(SCENARIOS / f"{s}.cfg"))
                          for s in self.scenario_names]
        with open(BENCH_DIR / "expected.json") as fh:
            self.expected = json.load(fh)[self.kind]
        self.first_hash = {}

    def run_op(self, tmp):
        """Run one operation; returns (wall_s, cpu_s, [(scenario, exit, out_dir)])."""
        dirs = [os.path.join(tmp, s) for s in self.scenario_names]
        codes = []
        sink = io.StringIO()
        gc.collect()  # every operation starts from a collected heap
        with contextlib.redirect_stdout(sink):
            c0 = time.process_time()
            t0 = time.perf_counter()
            for scen, out_dir in zip(self.scenarios, dirs):
                if self.kind == "run":
                    codes.append(self.cli.run(scen, seed=self.seed, out_dir=out_dir))
                else:
                    codes.append(self.cli.verify_only(scen, out_dir=out_dir))
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        return wall, cpu, list(zip(self.scenario_names, codes, dirs))

    def check(self, outcomes):
        """Errors of one operation's outputs (empty when it is correct)."""
        errors = []
        for name, code, out_dir in outcomes:
            exp = self.expected[name]
            if self.kind == "run":
                exp = dict(exp, **exp["seeds"].get(str(self.seed), {}))
            if code != exp["exit"]:
                errors.append(f"{name}: exit {code}, expected {exp['exit']}")
            try:
                with open(os.path.join(out_dir, "summary.txt")) as fh:
                    summary = fh.read().splitlines()
                with open(os.path.join(out_dir, "chain_metadata.txt"), "rb") as fh:
                    meta_sha = hashlib.sha256(fh.read()).hexdigest()
            except OSError as exc:
                errors.append(f"{name}: missing artifact: {exc}")
                continue
            result = summary[0].split(": ", 1)[1] if summary else "?"
            if result != exp["result"]:
                errors.append(f"{name}: verdict {result}, expected {exp['result']}")
            match = next((m for m in map(_RECORDS.match, summary) if m), None)
            if match is None:
                errors.append(f"{name}: no records line in summary.txt")
            else:
                total, transverse, tangent, skeleton = (int(g) for g in match.groups())
                records = {"transverse": transverse, "tangent": tangent, "skeleton-hit": skeleton}
                if total != transverse + tangent + skeleton:
                    errors.append(f"{name}: record classes do not add up to {total}")
                if "records" in exp and records != exp["records"]:
                    errors.append(f"{name}: records {records}, expected {exp['records']}")
            if "metadata_sha256" in exp and meta_sha != exp["metadata_sha256"]:
                errors.append(f"{name}: chain_metadata.txt sha256 {meta_sha},"
                              f" expected {exp['metadata_sha256']}")
            first = self.first_hash.setdefault(name, meta_sha)
            if meta_sha != first:
                errors.append(f"{name}: chain_metadata.txt differs from the run's first"
                              f" operation ({meta_sha} vs {first})")
        return errors


# ---------------------------------------------------------------------------
# reference loop, set-up time, memory and kernel probes


def reference_loop():
    """One pass of a fixed loop that calls no transtri code; returns
    (wall_s, cpu_s).

    The host slows down and speeds up by a third for minutes at a time, so
    the end-to-end times are divided by this loop's, run in this thread
    before every untraced operation and after the last.  It mixes the kinds
    of work an operation does: interpreted arithmetic on a dict,
    small-matrix numpy calls, and building, sorting and indexing many small
    tuples.  The same loop run in a separate process, or a lighter one
    (0.1 s a pass), did not follow the drift.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    table = {}
    for i in range(600_000):
        x = (i * 2654435761) % 1000003
        table[x & 1023] = table.get(x & 1023, 0.0) + x * 1e-6
    rng = np.random.default_rng(0)
    a, v = rng.normal(size=(3, 3)), rng.normal(size=3)
    acc = 0.0
    for i in range(12_000):
        w = np.linalg.solve(a @ a.T + np.eye(3) * (1 + i % 5), v)
        acc += float(np.linalg.norm(w)) + float(np.dot(w, v))
    rows = sorted(((i * 2654435761) % 1000003, i, float(i)) for i in range(150_000))
    index = {r[0]: r for r in rows}
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if len(table) != 1024 or len(index) != len(rows) or not acc > 0.0:
        raise RuntimeError("reference loop: wrong result")
    return wall, cpu


def setup_seconds(workload):
    """Seconds from spawning a fresh interpreter to parsed scenarios, meshes
    and maps (import transtri included), as measured by setup_probe.py."""
    paths = [str(SCENARIOS / f"{s}.cfg") for s in workload.scenario_names]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    res = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *paths],
                         capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(res.stdout.strip().splitlines()[-1]) - t0


def peak_rss_probe(name, seed):
    """Peak RSS in MB of a fresh process that runs and checks one operation
    (the reference loop's tuples would otherwise set this process's peak);
    returns (mb, errors)."""
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                          "--seed", str(seed), "--rss-probe"],
                         capture_output=True, text=True, timeout=170, cwd=ROOT)
    if res.returncode != 0:
        return None, [f"peak RSS probe exited {res.returncode}: {res.stderr.strip()[-2000:]}"]
    return float(res.stdout.strip().splitlines()[-1]), []


def rss_probe(name, seed):
    """Child of peak_rss_probe: one checked operation, then print peak RSS."""
    wl = Workload(name, seed, import_transtri())
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="rss-", dir=OUT)
    try:
        errors = wl.check(wl.run_op(tmp)[2])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if errors:
        print("; ".join(errors), file=sys.stderr)
        return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


def _median_us(fn, args_list):
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def kernel_probes(transtri, state, h, config, report, rng):
    """µs per call of the hot kernels on a final state, tracing off.

    Chain kernels run at random interior points of random top simplices and
    at points within 1e-3 * mesh_scale of a random vertex; inverse probes
    start from the images of the same points.  Metrics whose entry point
    is gone are left out.
    """
    out = {}
    real = state.realization
    tops = state.complex.top_simplices()
    verts = state.complex.vertex_ids
    random_pts = []
    for _ in range(PROBE_POINTS):
        s = tops[int(rng.integers(len(tops)))]
        random_pts.append(rng.dirichlet(np.ones(len(s.vertices))) @ real.simplex_points(s))
    near_pts = []
    for _ in range(PROBE_POINTS):
        d = rng.normal(size=state.ambient_dim)
        r = 1e-3 * state.mesh_scale * rng.uniform(0.01, 1.0)
        near_pts.append(real.point(verts[int(rng.integers(len(verts)))]) + r * d / np.linalg.norm(d))
    for label, pts in (("random", random_pts), ("near_vertex", near_pts)):
        images = [(state.eval_eta(p),) for p in pts]
        args = [(p,) for p in pts]
        out[f"charts.apply_us.{label}"] = _median_us(state.eval_eta, args)
        out[f"charts.apply_jac_us.{label}"] = _median_us(state.eval_eta_with_jacobian, args)
        out[f"charts.invert_us.{label}"] = _median_us(state.eval_eta_inverse, images)

    verify, perturb = transtri.verify, transtri.perturb
    if hasattr(verify, "_pair_seeds") and hasattr(verify, "_gauss_newton"):
        candidates = [r.simplex for r in report.records] + list(
            sorted(state.complex.simplices, key=transtri.simplicial.simplex_sort_key))
        for s in candidates:
            patch = verify.simplex_patch(state, s)
            ys, ts, pairs, _ = verify._pair_seeds(h, patch, config, state.mesh_scale)
            if pairs:
                iy, it = pairs[0]
                gn_args = (h, patch, ys[iy], ts[it], config, state.mesh_scale)
                out["verify.gn_probe_us"] = _median_us(verify._gauss_newton,
                                                       [gn_args] * GN_PROBE_REPEATS)
                break
    sd = perturb.subdivision_data(state)
    if hasattr(sd, "carrier"):
        out["simplicial.locate_probe_us"] = _median_us(sd.carrier, [(p,) for p in random_pts])
    return out


# ---------------------------------------------------------------------------
# measurement


def traced_metrics(transtri, tracer, samples, probe_target, seed):
    """Per-layer metrics (medians over the traced operations, kernel probes
    on the last traced final state, the tracing overhead) and ratio bases."""
    per_op = layertrace.per_op_metrics(tracer)
    ops = [s["op"] for s in samples["traced"]]
    metrics = {key: statistics.median(per_op[op][0][key] for op in ops)
               for key in sorted({k for op in ops for k in per_op[op][0]})}
    if probe_target is not None:
        args, kwargs, report = probe_target
        config = args[2] if len(args) > 2 else kwargs.get("config")
        metrics.update(kernel_probes(transtri, args[0], args[1], config, report,
                                     np.random.default_rng(seed)))
    if samples["untraced"] and samples["traced"]:
        plain = statistics.median(s["wall_s"] for s in samples["untraced"])
        traced_wall = statistics.median(s["wall_s"] for s in samples["traced"])
        metrics["trace.overhead_s"] = traced_wall - plain
        metrics["trace.overhead_ratio"] = (traced_wall - plain) / plain
    return metrics, {op: per_op[op][1] for op in ops}


def measure(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result line dict, full record dict)."""
    transtri = import_transtri()
    wl = Workload(name, seed, transtri)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    OUT.mkdir(exist_ok=True)
    tracer = layertrace.Tracer() if trace else None
    samples = {"untraced": [], "traced": []}
    started = {"untraced": 0, "traced": 0}
    errors = []
    failed = 0
    probe_target = None
    setups = []
    refs = []
    steps = []
    t_start = time.perf_counter()
    peak_rss, rss_errors = None, []
    if not trace:
        peak_rss, rss_errors = peak_rss_probe(name, seed)
        if rss_errors:
            failed += 1
            errors.extend(rss_errors)
            print(f"untraced operation FAILED: {rss_errors[0]}", file=sys.stderr)
    tmp_root = tempfile.mkdtemp(prefix="ops-", dir=OUT)
    try:
        while True:
            t_step = time.perf_counter()
            traced = trace and (smoke or started["traced"] < started["untraced"])
            kind = "traced" if traced else "untraced"
            if not trace and not smoke and len(setups) < SETUP_PROBES:
                # spread over the run, so a slow spell of the host does not
                # land on all of them
                setups.append((setup_seconds(wl), len(refs)))  # the pass that follows
            if not trace:
                refs.append(reference_loop())
            started[kind] += 1
            tmp = tempfile.mkdtemp(dir=tmp_root)
            if traced:
                tracer.begin_op()
                tracer.install()
            try:
                wall, cpu, outcomes = wl.run_op(tmp)
                op_errors = wl.check(outcomes)
            except Exception:  # an operation that raises counts as failed
                op_errors = [traceback.format_exc(limit=3)]
            finally:
                if traced:
                    tracer.uninstall()
            shutil.rmtree(tmp, ignore_errors=True)
            if op_errors:
                failed += 1
                errors.extend(op_errors)
                print(f"{kind} operation FAILED: {'; '.join(op_errors)}", file=sys.stderr)
            else:
                samples[kind].append({"wall_s": wall, "cpu_s": cpu,
                                      "op": tracer.op_id if traced else None,
                                      "ref": len(refs) - 1 if not trace else None})
                if traced and tracer.final_calls:
                    probe_target = tracer.final_calls[0]
            steps.append(time.perf_counter() - t_step)
            if smoke:
                need_untraced = 0 if trace else 1
            else:
                need_untraced = 1 if trace else MIN_UNTRACED_OPS
            # stop before a step that would likely end past the deadline
            if (time.perf_counter() - t_start + statistics.median(steps) > seconds
                    and started["untraced"] >= need_untraced
                    and (started["traced"] or not trace)):
                break
        if not trace:
            refs.append(reference_loop())  # the pass after the last operation
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    # the peak RSS probe's operation counts as attempted too
    attempted = started["untraced"] + started["traced"] + (0 if trace else 1)

    if trace:
        metrics, record["ratio_bases"] = traced_metrics(transtri, tracer, samples,
                                                        probe_target, seed)
        metrics["failed_ratio"] = failed / attempted
        record["missing_boundaries"] = sorted(tracer.missing)
        tracer.save(OUT / f"{name}-seed{seed}-spans.npz")
    else:
        metrics = {}
        if samples["untraced"]:
            # each operation against the reference passes just before and
            # just after it, which follows the drift closer than whole-run
            # medians do
            ops = samples["untraced"]
            for i, key in enumerate(("wall_s", "cpu_s")):
                record[f"{key}_median"] = statistics.median(s[key] for s in ops)
                metrics[f"{key[:-2]}_per_ref"] = statistics.median(
                    2 * s[key] / (refs[s["ref"]][i] + refs[s["ref"] + 1][i]) for s in ops)
        record["reference_samples"] = refs
        while len(setups) < SETUP_PROBES:
            setups.append((setup_seconds(wl), len(refs) - 1))
        # seconds on a host where one reference pass takes 1 s; raw seconds
        # drift with the host as much as the operations do
        metrics["setup_s"] = statistics.median(t / refs[j][0] for t, j in setups)
        if peak_rss is not None:
            metrics["peak_rss_mb"] = peak_rss
        record["setup_samples_s"] = [t for t, _ in setups]

    units = dict(END_TO_END, **PROBE_METRICS, **RUN_METRICS,
                 **{k: v[0] for k, v in layertrace.LAYER_METRICS.items()})
    wanted = expected_metric_names(trace)
    record["missing_metrics"] = sorted(wanted - set(metrics))
    record["operations"] = dict(started, rss_probe=0 if trace else 1)
    record["samples"] = samples
    record["errors"] = errors
    record["metadata_sha256"] = wl.first_hash
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in sorted(metrics) if k in wanted},
    }
    record["result"] = result
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, record


def expected_metric_names(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_lines(record):
    env = record["environment"]
    yield (f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
           f" blas={env['blas']} commit={env['git_commit']} src_sha256={env['src_sha256'][:16]}"
           f" src_nonblank_lines={env['src_nonblank_lines']}")
    for kind, ops in record["samples"].items():
        if ops:
            walls = " ".join(f"{s['wall_s']:.3f}" for s in ops)
            yield f"{record['workload']} seed={record['seed']} {kind} ops={len(ops)} wall_s: {walls}"
    if record.get("reference_samples"):
        walls = " ".join(f"{w:.3f}" for w, _ in record["reference_samples"])
        yield f"{record['workload']} seed={record['seed']} reference loop wall_s: {walls}"
    for scen, sha in sorted(record["metadata_sha256"].items()):
        yield f"metadata sha256 {record['workload']}/{scen}: {sha}"
    for metric in record["missing_metrics"]:
        yield f"missing metric: {metric}"


def smoke():
    """One traced operation of every workload, plus one untraced operation
    of verify_unperturbed for the end-to-end path, every check on."""
    runs = [(name, True) for name in WORKLOADS] + [("verify_unperturbed", False)]
    ok = True
    for name, trace in runs:
        result, record = measure(name, DEFAULT_SEED, 0, trace=trace, smoke=True)
        for line in report_lines(record):
            if not line.startswith("missing metric"):  # reported below, if unexpected
                print(line)
        problems = [] if result["correct"] else record["errors"]
        # the overhead needs an untraced operation, which a traced smoke run skips
        missing = set(record["missing_metrics"]) - {"trace.overhead_s", "trace.overhead_ratio"}
        problems += [f"missing metric {m}" for m in sorted(missing)]
        print(f"smoke {name} trace={int(trace)}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.rss_probe:
        return rss_probe(args.workload, args.seed)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
