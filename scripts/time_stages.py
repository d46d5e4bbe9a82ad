#!/usr/bin/env python3
"""Time the stages of `run` on a scenario, and count each search's work.

    python3 scripts/time_stages.py scenarios/scenario_a.cfg --seed 1 --runs 3

Each run goes through cli.run in this process, with its artifacts in a
temporary directory (time_resolution.time_run), under wall-clock wrappers
installed from here; the package is not edited.  A run prints its
verdict, records by class and wall time, then the wall time of each
stage: the barycentric subdivision (perturb.subdivision_data); for each
level its clearance search (estimate_c_sigma) and shift sampling
(_sample_shift, which holds the level's candidate searches and link
builds); the final verify (verify_triangulation) and its
search of each simplex dimension; and the artifacts
(cli._write_artifacts).  Then one line per search (verify._hits, which
runs the array core verify._roots): where it ran, the dimension and
number of its simplices, its seed pairs, its hits (roots below the
threshold in their closed simplex), the records kept of them, its
Gauss-Newton iterations (one map evaluation each), its chain passes and
rows (ChainOps._forward), the wall time inside those passes (chain ms)
and its least-squares rows (the stacked Gauss-Newton solves,
rows.lstsq_rows), split into the rows solved in closed form and the rows
that went to LAPACK (rows.dgelsd_rows).  A sampling search builds a record
for every hit, in a verify._records call whose chain pass counts with
the search; the final verify keeps the records of the hits that survive
its per-face dedupe, built in one verify._records call that has a line
of its own.  A search the final verify takes from the last trial state
searches nothing and shows as kept, and its surviving hits get their
records on that line too (scenario A at seed 1: the vertices' and the
edges' searches are kept, and 14 of its 121 records are for hits of the
edges' search).  The chain passes outside any search (the figure's) come
next.  Then one line per chain run level: the runs of that level the
forward passes made and the wall time of their hit lookups (_Run.hits),
their rounds of fiber maps (_Run.apply) and their rank-by-rank Jacobian
products (charts._compose), so that two versions show where a pass's
time went; only levels whose links the state evaluates have runs.  Last,
for each level of the final state's links, the largest closed-form move
bound and |J - I| bound of its links (AmbientDiffeo.bounds) and how many
of them its chain evaluates and how many it skips, as below
floating-point resolution.
"""

import argparse
import sys
import time

import numpy as np

from time_resolution import cli, time_run  # puts src/ on the path first
from transtri import charts, perturb, rows, smoothmap, verify


class Probe:
    """Stage times and search counts of one run, filled by the wrappers."""

    def __init__(self):
        self.stages = {}  # label -> wall s, in order of first call
        # [where, dim, simplices, pairs, hits, records, iterations, passes, rows, solved,
        #  chain s, solved by LAPACK]
        self.searches = []
        self.outside = [0, 0, 0.0]  # chain passes, rows and s outside any search
        self.runs = {}  # level -> [runs, hits s, apply s, compose s] of the forward passes
        self.forward = False  # inside a forward chain pass
        self.run_level = None  # the level of the run it is at
        self.final_hits = []  # (search line, y and residual bytes of its hits) of the final verify
        self.level = None
        self.final = False
        self.search = None
        self.in_gn = False
        self.state = None  # the state the final verify judged

    def add(self, label, seconds):
        self.stages[label] = self.stages.get(label, 0.0) + seconds


def install(probe):
    """Wrap the stage and search boundaries; returns the originals to restore."""
    saved = []

    def patch(owner, name, make):
        plain = getattr(owner, name)
        saved.append((owner, name, plain))
        setattr(owner, name, make(plain))

    def timed(label):
        def make(plain):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return plain(*args, **kwargs)
                finally:
                    probe.add(label(), time.perf_counter() - t0)
            return wrapper
        return make

    def in_level(plain):
        def wrapper(state, level, *args, **kwargs):
            probe.level = level
            try:
                return plain(state, level, *args, **kwargs)
            finally:
                probe.level = None
        return wrapper

    def in_final(plain):
        def wrapper(*args, **kwargs):
            probe.final, probe.state = True, args[0]
            t0 = time.perf_counter()
            try:
                report = plain(*args, **kwargs)
            finally:
                probe.final = False
                probe.add("verify", time.perf_counter() - t0)
            kept = [_key(r.y, r.residual) for r in report.records]
            for line, keys in probe.final_hits:
                line[5] = sum(k in keys for k in kept)
            return report
        return wrapper

    def search(plain):
        def wrapper(state, group, *args, **kwargs):
            where = "verify" if probe.final else f"level {probe.level} sampling"
            probe.search = [where, group[0].dim, len(group), None, 0, 0, 0, 0, 0, 0, 0.0, 0]
            t0 = time.perf_counter()
            try:
                out = plain(state, group, *args, **kwargs)
            finally:
                if probe.final:
                    probe.add(f"verify dim {group[0].dim}", time.perf_counter() - t0)
                probe.searches.append(probe.search)
                probe.search = None
            hits = out[1]
            line = probe.searches[-1]
            line[4] = sum(len(R) for *_, R in hits)
            if probe.final:
                probe.final_hits.append((line, {_key(y, r) for *_, Y, _, R in hits
                                                for y, r in zip(Y, R)}))
            return out
        return wrapper

    def records(plain):
        def wrapper(*args, **kwargs):
            if probe.final:  # the survivors of the final verify's dedupe, on a line of their own
                probe.search = ["verify records", "", "", "", "", 0, 0, 0, 0, 0, 0.0, 0]
            else:  # the records of the search just made
                probe.search = probe.searches[-1]
            try:
                out = plain(*args, **kwargs)
            finally:
                if probe.final:
                    probe.searches.append(probe.search)
                line, probe.search = probe.search, None
            line[5] += sum(map(len, out))
            return out
        return wrapper

    def pair_seeds(plain):
        def wrapper(*args, **kwargs):
            out = plain(*args, **kwargs)
            if probe.search is not None:
                probe.search[3] = len(out[2])
            return out
        return wrapper

    def gauss_newton(plain):
        def wrapper(*args, **kwargs):
            probe.in_gn = True
            try:
                return plain(*args, **kwargs)
            finally:
                probe.in_gn = False
        return wrapper

    def eval_batch(plain):
        def wrapper(self, ys):
            if probe.in_gn and probe.search is not None:
                probe.search[6] += 1
            return plain(self, ys)
        return wrapper

    def lstsq_rows(plain):
        def wrapper(A, b):
            if probe.search is not None:
                probe.search[9] += len(A)
            return plain(A, b)
        return wrapper

    def dgelsd_rows(plain):  # called by lstsq_rows only
        def wrapper(A, b):
            if probe.search is not None:
                probe.search[11] += len(A)
            return plain(A, b)
        return wrapper

    def forward(plain):
        def wrapper(self, x, with_jacobian):
            probe.forward = True
            t0 = time.perf_counter()
            try:
                return plain(self, x, with_jacobian)
            finally:
                probe.forward = False
                seconds = time.perf_counter() - t0
                if probe.search is None:
                    probe.outside[0] += 1
                    probe.outside[1] += np.size(x) // np.shape(x)[-1]
                    probe.outside[2] += seconds
                else:
                    probe.search[7] += 1
                    probe.search[8] += np.size(x) // np.shape(x)[-1]
                    probe.search[10] += seconds
        return wrapper

    def in_run(slot):
        """Time a forward pass's _Run.hits (slot 1), _Run.apply (2) or
        charts._compose (3) under the level of the run it serves."""
        def make(plain):
            def wrapper(*args):
                if not probe.forward:  # the inverse's hit lookups
                    return plain(*args)
                if slot < 3:
                    probe.run_level = args[0].l
                t0 = time.perf_counter()
                try:
                    return plain(*args)
                finally:
                    line = probe.runs.setdefault(probe.run_level, [0, 0.0, 0.0, 0.0])
                    line[0] += slot == 1
                    line[slot] += time.perf_counter() - t0
            return wrapper
        return make

    patch(perturb, "perturb_level", in_level)
    patch(perturb, "estimate_c_sigma", timed(lambda: f"level {probe.level} clearance"))
    patch(perturb, "_sample_shift", timed(lambda: f"level {probe.level} sampling"))
    patch(perturb, "verify_triangulation", in_final)
    patch(verify, "_hits", search)
    patch(verify, "_records", records)
    patch(verify, "_pair_seeds", pair_seeds)
    patch(verify, "_gauss_newton", gauss_newton)
    patch(smoothmap.SmoothMap, "eval_batch", eval_batch)
    patch(verify, "lstsq_rows", lstsq_rows)
    patch(rows, "dgelsd_rows", dgelsd_rows)
    patch(charts.ChainOps, "_forward", forward)
    patch(charts._Run, "hits", in_run(1))
    patch(charts._Run, "apply", in_run(2))
    patch(charts, "_compose", in_run(3))
    patch(cli, "_write_artifacts", timed(lambda: "artifacts"))
    return saved


def _key(y, residual):
    """A root's y and residual, as bytes: a record built from it has them."""
    return np.asarray(y, float).tobytes() + np.float64(residual).tobytes()


def report(probe, result, wall, setup):
    lines = [f"{result} in {wall:.3f} s", f"  {'subdivision':<24}{setup:9.4f} s"]
    lines += [f"  {label:<24}{seconds:9.4f} s" for label, seconds in probe.stages.items()]
    lines.append(f"  {'search':<20}{'dim':>4}{'simplices':>10}{'pairs':>7}{'hits':>6}"
                 f"{'records':>8}{'gn iterations':>15}{'chain passes':>14}{'rows':>7}"
                 f"{'chain ms':>10}{'closed rows':>13}{'lapack rows':>13}")
    for (where, dim, size, pairs, hits, recs, iterations, passes, points, solved,
         chain, lapack) in probe.searches:
        lines.append(f"  {where:<20}{dim:>4}{size:>10}{'kept' if pairs is None else pairs:>7}"
                     f"{hits:>6}{recs:>8}{iterations:>15}{passes:>14}{points:>7}"
                     f"{chain * 1e3:>10.2f}{solved - lapack:>13}{lapack:>13}")
    lines.append(f"  {'outside searches':<20}{'':>4}{'':>10}{'':>7}{'':>6}{'':>8}{'':>15}"
                 f"{probe.outside[0]:>14}{probe.outside[1]:>7}{probe.outside[2] * 1e3:>10.2f}")
    total = probe.outside[0] + sum(s[7] for s in probe.searches)
    lines.append(f"  chain passes in all: {total}")
    for level, (runs, hits, apply, compose) in sorted(probe.runs.items()):
        lines.append(f"  chain run level {level}: {runs} runs, hit lookup {hits * 1e3:.2f} ms,"
                     f" apply {apply * 1e3:.2f} ms, rank products {compose * 1e3:.2f} ms")
    state = probe.state
    for level in sorted({lk.level for lk in state.links} if state else ()):
        links = [lk for lk in state.links if lk.level == level]
        evaluated = sum(lk in state._evaluated for lk in links)
        lines.append(f"  links level {level}: move bound {max(lk.bounds[0] for lk in links):.3g},"
                     f" |J - I| bound {max(lk.bounds[1] for lk in links):.3g},"
                     f" {evaluated} evaluated, {len(links) - evaluated} skipped")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scenario", help="a scenario file")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=None, help="the scenario's seed by default")
    args = ap.parse_args()
    scenario = cli.load_scenario(args.scenario)
    for i in range(args.runs):
        probe = Probe()
        saved = install(probe)
        try:
            result, wall, setup = time_run(scenario, args.seed)
        finally:
            for owner, name, plain in reversed(saved):
                setattr(owner, name, plain)
        print(f"run {i + 1}: {report(probe, result, wall, setup)}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
