"""Acceptance gate: ten criteria, one test each, at pinned tolerances.

Each test prints a one-line verdict; run with -s (or read captured
output) for the summary.  Criterion 2 runs the shipped scenario B, whose
line goes through a vertex in a generic direction; the degenerate
along-an-edge variant is exercised separately as an error-path contract
(see test_perturb and scenarios/scenario_b_degenerate.cfg), because a
line containing an edge stays numerically coincident with it under any
admissible perturbation.
"""

import math
import os
import time
from decimal import Decimal, getcontext

import numpy as np

import oracles
from transtri import bump
from transtri import simplicial as sc
from transtri.charts import TriangulationState, dump_chain_metadata
from transtri.cli import _build_inputs, load_scenario
from transtri.config import PipelineConfig
from transtri.perturb import make_transverse, perturb_level, subdivision_data
from transtri.smoothmap import CircleMap, LineMap
from transtri.verify import (boundary_crossing_counts, boundary_decay_check,
                             fd_jacobian_check, verify_triangulation)

getcontext().prec = 60
RNG = np.random.default_rng(99)
SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _report(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def test_criterion_01_scenario_a(grid_a, scenario_a_run):
    cplx, real = grid_a
    h = CircleMap((0.0, 0.0), 1.0)
    cfg = scenario_a_run["config"]

    pre = verify_triangulation(TriangulationState(cplx, real), h, cfg)
    assert not pre.passed
    hits = [r for r in pre.records if r.classification == "skeleton-hit"]
    assert len(hits) >= 4

    report = scenario_a_run["report"]
    assert report.passed
    for s, st in report.statuses.items():
        if s.dim == 0:
            assert st.min_distance is not None and st.min_distance > 1e-7
    edge_margins = [r.margin for r in report.records
                    if r.simplex.dim == 1 and r.classification == "transverse"]
    assert edge_margins and min(edge_margins) > 1e-6
    counts = boundary_crossing_counts(cplx, report)
    assert all(c % 2 == 0 for c in counts.values())
    assert scenario_a_run["elapsed"] < 30.0
    _report(1, f"scenario A: {len(hits)} pre-pipeline skeleton hits, "
               f"min edge margin {min(edge_margins):.3g}, even parity, "
               f"{scenario_a_run['elapsed']:.1f}s")


def test_criterion_02_scenario_b():
    scenario = load_scenario(os.path.join(SCEN_DIR, "scenario_b.cfg"))
    cplx, real, h = _build_inputs(scenario)
    t0 = time.monotonic()
    state, report = make_transverse(cplx, real, h, scenario.config)
    elapsed = time.monotonic() - t0
    assert report.passed
    low = [r for r in report.records if r.simplex.dim <= 1]
    assert low == []
    for s, st in report.statuses.items():
        if s.dim <= 1:
            assert st.passed
    tri = [r for r in report.records if r.simplex.dim == 2]
    assert tri and all(r.classification == "transverse" for r in tri)
    assert min(r.margin for r in tri) > scenario.config.tol_rank
    assert elapsed < 60.0
    _report(2, f"scenario B: no 0/1-skeleton intersections, "
               f"{len(tri)} transverse 2-simplex crossings, {elapsed:.1f}s")


def test_criterion_03_scenario_c():
    scenario = load_scenario(os.path.join(SCEN_DIR, "scenario_c.cfg"))
    cplx, real, h = _build_inputs(scenario)
    state, report = make_transverse(cplx, real, h, scenario.config)
    assert report.passed
    target = h.eval_batch(h.sample_domain(1))[0]
    loc = sc.point_locate(cplx, real, state.eval_eta_inverse(target))
    assert loc is not None
    assert loc.simplex.dim == 2
    assert loc.margin > 1e-9
    _report(3, f"scenario C: point sits in open triangle "
               f"{loc.simplex.vertices} with barycentric margin {loc.margin:.3g}")


def test_criterion_04_bump_suite():
    e_inv = float(Decimal(-1).exp())
    e4_inv = float(Decimal(-4).exp())
    assert abs(bump.rho(1.0) - e_inv) < 1e-12
    assert abs(bump.rho_l([0.5]) - e4_inv) < 1e-12
    rng = np.random.default_rng(4)
    count = 0
    while count < 1000:
        l = int(rng.integers(1, 4))
        mode = rng.integers(3)
        t = rng.uniform(0.0, 1.0, size=l)
        if mode == 0:
            t[rng.integers(l)] = 0.0
            t *= 0.5 / max(1.0, t.sum())
        elif mode == 1:
            t = t / t.sum()
        else:
            t[rng.integers(l)] = -rng.uniform(0.1, 1.0)
        assert bump.rho_l(t) == 0.0
        assert np.all(bump.rho_l_grad(t) == 0.0)
        assert np.all(bump.rho_l_hess(t) == 0.0)
        count += 1
    for r in np.linspace(-2.0, 0.5, 101):
        assert bump.beta(float(r)) == 1.0
    for r in np.linspace(1.0, 3.0, 101):
        assert bump.beta(float(r)) == 0.0
    _report(4, "bump values at 1e-12 vs decimal oracle, exact flat branches")


def test_criterion_05_jacobian_suite(base_state):
    from test_perturb import make_pert

    checked = 0
    for s, eps in ((sc.Simplex((0,)), 0.059), (sc.Simplex((0, 3)), 0.05)):
        pert = make_pert(base_state, s, eps=eps)
        assert oracles.sampled_distortion(pert) < 0.5
        l = s.dim

        def f(tv, pert=pert, l=l):
            t2, v2 = oracles.local_eval(pert, tv[None, :l], tv[None, l:])
            return np.concatenate([t2[0], v2[0]])

        def jac(tv, pert=pert, l=l):
            return oracles.local_jacobian(pert, tv[None, :l], tv[None, l:])[0]

        pts = []
        while len(pts) < 50:
            t = RNG.uniform(0.15, 0.85, size=l)
            rho = bump.rho_l(t)
            v = RNG.uniform(-1, 1, size=2 - l)
            v *= RNG.uniform(0.0, 0.9) * pert.epsilon * rho / np.linalg.norm(v)
            pts.append(np.concatenate([t, v]))
        err = fd_jacobian_check(f, jac, pts, step=1e-7)
        assert err < 1e-6
        for p in pts:
            assert np.linalg.det(jac(p)) > 0.0
        checked += len(pts)

        corrupted = fd_jacobian_check(f, lambda tv: jac(tv) + 0.05, pts, step=1e-7)
        assert corrupted > 1e-2
    assert checked == 100
    _report(5, "analytic fiber Jacobian within 1e-6 of differences on 100 "
               "support points, det > 0, corrupted control detected")


def test_criterion_06_diffeomorphism_suite(small_pipeline):
    state = small_pipeline["state"]
    link = next(lk for lk in state.links if lk.level == 1)
    outside = inside = 0
    while outside < 100:
        p = RNG.uniform(-0.5, 1.5, size=2)
        if link.in_box(p):
            continue
        assert np.array_equal(link.apply(p[None])[0], p)
        outside += 1
    while inside < 100:
        p = RNG.uniform(link.support_lo, link.support_hi)
        assert np.linalg.norm(link.invert(link.apply(p[None]))[0] - p) < 1e-9
        inside += 1
    level0 = [lk for lk in state.links if lk.level == 0]
    level1 = [lk for lk in state.links if lk.level == 1]
    worst = 0.0
    for a, b in ((level0[0], level0[-1]), (level1[0], level1[-1])):
        for _ in range(1000):
            p = RNG.uniform(-0.2, 1.2, size=(1, 2))
            worst = max(worst, float(np.linalg.norm(
                a.apply(b.apply(p)) - b.apply(a.apply(p)))))
    assert worst <= 1e-12
    _report(6, f"exact identity off support, Newton round trip < 1e-9, "
               f"commutation defect {worst:.2g}")


def test_criterion_07_skeleton_preservation(grid_a):
    rng = np.random.default_rng(77)

    def run_levels(cplx, real, h, cfg):
        state = TriangulationState(cplx, real)
        sd = subdivision_data(state)
        for level in range(state.ambient_dim):
            new_state = perturb_level(state, level, h, cfg, sd)
            if level >= 1:
                sk = [s for s in cplx.simplices if s.dim <= level - 1]
                worst = 0.0
                for _ in range(1000):
                    s = sk[rng.integers(len(sk))]
                    lam = rng.dirichlet(np.ones(s.dim + 1))
                    p = lam @ real.simplex_points(s)
                    defect = np.linalg.norm(new_state.eval_eta(p) - state.eval_eta(p))
                    worst = max(worst, float(defect))
                assert worst < 1e-12
            state = new_state
        return state

    cplx, real = grid_a
    run_levels(cplx, real, CircleMap((0.0, 0.0), 1.0), PipelineConfig(seed=1))
    cplx3, real3 = sc.grid_triangulation((0, 0, 0), (1, 1, 1), 1)
    run_levels(cplx3, real3, LineMap((0.5, 0.45, 0.0), (0.1, 0.2, 1.0), -0.5, 1.5),
               PipelineConfig(seed=1))
    _report(7, "lower skeleton fixed to < 1e-12 after every level (2d and 3d)")


def test_criterion_08_decay_suite(small_pipeline):
    state = small_pipeline["state"]
    link = next(lk for lk in state.links if lk.level == 1)
    table = boundary_decay_check(link.local, max_i=3, max_j=3)
    assert table["passed"]
    for i in range(4):
        for j in range(4):
            assert table[(i, j)][2]
    _report(8, "shift decay ratios pass for all derivative orders i, j <= 3")


def test_criterion_09_determinism(grid_a, scenario_a_run):
    cplx, real = grid_a
    state2, _ = make_transverse(cplx, real, scenario_a_run["h"],
                                scenario_a_run["config"])
    d1 = dump_chain_metadata(scenario_a_run["state"])
    d2 = dump_chain_metadata(state2)
    assert d1.encode() == d2.encode()
    _report(9, f"identical seeds give byte-identical chain dumps "
               f"({len(d1)} bytes, {len(state2.links)} links)")


def test_criterion_10_combinatorial_oracles(grid_a):
    for l in range(4):
        cplx = sc.build_complex(l + 1, [tuple(range(l + 1))])
        pts = np.vstack([np.zeros(max(l, 1)), np.eye(max(l, 1))[:l]]) if l \
            else np.zeros((1, 1))
        real = sc.GeometricRealization({i: pts[i] for i in range(l + 1)}, cplx)
        sd, _, _ = sc.barycentric_subdivision(cplx, real)
        assert len(sd.top_simplices()) == math.factorial(l + 1)

    cplx, real = grid_a
    sd, sd_real, ids = sc.barycentric_subdivision(cplx, real)
    containing = {}
    for s in sd.simplices:
        for v in s.vertices:
            containing.setdefault(v, set()).add(s)
    by_dim = {}
    for orig, vid in ids.items():
        by_dim.setdefault(orig.dim, []).append(vid)
    pairs = 0
    for dim, vids in by_dim.items():
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                assert not (containing[vids[i]] & containing[vids[j]])
                pairs += 1
    _report(10, f"subdivision sizes (l+1)! for l <= 3; star disjointness exact "
                f"for {pairs} same-dimension pairs in the resolution-4 grid")
