"""Batched evaluation equals stacked single-point evaluation, bit for bit.

The chain and its inverse, point location, the verifier's Gauss-Newton
refinement and the bump forms take (N, .) arrays with a single point as
the N = 1 case.  Each batched result must equal the
stack of the single-point results exactly, and the bump forms, the inverse
and point location must also equal scalar references (the math module for
the bump forms, the one-point loops the stacked solves replaced for the
others), because chain metadata and reports print these values with repr.
The bump forms that share exps and logs must equal the forms that took
their own, kept in tests/oracles.py, and a Gauss-Newton call that
evaluates a vertex patch once must equal the loop that evaluates it at
every iteration.
The verifier searches all simplices of a dimension at once and shift
sampling judges one candidate per simplex of a level at once; both must
give every simplex what searching or sampling it alone gives, and its
seed pairing, root dedupe and record margins, now array operations, must
equal the per-column, pairwise and per-record loops they replaced.  No
link's Jacobian is sampled in the pipeline: the sampled |J - I| of the
pipeline's links and of drawn links must stay under the closed-form
bound that LocalDiffeo's invariants give, which lies below 1/2.  A final
verify that takes the last level's search from its trial state must give
the report of a fresh state.  The
verifier deduplicates each carrier face's hits before it builds any
record, and its report must equal, bit for bit, that of the oracle that
builds a record for every hit and deduplicates the records.  The
sampled clearance test locates its samples in base coordinates and must
give the verdict of pushing them through the chain and pulling them back,
and the clearance search, which compares each candidate with the exact
distance to the barycentre's link, must give every c_sigma of the sampled
search.  Point location applies each top's barycentric map and must give
the hits of the least-squares solves it replaced, with coordinates
within 1e-12.  The
fiber map takes its fade terms from one exp pass and must equal the
per-link reference bit for bit at beta's glue radii, on both branches of
beta', and for a vertex whose rho_0 it reads once through bump.rho_l.
The stacked least-squares kernel must give each row the bits of a
one-row call, np.linalg.lstsq's bits on every row it sends to LAPACK,
and on the rows it solves in closed form agree with np.linalg.lstsq to
within a bound of eps times the condition number, with the minimum norm
where a row has fewer equations than unknowns; its refined 3 x 3 solves
must be backward stable.
"""

import contextlib
import io
import itertools
import math
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import dense_box_pairs, lstsq_solve
from transtri import bump, cli, perturb, verify
from transtri import simplicial as sc
from transtri.charts import ChainOps, StarLocator, TriangulationState, fiber_moves, make_chart
from transtri.config import PipelineConfig
from transtri.errors import DegenerateGeometryError, PerturbationError
from transtri.perturb import (LocalDiffeo, _draw_shift, _unit_directions, containment_ok,
                              perturb_level, subdivision_data)
from transtri.rows import (KAPPA_GRAM, KAPPA_SQUARE, dgelsd_rows, lstsq_rows, matvec,
                           row_norms)
from transtri.smoothmap import (CircleMap, LineMap, PointMap, PolyCurveMap, SurfacePatchMap,
                                TorusKnotMap)
from transtri.verify import (IntersectionRecord, Patch, _dedupe, _domain_period, _domain_seeds,
                             _gauss_newton, _pair_seeds,
                             find_intersections, interior_lattice, lattice_per_dim,
                             report_summary, report_to_csv, simplex_patch,
                             transversality_margin, verify_triangulation)

RNG = np.random.default_rng(20261018)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
VERIFY_SCENARIOS = ["scenario_a", "scenario_b", "scenario_b_degenerate", "scenario_c",
                    "scenario_tangent", "scenario_disjoint"]


# ---------------------------------------------------------------------------
# math-based scalar reference for the bump forms

_POLYS = ((1.0,), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -2.0, 1.0))


def ref_rho(r):
    return math.exp(-1.0 / r) if r > 0.0 else 0.0


def ref_rho_deriv(r, k):
    if r <= 0.0:
        return 0.0
    u = 1.0 / r
    poly = 0.0
    for c in reversed(_POLYS[k]):
        poly = poly * u + c
    if not math.isfinite(poly):  # exp(-u) underflowed first; u = inf gives NaN
        return 0.0
    if u > 500.0:
        if poly == 0.0:
            return 0.0
        return math.copysign(math.exp(-u + math.log(abs(poly))), poly)
    return math.exp(-u) * poly


def _args(t):
    return [1.0 - float(np.sum(t))] + [float(x) for x in t]


def ref_rho_l(t):
    val = 1.0
    for a in _args(t) if len(t) else []:
        val *= ref_rho(a)
    return val


def ref_rho_l_grad(t):
    args = _args(t)
    g = [ref_rho(a) for a in args]
    g1 = [ref_rho_deriv(a, 1) for a in args]
    grad = []
    for j in range(len(t)):
        term0 = -g1[0]
        for a in range(1, len(args)):
            term0 *= g[a]
        termj = g1[j + 1]
        for a in range(len(args)):
            if a != j + 1:
                termj *= g[a]
        grad.append(term0 + termj)
    return grad


def ref_beta(r):
    if r <= 0.5:
        return 1.0
    if r >= 1.0:
        return 0.0
    a, b = ref_rho(1.0 - r), ref_rho(r - 0.5)
    return a / (a + b)


def ref_beta_deriv(r):
    if r <= 0.5 or r >= 1.0:
        return 0.0
    a, b = ref_rho(1.0 - r), ref_rho(r - 0.5)
    da, db = -ref_rho_deriv(1.0 - r, 1), ref_rho_deriv(r - 0.5, 1)
    return (da * b - a * db) / (a + b) ** 2


def ref_scaled_warp(rho_value, power):
    if rho_value <= 0.0:
        return 0.0
    expo = -1.0 / rho_value - power * math.log(rho_value)
    return 0.0 if expo < -745.0 else math.exp(expo)


def same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _radii(rng=RNG):
    return np.concatenate([rng.uniform(-0.5, 1.5, 400), rng.uniform(0.0, 0.003, 100),
                           10.0 ** rng.uniform(-300, 0, 100), [0.0, -0.0, 0.5, 0.75, 1.0]])


class TestBumpForms:
    @pytest.mark.parametrize("name", ["rho", "beta", "beta_deriv", "d1", "d2",
                                      "warp0", "warp1", "warp2"])
    def test_entrywise_equals_scalar_reference(self, name):
        fn, ref = {
            "rho": (bump.rho, ref_rho),
            "beta": (bump.beta, ref_beta),
            "beta_deriv": (bump.beta_deriv, ref_beta_deriv),
            "d1": (lambda r: bump.rho_deriv(r, 1), lambda r: ref_rho_deriv(r, 1)),
            "d2": (lambda r: bump.rho_deriv(r, 2), lambda r: ref_rho_deriv(r, 2)),
            "warp0": (lambda r: bump.scaled_warp(r, 0), lambda r: ref_scaled_warp(r, 0)),
            "warp1": (lambda r: bump.scaled_warp(r, 1), lambda r: ref_scaled_warp(r, 1)),
            "warp2": (lambda r: bump.scaled_warp(r, 2), lambda r: ref_scaled_warp(r, 2)),
        }[name]
        rs = _radii()
        expected = [ref(float(r)) for r in rs]
        assert same_bits(fn(rs), expected)
        assert same_bits(fn(rs.reshape(-1, 5)), np.reshape(expected, (-1, 5)))
        assert same_bits([fn(float(r)) for r in rs], expected)

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_simplex_bump_rows_equal_scalar_reference(self, l):
        ts = np.concatenate([RNG.dirichlet(np.ones(l + 1), 300)[:, :l],
                             RNG.uniform(-0.2, 1.1, (100, l)),
                             1e-3 * RNG.dirichlet(np.ones(l + 1), 50)[:, :l]])
        assert same_bits(bump.rho_l(ts), [ref_rho_l(t) for t in ts])
        assert same_bits(bump.rho_l_grad(ts), np.reshape([ref_rho_l_grad(t) for t in ts], ts.shape))
        assert same_bits([bump.rho_l(t) for t in ts], bump.rho_l(ts))


def same_bits_or_nan(a, b):
    """same_bits, with NaN matching NaN."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


def _edge_radii():
    """_radii(), drawn from a generator of its own so that later tests draw
    the same points from RNG; the glue points 1/2 and 1, the switch
    1/_LOG_SAFE_U of rho's log-domain branch (also as 1 - r and r - 1/2 of
    the beta blend) and the warp's underflow point, each with its nextafter
    neighbours; subnormals, signed zeros, infinities and NaN."""
    u = 1.0 / bump._LOG_SAFE_U
    centres = np.array([0.5, 1.0, u, 1.0 - u, 0.5 + u, 1.0 / 745.0])
    return np.concatenate([_radii(np.random.default_rng(22)), centres,
                           np.nextafter(centres, -np.inf), np.nextafter(centres, np.inf),
                           u * (1.0 + 1e-3 * np.arange(-5, 6)),
                           [5e-324, -5e-324, 1e-310, 2.2e-308, 0.0, -0.0, np.inf, -np.inf,
                            np.nan]])


@pytest.mark.parametrize("name", ["beta", "beta_deriv", "beta_and_deriv", "warp0", "warp1",
                                  "warp2", "warps"])
def test_shared_bump_forms_equal_their_oracles(name):
    # the forms that share exps and logs against the forms that took their
    # own, in value and in the sign of zero, over arrays and scalars
    fn, ref = {
        "beta": (bump.beta, oracles.beta),
        "beta_deriv": (bump.beta_deriv, oracles.beta_deriv),
        "beta_and_deriv": (lambda r: np.stack(bump.beta_and_deriv(r)),
                           lambda r: np.stack([oracles.beta(r), oracles.beta_deriv(r)])),
        "warp0": (lambda r: bump.scaled_warp(r, 0), lambda r: oracles.scaled_warp(r, 0)),
        "warp1": (lambda r: bump.scaled_warp(r, 1), lambda r: oracles.scaled_warp(r, 1)),
        "warp2": (lambda r: bump.scaled_warp(r, 2), lambda r: oracles.scaled_warp(r, 2)),
        "warps": (lambda r: np.stack(bump.scaled_warps(r, (0, 1, 2))),
                  lambda r: np.stack([oracles.scaled_warp(r, k) for k in range(3)])),
    }[name]
    rs = _edge_radii()
    expected = ref(rs)
    assert same_bits_or_nan(fn(rs), expected)
    assert same_bits_or_nan(fn(rs[:, None]), ref(rs[:, None]))
    assert same_bits_or_nan(np.stack([fn(float(r)) for r in rs], axis=-1), expected)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_rho_l_grad_equals_its_oracle(l):
    rs, rng = _edge_radii(), np.random.default_rng(l)
    ts = np.concatenate([rs[:, None] * np.ones(l),
                         np.stack([rng.permutation(rs) for _ in range(l)], axis=1),
                         np.concatenate([rs[:, None], (1.0 - rs[:, None]) / l
                                         * np.ones(l - 1)], axis=1)])
    assert same_bits_or_nan(bump.rho_l_grad(ts), oracles.rho_l_grad(ts))
    assert same_bits_or_nan([bump.rho_l_grad(t) for t in ts], oracles.rho_l_grad(ts))


# ---------------------------------------------------------------------------
# chain kernels


def _probe_points(state, kind, count=60):
    real = state.realization
    if kind == "interior":
        tops = state.complex.top_simplices()
        return np.array([RNG.dirichlet(np.ones(3)) @ real.simplex_points(tops[i])
                         for i in RNG.integers(len(tops), size=count)])
    if kind == "near_vertex":
        verts = state.complex.vertex_ids
        d = RNG.normal(size=(count, 2))
        r = 1e-3 * RNG.uniform(0.0, 1.0, size=(count, 1))
        base = np.array([real.point(verts[i]) for i in RNG.integers(len(verts), size=count)])
        return base + r * d / np.linalg.norm(d, axis=1, keepdims=True)
    return RNG.uniform(3.0, 4.0, size=(count, 2)) * RNG.choice([-1.0, 1.0], size=(count, 2))


@pytest.mark.parametrize("kind", ["interior", "near_vertex", "outside"])
def test_chain_rows_equal_single_points(scenario_a_run, kind):
    state = scenario_a_run["state"]
    pts = _probe_points(state, kind)
    if kind == "outside":
        assert not any(lk.box_mask(pts).any() for lk in state.links)
    x = state.eval_eta(pts)
    assert np.array_equal(x, np.array([state.eval_eta(p) for p in pts]))
    xj, J = state.eval_eta_with_jacobian(pts)
    singles = [state.eval_eta_with_jacobian(p) for p in pts]
    assert np.array_equal(xj, np.array([s[0] for s in singles]))
    assert np.array_equal(J, np.array([s[1] for s in singles]))
    assert np.array_equal(xj, x)
    if kind == "outside":
        assert np.array_equal(x, pts)
        assert np.array_equal(J, np.broadcast_to(np.eye(2), J.shape))
    else:
        assert any(lk.box_mask(pts).any() for lk in state.links)
    if kind == "near_vertex":
        assert (x != pts).any(axis=1).sum() > len(pts) // 2


@pytest.mark.parametrize("h", [
    PointMap((0.5, -0.5)),
    LineMap((0.1, 0.2, 0.3), (0.9, 0.62, 0.34), -3.0, 3.0),
    CircleMap((0.1, 0.2), 1.3),
    PolyCurveMap(RNG.normal(size=(4, 3))),
    TorusKnotMap(),
    SurfacePatchMap(RNG.normal(size=(3, 3, 3))),
], ids=lambda h: h.family)
def test_map_rows_equal_single_points(h):
    ys = RNG.uniform(0.0, 1.0, size=(200, h.domain.dim))
    assert np.array_equal(h.eval_batch(ys), np.array([h.eval_raw(y) for y in ys]))


# ---------------------------------------------------------------------------
# Gauss-Newton over many seed pairs


def _gn_case(scenario_a_run, name):
    state, config = scenario_a_run["state"], scenario_a_run["config"]
    circle = scenario_a_run["h"]
    scale = state.mesh_scale
    if name == "repeated_edges":
        # scenario A's edge pairs tiled three times, plus copies of every
        # 40th pair at t = 0.0 and at t = -0.0: repeated rows, and rows
        # that compare equal as floats but differ in their sign bits
        patch = simplex_patch(state, state.complex.by_dim(1))
        ys, ts, pairs, _ = _pair_seeds(circle, patch, config, scale)
        iy, it = np.array(pairs).T
        owner = it // (len(ts) // patch.size)
        ends = np.arange(0, len(iy), 40)
        y0 = np.concatenate([np.tile(ys[iy], (3, 1)), ys[iy[ends]], ys[iy[ends]]])
        t0 = np.concatenate([np.tile(ts[it], (3, 1)), np.zeros((len(ends), 1)),
                             np.full((len(ends), 1), -0.0)])
        o = np.concatenate([np.tile(owner, 3), owner[ends], owner[ends]])
        return circle, patch, y0, t0, o, config, scale
    # vertex 7 is (-1, 0), on the circle; 12 is (0, 0) and 13 is (0, 1)
    simplex = {"vertex": sc.Simplex((7,)), "edge": sc.Simplex((7, 12)),
               "triangle": sc.Simplex((7, 12, 13))}
    h, s = {
        "vertex": (circle, simplex["vertex"]),
        "edge": (circle, simplex["edge"]),
        "triangle": (circle, simplex["triangle"]),
        # meets the edge's line far outside its short parameter interval
        "short_line": (LineMap((-0.5, -2.0), (0.0, 1.0), lo=0.4, hi=0.6), simplex["edge"]),
        "point": (PointMap((-0.3, 0.4)), simplex["triangle"]),
        "poly_curve": (PolyCurveMap([[-1.5, -0.2], [3.0, 0.5], [0.0, 0.3]]), simplex["edge"]),
    }[name]
    assert s in state.complex
    patch = simplex_patch(state, s)
    ys, ts, pairs, _ = _pair_seeds(h, patch, config, scale)
    iy, it = np.array(pairs, int).reshape(-1, 2).T
    # plus a few unpruned seeds, some far off the simplex
    y0 = np.concatenate([ys[iy], ys[RNG.integers(len(ys), size=5)]])
    t0 = np.concatenate([ts[it], RNG.uniform(-1.0, 2.0, size=(5, s.dim))])
    return h, patch, y0, t0, np.zeros(len(y0), int), config, scale


def gn_pairs(out):
    """_gauss_newton's (ok, Y, T, R) as one (y, t, residual) or None per
    pair, the form of oracles.gauss_newton."""
    ok, Y, T, R = out
    assert len(ok) == len(Y) == len(T) == len(R)
    return [(Y[p], T[p], float(R[p])) if ok[p] else None for p in range(len(ok))]


@pytest.mark.parametrize("name", ["vertex", "edge", "triangle", "short_line", "point",
                                  "poly_curve", "repeated_edges"])
def test_gauss_newton_pairs_equal_single_pairs(scenario_a_run, name):
    h, patch, y0, t0, owner, config, scale = _gn_case(scenario_a_run, name)
    batched = gn_pairs(_gauss_newton(h, patch, y0, t0, config, scale, owner))
    singles = [gn_pairs(_gauss_newton(h, patch, y0[i:i + 1], t0[i:i + 1], config, scale,
                                      owner[i:i + 1]))[0] for i in range(len(y0))]
    assert len(batched) == len(singles) == len(y0)
    for b, s in zip(batched, singles):
        assert (b is None) == (s is None)
        if b is not None:
            assert same_bits(b[0], s[0]) and same_bits(b[1], s[1]) and b[2] == s[2]
    found = [b for b in batched if b is not None]
    if name == "short_line":
        assert not found  # every refinement leaves the map's domain
    else:
        assert found


def test_vertex_patches_are_evaluated_once_per_gauss_newton(grid_a, monkeypatch):
    # scenario A's level-0 search, which its final verify takes, refines
    # roots on vertex patches; each refinement evaluates a vertex patch once,
    # at every pair, and any other patch at every iteration, at the pairs
    # still running (the sizes of the oracle's trajectory, which evaluates
    # every patch at every iteration), and gives the oracle's roots
    calls, gauss_newton = [], verify._gauss_newton

    def counted(patch, sizes):
        def eval_jac(t, o):
            sizes.append(len(t))
            return patch.eval_jac(t, o)

        return Patch(l=patch.l, eval=patch.eval, eval_jac=eval_jac, size=patch.size)

    def spy(h, patch, y0, t0, config, scale, owner=None):
        sizes, want_sizes = [], []
        got = gauss_newton(h, counted(patch, sizes), y0, t0, config, scale, owner)
        want = oracles.gauss_newton(h, counted(patch, want_sizes), y0, t0, config, scale, owner)
        calls.append((patch.l, sizes, want_sizes, gn_pairs(got), want))
        return got

    monkeypatch.setattr(verify, "_gauss_newton", spy)
    cplx, real = grid_a
    perturb.make_transverse(cplx, real, CircleMap((0.0, 0.0), 1.0), PipelineConfig(seed=1))
    vertex = [c for c in calls if c[0] == 0]
    assert len(vertex) == 1 and any(g is not None for c in vertex for g in c[3])
    assert all(len(c[2]) > 2 for c in calls)
    for l, sizes, want_sizes, got, want in calls:
        assert want_sizes[0] == len(got)
        assert sizes == (want_sizes[:1] if l == 0 else want_sizes)
        assert [g is None for g in got] == [w is None for w in want]
        for g, w in zip(got, want):
            if g is not None:
                assert same_bits(g[0], w[0]) and same_bits(g[1], w[1]) and g[2] == w[2]


def test_scenario_a_run_makes_30_chain_passes(tmp_path, monkeypatch):
    # each of the three searches (vertices, edges, and the final verify's
    # triangles) makes one value-only pass at its seed lattice, then passes
    # with Jacobians: one per Gauss-Newton iteration on a positive-dimensional
    # patch, one per refinement on the vertices, and one for its records,
    # which the vertices, kept clear of the circle, have none of; the
    # figure makes one value-only pass for its edges and vertices
    passes, forward = [], ChainOps._forward

    def spy(self, x, with_jacobian):
        passes.append(with_jacobian)
        return forward(self, x, with_jacobian)

    monkeypatch.setattr(ChainOps, "_forward", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(cli.load_scenario(str(SCENARIOS / "scenario_a.cfg")), seed=1,
                       out_dir=str(tmp_path)) == 0
    assert len(passes) == 30 and [i for i, jac in enumerate(passes) if not jac] == [0, 2, 19, 29]


# ---------------------------------------------------------------------------
# map differential over rows


def ref_map_jacobian(h, y):
    """The one-parameter differential of each family, as a scalar formula
    with math-module trigonometry and Python-float powers."""
    if h.family == "point":
        return np.zeros((h.ambient_dim, 0))
    if h.family == "line":
        return h.direction.reshape(-1, 1)
    if h.family == "circle":
        ang = 2.0 * math.pi * float(y[0])
        return (2.0 * math.pi * h.radius
                * (-math.sin(ang) * h.u1 + math.cos(ang) * h.u2)).reshape(-1, 1)
    if h.family == "poly_curve":
        k = np.arange(1, h.coeffs.shape[0])
        return ((float(y[0]) ** (k - 1) * k) @ h.coeffs[1:]).reshape(-1, 1)
    if h.family == "torus_knot":
        a = 2.0 * math.pi * h.p * float(y[0])
        b = 2.0 * math.pi * h.q * float(y[0])
        da, db = 2.0 * math.pi * h.p, 2.0 * math.pi * h.q
        w = h.R + h.r * math.cos(b)
        dw = -h.r * math.sin(b) * db
        return np.array([dw * math.cos(a) - w * math.sin(a) * da,
                         dw * math.sin(a) + w * math.cos(a) * da,
                         h.r * math.cos(b) * db]).reshape(-1, 1)
    u, v = float(y[0]), float(y[1])
    du, dv, _ = h.coeffs.shape
    pu, pv = u ** np.arange(du), v ** np.arange(dv)
    dpu = np.array([j * u ** (j - 1) if j > 0 else 0.0 for j in range(du)])
    dpv = np.array([k * v ** (k - 1) if k > 0 else 0.0 for k in range(dv)])
    return np.stack([np.einsum("u,v,uvm->m", dpu, pv, h.coeffs),
                     np.einsum("u,v,uvm->m", pu, dpv, h.coeffs)], axis=1)


MAP_RNG = np.random.default_rng(14)
MAPS = {
    "point": PointMap((-0.3, 0.4, 1.1)),
    "line": LineMap((0.1, 0.2, 0.3), (1.0, -2.0, 0.5)),
    "circle": CircleMap((0.3, -0.1, 0.2), 1.7, (1.0, 0.0, 0.0), (0.0, 0.6, 0.8)),
    "poly_curve": PolyCurveMap(MAP_RNG.normal(size=(4, 3)), -1.0, 2.0),
    "torus_knot": TorusKnotMap(3, 5, 1.3, 0.4),
    "surface_patch": SurfacePatchMap(MAP_RNG.normal(size=(3, 4, 3)), (-1.0, -1.0), (1.0, 1.0)),
}


@pytest.mark.parametrize("family", sorted(MAPS))
def test_map_differential_rows_equal_one_row_calls(family):
    h = MAPS[family]
    ys = MAP_RNG.uniform(-1.5, 1.5, size=(500, h.domain.dim))
    J = h.jacobian_raw(ys)
    assert J.shape == (500, h.ambient_dim, h.domain.dim)
    assert same_bits(J, [h.jacobian_raw(y) for y in ys])
    assert same_bits(J, [ref_map_jacobian(h, y) for y in ys])
    # the checked form wraps periodic parameters first
    inside = h.domain.contains(ys) & np.all(h.domain.wrap(ys) == ys, axis=1)
    assert inside.any()
    assert same_bits([h.jacobian(y) for y in ys[inside]], J[inside])


# ---------------------------------------------------------------------------
# stacked least squares


# the shapes of Gauss-Newton's rows: m = 2 or 3 map coordinates against
# n + l = 1 .. 4 unknowns
LSTSQ_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4)]
EPS = np.finfo(float).eps


def _rank_deficient(A):
    """A with the last row (at most as many rows as columns) or the last
    column twice the first, or zero where min(M, K) = 1, so that A has rank
    below min(M, K) exactly."""
    A = A.copy()
    if min(A.shape[1:]) == 1:
        A[:] = 0.0
    elif A.shape[1] <= A.shape[2]:
        A[:, -1, :] = 2.0 * A[:, 0, :]
    else:
        A[:, :, -1] = 2.0 * A[:, :, 0]
    return A


def _conditioned(rng, shape, decades, scale):
    """A stack of len(decades) matrices of the given shape with orthogonal
    singular vectors and singular values scale * 10^(-decades * j / (g - 1)),
    j = 0 .. g - 1, g = min(shape)."""
    M, K = shape
    g = min(M, K)
    N = len(decades)
    U = np.linalg.qr(rng.normal(size=(N, M, M)))[0][:, :, :g]
    V = np.linalg.qr(rng.normal(size=(N, K, K)))[0][:, :, :g]
    s = scale[:, None] * 10.0 ** (-decades[:, None] * np.linspace(0.0, 1.0, g))
    return (U * s[:, None, :]) @ V.transpose(0, 2, 1)


def _kappa(A):
    """The Frobenius condition number of the matrix lstsq_rows inverts for
    each row of A, and the bound under which it solves in closed form."""
    M, K = A.shape[1:]
    if M == K:
        return np.linalg.cond(A, "fro"), KAPPA_SQUARE
    G = A.transpose(0, 2, 1) @ A if M > K else A @ A.transpose(0, 2, 1)
    return np.linalg.cond(G, "fro"), KAPPA_GRAM


def _agrees_with_lapack(A, b, x):
    """|x - x_lapack| <= 64 eps kappa (|x_lapack| + |b| / |A|_F) in every
    row: the error of a backward-stable solve of the matrix inverted, whose
    right-hand side A^T b carries the residual into tall rows."""
    want = np.array([np.linalg.lstsq(Ai, bi, rcond=None)[0] for Ai, bi in zip(A, b)])
    scale = row_norms(want) + row_norms(b) / np.linalg.norm(A, axis=(1, 2))
    return bool((row_norms(x - want) <= 64.0 * EPS * _kappa(A)[0] * scale).all())


@st.composite
def lstsq_stacks(draw, decades):
    """(A, b): 40 rows of one of LSTSQ_SHAPES at one scale in 1e-8 .. 1e8,
    with right-hand sides at another, and singular values spread over
    decades(shape) decades, a (low, high) range drawn from row by row."""
    shape = draw(st.sampled_from(LSTSQ_SHAPES))
    scale, b_scale = (10.0 ** draw(st.floats(-8.0, 8.0)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = _conditioned(rng, shape, rng.uniform(*decades(shape), 40), np.full(40, scale))
    return A, b_scale * rng.normal(size=(40, shape[0]))


def _under_the_bound(shape):
    # kappa_F of A, or of its Gram matrix, stays under its bound: kappa_F is
    # at most g times the ratio of the extreme singular values, squared for
    # a Gram matrix
    power, bound = (1, KAPPA_SQUARE) if shape[0] == shape[1] else (2, KAPPA_GRAM)
    return 0.0, (np.log10(bound) - np.log10(min(shape))) / power


def _over_the_bound(shape):
    # kappa_F is at least ten times its bound
    power, bound = (1, KAPPA_SQUARE) if shape[0] == shape[1] else (2, KAPPA_GRAM)
    return (np.log10(bound) + 1.0) / power, 14.0


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 2), (4, 3), (2, 3), (3, 4)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("rank_deficient", [False, True], ids=["full", "deficient"])
def test_lstsq_rows_equal_single_solves(shape, rank_deficient):
    # every row has the bits of a one-row call, and a rank-deficient row
    # goes to dgelsd and has np.linalg.lstsq's bits
    A = RNG.normal(size=(300,) + shape) * 10.0 ** RNG.uniform(-4.0, 4.0, size=(300, 1, 1))
    if rank_deficient:
        A = _rank_deficient(A)
    b = RNG.normal(size=(300, shape[0]))
    x = lstsq_rows(A, b)
    assert x.shape == (300, shape[1])
    assert same_bits(x, [lstsq_rows(Ai[None], bi[None])[0] for Ai, bi in zip(A, b)])
    if rank_deficient:
        assert same_bits(x, [np.linalg.lstsq(Ai, bi, rcond=None)[0] for Ai, bi in zip(A, b)])


@given(lstsq_stacks(lambda shape: (0.0, 16.0)), st.data())
@settings(max_examples=60, deadline=None)
def test_lstsq_rows_are_batch_independent(stack, data):
    # a stack mixing closed-form rows, rows over the bound, rank-deficient
    # rows and rows with an infinite right-hand side, in any order: every
    # row has the bits of a one-row call
    A, b = stack
    A[::5] = _rank_deficient(A[::5])
    b[3::7, 0] = np.inf
    order = np.array(data.draw(st.permutations(range(len(A)))))
    x = lstsq_rows(A[order], b[order])
    one = [lstsq_rows(Ai[None], bi[None])[0] for Ai, bi in zip(A, b)]
    assert same_bits_or_nan(x, np.asarray(one)[order])


@given(lstsq_stacks(_under_the_bound))
@settings(max_examples=80, deadline=None)
def test_lstsq_rows_agree_with_lapack_under_the_bound(stack):
    # rows under the bound agree with dgelsd to a kappa-scaled bound
    A, b = stack
    kappa, bound = _kappa(A)
    assert (kappa <= bound).all()
    assert _agrees_with_lapack(A, b, lstsq_rows(A, b))


@pytest.mark.parametrize("shape", [(3, 3), (3, 4)], ids=["3x3", "3x4"])
def test_refined_lstsq_rows_have_a_small_residual(shape):
    # a 3 x 3 solve is refined once, which makes it backward stable:
    # |A x - b| <= 16 eps |A|_F |x| for a square row, and sqrt(kappa_F)
    # times that for a wide one, whose Gram matrix squares the condition
    # number (an unrefined adjugate solve misses either by thousands)
    rng = np.random.default_rng(33)
    top = _under_the_bound(shape)[1]
    A = _conditioned(rng, shape, rng.uniform(0.0, top, 2000),
                     10.0 ** rng.uniform(-8.0, 8.0, 2000))
    b = rng.normal(size=(2000, shape[0])) * 10.0 ** rng.uniform(-8.0, 8.0, (2000, 1))
    x = lstsq_rows(A, b)
    kappa = _kappa(A)[0]
    amplify = 1.0 if shape[0] == shape[1] else np.sqrt(kappa)
    assert (row_norms((A @ x[:, :, None])[..., 0] - b)
            <= 16.0 * EPS * np.linalg.norm(A, axis=(1, 2)) * row_norms(x) * amplify).all()


@given(lstsq_stacks(_over_the_bound))
@settings(max_examples=60, deadline=None)
def test_lstsq_rows_keep_lapack_bits_off_the_closed_form(stack):
    # rows over the bound, rank-deficient rows and rows with an infinite
    # right-hand side have np.linalg.lstsq's bits (a 1 x 1 matrix inverted
    # has kappa_F = 1)
    A, b = stack
    assume(min(A.shape[1:]) > 1)
    assert (_kappa(A)[0] >= 10.0 * _kappa(A)[1]).all()
    A[::3] = _rank_deficient(A[::3])
    b[1::4, -1] = -np.inf
    want = [np.linalg.lstsq(Ai, bi, rcond=None)[0] for Ai, bi in zip(A, b)]
    assert same_bits_or_nan(lstsq_rows(A, b), want)


@given(lstsq_stacks(_under_the_bound))
@settings(max_examples=60, deadline=None)
def test_wide_lstsq_rows_have_the_minimum_norm(stack):
    # a wide row solves A x = b and has no component in the null space of A
    A, b = stack
    M, K = A.shape[1:]
    assume(M < K)
    kappa = _kappa(A)[0]
    x = lstsq_rows(A, b)
    null = np.linalg.svd(A)[2][:, M:]  # (N, K - M, K): rows span the null space
    norm = row_norms(x)
    assert (row_norms((null @ x[:, :, None])[..., 0]) <= 64.0 * EPS * kappa * norm).all()
    assert (row_norms((A @ x[:, :, None])[..., 0] - b)
            <= 64.0 * EPS * kappa * np.linalg.norm(A, axis=(1, 2)) * norm).all()


def test_lstsq_rows_solve_well_conditioned_rows_in_closed_form(monkeypatch):
    # no well-conditioned row of a shape with g <= 3 reaches dgelsd, at any
    # scale of A from 1e-150 to 1e150 (a Gram determinant of an unscaled
    # row would underflow or overflow); a row with an infinite entry of A
    # does, and raises as np.linalg.lstsq does
    rng = np.random.default_rng(32)  # RNG's draws stay those of the later tests
    reached = []
    monkeypatch.setattr("transtri.rows.dgelsd_rows",
                        lambda A, b: reached.append(len(A)) or dgelsd_rows(A, b))
    for shape in LSTSQ_SHAPES:
        A = _conditioned(rng, shape, np.zeros(50), 10.0 ** rng.uniform(-150.0, 150.0, 50))
        b = rng.normal(size=(50, shape[0]))
        assert _agrees_with_lapack(A, b, lstsq_rows(A, b))
    assert reached == []
    A = rng.normal(size=(3, 3, 2))
    A[1, 0, 1] = np.inf
    with pytest.raises(np.linalg.LinAlgError):
        lstsq_rows(A, np.ones((3, 3)))
    assert reached == [1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(A[1], np.ones(3), rcond=None)


def test_lstsq_rows_raises_on_nan():
    A = RNG.normal(size=(4, 3, 2))
    A[2, 1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        lstsq_rows(A, np.ones((4, 3)))


# ---------------------------------------------------------------------------
# chain inverse and point location against the one-point loops they replaced


def ref_fiber_block(psi, v, vn, bp, w1):
    """d/dv of v + beta(|v| / (eps rho)) s(t) in the fiber, per row, for one
    local diffeomorphism."""
    J = np.tile(np.eye(psi.m - psi.l), (len(v), 1, 1))
    sel = (vn > 0.0) & (bp != 0.0)
    coef = (bp * w1 / psi.epsilon)[sel]
    J[sel] += coef[:, None, None] * (psi.v[:, None] * (v[sel] / vn[sel, None])[:, None, :])
    return J


def ref_fiber_invert(psi, t, w):
    """One-point fiber Newton: solve v + beta(|v| / (eps rho)) s = w."""
    rho = bump.rho_l(t)
    fade = psi.epsilon * rho
    if fade <= 0.0 or float(np.linalg.norm(w)) >= fade:
        return w
    s = oracles.scaled_warp(rho, 0) * psi.v
    if not s.any():
        return w
    w1 = oracles.scaled_warp(rho, 1)
    v = np.array(w, float)
    for _ in range(50):
        vn = float(np.linalg.norm(v))
        r = vn / fade
        g = v + oracles.beta(r) * s - w
        if float(np.linalg.norm(g)) < 1e-12:
            return v
        bp = np.array([oracles.beta_deriv(r)])
        Jg = ref_fiber_block(psi, v[None], np.array([vn]), bp, w1)
        v = v - np.linalg.solve(Jg[0], g)
    raise AssertionError("reference fiber Newton did not converge")


def ref_runs(links):
    """The chain's contiguous same-level runs, as lists of links."""
    runs = []
    for lk in links:
        if runs and runs[-1][0].level == lk.level:
            runs[-1].append(lk)
        else:
            runs.append([lk])
    return runs


def ref_box_hits(run, X):
    """(link, rows of X in its box) for the links of a run with a hit."""
    lo = np.array([lk.support_lo for lk in run])
    hi = np.array([lk.support_hi for lk in run])
    inside = np.all((X[:, None, :] >= lo) & (X[:, None, :] <= hi), axis=2)
    return [(run[j], np.nonzero(inside[:, j])[0]) for j in np.nonzero(inside.any(axis=0))[0]]


def ref_chain_invert(state, x):
    """Preimage of one point under the state's chain, its evaluated links:
    a box test per same-level run, then every link in it, oldest first,
    re-testing its own box."""
    for run in ref_runs(state._evaluated):
        for link, _ in ref_box_hits(run, x[None]):
            if not link.in_box(x):
                continue
            t, w = oracles.frame_coords(link.chart, x)
            v = ref_fiber_invert(link.local, t, w)
            if v is not w:
                x = link.chart.frame_point(t, v)
    return x


def ref_moves(psi, t, v, with_jacobian):
    """One link's fiber map on the rows of t and v, as the per-link chain
    evaluated it, with the oracle bump forms: the rows that move, their new
    fibers and on request the local Jacobians.  rho_l is bump's, which the
    wide-fade tests replace."""
    l, m = psi.l, psi.m
    J = np.tile(np.eye(m), (len(v), 1, 1)) if with_jacobian else None
    rho = bump.rho_l(t)
    fade = psi.epsilon * rho
    vn = row_norms(v)
    rows = np.nonzero((fade > 0.0) & (vn < fade))[0]
    rho, fade, vn = rho[rows], fade[rows], vn[rows]
    s = oracles.scaled_warp(rho, 0)[:, None] * psi.v
    nz = s.any(axis=1)
    if not rows.size:
        return rows, v[:0], J
    r = vn / fade
    b = oracles.beta(r)
    v2 = v[rows[nz]] + b[nz, None] * s[nz]
    if with_jacobian:
        w1 = oracles.scaled_warp(rho, 1)
        w2 = oracles.scaled_warp(rho, 2)
        bp = oracles.beta_deriv(r)
        if l:
            J[rows, l:, :l] = (psi.v[:, None] * oracles.rho_l_grad(t[rows])[:, None, :]
                               * (b * w2 - bp * r * w1)[:, None, None])
        J[rows, l:, l:] = ref_fiber_block(psi, v[rows], vn, bp, w1)
    return rows[nz], v2, J


def ref_link_step(link, x, with_jacobian):
    """One link on the rows of x, re-testing its box: the new rows and the
    link's Jacobians, the identity for rows outside the box."""
    J = np.tile(np.eye(x.shape[1]), (len(x), 1, 1))
    rows = np.nonzero(link.box_mask(x))[0]
    if not rows.size:
        return x, J
    t, v = oracles.frame_coords(link.chart, x[rows])
    moved, v2, Jloc = ref_moves(link.local, t, v, with_jacobian)
    if moved.size:
        x = x.copy()
        x[rows[moved]] = link.chart.frame_point(t[moved], v2)
    if with_jacobian:
        J[rows] = link.chart._M @ Jloc @ link.chart._Minv
    return x, J


def ref_chain_forward(links, x, with_jacobian):
    """The chain at the rows of x link by link: a box test per same-level
    run, newest run first, then each link with a box hit, newest first, on
    the rows that were in its box at the start of the run."""
    X = np.array(x, float)
    J = np.tile(np.eye(X.shape[1]), (len(X), 1, 1))
    for run in reversed(ref_runs(links)):
        for link, rows in reversed(ref_box_hits(run, X)):
            X[rows], Jl = ref_link_step(link, X[rows], with_jacobian)
            J[rows] = Jl @ J[rows]
    return X, J


def ref_carrier(realization, tops, x, tol):
    """Carrier of one point from the first top, in order, whose padded box
    and closed simplex hold it, with one least-squares solve per top."""
    for s in tops:
        pts = realization.simplex_points(s)
        if not np.all((x >= pts.min(axis=0) - 10.0 * tol) & (x <= pts.max(axis=0) + 10.0 * tol)):
            continue
        A = np.vstack([pts.T, np.ones((1, len(pts)))])
        lam = np.linalg.lstsq(A, np.concatenate([x, [1.0]]), rcond=None)[0]
        resid = float(np.linalg.norm(pts.T @ lam - x))
        if resid > tol * max(1.0, float(np.abs(pts).max())) or lam.min() < -tol:
            continue
        return sc.carrier_face(s, lam, tol)[0]
    return None


@pytest.mark.parametrize("kind", ["interior", "near_vertex", "outside"])
def test_chain_inverse_rows_equal_single_points(scenario_a_run, kind):
    state = scenario_a_run["state"]
    x = state.eval_eta(_probe_points(state, kind))
    pre = state.eval_eta_inverse(x)
    assert same_bits(pre, [state.eval_eta_inverse(p) for p in x])
    assert same_bits(pre, [ref_chain_invert(state, p) for p in x])
    assert np.abs(state.eval_eta(pre) - x).max() < 1e-12
    if kind == "outside":
        assert same_bits(pre, x)
    if kind == "near_vertex":
        assert (pre != x).any(axis=1).sum() > len(x) // 2


def assert_chain_equals_link_by_link(links, pts):
    ops = ChainOps(links)
    x, J = ops.apply_with_jacobian(pts)
    rx, rJ = ref_chain_forward(links, pts, True)
    assert same_bits(x, rx) and same_bits(J, rJ)
    assert same_bits(ops.apply(pts), ref_chain_forward(links, pts, False)[0])
    for p in pts[:8]:  # N = 1, as a row and as a point
        assert same_bits(ops.apply_with_jacobian(p[None])[1], ref_chain_forward(links, p[None], True)[1])
        assert same_bits(ops.apply(p), rx[np.all(pts == p, axis=1)][0])


def assert_state_equals_link_by_link(state, pts):
    """The state's chain runs its evaluated links alone, which are its
    level-0 links at the paper's fade rate, as the link-by-link oracle
    over them does, bit for bit."""
    assert state._evaluated == tuple(lk for lk in state.links if lk.level == 0)
    x, J = state.eval_eta_with_jacobian(pts)
    rx, rJ = ref_chain_forward(state._evaluated, pts, True)
    assert same_bits(x, rx) and same_bits(J, rJ)
    assert same_bits(state.eval_eta(pts), rx)


def most_box_hits_in_one_run(links, pts):
    return max(np.sum([lk.box_mask(pts) for lk in run], axis=0).max() for run in ref_runs(links))


@pytest.mark.parametrize("kind", ["interior", "near_vertex", "outside"])
def test_chain_runs_equal_link_by_link(scenario_a_run, kind):
    state = scenario_a_run["state"]
    pts = _probe_points(state, kind)
    if kind == "near_vertex":
        pts = np.concatenate([pts, [state.realization.point(v) for v in state.complex.vertex_ids]])
    assert_chain_equals_link_by_link(state.links, pts)
    assert_state_equals_link_by_link(state, pts)
    if kind == "near_vertex":
        # edge boxes overlap at their shared vertex, and a diagonal edge's box
        # covers its whole grid cell: a row near an interior vertex hits 6
        # boxes of the level-1 run, and the vertex itself 8
        level1 = [lk for lk in state.links if lk.level == 1]
        hits = np.sum([lk.box_mask(pts) for lk in level1], axis=0)
        assert hits.max() == 8 and (hits >= 5).sum() >= 30


TETRAHEDRA = {
    # frame products round on a skew tetrahedron; the axis-aligned one has
    # exact zero and unit frame entries
    "skew": {0: (0.1, 0.0, 0.2), 1: (1.3, 0.1, 0.0), 2: (0.2, 1.1, 0.3), 3: (0.4, 0.3, 1.2)},
    "grid": {0: (0.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0), 2: (1.0, 1.0, 0.0), 3: (1.0, 1.0, 1.0)},
}


def _tetrahedron_chain(shape):
    """Links at levels 0, 1 and 2 on every face of one tetrahedron, built by
    hand with epsilon 0.1."""
    cplx = sc.build_complex(4, [(0, 1, 2, 3)])
    coords = TETRAHEDRA[shape]
    real = sc.GeometricRealization({k: np.array(v) for k, v in coords.items()}, cplx)
    state = TriangulationState(cplx, real)
    rng = np.random.default_rng(7)
    links = []
    for level in range(3):
        for face in itertools.combinations(range(4), level + 1):
            u = rng.normal(size=3 - level)
            psi = LocalDiffeo(make_chart(state, sc.Simplex(face)), 0.1, 0.1,
                              0.009 * u / np.linalg.norm(u))
            links.append(perturb.extend_to_ambient([psi])[0])
    return TriangulationState(cplx, real, links), real.simplex_points(sc.Simplex((0, 1, 2, 3)))


def _on_box_faces(links, per_link=6, rng=RNG):
    """Points on a face of each link's closed box, where the box tests are
    decided by equality."""
    out = []
    for lk in links:
        m = lk.support_lo.size
        p = rng.uniform(lk.support_lo, lk.support_hi, size=(per_link, m))
        k = rng.integers(m, size=per_link)
        p[np.arange(per_link), k] = np.where(rng.random(per_link) < 0.5,
                                             lk.support_lo[k], lk.support_hi[k])
        out.append(p)
    return np.concatenate(out)


@pytest.mark.parametrize("shape", ["skew", "grid"])
@pytest.mark.parametrize("fade", ["paper", "wide"])
def test_chain_runs_equal_link_by_link_in_space(monkeypatch, fade, shape):
    state, corners = _tetrahedron_chain(shape)
    near = np.repeat(corners, 20, axis=0) + 0.02 * RNG.normal(size=(80, 3))
    inner = RNG.dirichlet(np.ones(4), 80) @ corners
    faces = np.concatenate([RNG.dirichlet(np.ones(3), 40) @ corners[list(f)]
                            for f in itertools.combinations(range(4), 3)])
    pts = np.concatenate([near, inner, faces + 0.002 * RNG.normal(size=faces.shape),
                          RNG.uniform(-0.2, 1.4, size=(80, 3)), _on_box_faces(state.links)])
    if fade == "wide":
        # rho_l ** (1 / (l + 1)) lets triangle links move points, where the
        # paper's fade underflows: this reaches the frame point of a
        # triangle, whose edge matrix is F-ordered
        rho_l = bump.rho_l
        monkeypatch.setattr(bump, "rho_l", lambda t: rho_l(t) ** (1.0 / (np.shape(t)[-1] + 1)))
        level2 = [lk for lk in state.links if lk.level == 2]
        assert (ChainOps(level2).apply(pts) != pts).any(axis=1).sum() > 20
    assert_chain_equals_link_by_link(state.links, pts)
    if fade == "paper":  # the bounds that skip links hold for the paper's fade
        assert_state_equals_link_by_link(state, pts)
    assert most_box_hits_in_one_run(state.links, pts) >= 2
    x = state.eval_eta(pts)
    assert (x != pts).any(axis=1).sum() > 40
    if fade == "paper":
        pre = state.eval_eta_inverse(x)
        assert same_bits(pre, [ref_chain_invert(state, p) for p in x])
        assert np.abs(pre - pts).max() < 1e-12


def test_rows_pushed_out_of_a_box_skip_its_link(monkeypatch):
    # two parallel edges 0.003 apart with overlapping boxes; under a wide
    # fade the newer link pushes points on a face of the older link's box
    # out of it before that link re-tests its box
    cplx = sc.build_complex(4, [(0, 1), (2, 3)])
    coords = {0: (1.0, 0.0), 1: (0.0, 0.0), 2: (1.0, 0.003), 3: (0.0, 0.003)}
    real = sc.GeometricRealization({k: np.array(v) for k, v in coords.items()}, cplx)
    base = TriangulationState(cplx, real)
    older, newer = [perturb.extend_to_ambient([LocalDiffeo(make_chart(base, sc.Simplex(e)),
                                                           0.1, 0.1, np.array([v]))])[0]
                    for e, v in (((0, 1), -0.009), ((2, 3), 0.009))]
    rho_l = bump.rho_l
    monkeypatch.setattr(bump, "rho_l", lambda t: rho_l(t) ** (1.0 / (np.shape(t)[-1] + 1)))
    x = np.linspace(0.25, 0.75, 40)
    pts = np.stack([x, np.full_like(x, older.support_hi[1])], axis=1)
    assert older.box_mask(pts).all() and newer.box_mask(pts).all()
    assert not older.box_mask(newer.apply(pts)).any()
    assert_chain_equals_link_by_link([older, newer], pts)


@pytest.mark.parametrize("case", ["scenario_a-1", "scenario_a-2", "scenario_a-3",
                                  "scenario_b-1", "scenario_b-2", "scenario_b-3",
                                  "skew", "grid"])
def test_cached_frame_product_is_the_conjugated_identity(case):
    # an in-box hit with a fiber Jacobian of exactly I takes P[j] for
    # M[j] @ I @ M^-1[j]; the tetrahedra's triangle frames are F-ordered
    # stacks, which BLAS rounds apart from C-ordered ones
    if case in ("skew", "grid"):
        state = _tetrahedron_chain(case)[0]
    else:
        name, seed = case.split("-")
        base, h, config = _verify_only_case(name)
        state = perturb.make_transverse(base.complex, base.realization, h,
                                        config.replace(seed=int(seed)))[0]
    runs = ChainOps(state.links).runs
    assert runs
    for run in runs:
        n, m = len(run.links), run.M.shape[1]
        for j in (np.arange(n), np.arange(n)[::-1], *np.arange(n)[:, None]):
            assert same_bits(run.P[j], run.M[j] @ np.tile(np.eye(m), (j.size, 1, 1))
                             @ run.Minv[j])
        if case in ("skew", "grid") and run.l == 2:
            assert run.M[0].flags.f_contiguous and not run.M.flags.c_contiguous


def ref_hits(run, X):
    """Box hits of the rows of X by the dense test of every row against every
    box of a run: (rows, links, rank), each row's links newest first."""
    lo = np.array([lk.support_lo for lk in run.links])
    hi = np.array([lk.support_hi for lk in run.links])
    rows, boxes = dense_box_pairs(lo[::-1], hi[::-1], X)
    return rows, len(run.links) - 1 - boxes, np.arange(rows.size) - np.searchsorted(rows, rows)


def _final_verify_rows(monkeypatch, run):
    """Every row at which scenario A's final verify evaluates the chain, on
    a fresh state with the final links, which keeps no search result."""
    rows, forward = [], ChainOps._forward
    final = run["state"]

    def spy(self, x, with_jacobian):
        rows.append(np.reshape(x, (-1, np.shape(x)[-1])))
        return forward(self, x, with_jacobian)

    with monkeypatch.context() as mp:
        mp.setattr(ChainOps, "_forward", spy)
        verify_triangulation(TriangulationState(final.complex, final.realization, final.links),
                             run["h"], run["config"])
    return np.concatenate(rows)


def _off_grid(lo, hi):
    """Rows just outside the cell grid of the boxes lo[k]..hi[k], one per
    axis and side, far away, and holding NaN or an infinity."""
    lo, hi = lo.min(axis=0), hi.max(axis=0)
    out = []
    for a in range(lo.size):
        for value in (np.nextafter(lo[a], -np.inf), np.nextafter(hi[a], np.inf),
                      -1e300, 1e300, np.nan, np.inf, -np.inf):
            p = 0.5 * (lo + hi)
            p[a] = value
            out.append(p)
    return np.array(out)


def _far_apart_chain():
    """Two vertex links 1e25 apart: cells of their box size would need keys
    beyond 2^63."""
    cplx = sc.build_complex(4, [(0, 1)])
    real = sc.GeometricRealization({0: np.array([0.0, 0.0]), 1: np.array([1e25, 1.0])}, cplx)
    base = TriangulationState(cplx, real)
    return [perturb.extend_to_ambient([LocalDiffeo(make_chart(base, sc.Simplex((v,))), 0.1, 0.1,
                                                   np.array([0.009, 0.0]))])[0]
            for v in (0, 1)]


@pytest.mark.parametrize("chain", ["scenario_a", "tetrahedron", "far_apart"])
def test_box_hits_equal_the_dense_box_test(monkeypatch, scenario_a_run, chain):
    rng = np.random.default_rng(18)
    if chain == "scenario_a":
        links = scenario_a_run["state"].links
        pts = _final_verify_rows(monkeypatch, scenario_a_run)
    elif chain == "tetrahedron":
        links = _tetrahedron_chain("skew")[0].links
        pts = rng.uniform(-0.2, 1.4, size=(400, 3))
    else:
        links = _far_apart_chain()
        pts = np.concatenate([rng.uniform(lk.support_lo, lk.support_hi, size=(50, 2)) for lk in links])
    pts = np.concatenate([pts, _on_box_faces(links, rng=rng)])
    for run in ChainOps(links).runs:
        off = _off_grid(run.lo, run.hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of an off-grid row to a cell
            got = run.hits(np.concatenate([pts, off]))
        want = ref_hits(run, np.concatenate([pts, off]))
        assert len(want) == 3 and all(np.array_equal(g, w) for g, w in zip(got[:3], want))
        assert same_bits(got[3], np.concatenate([pts, off])[got[0]])
        assert got[0].max() < len(pts)  # no row off the grid has a hit
    if chain == "scenario_a":
        assert got[2].max() >= 7  # the level-1 run, last, has rows with 8 hits


def _flat_index():
    """The location index of two triangles in the plane z = 0.5 of R^3: at
    tol = 0 their boxes have zero extent along z."""
    coords = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [1.0, 1.0], 3: [0.0, 1.0]}
    cplx = sc.build_complex(4, [(0, 1, 2), (0, 2, 3)])
    real = sc.GeometricRealization({v: np.array(p + [0.5]) for v, p in coords.items()}, cplx)
    return sc._TopIndex.of(real, sorted(cplx.top_simplices(), key=sc.simplex_sort_key))


@pytest.mark.parametrize("boxes", ["random_2d", "random_3d", "single", "flat"])
def test_box_cells_equal_the_dense_box_pairs(boxes):
    # random rows, rows on box faces and at box corners, where the box test
    # is decided by equality, and rows off the grid, NaN or infinite
    rng = np.random.default_rng(21)
    if boxes == "flat":
        index = _flat_index()
        lo, hi = index.lo, index.hi
    else:
        m, k = (2, 40) if boxes == "random_2d" else (3, 40 if boxes == "random_3d" else 1)
        lo = rng.uniform(-1.0, 1.0, size=(k, m))
        hi = lo + rng.uniform(0.0, 0.4, size=(k, m))
    m = lo.shape[1]
    pick = rng.integers(len(lo), size=300)
    corner = rng.random((300, m)) < 0.5
    face = corner & (np.arange(m) == rng.integers(m, size=(300, 1)))
    inner, off = rng.uniform(lo[pick], hi[pick]), _off_grid(lo, hi)
    pts = np.concatenate([
        rng.uniform(lo.min(axis=0) - 0.1, hi.max(axis=0) + 0.1, size=(300, m)), inner,
        np.where(face, lo[pick], inner), np.where(face, hi[pick], inner),
        np.where(corner, lo[pick], hi[pick]), off])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide by a zero cell size, no cast of NaN
        got = sc._BoxCells(lo, hi).hits(pts)
        assert same_bits(got[2], pts[got[0]])
        got = got[:2]
        if boxes == "flat":
            hits = index.first_hits(pts, 0.0)
            carriers = index.carriers(pts, 0.0)
    want = dense_box_pairs(lo, hi, pts)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[0].max() < len(pts) - len(off) and len(np.unique(got[0])) > 900
    if boxes == "flat":
        # whole-complex location solves the dense pairs
        assert same_hits(hits, index._solve(pts, *want, 0.0))
        assert carriers == [None] * len(pts)


@pytest.mark.parametrize("fade", ["paper", "wide"])
def test_moving_hits_pass_the_skip_bound(monkeypatch, scenario_a_run, fade):
    # every hit that fiber_moves moves (or finds inside its fade radius with
    # a nonzero shift) must not be skipped; points sit just inside the fade
    # radius at the barycentre and at random simplex points of every link
    if fade == "wide":
        rho_l = bump.rho_l
        monkeypatch.setattr(bump, "rho_l", lambda t: rho_l(t) ** (1.0 / (np.shape(t)[-1] + 1)))
    rng = np.random.default_rng(18)
    for links in (scenario_a_run["state"].links, _tetrahedron_chain("skew")[0].links):
        pts = []
        for lk in links:
            l, m = lk.level, lk.support_lo.size
            t = np.concatenate([np.full((1, l), 1.0 / (l + 1)), rng.dirichlet(np.ones(l + 1), 7)[:, :l]])
            t = np.repeat(t, 3, axis=0)
            u = rng.normal(size=(len(t), m - l))
            radius = lk.local.epsilon * bump.rho_l(t) * np.tile([1.0 - 1e-12, 0.999, 0.5], 8)
            pts.append(lk.chart.frame_point(t, u / np.linalg.norm(u, axis=1, keepdims=True)
                                            * radius[:, None]))
        pts = np.concatenate(pts)
        for run in ChainOps(links).runs:
            rows, j, _, x = run.hits(pts)
            t, w = run._frame(x, j)
            moved = fiber_moves(t, w, run.eps[j], run.v[j])[0]
            assert run.movable(t, row_norms(w), j)[moved].all()
            # the paper's fade underflows the warp of triangle links
            assert moved.size > 0 or (fade == "paper" and run.l == 2)


def _edge_rows_across_the_band():
    """One edge link's fiber map arguments (t, w, eps, v), with rows on both
    sides of r = 1/2 and at and beyond the fade radius, and each row's |w|
    over its fade radius."""
    link = [lk for lk in _tetrahedron_chain("skew")[0].links if lk.level == 1][0]
    t = np.repeat(np.linspace(0.2, 0.8, 7), 6)[:, None]
    frac = np.tile([0.0, 0.3, 0.45, 0.55, 0.95, 1.2], 7)
    u = np.random.default_rng(22).normal(size=(len(t), 2))
    w = u / row_norms(u)[:, None] * (frac * link.local.epsilon * bump.rho_l(t))[:, None]
    eps = np.full(len(t), link.local.epsilon)
    return (t, w, eps, np.tile(link.local.v, (len(t), 1))), frac


def _entrywise_passes(monkeypatch, call):
    """The math functions of the bump.entrywise passes call() makes, and its result."""
    passes, entrywise = [], bump.entrywise

    def spy(fn, x):
        passes.append(fn)
        return entrywise(fn, x)

    monkeypatch.setattr(bump, "entrywise", spy)
    out = call()
    monkeypatch.undo()
    return passes, out


@pytest.mark.parametrize("with_jacobian,most", [(False, 5), (True, 10)])
def test_fiber_moves_takes_few_entrywise_passes(monkeypatch, with_jacobian, most):
    # one call on an edge link with rows on both sides of r = 1/2: each
    # transcendental of a fade term is taken once, and derivative-only work
    # waits for the Jacobian
    (t, w, eps, v), frac = _edge_rows_across_the_band()
    passes, (moved, _, _, support) = _entrywise_passes(
        monkeypatch, lambda: fiber_moves(t, w, eps, v, with_jacobian))
    r = row_norms(w) / (eps * bump.rho_l(t))
    assert (r[support] < 0.5).any() and (r[support] > 0.5).any() and moved.size
    assert support.tolist() == np.nonzero(frac < 1.0)[0].tolist()
    assert len(passes) <= most


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_fused_fiber_moves_takes_one_exp_pass_after_rho_l(monkeypatch, with_jacobian):
    # rho_l takes its own exp pass; then every fade term, beta's factors and
    # the gradient's factors take their exps in one pass, after one log
    # pass for the Jacobian's warp powers
    args, _ = _edge_rows_across_the_band()
    passes, _ = _entrywise_passes(monkeypatch, lambda: fiber_moves(*args, with_jacobian))
    assert passes == [math.exp] + [math.log] * with_jacobian + [math.exp]


def assert_moves_equal_ref(psi, t, w):
    """fiber_moves of one link at the rows of t and w equals ref_moves bit
    for bit, with and without the Jacobian; returns its support rows."""
    eps, v = np.full(len(w), psi.epsilon), np.tile(psi.v, (len(w), 1))
    for with_jacobian in (False, True):
        moved, w2, J, support = fiber_moves(t, w, eps, v, with_jacobian)
        rows, v2, Jref = ref_moves(psi, t, w, with_jacobian)
        assert moved.tolist() == rows.tolist() and same_bits(w2, v2)
        if with_jacobian:
            full = np.tile(np.eye(psi.m), (len(w), 1, 1))
            full[support] = J
            assert J.shape == (support.size, psi.m, psi.m) and same_bits(full, Jref)
    return support


def _rows_at_radii(psi, t, radii):
    """Rows (t, w) of one link with |w| / (eps rho_l(t)) = radii exactly, w
    along the first fiber axis, for every row of t."""
    t = np.repeat(t, len(radii), axis=0)
    fade = psi.epsilon * bump.rho_l(t)
    w = np.zeros((len(t), psi.m - psi.l))
    w[:, 0] = np.tile(radii, len(t) // len(radii)) * fade
    return t, w, fade


@pytest.mark.parametrize("level", [0, 1, 2])
def test_fused_fiber_moves_equals_its_reference_at_the_glue_radii(level):
    # r exactly 1/2 and 1 and their neighbouring floats, r - 1/2 and 1 - r
    # below 1/_LOG_SAFE_U (beta' takes its log-domain branch), rows off the
    # fade support and off the open simplex, and an empty call
    psi = [lk for lk in _tetrahedron_chain("skew")[0].links if lk.level == level][0].local
    half = 0.5 + np.array([-0.25, 0.0, 1e-9, 1e-3, 1.9e-3, 0.25, 0.499])
    tails = np.array([np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0),
                      1.0 - 1e-3, 1.0, np.nextafter(1.0, 2.0), 1.5])
    ts = RNG.dirichlet(np.ones(level + 1), 4)[:, :level]
    t, w, fade = _rows_at_radii(psi, ts, np.concatenate([[0.0], half, tails]))
    w[::3, 0] *= -1.0
    r = row_norms(w) / fade
    assert {0.5, 1.0} <= set(r.tolist()) and (1.0 / (r[(r > 0.5) & (r < 1.0)] - 0.5) > 500).any()
    assert (1.0 / (1.0 - r[(r > 0.5) & (r < 1.0)]) > 500).any()
    if level:
        off = np.full((3, level), 0.25)
        off[0, 0], off[1, 0], off[2, -1] = -0.1, 1.2, 0.0
        t, w = np.concatenate([t, off]), np.concatenate([w, np.full((3, w.shape[1]), 1e-4)])
    support = assert_moves_equal_ref(psi, t, w)
    assert 0 < support.size < len(w) - 3
    assert_moves_equal_ref(psi, t[:0], w[:0])


def test_vertex_fiber_moves_read_rho_0_through_the_seam(monkeypatch):
    # a vertex's rho_0 is read once per call, through bump.rho_l; with it at
    # 1/2 the fade radius halves, so rows between eps / 2 and eps stay put
    psi = [lk for lk in _tetrahedron_chain("skew")[0].links if lk.level == 0][0].local
    rho_l = bump.rho_l
    monkeypatch.setattr(bump, "rho_l",
                        lambda t: np.full(np.shape(t)[:-1], 0.5) if np.shape(t)[-1] == 0 else rho_l(t))
    u = RNG.normal(size=(60, 3))
    frac = np.linspace(0.0, 1.2, 60)
    w = u / row_norms(u)[:, None] * (frac * psi.epsilon)[:, None]
    support = assert_moves_equal_ref(psi, np.zeros((60, 0)), w)
    assert support.tolist() == np.nonzero(row_norms(w) < 0.5 * psi.epsilon)[0].tolist()


def test_bump_forms_emit_no_warnings():
    rs = np.concatenate([_radii(), [5e-324, -5e-324, 1e-310, 2.2e-308, 1e-300, 1e-155,
                                    0.0, -0.0, np.inf, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bump.rho(rs)
        for k in range(bump.RHO_DERIV_MAX + 1):
            bump.rho_deriv(rs, k)
        bump.beta(rs)
        bump.beta_deriv(rs)
        for power in range(3):
            bump.scaled_warp(rs, power)
        bump.rho_l(rs[:, None])
        bump.rho_l_grad(rs[:, None])
        # rows of l = 2 and 3 mixing +inf, -inf, NaN and a finite entry; a
        # row holding both infinities has the factor 1 - sum t = NaN
        for l in (2, 3):
            ts = np.array(list(itertools.product([np.inf, -np.inf, np.nan, 0.25], repeat=l)))
            bump.rho_l(ts)
            bump.rho_l_grad(ts)


@pytest.mark.parametrize("kind", ["interior", "near_vertex", "outside"])
def test_point_location_rows_equal_single_points(scenario_a_run, kind):
    state, config = scenario_a_run["state"], scenario_a_run["config"]
    sd = subdivision_data(state)
    pts = _probe_points(state, kind)
    carriers = sd.carrier(pts)
    assert carriers == [sd.carrier(p[None])[0] for p in pts]
    assert carriers == [ref_carrier(sd.realization, sd.tops, p, 1e-10) for p in pts]
    assert (kind == "outside") == all(c is None for c in carriers)
    # vertex 12 is (0, 0), 7 is (-1, 0) and 13 is (0, 1)
    locator = StarLocator(sd.index, config.barycentric_tol)
    vertices = [sd.barycenter_ids[s]
                for s in (sc.Simplex((12,)), sc.Simplex((7, 12)), sc.Simplex((7, 12, 13)))]
    seen_inside = False
    for v in vertices:
        inside, held = locator.contains_base_point(pts, v)
        assert inside.dtype == held.dtype == bool and inside.shape == held.shape == (len(pts),)
        singles = [locator.contains_base_point(p[None], v) for p in pts]
        assert inside.tolist() == [a[0] for a, _ in singles]
        assert held.tolist() == [b[0] for _, b in singles]
        star_tops = [t for t in sd.tops if v in t.vertices]
        star_set = sc.star(sd.cplx, sc.Simplex((v,)))
        want = [ref_carrier(sd.realization, star_tops, p, locator.tol) for p in pts]
        assert inside.tolist() == [c in star_set for c in want]
        assert held.tolist() == [c is not None for c in want]
        seen_inside |= inside.any()
    assert seen_inside == (kind != "outside")
    # one star per row gives each row its own star's answer
    per_row = np.resize(vertices, len(pts))
    mixed = locator.contains_base_point(pts, per_row)
    for v in vertices:
        alone = locator.contains_base_point(pts, v)
        for got, want in zip(mixed, alone):
            assert got[per_row == v].tolist() == want[per_row == v].tolist()


def same_hits(a, b):
    """Equal bits in every array of two first_hits results."""
    return len(a) == len(b) and all(same_bits(x, y) and x.shape == y.shape for x, y in zip(a, b))


def _per_star_index(sd, v):
    """A location index over the tops of one star alone, in simplex order,
    and their positions in the whole complex's index."""
    ids = [j for j, t in enumerate(sd.tops) if v in t.vertices]
    return sc._TopIndex.of(sd.realization, [sd.tops[j] for j in ids]), np.array(ids)


@pytest.mark.parametrize("kind", ["interior", "near_vertex", "outside"])
def test_star_restricted_hits_equal_a_per_star_index(scenario_a_run, monkeypatch, kind):
    # rows located against their own star in the whole complex's index get
    # the hits, coordinates and residuals of an index over that star alone,
    # also when the rows are split into blocks of a few pairs
    sd = subdivision_data(scenario_a_run["state"])
    pts = _probe_points(scenario_a_run["state"], kind)
    locator = StarLocator(sd.index)
    # every other located row takes a star that holds it, the rest any star
    vertices = np.resize(sorted(sd.barycenter_ids.values()), len(pts))
    rows, top, _, _ = sd.index.first_hits(pts, 1e-10)
    vertices[rows[::2]] = [sd.tops[j].vertices[-1] for j in top[::2]]
    got = sd.index.first_hits(pts, 1e-10, (locator.star, vertices))
    monkeypatch.setattr(sc, "_BLOCK_PAIRS", 7)
    assert same_hits(got, sd.index.first_hits(pts, 1e-10, (locator.star, vertices)))
    want = [[] for _ in range(4)]
    for i, (p, v) in enumerate(zip(pts, vertices)):
        index, ids = _per_star_index(sd, v)
        rows, top, lam, resid = index.first_hits(p[None], 1e-10)
        for parts, value in zip(want, (rows + i, ids[top], lam, resid)):
            parts.append(value)
    want = [np.concatenate(parts) for parts in want]
    assert (want[0].size == 0) == (kind == "outside")
    assert same_hits(got[:2] + got[3:], want[:2] + want[3:])
    assert same_bits(got[2][:, :want[2].shape[1]], want[2])


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_blocked_location_equals_one_block(monkeypatch, name):
    state, _, _ = _verify_only_case(name)
    sd = subdivision_data(state)
    lo, hi = state.bbox()
    pts = RNG.uniform(lo, hi, size=(300 if name == "scenario_a" else 60, state.ambient_dim))
    whole = sd.index.first_hits(pts, 1e-10)
    assert 0 < whole[0].size < len(pts)
    monkeypatch.setattr(sc, "_BLOCK_PAIRS", 3 * len(sd.tops) + 1)
    assert same_hits(sd.index.first_hits(pts, 1e-10), whole)
    assert sd.carrier(pts) == [ref_carrier(sd.realization, sd.tops, p, 1e-10) for p in pts]


def _near_faces(sd, tol):
    """Points 0.9 tol and 1.1 tol off a face of each top, on both sides,
    and the vertex opposite that face: the thresholds of the acceptance
    test (-tol) and of the carrier (tol)."""
    pts, vertex = [], []
    for j, top in enumerate(sd.tops):
        corners = sd.realization.simplex_points(top)
        i = RNG.integers(len(corners))
        for off in (-1.1, -0.9, 0.9, 1.1):
            lam = RNG.dirichlet(np.ones(len(corners)))
            lam[i] = 0.0
            lam *= (1.0 - off * tol) / lam.sum()
            lam[i] = off * tol
            pts.append(lam @ corners)
            vertex.append(top.vertices[i])
    return np.array(pts), np.array(vertex)


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_affine_location_equals_the_least_squares_oracle(monkeypatch, name):
    # random points with rows off the grid of the padded top boxes (NaN,
    # infinite or far), the fiber samples of every containment_ok round of
    # the sampled clearance search at every level (located by the oracle, so
    # the samples do not depend on the kernel under test), and points near
    # the faces of every top; the samples no star top holds are those
    # containment_ok locates in the whole complex
    state, _, config = _verify_only_case(name)
    tol = config.barycentric_tol
    spied, seen = StarLocator.contains_base_point, []

    def spy(self, p, vertex):
        seen.append((p, np.broadcast_to(vertex, (len(p),))))
        return spied(self, p, vertex)

    sd = subdivision_data(state)
    with monkeypatch.context() as m:
        m.setattr(StarLocator, "contains_base_point", spy)
        m.setattr(sc._TopIndex, "_solve", lstsq_solve)
        for level in range(state.ambient_dim):
            oracles.sampled_c_sigma(state, state.complex.by_dim(level), config, sd)
    locator = StarLocator(sd.index, tol)
    lo, hi = state.bbox()
    random = np.concatenate([RNG.uniform(lo, hi, size=(100, state.ambient_dim)),
                             _off_grid(sd.index.lo - tol * sd.index.pad,
                                       sd.index.hi + tol * sd.index.pad)])
    near, near_vertex = _near_faces(sd, tol)
    samples, vertex = (np.concatenate(parts) for parts in zip(*seen))
    lost = samples[~locator.contains_base_point(samples, vertex)[1]]

    def locate(pts, vertex, whole):
        stars = locator.contains_base_point(pts, vertex)
        return stars, (sd.index.first_hits(whole, tol), sd.index.carriers(whole, tol))

    cases = [(random, np.resize(sorted(sd.barycenter_ids.values()), len(random)), random),
             (samples, vertex, lost), (near, near_vertex, near)]
    got = [locate(*case) for case in cases]
    with monkeypatch.context() as m:
        m.setattr(sc._TopIndex, "_solve", lstsq_solve)
        want = [locate(*case) for case in cases]
    for (stars, (hits, carriers)), (stars_w, (hits_w, carriers_w)) in zip(got, want):
        assert [a.tolist() for a in stars] == [a.tolist() for a in stars_w]
        assert hits[0].tolist() == hits_w[0].tolist() and hits[1].tolist() == hits_w[1].tolist()
        for a, b in zip(hits[2:], hits_w[2:]):
            assert a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= 1e-12
        assert carriers == carriers_w
    # every set locates points; the near-face points reach the carrier's
    # threshold (faces and tops among the carriers) and the acceptance
    # test's: every point 0.9 tol outside a face is held, and some 1.1 tol
    # outside a boundary face are not
    assert all(g[1][0][0].size for g in got)
    assert got[0][1][0][0].max() < 100 and not any(got[0][0][1][100:])
    dims = {c.dim for c in got[2][1][1] if c is not None}
    assert {state.ambient_dim - 1, state.ambient_dim} <= dims
    held = set(got[2][1][0][0].tolist())
    assert set(range(1, len(near), 4)) <= held and not set(range(0, len(near), 4)) <= held


def chart_eval_jac(state, chart, t, v):
    """A chart's frame points (t, v) pushed through the chain of state, and
    their m x m Jacobians in (t, v) block order."""
    x, J = state.eval_eta_with_jacobian(chart.frame_point(t, v))
    return x, J @ np.hstack([chart.tangent, chart.normal])


def ref_containment_ok(state, chart, locator, vertex, lattice, dirs, c, sd_data):
    """Sequential scan: one sample at a time pushed through the chain of state
    and pulled back, stopping at the first that lands neither in the star of
    vertex nor outside the complex."""
    ts, vs = [], []
    for t, rho_t in zip(lattice, bump.rho_l(lattice)):
        if rho_t <= 0.0:
            continue
        for frac in (1.0, 0.5):
            for u in dirs:
                ts.append(t)
                vs.append(c * rho_t * frac * u)
    if not ts:
        return True
    for x in state.eval_eta(chart.frame_point(np.array(ts), np.array(vs))):
        base = state.eval_eta_inverse(x[None])
        if locator.contains_base_point(base, vertex)[0][0]:
            continue
        if sd_data.carrier(base, locator.tol)[0] is None:
            continue
        return False
    return True


@pytest.mark.parametrize("level", [0, 1])
def test_containment_equals_sequential_scan(scenario_a_run, level):
    config = scenario_a_run["config"]
    sd = subdivision_data(scenario_a_run["state"])
    # the state the clearance search of this level ran against
    state = _level_start(scenario_a_run, level)
    assert level == 0 or state.links  # level 1 round-trips through the level-0 links
    dirs = _unit_directions(state.ambient_dim - level)
    lattice = interior_lattice(level, lattice_per_dim(config.containment_density, level))
    locator = StarLocator(sd.index, config.barycentric_tol)
    verdicts = []
    for s in state.complex.by_dim(level):
        chart = make_chart(state, s)
        v = sd.barycenter_ids[s]
        star = locator.star[v][locator.star[v] >= 0]
        c = float(np.linalg.norm(sd.index.hi[star].max(axis=0) - sd.index.lo[star].min(axis=0)))
        while c > config.c_min:
            [got] = containment_ok([chart], locator, lattice, dirs, [c], sd)
            assert got == ref_containment_ok(state, chart, locator, v, lattice, dirs, c, sd), \
                (s.vertices, c)
            verdicts.append(got)
            c *= 0.5
    # at level 0 the larger radii leave the star; an edge's fade keeps every
    # fiber sample of the level-1 search close to the edge
    assert any(verdicts) and (level == 1 or not all(verdicts))


def test_clearance_depends_on_base_geometry_only(scenario_a_run):
    final, config = scenario_a_run["state"], scenario_a_run["config"]
    base = TriangulationState(final.complex, final.realization)
    sd = subdivision_data(base)
    links = [lk for lk in final.links if lk.level == 1]
    assert len(links) == len(final.complex.by_dim(1))
    for lk in links:
        [c] = perturb.estimate_c_sigma(base, [lk.simplex], config, sd_data=sd)
        assert repr(c) == repr(lk.local.c_sigma), lk.simplex.vertices


def ref_c_sigma(state, s, config, sd):
    """One simplex's halving search as it ran before the level-wide search:
    an index over its star alone, the vertex's slot in each star top, every
    sample outside the star located again in the whole complex."""
    chart = make_chart(state, s)
    v = sd.barycenter_ids[s]
    index, ids = _per_star_index(sd, v)
    slot = np.array([sd.tops[j].vertices.index(v) for j in ids])
    lattice = interior_lattice(s.dim, lattice_per_dim(config.containment_density, s.dim))
    dirs = np.asarray(_unit_directions(state.ambient_dim - s.dim), float)
    rho = bump.rho_l(lattice)
    live = rho > 0.0
    tol = config.barycentric_tol
    c = float(np.linalg.norm(index.hi.max(axis=0) - index.lo.min(axis=0)))
    while c > config.c_min:
        if not live.any():
            return c / 2.0
        rad = (c * rho[live])[:, None] * np.array([1.0, 0.5])
        vs = (rad[:, :, None, None] * dirs).reshape(-1, dirs.shape[1])
        base = chart.frame_point(np.repeat(lattice[live], 2 * len(dirs), axis=0), vs)
        rows, top, lam, _ = index.first_hits(base, tol)
        lam = np.where(np.arange(lam.shape[1]) < index.size[top, None], lam, -np.inf)
        inside = np.zeros(len(base), bool)
        inside[rows] = sc.carrier_mask(lam, tol)[np.arange(len(top)), slot[top]]
        if all(x is None for x in sd.carrier(base[~inside], tol)):
            return c / 2.0
        c *= 0.5
    raise DegenerateGeometryError(f"no fiber clearance above {config.c_min} for simplex "
                                  f"{s.vertices}")


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "scenario_c", "scenario_tangent",
                                  "scenario_a-3", "scenario_a-8", "scenario_b-3"])
def test_level_clearance_equals_the_per_simplex_search(name):
    # the shipped scenarios against the per-simplex sampled search, and
    # every case, grids at other resolutions too, against the level-wide one
    name, _, resolution = name.partition("-")
    scenario = cli.load_scenario(str(SCENARIOS / f"{name}.cfg"))
    if resolution:
        scenario.mesh_spec["resolution"] = int(resolution)
    cplx, real, _ = cli._build_inputs(scenario)
    state, config = TriangulationState(cplx, real), scenario.config
    sd = subdivision_data(state)
    for level in range(state.ambient_dim):
        simplices = state.complex.by_dim(level)
        got = perturb.estimate_c_sigma(state, simplices, config, sd)
        want = oracles.sampled_c_sigma(state, simplices, config, sd)
        if not resolution:
            assert [repr(c) for c in want] == [repr(ref_c_sigma(state, s, config, sd))
                                               for s in simplices], level
        assert all(type(c) is float for c in got)
        assert [repr(c) for c in got] == [repr(c) for c in want], level
        [one] = perturb.estimate_c_sigma(state, simplices[-1:], config, sd)
        assert type(one) is float and repr(one) == repr(want[-1])


def test_level_clearance_names_the_lowest_simplex_without_clearance(scenario_a_run):
    # a floor at vertex 6's passing value fails 6, 7, 8, 11, ... (passing
    # values 0.2357 against 0.3359 and more before 6), and 6 is named
    state, config = _level_start(scenario_a_run, 0), scenario_a_run["config"]
    sd = subdivision_data(state)
    vertices = state.complex.by_dim(0)
    passing = 2.0 * perturb.estimate_c_sigma(state, vertices[6:7], config, sd)[0]
    config = config.replace(c_min=passing)
    with pytest.raises(DegenerateGeometryError) as want:
        for s in vertices:
            ref_c_sigma(state, s, config, sd)
    with pytest.raises(DegenerateGeometryError) as got:
        perturb.estimate_c_sigma(state, vertices, config, sd)
    assert str(got.value) == str(want.value) and str(got.value).endswith("simplex (6,)")
    before = [ref_c_sigma(state, s, config, sd) for s in vertices[:6]]
    assert [repr(c) for c in got.value.clearances] == [repr(c) for c in before]
    with pytest.raises(PerturbationError) as err:
        perturb_level(state, 0, scenario_a_run["h"], config, sd)
    assert err.value.simplex == vertices[6]
    assert str(err.value) == f"level 0 aborted at simplex (6,): {want.value}"


def test_clearance_round_memory_stays_below_one_dense_block():
    # one level-1 round of scenario_b: 98 edges, each sample located against
    # its own star, the samples no star top holds against all 1152 tops in
    # blocks; a dense box test would hold (rows, tops, m) at once
    import tracemalloc

    state, _, config = _verify_only_case("scenario_b")
    sd = subdivision_data(state)
    edges = state.complex.by_dim(1)
    charts = [make_chart(state, s) for s in edges]
    locator = StarLocator(sd.index, config.barycentric_tol)
    lattice = interior_lattice(1, lattice_per_dim(config.containment_density, 1))
    dirs = _unit_directions(2)
    # the first round: each edge at its star's diameter
    stars = [locator.star[v][locator.star[v] >= 0]
             for v in (sd.barycenter_ids[s] for s in edges)]
    cs = [float(np.linalg.norm(sd.index.hi[j].max(axis=0) - sd.index.lo[j].min(axis=0)))
          for j in stars]
    args = (charts, locator, lattice, dirs, cs, sd)
    containment_ok(*args)
    tracemalloc.start()
    try:
        assert all(containment_ok(*args))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(edges) * len(lattice) * 2 * len(dirs)
    assert peak < rows * len(sd.tops) * state.ambient_dim


# ---------------------------------------------------------------------------
# the star table against the quadratic scan of simplicial.star


def test_star_table_holds_the_maximal_star_members(scenario_a_run):
    sd = subdivision_data(scenario_a_run["state"])
    table = StarLocator(sd.index).star
    assert len(table) == len(sd.cplx.vertex_ids)
    for v in sd.cplx.vertex_ids:
        members = sc.star(sd.cplx, sc.Simplex((v,)))
        maximal = [s for s in members
                   if not any(o.dim > s.dim and set(s.vertices) < set(o.vertices)
                              for o in members)]
        k = len(maximal)
        assert [sd.tops[j] for j in table[v, :k]] == sorted(maximal, key=sc.simplex_sort_key)
        assert (table[v, k:] == -1).all()


# ---------------------------------------------------------------------------
# the verifier, one dimension at a time, against one simplex at a time


def ref_inside_closed_simplex(t, slack=1e-6):
    t = np.asarray(t, float)
    if t.size == 0:
        return True
    return float(t.min()) >= -slack and float(t.sum()) <= 1.0 + slack


def ref_root_carrier(s, t, config):
    """Carrier face of parameter t on s, and t in the face's frame; None
    when t converged outside s."""
    if not s.dim:
        return s, np.zeros(0)
    t = np.asarray(t, float)
    lam = np.concatenate([[1.0 - t.sum()], t])
    if lam.min() < -1e-8:
        return None
    face, lam = sc.carrier_face(s, np.clip(lam, 0.0, None), config.barycentric_tol)
    return face, lam[1:]


def ref_record(state, h, face, y, t_face, resid, point, Jeta, config):
    """One root classified on its carrier face, with its own margin."""
    if h.domain.dim + face.dim < state.ambient_dim:
        margin = 0.0
        cls = "skeleton-hit"
    else:
        _, A = state.realization.simplex_frame(face)
        margin = transversality_margin(h.jacobian_raw(y), Jeta @ A)
        cls = "transverse" if margin >= config.tol_rank else "tangent"
    return IntersectionRecord(
        simplex=face,
        y=tuple(float(v) for v in np.atleast_1d(y)),
        t=tuple(float(v) for v in t_face),
        point=tuple(float(v) for v in point),
        residual=float(resid),
        margin=float(margin),
        classification=cls,
    )


def ref_pair_seeds(h, patch, config, scale, t_per_dim=None):
    """_pair_seeds with one Python iteration per lattice column, as before
    the columns were chosen with array operations."""
    ys = _domain_seeds(h, config)
    hy = h.eval_batch(ys)
    if t_per_dim is None:
        t_per_dim = lattice_per_dim(config.simplex_seed_density, patch.l)
    lattice = interior_lattice(patch.l, t_per_dim)
    T = len(lattice)
    ts = np.tile(lattice, (patch.size, 1))
    ft = patch.eval(ts, np.repeat(np.arange(patch.size), T))
    gap = 0.0
    if len(hy) > 1:
        gap = float(np.linalg.norm(np.diff(hy, axis=0), axis=1).max())
    t_gap = scale / max(1, t_per_dim) if patch.l else 0.0
    prune = 1.5 * (gap + t_gap) + 1e-9
    pairs = []
    dmin = np.full(patch.size, np.inf)
    for k in range(patch.size):
        d = np.linalg.norm(hy[:, None, :] - ft[None, k * T:(k + 1) * T, :], axis=2)
        if d.size:
            dmin[k] = d.min()
        for it in range(T):
            col = d[:, it]
            keep = np.nonzero(col <= prune)[0]
            if keep.size > 6:
                keep = keep[np.argsort(col[keep])[:6]]
            pairs.extend((int(iy), k * T + it) for iy in keep)
    return ys, ts, pairs, dmin


def ref_find(state, s, h, config):
    """(records, min_residual) of one simplex, searched alone: its own patch,
    seeds, refinement and record evaluation, one root at a time, as before
    the verifier searched a whole dimension at once."""
    n, m, l = h.domain.dim, state.ambient_dim, s.dim
    b, A = state.realization.simplex_frame(s)

    def ej(t, owner):
        x, J = state.eval_eta_with_jacobian(b + matvec(A, t))
        return x, J @ A

    patch = Patch(l=l, eval=lambda t, owner: state.eval_eta(b + matvec(A, t)), eval_jac=ej)
    t_per_dim = lattice_per_dim(config.simplex_seed_density, l)
    if n + l > m:
        t_per_dim = max(2, t_per_dim // 4)
    ys = _domain_seeds(h, config)
    hy = h.eval_batch(ys)
    ts = interior_lattice(l, t_per_dim)
    d = np.linalg.norm(hy[:, None, :] - patch.eval(ts, None)[None, :, :], axis=2)
    gap = float(np.linalg.norm(np.diff(hy, axis=0), axis=1).max()) if len(hy) > 1 else 0.0
    prune = 1.5 * (gap + (state.mesh_scale / max(1, t_per_dim) if l else 0.0)) + 1e-9
    pairs = []
    for it in range(len(ts)):
        keep = np.nonzero(d[:, it] <= prune)[0]
        if keep.size > 6:
            keep = keep[np.argsort(d[keep, it])[:6]]
        pairs.extend((iy, it) for iy in keep)
    min_resid = float(d.min()) if d.size else np.inf
    roots = []
    if pairs:
        iy, it = np.array(pairs).T
        for out in gn_pairs(_gauss_newton(h, patch, ys[iy], ts[it], config, state.mesh_scale)):
            if out is not None and ref_inside_closed_simplex(out[1]):
                min_resid = min(min_resid, out[2])
                roots.append(out)
    roots.sort(key=lambda r: r[2])
    threshold = config.solve_tol if n + l >= m else config.vertex_clearance
    records = []
    for y, t, resid in ref_cluster(roots, config.dedupe_radius, _domain_period(h)):
        carrier = ref_root_carrier(s, t, config) if resid < threshold else None
        if carrier is None:
            continue
        face, t_face = carrier
        fb, fA = state.realization.simplex_frame(face)
        x, J = state.eval_eta_with_jacobian(fb + (fA @ t_face if face.dim else 0.0))
        records.append(ref_record(state, h, face, y, t_face, resid, x, J, config))
    return records, float(min_resid)


def _verify_only_case(name):
    scenario = cli.load_scenario(str(SCENARIOS / f"{name}.cfg"))
    cplx, real, h = cli._build_inputs(scenario)
    return TriangulationState(cplx, real), h, scenario.config


def _record_fields(rec):
    return (rec.simplex, rec.y, rec.t, rec.point, rec.residual, rec.margin, rec.classification)


@pytest.mark.parametrize("case", ["scenario_a_run", "point_map"] + VERIFY_SCENARIOS)
def test_verifier_by_dimension_equals_one_simplex_at_a_time(scenario_a_run, monkeypatch, case):
    if case == "scenario_a_run":
        state, h, config = scenario_a_run["state"], scenario_a_run["h"], scenario_a_run["config"]
    elif case == "point_map":
        # the image of vertex 12, (0, 0): a skeleton hit at a vertex
        state, config = scenario_a_run["state"], scenario_a_run["config"]
        h = PointMap(state.eval_eta(state.realization.point(12)))
    else:
        state, h, config = _verify_only_case(case)
    ref = {}
    for l in range(state.complex.dim + 1):
        group = state.complex.by_dim(l)
        got = find_intersections(state, group, h, config)
        assert len(got) == len(group)
        for s, (records, min_resid) in zip(group, got):
            ref[s] = ref_find(state, s, h, config)
            assert [_record_fields(r) for r in records] == [_record_fields(r) for r in ref[s][0]]
            assert same_bits(min_resid, ref[s][1])
    assert any(records for records, _ in ref.values()) == (case != "scenario_disjoint")
    report = verify_triangulation(state, h, config)
    want = oracles.verify_triangulation(state, h, config,
                                        find=lambda st, group, hh, cfg: [ref[s] for s in group])
    assert report_to_csv(report) == report_to_csv(want)
    assert report_summary(report) == report_summary(want)


def _report_bits(report):
    """A report as comparable text: the verdict, every status in order with
    its verdict, vertex distance and records, every record, and the
    diagnostics; repr keeps every bit of a float, the sign of zero too."""
    def records(recs):
        return [repr(_record_fields(r)) for r in recs]

    return (report.passed, [(repr(s), repr(st.simplex), st.passed, repr(st.min_distance),
                             records(st.records)) for s, st in report.statuses.items()],
            records(report.records), repr(report.diagnostics))


@pytest.mark.parametrize("name", VERIFY_SCENARIOS)
def test_verify_only_report_equals_the_record_per_hit_oracle(name):
    state, h, config = _verify_only_case(name)
    want = oracles.verify_triangulation(TriangulationState(state.complex, state.realization), h,
                                        config)
    assert _report_bits(verify_triangulation(state, h, config)) == _report_bits(want)


@pytest.mark.parametrize("name, seed", [("scenario_a", 1), ("scenario_a", 2), ("scenario_b", 1)])
def test_final_report_from_a_kept_search_equals_the_record_per_hit_oracle(name, seed):
    # the final verify takes the search of every level from the run's last
    # trial state, as its links above level 0 are below floating-point
    # resolution; the oracle searches every dimension again
    state, report, h, config = _pipeline_run(name, seed)
    cplx = state.complex
    assert sorted(state._searches) == list(range(cplx.dim))
    for dim, (group, _, _, (owner, hits, min_resid)) in state._searches.items():
        assert group == cplx.by_dim(dim)
        assert len(min_resid) == len(group)
    assert _report_bits(report) == _report_bits(oracles.verify_triangulation(state, h, config))


def _search_bits(search):
    """A kept search, (owner, hits, min_residual), as comparable text,
    every bit of a float kept."""
    owner, hits, min_resid = search
    return repr((owner, [[a.tolist() for a in block] for block in hits], min_resid))


@pytest.mark.parametrize("name, seed, resolution", [("scenario_a", 1, None), ("scenario_b", 1, None),
                                                    ("scenario_a", 1, 8)])
def test_kept_searches_equal_a_fresh_search(monkeypatch, name, seed, resolution):
    # the final verify searches the top simplices alone: every other
    # dimension's search is kept from its level's last trial state, and
    # equals, bit for bit, a search of that dimension on a fresh state with
    # the final links
    searched, final, pair_seeds = [], [], verify._pair_seeds
    verify_all = perturb.verify_triangulation

    def spy(h, patch, *args, **kw):
        if final:
            searched.append(patch.l)
        return pair_seeds(h, patch, *args, **kw)

    def final_verify(*args):
        final.append(True)
        return verify_all(*args)

    monkeypatch.setattr(verify, "_pair_seeds", spy)
    monkeypatch.setattr(perturb, "verify_triangulation", final_verify)
    state, _, h, config = _pipeline_run(name, seed, resolution)
    cplx = state.complex
    assert searched == [cplx.dim] and sorted(state._searches) == list(range(cplx.dim))
    fresh = TriangulationState(cplx, state.realization, state.links)
    for dim, (group, h_kept, config_kept, search) in state._searches.items():
        assert group == cplx.by_dim(dim) and h_kept is h and config_kept is config
        assert _search_bits(search) == _search_bits(verify._hits(fresh, group, h, config))


def test_child_inherits_searches_only_when_it_evaluates_as_its_parent(scenario_a_run):
    # a child that appends links below floating-point resolution (edges)
    # starts with its parent's kept searches, in a dict of its own; one that
    # appends vertex links, which move points, inherits none
    h, config = scenario_a_run["h"], scenario_a_run["config"]
    final = scenario_a_run["state"]
    vertices = [lk for lk in final.links if lk.level == 0]
    edges = [lk for lk in final.links if lk.level == 1]
    parent = TriangulationState(final.complex, final.realization, vertices[:-1])
    find_intersections(parent, parent.complex.by_dim(0), h, config)
    assert sorted(parent._searches) == [0]
    child = parent.with_links(vertices[-1:])
    assert child._searches == {} and child._ops is not parent._ops
    kept = child.with_links(edges)
    find_intersections(child, child.complex.by_dim(0), h, config)
    assert kept._searches == {} and child._ops is kept._ops  # a copy made when kept was built
    grandchild = child.with_links(edges[:-1])
    assert grandchild._searches[0] is child._searches[0] and grandchild._searches is not child._searches
    find_intersections(grandchild, grandchild.complex.by_dim(1), h, config)
    assert sorted(grandchild._searches) == [0, 1] and sorted(child._searches) == [0]


def _record_spy(monkeypatch):
    """The list of every record verify builds from now on."""
    built = []

    def spy(**fields):
        built.append(IntersectionRecord(**fields))
        return built[-1]

    monkeypatch.setattr(verify, "IntersectionRecord", spy)
    return built


@pytest.mark.parametrize("name, survivors, hits", [("scenario_a", 120, 138),
                                                   ("scenario_b_degenerate", 370, 835)])
def test_verify_builds_a_record_only_for_a_surviving_hit(monkeypatch, name, survivors, hits):
    # the record-per-hit oracle builds one record per hit of every search
    state, h, config = _verify_only_case(name)
    built = _record_spy(monkeypatch)
    report = verify_triangulation(state, h, config)
    assert len(built) == len(report.records) == survivors
    assert {id(r) for r in built} == {id(r) for r in report.records}
    del built[:]
    oracles.verify_triangulation(TriangulationState(state.complex, state.realization), h, config)
    assert len(built) == hits


def test_final_verify_builds_each_surviving_record_once(monkeypatch):
    # the final verify takes every level's search, which holds no records,
    # and builds the record of each hit that survives its dedupe
    scenario = cli.load_scenario(str(SCENARIOS / "scenario_a.cfg"))
    cplx, real, h = cli._build_inputs(scenario)
    built, final, searched = _record_spy(monkeypatch), [], None
    verify_all, roots = perturb.verify_triangulation, verify._roots

    def final_verify(*args):
        nonlocal searched
        searched = []
        del built[:]
        report = verify_all(*args)
        final.extend(built)
        return report

    def spy(h, patch, *args):
        if searched is not None:
            searched.append(patch.l)
        return roots(h, patch, *args)

    monkeypatch.setattr(perturb, "verify_triangulation", final_verify)
    monkeypatch.setattr(verify, "_roots", spy)
    _, report = perturb.make_transverse(cplx, real, h, scenario.config.replace(seed=1))
    assert searched == [2]  # the vertices' and the edges' searches are their levels'
    assert len(final) == len(report.records) == 121
    assert {id(r) for r in final} == {id(r) for r in report.records}


def ref_simplex_patch(state, simplices):
    """simplex_patch from one simplex_frame call per simplex, stacked, as
    before the frames came from one gather."""
    frames = [state.realization.simplex_frame(s) for s in simplices]
    b = np.array([f[0] for f in frames])
    A = np.array([f[1] for f in frames])

    def ev(t, owner):
        return state.eval_eta(b[owner] + matvec(A[owner], t))

    def ej(t, owner):
        x, J = state.eval_eta_with_jacobian(b[owner] + matvec(A[owner], t))
        return x, J @ A[owner]

    return Patch(l=simplices[0].dim, eval=ev, eval_jac=ej, size=len(simplices))


@pytest.mark.parametrize("case", ["scenario_a_run", "scenario_b", "scenario_c"])
def test_simplex_patch_rows_equal_the_per_simplex_frames(scenario_a_run, case):
    state = (scenario_a_run["state"] if case == "scenario_a_run"
             else _verify_only_case(case)[0])
    for l in range(state.complex.dim + 1):
        group = state.complex.by_dim(l)
        owner = RNG.integers(len(group), size=300)
        t = RNG.dirichlet(np.ones(l + 1), size=300)[:, :l]
        got, want = simplex_patch(state, group), ref_simplex_patch(state, group)
        assert got.size == want.size == len(group) and got.l == l
        assert same_bits(got.eval(t, owner), want.eval(t, owner))
        for a, b in zip(got.eval_jac(t, owner), want.eval_jac(t, owner)):
            assert same_bits(a, b)
    one = simplex_patch(state, group[-1])
    assert same_bits(one.eval(t, np.zeros(300, int)), want.eval(t, np.full(300, len(group) - 1)))


# ---------------------------------------------------------------------------
# seed pairing and record margins on arrays, against per-column and
# per-record loops


def _same_seeds(got, want):
    (ys, ts, pairs, dmin), (rys, rts, rpairs, rdmin) = got, want
    return (same_bits(ys, rys) and same_bits(ts, rts) and list(pairs) == rpairs
            and same_bits(dmin, rdmin))


@pytest.mark.parametrize("name", VERIFY_SCENARIOS)
def test_pair_seeds_equal_the_per_column_loop(name):
    state, h, config = _verify_only_case(name)
    for l in range(state.complex.dim + 1):
        patch = simplex_patch(state, state.complex.by_dim(l))
        for t_per_dim in (None, 2):
            got = _pair_seeds(h, patch, config, state.mesh_scale, t_per_dim)
            assert len(got[2]) == len(set(got[2]))
            assert _same_seeds(got, ref_pair_seeds(h, patch, config, state.mesh_scale, t_per_dim))


class _ChosenSeedsMap:
    """A stand-in map whose domain seeds have chosen images: integer points,
    many of them at exactly one distance from a lattice image."""

    def __init__(self, images):
        self.images = np.array(images, float)
        self.domain = SimpleNamespace(kind="box")

    def sample_domain(self, density):
        return np.arange(len(self.images), dtype=float)[:, None]

    def eval_batch(self, ys):
        return self.images[ys[:, 0].astype(int)]


def test_pair_seeds_keep_the_argsort_order_of_tied_columns():
    # twelve images at distance 5 from the origin, with the origin twice and
    # a near point: the origin's column holds 15 seeds inside prune
    ring = [(3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5), (-3, -4), (-4, -3), (-5, 0),
            (-4, 3), (-3, 4), (0, 5)]
    h = _ChosenSeedsMap(ring[:5] + [(0, 0), (1, 0)] + ring[5:] + [(0, 0)])
    # owner 0 sits at the origin, owner 1 on the x axis (ties by mirror
    # symmetry) and owner 2 far off, so few or no seeds reach it
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [40.0, 40.0]])
    patch = Patch(l=1, eval=lambda t, owner: centers[owner] + 0.0 * t, eval_jac=None, size=3)
    config = PipelineConfig()
    got = _pair_seeds(h, patch, config, 1.0, 2)
    want = ref_pair_seeds(h, patch, config, 1.0, 2)
    assert _same_seeds(got, want)
    ys, ts, pairs, dmin = got
    d = np.linalg.norm(h.images - centers[0], axis=1)
    assert (d <= 15.0).sum() > 6 and len(set(d.tolist())) < len(d)  # a tied, overfull column
    # six per lattice point of owners 0 and 1, none for owner 2
    assert [it // 2 for _, it in pairs] == [0] * 12 + [1] * 12
    assert dmin[0] == 0.0 and dmin[2] > 40.0


@pytest.mark.parametrize("m", [2, 3])
def test_seed_distances_equal_the_norm_of_the_difference(m):
    rng = np.random.default_rng(m)
    a = rng.normal(size=(40, m)) * 10.0 ** rng.uniform(-6, 6, size=(40, 1))
    b = np.vstack([rng.normal(size=(30, m)), a[:5], -a[5:10], np.zeros((1, m))])
    # squares that round differently when added in another order: with
    # e^2 = 1.125 * 2^-53, 1 + e^2 + e^2 gives 1 + 2^-50 left to right and
    # 1 + 2^-51 when the small ones go first
    e = 1.5 * 2.0 ** -27
    for row in itertools.permutations([1.0, e, e][:m]):
        a = np.vstack([a, row])
    # ties: mirror images are at one distance from the origin
    a = np.vstack([a, -a[:8]])
    got = verify._seed_distances(a, b)
    want = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    assert got.shape == (len(a), len(b)) and same_bits(got, want)
    assert same_bits(got[:, -1], want[:, -1]) and len(set(got[:, -1].tolist())) < len(a)


def test_pair_seeds_memory_stays_below_one_full_broadcast():
    # the distances are formed in blocks of owners (verify._BLOCK_SEEDS):
    # scenario_b's 120 triangles in one block would need a (seeds, 120
    # lattices, 3) float block at once
    import tracemalloc

    state, h, config = _verify_only_case("scenario_b")
    patch = simplex_patch(state, state.complex.by_dim(2))
    _pair_seeds(h, patch, config, state.mesh_scale)
    tracemalloc.start()
    try:
        ys, ts, pairs, _ = _pair_seeds(h, patch, config, state.mesh_scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = len(ys) * len(ts) * state.ambient_dim * np.dtype(float).itemsize
    assert patch.size == 120 and pairs
    assert peak < full


@pytest.mark.parametrize("m,n,k", [(2, 1, 1), (2, 1, 0), (2, 0, 2), (3, 1, 2), (3, 2, 1),
                                   (3, 1, 1), (3, 0, 2), (3, 2, 2), (3, 1, 3)])
def test_stacked_margins_equal_per_record_margins(m, n, k):
    rng = np.random.default_rng([m, n, k])
    N = 64
    dh = rng.normal(size=(N, m, n)) * 10.0 ** rng.uniform(-4, 4, size=(N, 1, 1))
    df = rng.normal(size=(N, m, k))
    if k:
        df[::5, :, 0] = 0.0  # a zero column keeps its unit norm
    if n:
        dh[1::7] = 0.0
    got = transversality_margin(dh, df)
    want = [transversality_margin(a, b) for a, b in zip(dh, df)]
    assert got.shape == (N,) and all(type(w) is float for w in want)
    assert same_bits(got, want)
    if n + k < m:
        assert not got.any()  # no spanning: every margin is 0.0


# ---------------------------------------------------------------------------
# the grouped parameter-space dedupe against the pairwise greedy loop


def ref_cluster(items, radius, y_period=None):
    """Greedy dedupe of (y, t, ...) tuples with one distance call per (item,
    kept item) pair, as before the dedupe compared an item with all kept
    items at once."""

    def dist(a, b):
        dy = np.asarray(a[0]) - np.asarray(b[0])
        if y_period is not None and dy.size:
            dy = np.abs(dy) % y_period
            dy = np.minimum(dy, y_period - dy)
        dt = np.asarray(a[1]) - np.asarray(b[1])
        return float(np.sqrt(np.sum(dy ** 2) + np.sum(dt ** 2)))

    kept = []
    for it in items:
        if not any(dist(it, k) <= radius for k in kept):
            kept.append(it)
    return kept


def dedupe_groups(groups, radius, y_period=None):
    """Each group's kept (y, t, ...) items, from one _dedupe call over the
    stacked rows of all groups."""
    items = [it for g in groups for it in g]
    n, l = (len(items[0][0]), len(items[0][1])) if items else (0, 0)
    Y = np.array([it[0] for it in items], float).reshape(len(items), n)
    T = np.array([it[1] for it in items], float).reshape(len(items), l)
    ids = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    kept = _dedupe(Y, T, ids, radius, y_period)
    assert (np.diff(kept) > 0).all()
    return [[items[i] for i in kept.tolist() if ids[i] == k] for k in range(len(groups))]


def same_items(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def same_groups(got, want):
    return len(got) == len(want) and all(same_items(a, b) for a, b in zip(got, want))


_DYADIC = st.integers(-16, 16).map(lambda k: k / 16)


def _roots(draw, count, n, l, radius, period):
    """count (y, t, tag) roots on a dyadic lattice or anywhere, some of them
    an earlier root moved along one axis by exactly the radius (exact on
    the lattice), by half of it or by one and a half times it.  A periodic
    y lies in [0, period), often within a few radii of the seam."""
    coord = st.one_of(_DYADIC, st.floats(-1.0, 1.0))
    seam = st.floats(0.0, 4 * radius)
    items = []
    for _ in range(count):
        if items and draw(st.booleans()):
            y, t, _ = items[draw(st.integers(0, len(items) - 1))]
            v = np.concatenate([y, t])
            if v.size:
                step = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([1.0, 0.5, 1.5]))
                v[draw(st.integers(0, v.size - 1))] += step * radius
            y, t = v[:n], v[n:]
        else:
            y = np.array([draw(coord) for _ in range(n)])
            t = np.array([draw(coord) for _ in range(l)])
            if period is not None:
                y = np.array([draw(st.one_of(seam, seam.map(lambda d: period - d)))])
        if period is not None:
            y = y % period
        items.append((y, t, object()))
    return items


@st.composite
def root_lists(draw):
    """(groups, radius, period): groups of roots with one n in 0..2 and one
    l in 0..3, of sizes 0, 1, 2 and up to 24 in a drawn order, and up to
    three more groups of any of these sizes (see _roots)."""
    n, l = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    period = draw(st.sampled_from([None, 1.0, 2 * math.pi])) if n == 1 else None
    radius = draw(st.sampled_from([PipelineConfig().dedupe_radius, 0.0625, 0.25]))
    size = st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 24))
    sizes = draw(st.permutations([0, 1, 2, draw(st.integers(3, 24))]))
    sizes += draw(st.lists(size, max_size=3))
    return [_roots(draw, k, n, l, radius, period) for k in sizes], radius, period


@given(root_lists())
@settings(max_examples=200, deadline=None)
def test_cluster_keeps_the_roots_of_the_pairwise_loop(case):
    # one grouped call keeps, in every group, what the pairwise loop keeps
    # of that group alone
    groups, radius, period = case
    got = dedupe_groups(groups, radius, period)
    assert len(got) == len(groups)
    for kept, items in zip(got, groups):
        assert same_items(kept, ref_cluster(items, radius, period))


def test_cluster_drops_a_root_at_exactly_the_radius():
    r = PipelineConfig().dedupe_radius
    a = (np.array([0.0]), np.array([0.0, 0.0]), "a")
    on = (np.array([0.0]), np.array([r, 0.0]), "on")
    past = (np.array([0.0]), np.array([np.nextafter(r, 1.0), 0.0]), "past")
    assert same_groups(dedupe_groups([[a, on, past]], r), [[a, past]])
    # across the seam of a periodic axis, the folded distance counts
    seam = (np.array([2 * math.pi - r / 2]), np.array([0.0, 0.0]), "seam")
    assert same_groups(dedupe_groups([[a, seam]], r, 2 * math.pi), [[a]])
    assert same_groups(dedupe_groups([[a, seam]], r), [[a, seam]])
    # n = 0 and l = 0: every root is the same parameter point
    empty = [(np.zeros(0), np.zeros(0), k) for k in range(3)]
    assert same_groups(dedupe_groups([empty], r), [empty[:1]])
    # a group never drops a root of another, and no row means no group
    assert same_groups(dedupe_groups([[a], [on], [], [past, a]], r), [[a], [on], [], [past, a]])
    assert dedupe_groups([], r) == []


def test_dedupe_pair_blocks_equal_one_block(monkeypatch):
    # one group of 60 roots along a chain at half the radius (each third
    # root is kept: the next one lies at exactly the radius), and small
    # groups around it: every block size settles the same rows
    r = 0.25
    chain = [(np.array([0.5 * r * k]), np.array([0.0]), k) for k in range(60)]
    groups = [chain[:2], chain, [], chain[5:9], chain[::7]]
    want = dedupe_groups(groups, r)
    assert same_groups(want, [ref_cluster(g, r) for g in groups])
    assert [len(g) for g in want] == [1, 20, 0, 2, 9]
    for block in (1, 7, 59, 60, 61):
        monkeypatch.setattr(verify, "_BLOCK_PAIRS", block)
        assert same_groups(dedupe_groups(groups, r), want)


def _window_rows(rng, n, l, radius, period):
    """(Y, T, group) of five groups of up to 30 rows: rows on a dyadic
    lattice (so exact ties and exact radii occur) or anywhere, copies of an
    earlier row of the group, copies moved along the first t coordinate to
    the window edge (by the radius or the float next to it, either way) or
    along any axis by a half, one or one and a half radii, and rows with a
    NaN or an infinite coordinate; some groups sit near t = 1000, and a
    periodic y lies near the seam."""
    Y, T, group = [], [], []
    for g, size in enumerate(rng.integers(0, 31, size=5).tolist()):
        rows = []
        for _ in range(size):
            kind = int(rng.integers(6)) if rows else 0
            if kind == 0:
                v = rng.integers(-16, 17, n + l) / 16
            elif kind == 1:
                v = rng.uniform(-1.0, 1.0, n + l)
            elif kind == 5:
                v = rng.uniform(-1.0, 1.0, n + l)
                v[rng.integers(n + l)] = rng.choice([np.nan, np.inf, -np.inf])
            else:
                v = rows[rng.integers(len(rows))].copy()
                if kind == 3:
                    edge = v[n] + rng.choice([-1.0, 1.0]) * radius
                    v[n] = np.nextafter(edge, rng.choice([-np.inf, np.inf])) if rng.integers(2) else edge
                elif kind == 4:
                    v[rng.integers(n + l)] += rng.choice([0.5, 1.0, 1.5]) * radius
            rows.append(v)
        v = np.array(rows, float).reshape(size, n + l)
        if g % 2:
            v[:, n] += 1000.0
        if period is not None:
            seam = rng.uniform(0.0, 4 * radius, size)
            v[:, 0] = np.where(rng.integers(2, size=size) == 1, seam, period - seam)
        Y.append(v[:, :n])
        T.append(v[:, n:])
        group.append(np.full(size, g))
    return np.concatenate(Y), np.concatenate(T), np.concatenate(group)


@pytest.mark.parametrize("seed", range(6))
def test_windowed_dedupe_keeps_the_rows_of_all_pairs(seed):
    # pairing rows within the radius of their first t coordinate keeps the
    # rows that pairing every two rows of a group keeps
    rng = np.random.default_rng(seed)
    dropped = 0
    for n, l in itertools.product((0, 1, 2), (1, 2, 3)):
        for radius in (PipelineConfig().dedupe_radius, 0.0625, 0.25):
            period = 2 * math.pi if n == 1 and seed % 2 else None
            with np.errstate(invalid="ignore", over="ignore"):
                Y, T, group = _window_rows(rng, n, l, radius, period)
                got = _dedupe(Y, T, group, radius, period)
                want = oracles.dedupe(Y, T, group, radius, period)
            assert got.tolist() == want.tolist()
            dropped += len(group) - len(want)
    assert dropped > 0


def _dedupe_spy(monkeypatch):
    """Calls of verify._dedupe, each as (caller, locals, Y, T, group,
    radius, y_period, kept): the name of the function that called it and
    its local variables at the call."""
    calls = []

    def spy(Y, T, group, radius, y_period=None):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, dict(frame.f_locals), Y, T, group, radius, y_period,
                      _dedupe(Y, T, group, radius, y_period)))
        return calls[-1][-1]

    monkeypatch.setattr(verify, "_dedupe", spy)
    return calls


@pytest.mark.parametrize("name", VERIFY_SCENARIOS)
def test_cluster_keeps_the_roots_of_the_pairwise_loop_on_both_passes(monkeypatch, name):
    state, h, config = _verify_only_case(name)
    calls = _dedupe_spy(monkeypatch)
    report = verify_triangulation(state, h, config)
    kinds = set()
    for caller, local, Y, T, group, radius, period, kept in calls:
        rows = np.arange(len(group))
        groups = [[(Y[i], T[i], i) for i in rows[group == k].tolist()] for k in np.unique(group)]
        want = [i for items in groups for _, _, i in ref_cluster(items, radius, period)]
        assert kept.tolist() == want
        # per-owner roots carry their residual; per-carrier hits come sorted
        # by face, and the report's records of a face dimension are its kept hits
        if len(group) and caller == "_roots":
            kinds.add(type(local["R"].tolist()[0]))
        elif len(group):
            assert caller == "verify_triangulation" and (np.diff(group) >= 0).all()
            d = T.shape[1]
            recs = [r for r in report.records if r.simplex.dim == d]
            assert same_bits(Y[kept], [r.y for r in recs])
            assert same_bits(T[kept], [r.t for r in recs])
            assert [r.simplex.vertices for r in recs] == list(
                map(tuple, state.complex.ids(d)[group[kept]].tolist()))
            kinds.add(type(recs[0]))
    # the disjoint scenario keeps no root at all
    assert kinds == (set() if name == "scenario_disjoint" else {float, verify.IntersectionRecord})


def test_dedupe_memory_stays_below_one_dense_pair_block(monkeypatch):
    # the per-carrier pass of scenario_b_degenerate: two faces carry 380
    # records each and keep 183 and 184; a dense pair block of one face
    # would hold (380, 380, n + l) floats
    import tracemalloc

    state, h, config = _verify_only_case("scenario_b_degenerate")
    calls = _dedupe_spy(monkeypatch)
    verify_triangulation(state, h, config)
    _, _, Y, T, group, radius, period, kept = max(
        (c for c in calls if c[0] == "verify_triangulation"),
        key=lambda c: np.bincount(c[4]).max(initial=0))
    sizes = np.bincount(group)
    big = np.flatnonzero(sizes == 380)
    assert big.size == 2 and sorted(np.bincount(group[kept])[big].tolist()) == [183, 184]
    _dedupe(Y, T, group, radius, period)
    tracemalloc.start()
    try:
        assert same_bits(_dedupe(Y, T, group, radius, period), kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 380 * 380 * (Y.shape[1] + T.shape[1]) * np.dtype(float).itemsize


def test_per_carrier_dedupe_merges_scenario_a_roots():
    # roots of neighbouring owners that attribution moves onto one face:
    # 138 records before the per-carrier pass, 120 after it
    state, h, config = _verify_only_case("scenario_a")
    found = sum(len(records) for l in range(state.complex.dim + 1)
                for records, _ in find_intersections(state, state.complex.by_dim(l), h, config))
    report = verify_triangulation(state, h, config)
    assert (found, report.diagnostics["n_records"]) == (138, 120)


# ---------------------------------------------------------------------------
# level-wide shift sampling against the one-simplex loop


def ref_candidate(state, pert, h, config):
    """Verifier verdict for one candidate, through the simplex's own chart."""
    chart, l = pert.chart, pert.l

    def ej(t, owner):
        x, J = chart_eval_jac(state, chart, t, pert.shift(t))
        w2 = np.asarray(bump.scaled_warp(bump.rho_l(t), 2))[..., None, None]
        dS = np.where(w2 == 0.0, 0.0, pert.v[:, None] * bump.rho_l_grad(t)[..., None, :] * w2)
        return x, J[..., :l] + J[..., l:] @ dS

    patch = Patch(l=l, eval=lambda t, owner: state.eval_eta(chart.frame_point(t, pert.shift(t))),
                  eval_jac=ej)
    _, Y, T, R, min_resid = verify._roots(h, patch, config, state.mesh_scale)
    if h.domain.dim + l < state.ambient_dim:
        return min_resid[0] > config.vertex_clearance
    return all(transversality_margin(h.jacobian_raw(y), ej(t[None], None)[1][0]) >= config.tol_rank
               for y, t, resid in zip(Y, T, R) if resid < config.solve_tol)


def ref_level(state, level, h, config, sd):
    """Each simplex's (v, retries, epsilon), or the message of the first
    failure, from the one-simplex-at-a-time loop."""
    out = []
    for idx, s in enumerate(state.complex.by_dim(level)):
        rng = np.random.default_rng([config.seed, level, idx])
        chart = make_chart(state, s)
        try:
            [c_sigma] = perturb.estimate_c_sigma(state, [s], config, sd_data=sd, charts=[chart])
        except DegenerateGeometryError as exc:
            return out, f"level {level} aborted at simplex {s.vertices}: {exc}"
        eps = min(c_sigma, 0.5 / bump.c_beta(), config.mesh_scale_factor * state.mesh_scale)
        for tries in range(config.max_retries):
            v = _draw_shift(rng, state.ambient_dim - level, eps)
            if ref_candidate(state, LocalDiffeo(chart, c_sigma, eps, v, tries), h, config):
                break
        else:
            return out, (f"level {level} aborted at simplex {s.vertices}: {config.max_retries}"
                         f" candidates rejected for simplex {s.vertices}; the deformation scale"
                         " cannot clear the verifier thresholds (tolerances too strict for"
                         " this geometry)")
        out.append((tuple(v), tries, eps))
    return out, None


def _level_start(scenario_a_run, level):
    final = scenario_a_run["state"]
    return TriangulationState(final.complex, final.realization,
                              [lk for lk in final.links if lk.level < level])


def _reject_first_edge_candidates(monkeypatch):
    """Make shift sampling reject the first candidate of every other edge, by
    vertex-id parity, and judge every other candidate as before."""
    judge = perturb._candidate_transverse

    def candidates(state, links, h, config):
        return [ok and not (lk.level == 1 and sum(lk.simplex.vertices) % 2 == 0
                            and lk.local.retries_used == 0)
                for lk, ok in zip(links, judge(state, links, h, config))]

    monkeypatch.setattr(perturb, "_candidate_transverse", candidates)


def _sampled(state, level, h, config, sd):
    try:
        new = perturb_level(state, level, h, config, sd)
    except PerturbationError as exc:
        return str(exc)
    perts = [lk.local for lk in new.links[len(state.links):]]
    assert not any(p.shrinks_used for p in perts)
    return [(tuple(float(c) for c in p.v), p.retries_used, p.epsilon) for p in perts]


@pytest.mark.parametrize("case", ["level0", "level1", "rejections"])
def test_level_sampling_equals_one_simplex_loop(scenario_a_run, case):
    h, config = scenario_a_run["h"], scenario_a_run["config"]
    level = 1 if case == "level1" else 0
    if case == "rejections":
        # vertices on the circle lose the candidates that move them less
        # than the clearance off it; they move by exp(-1) |v| < 1.3e-3
        config = config.replace(vertex_clearance=1e-3)
    state = _level_start(scenario_a_run, level)
    sd = subdivision_data(state)
    want, error = ref_level(state, level, h, config, sd)
    assert error is None
    got = _sampled(state, level, h, config, sd)
    assert got == want
    assert any(r for _, r, _ in got) == (case == "rejections")


def _distortion_checked(psi):
    """psi's sampled |J - I|, checked against its closed-form bound, which
    must lie below 1/2, and below 0.19 at the pipeline's epsilon <=
    1/(2 c_beta); and psi's sampled move, checked against its closed-form
    bound, with room for the rounding of the norms (a few ulps of the
    bound) and of w + beta s (an ulp of the largest |w| sampled)."""
    got, bound = oracles.sampled_distortion(psi), psi.distortion_bound()
    assert got <= bound < (0.19 if psi.epsilon <= 0.5 / bump.c_beta() else 0.5)
    move, w = oracles.sampled_move(psi)
    assert move <= psi.move_bound() * (1.0 + 2.0 ** -50) + 2.0 ** -52 * w
    return got


@pytest.mark.parametrize("chain", ["scenario_a", "tetrahedron", "inflated"])
def test_link_distortion_stays_under_the_closed_form_bound(scenario_a_run, chain):
    # every link is a diffeomorphism with |J - I| < 1/2 because of
    # LocalDiffeo's invariants, not because a sample was checked: the
    # chain's own links and links drawn at every level stay under the
    # bound, in R^2 (scenario A's charts) and R^3 (a tetrahedron's faces),
    # and move points by no more than their move bound
    links = scenario_a_run["state"].links
    if chain == "inflated":  # the invariant |v| < epsilon^2 is enforced
        for psi in (lk.local for lk in links):
            u = np.eye(psi.v.size)[0]
            with pytest.raises(ValueError, match=r"\|v\|"):
                LocalDiffeo(psi.chart, psi.c_sigma, psi.epsilon, psi.epsilon ** 2 * u)
            LocalDiffeo(psi.chart, psi.c_sigma, psi.epsilon,
                        np.nextafter(psi.epsilon ** 2, 0.0) * u)
        return
    if chain == "tetrahedron":
        links = _tetrahedron_chain("skew")[0].links
    levels = sorted({lk.level for lk in links})
    assert levels == list(range(links[0].local.m))
    worst = {level: max(_distortion_checked(lk.local) for lk in links if lk.level == level)
             for level in levels}
    if chain == "scenario_a":  # the pipeline's own links: 0.106 and 1.8e-27 at most
        assert 0.0 < worst[0] < 0.19 and worst[1] < 1e-20
        moves = [max(oracles.sampled_move(lk.local)[0] for lk in links if lk.level == level)
                 for level in levels]
        assert 1e-4 < moves[0] < 2e-3 and 0.0 < moves[1] < 1e-26
    else:  # the warp exp(-1/rho_2) underflows: a triangle link moves nothing
        assert {oracles.sampled_move(lk.local)[0] for lk in links if lk.level == 2} == {0.0}
        assert {lk.local.move_bound() for lk in links if lk.level == 2} == {0.0}

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def drawn(level, data):
        chart = data.draw(st.sampled_from([lk.local.chart for lk in links if lk.level == level]))
        eps = data.draw(st.floats(1e-4, 1.0 / bump.c_beta(), exclude_max=True))
        u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=chart.m - level,
                                        max_size=chart.m - level)))
        assume(np.linalg.norm(u) > 1e-3)
        frac = data.draw(st.floats(1e-6, 1.0 - 1e-9))  # no subnormal products
        v = frac * eps ** 2 * u / np.linalg.norm(u)
        _distortion_checked(LocalDiffeo(chart, eps, eps, v))

    for level in levels:
        drawn(level)


@pytest.mark.parametrize("case", ["seed1", "seed2", "seed3", "rejections", "edge_rejections"])
def test_final_verify_reuses_only_the_last_full_trial_search(grid_a, monkeypatch, case):
    # the final verify takes a level's search from its last trial state
    # only when that round held every link of the level, and takes the
    # vertices' search only when the edges' trial states evaluate as the
    # level-0 state that kept it; its report must equal that of a fresh
    # state with the same links
    cplx, real = grid_a
    h = CircleMap((0.0, 0.0), 1.0)
    config = PipelineConfig(seed=int(case[-1]) if case.startswith("seed") else 1)
    if case == "rejections":
        config = config.replace(vertex_clearance=1e-3)
    if case == "edge_rejections":
        _reject_first_edge_candidates(monkeypatch)
    searched, final = [], []
    pair_seeds, verify_all = verify._pair_seeds, perturb.verify_triangulation

    def spy(h, patch, config, scale, t_per_dim=None, **kw):
        if final:
            searched.append(patch.l)
        return pair_seeds(h, patch, config, scale, t_per_dim, **kw)

    def final_verify(state, h, config):
        final.append(state)
        return verify_all(state, h, config)

    monkeypatch.setattr(verify, "_pair_seeds", spy)
    monkeypatch.setattr(perturb, "verify_triangulation", final_verify)
    state, report = perturb.make_transverse(cplx, real, h, config)
    reused = 1 not in searched
    assert searched == {"rejections": [0, 2], "edge_rejections": [1, 2]}.get(case, [2])
    del searched[:]
    fresh = verify_triangulation(TriangulationState(cplx, real, state.links), h, config)
    assert searched == [0, 1, 2]
    assert report_to_csv(report) == report_to_csv(fresh)
    assert report_summary(report) == report_summary(fresh)
    # the edge_rejections case's last trial round held only the re-sampled edges
    assert reused == (case != "edge_rejections")
    last = [lk.local for lk in state.links if lk.level == 1]
    assert any(p.retries_used for p in last) == (case == "edge_rejections")


@pytest.mark.parametrize("cut", [0, 20, 25])
def test_child_states_evaluate_as_a_fresh_chain(scenario_a_run, cut):
    # a child evaluates as a fresh state with its links does, over the
    # same evaluated links (the vertex links), also when its first links
    # continue its parent's last level (cut 20: five vertex links follow);
    # a child that appends only links below floating-point resolution (cut
    # 25: the edge links) shares its parent's chain
    final = scenario_a_run["state"]
    parent = TriangulationState(final.complex, final.realization, final.links[:cut])
    child = parent.with_links(final.links[cut:])
    fresh = TriangulationState(final.complex, final.realization, final.links)
    vertex_links = tuple(lk for lk in final.links if lk.level == 0)
    assert child.links == final.links and child._evaluated == fresh._evaluated == vertex_links
    assert len(child._ops.runs) == len(fresh._ops.runs) == 1
    assert child._ops.runs[0].links == fresh._ops.runs[0].links == list(vertex_links)
    assert (child._ops is parent._ops) == (cut == 25)
    rng = np.random.default_rng(24)
    real = final.realization
    pts = np.concatenate([rng.uniform(-2.0, 2.0, size=(300, 2)),
                          [real.point(v) + rng.normal(size=2) * 1e-3 for v in real.vertex_ids]])
    want = ChainOps(vertex_links).apply_with_jacobian(pts)
    for a, b, c in zip(child.eval_eta_with_jacobian(pts), fresh.eval_eta_with_jacobian(pts), want):
        assert same_bits(a, b) and same_bits(a, c)
    assert same_bits(child.eval_eta(pts), want[0])


def _pipeline_run(name, seed=1, resolution=None):
    """The final state, report, map and config of `run` of a shipped
    scenario, at a seed and, on request, another mesh resolution."""
    scenario = cli.load_scenario(str(SCENARIOS / f"{name}.cfg"))
    if resolution is not None:
        scenario.mesh_spec["resolution"] = resolution
    cplx, real, h = cli._build_inputs(scenario)
    config = scenario.config.replace(seed=seed)
    state, report = perturb.make_transverse(cplx, real, h, config)
    return state, report, h, config


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_state_chain_skips_only_the_links_below_resolution(name):
    # at the paper's fade rate a link above level 0 moves a point by less
    # than 3e-26 and changes |J - I| by about 1e-22 (B's level 2: 0.0), so
    # the state's chain skips exactly those links.  At random rows, rows
    # near vertices and rows on every face below the top, it differs from
    # the chain of every link by at most their summed move bound plus 4 ulps
    # of the mesh's largest coordinate (the frame round trips b + A t + N w
    # that the skipped links make); its Jacobians by at most |J| times the
    # |J - I| bounds of the skipped links whose box holds the row, each
    # plus |P - I| (the cached P = M I M^-1 that such a link takes off its
    # fade support rounds away from I), plus a rounding of the products
    state = _pipeline_run(name)[0]
    links, m, real = state.links, state.ambient_dim, state.realization
    res = 2.0 ** -53
    skipped = [lk for lk in links if lk.level]
    assert state._evaluated == tuple(lk for lk in links if lk.level == 0)
    assert all(lk.bounds[0] > res * state.mesh_scale for lk in state._evaluated)
    assert all(lk.bounds[0] <= res * state.mesh_scale and lk.bounds[1] <= res for lk in skipped)
    assert max(lk.bounds[0] for lk in skipped) < 3e-26
    if m == 3:
        assert {lk.bounds for lk in skipped if lk.level == 2} == {(0.0, 0.0)}
    rng = np.random.default_rng(34)
    lo, hi = real.bbox()
    verts = np.array([real.point(v) for v in state.complex.vertex_ids])
    pts = [rng.uniform(lo, hi, size=(500, m)),
           verts[rng.integers(len(verts), size=500)] + 1e-3 * rng.normal(size=(500, m))]
    for l in range(1, m):
        faces = real.points(np.array([s.vertices for s in state.complex.by_dim(l)]))
        own = rng.integers(len(faces), size=500)
        pts.append(np.einsum("ik,ikj->ij", rng.dirichlet(np.ones(l + 1), size=500), faces[own]))
    pts = np.concatenate(pts)
    full = ChainOps(links)
    x, J = state.eval_eta_with_jacobian(pts)
    fx, fJ = full.apply_with_jacobian(pts)
    assert same_bits(state.eval_eta(pts), x)
    ulp = np.spacing(np.abs(np.array([lo, hi])).max())
    assert np.abs(x - fx).max() <= sum(lk.bounds[0] for lk in skipped) + 4.0 * ulp
    assert (x != fx).any()  # the round trips move last bits of some rows on edges
    eye = np.eye(m)
    off = {id(lk): np.linalg.norm(P - eye) for run in full.runs for lk, P in zip(run.links, run.P)}
    room = sum(lk.box_mask(pts) * (lk.bounds[1] + off[id(lk)]) for lk in skipped) + 2.0 ** -50
    assert (np.linalg.norm(J - fJ, axis=(1, 2)) <= room * np.linalg.norm(fJ, axis=(1, 2))).all()
    assert (J != fJ).any()


def _found_bits(found):
    """find_intersections' result as comparable text, every bit of a float kept."""
    return repr([([_record_fields(r) for r in recs], m) for recs, m in found])


def test_searches_are_reused_only_for_identical_inputs(scenario_a_run, monkeypatch):
    h, config = scenario_a_run["h"], scenario_a_run["config"]
    start = _level_start(scenario_a_run, 1)
    links = [lk for lk in scenario_a_run["state"].links if lk.level == 1]
    state = start.with_links(links)
    assert start.with_links(tuple(links)) is state
    assert start.with_links(links[:-1] + [links[-1]]) is state
    assert start.with_links(list(reversed(links))) is not state
    edges = list(start.complex.by_dim(1))
    searched = []
    pair_seeds = verify._pair_seeds

    def spy(h, patch, config, scale, t_per_dim=None, **kw):
        searched.append(patch.size)
        return pair_seeds(h, patch, config, scale, t_per_dim, **kw)

    monkeypatch.setattr(verify, "_pair_seeds", spy)
    first = find_intersections(state, edges, h, config)
    again = find_intersections(state, start.complex.by_dim(1), h, config)
    assert searched == [len(edges)]  # the second call takes the first one's search
    assert again is not first and all(a[0] is not b[0] for a, b in zip(again, first))  # new lists
    assert _found_bits(again) == _found_bits(first)
    for other in ([state, edges[::-1], h, config], [state, edges[:5], h, config],
                  [state, edges, CircleMap((0.0, 0.0), 1.0), config],
                  [state, edges, h, config.replace()],
                  [TriangulationState(state.complex, state.realization, state.links), edges, h,
                   config]):
        find_intersections(state, edges, h, config)  # keep the first search's inputs again
        del searched[:]
        find_intersections(*other)
        assert len(searched) == 1
    # a search of another dimension is kept beside it, and one of the same
    # dimension replaces it
    find_intersections(state, start.complex.by_dim(0), h, config)
    del searched[:]
    find_intersections(state, edges, h, config)
    assert searched == [] and sorted(state._searches) == [0, 1]
    find_intersections(state, edges[:5], h, config)
    del searched[:]
    find_intersections(state, edges, h, config)
    assert len(searched) == 1


@pytest.mark.parametrize("first", ["sampling", "clearance"])
def test_level_failure_names_the_lowest_index_simplex(scenario_a_run, monkeypatch, first):
    # a clearance above the largest vertex move, 1.3e-3, rejects every
    # candidate of the four vertices on the circle: 7 (-1, 0), 11 (0, -1),
    # 13 (0, 1) and 17 (1, 0)
    h = scenario_a_run["h"]
    config = scenario_a_run["config"].replace(vertex_clearance=2e-2, max_retries=4)
    state = _level_start(scenario_a_run, 0)
    sd = subdivision_data(state)
    degenerate = sc.Simplex((3,)) if first == "clearance" else sc.Simplex((12,))
    real_search = perturb.estimate_c_sigma

    def search(state, simplices, config, sd_data=None, charts=None):
        batch = list(simplices)
        if degenerate not in batch:
            return real_search(state, simplices, config, sd_data, charts)
        j = batch.index(degenerate)
        found = real_search(state, batch[:j], config, sd_data, charts[:j]) if j else []
        raise DegenerateGeometryError(f"no fiber clearance for simplex {degenerate.vertices}",
                                      clearances=found)

    monkeypatch.setattr(perturb, "estimate_c_sigma", search)
    _, want = ref_level(state, 0, h, config, sd)
    with pytest.raises(PerturbationError) as err:
        perturb_level(state, 0, h, config, sd)
    assert str(err.value) == want
    named = degenerate if first == "clearance" else sc.Simplex((7,))
    assert err.value.simplex == named
    assert want.startswith(f"level 0 aborted at simplex {named.vertices}: ")


def test_degenerate_run_message(tmp_path, capsys):
    scenario = cli.load_scenario(str(SCENARIOS / "scenario_b_degenerate.cfg"))
    assert cli.run(scenario, out_dir=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "pipeline failed: level 1 aborted at simplex (4, 13): 64 candidates rejected for"
        " simplex (4, 13); the deformation scale cannot clear the verifier thresholds"
        " (tolerances too strict for this geometry)\n")


def _trial_links(state, level, eps=0.05):
    """One candidate link per simplex of a level, as shift sampling makes
    them, with the local diffeomorphisms they extend."""
    perts = [LocalDiffeo(make_chart(state, s), eps, eps,
                         _draw_shift(RNG, state.ambient_dim - level, eps))
             for s in state.complex.by_dim(level)]
    return perturb.extend_to_ambient(perts), perts


@pytest.mark.parametrize("level", [0, 1])
def test_trial_state_patch_is_the_deformed_simplex(scenario_a_run, level):
    # the simplex of the trial state is eta(b + A t + N warp(t) v), eta that
    # of the level start: the telescoping chain puts the trial link first
    state = _level_start(scenario_a_run, level)
    links, perts = _trial_links(state, level)
    patch = simplex_patch(state.with_links(links), [lk.simplex for lk in links])
    owner = RNG.integers(len(links), size=200)
    t = RNG.dirichlet(np.ones(level + 1), size=200)[:, :level]
    x, J = patch.eval_jac(t, owner)
    assert same_bits(patch.eval(t, owner), x)
    if level == 0:  # the shift moves each vertex by warp(t) |v| = exp(-1) |v|
        base = simplex_patch(state, [lk.simplex for lk in links]).eval(t, owner)
        assert (row_norms(x - base) > 1e-6).all()
    for k in np.unique(owner):
        rows, pert = owner == k, perts[k]
        xk, Jk = chart_eval_jac(state, pert.chart, t[rows], pert.shift(t[rows]))
        w2 = np.asarray(bump.scaled_warp(bump.rho_l(t[rows]), 2))[..., None, None]
        dS = np.where(w2 == 0.0, 0.0, pert.v[:, None] * bump.rho_l_grad(t[rows])[..., None, :] * w2)
        assert np.abs(x[rows] - xk).max() < 1e-12
        assert np.abs(J[rows] - (Jk[..., :level] + Jk[..., level:] @ dS)).max(initial=0.0) < 1e-12


def test_candidates_are_seeded_on_the_final_report_lattice(monkeypatch):
    # a plane across the unit cube meets its triangles along segments
    # (n + l = 4 > m = 3), where find_intersections thins the simplex lattice
    cplx, real = sc.grid_triangulation((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1)
    state = TriangulationState(cplx, real)
    coeffs = np.zeros((2, 2, 3))
    coeffs[0, 0], coeffs[1, 0], coeffs[0, 1] = (0.0, 0.0, 0.37), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    h = SurfacePatchMap(coeffs, (-0.2, -0.2), (1.2, 1.2))
    config = PipelineConfig(surface_density=6)
    seen = []

    def spy(h, patch, config, scale, t_per_dim=None, **kw):
        seen.append(t_per_dim if t_per_dim is not None
                    else lattice_per_dim(config.simplex_seed_density, patch.l))
        return pair_seeds(h, patch, config, scale, t_per_dim, **kw)

    pair_seeds = verify._pair_seeds
    monkeypatch.setattr(verify, "_pair_seeds", spy)
    links, _ = _trial_links(state, 2)
    verdicts = perturb._candidate_transverse(state, links, h, config)
    find_intersections(state, [lk.simplex for lk in links], h, config)
    assert len(verdicts) == len(links) and len(seen) == 2
    assert seen[0] == seen[1] == max(2, lattice_per_dim(config.simplex_seed_density, 2) // 4)


def test_candidate_verdicts_are_a_plain_list(scenario_a_run):
    state = _level_start(scenario_a_run, 1)
    links = _trial_links(state, 1)[0][:5]
    verdicts = perturb._candidate_transverse(state, links, scenario_a_run["h"],
                                             scenario_a_run["config"])
    assert type(verdicts) is list and len(verdicts) == 5
    assert all(type(v) is bool for v in verdicts)
