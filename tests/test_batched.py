"""Batched evaluation equals stacked single-point evaluation, bit for bit.

The chain and its inverse, point location, the clearance test, the
verifier's Gauss-Newton refinement and the bump forms take (N, .) arrays
with a single point as the N = 1 case.  Each batched result must equal the
stack of the single-point results exactly, and the bump forms, the inverse
and point location must also equal scalar references (the math module for
the bump forms, the one-point loops the stacked solves replaced for the
others), because chain metadata and reports print these values with repr.
"""

import math

import numpy as np
import pytest

from transtri import bump
from transtri import simplicial as sc
from transtri.charts import TriangulationState, make_chart
from transtri.perturb import (_containment_lattice, _star_locator, _unit_directions,
                              containment_ok, subdivision_data)
from transtri.rows import lstsq_rows
from transtri.smoothmap import (CircleMap, LineMap, PointMap, PolyCurveMap, SurfacePatchMap,
                                TorusKnotMap)
from transtri.verify import _gauss_newton, _pair_seeds, simplex_patch

RNG = np.random.default_rng(20261018)


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


def _radii():
    return np.concatenate([RNG.uniform(-0.5, 1.5, 400), RNG.uniform(0.0, 0.003, 100),
                           10.0 ** RNG.uniform(-300, 0, 100), [0.0, -0.0, 0.5, 0.75, 1.0]])


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
    ys, ts, pairs, _ = _pair_seeds(h, patch, config, state.mesh_scale)
    iy, it = np.array(pairs, int).reshape(-1, 2).T
    # plus a few unpruned seeds, some far off the simplex
    y0 = np.concatenate([ys[iy], ys[RNG.integers(len(ys), size=5)]])
    t0 = np.concatenate([ts[it], RNG.uniform(-1.0, 2.0, size=(5, s.dim))])
    return h, patch, y0, t0, config, state.mesh_scale


@pytest.mark.parametrize("name", ["vertex", "edge", "triangle", "short_line", "point",
                                  "poly_curve"])
def test_gauss_newton_pairs_equal_single_pairs(scenario_a_run, name):
    h, patch, y0, t0, config, scale = _gn_case(scenario_a_run, name)
    batched = _gauss_newton(h, patch, y0, t0, config, scale)
    singles = [_gauss_newton(h, patch, y, t, config, scale) for y, t in zip(y0, t0)]
    assert len(batched) == len(singles) == len(y0)
    for b, s in zip(batched, singles):
        assert (b is None) == (s is None)
        if b is not None:
            assert np.array_equal(b[0], s[0]) and np.array_equal(b[1], s[1]) and b[2] == s[2]
    found = [b for b in batched if b is not None]
    if name == "short_line":
        assert not found  # every refinement leaves the map's domain
    else:
        assert found


# ---------------------------------------------------------------------------
# stacked least squares


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 2), (4, 3), (2, 3), (3, 4)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("rank_deficient", [False, True], ids=["full", "deficient"])
def test_lstsq_rows_equal_single_solves(shape, rank_deficient):
    A = RNG.normal(size=(300,) + shape) * 10.0 ** RNG.uniform(-4.0, 4.0, size=(300, 1, 1))
    if rank_deficient:
        A[:, :, -1] = 2.0 * A[:, :, 0]
    b = RNG.normal(size=(300, shape[0]))
    x = lstsq_rows(A, b)
    assert x.shape == (300, shape[1])
    for Ai, bi, xi in zip(A, b, x):
        assert same_bits(xi, np.linalg.lstsq(Ai, bi, rcond=None)[0])


def test_lstsq_rows_raises_on_nan():
    A = RNG.normal(size=(4, 3, 2))
    A[2, 1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        lstsq_rows(A, np.ones((4, 3)))


# ---------------------------------------------------------------------------
# chain inverse and point location against the one-point loops they replaced


def ref_fiber_invert(psi, t, w):
    """One-point fiber Newton: solve v + beta(|v| / (eps rho)) s = w."""
    rho = bump.rho_l(t)
    fade = psi.eps * rho
    if fade <= 0.0 or float(np.linalg.norm(w)) >= fade:
        return w
    s = bump.scaled_warp(rho, 0) * psi.v_shift
    if not s.any():
        return w
    w1 = bump.scaled_warp(rho, 1)
    v = np.array(w, float)
    for _ in range(50):
        vn = float(np.linalg.norm(v))
        r = vn / fade
        g = v + bump.beta(r) * s - w
        if float(np.linalg.norm(g)) < 1e-12:
            return v
        Jg = psi._fiber_block(v[None], np.array([vn]), np.array([bump.beta_deriv(r)]), w1)
        v = v - np.linalg.solve(Jg[0], g)
    raise AssertionError("reference fiber Newton did not converge")


def ref_chain_invert(state, x):
    """Preimage of one point: a box test per same-level run, then every
    link in it, oldest first, re-testing its own box."""
    ops = state._ops
    for idx, lo, hi in ops.runs:
        for j in np.nonzero(np.all((x >= lo) & (x <= hi), axis=1))[0]:
            link = ops.links[idx[j]]
            if not link.in_box(x):
                continue
            t, w = link.chart.frame_coords(x)
            v = ref_fiber_invert(link.local, t, w)
            if v is not w:
                x = link.chart.frame_point(t, v)
    return x


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


@pytest.mark.parametrize("kind", ["interior", "near_vertex", "outside"])
def test_point_location_rows_equal_single_points(scenario_a_run, kind):
    state, config = scenario_a_run["state"], scenario_a_run["config"]
    sd = subdivision_data(state)
    pts = _probe_points(state, kind)
    carriers = sd.carrier(pts)
    assert carriers == [sd.carrier(p) for p in pts]
    assert carriers == [ref_carrier(sd.realization, sd.tops, p, 1e-10) for p in pts]
    assert (kind == "outside") == all(c is None for c in carriers)
    # vertex 12 is (0, 0), 7 is (-1, 0) and 13 is (0, 1)
    seen_inside = False
    for s in (sc.Simplex((12,)), sc.Simplex((7, 12)), sc.Simplex((7, 12, 13))):
        locator = _star_locator(state, s, sd, config)
        inside = locator.contains_base_point(pts)
        assert inside.dtype == bool and inside.shape == (len(pts),)
        assert inside.tolist() == [locator.contains_base_point(p) for p in pts]
        assert inside.tolist() == [ref_carrier(sd.realization, locator.tops, p, locator.tol)
                                   in locator.star for p in pts]
        seen_inside |= inside.any()
    assert seen_inside == (kind != "outside")


def ref_containment_ok(state, chart, locator, lattice, dirs, c, sd_data):
    """Sequential scan: one sample at a time, stopping at the first that
    pulls back neither into the star nor outside the complex."""
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
    for x in chart.forward(np.array(ts), np.array(vs)):
        base = state.eval_eta_inverse(x)
        if locator.contains_base_point(base):
            continue
        if sd_data.carrier(base, locator.tol) is None:
            continue
        return False
    return True


@pytest.mark.parametrize("level", [0, 1])
def test_containment_equals_sequential_scan(scenario_a_run, level):
    final, config = scenario_a_run["state"], scenario_a_run["config"]
    # the state the clearance search of this level ran against
    state = TriangulationState(final.complex, final.realization,
                               [lk for lk in final.links if lk.level < level])
    sd = subdivision_data(state)
    dirs = _unit_directions(state.ambient_dim - level)
    lattice = _containment_lattice(level, config)
    verdicts = []
    for s in state.complex.by_dim(level):
        chart = make_chart(state, s)
        locator = _star_locator(state, s, sd, config)
        c = float(np.linalg.norm(locator.index.hi.max(axis=0) - locator.index.lo.min(axis=0)))
        while c > config.c_min:
            got = containment_ok(state, chart, locator, lattice, dirs, c, sd)
            assert got == ref_containment_ok(state, chart, locator, lattice, dirs, c, sd), \
                (s.vertices, c)
            verdicts.append(got)
            c *= 0.5
    # at level 0 the larger radii leave the star; an edge's fade keeps every
    # fiber sample of the level-1 search close to the edge
    assert any(verdicts) and (level == 1 or not all(verdicts))
