"""Constructive pipeline: clearance search, shift sampling, the local
diffeomorphism and its analytic Jacobian, ambient extension, level
composition, end-to-end behavior and error contracts."""

import numpy as np
import pytest

import oracles
from transtri import bump, perturb
from transtri import simplicial as sc
from transtri.charts import (StarLocator, TriangulationState, dump_chain_metadata, make_chart,
                             make_charts)
from transtri.config import PipelineConfig
from transtri.errors import (DegenerateGeometryError, MeshError,
                             PerturbationError, SamplingFailureError)
from transtri.perturb import (LocalDiffeo, _Draw, _sample_shift, _unit_directions,
                              containment_ok, estimate_c_sigma, extend_to_ambient,
                              make_transverse, perturb_level, subdivision_data)
from transtri.smoothmap import CircleMap, LineMap, PointMap
from transtri.verify import fd_jacobian_check, interior_lattice, lattice_per_dim

RNG = np.random.default_rng(31)
CFG = PipelineConfig(seed=5)


def make_pert(state, s, eps=0.05, v=None, c_sigma=0.2, seed=0):
    chart = make_chart(state, s)
    rng = np.random.default_rng(seed)
    if v is None:
        v = rng.uniform(-1, 1, size=state.ambient_dim - s.dim)
        v *= 0.8 * eps**2 / np.linalg.norm(v)
    return LocalDiffeo(chart, c_sigma, eps, np.asarray(v, float))


def containment_lattice(l, config):
    return interior_lattice(l, lattice_per_dim(config.containment_density, l))


def chart_point(state, chart, t, v):
    """The chart's frame point (t, v) pushed through the chain of state."""
    return state.eval_eta(chart.frame_point(t, v))


class TestClearanceSearch:
    def test_top_simplex_rejected(self, base_state):
        with pytest.raises(MeshError):
            estimate_c_sigma(base_state, [sc.Simplex((0, 2, 3))], CFG)

    def test_interior_edge_has_positive_clearance(self, base_state):
        [c] = estimate_c_sigma(base_state, [sc.Simplex((0, 3))], CFG)
        assert c > 0

    def test_monotone_under_halving(self, base_state):
        s = sc.Simplex((0, 3))
        sd = subdivision_data(base_state)
        chart = make_chart(base_state, s)
        locator = StarLocator(sd.index, CFG.barycentric_tol)
        lattice = containment_lattice(1, CFG)
        dirs = _unit_directions(1)
        c = 2.0 * estimate_c_sigma(base_state, [s], CFG, sd_data=sd, charts=[chart])[0]
        assert containment_ok([chart], locator, lattice, dirs, [c], sd) == [True]
        assert containment_ok([chart], locator, lattice, dirs, [c / 2], sd) == [True]

    def test_accepted_points_verified_by_location_oracle(self, base_state):
        # every tested fiber point pulls back into the star (interior edge)
        s = sc.Simplex((0, 3))
        sd = subdivision_data(base_state)
        chart = make_chart(base_state, s)
        [c] = estimate_c_sigma(base_state, [s], CFG, sd_data=sd, charts=[chart])
        star_set = sc.star(sd.cplx, sc.Simplex((sd.barycenter_ids[s],)))
        for t in containment_lattice(1, CFG):
            rho = bump.rho_l(t)
            for u in _unit_directions(1):
                x = chart_point(base_state, chart, t, c * rho * u)
                loc = sc.point_locate(sd.cplx, sd.realization,
                                      base_state.eval_eta_inverse(x))
                assert loc is not None and loc.simplex in star_set

    def test_outside_complex_test_uses_barycentric_tol(self, base_state):
        # one fiber sample of vertex 0 at (-1e-8, 0.9): 1e-8 outside the left
        # mesh edge, beside the half of it that is not in the star; the other
        # sample, at (-5e-9, 0.45), lies beside the half that is
        s = sc.Simplex((0,))
        sd = subdivision_data(base_state)
        chart = make_chart(base_state, s)
        target = np.array([-1e-8, 0.9])
        c = float(np.linalg.norm(target))
        args = (containment_lattice(0, CFG), (target / c)[None], [c], sd)
        # at barycentric_tol = 1e-6 the sample lies on the complex and outside
        # the star, so the fiber region fails ...
        assert containment_ok([chart], StarLocator(sd.index, 1e-6), *args) == [False]
        # ... while at the default 1e-10 it misses the complex entirely
        assert containment_ok([chart], StarLocator(sd.index, 1e-10), *args) == [True]

    def test_degenerate_floor_raises(self, base_state):
        # an absurd barycentric tolerance makes every membership test of the
        # sampled search fail
        bad = CFG.replace(barycentric_tol=0.9, c_min=1e-3)
        with pytest.raises(DegenerateGeometryError):
            oracles.sampled_c_sigma(base_state, [sc.Simplex((0, 3))], bad)
        # a floor above every star diameter leaves the search no candidate:
        # the first simplex is named, with no clearance before it
        edges = base_state.complex.by_dim(1)
        with pytest.raises(DegenerateGeometryError, match=r"simplex \(0, 1\)$") as err:
            estimate_c_sigma(base_state, edges, CFG.replace(c_min=10.0))
        assert err.value.clearances == []

    def test_comb_slot_needs_the_boundary_pieces(self):
        # a fiber ball of a vertex on a slot wall leaves |K| into the slot
        # and comes back on its other wall, outside the star; the distance to
        # the link alone would let it, doubling c_sigma on both walls
        state = comb_state()
        sd = subdivision_data(state)
        got = {}
        for l in (0, 1):
            simplices = state.complex.by_dim(l)
            got[l] = estimate_c_sigma(state, simplices, CFG, sd)
            want = oracles.sampled_c_sigma(state, simplices, CFG, sd)
            assert [repr(c) for c in got[l]] == [repr(c) for c in want], l
        assert len(got[0]) + len(got[1]) == 93
        assert repr(got[0][12]) == "0.08398185154477657"
        link_only = subdivision_data(state)
        ids, pts, lo, hi, on = link_only.boundary
        link_only.boundary = (ids, pts, lo, hi, np.zeros_like(on))
        vertices = state.complex.by_dim(0)
        link = estimate_c_sigma(state, vertices, CFG, link_only)
        walls = [12, 13, 14, 17, 18, 19]
        assert [i for i, (a, b) in enumerate(zip(got[0], link)) if a != b] == walls
        assert all(link[i] == 2.0 * got[0][i] for i in walls)
        assert estimate_c_sigma(state, state.complex.by_dim(1), CFG, link_only) == got[1]
        # the ball of vertex 12 at the link-only passing radius reaches the far wall
        pts, owner = fiber_ball_points(state, sd, 0, [2.0 * c for c in link],
                                       np.random.default_rng(3))
        out = on_complex_outside_star(sd, StarLocator(sd.index, CFG.barycentric_tol), pts, owner)
        assert out[owner == sd.barycenter_ids[vertices[12]]].any()

    @pytest.mark.parametrize("case", ["comb", "scenario_a", "scenario_b"])
    def test_whole_fiber_ball_stays_in_the_open_star(self, case):
        # fiber points in random directions, at the passing radius
        # 2 c_sigma rho(t) and at random fractions of it, lie in the open star
        # of the barycentre or off |K|: the sampled search only tried a few
        # directions
        grids = {"scenario_a": ((-2, -2), (2, 2), 4), "scenario_b": ((-1, -1, -1), (1, 1, 1), 2)}
        state = comb_state() if case == "comb" else TriangulationState(
            *sc.grid_triangulation(*grids[case]))
        sd = subdivision_data(state)
        locator = StarLocator(sd.index, CFG.barycentric_tol)
        rng = np.random.default_rng(11)
        off = 0
        for l in range(state.ambient_dim):
            cs = estimate_c_sigma(state, state.complex.by_dim(l), CFG, sd)
            pts, owner = fiber_ball_points(state, sd, l, [2.0 * c for c in cs], rng)
            assert not on_complex_outside_star(sd, locator, pts, owner).any(), l
            off += sum(c is None for c in sd.carrier(pts, CFG.barycentric_tol))
        assert off  # the balls of boundary simplices leave the complex


def comb_state():
    """A comb of unit-high cells at x = 0, 1, 2, 2.25, 3.25, 4.25 and y = 0..4
    (vertex 5 i + j at (x_i, j)), Kuhn-split, without the cells of column 2
    above row 0: a slot 0.25 wide between vertices 11..14 and 16..19."""
    xs = [0.0, 1.0, 2.0, 2.25, 3.25, 4.25]
    coords = {5 * i + j: np.array([x, float(j)]) for i, x in enumerate(xs) for j in range(5)}
    tops = [t for i in range(5) for j in range(4) if i != 2 or j == 0
            for c in [5 * i + j] for t in ((c, c + 5, c + 6), (c, c + 1, c + 6))]
    cplx = sc.build_complex(30, tops)
    return TriangulationState(cplx, sc.GeometricRealization(coords, cplx))


def fiber_ball_points(state, sd, l, radii, rng, n=32):
    """Fiber points of the l-simplices of state at every point t of their
    clearance lattice, n per point: in random normal directions, half at
    radii[i] rho(t) and half at random fractions of it; with the
    barycentre of each point's simplex."""
    simplices = state.complex.by_dim(l)
    lattice = containment_lattice(l, CFG)
    rho = bump.rho_l(lattice)
    frac = np.concatenate([np.ones((len(lattice), n // 2)),
                           rng.uniform(size=(len(lattice), n - n // 2))], axis=1)
    pts = []
    for chart, r in zip(make_charts(state, simplices), radii):
        u = rng.normal(size=(len(lattice), n, state.ambient_dim - l))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        vs = (r * rho[:, None] * frac)[..., None] * u
        pts.append(chart.frame_point(np.repeat(lattice, n, axis=0), vs.reshape(-1, u.shape[2])))
    return np.concatenate(pts), np.repeat(sd.barycenters(simplices), len(lattice) * n)


def on_complex_outside_star(sd, locator, pts, vertex):
    """Whether each row of pts lies on |K| outside the open star of its
    vertex, by location."""
    inside = locator.contains_base_point(pts, vertex)[0]
    out = np.zeros(len(pts), bool)
    out[~inside] = [c is not None for c in sd.carrier(pts[~inside], locator.tol)]
    return out


def sampled_shift(state, s, h, eps, config, rng):
    """The shift vector that level-wide sampling accepts for s alone, or the
    error it leaves."""
    draw = _Draw(make_chart(state, s), rng, c_sigma=eps, eps=eps)
    _sample_shift(state, [draw], h, config)
    if draw.error is not None:
        raise draw.error
    return draw.link.local.v


class TestSampleRegularValue:
    def test_disjoint_map_first_candidate_accepted(self, base_state):
        h = CircleMap((5.0, 5.0), 0.5)
        v = sampled_shift(base_state, sc.Simplex((0, 3)), h, 0.05, CFG,
                          np.random.default_rng(9))
        expect = None
        rng = np.random.default_rng(9)
        while expect is None:
            cand = rng.uniform(-0.05**2, 0.05**2, size=1)
            if 0 < abs(float(cand[0])) < 0.05**2:
                expect = cand
        assert np.array_equal(v, expect)
        assert 0 < np.linalg.norm(v) < 0.05**2

    def test_vertex_shift_clears_point_map(self, base_state):
        # point map sitting exactly on a vertex; any accepted shift must
        # move the vertex image beyond the clearance threshold
        h = PointMap((0.0, 0.0))
        s = sc.Simplex((0,))
        v = sampled_shift(base_state, s, h, 0.05, CFG, np.random.default_rng(1))
        moved = np.exp(-1.0) * v  # vertex displacement for the 0-dim profile
        assert np.linalg.norm(moved - np.zeros(2)) > CFG.vertex_clearance

    def test_rejection_exhaustion_raises_with_diagnostics(self, base_state):
        # clearance demanded beyond the largest possible displacement
        h = PointMap((0.0, 0.0))
        cfg = CFG.replace(max_retries=8, vertex_clearance=0.5)
        with pytest.raises(SamplingFailureError) as info:
            sampled_shift(base_state, sc.Simplex((0,)), h, 0.05, cfg,
                          np.random.default_rng(2))
        assert info.value.diagnostics["epsilon"] == 0.05


class TestLocalDiffeo:
    def test_identity_beyond_fade_radius(self, base_state):
        pert = make_pert(base_state, sc.Simplex((0, 3)))
        assert oracles.sampled_distortion(pert) < 0.5
        t = np.array([0.5])
        rho = bump.rho_l(t)
        v = np.array([[2.0 * pert.epsilon * rho]])
        t2, v2 = oracles.local_eval(pert, t[None], v)
        assert v2 is v  # exact fixed point, same object

    def test_identity_outside_open_simplex(self, base_state):
        pert = make_pert(base_state, sc.Simplex((0, 3)))
        assert oracles.sampled_distortion(pert) < 0.5
        for t in (np.array([-0.1]), np.array([0.0]), np.array([1.0])):
            v = np.array([[1e-6]])
            _, v2 = oracles.local_eval(pert, t[None], v)
            assert v2 is v

    def test_zero_section_moves_by_shift(self, base_state):
        # beta(0) = 1, so (t, 0) goes to (t, s(t))
        pert = make_pert(base_state, sc.Simplex((0,)), eps=0.05)
        assert oracles.sampled_distortion(pert) < 0.5
        t = np.zeros(0)
        v2 = oracles.local_eval(pert, t[None], np.zeros((1, 2)))[1][0]
        assert np.allclose(v2, pert.shift(t), atol=0)
        assert np.allclose(v2, np.exp(-1.0) * pert.v)

    @pytest.mark.parametrize("sdim", [0, 1])
    def test_jacobian_matches_finite_differences(self, base_state, sdim):
        s = sc.Simplex((0,)) if sdim == 0 else sc.Simplex((0, 3))
        pert = make_pert(base_state, s, eps=0.05)
        assert oracles.sampled_distortion(pert) < 0.5

        def f(tv):
            t, v = tv[:sdim], tv[sdim:]
            t2, v2 = oracles.local_eval(pert, t[None], v[None])
            return np.concatenate([t2[0], v2[0]])

        def jac(tv):
            return oracles.local_jacobian(pert, tv[None, :sdim], tv[None, sdim:])[0]

        pts = []
        while len(pts) < 100:
            t = RNG.uniform(0.1, 0.9, size=sdim)
            rho = bump.rho_l(t)
            v = RNG.uniform(-1, 1, size=2 - sdim)
            v *= RNG.uniform(0.0, 0.9) * pert.epsilon * rho / np.linalg.norm(v)
            pts.append(np.concatenate([t, v]))
        assert fd_jacobian_check(f, jac, pts, step=1e-7) < 1e-6
        for p in pts:
            assert np.linalg.det(jac(p)) > 0.0

    def test_jacobian_guard_samples_below_half(self, base_state):
        pert = make_pert(base_state, sc.Simplex((0,)), eps=0.059)
        assert oracles.sampled_distortion(pert) < 0.5
        for _ in range(50):
            v = RNG.uniform(-1, 1, size=2)
            v *= RNG.uniform(0, 1) * pert.epsilon / np.linalg.norm(v)
            J = oracles.local_jacobian(pert, np.zeros((1, 0)), v[None])[0]
            assert np.linalg.norm(J - np.eye(2), 2) < 0.5

    @pytest.mark.parametrize("sdim,rows", [(0, 78), (1, 96)])
    def test_guard_checks_every_sample_in_r3(self, monkeypatch, sdim, rows):
        # 26 directions around a vertex, 8 around an edge: the sampled |J - I|
        # that tests check against the closed-form bound covers fiber radii
        # 0, 0.4 and 0.8 of the fade at every lattice point in one call, not
        # only the leading rows (24 copies of v = 0 for a vertex)
        cplx, real = sc.grid_triangulation((0, 0, 0), (1, 1, 1), 1)
        state = TriangulationState(cplx, real)
        pert = make_pert(state, cplx.by_dim(sdim)[0], eps=0.05)
        seen = []
        real_jacobian = oracles.local_jacobian

        def jacobian(psi, t, v):
            seen.append((t, v))
            return real_jacobian(psi, t, v)

        monkeypatch.setattr(oracles, "local_jacobian", jacobian)
        assert oracles.sampled_distortion(pert) < 0.5
        [(t, v)] = seen
        assert len(v) == rows
        frac = np.linalg.norm(v, axis=1) / (pert.epsilon * bump.rho_l(t))
        assert np.unique(np.round(frac, 12)).tolist() == [0.0, 0.4, 0.8]
        assert len(np.unique(t, axis=0)) == (1 if sdim == 0 else 4)

    def test_fiber_inverse_round_trip(self, base_state):
        pert = make_pert(base_state, sc.Simplex((0, 3)), eps=0.05)
        assert oracles.sampled_distortion(pert) < 0.5
        for _ in range(100):
            t = RNG.uniform(0.2, 0.8, size=1)
            rho = bump.rho_l(t)
            v = RNG.uniform(-1, 1, size=1) * pert.epsilon * rho
            w = oracles.local_eval(pert, t[None], v[None])[1][0]
            moved, v2 = oracles.local_inverse_moves(pert, t[None], w[None])
            v2 = v2[0] if moved.size else w
            assert np.linalg.norm(v2 - v) < 1e-11

    def test_invariants_enforced(self, base_state):
        chart = make_chart(base_state, sc.Simplex((0, 3)))
        with pytest.raises(ValueError, match="c_sigma"):
            LocalDiffeo(chart, 0.01, 0.05, np.array([1e-5]))
        with pytest.raises(ValueError, match="epsilon"):
            LocalDiffeo(chart, 1.0, 0.9, np.array([1e-5]))
        with pytest.raises(ValueError, match=r"\|v\|"):
            LocalDiffeo(chart, 1.0, 0.05, np.array([0.01]))


class TestAmbientExtension:
    def _link(self, state, s, eps=0.05):
        pert = make_pert(state, s, eps=eps)
        assert oracles.sampled_distortion(pert) < 0.5
        return extend_to_ambient([pert])[0]

    def test_identity_outside_support_box(self, base_state):
        link = self._link(base_state, sc.Simplex((0, 3)))
        count = 0
        while count < 100:
            p = RNG.uniform(-1, 2, size=2)
            if link.in_box(p):
                continue
            assert np.array_equal(link.apply(p[None])[0], p)
            assert np.array_equal(link.invert(p[None])[0], p)
            count += 1

    def test_barycenter_moves_within_shift_bound(self, base_state):
        s = sc.Simplex((0, 3))
        link = self._link(base_state, s)
        pert = link.local
        b = sc.barycenter(s, base_state.realization)
        moved = link.apply(b[None])[0]
        rho_max = bump.rho_l(np.full(1, 0.5))
        assert np.linalg.norm(moved - b) <= pert.epsilon**2 * rho_max

    def test_apply_invert_round_trip_on_support(self, base_state):
        link = self._link(base_state, sc.Simplex((0, 3)))
        count = 0
        while count < 100:
            p = RNG.uniform(link.support_lo, link.support_hi)
            q = link.invert(link.apply(p[None]))[0]
            assert np.linalg.norm(q - p) < 1e-9
            count += 1


class TestLevels:
    def test_level_without_simplices_unchanged(self):
        cplx = sc.build_complex(2, [(0,), (1,)])
        real = sc.GeometricRealization({0: np.zeros(2), 1: np.ones(2)}, cplx)
        state = TriangulationState(cplx, real)
        h = PointMap((5.0, 5.0))
        out = perturb_level(state, 1, h, CFG)
        assert out is state

    def test_same_level_links_commute(self, small_pipeline):
        state = small_pipeline["state"]
        level0 = [lk for lk in state.links if lk.level == 0]
        a, b = level0[0], level0[1]
        for _ in range(1000):
            p = RNG.uniform(-0.2, 1.2, size=2)
            ab = a.apply(b.apply(p[None]))
            ba = b.apply(a.apply(p[None]))
            assert np.linalg.norm(ab - ba) <= 1e-12

    def test_lower_skeleton_fixed_after_each_level(self, two_triangle):
        cplx, real = two_triangle
        h = CircleMap((0.2, 0.2), 0.3)
        state = TriangulationState(cplx, real)
        sd = subdivision_data(state)
        for level in range(2):
            new_state = perturb_level(state, level, h, CFG, sd)
            if level >= 1:
                for _ in range(300):
                    s = cplx.by_dim(level - 1)[RNG.integers(len(cplx.by_dim(level - 1)))]
                    lam = RNG.dirichlet(np.ones(level))
                    p = lam @ real.simplex_points(s)
                    before = state.eval_eta(p)
                    after = new_state.eval_eta(p)
                    assert np.linalg.norm(after - before) < 1e-12
            state = new_state

    def test_links_are_logged_only_when_info_is_on(self, two_triangle, caplog, monkeypatch):
        # one line per link, with its |v|, at INFO; below INFO the loop that
        # takes the norms does not run
        cplx, real = two_triangle
        state, h = TriangulationState(cplx, real), CircleMap((0.2, 0.2), 0.3)
        with caplog.at_level("INFO", logger="transtri.perturb"):
            out = perturb_level(state, 0, h, CFG)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("level=0 ")]
        assert len(out.links) == len(lines) > 0
        assert lines[0].split("|v|=")[1].split()[0] == "%.6g" % np.linalg.norm(out.links[0].local.v)
        calls = []
        monkeypatch.setattr(perturb.log, "info", lambda *args: calls.append(args))
        with caplog.at_level("WARNING", logger="transtri.perturb"):
            perturb_level(state, 0, h, CFG)
        assert calls == []

    def test_out_of_range_level(self, base_state):
        with pytest.raises(PerturbationError):
            perturb_level(base_state, 2, PointMap((9.0, 9.0)), CFG)


class TestMakeTransverse:
    def test_disjoint_image_short_circuit(self, two_triangle):
        cplx, real = two_triangle
        h = CircleMap((5.0, 5.0), 0.5)
        state, report = make_transverse(cplx, real, h, CFG)
        assert len(state.links) == 0
        assert report.passed

    def test_point_onto_vertex_lands_in_open_triangle(self, two_triangle):
        cplx, real = two_triangle
        h = PointMap((0.0, 0.0))
        state, report = make_transverse(cplx, real, h, PipelineConfig(seed=2))
        assert report.passed
        pre = state.eval_eta_inverse(np.array([0.0, 0.0]))
        loc = sc.point_locate(cplx, real, pre)
        assert loc is not None
        assert loc.simplex.dim == 2
        assert loc.margin > 1e-9

    def test_deterministic_chain_metadata(self, two_triangle):
        cplx, real = two_triangle
        h = CircleMap((0.2, 0.2), 0.3)
        s1, _ = make_transverse(cplx, real, h, PipelineConfig(seed=7))
        s2, _ = make_transverse(cplx, real, h, PipelineConfig(seed=7))
        assert dump_chain_metadata(s1) == dump_chain_metadata(s2)
        s3, _ = make_transverse(cplx, real, h, PipelineConfig(seed=8))
        assert dump_chain_metadata(s1) != dump_chain_metadata(s3)

    def test_line_containing_edge_aborts_with_sampling_failure(self, two_triangle):
        # a map running along an edge cannot be separated from it: the
        # fade profile pins the edge interior in place, every candidate
        # is rejected, and the level aborts naming the simplex
        cplx, real = two_triangle
        h = LineMap((0.0, 0.0), (1.0, 1.0), -0.25, 1.25)
        cfg = PipelineConfig(seed=1, max_retries=4)
        with pytest.raises(PerturbationError) as info:
            make_transverse(cplx, real, h, cfg)
        assert info.value.level == 1
        assert isinstance(info.value.__cause__, SamplingFailureError)

    def test_mismatched_codomain(self, two_triangle):
        cplx, real = two_triangle
        with pytest.raises(MeshError):
            make_transverse(cplx, real, PointMap((0.0, 0.0, 0.0)), CFG)

    def test_small_pipeline_passes(self, small_pipeline):
        assert small_pipeline["report"].passed
        assert len(small_pipeline["state"].links) == 9  # 4 vertices + 5 edges


class TestSupportContainment:
    def test_link_moves_points_only_within_its_star(self, small_pipeline):
        # sampled support points stay inside the barycenter star (or off
        # the complex near the mesh boundary); everything else is fixed
        state = small_pipeline["state"]
        base = TriangulationState(small_pipeline["cplx"], small_pipeline["real"])
        sd = subdivision_data(base)
        rng = np.random.default_rng(55)
        for link in state.links:
            star_set = sc.star(sd.cplx, sc.Simplex((sd.barycenter_ids[link.simplex],)))
            moved = checked = 0
            while checked < 60:
                p = rng.uniform(link.support_lo, link.support_hi)
                q = link.apply(p[None])[0]
                checked += 1
                if np.array_equal(q, p):
                    continue
                moved += 1
                for point in (p, q):
                    loc = sc.point_locate(sd.cplx, sd.realization, point)
                    assert loc is None or loc.simplex in star_set
            if link.level == 0:
                assert moved > 0

    def test_deformed_edge_matches_chart_composition(self, small_pipeline):
        # the final embedding of an edge equals its chart pushed along the
        # sampled shift: the chain composition telescopes exactly
        state = small_pipeline["state"]
        # the chain the edge charts were made against: the vertex links
        before = TriangulationState(state.complex, state.realization,
                                    [lk for lk in state.links if lk.level < 1])
        for link in state.links:
            if link.level != 1:
                continue
            pert = link.local
            b, A = state.realization.simplex_frame(link.simplex)
            for t in np.linspace(0.05, 0.95, 9):
                t = np.array([t])
                lhs = state.eval_eta(b + A @ t)
                rhs = chart_point(before, link.chart, t, pert.shift(t))
                assert np.linalg.norm(lhs - rhs) < 1e-12


class TestNewtonErrorContract:
    def test_divergence_error_carries_link(self, small_pipeline, monkeypatch):
        from transtri.errors import NewtonDivergenceError

        state = small_pipeline["state"]
        a, b = state.links[:2]
        # a NaN fade keeps every fiber Newton iterate off its root; the
        # vertex links move their own vertex, so the Newton runs there
        beta_and_deriv = bump.beta_and_deriv
        monkeypatch.setattr(bump, "beta_and_deriv",
                            lambda r: (np.full(np.shape(r), np.nan), beta_and_deriv(r)[1]))
        centers = [0.5 * (lk.support_lo + lk.support_hi) for lk in (a, b)]
        with pytest.raises(NewtonDivergenceError) as info:
            b.invert(centers[1][None])
        assert info.value.link is b
        # both rows fail in one pass of the chain: the older link is named
        with pytest.raises(NewtonDivergenceError) as info:
            state.eval_eta_inverse(np.array(centers[::-1]))
        assert info.value.link is a


class TestMonotoneProgress:
    def test_levels_pass_incrementally_and_stay_passing(self, two_triangle):
        # after level l, every simplex of dimension <= l passes; running
        # the next level does not break it
        from transtri.verify import verify_triangulation

        cplx, real = two_triangle
        h = CircleMap((0.2, 0.2), 0.3)
        state = TriangulationState(cplx, real)
        sd = subdivision_data(state)
        for level in range(2):
            state = perturb_level(state, level, h, CFG, sd)
            report = verify_triangulation(state, h, CFG)
            for s, st in report.statuses.items():
                if s.dim <= level:
                    assert st.passed, (level, s.vertices)
