"""Tubular frames and the composed triangulation map: frames pushed through
the chain (defining property, Jacobians, injectivity, round trips), exact
identity off supports, Newton round trips, star membership."""

import numpy as np
import pytest

import oracles
from transtri import simplicial as sc
from transtri.charts import StarLocator, dump_chain_metadata, make_chart
from transtri.errors import MeshError
from transtri.perturb import subdivision_data
from transtri.verify import fd_jacobian, fd_jacobian_check

RNG = np.random.default_rng(23)


def random_simplex_params(l, k=50):
    lam = RNG.dirichlet(np.ones(l + 1), size=k)
    return lam[:, 1:]


def chart_point(state, ch, t, v):
    """The frame point (t, v) of a chart pushed through the chain of state."""
    return state.eval_eta(ch.frame_point(t, v))


class TestFrame:
    def test_axis_aligned_edge_chart_is_identity(self, base_state):
        # edge from (0,0) to (1,0): tangent e1, normal e2
        ch = make_chart(base_state, sc.Simplex((0, 2)))
        for t, v in [(0.0, 0.0), (0.3, 0.2), (1.0, -0.7)]:
            out = chart_point(base_state, ch, np.array([t]), np.array([v]))
            assert np.allclose(out, [t, v], atol=1e-15)

    def test_normal_frame_orthonormal_and_deterministic(self, base_state):
        ch1 = make_chart(base_state, sc.Simplex((0, 3)))
        ch2 = make_chart(base_state, sc.Simplex((0, 3)))
        N = ch1.normal
        assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-14)
        assert np.allclose(N.T @ ch1.tangent, 0.0, atol=1e-13)
        assert np.array_equal(ch1.normal, ch2.normal)

    def test_top_simplex_rejected(self, base_state):
        with pytest.raises(MeshError, match="normal directions"):
            make_chart(base_state, sc.Simplex((0, 2, 3)))

    def test_zero_section_matches_eta_on_samples(self, small_pipeline):
        state = small_pipeline["state"]
        for s in state.complex.by_dim(1):
            ch = make_chart(state, s)
            b, A = state.realization.simplex_frame(s)
            for t in random_simplex_params(1, 50):
                lhs = chart_point(state, ch, t, np.zeros(1))
                rhs = state.eval_eta(b + A @ t)
                assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_chart_jacobian_matches_finite_differences(self, small_pipeline):
        state = small_pipeline["state"]
        ch = make_chart(state, sc.Simplex((0, 3)))

        def f(tv):
            return chart_point(state, ch, tv[:1], tv[1:])

        def jac(tv):
            J = state.eval_eta_with_jacobian(ch.frame_point(tv[:1], tv[1:]))[1]
            return J @ np.hstack([ch.tangent, ch.normal])

        pts = [np.array([RNG.uniform(0.1, 0.9), RNG.uniform(-0.2, 0.2)])
               for _ in range(40)]
        assert fd_jacobian_check(f, jac, pts) < 1e-6

    def test_chart_injectivity_sampled(self, small_pipeline):
        state = small_pipeline["state"]
        ch = make_chart(state, sc.Simplex((0, 3)))
        tv = np.column_stack([RNG.uniform(0.0, 1.0, 1000), RNG.uniform(-0.3, 0.3, 1000)])
        imgs = np.array([chart_point(state, ch, p[:1], p[1:]) for p in tv])
        frame = np.hstack([ch.tangent, ch.normal])
        sig_min = np.linalg.svd(frame, compute_uv=False)[-1]
        for _ in range(2000):
            i, j = RNG.integers(0, 1000, size=2)
            if i == j:
                continue
            din = np.linalg.norm(tv[i] - tv[j])
            dout = np.linalg.norm(imgs[i] - imgs[j])
            assert dout >= 0.3 * sig_min * din

    def test_chart_inverse_round_trip(self, small_pipeline):
        state = small_pipeline["state"]
        ch = make_chart(state, sc.Simplex((0, 1)))
        for _ in range(100):
            t = RNG.uniform(0.05, 0.95, size=1)
            v = RNG.uniform(-0.2, 0.2, size=1)
            t2, v2 = oracles.frame_coords(ch, state.eval_eta_inverse(chart_point(state, ch, t, v)))
            assert np.linalg.norm(t2 - t) < 1e-9
            assert np.linalg.norm(v2 - v) < 1e-9


class TestEta:
    def test_empty_chain_is_coordinate_identity(self, base_state):
        for _ in range(20):
            p = RNG.uniform(-1, 2, size=2)
            assert np.array_equal(base_state.eval_eta(p), p)
            assert np.array_equal(base_state.eval_eta_inverse(p), p)

    def test_points_outside_all_supports_fixed_exactly(self, small_pipeline):
        state = small_pipeline["state"]
        lo = np.array([lk.support_lo for lk in state.links])
        hi = np.array([lk.support_hi for lk in state.links])
        count = 0
        while count < 100:
            p = RNG.uniform(-0.5, 1.5, size=2)
            if np.any(np.all((p >= lo) & (p <= hi), axis=1)):
                continue
            assert np.array_equal(state.eval_eta(p), p)
            assert np.array_equal(state.eval_eta_inverse(p), p)
            count += 1

    def test_round_trip_inverse(self, small_pipeline):
        state = small_pipeline["state"]
        worst = 0.0
        for _ in range(1000):
            p = RNG.uniform(-0.2, 1.2, size=2)
            q = state.eval_eta_inverse(state.eval_eta(p))
            worst = max(worst, float(np.linalg.norm(q - p)))
        assert worst < 1e-9

    def test_embedding_jacobian_full_rank_on_simplices(self, small_pipeline):
        state = small_pipeline["state"]
        for s in sorted(state.complex.simplices, key=sc.simplex_sort_key):
            if s.dim == 0:
                continue
            b, A = state.realization.simplex_frame(s)
            for t in random_simplex_params(s.dim, 10):
                _, J = state.eval_eta_with_jacobian(b + A @ t)
                sv = np.linalg.svd(J @ A, compute_uv=False)
                assert sv[-1] > 1e-8

    def test_eta_jacobian_matches_finite_differences(self, small_pipeline):
        state = small_pipeline["state"]
        pts = [RNG.uniform(0.0, 1.0, size=2) for _ in range(50)]

        def eta_jacobian(p):
            return state.eval_eta_with_jacobian(p)[1]

        assert fd_jacobian_check(state.eval_eta, eta_jacobian, pts) < 1e-6


def point_in_star(state, x, sd, s):
    """Whether an ambient point pulls back into the open star of the
    barycenter of s in the subdivision sd."""
    v = sd.barycenter_ids[s]
    return StarLocator(sd.index).contains_base_point(state.eval_eta_inverse(x), v)[0]


class TestPointInStar:
    def test_barycenter_in_own_star(self, base_state):
        sd = subdivision_data(base_state)
        s = sc.Simplex((0, 3))
        x = base_state.eval_eta(sc.barycenter(s, base_state.realization))
        assert point_in_star(base_state, x, sd, s)

    def test_far_vertex_not_in_star(self, base_state):
        sd = subdivision_data(base_state)
        s = sc.Simplex((0, 2))
        x = base_state.realization.point(1)  # opposite corner (0, 1)
        assert not point_in_star(base_state, x, sd, s)

    def test_matches_brute_force_location(self, base_state):
        # membership == carrier-of-location is in the star set
        sd = subdivision_data(base_state)
        s = sc.Simplex((0, 3))
        star_set = sc.star(sd.cplx, sc.Simplex((sd.barycenter_ids[s],)))
        for _ in range(200):
            x = RNG.uniform(-0.1, 1.1, size=2)
            got = point_in_star(base_state, x, sd, s)
            loc = sc.point_locate(sd.cplx, sd.realization, x)
            expect = loc is not None and loc.simplex in star_set
            assert got == expect


class TestChainDump:
    def test_dump_stable_and_complete(self, small_pipeline):
        state = small_pipeline["state"]
        d1 = dump_chain_metadata(state)
        d2 = dump_chain_metadata(state)
        assert d1 == d2
        assert d1.startswith(f"chain-links: {len(state.links)}")
        assert d1.count("link ") == len(state.links)
        assert "c_sigma=" in d1 and "epsilon=" in d1 and "support_lo=" in d1
