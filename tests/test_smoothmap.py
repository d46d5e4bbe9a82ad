"""Map families: pinned values, analytic Jacobians against central
differences, domain samplers, periodic consistency."""

import math

import numpy as np
import pytest

from transtri.errors import DomainError
from transtri.smoothmap import (CircleMap, Domain, LineMap, PointMap,
                                PolyCurveMap, SurfacePatchMap, TorusKnotMap,
                                map_from_params)
from transtri.verify import fd_jacobian_check

RNG = np.random.default_rng(11)


def torus_knot_reference(p, q, R, r, y):
    # independent re-implementation of the same formula
    a = 2 * math.pi * p * y
    b = 2 * math.pi * q * y
    w = R + r * math.cos(b)
    return np.array([w * math.cos(a), w * math.sin(a), r * math.sin(b)])


FAMILIES = [
    PointMap((1.0, 2.0)),
    LineMap((0.0, 0.0), (1.0, 2.0), -1.0, 1.0),
    CircleMap((0.5, -0.5), 2.0),
    PolyCurveMap([[0.0, 0.0], [1.0, 0.5], [-0.3, 0.2], [0.1, -0.4]], 0.0, 1.0),
    TorusKnotMap(2, 3, 1.0, 0.35),
    SurfacePatchMap(RNG.normal(size=(3, 3, 3))),
]


class TestEval:
    def test_circle_at_zero(self):
        h = CircleMap((0.0, 0.0), 1.0)
        assert np.allclose(h.eval([0.0]), [1.0, 0.0], atol=1e-15)

    def test_point_map_constant(self):
        h = PointMap((1.0, 2.0))
        assert np.allclose(h.eval([]), [1.0, 2.0])
        assert np.allclose(h.eval_batch(h.sample_domain(1))[0], [1.0, 2.0])

    def test_torus_knot_matches_reference(self):
        h = TorusKnotMap(2, 3, 1.0, 0.35)
        for y in (0.0, 0.13, 0.5, 0.77):
            assert np.allclose(h.eval([y]), torus_knot_reference(2, 3, 1.0, 0.35, y),
                               atol=1e-14)

    def test_outside_domain_raises(self):
        h = LineMap((0.0, 0.0), (1.0, 0.0), 0.0, 1.0)
        with pytest.raises(DomainError):
            h.eval([1.5])
        with pytest.raises(DomainError):
            PointMap((0.0, 0.0)).eval([0.1])

    def test_periodic_wrap_consistency(self):
        h = CircleMap((0.0, 0.0), 1.0)
        for y in RNG.uniform(0, 1, size=20):
            a = h.eval([y])
            b = h.eval([y + 1.0])
            assert np.linalg.norm(a - b) < 1e-12


class TestJacobian:
    def test_circle_column_at_zero(self):
        # hand differentiation of (cos 2 pi y, sin 2 pi y)
        h = CircleMap((0.0, 0.0), 1.0)
        J = h.jacobian([0.0])
        assert J.shape == (2, 1)
        assert np.allclose(J[:, 0], [0.0, 2.0 * math.pi], atol=1e-14)

    def test_point_map_empty_matrix(self):
        J = PointMap((1.0, 2.0)).jacobian([])
        assert J.shape == (2, 0)

    @pytest.mark.parametrize("h", FAMILIES, ids=lambda h: h.family)
    def test_matches_central_differences(self, h):
        n = h.domain.dim
        if n == 0:
            return
        if h.domain.kind == "interval":
            lo, hi = h.domain.lo[0], h.domain.hi[0]
            pts = [np.array([y]) for y in RNG.uniform(lo + 0.01, hi - 0.01, size=100)]
        else:
            lo = np.array(h.domain.lo)
            hi = np.array(h.domain.hi)
            pts = [lo + (hi - lo) * RNG.uniform(0.01, 0.99, size=n) for _ in range(100)]
        err = fd_jacobian_check(h.eval_raw, h.jacobian_raw, pts)
        assert err < 1e-6


class TestSampler:
    def test_periodic_interval_density_four(self):
        h = CircleMap((0.0, 0.0), 1.0)
        ys = h.sample_domain(4)
        assert np.allclose(ys.ravel(), [0.0, 0.25, 0.5, 0.75])

    def test_point_domain_single_sample(self):
        ys = PointMap((0.0, 0.0)).sample_domain(5)
        assert ys.shape == (1, 0)

    def test_box_density_power(self):
        h = SurfacePatchMap(np.zeros((1, 1, 3)))
        assert h.sample_domain(5).shape == (25, 2)

    def test_bounded_interval_includes_endpoints(self):
        h = LineMap((0.0, 0.0), (1.0, 0.0), -2.0, 3.0)
        ys = h.sample_domain(6).ravel()
        assert ys[0] == -2.0 and ys[-1] == 3.0
        assert len(ys) == 6

    def test_bad_density(self):
        with pytest.raises(DomainError):
            PointMap((0.0, 0.0)).sample_domain(0)


class TestDomain:
    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            Domain("interval", (1.0,), (1.0,))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            Domain("disk", (0.0,), (1.0,))

    def test_wrap(self):
        d = Domain("interval", (0.0,), (1.0,), periodic=True)
        assert abs(float(d.wrap(np.array([1.25]))[0]) - 0.25) < 1e-15

    def test_contains_judges_each_row(self):
        box = Domain("box", (0.0, -1.0), (1.0, 1.0))
        rows = np.array([[0.5, 0.0], [1.0 + 1e-3, 0.0], [0.5, -1.0 - 1e-3], [1.0 + 1e-3, 2.0]])
        assert box.contains(rows).tolist() == [True, False, False, False]
        assert box.contains(rows, tol=1e-2).tolist() == [True, True, True, False]
        assert box.contains(np.zeros((0, 2))).shape == (0,)
        circle = Domain("interval", (0.0,), (1.0,), periodic=True)
        assert circle.contains(np.array([[-5.0], [0.5], [7.0]])).tolist() == [True] * 3
        assert Domain("point").contains(np.zeros((2, 0))).tolist() == [True, True]


class TestRegistry:
    def test_from_params(self):
        h = map_from_params("circle", {"center": [0.0, 0.0], "radius": 2.0})
        assert h.family == "circle"
        assert np.allclose(h.eval([0.0]), [2.0, 0.0])

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="unknown map family"):
            map_from_params("spiral", {})
