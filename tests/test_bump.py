"""Bump-function calculus: values pinned against a high-precision
decimal oracle, derivatives against central differences, flat branches
exactly zero."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transtri import bump

getcontext().prec = 60

E_INV = float(Decimal(-1).exp())                     # e^-1
E4_INV = float(Decimal(-4).exp())                    # e^-4
WARP_AT_HALF = float((-(Decimal(4).exp())).exp())    # e^(-e^4), warp at the 1-simplex barycenter

RNG = np.random.default_rng(20240817)


def fd_scalar(f, x, k=1, h=1e-5):
    if k == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if k == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    raise ValueError(k)


class TestRho:
    def test_zero_branch(self):
        assert bump.rho(0.0) == 0.0
        assert bump.rho(-5.0) == 0.0

    def test_value_at_one_vs_decimal_oracle(self):
        assert abs(bump.rho(1.0) - E_INV) < 1e-12

    def test_first_derivative_closed_form(self):
        # rho'(r) = e^(-1/r) / r^2, so rho'(1) = e^-1
        assert abs(bump.rho_deriv(1.0, 1) - E_INV) < 1e-14

    @pytest.mark.parametrize("r", [0.3, 0.7, 1.0, 2.5])
    def test_first_derivative_matches_finite_differences(self, r):
        fd = fd_scalar(bump.rho, r, 1)
        assert abs(bump.rho_deriv(r, 1) - fd) < 1e-7 * max(1.0, abs(fd))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_higher_derivatives_match_fd_of_lower(self, k):
        for r in (0.4, 0.9, 1.7):
            fd = fd_scalar(lambda x: bump.rho_deriv(x, k - 1), r, 1)
            assert abs(bump.rho_deriv(r, k) - fd) < 1e-6 * max(1.0, abs(fd))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            bump.rho_deriv(1.0, bump.RHO_DERIV_MAX + 1)

    def test_derivatives_vanish_at_junction(self):
        for k in range(bump.RHO_DERIV_MAX + 1):
            assert bump.rho_deriv(0.0, k) == 0.0
            assert bump.rho_deriv(-1e-12, k) == 0.0

    def test_tiny_r_underflows_cleanly(self):
        for k in range(bump.RHO_DERIV_MAX + 1):
            val = bump.rho_deriv(1e-8, k)
            assert np.isfinite(val)
            # the polynomial factor overflows (or 1/r does) where exp(-1/r)
            # is long 0
            for r in (1e-155, 1e-300, 1e-310, 5e-324):
                assert bump.rho_deriv(r, k) == 0.0
        assert np.array_equal(bump.rho_l_grad([[1e-300, 0.3]]), [[0.0, 0.0]])

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range(self, r):
        assert 0.0 <= bump.rho(r) <= 1.0


class TestRhoL:
    def test_value_at_interval_midpoint_vs_oracle(self):
        assert abs(bump.rho_l([0.5]) - E4_INV) < 1e-12

    def test_zero_at_simplex_corner(self):
        assert bump.rho_l([0.0, 0.0]) == 0.0

    def test_positive_iff_interior(self):
        # points kept a hair away from the boundary, where positivity is
        # representable; at the boundary itself the value is exactly 0
        count = 0
        while count < 1000:
            l = int(RNG.integers(1, 4))
            t = RNG.uniform(-0.3, 1.3, size=l)
            margin = min(float(t.min()), 1.0 - float(t.sum()))
            if abs(margin) < 0.01:
                continue
            assert (bump.rho_l(t) > 0) == (margin > 0)
            count += 1

    def test_l_zero_is_constant_one(self):
        assert bump.rho_l(np.zeros(0)) == 1.0
        assert bump.rho_l_grad(np.zeros(0)).shape == (0,)
        assert bump.rho_l_hess(np.zeros(0)).shape == (0, 0)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_gradient_matches_finite_differences(self, l):
        for _ in range(20):
            t = RNG.dirichlet(np.ones(l + 1))[:l] * 0.9 + 0.02
            if not (np.all(t > 0) and t.sum() < 1):
                continue
            g = bump.rho_l_grad(t)
            for j in range(l):
                def f(x, j=j):
                    tt = t.copy()
                    tt[j] = x
                    return bump.rho_l(tt)
                fd = fd_scalar(f, t[j], 1, h=1e-6)
                assert abs(g[j] - fd) < 1e-6 * max(1e-12, abs(fd), abs(g[j]))

    @pytest.mark.parametrize("l", [1, 2])
    def test_hessian_matches_fd_of_gradient(self, l):
        for _ in range(10):
            t = RNG.dirichlet(np.ones(l + 1))[:l] * 0.8 + 0.05
            if not (np.all(t > 0) and t.sum() < 1):
                continue
            H = bump.rho_l_hess(t)
            for j in range(l):
                for k in range(l):
                    def g(x, j=j, k=k):
                        tt = t.copy()
                        tt[k] = x
                        return bump.rho_l_grad(tt)[j]
                    fd = fd_scalar(g, t[k], 1, h=1e-6)
                    assert abs(H[j, k] - fd) < 1e-5 * max(1e-10, abs(fd), abs(H[j, k]))

    def test_all_derivatives_vanish_outside(self):
        # sampled boundary and exterior points, exact zeros
        count = 0
        while count < 1000:
            l = int(RNG.integers(1, 4))
            mode = RNG.integers(3)
            t = RNG.uniform(0.0, 1.0, size=l)
            if mode == 0:
                t[RNG.integers(l)] = 0.0           # on a coordinate face
                t *= 0.5 / max(1.0, t.sum())
            elif mode == 1:
                t = t / t.sum()                    # on the diagonal face
            else:
                t[RNG.integers(l)] = -RNG.uniform(0.1, 1.0)   # exterior
            assert bump.rho_l(t) == 0.0
            assert np.all(bump.rho_l_grad(t) == 0.0)
            assert np.all(bump.rho_l_hess(t) == 0.0)
            count += 1


class TestBeta:
    def test_plateaus_exact(self):
        for r in np.linspace(-1.0, 0.5, 40):
            assert bump.beta(float(r)) == 1.0
        for r in np.linspace(1.0, 2.5, 40):
            assert bump.beta(float(r)) == 0.0
        assert bump.beta(0.25) == 1.0
        assert bump.beta(1.5) == 0.0

    def test_midpoint_value(self):
        # rho(0.25) / (rho(0.25) + rho(0.25)), exactly one half
        assert bump.beta(0.75) == 0.5

    def test_derivative_at_midpoint(self):
        # (a'b - ab') / (a+b)^2 with a = b = e^-4, a' = -16 e^-4, b' = 16 e^-4
        assert bump.beta_deriv(0.75) == -8.0

    def test_derivative_zero_outside_transition(self):
        assert bump.beta_deriv(0.5) == 0.0
        assert bump.beta_deriv(1.0) == 0.0
        assert bump.beta_deriv(-3.0) == 0.0

    def test_monotone_nonincreasing_on_transition(self):
        rs = np.linspace(0.5, 1.0, 400)
        vals = [bump.beta(float(r)) for r in rs]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_c_beta_dominates_sampled_derivative(self):
        cb = bump.c_beta()
        rs = np.linspace(0.5, 1.0, 3000)
        assert all(abs(bump.beta_deriv(float(r))) <= cb for r in rs)
        assert cb >= 8.0

    def test_c_beta_bounds_beta_deriv_by_interval_arithmetic(self):
        # On 1/2 < r < 1, |beta'| = (rho'(x) rho(y) + rho(x) rho'(y)) / (rho(x) +
        # rho(y))^2 with x = 1 - r and y = r - 1/2, and it is 0 off that band.
        # Both x and y lie in [0, 1/2], where rho and rho'(x) = exp(-1/x) / x^2
        # increase (rho'' = exp(-1/x) (1 - 2x) / x^4), so on a cell each factor
        # lies between its values at the cell's ends, 0 at an end 0 (r = 1/2 or
        # r = 1).  The 4096 cells have dyadic ends, the grid k / 8192, and
        # mpmath.iv rounds every enclosure outward.
        from mpmath import iv

        def between(f, lo, hi):
            return iv.mpf([f[lo].a, f[hi].b])

        prec, iv.prec = iv.prec, 80
        try:
            grid = [iv.mpf(k) / 8192 for k in range(4097)]
            g = [iv.mpf(0)] + [iv.exp(-1 / x) for x in grid[1:]]
            d = [iv.mpf(0)] + [gk / x ** 2 for gk, x in zip(g[1:], grid[1:])]
            sup = iv.mpf(0)
            for i in range(4096):  # r in [1/2 + i / 8192, 1/2 + (i + 1) / 8192]
                gx, dx = between(g, 4095 - i, 4096 - i), between(d, 4095 - i, 4096 - i)
                gy, dy = between(g, i, i + 1), between(d, i, i + 1)
                sup = max(sup, ((dx * gy + gx * dy) / (gx + gy) ** 2).b)
        finally:
            iv.prec = prec
        assert 8.0 <= sup < 8.05  # |beta'(3/4)| = 8
        assert sup < bump.c_beta() == 8.4

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_range_and_antisymmetry(self, r):
        b = bump.beta(r)
        assert 0.0 <= b <= 1.0
        assert abs(b + bump.beta(1.5 - r) - 1.0) < 1e-14


def warp(t):
    """The super-flat fade exp(-1/rho_l(t)), as the pipeline forms it."""
    return bump.scaled_warp(bump.rho_l(t), 0)


class TestWarp:
    def test_value_at_interval_barycenter_vs_oracle(self):
        w = warp(np.array([0.5]))
        assert abs(w - WARP_AT_HALF) < 1e-12 * WARP_AT_HALF + 1e-300

    def test_superpolynomial_decay_toward_boundary(self):
        # warp / rho^10 -> 0 along a sequence approaching the boundary
        prev = np.inf
        for eps in (0.2, 0.1, 0.05, 0.03):
            t = np.array([eps])
            rho = bump.rho_l(t)
            ratio = bump.scaled_warp(rho, 10)
            assert ratio <= prev
            prev = ratio
        assert prev == 0.0

    def test_warp_below_all_rho_powers_once_small(self):
        # range chosen so rho is small but rho^10 is still representable
        for _ in range(200):
            t = np.array([RNG.uniform(0.04, 0.12)])
            rho = bump.rho_l(t)
            if rho >= 0.05:
                continue
            assert rho > 0.0
            w = warp(t)
            for k in range(1, 11):
                assert w < rho ** k

    def test_near_boundary_underflows_to_zero_without_nan(self):
        w = warp(np.array([1e-9]))
        assert w == 0.0
        assert not math.isnan(w)

    def test_outside_is_zero(self):
        assert warp(np.array([-0.1])) == 0.0
        assert warp(np.array([0.6, 0.6])) == 0.0

    def test_scaled_warp_consistency(self):
        rho = bump.rho_l([0.4])
        direct = warp(np.array([0.4])) / rho ** 2
        assert abs(bump.scaled_warp(rho, 2) - direct) < 1e-12 * direct
