"""Smooth bump-function calculus on the standard simplex.

Everything here is built from the classic flat mollifier

    rho(r) = exp(-1/r)   for r > 0,
    rho(r) = 0           for r <= 0,

which is smooth on all of R with every derivative vanishing at r = 0.
Its derivatives have the closed form exp(-1/r) * P_k(1/r) with P_k a
polynomial, so they can be evaluated exactly up to order 4.

Products of rho over simplex coordinates give

    rho_l(t) = rho(1 - sum t_i) * prod rho(t_i),

nonnegative on R^l and strictly positive exactly on the open standard
l-simplex {t : t_i > 0, sum t_i < 1}.  For l = 0 the simplex has no
boundary and rho_0 is taken to be the constant 1.

On top of these the module provides:

* ``beta``, a smooth step equal to 1 on r <= 1/2 and 0 on r >= 1, realized
  as rho(1-r) / (rho(1-r) + rho(r-1/2)), and ``c_beta``, a sampled upper
  bound for sup |beta'|;
* ``scaled_warp``, the super-flat fade exp(-1/rho) * rho**(-k): at
  rho = rho_l(t) and k = 0 it is the warp factor exp(-1/rho_l(t)), which
  fades normal displacements toward the simplex boundary faster than any
  power of rho_l.

All branch functions return exact zeros on their flat branches, so the
vanishing of derivatives at the glue locus holds identically in floating
point, and near-boundary underflow produces a clean 0.0 rather than NaN.
"""

import math
from functools import lru_cache

import numpy as np

from .rows import entrywise

__all__ = [
    "RHO_DERIV_MAX",
    "rho",
    "rho_deriv",
    "rho_l",
    "rho_l_grad",
    "rho_l_hess",
    "beta",
    "beta_deriv",
    "c_beta",
    "scaled_warp",
]

RHO_DERIV_MAX = 4

# Coefficients (ascending powers of u = 1/r) of P_k in
# d^k/dr^k exp(-1/r) = exp(-1/r) * P_k(1/r); P_{k+1} = u^2 (P_k - P_k').
_RHO_POLYS = (
    np.array([1.0]),
    np.array([0.0, 0.0, 1.0]),
    np.array([0.0, 0.0, 0.0, -2.0, 1.0]),
    np.array([0.0, 0.0, 0.0, 0.0, 6.0, -6.0, 1.0]),
    np.array([0.0, 0.0, 0.0, 0.0, 0.0, -24.0, 36.0, -12.0, 1.0]),
)

# exp underflows to 0.0 below roughly -745; switch to log-domain evaluation
# well before the polynomial factor can overflow.
_LOG_SAFE_U = 500.0


# Python floats stay silent where numpy warns (1/r overflows for subnormal r).
@np.errstate(all="ignore")
def rho(r):
    """Flat mollifier exp(-1/r) on r > 0, identically 0 on r <= 0; entrywise."""
    r = np.asarray(r, float)
    out = np.zeros(r.shape)
    pos = r > 0.0
    out[pos] = entrywise(math.exp, -1.0 / r[pos])
    return out[()]


@np.errstate(all="ignore")
def rho_deriv(r, k):
    """k-th derivative of rho, exact closed form, k <= RHO_DERIV_MAX; entrywise.
    Exactly 0 where the polynomial factor or 1/r overflows, as exp(-1/r)
    underflowed long before."""
    if not 0 <= k <= RHO_DERIV_MAX:
        raise ValueError(f"derivative order {k} unsupported (max {RHO_DERIV_MAX})")
    r = np.asarray(r, float)
    out = np.zeros(r.shape)
    u = 1.0 / r
    poly = np.zeros(r.shape)
    for c in _RHO_POLYS[k][::-1].tolist():  # Horner, as np.polyval
        poly = poly * u + c
    small = (r > 0.0) & (u <= _LOG_SAFE_U)
    out[small] = entrywise(math.exp, -u[small]) * poly[small]
    big = (u > _LOG_SAFE_U) & np.isfinite(poly) & (poly != 0.0)  # 1/r = inf: NaN poly
    p = poly[big]
    if p.size:
        out[big] = np.copysign(entrywise(math.exp, -u[big] + entrywise(math.log, np.abs(p))), p)
    return out[()]


def _factor_args(t):
    # Arguments of the rho factors of rho_l, last axis: factor 0 is
    # rho(1 - sum t), factor a >= 1 is rho(t_a).
    return np.concatenate([1.0 - t.sum(axis=-1)[..., None], t], axis=-1)


def rho_l(t):
    """Simplex bump rho(1 - sum t) * prod rho(t_i) over the last axis of t.

    Positive exactly on the open standard simplex of dimension
    t.shape[-1]; constant 1 for l = 0.  A (N, l) array gives (N,) values.
    """
    t = np.asarray(t, float)
    if t.shape[-1] == 0:
        return np.ones(t.shape[:-1])[()]
    g = rho(_factor_args(t))
    val = g[..., 0]
    for a in range(1, g.shape[-1]):
        val = val * g[..., a]
    return val


def rho_l_grad(t):
    """Gradient of rho_l over the last axis of t, exact zeros outside the
    open simplex."""
    t = np.asarray(t, float)
    l = t.shape[-1]
    if l == 0:
        return np.zeros(t.shape)
    args = _factor_args(t)
    g, g1 = rho(args), rho_deriv(args, 1)
    grad = np.empty(t.shape)
    for j in range(l):
        # d/dt_j hits factor 0 with a sign flip, and factor j+1 directly.
        term0 = -g1[..., 0]
        for a in range(1, l + 1):
            term0 = term0 * g[..., a]
        termj = g1[..., j + 1]
        for a in range(l + 1):
            if a != j + 1:
                termj = termj * g[..., a]
        grad[..., j] = term0 + termj
    return grad


def rho_l_hess(t):
    """Hessian of rho_l via the generic product rule over factors."""
    t = np.asarray(t, dtype=float)
    l = t.size
    if l == 0:
        return np.zeros((0, 0))
    args = _factor_args(t)
    g, g1, g2 = rho(args), rho_deriv(args, 1), rho_deriv(args, 2)
    n_fac = l + 1

    def d1(a, j):
        # derivative of factor a w.r.t. t_j
        if a == 0:
            return -g1[0]
        return g1[a] if a == j + 1 else 0.0

    def d2(a, j, k):
        if a == 0:
            return g2[0]
        return g2[a] if (a == j + 1 and a == k + 1) else 0.0

    def prod_except(skip):
        out = 1.0
        for a in range(n_fac):
            if a in skip:
                continue
            out *= g[a]
        return out

    hess = np.zeros((l, l))
    for j in range(l):
        for k in range(j, l):
            val = 0.0
            for a in range(n_fac):
                val += d2(a, j, k) * prod_except({a})
            for a in range(n_fac):
                for c in range(n_fac):
                    if a == c:
                        continue
                    val += d1(a, j) * d1(c, k) * prod_except({a, c})
            hess[j, k] = val
            hess[k, j] = val
    return hess


@np.errstate(all="ignore")
def beta(r):
    """Smooth step: 1 for r <= 1/2, 0 for r >= 1, rho-ratio blend between;
    entrywise.

    rho(r - 1/2) vanishes for r <= 1/2 and rho(1 - r) for r >= 1, so the
    blend formula itself gives exactly 1.0 and 0.0 on the flat branches.
    """
    r = np.asarray(r, float)
    a = rho(1.0 - r)
    return a / (a + rho(r - 0.5))


@np.errstate(all="ignore")
def beta_deriv(r):
    """First derivative of beta, exactly 0 outside (1/2, 1); entrywise."""
    r = np.asarray(r, float)
    a, b = rho(1.0 - r), rho(r - 0.5)
    da, db = -rho_deriv(1.0 - r, 1), rho_deriv(r - 0.5, 1)
    blend = (da * b - a * db) / (a + b) ** 2
    return np.where((r > 0.5) & (r < 1.0), blend, 0.0)[()]


@lru_cache(maxsize=1)
def c_beta():
    """Sampled upper bound for sup |beta'| (dense grid times 1.05).

    Only ever used through constraints of the form eps < 1/c_beta, so an
    over-estimate is safe.
    """
    m = float(np.abs(beta_deriv(np.linspace(0.5, 1.0, 10_001))).max())
    return 1.05 * m


@np.errstate(all="ignore")
def scaled_warp(rho_value, power=0):
    """exp(-1/rho) * rho**(-power), evaluated in log space; entrywise.

    Underflow-coherent: returns exact 0.0 when the combined exponent falls
    below the representable range, and 0.0 when rho_value <= 0.
    """
    x = np.asarray(rho_value, float)
    out = np.zeros(x.shape)
    pos = np.flatnonzero(~(x <= 0.0))  # NaN stays NaN, as in float arithmetic
    expo = -1.0 / x.flat[pos] - power * entrywise(math.log, x.flat[pos])
    live = ~(expo < -745.0)
    out.flat[pos[live]] = entrywise(math.exp, expo[live])
    return out[()]
