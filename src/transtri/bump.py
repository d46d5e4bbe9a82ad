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

The chain's Jacobians need several of these forms at the same point, and
each transcendental is taken once:

* ``rho_l_grad`` takes rho' of each factor from the factor's exp: where
  1/r <= _LOG_SAFE_U, rho_deriv(r, 1) is exp(-1/r) * P_1(1/r) with
  P_1(u) = u * u, so g * (u * u) has its bits;
* ``beta_and_deriv`` takes beta and beta' from one pair of exps,
  rho(1 - r) and rho(r - 1/2), on the rows with 1/2 < r < 1 only.  Off
  that band the blend is exactly 1.0 or 0.0 and beta' exactly 0.0, so
  the flat branches are written out;
* ``scaled_warps`` gives several powers from one log of rho.  The
  exponent -1/rho - k log(rho) is formed as before, and power 0 takes no
  log: 0 * log(rho) is +-0 (NaN at rho = inf, as 0 * rho is there), which
  leaves -1/rho unchanged;
* ``_fiber_terms`` gives the chain's fiber map all of these at once: the
  warp powers, beta's pair of factors and the gradient's factors take
  their exps in one pass, and their rho' in one _rho_d1 call.

Every value keeps the bits of the form that takes its own exps, as the
operations on each entry are the same ones; tests/oracles.py keeps those
forms, and the tests compare against them.
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
    "beta_and_deriv",
    "c_beta",
    "scaled_warp",
    "scaled_warps",
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


def _rho_d1(r, g):
    """rho'(r) from g = rho(r), bitwise as rho_deriv(r, 1); entrywise, under
    the caller's np.errstate(all="ignore").  Where 1/r <= _LOG_SAFE_U that
    is g * (1/r)**2, the exp of rho_deriv times its P_1(1/r) = u * u, so no
    exp is taken; beyond, the log-domain branch takes its own exp and log."""
    u = 1.0 / r
    uu = u * u
    out = np.where((r > 0.0) & (u <= _LOG_SAFE_U), g * uu, 0.0)
    big = (u > _LOG_SAFE_U) & (uu < np.inf)  # 1/r = inf: rho_deriv's NaN poly
    if big.any():
        out[big] = entrywise(math.exp, -u[big] + entrywise(math.log, uu[big]))
    return out


def _factor_args(t):
    # Arguments of the rho factors of rho_l, last axis: factor 0 is
    # rho(1 - sum t), factor a >= 1 is rho(t_a).  A row holding +inf and
    # -inf sums to NaN, silently, as a row holding NaN does.
    with np.errstate(invalid="ignore"):
        s = t.sum(axis=-1)
    return np.concatenate([1.0 - s[..., None], t], axis=-1)


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


@np.errstate(all="ignore")
def rho_l_grad(t):
    """Gradient of rho_l over the last axis of t, exact zeros outside the
    open simplex; each factor's rho' comes from its rho (see _rho_d1)."""
    t = np.asarray(t, float)
    if t.shape[-1] == 0:
        return np.zeros(t.shape)
    args = _factor_args(t)
    g = rho(args)
    return _grad_of_factors(g, _rho_d1(args, g))


def _grad_of_factors(g, g1):
    """The gradient of rho_l from its factors g and their rho' g1, (..., l + 1)."""
    l = g.shape[-1] - 1
    grad = np.empty(g.shape[:-1] + (l,))
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


def _blend_terms(r):
    """r as an array, its rows in the open band 1/2 < r < 1, and rho(1 - r)
    and rho(r - 1/2) on them: the one pair of exps of beta and beta'."""
    r = np.asarray(r, float)
    band = (r > 0.5) & (r < 1.0)
    x = r[band]
    return r, band, x, rho(1.0 - x), rho(x - 0.5)


def _beta(r, band, a, b):
    # off the band the blend gives exactly 1.0 (r <= 1/2) or 0.0 (r >= 1),
    # and NaN at NaN, as 0 / 0
    out = np.where(r <= 0.5, 1.0, 0.0)
    out[np.isnan(r)] = np.nan
    out[band] = a / (a + b)
    return out[()]


@np.errstate(all="ignore")
def beta(r):
    """Smooth step: 1 for r <= 1/2, 0 for r >= 1, rho-ratio blend
    rho(1 - r) / (rho(1 - r) + rho(r - 1/2)) between; entrywise.

    rho(r - 1/2) vanishes for r <= 1/2 and rho(1 - r) for r >= 1, so the
    blend is exactly 1.0 and 0.0 on the flat branches; they are written
    out, and only the rows between take exps.
    """
    r, band, _, a, b = _blend_terms(r)
    return _beta(r, band, a, b)


@np.errstate(all="ignore")
def beta_and_deriv(r):
    """beta and its first derivative, exactly 0 outside (1/2, 1), from one
    pair of rho exps on the rows between; entrywise."""
    r, band, x, a, b = _blend_terms(r)
    da, db = -_rho_d1(1.0 - x, a), _rho_d1(x - 0.5, b)
    deriv = np.zeros(r.shape)
    deriv[band] = (da * b - a * db) / (a + b) ** 2
    return _beta(r, band, a, b), deriv[()]


def beta_deriv(r):
    """First derivative of beta, exactly 0 outside (1/2, 1); entrywise."""
    return beta_and_deriv(r)[1]


@lru_cache(maxsize=1)
def c_beta():
    """Upper bound for sup |beta'|: a dense sample's largest times 1.05,
    8.4.  tests/test_bump.py proves sup |beta'| <= 8.03 by interval
    arithmetic (test_c_beta_bounds_beta_deriv_by_interval_arithmetic);
    every link's |J - I| < 1/2 rests on it (see perturb.LocalDiffeo).

    Only ever used through constraints of the form eps < 1/c_beta, so an
    over-estimate is safe.
    """
    m = float(np.abs(beta_deriv(np.linspace(0.5, 1.0, 10_001))).max())
    return 1.05 * m


@np.errstate(all="ignore")
def scaled_warps(rho_value, powers):
    """scaled_warp at each of powers, as a tuple: the nonzero powers share
    one math.log, and power 0 takes none."""
    x = np.asarray(rho_value, float)
    pos = np.flatnonzero(~(x <= 0.0))  # NaN stays NaN, as in float arithmetic
    xp = x.flat[pos]
    inv = -1.0 / xp
    log = entrywise(math.log, xp) if any(powers) else None
    outs = []
    for power in powers:
        # 0 * x has the bits that 0 * log(x) gives the exponent: +-0 leaves
        # -1/x unchanged, and x = inf gives NaN either way
        expo = inv - power * (log if power else xp)
        live = ~(expo < -745.0)
        out = np.zeros(x.shape)
        out.flat[pos[live]] = entrywise(math.exp, expo[live])
        outs.append(out[()])
    return tuple(outs)


def scaled_warp(rho_value, power=0):
    """exp(-1/rho) * rho**(-power) = exp(-1/rho - power log rho); entrywise.

    Underflow-coherent: returns exact 0.0 when the combined exponent falls
    below the representable range, and 0.0 when rho_value <= 0.
    """
    return scaled_warps(rho_value, (power,))[0]


@np.errstate(all="ignore")
def _fiber_terms(rho_value, r, t=None, jacobian=False):
    """The fiber map's fade terms on its support, (warp0, beta), and with
    the Jacobian also (warp1, warp2, beta', grad rho_l(t) or None), from one
    log pass and one exp pass.  rho_value > 0 is rho_l's value (per row, or
    one for all rows), r in [0, 1] the fiber radius over the fade radius
    and t (S, l) the simplex coordinates.  Each value has the bits of
    scaled_warps, beta_and_deriv and rho_l_grad: every entry takes the same
    operations, and an exponent those leave at 0.0 becomes -inf here."""
    inv = -1.0 / rho_value
    expo = inv - 0 * rho_value  # see scaled_warps: +-0 unless rho is inf
    if jacobian:
        log = entrywise(math.log, rho_value)
        expo = np.concatenate([expo, inv - log, inv - 2 * log])
    band = (r > 0.5) & (r < 1.0)
    x = r[band]
    args = np.concatenate([1.0 - x, x - 0.5])
    parts = [np.where(expo < -745.0, -np.inf, expo), -1.0 / args]
    if t is not None:
        fa = np.concatenate([1.0 - t.sum(axis=1)[:, None], t], axis=1).ravel()
        parts.append(np.where(fa > 0.0, -1.0 / fa, -np.inf))
    ex = entrywise(math.exp, np.concatenate(parts))
    nw, nb = expo.size, x.size
    a, b = ex[nw:nw + nb], ex[nw + nb:nw + 2 * nb]
    # off the band the blend gives exactly 1.0 (r <= 1/2) or 0.0 (r >= 1)
    blend = np.where(r <= 0.5, 1.0, 0.0)
    blend[band] = a / (a + b)
    if not jacobian:
        return ex[:nw], blend
    g = ex[nw:]
    g1 = _rho_d1(args if t is None else np.concatenate([args, fa]), g)
    deriv = np.zeros(r.shape)
    deriv[band] = (-g1[:nb] * b - a * g1[nb:2 * nb]) / (a + b) ** 2
    grad = None
    if t is not None:
        shape = (len(t), t.shape[1] + 1)
        grad = _grad_of_factors(g[2 * nb:].reshape(shape), g1[2 * nb:].reshape(shape))
    w0, w1, w2 = ex[:nw].reshape(3, -1)
    return w0, blend, w1, w2, deriv, grad
