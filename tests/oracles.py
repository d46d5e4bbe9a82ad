"""Oracles of kernels that later forms replaced and tests check against.

Location: least-squares point location for the affine kernel of
_TopIndex, where every barycentric coordinate comes from one
least-squares solve of the augmented vertex system [P; 1] lam = (x, 1),
and the dense box test for the cell index _BoxCells.

Bump forms: scaled_warp, beta, beta_deriv and rho_l_grad as each took
its own exps and logs, before the forms in bump shared them.

Gauss-Newton: the refinement loop that evaluates the patch at every
iteration, also for a vertex patch, whose image never moves.
"""

import math

import numpy as np

from transtri import bump
from transtri import simplicial as sc
from transtri.rows import entrywise, lstsq_rows, matvec, row_norms


def barycentric_rows(pts, x):
    """Barycentric coordinates of each row of x, (Q, m), with respect to the
    simplex whose vertices are the rows of pts[i], (Q, k, m), and the
    distance of x[i] from that simplex's affine hull; one stacked
    least-squares solve for all rows."""
    q, k, _ = pts.shape
    P = pts.transpose(0, 2, 1)
    lam = lstsq_rows(np.concatenate([P, np.ones((q, 1, k))], axis=1),
                     np.concatenate([x, np.ones((q, 1))], axis=1))
    return lam, row_norms(matvec(P, lam) - x)


def locate_in_simplex(realization, s, x, tol=1e-10):
    """Barycentric coordinates of x in the closed simplex s, or None."""
    pts = realization.simplex_points(s)
    lam, resid = barycentric_rows(pts[None], np.asarray(x, dtype=float)[None])
    if not sc._accepted(lam, resid, max(1.0, float(np.abs(pts).max())), tol)[0]:
        return None
    return lam[0], float(resid[0])


def lstsq_solve(index, x, ip, it, tol):
    """_TopIndex._solve with a least-squares solve per (row, top) pair, one
    stacked call per simplex size: the first accepted pair of each row, its
    coordinates zero-padded to the largest top, and its residual."""
    lam = np.zeros((ip.size, index.pts.shape[1]))
    resid = np.zeros(ip.size)
    ok = np.zeros(ip.size, bool)
    for k in set(index.size[it].tolist()):
        sel = np.nonzero(index.size[it] == k)[0]
        lam[sel, :k], resid[sel] = barycentric_rows(index.pts[it[sel], :k], x[ip[sel]])
        ok[sel] = sc._accepted(lam[sel, :k], resid[sel], index.scale[it[sel]], tol)
    hits = np.nonzero(ok)[0]
    first = hits[np.unique(ip[hits], return_index=True)[1]]
    return ip[first], it[first], lam[first], resid[first]


def dense_box_pairs(lo, hi, x):
    """Every (row, box) whose closed box lo[k]..hi[k], (K, m), holds the row
    of x, (N, m), by testing each row against each box: (rows, boxes), rows
    ascending, each row's boxes ascending."""
    return np.nonzero(np.all((x[:, None, :] >= lo) & (x[:, None, :] <= hi), axis=2))


@np.errstate(all="ignore")
def scaled_warp(rho_value, power=0):
    """exp(-1/rho) * rho**(-power), evaluated in log space; entrywise."""
    x = np.asarray(rho_value, float)
    out = np.zeros(x.shape)
    pos = np.flatnonzero(~(x <= 0.0))
    expo = -1.0 / x.flat[pos] - power * entrywise(math.log, x.flat[pos])
    live = ~(expo < -745.0)
    out.flat[pos[live]] = entrywise(math.exp, expo[live])
    return out[()]


@np.errstate(all="ignore")
def beta(r):
    """rho(1 - r) / (rho(1 - r) + rho(r - 1/2)) on every entry of r."""
    r = np.asarray(r, float)
    a = bump.rho(1.0 - r)
    return a / (a + bump.rho(r - 0.5))


@np.errstate(all="ignore")
def beta_deriv(r):
    """beta' from rho and rho_deriv on every entry, 0 outside (1/2, 1)."""
    r = np.asarray(r, float)
    a, b = bump.rho(1.0 - r), bump.rho(r - 0.5)
    da, db = -bump.rho_deriv(1.0 - r, 1), bump.rho_deriv(r - 0.5, 1)
    blend = (da * b - a * db) / (a + b) ** 2
    return np.where((r > 0.5) & (r < 1.0), blend, 0.0)[()]


def rho_l_grad(t):
    """Gradient of rho_l over the last axis of t, with rho and rho_deriv of
    every factor."""
    t = np.asarray(t, float)
    l = t.shape[-1]
    if l == 0:
        return np.zeros(t.shape)
    args = np.concatenate([1.0 - t.sum(axis=-1)[..., None], t], axis=-1)
    g, g1 = bump.rho(args), bump.rho_deriv(args, 1)
    grad = np.empty(t.shape)
    for j in range(l):
        term0 = -g1[..., 0]
        for a in range(1, l + 1):
            term0 = term0 * g[..., a]
        termj = g1[..., j + 1]
        for a in range(l + 1):
            if a != j + 1:
                termj = termj * g[..., a]
        grad[..., j] = term0 + termj
    return grad


def gauss_newton(h, patch, y0, t0, config, scale, owner=None):
    """verify._gauss_newton with the patch evaluated at every iteration."""
    n = h.domain.dim
    T = np.atleast_2d(np.array(t0, float))
    P = len(T)
    Y = np.array(y0, float).reshape(P, n)
    O = np.zeros(P, int) if owner is None else np.asarray(owner, int).reshape(P)
    best_y, best_t = Y.copy(), T.copy()
    best_r = np.full(P, np.inf)
    stall = np.zeros(P, int)
    diverged = np.zeros(P, bool)
    live = np.arange(P)
    step_cap = 0.75
    for _ in range(config.gn_max_iter):
        if not live.size:
            break
        f, df = patch.eval_jac(T[live], O[live])
        r = h.eval_batch(Y[live]) - f
        rn = row_norms(r)
        stall[live] = np.where(rn < 0.9999 * best_r[live], 0, stall[live] + 1)
        better = rn < best_r[live]
        improved = live[better]
        best_y[improved], best_t[improved], best_r[improved] = Y[improved], T[improved], rn[better]
        stop = (rn < 1e-14) | (stall[live] >= 3)
        lost = ~stop & (rn > 50.0 * (best_r[live] + scale))
        diverged[live[lost]] = True
        go = np.nonzero(~stop & ~lost)[0]
        if n + patch.l == 0 or not go.size:
            break
        p = live[go]
        step = lstsq_rows(np.concatenate([h.jacobian_raw(Y[p]), -df[go]], axis=2), -r[go])
        sn = row_norms(step)
        cap = sn > step_cap
        step[cap] *= (step_cap / sn[cap])[:, None]
        Y[p] = h.domain.wrap(Y[p] + step[:, :n])
        T[p] = T[p] + step[:, n:]
        far = np.any(np.abs(T[p]) > 10.0, axis=1)
        diverged[p[far]] = True
        live = p[~far & (sn >= 1e-15)]
    ok = ~diverged & (best_r < np.inf) & h.domain.contains(best_y, tol=1e-6 * (1.0 + scale))
    return [(best_y[p], best_t[p], float(best_r[p])) if ok[p] else None for p in range(P)]
