"""Oracles of the location kernels in simplicial: least-squares point
location for the affine kernel of _TopIndex, where every barycentric
coordinate comes from one least-squares solve of the augmented vertex
system [P; 1] lam = (x, 1), and the dense box test for the cell index
_BoxCells."""

import numpy as np

from transtri import simplicial as sc
from transtri.rows import lstsq_rows, matvec, row_norms


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
