"""Row-wise linear algebra whose every row has the bits of a one-row call.

The chain, point location and Gauss-Newton work on stacks of small
problems.  A batched kernel is only usable here when each row comes out
exactly as the single-problem call would give it, because reports and
chain metadata print floats with repr.  The least-squares kernel
lstsq_rows solves small rows in closed form and the rest with LAPACK
(dgelsd_rows); which of the two a row takes depends on that row alone.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = ["entrywise", "matvec", "row_norms", "lstsq_rows", "dgelsd_rows"]


def entrywise(fn, x):
    """A math-module function (math.exp, math.sin, ...) over a 1-D array.
    numpy's vector forms differ in the last bit on a few percent of
    inputs; the arithmetic around them runs in numpy, which rounds each
    operation as Python floats do.  So every value, and the repr-printed
    chain metadata, is independent of batching."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def matvec(M, x):
    """M @ x over the rows of x, each row bitwise as a single M @ row.

    A stacked matmul runs the same BLAS kernel per row as the 1-D call; a
    plain (N, k) @ M.T runs a different kernel and rounds differently.
    """
    return (M @ np.asarray(x, float)[..., None])[..., 0]


def row_norms(x):
    """Euclidean norm of each row, bitwise as np.linalg.norm of that row
    (a stacked row-times-column product runs the same dot kernel)."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _lstsq_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def dgelsd_rows(A, b):
    """Least-squares solutions of A[i] x = b[i] for a (..., M, K) stack A and
    (..., M) right-hand sides, as (..., K) rows, by LAPACK's dgelsd.

    Calls the stacked gufunc behind np.linalg.lstsq with the same rcond
    (eps * max(M, K)), signature and error state, so each row has the bits
    of np.linalg.lstsq(A[i], b[i], rcond=None) and a non-converging SVD
    (a NaN or an infinite entry of A) raises LinAlgError.  The gufunc is
    private to numpy and has this name and signature from numpy 2.0 on
    (1.x split it into lstsq_m and lstsq_n), hence the numpy>=2.0
    requirement; the row-against-single-call tests guard against it
    changing.
    """
    A = np.asarray(A, float)
    M, K = A.shape[-2:]
    rcond = np.finfo(float).eps * max(M, K)
    with np.errstate(call=_lstsq_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(A, np.asarray(b, float)[..., None], rcond,
                                signature="ddd->ddid")[0]
    return x[..., 0]


# Bounds on the Frobenius condition number |G|_F |G^-1|_F of the matrix the
# closed form inverts: A itself when it is square, else its Gram matrix
# (condition number squared).  Below them dgelsd's cut eps * max(M, K)
# removes no singular value, so both kernels solve the same problem.
KAPPA_SQUARE = 1e6
KAPPA_GRAM = 1e8
# A 3 x 3 determinant, or adjugate in the Frobenius norm, is resolved when it
# is at least this share of the sum of the absolute values of its terms:
# then cancellation cost it at most 30 of its 53 bits, and the condition
# number formed from it is exact to about 1e-6.
RESOLVED = 2.0 ** -30


def lstsq_rows(A, b):
    """Least-squares solutions of A[i] x = b[i] for a (N, M, K) stack A and
    (N, M) right-hand sides, as (N, K) rows: the minimum-norm solution
    when A[i] has fewer rows than columns.

    With g = min(M, K) <= 3 each row is solved in closed form: a square
    A x = b by the adjugate of A, a tall one by the normal equations
    A^T A x = A^T b, a wide one as x = A^T (A A^T)^-1 b, with one step of
    iterative refinement where the matrix inverted is 3 x 3, after scaling
    the row by the power of two that brings the largest entry of A to
    [1/2, 1).  A row
    goes to dgelsd_rows, and has the bits of np.linalg.lstsq, when the
    determinant or the adjugate of the matrix inverted is not RESOLVED,
    when its Frobenius condition number exceeds KAPPA_SQUARE (square A) or
    KAPPA_GRAM (a Gram matrix), or when the row or its solution is not
    finite; so does every row when g > 3.  Every sum of products is taken
    left to right in elementwise operations, so each row has the bits of a
    one-row call, and a NaN entry of A raises LinAlgError as
    np.linalg.lstsq does.
    """
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    M, K = A.shape[-2:]
    if not 0 < min(M, K) <= 3:
        return dgelsd_rows(A, b)
    with np.errstate(all="ignore"):
        x, ok = _closed_form(A, b)
    bad = np.flatnonzero(~ok)
    if bad.size:
        x[bad] = dgelsd_rows(A[bad], b[bad])
    return x


def _closed_form(A, b):
    """The closed-form rows of lstsq_rows, (N, K), and which of them stand."""
    M, K = A.shape[1:]
    scale = np.ldexp(1.0, -np.frexp(np.abs(A).reshape(len(A), -1).max(axis=1))[1])
    A = A * scale[:, None, None]
    b = b * scale[:, None]
    if M == K:
        G, c = A, b
    elif M > K:
        G = _sum(A[:, :, :, None] * A[:, :, None, :], 1)
        c = _sum(A * b[:, :, None], 1)
    else:
        G, c = _sum(A[:, :, None, :] * A[:, None, :, :], 3), b
    adj, det, resolved = _adjugate(G)
    x = _sum(adj * c[:, None, :], 2) / det[:, None]
    if G.shape[-1] == 3:
        # the adjugate solve is forward-stable for g <= 2 only; one step of
        # refinement brings a 3 x 3 solve's error to eps times kappa
        x = x + _sum(adj * (c - _sum(G * x[:, None, :], 2))[:, None, :], 2) / det[:, None]
    if M < K:
        x = _sum(A * x[:, :, None], 1)
    kappa2 = _frobenius2(G) * _frobenius2(adj) / np.square(det)
    bound = KAPPA_SQUARE if M == K else KAPPA_GRAM
    return x, resolved & (kappa2 <= bound * bound) & np.isfinite(x).all(axis=1)


def _adjugate(G):
    """Adjugates and determinants of a stack of g x g matrices, g <= 3, and
    whether each is resolved.  A 3 x 3 one is resolved when its determinant
    and its adjugate are RESOLVED.  Smaller ones always are: a 2 x 2
    adjugate is exact, and a 2 x 2 determinant that cancellation left
    unresolved gives a condition number above either bound."""
    g = G.shape[-1]
    if g == 1:
        return np.ones_like(G), G[:, 0, 0], True
    if g == 2:
        adj = np.stack([G[:, 1, 1], -G[:, 0, 1], -G[:, 1, 0], G[:, 0, 0]], axis=1)
        adj = adj.reshape(-1, 2, 2)
        return adj, _sum(G[:, 0, :] * adj[:, :, 0], 1), True
    # cofactor (r, c) is G[r+1, c+1] G[r+2, c+2] - G[r+1, c+2] G[r+2, c+1], mod 3
    p, q = [1, 2, 0], [2, 0, 1]
    Gp, Gq = G[:, p], G[:, q]
    P, Q = Gp[:, :, p] * Gq[:, :, q], Gp[:, :, q] * Gq[:, :, p]
    adj, terms = (P - Q).transpose(0, 2, 1), (np.abs(P) + np.abs(Q)).transpose(0, 2, 1)
    det = _sum(G[:, 0, :] * adj[:, :, 0], 1)
    det_terms = _sum(np.abs(G[:, 0, :]) * terms[:, :, 0], 1)
    resolved = ((np.abs(det) >= RESOLVED * det_terms)
                & (_frobenius2(adj) >= RESOLVED ** 2 * _frobenius2(terms)))
    return adj, det, resolved


def _sum(P, axis):
    """P summed over axis, left to right."""
    P = np.moveaxis(P, axis, 0)
    s = P[0]
    for p in P[1:]:
        s = s + p
    return s


def _frobenius2(G):
    """Squared Frobenius norm of each matrix of a stack."""
    return _sum(np.square(G).reshape(len(G), -1), 1)
