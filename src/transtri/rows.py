"""Row-wise linear algebra whose every row has the bits of a one-row call.

The chain, point location and Gauss-Newton work on stacks of small
problems.  A batched kernel is only usable here when each row comes out
exactly as the single-problem call would give it, because reports and
chain metadata print floats with repr.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = ["entrywise", "matvec", "row_norms", "lstsq_rows"]


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


def lstsq_rows(A, b):
    """Least-squares solutions of A[i] x = b[i] for a (N, M, K) stack A and
    (N, M) right-hand sides, as (N, K) rows.

    Calls the stacked gufunc behind np.linalg.lstsq with the same rcond
    (eps * max(M, K)), signature and error state, so each row has the bits
    of np.linalg.lstsq(A[i], b[i], rcond=None) and a non-converging SVD
    raises LinAlgError.  The gufunc is private to numpy and has this name
    and signature from numpy 2.0 on (1.x split it into lstsq_m and
    lstsq_n), hence the numpy>=2.0 requirement; the row-against-single-call
    tests guard against it changing.
    """
    A = np.asarray(A, float)
    M, K = A.shape[-2:]
    rcond = np.finfo(float).eps * max(M, K)
    with np.errstate(call=_lstsq_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(A, np.asarray(b, float)[..., None], rcond,
                                signature="ddd->ddid")[0]
    return x[..., 0]
