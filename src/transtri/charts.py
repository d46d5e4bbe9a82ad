"""Tubular frames and the evolving triangulation map.

A TriangulationState tracks the current map eta from the realized complex
into R^m: the base realization composed with an ordered chain of ambient
diffeomorphisms, each compactly supported near one simplex.

A TubularChart is the affine frame of a simplex of dimension l < m in
*base* coordinates,

    (t, v) -> b + A t + N v,

with A the simplex edge matrix and N an orthonormal basis of its
orthogonal complement (QR completion, sign-fixed for determinism).  A
chain link (AmbientDiffeo) is a local normal-fiber diffeomorphism, which
carries its chart, plus the box outside which the link is the identity;
the link conjugates the local map by the chart's frame.  Because each
link is appended as (current eta) o link o (current eta)^-1, the full
composition telescopes:

    eta_n = L_1 o L_2 o ... o L_n        (newest link applied first),

so evaluation never needs to invert earlier chain entries, and the
simplex deformed along a chart is eta(frame point) for the state the
chart was made from.  Per level, one vectorized box test selects the few
active links.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MeshError, NewtonDivergenceError
from .rows import matvec
from .simplicial import Simplex, _TopIndex

__all__ = [
    "TubularChart",
    "AmbientDiffeo",
    "TriangulationState",
    "make_chart",
    "dump_chain_metadata",
]


def _normal_completion(A, m):
    """Orthonormal basis of the orthogonal complement of the columns of A.

    Signs are fixed so the largest-magnitude entry of each column is
    positive, for deterministic frames.
    """
    l = A.shape[1]
    if l == 0:
        return np.eye(m)
    Q, R = np.linalg.qr(A, mode="complete")
    # align the leading columns with A's orientation (diag of R positive)
    for j in range(l):
        if R[j, j] < 0:
            Q[:, j] = -Q[:, j]
            R[j, :] = -R[j, :]
    N = Q[:, l:]
    for j in range(N.shape[1]):
        k = int(np.argmax(np.abs(N[:, j])))
        if N[k, j] < 0:
            N[:, j] = -N[:, j]
    return N


class ChainOps:
    """Masked evaluation of an ordered chain of compactly supported links.

    Points are rows of an (N, m) array; a single (m,) point is the N = 1
    case.  The chain is split into contiguous same-level runs; within a run
    supports are pairwise disjoint by construction, so one vectorized box
    test per run finds every link acting on every row.  Masks are refreshed
    between runs because earlier links can move points by more than later
    slab widths, and each link re-tests its own box on the rows it gets.
    """

    def __init__(self, links):
        self.links = tuple(links)
        runs = []
        for i, lk in enumerate(self.links):
            if runs and runs[-1][0] == lk.level:
                runs[-1][1].append(i)
            else:
                runs.append((lk.level, [i]))
        self.runs = [
            (idx,
             np.array([self.links[i].support_lo for i in idx]),
             np.array([self.links[i].support_hi for i in idx]))
            for _, idx in runs
        ]

    @staticmethod
    def _active(run, x):
        """(link index, rows of x in its box), in chain order."""
        idx, lo, hi = run
        inside = np.all((x[:, None, :] >= lo) & (x[:, None, :] <= hi), axis=2)
        return [(idx[j], np.nonzero(inside[:, j])[0])
                for j in np.nonzero(inside.any(axis=0))[0]]

    def apply(self, x):
        return self._forward(x, False)[0]

    def apply_with_jacobian(self, x):
        return self._forward(x, True)

    def _forward(self, x, with_jacobian):
        """Chain values at the rows of x, newest link first, and on request
        their m x m Jacobians."""
        x = np.asarray(x, float)
        m = x.shape[-1]
        X = x.reshape(-1, m).copy()
        J = np.tile(np.eye(m), (len(X), 1, 1)) if with_jacobian else None
        for run in reversed(self.runs):
            for i, rows in reversed(self._active(run, X)):
                if with_jacobian:
                    X[rows], Jl = self.links[i].apply_with_jacobian(X[rows])
                    J[rows] = Jl @ J[rows]
                else:
                    X[rows] = self.links[i].apply(X[rows])
        return X.reshape(x.shape), None if J is None else J.reshape(x.shape + (m,))

    def invert(self, x):
        """Preimage of the rows of x, oldest links unwound first."""
        x = np.asarray(x, float)
        X = x.reshape(-1, x.shape[-1]).copy()
        for run in self.runs:
            for i, rows in self._active(run, X):
                X[rows] = self.links[i].invert(X[rows])
        return X.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class TubularChart:
    """Affine tubular frame b + A t + N v of one simplex, in base coordinates."""

    simplex: Simplex
    base: np.ndarray          # frame origin b
    tangent: np.ndarray       # m x l edge matrix A
    normal: np.ndarray        # m x (m-l) orthonormal completion N

    def __post_init__(self):
        M = np.hstack([self.tangent, self.normal])
        object.__setattr__(self, "_M", M)
        object.__setattr__(self, "_Minv", np.linalg.inv(M))

    @property
    def l(self):
        return self.tangent.shape[1]

    @property
    def m(self):
        return self.base.size

    def frame_point(self, t, v):
        """Base-coordinate points b + A t + N v, over rows of t and v."""
        return self.base + matvec(self.tangent, t) + matvec(self.normal, v)

    def frame_coords(self, x):
        """Invert the affine frame: returns (t, v), over rows of x."""
        tv = matvec(self._Minv, np.asarray(x, float) - self.base)
        return tv[..., : self.l], tv[..., self.l :]


@dataclass(frozen=True, eq=False)
class AmbientDiffeo:
    """One recorded chain link: a compactly supported diffeomorphism.

    ``local`` acts on (t, v) coordinates of its chart's frame and is the
    identity whenever t leaves the open simplex or |v| exceeds the fade
    profile; the link conjugates it by that frame, and is the identity
    outside the closed support box.
    """

    local: object             # chart, moves/inverse_moves in (t, v) coordinates
    support_lo: np.ndarray
    support_hi: np.ndarray

    @property
    def chart(self):
        return self.local.chart

    @property
    def simplex(self):
        return self.local.chart.simplex

    @property
    def level(self):
        return self.local.chart.l

    def box_mask(self, x):
        """Rows of x inside the closed support box."""
        return np.all((x >= self.support_lo) & (x <= self.support_hi), axis=-1)

    def in_box(self, x):
        """Whether one point lies inside the closed support box."""
        return bool(self.box_mask(x))

    def apply(self, x):
        """Link values at the rows of x, (N, m).

        Rows outside the box, or on the local identity branch, come back
        unchanged rather than round-tripped through the frame; x itself
        comes back when no row moves.
        """
        return self._step(x, self.local.moves)[0]

    def apply_with_jacobian(self, x):
        """Link values and Jacobians at the rows of x, from one frame pass;
        the Jacobian is the identity outside the box."""
        out, rows, local = self._step(x, lambda t, v: self.local.moves(t, v, True))
        J = np.tile(np.eye(out.shape[1]), (len(out), 1, 1))
        if rows.size:
            J[rows] = self.chart._M @ local[2] @ self.chart._Minv
        return out, J

    def invert(self, x):
        """Link preimages of the rows of x, (N, m).

        Rows outside the box, or whose fiber the local inverse leaves
        alone, come back unchanged; x itself comes back when no row moves.
        """
        return self._step(x, self.local.inverse_moves)[0]

    def _step(self, x, local):
        """Run local(t, v) -> (moved rows, their new fibers, ...) on the frame
        coordinates of the rows of x inside the box and write the moved rows
        back.  Returns the new points (x itself when no row moves), the box
        rows and local's result (None for an empty box)."""
        x = np.asarray(x, float)
        rows = np.nonzero(self.box_mask(x))[0]
        if not rows.size:
            return x, rows, None
        t, v = self.chart.frame_coords(x[rows])
        try:
            result = local(t, v)
        except NewtonDivergenceError as exc:
            exc.link = self
            raise
        moved, v2 = result[:2]
        if moved.size:
            x = x.copy()
            x[rows[moved]] = self.chart.frame_point(t[moved], v2)
        return x, rows, result


class TriangulationState:
    """Base realization plus an ordered chain of ambient diffeomorphisms.

    Immutable between pipeline stages: appending a link returns a new
    state.  Reads are safe to share across threads.
    """

    def __init__(self, cplx, realization, links=()):
        self.complex = cplx
        self.realization = realization
        self.links = tuple(links)
        self.ambient_dim = realization.ambient_dim
        self.mesh_scale = realization.min_edge_length(cplx)
        self._ops = ChainOps(self.links)

    def with_link(self, link):
        return TriangulationState(self.complex, self.realization, self.links + (link,))

    def eval_eta(self, p):
        """Current triangulation map at base-coordinate points (rows)."""
        return self._ops.apply(p)

    def eval_eta_with_jacobian(self, p):
        """eta and its m x m Jacobian at base-coordinate points (rows)."""
        return self._ops.apply_with_jacobian(p)

    def eval_eta_inverse(self, x):
        """Preimage of ambient points (rows) under the current eta.

        Newton inversion happens inside each active link, oldest links
        unwound first.
        """
        return self._ops.invert(x)

    def bbox(self):
        lo, hi = self.realization.bbox()
        pad = 0.25 * self.mesh_scale
        return lo - pad, hi + pad


def make_chart(state, s):
    """Tubular frame for a realized simplex of dimension l < m, in base
    coordinates; frame_point(t, 0) is the base realization of the simplex."""
    m = state.ambient_dim
    if s.dim >= m:
        raise MeshError(f"simplex {s.vertices} has no normal directions in R^{m}")
    if s not in state.complex:
        raise MeshError(f"simplex {s.vertices} not in complex")
    b, A = state.realization.simplex_frame(s)
    N = _normal_completion(A, m)
    return TubularChart(simplex=s, base=b, tangent=A, normal=N)


class StarLocator:
    """Reusable membership test for the open star of one subdivision vertex.

    The open star of a vertex is the union of open simplices containing
    it; a point belongs exactly when the carrier simplex of its location
    has the vertex.  Locating only against the maximal star members, the
    top simplices holding the vertex, is enough: their closed union covers
    the open star, and a point outside it either misses them all or lands
    on a carrier without the vertex.  tops must come in simplex order, as
    a location keeps its first hit in that order.
    """

    def __init__(self, vertex, tops, sd_realization, tol=1e-10):
        self.vertex = vertex
        self.tops = tuple(tops)
        self.index = _TopIndex(sd_realization, self.tops)
        self.tol = tol

    def contains_base_point(self, p):
        """Whether each row of p lies in the open star, as a bool array."""
        faces = self.index.carriers(np.atleast_2d(p), self.tol)
        return np.array([face is not None and self.vertex in face.vertices
                         for face in faces], bool)


def dump_chain_metadata(state):
    """Structured-text dump of the chain for reproducibility checks.

    Every float is rendered with repr, so identical pipelines produce
    byte-identical dumps.
    """
    lines = [f"chain-links: {len(state.links)}"]
    for i, lk in enumerate(state.links):
        psi = lk.local
        lines.append(
            f"link {i}: simplex={lk.simplex.vertices} level={lk.level}"
            f" c_sigma={repr(float(psi.c_sigma))}"
            f" epsilon={repr(float(psi.epsilon))}"
            f" v=({', '.join(repr(float(c)) for c in psi.v)})"
            f" retries={int(psi.retries_used)}"
            f" shrinks={int(psi.shrinks_used)}"
            f" support_lo=({', '.join(repr(float(c)) for c in lk.support_lo)})"
            f" support_hi=({', '.join(repr(float(c)) for c in lk.support_hi)})"
        )
    return "\n".join(lines) + "\n"
