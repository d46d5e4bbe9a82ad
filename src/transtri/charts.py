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
chart was made from.  ChainOps evaluates one same-level run of links at a
time, from stacked link data.  A _BoxCells index of the run's boxes gives
one hit list per call, every (row, link) whose box holds the row; the
forward map takes it in rounds of one fiber_moves call each (a row's hits
after its first moving one are re-tested at the moved point in the next
round), skipping hits the fade radius cannot reach.  Each hit's Jacobian
starts as its link's cached M I M^-1, the one of an in-box hit whose fiber
Jacobian is exactly I (skipped, or outside the fade support), and a round
overwrites only the hits it settles otherwise.  fiber_moves takes rho_l's
value from bump.rho_l, once per call for a vertex, and every other fade
term from one exp pass.  Rows are gathered with np.take, which keeps
every bit of indexing at a fraction of its cost.  The inverse unwinds the
same list oldest link first through fiber_preimages.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import bump
from .errors import MeshError, NewtonDivergenceError
from .rows import matvec, row_norms
from .simplicial import Simplex, _BoxCells, _find_rows, _rows_all, carrier_mask

__all__ = [
    "TubularChart",
    "AmbientDiffeo",
    "TriangulationState",
    "make_chart",
    "make_charts",
    "dump_chain_metadata",
]


def _normal_completion(A, m):
    """Orthonormal bases of the orthogonal complements of the columns of
    each A[i], (n, m, l): views of one complete QR's Q, each column's sign
    flipped in place so that its largest-magnitude entry is positive."""
    if A.shape[2] == 0:
        return np.tile(np.eye(m), (len(A), 1, 1))
    N = np.linalg.qr(A, mode="complete")[0][:, :, A.shape[2]:]
    top = np.take_along_axis(N, np.abs(N).argmax(axis=1)[:, None], axis=1)
    N *= np.where(top < 0, -1.0, 1.0)
    return N


def _stack(arrays):
    """Stack equally shaped arrays, each matrix in its own memory order: numpy
    sends C- and F-ordered matrices to BLAS kernels that round differently."""
    if arrays[0].flags.f_contiguous and not arrays[0].flags.c_contiguous:
        return np.array([x.T for x in arrays]).transpose(0, 2, 1)
    return np.array(arrays)


def _take(a, j):
    """a[j] for a stack a from _stack, by np.take; an F-ordered stack goes
    through its C-ordered transpose, so each matrix keeps its memory order."""
    if a.flags.c_contiguous:
        return a.take(j, axis=0)
    return a.transpose(0, 2, 1).take(j, axis=0).transpose(0, 2, 1)


def _fade_support(t, wn, eps):
    """Rows of |w| = wn strictly inside the fade radius eps * rho_l(t), with
    rho_l, that radius and wn there."""
    rho = bump.rho_l(t)
    fade = eps * rho
    rows = np.nonzero((fade > 0.0) & (wn < fade))[0]
    return rows, rho[rows], fade[rows], wn[rows]


def _eyes(n, m):
    """n stacked m x m identities."""
    J = np.zeros((n, m, m))
    J.reshape(n, m * m)[:, ::m + 1] = 1.0
    return J


def _fiber_block(w, wn, bp, w1, eps, v, J=None):
    """d/dw of w + beta(|w| / (eps rho)) s(t) in the fiber, per row, written
    into J when given, a stack of identities."""
    J = _eyes(len(w), w.shape[1]) if J is None else J
    sel = ((wn > 0.0) & (bp != 0.0)).nonzero()[0]
    if sel.size:
        coef = (bp * w1 / eps)[sel]
        J[sel] += coef[:, None, None] * (v.take(sel, axis=0)[:, :, None]
                                         * (w.take(sel, axis=0) / wn[sel, None])[:, None, :])
    return J


def fiber_moves(t, w, eps, v, with_jacobian=False, wn=None):
    """The fiber map (t, w) -> (t, w + beta(|w| / (eps rho_l(t))) warp(t) v)
    of one link per row, t (N, l), w and v (N, m-l), eps (N,): the rows
    that move, their new fibers, on request the (S, m, m) Jacobians in
    (t, w) order of the S support rows, and those support rows, strictly
    inside the fade radius.  Rows off the support (t off the open simplex
    or w at or beyond the fade radius) have J = I exactly, and no block is
    built for them.  wn is |w| when the caller has it.  rho_l's value is
    read through bump.rho_l alone, per row, or for a vertex (l = 0), whose
    t has no columns, once per call on an empty row.  The other fade terms
    come from one bump._fiber_terms call, one exp pass (and one log pass
    for the Jacobian's warp powers); beta', powers 1 and 2 and the
    gradient of rho_l are only evaluated for the Jacobian."""
    l = t.shape[1]
    wn = row_norms(w) if wn is None else wn
    rho = bump.rho_l(t if l else np.empty((1, 0)))
    fade = eps * rho
    rows = ((fade > 0.0) & (wn < fade)).nonzero()[0]
    if not rows.size:
        return rows, w[:0], _eyes(0, l + w.shape[1]) if with_jacobian else None, rows
    if l:
        rho = rho[rows]
    fade, wn, vr = fade[rows], wn[rows], v.take(rows, axis=0)
    r = wn / fade
    terms = bump._fiber_terms(rho, r, t.take(rows, axis=0) if l and with_jacobian else None,
                              with_jacobian)
    w0, b = terms[:2]
    s = w0[:, None] * vr
    nz = (~_rows_all(s == 0.0)).nonzero()[0]
    moved = rows[nz]
    w2 = w.take(moved, axis=0) + b[nz][:, None] * s.take(nz, axis=0)
    J = None
    if with_jacobian:
        w1, warp2, bp, grad = terms[2:]
        J = _eyes(rows.size, l + w.shape[1])
        _fiber_block(w.take(rows, axis=0), wn, bp, w1, eps[rows], vr, J[:, l:, l:])
        if l:
            J[:, l:, :l] = vr[:, :, None] * grad[:, None, :] * (b * warp2 - bp * r * w1)[:, None, None]
    return moved, w2, J, rows


def fiber_preimages(t, w, eps, v):
    """Rows of w that the inverse fiber map moves and their preimages, per row
    as in fiber_moves, by Newton on x + beta(|x| / (eps rho)) s = w; |J -
    I| < 1/2 (see perturb.LocalDiffeo) makes it a contraction, so rows
    that do not converge raise NewtonDivergenceError, with their indices as
    rows.  Each iteration takes beta and beta' from one beta_and_deriv
    call."""
    rows, rho, fade, _ = _fade_support(t, row_norms(w), eps)
    if not rows.size:
        return rows, w[:0]
    w0, w1 = bump.scaled_warps(rho, (0, 1))
    s = w0[:, None] * v[rows]
    nz = s.any(axis=1)
    rows, s = rows[nz], s[nz]
    if not rows.size:
        return rows, w[:0]
    fade, w, w1 = fade[nz], w[rows], w1[nz]
    eps, v = eps[rows], v[rows]
    x = w.copy()
    live = np.arange(rows.size)
    for _ in range(50):
        xl = x[live]
        xn = row_norms(xl)
        r = xn / fade[live]
        b, bp = bump.beta_and_deriv(r)
        g = xl + b[:, None] * s[live] - w[live]
        go = ~(row_norms(g) < 1e-12)
        if not go.any():
            return rows, x
        live, xl, xn, bp, g = live[go], xl[go], xn[go], bp[go], g[go]
        Jg = _fiber_block(xl, xn, bp, w1[live], eps[live], v[live])
        x[live] = xl - np.linalg.solve(Jg, g[..., None])[..., 0]
    exc = NewtonDivergenceError("fiber Newton did not converge")
    exc.rows = rows[live]
    raise exc


class _Run:
    """A same-level run of chain links as stacked arrays: support boxes,
    frames b, A, N, M = [A | N], M^-1 and P = M I M^-1 (the Jacobian of an
    in-box hit whose fiber Jacobian is exactly I: one that skips the fiber
    map or lies outside the fade support; P != I in floating point),
    epsilon and shift v, each link's movable limit and a cell index of the
    boxes in reverse order, so that a row's boxes come newest link first.
    reach, the barycentre value of rho_l, is read from bump.rho_l when the
    run is built."""

    def __init__(self, links):
        self.links, self.l = links, links[0].level
        self.lo, self.hi, self.eps, self.v = (
            np.array([attrgetter(a)(lk) for lk in links])
            for a in ("support_lo", "support_hi", "local.epsilon", "local.v"))
        # rho_l peaks at the barycentre, so eps rho_l stays below eps * reach
        self.reach = bump.rho_l(np.full(self.l, 1.0 / (self.l + 1)))
        self.limit = self.eps * self.reach * (1.0 + 1e-9)
        self.base, self.A, self.N, self.M, self.Minv = (
            _stack([getattr(lk.chart, a) for lk in links])
            for a in ("base", "tangent", "normal", "_M", "_Minv"))
        self.P = self.M @ _eyes(len(links), self.M.shape[1]) @ self.Minv
        self.cells = _BoxCells(self.lo[::-1], self.hi[::-1])  # box k is link n - 1 - k

    def _inside(self, x, j):
        """Whether row i of x lies in the closed box of link j[i]."""
        return _rows_all((x >= self.lo.take(j, axis=0)) & (x <= self.hi.take(j, axis=0)))

    def hits(self, X):
        """Box hits of the rows of X as (rows, links, rank, x): rows
        ascending, each row's links newest first, rank a hit's place in its
        row and x the row of X at each hit."""
        rows, boxes, x = self.cells.hits(X)
        links = len(self.links) - 1 - boxes
        return rows, links, np.arange(rows.size) - rows.searchsorted(rows), x

    def _frame(self, x, j):
        """Frame coordinates (t, w) of row i of x in the chart of link j[i]."""
        tv = matvec(_take(self.Minv, j), x - self.base.take(j, axis=0))
        return tv[:, :self.l], tv[:, self.l:]

    def _point(self, j, t, w):
        """The point b + A t[i] + N w[i] of the chart of link j[i]."""
        return self.base.take(j, axis=0) + matvec(_take(self.A, j), t) + matvec(_take(self.N, j), w)

    def movable(self, t, wn, j):
        """Whether the fiber map of link j[i] can move (t[i], w[i]), |w[i]|
        being wn[i]: t on the open simplex (always, for a vertex) and |w|
        below the largest fade radius eps * reach, with room for rounding."""
        ok = wn < self.limit[j]
        if self.l:
            ok &= _rows_all(t > 0.0) & (1.0 - t.sum(axis=1) > 0.0)
        return ok

    def apply(self, X, rows, links, x, with_jacobian):
        """Apply the hits (rows, links), each row's newest first, to X in
        place, and on request return each hit's m x m Jacobian; x holds the
        row of X at each hit, as hits gives it.

        Rounds: each takes every pending hit at its row's current point and
        makes one fiber_moves call, on the hits in their box that movable
        keeps, with the |w| movable read.  The first round takes every hit,
        each in its box at x, so it tests no box and gathers no row; a later
        round gathers its rows and re-tests their boxes.  A row's hits up to
        its first moving one are final; its later ones saw a stale point and
        stay pending for the next round.  Every hit's Jacobian starts as its
        link's P; a final hit on the fade support, which alone gets a block
        from fiber_moves, takes M J_loc M^-1, and a final hit that left its
        box in a later round takes I."""
        Jl = self.P.take(links, axis=0) if with_jacobian else None
        r, j, pend, inbox = rows, links, None, None  # pend None: every hit, in order
        while r.size:
            t, w = self._frame(x, j)
            wn = row_norms(w)
            c = self.movable(t, wn, j)
            c = (c if inbox is None else c & inbox).nonzero()[0]
            moved = sup = c  # empty: no hit to move
            if c.size:
                jc = j[c]
                moved, w2, Jc, sup = fiber_moves(t.take(c, axis=0), w.take(c, axis=0), self.eps[jc],
                                                 self.v.take(jc, axis=0), with_jacobian, wn[c])
            h = c[moved]
            final = None  # every hit of the round, when no row moves
            if h.size:
                head = np.ones(h.size, bool)
                head[1:] = r[h[1:]] != r[h[:-1]]  # each row's first moving hit
                head = head.nonzero()[0]
                h = h[head]
                X[r[h]] = self._point(j[h], t.take(h, axis=0), w2.take(head, axis=0))
                cut = np.full(len(X), r.size)
                cut[r[h]] = h
                final = np.arange(r.size) <= cut[r]
            if with_jacobian:
                s = c[sup]
                if final is not None:
                    keep = final[s].nonzero()[0]
                    s, Jc = s[keep], Jc.take(keep, axis=0)
                if s.size:
                    js = j[s]
                    Jl[s if pend is None else pend[s]] = _take(self.M, js) @ Jc @ _take(self.Minv, js)
                if inbox is not None:
                    Jl[pend[~inbox if final is None else ~inbox & final]] = np.eye(X.shape[1])
            if final is None:
                break
            pend = (~final).nonzero()[0] if pend is None else pend[~final]
            r, j = rows[pend], links[pend]
            x = X.take(r, axis=0)
            inbox = self._inside(x, j)
        return Jl

    def unwind(self, X, rows, links):
        """Run the inverse fiber map of link links[i] on row rows[i] of X, in
        place, for the rows still in their link's box."""
        keep = self._inside(X[rows], links)
        r, j = rows[keep], links[keep]
        t, w = self._frame(X[r], j)
        try:
            moved, w2 = fiber_preimages(t, w, self.eps[j], self.v[j])
        except NewtonDivergenceError as exc:
            exc.link = self.links[j[exc.rows].min()]
            raise
        X[r[moved]] = self._point(j[moved], t[moved], w2)


def _compose(J, rows, rank, Jl):
    """J[rows[i]] = Jl[i] @ J[rows[i]] for every hit i, in chain order: rank
    by rank (a hit's place in its row), the hits of a rank at once, from
    one stable sort of the ranks.  A hit that left its box still takes
    I @ J: -0.0 becomes +0.0."""
    order, start = rank.argsort(kind="stable"), 0
    for n in np.bincount(rank).tolist():
        at = order[start:start + n]
        start += n
        r = rows[at]
        J[r] = Jl.take(at, axis=0) @ J.take(r, axis=0)


class ChainOps:
    """Masked evaluation of an ordered chain of compactly supported links.

    Points are rows of an (N, m) array; a single (m,) point is the N = 1
    case.  The chain is split into contiguous same-level runs of stacked
    link data (_Run), newest run first.  A run's cell index, the one point
    location uses, gives one hit list: every (row, link) whose box holds
    the row, each row's links newest first (supports within a run are
    disjoint, boxes near a shared face are not).  The run is evaluated in
    rounds, each one frame transform and one fiber_moves call over the
    pending hits; a hit off the open simplex or beyond the largest fade
    radius skips the fiber map.  A row's hits up to its first moving one are
    final, and the rest re-test their box at the moved point in the next
    round.  A final hit's Jacobian is I (it left its box), the link's cached
    P (an in-box hit off the fade support) or M J_loc M^-1, multiplied
    into J rank by rank in chain order.  The inverse takes the same hit
    list, oldest link first, one rank at a time.  Masks are refreshed
    between runs, as earlier links can move points by more than later slab
    widths.  Each row has the bits of the link-by-link evaluation.
    """

    def __init__(self, links):
        self.links = tuple(links)
        self.runs = [_Run(list(run))
                     for _, run in itertools.groupby(self.links, key=attrgetter("level"))]

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
        J = _eyes(len(X), m) if with_jacobian else None
        for run in reversed(self.runs):
            rows, links, rank, pts = run.hits(X)
            Jl = run.apply(X, rows, links, pts, with_jacobian)
            if with_jacobian:
                _compose(J, rows, rank, Jl)
        return X.reshape(x.shape), None if J is None else J.reshape(x.shape + (m,))

    def invert(self, x):
        """Preimage of the rows of x, oldest links unwound first."""
        x = np.asarray(x, float)
        X = x.reshape(-1, x.shape[-1]).copy()
        for run in self.runs:
            rows, links = run.hits(X)[:2]
            # each row's hits oldest first
            rank = np.searchsorted(rows, rows, side="right") - 1 - np.arange(rows.size)
            for p in range(rank.max(initial=-1) + 1):
                run.unwind(X, rows[rank == p], links[rank == p])
        return X.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class TubularChart:
    """Affine tubular frame b + A t + N v of one simplex, in base
    coordinates, with M = [A | N] and its inverse (make_charts builds it)."""

    simplex: Simplex
    base: np.ndarray          # frame origin b
    tangent: np.ndarray       # m x l edge matrix A
    normal: np.ndarray        # m x (m-l) orthonormal completion N
    _M: np.ndarray = field(repr=False)
    _Minv: np.ndarray = field(repr=False)

    @property
    def l(self):
        return self.tangent.shape[1]

    @property
    def m(self):
        return self.base.size

    def frame_point(self, t, v):
        """Base-coordinate points b + A t + N v, over rows of t and v."""
        return self.base + matvec(self.tangent, t) + matvec(self.normal, v)



@dataclass(frozen=True, eq=False)
class AmbientDiffeo:
    """One recorded chain link: a compactly supported diffeomorphism.

    ``local`` acts on (t, v) coordinates of its chart's frame and is the
    identity whenever t leaves the open simplex or |v| exceeds the fade
    profile; the link conjugates it by that frame, and is the identity
    outside the closed support box.
    """

    local: object             # chart, epsilon and shift v of the fiber map
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

    @cached_property
    def _ops(self):
        return ChainOps((self,))

    def apply(self, x):
        """Link values at the rows of x: the one-link chain."""
        return self._ops.apply(x)

    def apply_with_jacobian(self, x):
        """Link values and Jacobians (I outside the box) at the rows of x."""
        return self._ops.apply_with_jacobian(x)

    def invert(self, x):
        """Link preimages of the rows of x."""
        return self._ops.invert(x)


class TriangulationState:
    """Base realization plus an ordered chain of ambient diffeomorphisms.

    Its complex, realization and links never change: appending links
    returns a new state.  It memoizes its last with_links child and the
    last search find_intersections made on it; neither memo ever changes a
    result.  Its ChainOps is built on first use.  Reads are safe to share
    across threads (a race on a memo at worst repeats a computation).
    """

    def __init__(self, cplx, realization, links=(), mesh_scale=None):
        self.complex = cplx
        self.realization = realization
        self.links = tuple(links)
        self.ambient_dim = realization.ambient_dim
        self.mesh_scale = realization.min_edge_length(cplx) if mesh_scale is None else mesh_scale
        self._child = None
        self._search = None

    @cached_property
    def _ops(self):
        return ChainOps(self.links)

    def with_links(self, links):
        """This state with links appended, the last such state again when
        links are the same objects in the same order."""
        links = tuple(links)
        child = self._child
        if child is None or child.links[len(self.links):] != links:
            self._child = child = TriangulationState(self.complex, self.realization,
                                                     self.links + links, self.mesh_scale)
        return child

    def eval_eta(self, p):
        """Current triangulation map at base-coordinate points (rows)."""
        return self._ops.apply(p)

    def eval_eta_with_jacobian(self, p):
        """eta and its m x m Jacobian at base-coordinate points (rows)."""
        return self._ops.apply_with_jacobian(p)

    def eval_eta_inverse(self, x):
        """Preimage of ambient points (rows) under the current eta, oldest
        links unwound first, each by its fiber Newton."""
        return self._ops.invert(x)

    def bbox(self):
        lo, hi = self.realization.bbox()
        pad = 0.25 * self.mesh_scale
        return lo - pad, hi + pad


def make_charts(state, simplices):
    """Tubular frames, in base coordinates, of realized simplices of one
    dimension l < m (frame_point(t, 0) realizes the simplex), from one QR
    and one inverse; tangents are laid out as simplex_frame's."""
    m, l = state.ambient_dim, simplices[0].dim
    if l >= m:
        raise MeshError(f"simplex {simplices[0].vertices} has no normal directions in R^{m}")
    ids = np.array([s.vertices for s in simplices])
    at = _find_rows(state.complex.ids(l), ids)
    if (at < 0).any():
        raise MeshError(f"simplex {simplices[int(np.argmin(at))].vertices} not in complex")
    pts = state.realization.points(ids)
    A = (pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)
    N = _normal_completion(A, m)
    M = np.concatenate([A, N], axis=2)
    return [TubularChart(*chart) for chart in zip(simplices, pts[:, 0], A, N, M, np.linalg.inv(M))]


def make_chart(state, s):
    """The tubular frame of one realized simplex: make_charts of [s]."""
    return make_charts(state, [s])[0]


class StarLocator:
    """Membership tests for the open stars of the vertices of a complex,
    over the location index of its top simplices (a _TopIndex in simplex
    order), whose star table it shares.

    The open star of a vertex is the union of open simplices containing
    it; a point belongs exactly when the carrier simplex of its location
    has the vertex.  Locating only against the maximal star members, the
    top simplices holding the vertex, is enough: their closed union covers
    the open star, and a point outside it either misses them all or lands
    on a carrier without the vertex.  Each star lists its tops in index
    order, as a location keeps its first hit in that order, so a row gets
    the pairs, coordinates and first hit of an index over its star alone:
    each pair applies its top's barycentric map, which the index computed
    once.
    """

    def __init__(self, index, tol=1e-10):
        self.index = index
        self.tol = tol
        # star[v]: the tops holding vertex v, -1 padded; ids: each top's vertices
        self.star, self.ids = index.star, index.ids

    def contains_base_point(self, p, vertex):
        """Whether each row of p lies in the open star of its vertex (one id,
        or one per row), and whether a top of that star holds it at all:
        two bool arrays.  A row inside is one whose first hit in the star
        has a carrier with the vertex; a row held but not inside lies on
        the complex outside the star."""
        p = np.atleast_2d(p)
        vertex = np.broadcast_to(np.asarray(vertex, int), (len(p),))
        rows, top, lam, _ = self.index.first_hits(p, self.tol, (self.star, vertex))
        # the zero padding past a smaller top's own vertices never joins its carrier
        lam = np.where(np.arange(lam.shape[1]) < self.index.size[top, None], lam, -np.inf)
        inside, held = np.zeros(len(p), bool), np.zeros(len(p), bool)
        held[rows] = True
        inside[rows] = (carrier_mask(lam, self.tol)
                        & (self.ids[top] == vertex[rows, None])).any(axis=1)
        return inside, held


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
