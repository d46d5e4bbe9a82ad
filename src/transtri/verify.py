"""Numerical transversality certification.

Finds intersections of a parametric map with the embedded open simplices
of a triangulation state by grid-seeded Gauss-Newton refinement, tests
the spanning (rank) condition on the combined differentials, and runs
smoothness and Jacobian diagnostics.

Verdicts are threshold-relative.  A root of |h(y) - f(t)| below the solve
tolerance counts as an intersection; when the domain dimensions cannot
span the ambient space (n + l < m) transversality demands separation, and
the stricter clearance threshold applies.  At an intersection where
spanning is possible, the test is that the column-normalized matrix
[dh | df] has its m-th singular value above tol_rank.
"""

import logging
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import bump
from .config import PipelineConfig
from .rows import lstsq_rows, matvec, row_norms
from .simplicial import Simplex, _find_rows, carrier_mask, simplex_sort_key

log = logging.getLogger(__name__)

__all__ = [
    "IntersectionRecord",
    "SimplexStatus",
    "TransversalityReport",
    "Patch",
    "simplex_patch",
    "interior_lattice",
    "lattice_per_dim",
    "find_intersections",
    "simplex_passes",
    "transversality_margin",
    "verify_triangulation",
    "fd_jacobian",
    "fd_jacobian_check",
    "boundary_decay_check",
    "boundary_crossing_counts",
    "report_to_csv",
    "report_summary",
]


# ---------------------------------------------------------------------------
# rank condition


def transversality_margin(dh, df):
    """Smallest singular value of the column-normalized [dh | df].

    Returns 0.0 when the combined columns cannot span the row space.
    Invariant under rescaling of individual columns.  Stacks of (N, m, n)
    and (N, m, l) differentials give the (N,) margins, each with the bits
    of its one-matrix call.
    """
    dh = np.asarray(dh, float)
    df = np.asarray(df, float)
    if dh.shape[-2] != df.shape[-2]:
        raise ValueError("row counts differ")
    m = dh.shape[-2]
    cols = np.concatenate([dh, df], axis=-1)
    if cols.shape[-1] < m:
        sv = np.zeros(cols.shape[:-2])
    else:
        norms = np.linalg.norm(cols, axis=-2, keepdims=True)
        norms[norms == 0.0] = 1.0
        sv = np.linalg.svd(cols / norms, compute_uv=False)[..., m - 1]
    return float(sv) if sv.ndim == 0 else sv


# ---------------------------------------------------------------------------
# embedded patches and root finding


@dataclass(frozen=True, eq=False)
class Patch:
    """Parametric patches t -> R^m over the standard l-simplex, one per
    owner simplex.

    eval maps rows of t, (N, l), each on the patch of its owner (an (N,)
    index array into range(size)), to (N, m) points; eval_jac returns those
    points and their (N, m, l) Jacobians from one chain pass.  One simplex
    is the size = 1 case.
    """

    l: int
    eval: object
    eval_jac: object
    size: int = 1


def simplex_patch(state, simplices):
    """The current embedding of simplices of one dimension: eta composed
    with each frame, owner k being simplices[k].  One Simplex is the
    size = 1 case.  The frames are simplex_frame's, stacked in C order."""
    if isinstance(simplices, Simplex):
        simplices = [simplices]
    pts = state.realization.points(np.array([s.vertices for s in simplices]))
    b = pts[:, 0]
    A = np.ascontiguousarray((pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1))

    def ev(t, owner):
        return state.eval_eta(b[owner] + matvec(A[owner], t))

    def ej(t, owner):
        x, J = state.eval_eta_with_jacobian(b[owner] + matvec(A[owner], t))
        return x, J @ A[owner]

    return Patch(l=simplices[0].dim, eval=ev, eval_jac=ej, size=len(simplices))


def interior_lattice(l, per_dim):
    """Strictly interior lattice points of the standard l-simplex, as rows,
    in lexicographic order."""
    if l == 0:
        return np.zeros((1, 0))
    n = per_dim + l
    pts = [p for p in product(range(1, n), repeat=l) if sum(p) < n]
    return np.array(pts, float).reshape(-1, l) / n


def lattice_per_dim(density, l):
    """Lattice steps per dimension of an l-simplex at a density: the density
    halved per dimension past the first, at least 2, and 0 for a vertex."""
    return max(2, density // max(1, 2 ** (l - 1))) if l else 0


def _domain_seeds(h, config):
    if h.domain.kind == "interval":
        lo, hi = h.domain.lo[0], h.domain.hi[0]
        n = max(4, int(round(config.curve_density * (hi - lo))))
        return h.sample_domain(n)
    return h.sample_domain(config.surface_density)


def _gauss_newton(h, patch, y0, t0, config, scale, owner=None, first=None):
    """Refine seed pairs toward h(y) = f(t).

    Refines the P pairs of (P, n) and (P, l) rows at once (a 1-D pair is
    one row) and returns (ok, Y, T, R): per pair whether it converged in
    the map's domain, and its best (y, t) and residual.  Pair i
    lies on the patch of owner[i] (owner 0 when no owner is given).  Every
    iteration finds the distinct (owner, t, y) rows of the pairs still
    running (_distinct_rows, over the owners and one array holding t and y
    side by side), evaluates h and the patch once at each, and
    solves one stacked least-squares problem over the distinct rows of the
    pairs still stepping; the results are scattered back, and each pair
    keeps its own best point, stall counter, divergence test and domain
    test, so every result equals that of a one-pair call.  first holds the
    patch's (f, df) rows at t0, as the seed pass of _roots gives them;
    without it the patch is evaluated at every distinct (owner, t) of the
    pairs here.  The first iteration takes its rows from first, and so
    does every iteration on a vertex patch (l = 0), which has no t to
    step; the later iterations of a positive-dimensional patch make one
    chain pass each.  The step solves the stacked least-squares problems
    with lstsq_rows: in closed form, and with LAPACK where the problem is
    ill-conditioned.  The chain, the map and lstsq_rows give each row the
    bits of a call on it alone, so a shared row, and a row of first, is
    the one its pair would have computed alone.
    """
    n = h.domain.dim
    T = np.atleast_2d(np.array(t0, float))
    P = len(T)
    # t and y side by side: a distinct-row key is one gather of TY
    TY = np.concatenate([T, np.array(y0, float).reshape(P, n)], axis=1)
    T, Y = TY[:, :T.shape[1]], TY[:, T.shape[1]:]
    O = np.zeros(P, int) if owner is None else np.asarray(owner, int).reshape(P)
    best_y, best_t = Y.copy(), T.copy()
    best_r = np.full(P, np.inf)
    stall = np.zeros(P, int)
    diverged = np.zeros(P, bool)
    live = np.arange(P)
    step_cap = 0.75  # a (y, t) step is in parameter units, whatever the mesh scale
    if first is None:
        u, inv = _distinct_rows(O, T)
        F, DF = (x[inv] for x in patch.eval_jac(T[u], O[u]))
    else:
        F, DF = first
    for k in range(config.gn_max_iter):
        if not live.size:
            break
        u, inv = _distinct_rows(O[live], TY.take(live, axis=0))
        u = live[u]
        if k and patch.l:
            f, df = patch.eval_jac(T[u], O[u])
        else:
            f, df = F[u], DF[u]
        r = h.eval_batch(Y[u]) - f
        rn = row_norms(r)[inv]
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
        # the distinct rows of the pairs still stepping, and each pair's row among them
        stepping = np.zeros(len(u), bool)
        stepping[inv[go]] = True
        g = np.flatnonzero(stepping)
        back = (np.cumsum(stepping) - 1)[inv[go]]
        step = lstsq_rows(np.concatenate([h.jacobian_raw(Y[u[g]]), -df[g]], axis=2), -r[g])
        sn = row_norms(step)
        cap = sn > step_cap
        step[cap] *= (step_cap / sn[cap])[:, None]
        step, sn = step[back], sn[back]
        Y[p] = h.domain.wrap(Y[p] + step[:, :n])
        T[p] = T[p] + step[:, n:]
        far = np.any(np.abs(T[p]) > 10.0, axis=1)
        diverged[p[far]] = True
        live = p[~far & (sn >= 1e-15)]
    ok = ~diverged & (best_r < np.inf) & h.domain.contains(best_y, tol=1e-6 * (1.0 + scale))
    return ok, best_y, best_t, best_r


def _distinct_rows(*cols):
    """The distinct rows of side-by-side columns, each an (N,) int array or
    an (N, k) float array: (u, inv), u indexing one row of each distinct
    row and row i being bit for bit row u[inv[i]].

    Rows are compared as the int64 bit patterns of their entries, so -0.0
    and 0.0, and NaNs of different payloads, stay apart.  One argsort of a
    fixed linear mix of the bit patterns (wrapping uint64 arithmetic)
    brings equal rows together; rows with different mixes differ, and
    neighbours that tie on the mix are compared in full.  So rows that tie
    on the mix but differ are never merged; at worst two equal rows with
    another between them in that order are not shared.
    """
    K = np.concatenate([(c[:, None] if c.ndim == 1 else c).view(np.int64) for c in cols], axis=1)
    mix = K.view(np.uint64) @ _MIX[:K.shape[1]]
    order = mix.argsort()
    mix = mix[order]
    new = np.ones(len(K), bool)
    new[1:] = mix[1:] != mix[:-1]
    tie = (~new).nonzero()[0]
    if tie.size:
        new[tie] = (K.take(order[tie], axis=0) != K.take(order[tie - 1], axis=0)).any(axis=1)
    inv = np.empty(len(K), int)
    inv[order] = new.cumsum() - 1
    return order[new], inv


# odd multiples of 2^64 over the golden ratio, one per key column (1 + l + n <= 16)
_MIX = np.arange(1, 32, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


# seed distances per block of owners in _pair_seeds, and row pairs per
# block of _dedupe: bounds the float temporaries of either to a few hundred kB
_BLOCK_SEEDS = 1 << 14
_BLOCK_PAIRS = 1 << 12


def _pair_seeds(h, patch, config, scale, t_per_dim=None, jac=False):
    """Seed (y, t) pairs whose images are close enough to share a root.

    ts stacks the simplex seed lattice once per owner, owner k holding rows
    k T .. (k + 1) T - 1, so the pair (iy, it) belongs to owner it // T;
    pairs come owner by owner, lattice point by lattice point.  At most a
    handful of map-parameter seeds are kept per simplex seed; extra seeds
    in the same basin only repeat the refinement.  Returns (ys, ts, pairs,
    dmin), dmin holding the smallest seed distance of each owner.  The
    distances are formed for a block of owners at a time, at most
    _BLOCK_SEEDS of them (or one owner's) per block, which bounds the
    memory of a call.  The lattice is evaluated in one chain pass: with
    jac, through patch.eval_jac, and the result gains a fifth item, the
    (f, df) rows of ts, which seed the refinement (see _gauss_newton).
    """
    ys = _domain_seeds(h, config)
    hy = h.eval_batch(ys)
    if t_per_dim is None:
        t_per_dim = lattice_per_dim(config.simplex_seed_density, patch.l)
    lattice = interior_lattice(patch.l, t_per_dim)
    T = len(lattice)
    ts = np.tile(lattice, (patch.size, 1))
    owners = np.repeat(np.arange(patch.size), T)
    if jac:
        ft, dft = patch.eval_jac(ts, owners)
    else:
        ft = patch.eval(ts, owners)
    gap = 0.0
    if len(hy) > 1:
        gap = float(np.linalg.norm(np.diff(hy, axis=0), axis=1).max())
    t_gap = scale / max(1, t_per_dim) if patch.l else 0.0
    prune = 1.5 * (gap + t_gap) + 1e-9
    dmin = np.full(patch.size, np.inf)
    iy, it, dist = [], [], []
    step = max(1, _BLOCK_SEEDS // max(1, len(hy) * T))
    for k in range(0, patch.size, step):
        d = _seed_distances(hy, ft[k * T:(k + step) * T])
        if d.size:
            dmin[k:k + step] = d.min(axis=0).reshape(-1, T).min(axis=1)
        col, row = np.nonzero(d.T <= prune)  # owner by owner, lattice point by lattice point
        iy.append(row)
        it.append(k * T + col)
        dist.append(d[row, col])
    iy, it, dist = (np.concatenate(x) for x in (iy, it, dist))
    keep = _nearest_per_column(it, dist, 6)
    seeds = ys, ts, list(zip(iy[keep].tolist(), it[keep].tolist())), dmin
    return seeds + ((ft, dft),) if jac else seeds


def _seed_distances(a, b):
    """Distances |a[i] - b[j]| between the rows of a and b, as an (A, B)
    array, bitwise as np.linalg.norm(a[:, None] - b[None], axis=2): numpy
    adds that short last axis left to right, as this coordinate-by-coordinate
    sum does, without forming the (A, B, m) difference."""
    d2 = np.square(a[:, None, 0] - b[None, :, 0])
    for j in range(1, a.shape[1]):
        d2 += np.square(a[:, None, j] - b[None, :, j])
    return np.sqrt(d2)


def _nearest_per_column(col, dist, cap):
    """Entries to keep, as indices: all of a column's entries when it has
    at most cap of them, else its cap nearest in np.argsort order.

    Entries come grouped by column, in column order.  Columns of one size
    are argsorted together, row by row, which orders every row as a 1-D
    np.argsort of it does, ties included.
    """
    start = np.flatnonzero(np.diff(col, prepend=-1))
    count = np.diff(start, append=col.size)
    slot = np.arange(col.size)
    keep = np.ones(col.size, bool)
    for size in set(count[count > cap].tolist()):
        block = start[count == size][:, None] + np.arange(size)
        order = np.argsort(dist[block], axis=1)
        slot[block[:, :cap]] = np.take_along_axis(block, order[:, :cap], axis=1)
        keep[block[:, cap:]] = False
    return slot[keep]


def _roots(h, patch, config, scale, t_per_dim=None):
    """Gauss-Newton roots of h(y) = patch(t) from pruned grid seeds, for
    every owner of the patch at once, as arrays: (owner, Y, T, R,
    min_residual), the roots ordered by owner and then by residual.

    Every converged local minimum is kept, deduplicated in parameter space
    owner by owner; thresholding is the caller's business.  A root outside
    the closed parameter simplex is dropped: it lies on the line extension
    of the patch, whose own face or neighbor owns that point.
    min_residual, one per owner, includes the coarse seed distances, so it
    is meaningful even when no seed pair survives pruning.  One chain pass
    evaluates the seed lattice of every owner with its Jacobian, one
    _gauss_newton call refines the seed pairs of all owners from the rows
    of that pass, and one _dedupe call, each owner a group, deduplicates
    their roots.
    """
    ys, ts, pairs, min_resid, (f, df) = _pair_seeds(h, patch, config, scale, t_per_dim, jac=True)
    iy, it = np.array(pairs, int).reshape(-1, 2).T
    owner = it // (len(ts) // patch.size)
    ok, Y, T, R = (_gauss_newton(h, patch, ys[iy], ts[it], config, scale, owner, (f[it], df[it]))
                   if pairs else (np.zeros(0, bool), ys[iy], ts[it], np.zeros(0)))
    # the closed parameter simplex, with a little slack
    inside = ok & np.all(T >= -1e-6, axis=1) & (T.sum(axis=1) <= 1.0 + 1e-6)
    owner, Y, T, R = owner[inside], Y[inside], T[inside], R[inside]
    np.minimum.at(min_resid, owner, R)
    order = np.lexsort((R, owner))
    owner, Y, T, R = owner[order], Y[order], T[order], R[order]
    kept = _dedupe(Y, T, owner, config.dedupe_radius, _domain_period(h))
    log.debug("patch roots: %d seed pairs, %d diverged or left the domain, %d roots outside "
              "the closed simplex, %d duplicate roots dropped", len(pairs),
              len(pairs) - ok.sum(), ok.sum() - len(R), len(R) - len(kept))
    return owner[kept], Y[kept], T[kept], R[kept], min_resid


def _dedupe(Y, T, group, radius, y_period=None):
    """Greedy dedupe of stacked (y, t) parameter rows, group by group:
    the indices of the rows kept, in row order.

    group holds each row's group id, the groups coming in order, each in
    its own order.  A row is kept when its parameter distance to every
    kept earlier row of its group exceeds radius; periodic parameter axes
    fold, so roots found from both sides of the seam collapse to one.
    Two rows that close have first t coordinates at most radius apart, so
    the rows of a group are sorted by that coordinate and each is paired
    with the rows after it up to the radius, widened by a relative 1e-9 so
    that the rounding of the distance never drops a close pair; the
    distance formula then decides, and a vertex group (l = 0) pairs all of
    its rows.  The distances are formed in blocks of about _BLOCK_PAIRS
    pairs.  The greedy choice is then settled for all groups at once, in
    rounds: each round keeps every open row with no open close earlier
    row, and drops every open row close to one it kept.
    """
    N = len(group)
    # (group, first t coordinate) as one complex key, which numpy orders
    # lexicographically, NaN coordinates last in their group
    key = np.empty(N, complex)
    key.real, key.imag = group, T[:, 0] if T.shape[1] else 0.0
    order = np.argsort(key)
    key = key[order]
    reach = key.copy()
    reach.imag += radius * (1.0 + 1e-9)
    end = np.searchsorted(key, reach, side="right")
    later = end - np.arange(N) - 1
    close = []
    for rb in np.split(np.arange(N), np.flatnonzero(np.diff(np.cumsum(later) // _BLOCK_PAIRS)) + 1):
        a = np.repeat(rb, later[rb])
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later[rb]) - later[rb], later[rb])
        i, j = np.minimum(order[a], order[b]), np.maximum(order[a], order[b])
        dy = Y[j] - Y[i]
        if y_period is not None:
            dy = np.abs(dy) % y_period
            dy = np.minimum(dy, y_period - dy)
        dt = T[j] - T[i]
        near = np.sqrt(np.sum(dy ** 2, axis=1) + np.sum(dt ** 2, axis=1)) <= radius
        close.append((i[near], j[near]))
    i, j = (np.concatenate(x) for x in zip(*close))
    keep = np.zeros(N, bool)
    todo = np.ones(N, bool)  # every pair left has both rows still to settle
    while todo.any():
        waiting = np.zeros(N, bool)
        waiting[j] = True
        new = todo & ~waiting
        keep |= new
        todo &= waiting
        todo[j[new[i]]] = False
        live = todo[i] & todo[j]
        i, j = i[live], j[live]
    return np.flatnonzero(keep)


def _domain_period(h):
    if h.domain.kind == "interval" and h.domain.periodic:
        return h.domain.hi[0] - h.domain.lo[0]
    return None


# ---------------------------------------------------------------------------
# records and per-simplex search


@dataclass(frozen=True, eq=False)
class IntersectionRecord:
    """One located intersection, attributed to a carrier simplex."""

    simplex: Simplex
    y: tuple
    t: tuple
    point: tuple
    residual: float
    margin: float
    classification: str  # transverse | tangent | skeleton-hit


def find_intersections(state, simplices, h, config=None):
    """Roots of h(y) = eta(iota_s(t)) with t in the closed simplex s, for
    every simplex s of one dimension at once: (records, min_residual) per
    simplex, records in order of residual, each on its root's carrier face
    (see _hits), and min_residual the best approach found (used for vertex
    distance diagnostics).  One _records call builds every record.

    The state keeps the search in place of any it kept before (shift
    sampling searches each round's trial state, and the final verify takes
    the last one); a call with the same simplices, in the same order, and
    the same h and config objects takes it without searching again.
    """
    config = config or PipelineConfig()
    group = tuple(simplices)
    owner, hits, min_resid = _hits(state, group, h, config)
    state._search = (group, h, config, (owner, hits, min_resid))
    built = _records(state, h, [block for _, *block in hits], config)
    out = [([], r) for r in min_resid]
    for i, rec in sorted((i, rec) for (rows, *_), recs in zip(hits, built)
                         for i, rec in zip(rows.tolist(), recs)):
        out[owner[i]][0].append(rec)
    return out


def _hits(state, group, h, config):
    """The search of the simplices of group, of one dimension, or the one
    the state kept for the same inputs (see find_intersections): (owner,
    hits, min_residual), owner and min_residual those of _roots as lists,
    hits one (rows, faces, Y, T, R) block per carrier-face dimension,
    ascending (the hits' indices among the roots, in order, their faces as
    vertex-id rows, and their y, t on the face and residual).  A hit is a
    root below the intersection threshold (the solve tolerance when
    spanning is possible, else the clearance threshold) that lands in its
    closed owner simplex; its carrier face drops the vertices whose
    barycentric coordinates are at most barycentric_tol.
    """
    kept = state._search
    if kept is not None and kept[0] == group and kept[1] is h and kept[2] is config:
        return kept[3]
    l, n, m = group[0].dim, h.domain.dim, state.ambient_dim
    t_per_dim = lattice_per_dim(config.simplex_seed_density, l)
    if n + l > m:
        # intersections come in positive-dimensional families; a sparse
        # sample of the family is enough for the rank verdict
        t_per_dim = max(2, t_per_dim // 4)
    owner, Y, T, R, min_resid = _roots(h, simplex_patch(state, group), config, state.mesh_scale,
                                       t_per_dim)
    lam = np.concatenate([1.0 - T.sum(axis=1, keepdims=True), T], axis=1)
    # a root outside its simplex is a neighbor's
    hit = np.flatnonzero((R < (config.solve_tol if n + l >= m else config.vertex_clearance))
                         & ~(lam.min(axis=1) < -1e-8))
    lam = np.clip(lam[hit], 0.0, None)
    keep = carrier_mask(lam, config.barycentric_tol)
    size = keep.sum(axis=1)
    verts = np.array([s.vertices for s in group])
    hits = []
    for c in sorted(set(size.tolist())):
        rows = np.flatnonzero(size == c)
        pos = np.nonzero(keep[rows])[1].reshape(-1, c)
        sub = lam[rows[:, None], pos]
        at = hit[rows]
        hits.append((at, verts[owner[at, None], pos], Y[at],
                     (sub / sub.sum(axis=1, keepdims=True))[:, 1:], R[at]))
    return owner.tolist(), hits, min_resid.tolist()


def _records(state, h, blocks, config):
    """The records of roots on carrier faces, one list per (faces, Y, T, R)
    block, faces of one dimension as vertex-id rows and T the roots'
    parameters on them.  One chain pass evaluates eta and its Jacobian at
    every root, one jacobian_raw call differentiates the map at every
    root, and the margins of a block are one stacked computation.
    """
    n, m = h.domain.dim, state.ambient_dim
    if not sum(len(R) for *_, R in blocks):
        return [[] for _ in blocks]
    frames = []
    for faces, _, T, _ in blocks:
        # each face's frame, as simplex_frame builds it, and its point at T
        pts = state.realization.points(faces)
        A = (pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)
        frames.append((A, pts[:, 0] + (matvec(A, T) if T.shape[1] else 0.0)))
    points, jacs = state.eval_eta_with_jacobian(np.concatenate([base for _, base in frames]))
    dh = h.jacobian_raw(np.concatenate([Y for _, Y, _, _ in blocks]))
    out, ends = [], np.cumsum([len(R) for *_, R in blocks])
    for (faces, Y, T, R), (A, _), end in zip(blocks, frames, ends):
        rows = np.arange(end - len(R), end)
        if n + T.shape[1] < m:
            margin, cls = np.zeros(len(R)), ["skeleton-hit"] * len(R)
        else:
            margin = transversality_margin(dh[rows], jacs[rows] @ A)
            cls = np.where(margin >= config.tol_rank, "transverse", "tangent").tolist()
        out.append([IntersectionRecord(simplex=Simplex._trusted(tuple(vs)), y=tuple(y), t=tuple(t),
                                       point=tuple(x), residual=r, margin=mg, classification=kind)
                    for vs, y, t, x, r, mg, kind in zip(
                        faces.tolist(), Y.tolist(), T.tolist(), points[rows].tolist(), R.tolist(),
                        margin.tolist(), cls)])
    return out


def simplex_passes(n, l, m, records, min_residual, config):
    """Verdict of one l-simplex against a map of domain dimension n in R^m,
    from the records found on it and its smallest residual.

    When n + l < m no record may exist and a vertex must keep the
    clearance from the map image; otherwise every record must be
    transverse.
    """
    if n + l < m:
        return not records and (l > 0 or min_residual > config.vertex_clearance)
    return all(r.classification == "transverse" for r in records)


# ---------------------------------------------------------------------------
# whole-triangulation verification


@dataclass(frozen=True, eq=False)
class SimplexStatus:
    simplex: Simplex
    passed: bool
    records: tuple
    min_distance: float | None = None  # populated for vertices


@dataclass(frozen=True, eq=False)
class TransversalityReport:
    passed: bool
    statuses: dict
    records: tuple
    diagnostics: dict

    def status(self, s):
        return self.statuses[s]


def verify_triangulation(state, h, config=None):
    """Transversality verdict for every simplex of the complex.

    The simplices of each dimension are searched together, or taken from
    the search the state kept (see _hits).  The hits on the faces of one
    dimension, from the searches of that dimension and up, are
    deduplicated in one _dedupe call, each face a group holding its hits
    in the order they were found.  One _records call builds the record of
    every hit that survives; each simplex is judged on its records by
    simplex_passes.
    """
    config = config or PipelineConfig()
    n, m, cplx = h.domain.dim, state.ambient_dim, state.complex
    found = {}  # face dimension -> [(faces, Y, T, R)], in search order
    for l in range(cplx.dim + 1):
        _, hits, min_resid = _hits(state, cplx.by_dim(l), h, config)
        for _, faces, Y, T, R in hits:
            found.setdefault(T.shape[1], []).append((faces, Y, T, R))
        if l == 0:
            vertex_dist = min_resid
    # the hits of each face dimension, stably sorted by face, deduplicated once
    survivors, blocks = {}, []
    for d, found_d in sorted(found.items()):
        faces, Y, T, R = (np.concatenate(x) for x in zip(*found_d))
        ids = _find_rows(cplx.ids(d), faces)
        order = np.argsort(ids, kind="stable")
        order = order[_dedupe(Y[order], T[order], ids[order], config.dedupe_radius,
                              _domain_period(h))]
        survivors[d] = ids[order]
        blocks.append((faces[order], Y[order], T[order], R[order]))
    records = dict(zip(survivors, _records(state, h, blocks, config)))
    statuses, all_records = {}, []
    for l in range(cplx.dim + 1):
        ids, recs = survivors.get(l, np.zeros(0, int)), records.get(l, [])
        bounds = np.searchsorted(ids, np.arange(len(cplx.by_dim(l)) + 1)).tolist()
        for k, s in enumerate(cplx.by_dim(l)):
            own = tuple(recs[bounds[k]:bounds[k + 1]])
            all_records.extend(own)
            dist = vertex_dist[k] if l == 0 else None
            statuses[s] = SimplexStatus(s, simplex_passes(n, l, m, own, dist, config), own, dist)
    margins = [r.margin for r in all_records if r.classification == "transverse"]
    finite_dists = [d for d in vertex_dist if np.isfinite(d)]
    diagnostics = {
        "n_records": len(all_records),
        "n_transverse": sum(r.classification == "transverse" for r in all_records),
        "n_tangent": sum(r.classification == "tangent" for r in all_records),
        "n_skeleton_hits": sum(r.classification == "skeleton-hit" for r in all_records),
        "min_margin": min(margins) if margins else None,
        "min_vertex_distance": min(finite_dists) if finite_dists else None,
    }
    passed = all(st.passed for st in statuses.values())
    return TransversalityReport(
        passed=passed,
        statuses=statuses,
        records=tuple(all_records),
        diagnostics=diagnostics,
    )


def boundary_crossing_counts(cplx, report):
    """Transverse crossings on the boundary edges of each 2-simplex.

    For a closed curve avoiding the 0-skeleton, each count is even.
    """
    counts = {}
    for s in cplx.by_dim(2):
        edges = [Simplex(e) for e in
                 [(s.vertices[0], s.vertices[1]), (s.vertices[0], s.vertices[2]),
                  (s.vertices[1], s.vertices[2])]]
        c = 0
        for e in edges:
            st = report.statuses.get(e)
            if st is not None:
                c += sum(r.classification == "transverse" for r in st.records)
        counts[s] = c
    return counts


# ---------------------------------------------------------------------------
# Jacobian and smoothness diagnostics


def fd_jacobian(f, x, step=None):
    """Central finite-difference Jacobian of f at x."""
    x = np.asarray(x, float)
    fx = np.asarray(f(x), float)
    J = np.zeros((fx.size, x.size))
    for j in range(x.size):
        h = step if step is not None else 1e-6 * (1.0 + abs(float(x[j])))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        J[:, j] = (np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h)
    return J


def fd_jacobian_check(f, jac, points, step=None):
    """Max relative Frobenius error of the analytic Jacobian vs central
    differences over the given points."""
    worst = 0.0
    for x in points:
        Ja = np.asarray(jac(np.asarray(x, float)), float)
        Jn = fd_jacobian(f, x, step)
        denom = max(np.linalg.norm(Ja), 1e-30)
        worst = max(worst, float(np.linalg.norm(Ja - Jn) / denom))
    return worst


def _fd_tensor(f, t, order, h):
    """Nested central differences: order-j derivative tensor of f at t."""
    if order == 0:
        return np.asarray(f(t), float)
    t = np.asarray(t, float)
    slices = []
    for j in range(t.size):
        tp = t.copy(); tp[j] += h
        tm = t.copy(); tm[j] -= h
        d = (_fd_tensor(f, tp, order - 1, h) - _fd_tensor(f, tm, order - 1, h)) / (2.0 * h)
        slices.append(d)
    return np.stack(slices, axis=-1)


def boundary_decay_check(pert, max_i=3, max_j=3, n_rays=10, n_steps=8, required_drop=1e-6):
    """Decay of rho^(-i) * |grad^j s| along rays toward the simplex boundary.

    Walks geometrically spaced points from the barycenter toward boundary
    targets and records the first and last ratios for each (i, j).  The
    check passes when the final ratio fell below required_drop times the
    initial one; exact underflow to zero counts as a pass.
    Returns {(i, j): (initial, final, passed)} plus an overall 'passed'.
    """
    l = pert.chart.l
    if l < 1:
        raise ValueError("decay check needs a positive-dimensional simplex")
    bary = np.full(l, 1.0 / (l + 1))
    verts = [np.zeros(l)] + [np.eye(l)[i] for i in range(l)]
    targets = list(verts)
    if l >= 2:
        # facet barycenters, then skewed facet points until rays run out
        for k in range(l + 1):
            pts = [verts[i] for i in range(l + 1) if i != k]
            targets.append(np.mean(pts, axis=0))
        i = 0
        while len(targets) < n_rays:
            k = i % (l + 1)
            pts = [verts[j] for j in range(l + 1) if j != k]
            w = np.roll(np.arange(1.0, len(pts) + 1.0), i)
            targets.append(sum(wi * p for wi, p in zip(w / w.sum(), pts)))
            i += 1
    seen = set()
    rays = []
    for q in targets[:n_rays]:
        key = tuple(np.round(q, 12))
        if key not in seen:
            seen.add(key)
            rays.append(q)

    def s_func(t):
        return pert.shift(t)

    table = {}
    overall = True
    for i in range(max_i + 1):
        for j in range(max_j + 1):
            first = last = None
            for q in rays:
                ratios = []
                for k in range(n_steps + 1):
                    u = 1.0 - 0.5 ** k
                    t = bary + u * (q - bary)
                    rho_val = bump.rho_l(t)
                    if rho_val <= 0.0:
                        ratios.append(0.0)
                        continue
                    if j == 0:
                        norm = float(np.linalg.norm(pert.shift(t)))
                    else:
                        tens = _fd_tensor(s_func, t, j, 1e-6)
                        norm = float(np.abs(tens).max())
                    if norm == 0.0:
                        ratios.append(0.0)
                    else:
                        expo = np.log(norm) - i * np.log(rho_val)
                        ratios.append(float(np.exp(min(expo, 700.0))))
                if first is None:
                    first, last = ratios[0], ratios[-1]
                else:
                    first = max(first, ratios[0])
                    last = max(last, ratios[-1])
            ok = last == 0.0 or (first > 0.0 and last < required_drop * first)
            table[(i, j)] = (first, last, ok)
            overall = overall and ok
    table["passed"] = overall
    return table


# ---------------------------------------------------------------------------
# report serialization


def report_to_csv(report):
    """One row per intersection record."""
    lines = ["simplex;dim;classification;residual;margin;y;t;point"]
    for r in sorted(report.records, key=lambda r: simplex_sort_key(r.simplex)):
        lines.append(";".join([
            "-".join(str(v) for v in r.simplex.vertices),
            str(r.simplex.dim),
            r.classification,
            repr(r.residual),
            repr(r.margin),
            "|".join(repr(v) for v in r.y),
            "|".join(repr(v) for v in r.t),
            "|".join(repr(v) for v in r.point),
        ]))
    return "\n".join(lines) + "\n"


def report_summary(report):
    """Human-readable structured-text summary."""
    d = report.diagnostics
    lines = [
        f"result: {'PASS' if report.passed else 'FAIL'}",
        f"simplices: {len(report.statuses)}",
        f"records: {d['n_records']} (transverse {d['n_transverse']},"
        f" tangent {d['n_tangent']}, skeleton-hit {d['n_skeleton_hits']})",
        f"min-crossing-margin: {d['min_margin']!r}",
        f"min-vertex-distance: {d['min_vertex_distance']!r}",
    ]
    failing = [s for s, st in sorted(report.statuses.items(), key=lambda kv: simplex_sort_key(kv[0]))
               if not st.passed]
    lines.append(f"failing-simplices: {len(failing)}")
    for s in failing:
        st = report.statuses[s]
        kinds = ",".join(sorted({r.classification for r in st.records})) or "separation"
        lines.append(f"  {'-'.join(str(v) for v in s.vertices)} dim={s.dim} cause={kinds}")
    return "\n".join(lines) + "\n"
