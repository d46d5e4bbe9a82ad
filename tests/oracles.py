"""Oracles of kernels that later forms replaced and tests check against.

Location: least-squares point location for the affine kernel of
_TopIndex, where every barycentric coordinate comes from one
least-squares solve of the augmented vertex system [P; 1] lam = (x, 1)
by LAPACK's dgelsd (rows.dgelsd_rows, not the closed form of
rows.lstsq_rows), and the dense box test for the cell index _BoxCells.

Bump forms: scaled_warp, beta, beta_deriv and rho_l_grad as each took
its own exps and logs, before the forms in bump shared them.

Gauss-Newton: the refinement loop that evaluates the patch at every
iteration, also for a vertex patch, whose image never moves, and at every
pair, also where pairs repeat; the root dedupe that forms the distance of
every row pair of a group.

Verifier: the whole-complex verdict that builds a record for every hit of
every search and deduplicates the records of each carrier face
afterwards, where the verifier deduplicates the hits and builds records
for the survivors only.

Set-up: the object builds that stacked array builds replaced, one
simplex at a time: the grid mesh, the maximal simplices and the
affine-independence check of a complex, the barycentric subdivision with
its location index fields and star tables, tubular charts with their QR
normal completion, a link's support box and the shortest edge, and the
clearance search's sample lattice and directions, point by point.

Clearance: the sampled halving search, which tests fiber samples in a
few directions with perturb.containment_ok where the pipeline compares
each candidate with the exact distance to the barycentre's link.

Test-only views: one local diffeomorphism's fiber map, Jacobian and
inverse, and a chart's frame coordinates, which the pipeline reads from
stacked link data instead.

Distortion: the sampled |J - I| of one local diffeomorphism, which the
pipeline once checked for every link, and the closed-form bound on the
whole fiber region that replaced that check.
"""

import math
from itertools import combinations, permutations, product

import numpy as np

from transtri import bump, perturb
from transtri import simplicial as sc
from transtri.charts import (AmbientDiffeo, StarLocator, TubularChart, fiber_moves,
                             fiber_preimages, make_charts)
from transtri.config import PipelineConfig
from transtri.errors import DegenerateGeometryError, MeshError
from transtri.rows import dgelsd_rows, entrywise, lstsq_rows, matvec, row_norms
from transtri.verify import (SimplexStatus, TransversalityReport, _dedupe, _domain_period,
                            find_intersections, interior_lattice, lattice_per_dim,
                            simplex_passes)


def barycentric_rows(pts, x):
    """Barycentric coordinates of each row of x, (Q, m), with respect to the
    simplex whose vertices are the rows of pts[i], (Q, k, m), and the
    distance of x[i] from that simplex's affine hull; one stacked
    least-squares solve for all rows, by LAPACK's dgelsd."""
    q, k, _ = pts.shape
    P = pts.transpose(0, 2, 1)
    lam = dgelsd_rows(np.concatenate([P, np.ones((q, 1, k))], axis=1),
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


def sampled_c_sigma(state, simplices, config=None, sd_data=None, charts=None):
    """perturb.estimate_c_sigma with the sampled test: each halving round
    tests every simplex still searching, each at its own c, with one
    perturb.containment_ok call (fiber samples at radii c rho and c rho / 2
    in every direction of perturb._unit_directions, located with the
    configured barycentric tolerance)."""
    config = config or PipelineConfig()
    charts = charts or make_charts(state, simplices)
    sd_data = sd_data or perturb.subdivision_data(state)
    locator = StarLocator(sd_data.index, config.barycentric_tol)
    l = simplices[0].dim
    lattice = interior_lattice(l, lattice_per_dim(config.containment_density, l))
    dirs = perturb._unit_directions(state.ambient_dim - l)
    index = sd_data.index
    star = locator.star[sd_data.barycenters(simplices)]
    real = (star >= 0)[..., None]
    cs = row_norms(np.where(real, index.hi[star], -np.inf).max(axis=1)
                   - np.where(real, index.lo[star], np.inf).min(axis=1))
    found = [None] * len(simplices)
    live = np.arange(len(simplices))
    while True:
        over = cs[live] > config.c_min
        live = live[over & (live < live[~over].min(initial=len(cs)))]
        if not live.size:
            break
        ok = np.array(perturb.containment_ok([charts[i] for i in live], locator, lattice, dirs,
                                             cs[live], sd_data))
        for i in live[ok].tolist():
            found[i] = float(cs[i]) / 2.0
        live = live[~ok]
        cs[live] *= 0.5
    failed = next((i for i, c in enumerate(found) if c is None), None)
    if failed is not None:
        raise DegenerateGeometryError(
            f"no fiber clearance above {config.c_min} for simplex {simplices[failed].vertices}",
            clearances=found[:failed])
    return found


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
    every factor; 1 - sum t is NaN, silently, on a row holding both
    infinities."""
    t = np.asarray(t, float)
    l = t.shape[-1]
    if l == 0:
        return np.zeros(t.shape)
    with np.errstate(invalid="ignore"):
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
    """verify._gauss_newton with every patch, a vertex patch included,
    evaluated at every iteration, at the pairs still running, and one
    (y, t, residual) or None per pair."""
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


def dedupe(Y, T, group, radius, y_period=None):
    """verify._dedupe forming the distance of every (earlier, later) row
    pair of a group, in one block."""
    N = len(group)
    later = np.searchsorted(group, group, side="right") - np.arange(N) - 1
    i = np.repeat(np.arange(N), later)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(later) - later, later)
    dy = Y[j] - Y[i]
    if y_period is not None:
        dy = np.abs(dy) % y_period
        dy = np.minimum(dy, y_period - dy)
    dt = T[j] - T[i]
    near = np.sqrt(np.sum(dy ** 2, axis=1) + np.sum(dt ** 2, axis=1)) <= radius
    i, j = i[near], j[near]
    keep = np.zeros(N, bool)
    todo = np.ones(N, bool)
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


def verify_triangulation(state, h, config, find=find_intersections):
    """verify.verify_triangulation from the records find (find_intersections
    by default) builds for every hit of each dimension's search, the
    records of each carrier face deduplicated in one _dedupe call per face
    dimension."""
    n = h.domain.dim
    m = state.ambient_dim
    cplx = state.complex
    by_simplex = {}
    vertex_dist = {}
    for l in range(cplx.dim + 1):
        group = cplx.by_dim(l)
        if not group:
            continue
        for s, (records, min_resid) in zip(group, find(state, group, h, config)):
            for rec in records:
                by_simplex.setdefault(rec.simplex, []).append(rec)
            if l == 0:
                vertex_dist[s] = min_resid
    faces = sorted(by_simplex, key=sc.simplex_sort_key)
    kept = {}
    for d in sorted({s.dim for s in faces}):
        group = [s for s in faces if s.dim == d]
        recs = [r for s in group for r in by_simplex[s]]
        ids = np.repeat(np.arange(len(group)), [len(by_simplex[s]) for s in group])
        Y = np.array([r.y for r in recs], float).reshape(len(recs), n)
        T = np.array([r.t for r in recs], float).reshape(len(recs), d)
        for i in _dedupe(Y, T, ids, config.dedupe_radius, _domain_period(h)).tolist():
            kept.setdefault(recs[i].simplex, []).append(recs[i])
    statuses = {}
    all_records = []
    for s in sorted(cplx.simplices, key=sc.simplex_sort_key):
        recs = tuple(kept.get(s, ()))
        all_records.extend(recs)
        ok = simplex_passes(n, s.dim, m, recs, vertex_dist.get(s, np.inf), config)
        statuses[s] = SimplexStatus(simplex=s, passed=ok, records=recs,
                                    min_distance=vertex_dist.get(s) if s.dim == 0 else None)
    margins = [r.margin for r in all_records if r.classification == "transverse"]
    finite_dists = [d for d in vertex_dist.values() if np.isfinite(d)]
    diagnostics = {
        "n_records": len(all_records),
        "n_transverse": sum(r.classification == "transverse" for r in all_records),
        "n_tangent": sum(r.classification == "tangent" for r in all_records),
        "n_skeleton_hits": sum(r.classification == "skeleton-hit" for r in all_records),
        "min_margin": min(margins) if margins else None,
        "min_vertex_distance": min(finite_dists) if finite_dists else None,
    }
    return TransversalityReport(passed=all(st.passed for st in statuses.values()),
                                statuses=statuses, records=tuple(all_records),
                                diagnostics=diagnostics)


def top_simplices(cplx):
    """Maximal simplices: those that never occur as a facet of another."""
    facet_of_something = set()
    for s in cplx.simplices:
        if s.dim == 0:
            continue
        for fv in combinations(s.vertices, len(s.vertices) - 1):
            facet_of_something.add(fv)
    return tuple(sorted((s for s in cplx.simplices if s.vertices not in facet_of_something),
                        key=sc.simplex_sort_key))


def validate(realization, cplx):
    """The affine-independence check of every top of dimension >= 1, one
    stacked SVD per dimension of the frames simplex_frame builds."""
    by_d = {}
    for s in top_simplices(cplx):
        if s.dim >= 1:
            by_d.setdefault(s.dim, []).append(s)
    for d, group in by_d.items():
        mats = np.stack([realization.simplex_frame(s)[1] for s in group])
        scale = max(1.0, float(np.abs(mats).max()))
        sv = np.linalg.svd(mats, compute_uv=False)
        bad = np.nonzero(sv[:, -1] <= 1e-12 * scale)[0]
        if bad.size:
            s = group[int(bad[0])]
            raise MeshError(f"degenerate simplex {s.vertices}: vertices affinely dependent")


def barycentric_subdivision(cplx, realization):
    """The subdivision from Simplex objects: (sd_complex, sd_realization,
    barycenter_ids, tops in simplex_sort_key order), the check run on
    every top."""
    ordered = sorted(cplx.simplices, key=sc.simplex_sort_key)
    ids = {s: i for i, s in enumerate(ordered)}
    coords = {ids[s]: sc.barycenter(s, realization) for s in ordered}
    tops = []
    for top in top_simplices(cplx):
        for perm in permutations(top.vertices):
            flag = [sc.Simplex(tuple(sorted(perm[: k + 1]))) for k in range(len(perm))]
            tops.append(tuple(sorted(ids[f] for f in flag)))
    sd = sc.build_complex(len(ordered), tops)
    real = sc.GeometricRealization(coords)
    validate(real, sd)
    return sd, real, ids, top_simplices(sd)


def top_index(realization, tops):
    """The fields of _TopIndex, one top at a time: lo, hi, scale, size, pad,
    pts and inv, as a dict."""
    pts = [realization.simplex_points(s) for s in tops]
    f = {"lo": np.array([p.min(axis=0) for p in pts]),
         "hi": np.array([p.max(axis=0) for p in pts]),
         "scale": np.array([max(1.0, float(np.abs(p).max())) for p in pts]),
         "size": np.array([len(p) for p in pts])}
    pmin = np.array([float(np.linalg.norm(p, axis=1).min()) for p in pts])
    f["pad"] = 2.0 * (f["size"][:, None] * (f["hi"] - f["lo"])
                      + (f["scale"] * (1.0 + f["scale"] * pmin))[:, None])
    m = realization.ambient_dim
    f["pts"] = np.zeros((len(pts), f["size"].max(), m))
    for i, p in enumerate(pts):
        f["pts"][i, :len(p)] = p
    f["inv"] = np.zeros((len(pts), f["pts"].shape[1], m + 1))
    for k in set(f["size"].tolist()):
        j = np.nonzero(f["size"] == k)[0]
        f["inv"][j, :k] = np.linalg.pinv(np.concatenate(
            [f["pts"][j, :k].transpose(0, 2, 1), np.ones((j.size, 1, k))], axis=1))
    return f


def star_tables(tops):
    """StarLocator's tables from Simplex tops: each vertex's tops in order,
    -1 padded, and each top's vertices, -1 padded."""
    stars = {}
    for j, top in enumerate(tops):
        for v in top.vertices:
            stars.setdefault(v, []).append(j)
    star = np.full((max(stars) + 1, max(map(len, stars.values()))), -1)
    for v, js in stars.items():
        star[v, :len(js)] = js
    ids = np.full((len(tops), max(len(t.vertices) for t in tops)), -1)
    for j, top in enumerate(tops):
        ids[j, :len(top.vertices)] = top.vertices
    return star, ids


def normal_completion(A, m):
    """The orthonormal completion of the columns of one A, by a complete QR
    and per-column sign fixes."""
    l = A.shape[1]
    if l == 0:
        return np.eye(m)
    Q, R = np.linalg.qr(A, mode="complete")
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


def make_chart(state, s):
    """The tubular chart of one simplex, from simplex_frame, with M = [A | N]
    and its inverse."""
    b, A = state.realization.simplex_frame(s)
    N = normal_completion(A, state.ambient_dim)
    M = np.hstack([A, N])
    return TubularChart(s, b, A, N, M, np.linalg.inv(M))


def extend_to_ambient(psi):
    """The link of one local diffeomorphism, its support box from the
    chart's frame_point at the corners."""
    chart = psi.chart
    l, m = chart.l, chart.m
    rho_max = bump.rho_l(np.full(l, 1.0 / (l + 1))) if l else 1.0
    rad = psi.epsilon * rho_max
    t_corners = np.vstack([np.zeros(l), np.eye(l)])
    v_corners = rad * (2.0 * np.array(list(np.ndindex(*(2,) * (m - l))), float) - 1.0)
    pts = chart.frame_point(np.repeat(t_corners, len(v_corners), axis=0),
                            np.tile(v_corners, (l + 1, 1)))
    return AmbientDiffeo(local=psi, support_lo=pts.min(axis=0), support_hi=pts.max(axis=0))


def min_edge_length(realization, cplx):
    """The shortest edge, one norm per edge."""
    lengths = [np.linalg.norm(realization.point(a) - realization.point(b))
               for s in cplx.by_dim(1) for a, b in [s.vertices]]
    return min(lengths) if lengths else 1.0


def _per_row(psi, n):
    return np.full(n, psi.epsilon), np.broadcast_to(psi.v, (n, psi.v.size))


def local_moves(psi, t, v, with_jacobian=False):
    """fiber_moves of one LocalDiffeo at the rows of t (N, l) and v (N, m-l)."""
    return fiber_moves(t, v, *_per_row(psi, len(v)), with_jacobian)


def local_eval(psi, t, v):
    """Images (t, v) of the rows of t and v under psi; v itself when no row
    moves."""
    moved, v2 = local_moves(psi, t, v)[:2]
    if moved.size:
        v = v.copy()
        v[moved] = v2
    return t, v


def local_jacobian(psi, t, v):
    """(N, m, m) Jacobians of psi at the rows of t and v: I off the fade
    support, where fiber_moves builds no block."""
    _, _, Js, support = local_moves(psi, t, v, with_jacobian=True)
    J = np.tile(np.eye(t.shape[1] + v.shape[1]), (len(v), 1, 1))
    J[support] = Js
    return J


def local_inverse_moves(psi, t, w):
    """Rows of w (N, m-l) that psi's inverse moves, and their preimages."""
    return fiber_preimages(t, w, *_per_row(psi, len(w)))


def _fiber_samples(psi):
    """Frame rows (t, w) of one local diffeomorphism at fiber radii 0, 0.4
    and 0.8 of the fade radius, in every direction of
    perturb._unit_directions, over an interior lattice of the simplex."""
    ts = interior_lattice(psi.l, lattice_per_dim(4, psi.l))
    rho = bump.rho_l(ts)
    ts, rho = ts[rho > 0.0], rho[rho > 0.0]
    dirs = np.asarray(perturb._unit_directions(psi.v.size))
    rad = (np.array([0.0, 0.4, 0.8]) * psi.epsilon)[None, :] * rho[:, None]
    vs = (rad[:, :, None, None] * dirs).reshape(-1, dirs.shape[1])
    return np.repeat(ts, 3 * len(dirs), axis=0), vs


def sampled_distortion(psi):
    """Largest sampled |J - I| of one local diffeomorphism, through its own
    Jacobian, at the rows of _fiber_samples."""
    J = local_jacobian(psi, *_fiber_samples(psi))
    return float(np.linalg.norm(J - np.eye(psi.m), 2, axis=(1, 2)).max(initial=0.0))


def sampled_move(psi):
    """Largest sampled |psi(t, w) - (t, w)| of one local diffeomorphism, at
    the rows of _fiber_samples, and the largest |w| among them: w + beta s
    rounds by at most an ulp of that per entry."""
    t, w = _fiber_samples(psi)
    moved, w2 = local_moves(psi, t, w)[:2]
    move = np.linalg.norm(w2 - w[moved], axis=1).max(initial=0.0)
    return float(move), float(np.linalg.norm(w, axis=1).max(initial=0.0))


def frame_coords(chart, x):
    """Frame coordinates (t, v) of the rows of x in a chart."""
    tv = matvec(chart._Minv, np.asarray(x, float) - chart.base)
    return tv[..., :chart.l], tv[..., chart.l:]


def grid_triangulation(lo, hi, n):
    """The Kuhn-split grid, one vertex and one path at a time."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    m = lo.size

    def vid(idx):
        out = 0
        for i in idx:
            out = out * (n + 1) + i
        return out

    coords = {vid(idx): lo + (hi - lo) * np.array(idx, dtype=float) / n
              for idx in product(range(n + 1), repeat=m)}
    tops = []
    for cell in product(range(n), repeat=m):
        for perm in permutations(range(m)):
            path, cur = [tuple(cell)], list(cell)
            for ax in perm:
                cur[ax] += 1
                path.append(tuple(cur))
            tops.append(tuple(vid(p) for p in path))
    cplx = sc.build_complex((n + 1) ** m, tops)
    return cplx, sc.GeometricRealization(coords, cplx)


def interior_lattice(l, per_dim):
    """The interior lattice of the standard l-simplex, by recursion."""
    if l == 0:
        return np.zeros((1, 0))
    n = per_dim + l
    pts = []

    def rec(prefix, remaining):
        if len(prefix) == l:
            pts.append(prefix)
            return
        for i in range(1, remaining):
            rec(prefix + [i], remaining - i)

    rec([], n)
    return np.array(pts, float).reshape(-1, l) / n


def unit_directions_3d():
    """The 26 unit directions of the 3 x 3 x 3 stencil, one norm each."""
    dirs = []
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            for sz in (-1, 0, 1):
                if sx == sy == sz == 0:
                    continue
                u = np.array([sx, sy, sz], float)
                dirs.append(u / np.linalg.norm(u))
    return dirs
