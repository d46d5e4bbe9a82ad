"""The constructive perturbation pipeline.

For one simplex of dimension l < m the stages are:

1. clearance search: find c such that the fiber region
   {(t, v) : |v| <= c * rho_l(t)} around the embedded simplex stays inside
   the image of the open star of the simplex barycenter in the barycentric
   subdivision (sampled containment, halving search, half the passing
   value kept as margin);
2. regular-value sampling: draw shift vectors v with |v| < eps^2 until the
   deformed embedding t -> chart(t, warp(t) v) is certified transverse to
   the target map by the verifier's own rules;
3. local diffeomorphism: the fiber map
   (t, v) -> (t, v + beta(|v| / (eps rho_l(t))) * warp(t) * v_shift),
   identity outside the fiber region, with its analytic Jacobian and a
   Newton fiber inverse;
4. ambient extension: conjugate by the affine chart frame, record the
   support box, and append to the chain.

Levels run l = 0 .. m-1 in order (open top-dimensional embeddings are
automatically transverse).  Within a level every simplex is built against
the state at the start of the level; supports of same-level links live in
disjoint stars, so the links commute and the append order (ascending
simplex id) is a determinism convention, not a mathematical need.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import bump
from .charts import AmbientDiffeo, StarLocator, TriangulationState, make_chart
from .config import PipelineConfig
from .errors import (DegenerateGeometryError, EpsilonTooLargeError, MeshError,
                     NewtonDivergenceError, PerturbationError, SamplingFailureError)
from .rows import row_norms
from .simplicial import Simplex, _TopIndex, barycentric_subdivision, simplex_sort_key, star
from .verify import (Patch, interior_lattice, patch_roots, transversality_margin,
                     verify_triangulation)

log = logging.getLogger(__name__)

__all__ = [
    "LocalPerturbation",
    "LocalDiffeo",
    "PipelineConfig",
    "subdivision_data",
    "estimate_c_sigma",
    "containment_ok",
    "sample_regular_value",
    "build_local_diffeo",
    "extend_to_ambient",
    "perturb_level",
    "make_transverse",
]


@dataclass(frozen=True, eq=False)
class LocalPerturbation:
    """Per-simplex perturbation data.

    The shift field is s(t) = warp(t) * v with |v| < epsilon^2; since
    warp(t) < rho_l(t) on the open simplex, |s(t)| < epsilon^2 rho_l(t)
    holds automatically.
    """

    simplex: Simplex
    chart: object
    c_sigma: float
    epsilon: float
    v: np.ndarray
    retries_used: int = 0
    shrinks_used: int = 0

    def __post_init__(self):
        if not (self.epsilon > 0.0 and self.c_sigma > 0.0):
            raise ValueError("epsilon and c_sigma must be positive")
        if self.epsilon > self.c_sigma:
            raise ValueError("epsilon must not exceed c_sigma")
        if self.epsilon >= 1.0 / bump.c_beta():
            raise ValueError("epsilon must stay below 1/c_beta")
        if np.linalg.norm(self.v) >= self.epsilon ** 2:
            raise ValueError("|v| must stay below epsilon^2")

    @property
    def l(self):
        return self.chart.l

    def shift(self, t):
        """s(t) = warp(t) * v, the normal displacement of the zero section,
        over the rows of t."""
        return np.multiply.outer(bump.scaled_warp(bump.rho_l(t), 0), self.v)

    def shift_jacobian(self, t):
        """d s / d t, (m-l) x l per row of t, zero at and beyond the boundary."""
        w2 = np.asarray(bump.scaled_warp(bump.rho_l(t), 2))[..., None, None]
        J = self.v[:, None] * bump.rho_l_grad(t)[..., None, :] * w2
        return np.where(w2 == 0.0, 0.0, J)


class LocalDiffeo:
    """Fiber-preserving local diffeomorphism in chart coordinates.

    eval and jacobian take rows of t (N, l) and v (N, m-l); a 1-D pair is
    the N = 1 case.  A row on the identity branch (t outside the open
    simplex, |v| at or beyond the fade radius, or a shift that underflowed
    to zero) is left exactly as it is, and eval returns the input v object
    when no row moves, which lets callers keep exact identity behavior
    outside the support.
    """

    def __init__(self, pert):
        self.pert = pert
        self.eps = pert.epsilon
        self.v_shift = pert.v
        self.l = pert.l
        self.m = pert.l + pert.v.size

    def moves(self, t, v, with_jacobian=False):
        """Rows that move, their new fibers and, on request, the Jacobian at
        every row, from one bump evaluation; t is (N, l) and v is (N, m-l)."""
        n, l = len(v), self.l
        J = np.tile(np.eye(self.m), (n, 1, 1)) if with_jacobian else None
        moved = np.zeros(n, bool)
        rho = bump.rho_l(t)
        fade = self.eps * rho
        vn = row_norms(v)
        rows = np.nonzero((fade > 0.0) & (vn < fade))[0]
        if not rows.size:
            return moved, v[:0], J
        rho, vn = rho[rows], vn[rows]
        r = vn / fade[rows]
        b = bump.beta(r)
        s = bump.scaled_warp(rho, 0)[:, None] * self.v_shift
        nz = s.any(axis=1)
        moved[rows[nz]] = True
        v2 = v[rows[nz]] + b[nz, None] * s[nz]
        if with_jacobian:
            w1 = bump.scaled_warp(rho, 1)
            w2 = bump.scaled_warp(rho, 2)
            bp = bump.beta_deriv(r)
            if l:
                grad_rho = bump.rho_l_grad(t[rows])
                J[rows, l:, :l] = (self.v_shift[:, None] * grad_rho[:, None, :]
                                   * (b * w2 - bp * r * w1)[:, None, None])
            J[rows, l:, l:] = self._fiber_block(v[rows], vn, bp, w1)
        return moved, v2, J

    def _reshaped(self, t, v):
        v = np.asarray(v, float).reshape(-1, self.m - self.l)
        return np.asarray(t, float).reshape(len(v), self.l), v

    def eval(self, t, v):
        T, V = self._reshaped(t, v)
        moved, v2, _ = self.moves(T, V)
        if not moved.any():
            return t, v
        V = V.copy()
        V[moved] = v2
        return t, V.reshape(np.shape(v))

    def jacobian(self, t, v):
        J = self.moves(*self._reshaped(t, v), with_jacobian=True)[2]
        return J.reshape(np.shape(v)[:-1] + (self.m, self.m))

    def _fiber_block(self, v, vn, bp, w1):
        """d/dv of v + beta(|v| / (eps rho)) s(t) in the fiber, per row."""
        J = np.tile(np.eye(self.m - self.l), (len(v), 1, 1))
        sel = (vn > 0.0) & (bp != 0.0)
        coef = (bp * w1 / self.eps)[sel]
        J[sel] += coef[:, None, None] * (self.v_shift[:, None]
                                         * (v[sel] / vn[sel, None])[:, None, :])
        return J

    def inverse_moves(self, t, w):
        """Rows of w that the inverse moves and their preimage fibers, for
        t (N, l) and w (N, m-l).

        Newton on v + beta(|v| / (eps rho)) s = w over every such row at
        once; the other rows are their own preimages, because the forward
        map fixes the fiber outside the fade radius and maps the inside
        onto itself.  The |J - I| < 1/2 guard makes the iteration a
        contraction, so a row that fails to converge raises.
        """
        rho = bump.rho_l(t)
        fade = self.eps * rho
        rows = np.nonzero((fade > 0.0) & (row_norms(w) < fade))[0]
        if rows.size:
            s = bump.scaled_warp(rho[rows], 0)[:, None] * self.v_shift
            nz = s.any(axis=1)
            rows, s = rows[nz], s[nz]
        if not rows.size:
            return rows, w[:0]
        fade, w, w1 = fade[rows], w[rows], bump.scaled_warp(rho[rows], 1)
        v = w.copy()
        live = np.arange(rows.size)
        for _ in range(50):
            vl = v[live]
            vn = row_norms(vl)
            r = vn / fade[live]
            g = vl + bump.beta(r)[:, None] * s[live] - w[live]
            go = ~(row_norms(g) < 1e-12)
            if not go.any():
                return rows, v
            live, vl, vn, r, g = live[go], vl[go], vn[go], r[go], g[go]
            Jg = self._fiber_block(vl, vn, bump.beta_deriv(r), w1[live])
            v[live] = vl - np.linalg.solve(Jg, g[..., None])[..., 0]
        raise NewtonDivergenceError("fiber Newton did not converge")


# ---------------------------------------------------------------------------
# clearance (containment) search


@dataclass(frozen=True, eq=False)
class SubdivisionData:
    """Barycentric subdivision of the base complex plus location indexes."""

    cplx: object
    realization: object
    barycenter_ids: dict
    tops: tuple
    index: object

    def carrier(self, p, tol=1e-10):
        """Carrier simplex of each row of p, None outside the complex (one
        simplex or None for a 1-D p)."""
        p = np.asarray(p, float)
        carriers = self.index.carriers(p.reshape(-1, p.shape[-1]), tol)
        return carriers if p.ndim > 1 else carriers[0]


def subdivision_data(state):
    """Barycentric subdivision of the base complex, with barycenter ids."""
    sd_cplx, sd_real, bids = barycentric_subdivision(state.complex, state.realization)
    tops = tuple(sorted(sd_cplx.top_simplices(), key=simplex_sort_key))
    return SubdivisionData(sd_cplx, sd_real, bids, tops, _TopIndex(sd_real, tops))


def _unit_directions(k):
    if k == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if k == 2:
        angles = np.arange(8) * (np.pi / 4.0)
        return [np.array([np.cos(a), np.sin(a)]) for a in angles]
    dirs = []
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            for sz in (-1, 0, 1):
                if sx == sy == sz == 0:
                    continue
                u = np.array([sx, sy, sz], float)
                dirs.append(u / np.linalg.norm(u))
    return dirs


def _containment_lattice(l, config):
    per_dim = max(2, config.containment_density // max(1, 2 ** (l - 1))) if l else 0
    return interior_lattice(l, per_dim)


def _star_locator(state, s, sd_data, config):
    s_bary_vertex = Simplex((sd_data.barycenter_ids[s],))
    star_set = star(sd_data.cplx, s_bary_vertex)
    return StarLocator(star_set, sd_data.realization, config.barycentric_tol)


def containment_ok(state, chart, locator, lattice, dirs, c, sd_data=None):
    """Sampled test of {(t, v): |v| <= c rho_l(t)} against the open star.

    Points at fiber radii c*rho and c*rho/2 in every direction must pull
    back into the star, or miss the complex entirely: near the mesh
    boundary the fiber region pokes into free ambient space, where the
    extended diffeomorphism owes nothing to the complex.  Both tests use
    the locator's barycentric tolerance.  All samples are mapped forward,
    pulled back and located at once.

    The verdict is that of a scan in sample order that stops at the first
    bad sample: when the pull-back of some sample fails to converge, the
    samples are pulled back one at a time, so a bad sample earlier in the
    scan still fails the test and only a failure before every bad sample
    raises NewtonDivergenceError.
    """
    rho = bump.rho_l(lattice)
    live = rho > 0.0
    if not live.any():
        return True
    dirs = np.asarray(dirs, float)
    rad = (c * rho[live])[:, None] * np.array([1.0, 0.5])
    vs = (rad[:, :, None, None] * dirs).reshape(-1, dirs.shape[1])
    ts = np.repeat(lattice[live], 2 * len(dirs), axis=0)
    xs = chart.forward(ts, vs)
    try:
        base = state.eval_eta_inverse(xs)
    except NewtonDivergenceError:
        return all(_pulled_back_ok(locator, state.eval_eta_inverse(x[None]), sd_data)
                   for x in xs)
    return _pulled_back_ok(locator, base, sd_data)


def _pulled_back_ok(locator, base, sd_data):
    """Whether every row of base lies in the locator's open star or, given
    sd_data, outside the realized complex."""
    outside = ~locator.contains_base_point(base)
    if not outside.any():
        return True
    if sd_data is None:
        return False
    return all(s is None for s in sd_data.carrier(base[outside], locator.tol))


def estimate_c_sigma(state, s, config=None, sd_data=None, chart=None):
    """Fiber clearance coefficient for one simplex.

    Halving search from the star diameter down to the configured floor;
    returns half the largest passing candidate as a safety margin.
    Raises DegenerateGeometryError when nothing passes and MeshError for a
    top-dimensional simplex (no normal directions, callers skip those).
    """
    config = config or PipelineConfig()
    chart = chart or make_chart(state, s)
    sd_data = sd_data or subdivision_data(state)
    locator = _star_locator(state, s, sd_data, config)
    lattice = _containment_lattice(s.dim, config)
    dirs = _unit_directions(state.ambient_dim - s.dim)
    span = locator.index.hi.max(axis=0) - locator.index.lo.min(axis=0)
    c = float(np.linalg.norm(span))
    while c > config.c_min:
        if containment_ok(state, chart, locator, lattice, dirs, c, sd_data):
            return c / 2.0
        c *= 0.5
    raise DegenerateGeometryError(
        f"no fiber clearance above {config.c_min} for simplex {s.vertices}")


# ---------------------------------------------------------------------------
# regular-value sampling


def _deformed_patch(chart, pert):
    """The deformed embedding t -> chart(t, s(t)) as a verifier patch."""
    l = chart.l

    def ev(t):
        return chart.forward(t, pert.shift(t))

    def ej(t):
        x, J = chart.forward_with_jacobian(t, pert.shift(t))
        return x, J[..., :l] + J[..., l:] @ pert.shift_jacobian(t)

    return Patch(l=l, eval=ev, eval_jac=ej)


def _candidate_transverse(state, chart, pert, h, config):
    """Verifier verdict for one candidate shift vector."""
    n = h.domain.dim
    m = state.ambient_dim
    l = chart.l
    patch = _deformed_patch(chart, pert)
    roots, min_resid = patch_roots(h, patch, config, state.mesh_scale)
    if n + l < m:
        return min_resid > config.vertex_clearance
    roots = [(y, t) for y, t, resid in roots if resid < config.solve_tol]
    if not roots:
        return True
    _, df = patch.eval_jac(np.array([t for _, t in roots]))
    return all(transversality_margin(h.jacobian_raw(y), d) >= config.tol_rank
               for (y, _), d in zip(roots, df))


def _draw_shift(rng, dim, eps):
    """Uniform vector in the open ball of radius eps^2, cube rejection."""
    while True:
        v = rng.uniform(-eps ** 2, eps ** 2, size=dim)
        r = float(np.linalg.norm(v))
        if 0.0 < r < eps ** 2:
            return v


def _sample_shift(state, s, h, eps, config, rng, chart, c_sigma=None):
    c_val = c_sigma if c_sigma is not None else eps
    last = None
    for tries in range(config.max_retries):
        v = _draw_shift(rng, state.ambient_dim - s.dim, eps)
        pert = LocalPerturbation(s, chart, max(c_val, eps), eps, v)
        last = pert
        if _candidate_transverse(state, chart, pert, h, config):
            return v, tries
    raise SamplingFailureError(
        f"{config.max_retries} candidates rejected for simplex {s.vertices}; "
        "the deformation scale cannot clear the verifier thresholds "
        "(tolerances too strict for this geometry)",
        simplex=s,
        diagnostics={"epsilon": eps, "last_v": None if last is None else tuple(last.v)},
    )


def sample_regular_value(state, s, h, eps, config=None, rng=None):
    """Shift vector v with |v| < eps^2 whose deformed embedding is
    certified transverse to h; deterministic given the rng."""
    config = config or PipelineConfig()
    rng = rng or np.random.default_rng(config.seed)
    chart = make_chart(state, s)
    v, _ = _sample_shift(state, s, h, eps, config, rng, chart)
    return v


# ---------------------------------------------------------------------------
# local diffeomorphism and ambient extension


def build_local_diffeo(pert, check_samples=24):
    """Local diffeomorphism for a perturbation, with a norm guard.

    Samples |J - I| over the support; at or above 1/2 the Newton fiber
    inverse would lose its contraction margin, so the caller must shrink
    epsilon and resample (EpsilonTooLargeError).
    """
    psi = LocalDiffeo(pert)
    ts = _containment_lattice(pert.l, PipelineConfig(containment_density=4))
    dirs = _unit_directions(pert.v.size)
    rows_t, rows_v = [], []
    for t, rho in zip(ts, bump.rho_l(ts)):
        if rho <= 0.0:
            continue
        for frac in (0.0, 0.4, 0.8):
            for u in dirs:
                rows_t.append(t)
                rows_v.append(frac * pert.epsilon * rho * u)
    # the first check_samples samples decide
    J = psi.jacobian(np.array(rows_t[:check_samples]), np.array(rows_v[:check_samples]))
    worst = float(np.linalg.norm(J - np.eye(psi.m), 2, axis=(1, 2)).max(initial=0.0))
    if worst >= 0.5:
        raise EpsilonTooLargeError(
            f"sampled |J - I| = {worst:.3f} >= 1/2 for epsilon {pert.epsilon}")
    return psi


def extend_to_ambient(state, psi, chart, level=None, meta=None):
    """Extend a local diffeomorphism by the identity to the ambient space.

    The support box is the affine image of the parameter simplex times the
    maximal fiber radius; outside it the link is the identity exactly.
    """
    pert = psi.pert
    l, m = chart.l, chart.m
    if l:
        bary = np.full(l, 1.0 / (l + 1))
        rho_max = bump.rho_l(bary)
        t_corners = [np.zeros(l)] + [np.eye(l)[i] for i in range(l)]
    else:
        rho_max = 1.0
        t_corners = [np.zeros(0)]
    rad = pert.epsilon * rho_max
    pts = []
    for t in t_corners:
        for signs in np.ndindex(*(2,) * (m - l)):
            v = rad * (2.0 * np.array(signs, float) - 1.0)
            pts.append(chart.frame_point(t, v))
    pts = np.array(pts)
    return AmbientDiffeo(
        simplex=chart.simplex,
        level=level if level is not None else l,
        chart=chart,
        local=psi,
        support_lo=pts.min(axis=0),
        support_hi=pts.max(axis=0),
        meta=dict(meta or {}, c_sigma=pert.c_sigma, epsilon=pert.epsilon,
                  v=tuple(float(x) for x in pert.v), retries=pert.retries_used,
                  shrinks=pert.shrinks_used),
    )


# ---------------------------------------------------------------------------
# per-level pipeline


def _build_simplex_link(state, s, h, config, rng, sd_data, level):
    chart = make_chart(state, s)
    c_sigma = estimate_c_sigma(state, s, config, sd_data=sd_data, chart=chart)
    eps = min(c_sigma, 0.5 / bump.c_beta(), config.epsilon_max,
              config.mesh_scale_factor * state.mesh_scale)
    for shrink in range(config.max_eps_shrinks + 1):
        v, tries = _sample_shift(state, s, h, eps, config, rng, chart, c_sigma=c_sigma)
        pert = LocalPerturbation(s, chart, c_sigma, eps, v,
                                 retries_used=tries, shrinks_used=shrink)
        try:
            psi = build_local_diffeo(pert)
        except EpsilonTooLargeError:
            eps *= 0.5
            continue
        log.info("level=%d simplex=%s c_sigma=%.6g epsilon=%.6g |v|=%.6g retries=%d shrinks=%d",
                 level, s.vertices, c_sigma, eps, float(np.linalg.norm(v)), tries, shrink)
        return extend_to_ambient(state, psi, chart, level=level)
    raise EpsilonTooLargeError(
        f"epsilon still too large after {config.max_eps_shrinks} shrinks"
        f" for simplex {s.vertices}")


def perturb_level(state, level, h, config=None, sd_data=None):
    """Perturb every simplex of one dimension into transverse position.

    Each simplex is built against the state at the start of the level
    (supports of same-level links are disjoint, so they commute); links
    are then appended in ascending simplex order for determinism.  Any
    per-simplex failure aborts the level, naming the simplex.
    """
    config = config or PipelineConfig()
    m = state.ambient_dim
    if not 0 <= level < m:
        raise PerturbationError(f"level {level} out of range 0..{m - 1}", level=level)
    simplices = state.complex.by_dim(level)
    if not simplices:
        return state
    if sd_data is None:
        sd_data = subdivision_data(state)
    links = []
    for idx, s in enumerate(simplices):
        rng = np.random.default_rng([config.seed, level, idx])
        try:
            links.append(_build_simplex_link(state, s, h, config, rng, sd_data, level))
        except (DegenerateGeometryError, SamplingFailureError,
                EpsilonTooLargeError, NewtonDivergenceError) as exc:
            raise PerturbationError(
                f"level {level} aborted at simplex {s.vertices}: {exc}",
                simplex=s, level=level) from exc
    new_state = state
    for link in links:
        new_state = new_state.with_link(link)
    return new_state


def _image_clearly_disjoint(state, h, config):
    """Dense-sample test that the map image stays away from the mesh box."""
    if h.domain.kind == "point":
        ys = h.sample_domain(1)
    elif h.domain.kind == "interval":
        lo, hi = h.domain.lo[0], h.domain.hi[0]
        n = max(16, int(round(4 * config.curve_density * (hi - lo))))
        ys = h.sample_domain(n)
    else:
        ys = h.sample_domain(4 * config.surface_density)
    pts = h.eval_batch(ys)
    gap = 0.0
    if len(pts) > 1:
        gap = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).max())
    lo, hi = state.bbox()
    excess = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    dist = np.linalg.norm(excess, axis=1)
    return bool(dist.min() > gap + 1e-9)


def make_transverse(cplx, realization, h, config=None):
    """Run the full pipeline: levels 0 .. m-1, then verify everything.

    Returns (state, report).  When the map image provably misses the mesh
    no diffeomorphism is appended and the report is vacuously transverse.
    Construction failures raise PerturbationError; a merely failing final
    report is returned for the caller to inspect.
    """
    config = config or PipelineConfig()
    state = TriangulationState(cplx, realization)
    if h.ambient_dim != state.ambient_dim:
        raise MeshError("map codomain dimension does not match the mesh")
    if _image_clearly_disjoint(state, h, config):
        log.info("map image disjoint from the mesh; nothing to perturb")
        return state, verify_triangulation(state, h, config)
    sd_data = subdivision_data(state)
    for level in range(state.ambient_dim):
        state = perturb_level(state, level, h, config, sd_data)
    report = verify_triangulation(state, h, config)
    return state, report
