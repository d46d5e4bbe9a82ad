"""The constructive perturbation pipeline.

For one simplex of dimension l < m the stages are:

1. clearance search: find c such that the fiber region
   {(t, v) : |v| <= c * rho_l(t)} around the simplex stays inside the
   open star of the simplex barycenter in the barycentric subdivision, or
   off the complex (c rho_l(t) below the exact distance from each lattice
   point to the complex minus the open star, halving search, half the
   passing value kept as margin).  The chain telescopes so that every
   link acts in base coordinates (see charts), so the region is tested
   there and c depends on base geometry alone;
2. regular-value sampling: draw shift vectors v with |v| < eps^2 until the
   deformed embedding t -> eta(chart(t, warp(t) v)) is certified transverse to
   the target map: each candidate, built as a link (stages 3 and 4), joins
   the chain as a trial link, and the verifier judges the simplex of that
   trial state exactly as the final report will;
3. local diffeomorphism: the fiber map
   (t, v) -> (t, v + beta(|v| / (eps rho_l(t))) * warp(t) * v_shift),
   identity outside the fiber region, with its analytic Jacobian and a
   Newton fiber inverse; LocalDiffeo's invariants bound |J - I| below
   1/2 in closed form, so nothing is sampled to check it;
4. ambient extension: conjugate by the affine chart frame, record the
   support box, and append to the chain.

Levels run l = 0 .. m-1 in order (open top-dimensional embeddings are
automatically transverse).  Within a level every simplex is built against
the state at the start of the level; supports of same-level links live in
disjoint stars, so the links commute and the append order (ascending
simplex id) is a determinism convention, not a mathematical need.  Stages
1 and 2 run over the whole level at once.  The clearance search takes
the level's distances once, and each round compares every simplex still
searching, each at its own c, with them.  Each sampling round draws one
candidate per unresolved simplex, from that simplex's own rng, builds
the round's local diffeomorphisms in one build_local_diffeo call and
certifies the round with one verifier search on one trial state; the
level appends the accepted trial links.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import bump
from .charts import AmbientDiffeo, TriangulationState, _stack, make_charts
from .config import PipelineConfig
from .errors import DegenerateGeometryError, MeshError, PerturbationError, SamplingFailureError
from .rows import matvec, row_norms
from .simplicial import SubdivisionData
from .verify import (find_intersections, interior_lattice, lattice_per_dim, simplex_passes,
                     verify_triangulation)

log = logging.getLogger(__name__)

__all__ = [
    "LocalDiffeo",
    "PipelineConfig",
    "subdivision_data",
    "estimate_c_sigma",
    "containment_ok",
    "extend_to_ambient",
    "perturb_level",
    "make_transverse",
]


@dataclass(frozen=True, eq=False)
class LocalDiffeo:
    """Fiber-preserving local diffeomorphism of one simplex, in the (t, w)
    coordinates of its chart: (t, w) -> (t, w + beta(|w| / (epsilon
    rho_l(t))) s(t)), with the shift field s(t) = warp(t) * v and
    |v| < epsilon^2, so |s(t)| < epsilon^2 rho_l(t) as warp < rho_l.
    c_sigma is the simplex's fiber clearance and retries_used counts the
    candidates rejected before this one.  shrinks_used is always 0 (no
    link needs its epsilon halved); chain_metadata.txt prints it.

    The invariants checked at construction make it a diffeomorphism.  With
    w1 = exp(-1/rho_l) / rho_l <= exp(-1), the fiber block of J - I is rank
    one, of norm |beta'(r)| w1 |v| / epsilon < c_beta epsilon w1 < exp(-1),
    and for l >= 1 the t block adds less than 1e-20 (rho_l <= exp(-4)).
    So |J - I| < 1/2, and tests/test_batched.py checks sampled Jacobians of
    drawn links against that closed-form bound.

    The map itself is charts.fiber_moves (inverse fiber_preimages) with
    epsilon and v on every row: a row on the identity branch (t outside
    the open simplex, a fiber point at or beyond the fade radius, or a
    shift that underflowed to zero) is left exactly as it is.
    """

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

    @property
    def m(self):
        return self.chart.m

    def shift(self, t):
        """s(t) = warp(t) * v, the normal displacement of the zero section,
        over the rows of t."""
        return np.asarray(bump.scaled_warp(bump.rho_l(t), 0))[..., None] * self.v


# ---------------------------------------------------------------------------
# clearance (containment) search


def subdivision_data(state):
    """Barycentric subdivision of the base complex, as SubdivisionData."""
    return SubdivisionData(state.complex, state.realization)


# fiber samples per group of a containment round: a few hundred kB of
# temporaries, so a level-wide round peaks no higher than one simplex did
_GROUP_SAMPLES = 1024


def _unit_directions(k):
    if k == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if k == 2:
        angles = np.arange(8) * (np.pi / 4.0)
        return [np.array([np.cos(a), np.sin(a)]) for a in angles]
    u = np.array([d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)], float)
    return list(u / row_norms(u)[:, None])


def containment_ok(charts, locator, lattice, dirs, cs, sd_data):
    """Sampled test of {(t, v): |v| <= c rho_l(t)} against the open star,
    for the simplices of charts, one dimension, each at its own c of cs:
    one verdict per simplex, as a list of bools.

    Points at fiber radii c*rho and c*rho/2 in every direction must lie in
    the star of the simplex's barycenter, or miss the complex entirely:
    near the mesh boundary the fiber region pokes into free ambient space,
    where the extended diffeomorphism owes nothing to the complex.  Both
    tests use the locator's barycentric tolerance.  Samples are located
    where the chart puts them: every link acts in base coordinates (see
    charts).  The simplices go in groups of about _GROUP_SAMPLES samples,
    which bounds the memory of a round.  A group forms its samples from
    stacked chart matrices, each row with the bits of its chart's
    frame_point, locates each against its own star, and locates against
    the whole complex only those no star top holds, of simplices not
    failed yet; that location only asks whether some top holds a sample,
    so it reads the rows of first_hits and builds no carrier simplex.

    The pipeline does not call it: estimate_c_sigma compares each
    candidate with exact distances.  The sampled search of
    tests/oracles.py runs on it.
    """
    rho = bump.rho_l(lattice)
    live = rho > 0.0
    if not live.any():
        return [True] * len(charts)
    dirs = np.asarray(dirs, float)
    cs = np.asarray(cs, float)
    ts = np.repeat(lattice[live], 2 * len(dirs), axis=0)  # the same for every simplex
    step = max(1, _GROUP_SAMPLES // len(ts))
    verdicts = []
    for i in range(0, len(charts), step):
        group = charts[i:i + step]
        rad = (cs[i:i + step, None] * rho[live])[:, :, None] * np.array([1.0, 0.5])
        vs = (rad[..., None, None] * dirs).reshape(-1, dirs.shape[1])
        owner = np.repeat(np.arange(len(group)), len(ts))
        b, A, N = (_stack([getattr(ch, a) for ch in group]) for a in ("base", "tangent", "normal"))
        base = b[owner] + matvec(A[owner], np.tile(ts, (len(group), 1))) + matvec(N[owner], vs)
        vertex = sd_data.barycenters([ch.simplex for ch in group])
        inside, held = locator.contains_base_point(base, vertex[owner])
        ok = np.ones(len(group), bool)
        ok[owner[held & ~inside]] = False  # on the complex, outside the star
        lost = np.nonzero(~held & ok[owner])[0]
        if lost.size:
            on = sd_data.index.first_hits(base[lost], locator.tol)[0]
            ok[owner[lost[on]]] = False
        verdicts += ok.tolist()
    return verdicts


def estimate_c_sigma(state, simplices, config=None, sd_data=None, charts=None):
    """Fiber clearance coefficients of simplices of one dimension.

    A candidate c clears a simplex when c rho_l(t) < d(t) at every point
    t of its lattice (rho_l(t) > 0), where d(t) is the distance from the
    lattice point's image x(t) to |K| minus the open star of the
    simplex's barycenter (SubdivisionData.star_distances): then the whole
    fiber ball of radius c rho_l(t) lies in the open star or off the
    complex.  Each simplex runs a halving search from its star's diameter
    down to the configured floor and keeps half its largest passing
    candidate as a safety margin; every round tests all simplices still
    searching at once, against distances computed once.  Returns one
    float per simplex, as a list.  The lowest-index simplex where nothing
    passes raises DegenerateGeometryError, whose clearances hold the
    values of the simplices before it; the simplices after it stop
    searching.  A top-dimensional simplex raises MeshError (no normal
    directions, callers skip those).
    """
    config = config or PipelineConfig()
    charts = charts or make_charts(state, simplices)
    sd_data = sd_data or subdivision_data(state)
    l = simplices[0].dim
    lattice = interior_lattice(l, lattice_per_dim(config.containment_density, l))
    rho = bump.rho_l(lattice)
    lattice, rho = lattice[rho > 0.0], rho[rho > 0.0]
    index = sd_data.index
    vertex = sd_data.barycenters(simplices)
    star = index.stars(vertex)
    real = (star >= 0)[..., None]  # not padding
    cs = row_norms(np.where(real, index.hi[star], -np.inf).max(axis=1)
                   - np.where(real, index.lo[star], np.inf).min(axis=1))
    b, A = (_stack([getattr(ch, a) for ch in charts]) for a in ("base", "tangent"))
    # no candidate exceeds the first, so d matters only up to its c rho
    d = sd_data.star_distances(vertex, b[:, None] + matvec(A[:, None], lattice), cs[:, None] * rho)
    found = [None] * len(simplices)
    live = np.arange(len(simplices))
    while True:
        over = cs[live] > config.c_min
        # the lowest simplex at the floor fails: the simplices after it stop
        live = live[over & (live < live[~over].min(initial=len(cs)))]
        if not live.size:
            break
        ok = (cs[live, None] * rho < d[live]).all(axis=1)
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


# ---------------------------------------------------------------------------
# regular-value sampling


def _candidate_transverse(state, links, h, config):
    """Verifier verdicts for candidate links of simplices of one dimension,
    as a list of bools: the links join state as trial links, and each
    simplex is judged on that trial state by find_intersections and
    simplex_passes, as the final report will judge it.  Supports of
    same-level links are disjoint, so one trial state holds them all; it
    keeps the search, which the final verify takes when the trial state
    becomes the last level's state."""
    simplices = [lk.simplex for lk in links]
    found = find_intersections(state.with_links(links), simplices, h, config)
    n, l, m = h.domain.dim, simplices[0].dim, state.ambient_dim
    return [simplex_passes(n, l, m, records, min_resid, config) for records, min_resid in found]


def _draw_shift(rng, dim, eps):
    """Uniform vector in the open ball of radius eps^2, cube rejection."""
    while True:
        v = rng.uniform(-eps ** 2, eps ** 2, size=dim)
        r = float(np.linalg.norm(v))
        if 0.0 < r < eps ** 2:
            return v


@dataclass(eq=False)
class _Draw:
    """Shift sampling state of one simplex: its chart, scales and rng, the
    rejections so far, and the outcome (the accepted trial link, or the
    error that ends the simplex).  Its epsilon is final, as every link's
    |J - I| is below 1/2 (see LocalDiffeo), so shrinks_used stays 0."""

    chart: object
    rng: object
    c_sigma: float = None
    eps: float = None
    tries: int = 0
    link: object = None
    error: Exception = None


def build_local_diffeo(draws):
    """The local diffeomorphisms of one sampling round, one per draw: each
    takes its shift from the draw's own rng at the draw's epsilon, and
    counts the draw's rejections so far.  No Jacobian is sampled:
    LocalDiffeo's invariants bound |J - I| below 1/2."""
    return [LocalDiffeo(d.chart, d.c_sigma, d.eps, _draw_shift(d.rng, d.chart.m - d.chart.l, d.eps),
                        retries_used=d.tries) for d in draws]


def _sample_shift(state, draws, h, config):
    """Draw certified shift vectors for simplices of one dimension.

    Runs in rounds: each round draws one candidate per unresolved simplex
    from that simplex's own rng (build_local_diffeo), extends it to a link
    and judges the whole round with one _candidate_transverse call, so
    every simplex sees the candidates and verdicts that drawing for it
    alone would give.  An
    accepted link goes to draw.link (the retries_used of its local
    diffeomorphism counts the rejections before it);
    max_retries rejections leave a SamplingFailureError in draw.error.
    Simplices after a failed one stop drawing: a level reports its
    lowest failing simplex, so their outcome no longer matters.
    """
    live = list(draws)
    while live:
        links = extend_to_ambient(build_local_diffeo(live))
        verdicts = _candidate_transverse(state, links, h, config)
        still = []
        for d, link, ok in zip(live, links, verdicts):
            if ok:
                d.link = link
                continue
            d.tries += 1
            if d.tries == config.max_retries:
                s = d.chart.simplex
                d.error = SamplingFailureError(
                    f"{config.max_retries} candidates rejected for simplex {s.vertices}; "
                    "the deformation scale cannot clear the verifier thresholds "
                    "(tolerances too strict for this geometry)",
                    simplex=s,
                    diagnostics={"epsilon": d.eps, "last_v": tuple(link.local.v)},
                )
                break
            still.append(d)
        live = still


# ---------------------------------------------------------------------------
# ambient extension


def extend_to_ambient(psis):
    """Extend local diffeomorphisms of one dimension by the identity to the
    ambient space: a list of links, one per psi.  A support box is the
    affine image of the parameter simplex times the maximal fiber radius
    (outside it the link is the identity exactly), its corners from one
    stacked frame_point with the bits of each chart's own."""
    l, m = psis[0].l, psis[0].m
    rho_max = bump.rho_l(np.full(l, 1.0 / (l + 1))) if l else 1.0
    rad = np.array([psi.epsilon for psi in psis]) * rho_max
    corners = 2.0 * np.array(list(np.ndindex(*(2,) * (m - l))), float) - 1.0
    t = np.repeat(np.vstack([np.zeros(l), np.eye(l)]), len(corners), axis=0)
    v = rad[:, None, None] * np.tile(corners, (l + 1, 1))
    b, A, N = (_stack([getattr(psi.chart, a) for psi in psis]) for a in ("base", "tangent", "normal"))
    pts = b[:, None] + matvec(A[:, None], t) + matvec(N[:, None], v)
    return [AmbientDiffeo(local=psi, support_lo=lo, support_hi=hi)
            for psi, lo, hi in zip(psis, pts.min(axis=1), pts.max(axis=1))]


# ---------------------------------------------------------------------------
# per-level pipeline


def perturb_level(state, level, h, config=None, sd_data=None):
    """Perturb every simplex of one dimension into transverse position.

    Each simplex is built against the state at the start of the level
    (supports of same-level links are disjoint, so they commute); links
    are then appended in ascending simplex order for determinism.  The
    clearance search runs over the whole level at once (estimate_c_sigma),
    and so does shift sampling, each simplex drawing from its own rng (see
    _sample_shift), in one pass: no accepted link needs its epsilon
    shrunk (see LocalDiffeo).  Any per-simplex failure aborts the level,
    naming the lowest-index failing simplex.  The returned state is the
    last round's trial state, with its search, when that round held every
    link of the level.
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
    charts = make_charts(state, simplices)
    try:
        c_sigmas, error = estimate_c_sigma(state, simplices, config, sd_data, charts), None
    except DegenerateGeometryError as exc:
        c_sigmas, error = exc.clearances, exc  # the simplices after this one no longer matter
    draws = [_Draw(chart, np.random.default_rng([config.seed, level, idx]), c_sigma=c,
                   eps=min(c, 0.5 / bump.c_beta(), config.epsilon_max,
                           config.mesh_scale_factor * state.mesh_scale))
             for idx, (chart, c) in enumerate(zip(charts, c_sigmas))]
    if error is not None:
        draws.append(_Draw(charts[len(draws)], None, error=error))
    _sample_shift(state, [d for d in draws if d.error is None], h, config)
    failed = next((d for d in draws if d.error is not None), None)
    if failed is not None:
        s = failed.chart.simplex
        raise PerturbationError(f"level {level} aborted at simplex {s.vertices}: {failed.error}",
                                simplex=s, level=level) from failed.error
    if log.isEnabledFor(logging.INFO):  # the norms are taken for the log alone
        for d in draws:
            psi = d.link.local
            log.info("level=%d simplex=%s c_sigma=%.6g epsilon=%.6g |v|=%.6g retries=%d",
                     level, d.chart.simplex.vertices, d.c_sigma, d.eps, float(np.linalg.norm(psi.v)),
                     psi.retries_used)
    return state.with_links([d.link for d in draws])


def _image_clearly_disjoint(state, h, config):
    """Dense-sample test that the map image stays away from the mesh box."""
    if h.domain.kind == "interval":
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

    Returns (state, report).  When a sampled test finds that the map image
    misses the mesh, no diffeomorphism is appended and the final verify
    runs on the unperturbed mesh.
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
