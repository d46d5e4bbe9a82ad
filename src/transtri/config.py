"""Pipeline and verifier knobs, one frozen dataclass.

Every tolerance lives here so scenario files and CLI flags can override
them in one place.  Numerical verdicts are relative to these thresholds.
"""

from dataclasses import dataclass, replace

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    # perturbation stage
    max_retries: int = 64              # regular-value candidates per simplex
    containment_density: int = 12      # per-dim lattice steps of the clearance search
    c_min: float = 1e-8                # clearance floor before declaring degenerate geometry
    mesh_scale_factor: float = 0.1     # extra epsilon cap, fraction of the shortest edge
    # verification stage
    tol_rank: float = 1e-6             # smallest normalized singular value accepted as spanning
    curve_density: int = 64            # seeds per curve parameter unit
    surface_density: int = 16          # seeds per surface axis
    simplex_seed_density: int = 8      # per-dim seeds on a simplex (halved per extra dim)
    solve_tol: float = 1e-10           # residual below which a root counts as an intersection
    vertex_clearance: float = 1e-7     # separation demanded when dimensions cannot span
    dedupe_radius: float = 1e-6        # parameter-space clustering radius
    barycentric_tol: float = 1e-10     # interior/boundary split for located points; the
                                       # clearance search locates none and does not read it
    gn_max_iter: int = 60              # Gauss-Newton iterations per seed pair

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        positive = [
            "containment_density", "c_min", "mesh_scale_factor",
            "tol_rank", "curve_density", "surface_density", "simplex_seed_density",
            "solve_tol", "vertex_clearance", "dedupe_radius", "barycentric_tol",
            "gn_max_iter",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def replace(self, **kw):
        return replace(self, **kw)
