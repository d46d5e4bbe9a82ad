import numpy as np
import pytest

from oracles import locate_in_simplex
from transtri import simplicial as sc
from transtri.charts import TriangulationState
from transtri.config import PipelineConfig
from transtri.smoothmap import CircleMap


@pytest.fixture
def two_triangle():
    """Unit square split along the diagonal, built by hand."""
    cplx = sc.build_complex(4, [(0, 2, 3), (0, 1, 3)])
    coords = {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 0.0), 3: (1.0, 1.0)}
    real = sc.GeometricRealization({k: np.array(v) for k, v in coords.items()}, cplx)
    return cplx, real


@pytest.fixture(scope="session")
def grid_a():
    """Scenario A mesh: [-2,2]^2 at resolution 4."""
    return sc.grid_triangulation((-2, -2), (2, 2), 4)


@pytest.fixture(scope="session")
def scenario_a_run(grid_a):
    """One full pipeline run of scenario A, shared by acceptance tests."""
    import time

    from transtri.perturb import make_transverse

    cplx, real = grid_a
    h = CircleMap((0.0, 0.0), 1.0)
    cfg = PipelineConfig(seed=1)
    t0 = time.monotonic()
    state, report = make_transverse(cplx, real, h, cfg)
    elapsed = time.monotonic() - t0
    return {"cplx": cplx, "real": real, "h": h, "config": cfg,
            "state": state, "report": report, "elapsed": elapsed}


@pytest.fixture
def base_state(two_triangle):
    cplx, real = two_triangle
    return TriangulationState(cplx, real)


@pytest.fixture(scope="session")
def small_pipeline():
    """Perturbed two-triangle mesh against a small interior circle."""
    from transtri.perturb import make_transverse

    cplx, real = sc.grid_triangulation((0, 0), (1, 1), 1)
    h = CircleMap((0.2, 0.2), 0.3)
    cfg = PipelineConfig(seed=3)
    state, report = make_transverse(cplx, real, h, cfg)
    return {"cplx": cplx, "real": real, "h": h, "config": cfg,
            "state": state, "report": report}


def brute_force_locate(cplx, real, x, tol=1e-10):
    """Oracle: scan every simplex for the one whose open interior holds x."""
    for s in sorted(cplx.simplices, key=sc.simplex_sort_key):
        hit = locate_in_simplex(real, s, x, tol)
        if hit is None:
            continue
        lam, _ = hit
        if np.all(lam > tol):
            return s
    return None
