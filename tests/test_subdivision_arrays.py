"""The set-up layer's array builds against the object builds they replaced
(tests/oracles.py), bit for bit: the barycentric subdivision (barycentres,
ids, top order), its location index and star tables, each level's charts
with the memory order of every matrix, the links' support boxes, the
maximal simplices, the shortest edge, the grid mesh and the clearance
search's sample sets.  Meshes: the six shipped scenarios, grids of
resolution 2-4 in R^2 and R^3, and complexes with tops of several
dimensions.
"""

from pathlib import Path

import numpy as np
import pytest

import oracles
from transtri import cli
from transtri import simplicial as sc
from transtri.charts import TriangulationState, _stack, make_charts
from transtri.config import PipelineConfig
from transtri.errors import MeshError
from transtri.perturb import (LocalDiffeo, _unit_directions, extend_to_ambient, make_transverse,
                              subdivision_data)
from transtri.smoothmap import CircleMap
from transtri.verify import interior_lattice

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ["scenario_a", "scenario_b", "scenario_b_degenerate", "scenario_c",
             "scenario_disjoint", "scenario_tangent"]
GRIDS = [f"grid{m}d_{n}" for m in (2, 3) for n in (2, 3, 4)]


def _mixed(m):
    """Tops of several dimensions: a triangle with an edge and a vertex of
    its own in R^2, a tetrahedron with a triangle and an edge in R^3."""
    if m == 2:
        coords = {0: (0.0, 0.0), 1: (1.0, 0.2), 2: (0.3, 1.1), 3: (2.0, 1.5), 5: (-1.0, 3.0)}
        tops = [(0, 1, 2), (1, 3), (5,)]
    else:
        coords = {0: (0.0, 0.0, 0.0), 1: (1.0, 0.0, 0.1), 2: (0.0, 1.0, 0.0),
                  3: (0.3, 0.3, 0.5), 4: (1.0, 1.0, 0.5), 6: (2.0, -1.0, 0.3)}
        tops = [(0, 1, 2, 3), (1, 2, 4), (4, 6)]
    cplx = sc.build_complex(7, tops)
    return cplx, sc.GeometricRealization({k: np.array(v) for k, v in coords.items()}, cplx)


def _mesh(name):
    if name in SCENARIOS:
        return cli._build_inputs(cli.load_scenario(str(ROOT / "scenarios" / f"{name}.cfg")))[:2]
    if name.startswith("mixed"):
        return _mixed(int(name[-2]))
    m, n = int(name[4]), int(name[-1])
    return sc.grid_triangulation((-1.3, -0.7, -2.1)[:m], (1.9, 1.1, 0.4)[:m], n)


MESHES = SCENARIOS + GRIDS + ["mixed2d", "mixed3d"]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", MESHES)
def test_subdivision_equals_the_object_build(name):
    cplx, real = _mesh(name)
    sd = subdivision_data(TriangulationState(cplx, real))
    o_cplx, o_real, o_ids, o_tops = oracles.barycentric_subdivision(cplx, real)
    # barycentres, ids and top order
    assert sd.barycenter_ids == o_ids
    assert list(o_ids.values()) == list(range(len(o_ids)))
    assert same_bits(sd.points, np.array([o_real.point(v) for v in o_real.vertex_ids]))
    assert sd.tops == o_tops
    assert sd.cplx.simplices == o_cplx.simplices
    assert same_bits(sd.realization.points(np.arange(len(sd.points))), sd.points)
    for l in range(cplx.dim + 1):
        simplices = cplx.by_dim(l)
        assert sd.barycenters(simplices).tolist() == [o_ids[s] for s in simplices]
    # the location index and the star tables
    for field, want in oracles.top_index(o_real, o_tops).items():
        assert same_bits(getattr(sd.index, field), want), field
    star, ids = oracles.star_tables(o_tops)
    assert same_bits(sd.index.star, star) and same_bits(sd.index.ids, ids)
    # the complex's own arrays
    assert cplx.top_simplices() == oracles.top_simplices(cplx)
    got, want = real.min_edge_length(cplx), oracles.min_edge_length(real, cplx)
    assert same_bits(got, want) and type(got) is type(want)


def _layout(x):
    return x.strides, x.flags.c_contiguous, x.flags.f_contiguous


@pytest.mark.parametrize("name", MESHES)
def test_charts_and_support_boxes_equal_the_object_build(name):
    cplx, real = _mesh(name)
    state = TriangulationState(cplx, real)
    rng = np.random.default_rng(5)
    for l in range(state.ambient_dim):
        simplices = cplx.by_dim(l)
        if not simplices:
            continue
        charts = make_charts(state, simplices)
        want = [oracles.make_chart(state, s) for s in simplices]
        assert [ch.simplex for ch in charts] == list(simplices)
        for a in ("base", "tangent", "normal", "_M", "_Minv"):
            for got, ref in zip(charts, want):
                x, y = getattr(got, a), getattr(ref, a)
                assert same_bits(x, y) and _layout(x) == _layout(y), (a, got.simplex)
            x, y = (_stack([getattr(ch, a) for ch in chs]) for chs in (charts, want))
            assert same_bits(x, y) and _layout(x) == _layout(y), a
        eps = 0.01 * state.mesh_scale
        psis = [LocalDiffeo(ch, eps, eps, rng.uniform(-0.5, 0.5, state.ambient_dim - l) * eps ** 2)
                for ch in charts]
        for got, psi in zip(extend_to_ambient(psis), psis):
            ref = oracles.extend_to_ambient(psi)
            assert got.local is psi
            assert same_bits(got.support_lo, ref.support_lo)
            assert same_bits(got.support_hi, ref.support_hi)


@pytest.mark.parametrize("m", [2, 3])
def test_grid_and_sample_sets_equal_the_loop_builds(m):
    lo, hi = (-1.3, -0.7, -2.1)[:m], (1.9, 1.1, 0.4)[:m]
    for n in (1, 2, 3, 4):
        cplx, real = sc.grid_triangulation(lo, hi, n)
        o_cplx, o_real = oracles.grid_triangulation(lo, hi, n)
        assert cplx.simplices == o_cplx.simplices
        assert real.vertex_ids == o_real.vertex_ids
        assert all(same_bits(real.point(v), o_real.point(v)) for v in real.vertex_ids)
    for l in range(4):
        for per_dim in range(9):
            assert same_bits(interior_lattice(l, per_dim), oracles.interior_lattice(l, per_dim))
    assert same_bits(np.array(_unit_directions(3)), np.array(oracles.unit_directions_3d()))


def test_duplicate_tops_are_all_reported():
    with pytest.raises(MeshError) as got:
        sc.build_complex(6, [(3, 4, 5), (0, 1, 2), (2, 1, 0), (5, 4, 3), (0, 1, 2)])
    assert str(got.value) == "duplicate top simplices: [(0, 1, 2), (3, 4, 5)]"


def test_lookups_of_absent_simplices_raise():
    cplx, real = _mixed(2)
    state = TriangulationState(cplx, real)
    sd = subdivision_data(state)
    absent = [sc.Simplex((0, 1)), sc.Simplex((0, 3))]
    with pytest.raises(MeshError, match=r"simplex \(0, 3\) not in complex"):
        sd.barycenters(absent)
    with pytest.raises(MeshError, match=r"simplex \(0, 3\) not in complex"):
        make_charts(state, absent)
    with pytest.raises(MeshError, match="no normal directions"):
        make_charts(state, [sc.Simplex((0, 1, 2))])


# near-degenerate meshes: the base check passes, a subdivision top fails
NEAR_DEGENERATE = {
    "triangle": ({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 1.5e-12)}, [(0, 1, 2)], (0, 3, 6)),
    "second_triangle": ({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (-1.0, 2.0 + 1.2e-11)},
                        [(0, 1, 2), (1, 2, 3)], (3, 7, 10)),
    "tetrahedron": ({0: (0.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0),
                     3: (0.3, 0.3, 3e-12), 4: (1.0, 1.0, 0.5)},
                    [(0, 1, 2, 3), (1, 2, 4)], (0, 5, 13, 18)),
}


@pytest.mark.parametrize("case", sorted(NEAR_DEGENERATE))
def test_near_degenerate_subdivision_raises(case):
    coords, tops, bad = NEAR_DEGENERATE[case]
    cplx = sc.build_complex(len(coords), tops)
    real = sc.GeometricRealization({k: np.array(v) for k, v in coords.items()}, cplx)
    oracles.validate(real, cplx)  # the base passes
    message = f"degenerate simplex {bad}: vertices affinely dependent"
    with pytest.raises(MeshError) as want:
        oracles.barycentric_subdivision(cplx, real)
    assert str(want.value) == message
    for build in (subdivision_data, lambda s: sc.barycentric_subdivision(s.complex, s.realization)):
        with pytest.raises(MeshError) as got:
            build(TriangulationState(cplx, real))
        assert str(got.value) == message


def test_degenerate_base_raises_as_the_object_check():
    # the second of three triangles is collinear; an edge of the last is short
    coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (2.0, 0.0), 4: (2.0, 1e-13)}
    cplx = sc.build_complex(5, [(0, 1, 2), (0, 1, 3), (1, 3, 4)])
    real = sc.GeometricRealization({k: np.array(v) for k, v in coords.items()})
    with pytest.raises(MeshError) as want:
        oracles.validate(real, cplx)
    with pytest.raises(MeshError) as got:
        sc.GeometricRealization({k: np.array(v) for k, v in coords.items()}, cplx)
    assert str(got.value) == str(want.value) == (
        "degenerate simplex (0, 1, 3): vertices affinely dependent")


def test_mesh_scale_is_computed_once_per_complex(monkeypatch, grid_a):
    calls = []
    edge = sc.GeometricRealization.min_edge_length

    def spy(self, cplx):
        calls.append(cplx)
        return edge(self, cplx)

    monkeypatch.setattr(sc.GeometricRealization, "min_edge_length", spy)
    cplx, real = grid_a
    state, _ = make_transverse(cplx, real, CircleMap((0.0, 0.0), 1.0), PipelineConfig(seed=1))
    assert calls == [cplx]
    assert state.mesh_scale == oracles.min_edge_length(real, cplx) == 1.0
