"""Verifier: rank condition, intersection finding against dense-scan
oracles, report rules, Jacobian and decay diagnostics."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from transtri import cli
from transtri import simplicial as sc
from transtri.charts import TriangulationState
from transtri.config import PipelineConfig
from transtri.smoothmap import CircleMap, LineMap, PointMap
from transtri.verify import (boundary_crossing_counts, boundary_decay_check,
                             fd_jacobian_check, find_intersections,
                             transversality_margin, verify_triangulation)

RNG = np.random.default_rng(41)
CFG = PipelineConfig(seed=5)


class TestRankCondition:
    def test_orthogonal_columns_pass(self):
        assert transversality_margin(np.array([[0.0], [1.0]]),
                                     np.array([[1.0], [0.0]])) >= 1e-6

    def test_collinear_columns_fail(self):
        assert not transversality_margin(np.array([[1.0], [0.0]]),
                                         np.array([[1.0], [0.0]])) >= 1e-6

    def test_thirty_degree_margin_matches_svd_oracle(self):
        ang = np.pi / 6
        dh = np.array([[1.0], [0.0]])
        df = np.array([[np.cos(ang)], [np.sin(ang)]])
        margin = transversality_margin(dh, df)
        oracle = np.linalg.svd(np.hstack([dh, df]), compute_uv=False)[-1]
        assert abs(margin - oracle) < 1e-14
        # sqrt(1 - cos 30) = (sqrt(3) - 1) / 2
        assert abs(margin - (np.sqrt(3.0) - 1.0) / 2.0) < 1e-12
        assert margin > 1e-6

    def test_too_few_columns_never_pass(self):
        assert transversality_margin(np.zeros((2, 0)), np.array([[1.0], [0.0]])) == 0.0

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.01, max_value=100.0))
    def test_column_rescale_invariance(self, a, b):
        dh = np.array([[1.0], [0.3]])
        df = np.array([[0.2], [1.0]])
        base = transversality_margin(dh, df)
        scaled = transversality_margin(a * dh, b * df)
        assert abs(base - scaled) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transversality_margin(np.zeros((2, 1)), np.zeros((3, 1)))


def long_edge_state():
    cplx = sc.build_complex(2, [(0, 1)])
    real = sc.GeometricRealization(
        {0: np.array([0.0, -2.0]), 1: np.array([0.0, 2.0])}, cplx)
    return TriangulationState(cplx, real)


class TestFindIntersections:
    def test_disjoint_images_empty(self, base_state):
        h = CircleMap((9.0, 9.0), 0.5)
        recs, _ = find_intersections(base_state, [sc.Simplex((0, 3))], h, CFG)[0]
        assert recs == []

    def test_circle_crosses_long_edge_twice(self):
        # dense-scan oracle: |h(y)| = 1 on the segment x = 0 gives the two
        # points (0, 1) and (0, -1), crossed at right angles
        state = long_edge_state()
        h = CircleMap((0.0, 0.0), 1.0)
        recs, _ = find_intersections(state, [sc.Simplex((0, 1))], h, CFG)[0]
        assert len(recs) == 2
        pts = sorted(r.point[1] for r in recs)
        assert abs(pts[0] + 1.0) < 1e-9 and abs(pts[1] - 1.0) < 1e-9
        assert all(r.classification == "transverse" for r in recs)
        assert all(r.residual < CFG.solve_tol for r in recs)

    def test_duplicate_seeds_yield_single_record(self):
        # doubled seeding density converges many seeds to the same roots
        state = long_edge_state()
        h = CircleMap((0.0, 0.0), 1.0)
        dense = CFG.replace(curve_density=256, simplex_seed_density=32)
        recs, _ = find_intersections(state, [sc.Simplex((0, 1))], h, dense)[0]
        assert len(recs) == 2

    def test_root_on_boundary_attributed_to_vertex(self):
        # the circle crosses the edge's line transversally exactly at the
        # endpoint, so refinement lands on the parameter boundary and the
        # record goes to the vertex
        cplx = sc.build_complex(2, [(0, 1)])
        real = sc.GeometricRealization(
            {0: np.array([1.0, 0.0]), 1: np.array([2.0, 0.0])}, cplx)
        state = TriangulationState(cplx, real)
        h = CircleMap((0.0, 0.0), 1.0)
        recs, _ = find_intersections(state, [sc.Simplex((0, 1))], h, CFG)[0]
        assert any(r.simplex == sc.Simplex((0,)) and r.classification == "skeleton-hit"
                   for r in recs)

    def test_tangential_touch_at_endpoint_reported_tangent(self):
        # vertical edge tangent to the circle at its endpoint: refinement
        # stalls a hair inside the parameter interval (the root is
        # degenerate) and the honest verdict is a tangent record
        cplx = sc.build_complex(2, [(0, 1)])
        real = sc.GeometricRealization(
            {0: np.array([1.0, 0.0]), 1: np.array([1.0, 1.0])}, cplx)
        state = TriangulationState(cplx, real)
        h = CircleMap((0.0, 0.0), 1.0)
        recs, _ = find_intersections(state, [sc.Simplex((0, 1))], h, CFG)[0]
        assert any(r.classification == "tangent" for r in recs)


class TestVerifyTriangulation:
    def test_curve_through_vertex_fails_that_vertex(self, grid_a):
        cplx, real = grid_a
        state = TriangulationState(cplx, real)
        h = CircleMap((0.0, 0.0), 1.0)
        report = verify_triangulation(state, h, CFG)
        assert not report.passed
        hits = {r.simplex for r in report.records if r.classification == "skeleton-hit"}
        hit_points = {tuple(np.round(real.point(s.vertices[0]), 9)) for s in hits}
        assert hit_points == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
        for s in hits:
            assert not report.statuses[s].passed

    def test_all_disjoint_passes(self, base_state):
        report = verify_triangulation(base_state, CircleMap((9.0, 9.0), 0.5), CFG)
        assert report.passed
        assert report.diagnostics["n_records"] == 0

    def test_tangent_line_along_edge_fails_with_tangent_records(self, base_state):
        h = LineMap((0.0, 0.0), (1.0, 1.0), -0.25, 1.25)
        report = verify_triangulation(base_state, h, CFG)
        assert not report.passed
        assert report.diagnostics["n_tangent"] > 0
        diag = report.statuses[sc.Simplex((0, 3))]
        assert not diag.passed

    def test_vertex_distance_reported(self, base_state):
        h = PointMap((0.25, 0.0))  # quarter of the way along the bottom edge
        report = verify_triangulation(base_state, h, CFG)
        st0 = report.statuses[sc.Simplex((0,))]
        assert abs(st0.min_distance - 0.25) < 1e-9

    def test_roots_moved_onto_a_shared_vertex_become_one_record(self, grid_a):
        # the vertex, its six edges and its six triangles each find the
        # image of vertex 12, and attribution moves every root onto the
        # vertex; only the per-carrier dedupe makes them one record
        cplx, real = grid_a
        state = TriangulationState(cplx, real)
        v = sc.Simplex((12,))
        h = PointMap(real.point(12))
        found = [r for l in range(cplx.dim + 1)
                 for records, _ in find_intersections(state, cplx.by_dim(l), h, CFG)
                 for r in records]
        assert len(found) == 13 and all(r.simplex == v for r in found)
        report = verify_triangulation(state, h, CFG)
        assert len(report.status(v).records) == 1
        assert report.diagnostics["n_records"] == 1

    def test_monotone_in_density_failing_stays_failing(self, base_state):
        h = LineMap((0.0, 0.0), (1.0, 1.0), -0.25, 1.25)
        for density in (32, 64, 128):
            cfg = CFG.replace(curve_density=density)
            assert not verify_triangulation(base_state, h, cfg).passed

    def test_parity_even_for_closed_curve(self):
        # circle crossing a coarse grid transversally, no vertex hits
        cplx, real = sc.grid_triangulation((-2, -2), (2, 2), 2)
        state = TriangulationState(cplx, real)
        h = CircleMap((0.0, 0.0), 1.0)
        report = verify_triangulation(state, h, CFG)
        counts = boundary_crossing_counts(cplx, report)
        assert sum(counts.values()) > 0
        assert all(c % 2 == 0 for c in counts.values())


class TestJacobianCheck:
    def test_affine_map_error_tiny(self):
        # zero curvature: differences are exact up to round-off, which a
        # coarse step keeps below 1e-10
        A = RNG.normal(size=(2, 2))
        b = RNG.normal(size=2)
        pts = [RNG.normal(size=2) for _ in range(20)]
        err = fd_jacobian_check(lambda x: A @ x + b, lambda x: A, pts, step=1e-3)
        assert err < 1e-10

    def test_corrupted_jacobian_detected(self):
        A = RNG.normal(size=(2, 2))
        pts = [RNG.normal(size=2) for _ in range(20)]
        err = fd_jacobian_check(lambda x: A @ x, lambda x: A + 0.05, pts)
        assert err > 1e-2


class TestBoundaryDecay:
    def test_representative_edge_perturbation(self, base_state):
        from test_perturb import make_pert

        pert = make_pert(base_state, sc.Simplex((0, 3)), eps=0.05)
        assert oracles.sampled_distortion(pert) < 0.5
        table = boundary_decay_check(pert, max_i=3, max_j=3)
        assert table["passed"]
        for i in range(4):
            for j in range(4):
                first, last, ok = table[(i, j)]
                assert ok

    def test_zero_order_shift_vanishes_at_boundary(self, base_state):
        from test_perturb import make_pert

        pert = make_pert(base_state, sc.Simplex((0, 3)), eps=0.05)
        assert np.linalg.norm(pert.shift(np.array([1e-12]))) == 0.0
        assert np.linalg.norm(pert.shift(np.array([0.5]))) > 0.0

    def test_needs_positive_dimension(self, base_state):
        from test_perturb import make_pert

        pert = make_pert(base_state, sc.Simplex((0,)), eps=0.05)
        with pytest.raises(ValueError):
            boundary_decay_check(pert)


class TestLineExtensionExclusion:
    def test_crossing_beyond_edge_end_is_not_an_intersection(self):
        # the circle crosses the x axis at (1.5, 0) and (2.5, 0), both on
        # the line extension of the edge but outside it: no records, and
        # the reported approach distance is the true segment-to-circle gap
        cplx = sc.build_complex(2, [(0, 1)])
        real = sc.GeometricRealization(
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0])}, cplx)
        state = TriangulationState(cplx, real)
        h = CircleMap((2.0, 0.0), 0.5)
        recs, min_resid = find_intersections(state, [sc.Simplex((0, 1))], h, CFG)[0]
        assert recs == []
        assert min_resid > 0.4


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the lengths of each scenario that a similarity about the origin scales
_LENGTHS = {"scenario_a": ("box_lo", "box_hi", "radius"),
            "scenario_b": ("box_lo", "box_hi", "direction")}


def _scaled_scenario(tmp_path, name, s):
    """A shipped scenario with its mesh and map scaled by s about the
    origin, over the same parameter domain and with the same seeds."""
    lines = []
    for line in (SCENARIOS / f"{name}.cfg").read_text().splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key in _LENGTHS[name]:
            line = f"{key} = " + " ".join(repr(float(v) * s) for v in value.split())
        lines.append(line)
    path = tmp_path / f"{name}_{s!r}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return cli.load_scenario(str(path))


def _verdict(scenario):
    cplx, real, h = cli._build_inputs(scenario)
    report = verify_triangulation(TriangulationState(cplx, real), h, scenario.config)
    d = report.diagnostics
    return report.passed, (d["n_transverse"], d["n_tangent"], d["n_skeleton_hits"])


@pytest.mark.parametrize("name,s", [("scenario_b", 1e-4), ("scenario_b", 1e-2),
                                    ("scenario_a", 1e-2)])
def test_verify_only_verdict_does_not_depend_on_the_mesh_scale(tmp_path, name, s):
    # a Gauss-Newton step capped by an ambient length stalls every seed of
    # B at 1e-4 (a PASS with no records) and shifts A's records at 1e-2
    want = _verdict(_scaled_scenario(tmp_path, name, 1.0))
    assert not want[0] and sum(want[1]) > 0
    assert _verdict(_scaled_scenario(tmp_path, name, s)) == want


# vertex relabellings: each maps the k-th smallest vertex id to the
# perm[k]-th, for a permutation perm of the vertex count
RELABELLINGS = {
    "reversed": lambda count: np.arange(count)[::-1],
    **{f"rng{k}": (lambda count, k=k: np.random.default_rng(k).permutation(count))
       for k in (1, 2, 3)},
}
VERIFY_SCENARIOS = ["scenario_a", "scenario_b", "scenario_b_degenerate", "scenario_c",
                    "scenario_tangent", "scenario_disjoint"]


def _relabelled(cplx, real, perm):
    """The same mesh with vertex ids[k] renamed ids[perm[k]], ids being the
    sorted vertex ids: same simplices and coordinates, other labels."""
    ids = real.vertex_ids
    new = {v: ids[k] for v, k in zip(ids, perm)}
    tops = [[new[v] for v in s.vertices] for s in cplx.top_simplices()]
    relabelled = sc.build_complex(max(ids) + 1, tops)
    return relabelled, sc.GeometricRealization({new[v]: real.point(v) for v in ids}, relabelled)


@pytest.mark.parametrize("relabel", sorted(RELABELLINGS))
@pytest.mark.parametrize("name", VERIFY_SCENARIOS)
def test_verify_only_verdict_does_not_depend_on_the_vertex_labels(name, relabel):
    # the records by class do move with the labels (duplicate roots on
    # neighbouring faces are counted once per carrier face); the verdict
    # must not: only the disjoint scenario passes
    scenario = cli.load_scenario(str(SCENARIOS / f"{name}.cfg"))
    cplx, real, h = cli._build_inputs(scenario)
    cplx, real = _relabelled(cplx, real, RELABELLINGS[relabel](len(real.vertex_ids)))
    report = verify_triangulation(TriangulationState(cplx, real), h, scenario.config)
    assert report.passed == (name == "scenario_disjoint")
