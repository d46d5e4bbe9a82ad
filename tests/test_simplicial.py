"""Complex construction, subdivision, stars, point location, grids.

Counting oracles are hand enumerations; point location is checked against
a brute-force scan over every simplex."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_locate
from oracles import locate_in_simplex
from transtri import simplicial as sc
from transtri.errors import MeshError

RNG = np.random.default_rng(7)


class TestBuildComplex:
    def test_single_triangle_closure(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        assert cplx.counts() == {0: 3, 1: 3, 2: 1}

    def test_single_edge(self):
        cplx = sc.build_complex(2, [(0, 1)])
        assert cplx.counts() == {0: 2, 1: 1}

    def test_two_triangles_sharing_an_edge(self):
        # faces by hand: vertices {0,1,2,3}, edges 01 02 12 13 23, triangles 012 123
        cplx = sc.build_complex(4, [(0, 1, 2), (1, 2, 3)])
        assert cplx.counts() == {0: 4, 1: 5, 2: 2}
        assert sc.Simplex((1, 2)) in cplx

    def test_duplicate_rejected_with_report(self):
        with pytest.raises(MeshError, match=r"duplicate.*\(0, 1, 2\)"):
            sc.build_complex(3, [(0, 1, 2), (2, 1, 0)])

    def test_out_of_range_vertex(self):
        with pytest.raises(MeshError, match="out of range"):
            sc.build_complex(3, [(0, 1, 3)])

    def test_repeated_vertex_inside_simplex(self):
        with pytest.raises(MeshError, match="repeated"):
            sc.build_complex(3, [(0, 1, 1)])
        with pytest.raises(MeshError, match="strictly increasing"):
            sc.Simplex((2, 1))

    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
                   min_size=1, max_size=6))
    def test_face_closure_property(self, tops):
        tops = [t for t in tops if len(set(t)) == 3]
        if not tops:
            return
        tops = [np.array(sorted(set(t)), dtype=np.int64) for t in {tuple(sorted(t)) for t in tops}]
        cplx = sc.build_complex(8, tops)
        for s in cplx.simplices:
            for f in s.faces():
                assert f in cplx.simplices
        # faces skip the checks of a Simplex, yet equal the checked ones
        for t in tops:
            faces = list(sc.Simplex(tuple(t)).faces())
            want = [sc.Simplex(c) for k in range(1, 4) for c in itertools.combinations(t, k)]
            assert faces == want and list(map(hash, faces)) == list(map(hash, want))
            order = range(len(faces))
            assert sorted(order, key=faces.__getitem__) == sorted(order, key=want.__getitem__)
            assert all(type(v) is int for f in faces for v in f.vertices)


class TestSkeleton:
    def test_vertices_only(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        sk = sc.skeleton(cplx, 0)
        assert sk.counts() == {0: 3}

    def test_boundary(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        sk = sc.skeleton(cplx, 1)
        assert sk.counts() == {0: 3, 1: 3}

    def test_full_dimension_is_identity(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        assert sc.skeleton(cplx, 2).simplices == cplx.simplices

    def test_out_of_range(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        with pytest.raises(MeshError):
            sc.skeleton(cplx, 3)


class TestStar:
    def test_top_simplex_star_is_itself(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        assert sc.star(cplx, sc.Simplex((0, 1, 2))) == frozenset({sc.Simplex((0, 1, 2))})

    def test_vertex_star_in_triangle(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        got = sc.star(cplx, sc.Simplex((0,)))
        expect = {sc.Simplex(v) for v in [(0,), (0, 1), (0, 2), (0, 1, 2)]}
        assert got == frozenset(expect)

    def test_missing_simplex(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        with pytest.raises(MeshError):
            sc.star(cplx, sc.Simplex((0, 3)))

    def test_barycenter_stars_disjoint_in_subdivision(self, two_triangle):
        # same-dimension barycenters have disjoint open stars
        cplx, real = two_triangle
        sd, sd_real, ids = sc.barycentric_subdivision(cplx, real)
        by_dim = {}
        for s, vid in ids.items():
            by_dim.setdefault(s.dim, []).append(vid)
        for dim, vids in by_dim.items():
            stars = [sc.star(sd, sc.Simplex((v,))) for v in vids]
            for i in range(len(stars)):
                for j in range(i + 1, len(stars)):
                    assert not (stars[i] & stars[j])


class TestBarycenter:
    def test_edge_midpoint(self, two_triangle):
        cplx, real = two_triangle
        assert np.allclose(sc.barycenter(sc.Simplex((0, 2)), real), [0.5, 0.0])

    def test_triangle_centroid(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        real = sc.GeometricRealization(
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}, cplx)
        assert np.allclose(sc.barycenter(sc.Simplex((0, 1, 2)), real), [1 / 3, 1 / 3])

    def test_vertex_is_itself(self, two_triangle):
        cplx, real = two_triangle
        assert np.allclose(sc.barycenter(sc.Simplex((3,)), real), [1.0, 1.0])


class TestSubdivision:
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_top_count_is_factorial(self, l):
        # (l+1)! complete flags per l-simplex
        cplx = sc.build_complex(l + 1, [tuple(range(l + 1))])
        pts = np.vstack([np.zeros(max(l, 1)), np.eye(max(l, 1))[:l]]) if l else np.zeros((1, 1))
        real = sc.GeometricRealization({i: pts[i] for i in range(l + 1)}, cplx)
        sd, _, _ = sc.barycentric_subdivision(cplx, real)
        tops = [s for s in sd.top_simplices()]
        assert len(tops) == math.factorial(l + 1)
        assert all(s.dim == l for s in tops)

    def test_single_2_simplex_counts(self, monkeypatch):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        real = sc.GeometricRealization(
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}, cplx)
        sd, sd_real, ids = sc.barycentric_subdivision(cplx, real)
        assert len(sd.by_dim(0)) == 7
        assert len(sd.by_dim(2)) == 6
        assert len(ids) == 7
        # faces and flags skip the checks of a Simplex; checking them gives
        # the same subdivision, here and on the grids of scenarios A and B
        grids = [(cplx, real), sc.grid_triangulation((-2, -2), (2, 2), 4),
                 sc.grid_triangulation((-1, -1, -1), (1, 1, 1), 2)]
        got = [sc.barycentric_subdivision(*grid) for grid in grids]
        monkeypatch.setattr(sc.Simplex, "_trusted", classmethod(lambda cls, vs: cls(vs)))
        for (sd, _, ids), grid in zip(got, grids):
            sd_checked, _, ids_checked = sc.barycentric_subdivision(*grid)
            assert sd.simplices == sd_checked.simplices and ids == ids_checked
            assert sd.top_simplices() == sd_checked.top_simplices()

    def test_single_edge_counts(self):
        cplx = sc.build_complex(2, [(0, 1)])
        real = sc.GeometricRealization({0: np.array([0.0]), 1: np.array([2.0])}, cplx)
        sd, sd_real, ids = sc.barycentric_subdivision(cplx, real)
        assert len(sd.by_dim(0)) == 3
        assert len(sd.by_dim(1)) == 2

    def test_single_vertex_unchanged(self):
        cplx = sc.build_complex(1, [(0,)])
        real = sc.GeometricRealization({0: np.array([0.3, 0.4])}, cplx)
        sd, sd_real, ids = sc.barycentric_subdivision(cplx, real)
        assert sd.counts() == {0: 1}
        assert np.allclose(sd_real.point(ids[sc.Simplex((0,))]), [0.3, 0.4])

    def test_geometric_images_coincide(self, two_triangle):
        # random points of |K| locate in |sd K| and vice versa, tol 1e-12
        cplx, real = two_triangle
        sd, sd_real, _ = sc.barycentric_subdivision(cplx, real)
        tris = cplx.by_dim(2)
        sd_tris = sd.by_dim(2)
        for _ in range(200):
            s = tris[RNG.integers(len(tris))]
            lam = RNG.dirichlet(np.ones(3))
            x = lam @ real.simplex_points(s)
            assert sc.point_locate(sd, sd_real, x, tol=1e-12) is not None
            s2 = sd_tris[RNG.integers(len(sd_tris))]
            lam2 = RNG.dirichlet(np.ones(3))
            x2 = lam2 @ sd_real.simplex_points(s2)
            assert sc.point_locate(cplx, real, x2, tol=1e-12) is not None


class TestClosestDistances:
    """Distances to the faces of a star in R^4, where a facet of the link is
    a tetrahedron: not a point, segment or triangle."""

    TET = np.vstack([np.zeros(4), np.eye(4)[:3]])
    X = np.array([0.1, 0.1, 0.1, 0.5])  # 0.5 above an interior point of TET

    def test_tetrahedron_in_r4_raises(self):
        # its first triangle alone is sqrt(0.26) = 0.5099 away, not 0.5
        assert sc._closest_distances(self.X, self.TET[:3]) == pytest.approx(math.sqrt(0.26))
        with pytest.raises(MeshError, match="4 vertices"):
            sc._closest_distances(self.X, self.TET)

    def test_star_distances_in_r4_raise(self):
        cplx = sc.build_complex(5, [(0, 1, 2, 3, 4)])
        real = sc.GeometricRealization(dict(enumerate(np.vstack([np.zeros(4), np.eye(4)]))), cplx)
        sd = sc.SubdivisionData(cplx, real)
        with pytest.raises(MeshError, match="4 vertices"):
            sd.star_distances(sd.barycenters([sc.Simplex((0,))]), self.X[None, None],
                              np.ones((1, 1)))


class TestPointLocate:
    def test_triangle_barycenter(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        real = sc.GeometricRealization(
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}, cplx)
        loc = sc.point_locate(cplx, real, np.array([1 / 3, 1 / 3]))
        assert loc.simplex == sc.Simplex((0, 1, 2))
        assert np.allclose(loc.coords, [1 / 3, 1 / 3, 1 / 3])

    def test_point_beside_large_simplex_found(self):
        # x is 5e-9 left of the edge (0, 2), a coordinate of -5e-11 > -tol:
        # on the closed triangle up to tol, yet outside its box padded by
        # 10 tol, so a box pad must grow with the simplex
        cplx = sc.build_complex(3, [(0, 1, 2)])
        real = sc.GeometricRealization(
            {0: np.array([0.0, 0.0]), 1: np.array([100.0, 0.0]), 2: np.array([0.0, 100.0])},
            cplx)
        loc = sc.point_locate(cplx, real, np.array([-5e-9, 50.0]))
        assert loc is not None and loc.simplex == sc.Simplex((0, 2))

    def test_index_keeps_a_point_beside_a_large_top(self):
        # (50, -5e-9) has a coordinate of -5e-11 > -tol on the triangle and
        # lies on its edge (0, 1); a fixed 10 tol pad put it outside the box
        cplx = sc.build_complex(3, [(0, 1, 2)])
        real = sc.GeometricRealization(
            {0: np.array([0.0, 0.0]), 1: np.array([100.0, 0.0]), 2: np.array([0.0, 100.0])},
            cplx)
        x = np.array([50.0, -5e-9])
        assert sc.point_locate(cplx, real, x).simplex == sc.Simplex((0, 1))
        index = sc._TopIndex.of(real, [sc.Simplex((0, 1, 2))])
        assert index.carriers(x[None], 1e-10) == [sc.Simplex((0, 1))]

    @pytest.mark.parametrize("m", [2, 3])
    def test_box_pruning_keeps_every_accepted_top(self, m):
        # tops of every dimension far from the origin, and points near the
        # edge of the acceptance test: a coordinate of -0.9 tol and, off a
        # lower-dimensional top, 0.5 tol scale away from its affine hull
        tol = 1e-10
        tops, coords = [], {}
        for k in range(2, m + 2):
            for _ in range(3):
                ids = tuple(range(len(coords), len(coords) + k))
                base = RNG.uniform(-300.0, 300.0, size=m)
                for v in ids:
                    coords[v] = base + RNG.uniform(0.0, 200.0, size=m)
                tops.append(ids)
        cplx = sc.build_complex(len(coords), tops)
        real = sc.GeometricRealization(coords, cplx)
        order = sorted(cplx.top_simplices(), key=sc.simplex_sort_key)
        index = sc._TopIndex.of(real, order)
        xs = []
        for s in order:
            pts = real.simplex_points(s)
            scale = max(1.0, float(np.abs(pts).max()))
            for _ in range(20):
                lam = RNG.dirichlet(np.ones(len(pts)))
                i = RNG.integers(len(pts))
                lam[i] = 0.0
                lam *= (1.0 + 0.9 * tol) / lam.sum()
                lam[i] = -0.9 * tol
                off = RNG.normal(size=m)
                edges = (pts[1:] - pts[0]).T
                if edges.shape[1] < m:  # the part normal to the affine hull
                    off -= edges @ np.linalg.lstsq(edges, off, rcond=None)[0]
                    off *= 0.5 * tol * scale / np.linalg.norm(off)
                else:
                    off[:] = 0.0
                xs.append(lam @ pts + off)
        xs = np.array(xs)
        rows, top, _, _ = index.first_hits(xs, tol)
        want = [next((j for j, s in enumerate(order)
                      if locate_in_simplex(real, s, x, tol) is not None), None) for x in xs]
        got = [None] * len(xs)
        for i, j in zip(rows.tolist(), top.tolist()):
            got[i] = j
        assert got == want
        # many accepted points lie past a fixed 10 tol box pad
        past = [np.maximum(index.lo[j] - x, x - index.hi[j]).max() > 10.0 * tol
                for x, j in zip(xs, want) if j is not None]
        assert len(past) > len(xs) / 2 and sum(past) > len(past) / 4

    def test_far_point_is_none(self, two_triangle):
        cplx, real = two_triangle
        assert sc.point_locate(cplx, real, np.array([10.0, 10.0])) is None

    def test_carrier_of_shared_edge_point(self, two_triangle):
        cplx, real = two_triangle
        loc = sc.point_locate(cplx, real, np.array([0.5, 0.5]))
        assert loc.simplex == sc.Simplex((0, 3))

    def test_carrier_mask_rows_equal_carrier_face(self):
        # rows with every coordinate at or below tol keep their largest alone
        s = sc.Simplex((2, 5, 7, 9))
        tol = 1e-10
        lam = RNG.dirichlet(np.ones(4), size=200)
        lam[::3, RNG.integers(4)] = 0.5 * tol
        lam[1::7] = RNG.uniform(-tol, tol, size=lam[1::7].shape)
        lam[2] = [0.0, tol, tol, 0.0]
        mask = sc.carrier_mask(lam, tol)
        for row, keep in zip(lam, mask):
            face = sc.carrier_face(s, row, tol)[0]
            assert face.vertices == tuple(np.array(s.vertices)[keep].tolist())

    def test_matches_brute_force_on_random_points(self, grid_a):
        cplx, real = grid_a
        hits = 0
        for _ in range(1000):
            x = RNG.uniform(-2.3, 2.3, size=2)
            loc = sc.point_locate(cplx, real, x)
            oracle = brute_force_locate(cplx, real, x)
            if loc is None:
                assert oracle is None
            else:
                hits += 1
                assert loc.simplex == oracle
        assert hits > 500


class TestGrid:
    def test_unit_square_resolution_one(self):
        cplx, real = sc.grid_triangulation((0, 0), (1, 1), 1)
        assert cplx.counts() == {0: 4, 1: 5, 2: 2}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_counting_formula(self, n):
        cplx, real = sc.grid_triangulation((0, 0), (1, 1), n)
        assert len(cplx.by_dim(2)) == 2 * n * n
        assert len(cplx.by_dim(0)) == (n + 1) ** 2

    def test_unit_cube_resolution_one_kuhn(self):
        cplx, real = sc.grid_triangulation((0, 0, 0), (1, 1, 1), 1)
        assert len(cplx.by_dim(3)) == 6
        assert len(cplx.by_dim(0)) == 8
        # every tetrahedron contains the main diagonal
        diag = sc.Simplex((0, 7))
        for tet in cplx.by_dim(3):
            assert set(diag.vertices) <= set(tet.vertices)

    def test_unsupported_dimension(self):
        with pytest.raises(MeshError):
            sc.grid_triangulation((0,), (1,), 2)
        with pytest.raises(MeshError):
            sc.grid_triangulation((0, 0, 0, 0), (1, 1, 1, 1), 1)

    def test_bad_resolution(self):
        with pytest.raises(MeshError):
            sc.grid_triangulation((0, 0), (1, 1), 0)

    def test_interiors_disjoint_sampled(self):
        # distinct top simplices never claim the same strictly-interior point
        cplx, real = sc.grid_triangulation((0, 0), (1, 1), 2)
        tris = cplx.by_dim(2)
        for _ in range(200):
            s = tris[RNG.integers(len(tris))]
            lam = RNG.dirichlet(np.ones(3)) * 0.94 + 0.02
            lam /= lam.sum()
            x = lam @ real.simplex_points(s)
            owners = [t for t in tris
                      if (h := locate_in_simplex(real, t, x)) is not None
                      and np.all(h[0] > 1e-9)]
            assert owners == [s]

    @given(st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_euler_characteristic_of_disk(self, n):
        cplx, _ = sc.grid_triangulation((0, 0), (1, 1), n)
        c = cplx.counts()
        assert c[0] - c[1] + c[2] == 1


class TestMeshIO:
    def test_round_trip(self, tmp_path, two_triangle):
        cplx, real = two_triangle
        path = tmp_path / "mesh.txt"
        sc.write_mesh(path, cplx, real)
        cplx2, real2 = sc.read_mesh(path)
        assert cplx2.counts() == cplx.counts()
        for v in real.vertex_ids:
            assert np.allclose(real2.point(v), real.point(v))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.0 0.0\n")
        with pytest.raises(MeshError, match="malformed"):
            sc.read_mesh(path)

    def test_simplex_row_with_too_few_ids(self, tmp_path):
        # "3 0 1" would otherwise be read as the edge (0, 1)
        path = tmp_path / "short_row.txt"
        path.write_text("3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n3 0 1\n")
        with pytest.raises(MeshError, match=r"line 5: simplex row 0 declares 3 vertex ids, has 2"):
            sc.read_mesh(path)

    def test_fewer_simplex_rows_than_declared(self, tmp_path):
        path = tmp_path / "missing_row.txt"
        path.write_text("4 2\n0.0 0.0\n1.0 0.0\n0.0 1.0\n1.0 1.0\n3 0 1 2\n")
        with pytest.raises(MeshError, match=r"line 1: the header declares 2 simplex rows, "
                                            r"the file has 1"):
            sc.read_mesh(path)


class TestRealizationValidation:
    def test_degenerate_simplex_rejected(self):
        cplx = sc.build_complex(3, [(0, 1, 2)])
        coords = {0: np.zeros(2), 1: np.array([1.0, 0.0]), 2: np.array([2.0, 0.0])}
        with pytest.raises(MeshError, match="degenerate"):
            sc.GeometricRealization(coords, cplx)

    def test_missing_coordinates(self):
        cplx = sc.build_complex(2, [(0, 1)])
        with pytest.raises(MeshError, match="without coordinates"):
            sc.GeometricRealization({0: np.zeros(2)}, cplx)
