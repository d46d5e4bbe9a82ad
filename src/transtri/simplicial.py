"""Abstract and geometric simplicial complexes.

Construction from top simplices with automatic face closure, skeleta,
stars, barycenters, barycentric subdivision, point location with
barycentric coordinates, grid mesh generators (Freudenthal/Kuhn splits
of squares and cubes), and a small OFF-style text format for mesh
import/export.

All types are immutable after construction and safe for concurrent reads.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product
from operator import attrgetter

import numpy as np

from .errors import MeshError
from .rows import matvec, row_norms

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "GeometricRealization",
    "PointLocation",
    "build_complex",
    "skeleton",
    "star",
    "barycenter",
    "barycentric_subdivision",
    "carrier_face",
    "carrier_mask",
    "point_locate",
    "grid_triangulation",
    "write_mesh",
    "read_mesh",
    "simplex_sort_key",
]


@dataclass(frozen=True, order=True)
class Simplex:
    """A simplex as a strictly increasing tuple of vertex ids."""

    vertices: tuple

    def __post_init__(self):
        vs = tuple(int(v) for v in self.vertices)
        if len(vs) == 0:
            raise MeshError("empty simplex")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise MeshError(f"vertex ids must be strictly increasing, got {vs}")
        object.__setattr__(self, "vertices", vs)

    @property
    def dim(self):
        return len(self.vertices) - 1

    @classmethod
    def _trusted(cls, vertices):
        """A simplex from a strictly increasing tuple of Python ints, taken
        as is: the checks of __post_init__ are skipped."""
        s = object.__new__(cls)
        object.__setattr__(s, "vertices", vertices)
        return s

    def faces(self):
        """All nonempty faces, including the simplex itself."""
        for k in range(1, len(self.vertices) + 1):
            for combo in combinations(self.vertices, k):
                yield Simplex._trusted(combo)


def simplex_sort_key(s):
    return (s.dim, s.vertices)


def _find_rows(table, rows):
    """Position of each row of rows in table, whose rows ascend; -1 where
    absent.  Rows are searched as structured scalars, lexicographically."""
    t, r = (np.ascontiguousarray(a, int).view([("", int)] * a.shape[1]).ravel() for a in (table, rows))
    at = np.minimum(np.searchsorted(t, r), len(t) - 1)
    return np.where((table[at] == rows).all(axis=1), at, -1)


class SimplicialComplex:
    """A finite simplicial complex, closed under taking faces.

    Use :func:`build_complex` to construct one from top simplices; the
    constructor trusts its input to already be face-closed.
    """

    def __init__(self, simplices):
        simplices = frozenset(simplices)
        if not simplices:
            raise MeshError("complex needs at least one simplex")
        self._simplices = simplices
        by_dim = {}
        for s in simplices:
            by_dim.setdefault(s.dim, []).append(s)
        self._by_dim = {d: tuple(sorted(v, key=attrgetter("vertices")))
                        for d, v in by_dim.items()}
        self.dim = max(self._by_dim)
        self.vertex_ids = tuple(sorted(s.vertices[0] for s in self._by_dim.get(0, ())))
        self._ids = {}

    @property
    def simplices(self):
        return self._simplices

    def by_dim(self, l):
        return self._by_dim.get(l, ())

    def ids(self, l):
        """The l-simplices' vertex ids, (N, l + 1), in by_dim order; kept."""
        if l not in self._ids:
            self._ids[l] = np.array([s.vertices for s in self.by_dim(l)], int).reshape(-1, l + 1)
        return self._ids[l]

    def top_ids(self, l):
        """The rows of ids(l) that are no facet of an (l + 1)-simplex: in a
        face-closed complex, the maximal l-simplices."""
        rows, top = self.ids(l), np.ones(len(self.ids(l)), bool)
        facets = self.ids(l + 1)[:, list(combinations(range(l + 2), l + 1))]
        at = _find_rows(rows, facets.reshape(-1, l + 1))
        top[at[at >= 0]] = False
        return rows[top]

    def top_simplices(self):
        """Maximal simplices (those that are faces of nothing bigger), in
        simplex_sort_key order."""
        return tuple(Simplex._trusted(tuple(r)) for l in range(self.dim + 1)
                     for r in self.top_ids(l).tolist())

    def __contains__(self, s):
        return s in self._simplices

    def __len__(self):
        return len(self._simplices)

    def counts(self):
        """Number of simplices per dimension, as a dict."""
        return {d: len(v) for d, v in self._by_dim.items()}


def build_complex(vertex_count, top_simplices):
    """Build a complex from top simplices, generating all faces.

    Raises MeshError for out-of-range vertex ids or duplicate top
    simplices (the report lists every duplicate).
    """
    raw_tops = [tuple(int(v) for v in t) for t in top_simplices]
    for raw in raw_tops:
        if len(set(raw)) != len(raw):
            raise MeshError(f"repeated vertex id inside simplex {raw}")
    tops = [Simplex(tuple(sorted(raw))) for raw in raw_tops]
    dupes = [t.vertices for t, count in Counter(tops).items() if count > 1]
    if dupes:
        raise MeshError(f"duplicate top simplices: {sorted(dupes)}")
    bad = [t.vertices for t in tops if t.vertices[-1] >= vertex_count or t.vertices[0] < 0]
    if bad:
        raise MeshError(f"vertex ids out of range 0..{vertex_count - 1}: {bad}")
    return SimplicialComplex(f for t in tops for f in t.faces())


def skeleton(cplx, l):
    """Subcomplex of all simplices of dimension <= l."""
    if not 0 <= l <= cplx.dim:
        raise MeshError(f"skeleton dimension {l} out of range 0..{cplx.dim}")
    return SimplicialComplex(s for s in cplx.simplices if s.dim <= l)


def star(cplx, s):
    """All simplices having s as a face (the open-star index set).

    A point belongs to the open star exactly when the carrier simplex of
    its location (see :func:`point_locate`) is a member of this set.
    """
    if s not in cplx:
        raise MeshError(f"simplex {s.vertices} not in complex")
    sset = set(s.vertices)
    return frozenset(o for o in cplx.simplices if sset <= set(o.vertices))


class GeometricRealization:
    """Vertex coordinates in R^m for a complex.

    Checks that every top simplex is affinely independent (faces inherit
    independence).  Interior disjointness is a desk-scale sampling check
    left to the test suite, not the constructor.
    """

    def __init__(self, coords, cplx=None):
        self._coords = {int(v): np.asarray(p, dtype=float) for v, p in coords.items()}
        dims = {p.shape for p in self._coords.values()}
        if len(dims) != 1:
            raise MeshError("inconsistent coordinate dimensions")
        (shape,) = dims
        if len(shape) != 1:
            raise MeshError("coordinates must be flat vectors")
        self.ambient_dim = shape[0]
        if cplx is not None:
            self._validate(cplx)

    def _validate(self, cplx):
        missing = [v for v in cplx.vertex_ids if v not in self._coords]
        if missing:
            raise MeshError(f"vertices without coordinates: {missing}")
        for l in range(1, cplx.dim + 1):
            tops = cplx.top_ids(l)
            if len(tops):
                _check_independent(self.points(tops), tops)

    def point(self, v):
        return self._coords[v]

    @property
    def vertex_ids(self):
        return tuple(sorted(self._coords))

    @cached_property
    def _table(self):
        ids = np.array(self.vertex_ids)
        return ids, np.array([self._coords[v] for v in ids.tolist()])

    def points(self, ids):
        """Coordinates of an int array of vertex ids, ids.shape + (m,)."""
        vids, table = self._table
        return table[np.searchsorted(vids, ids)]

    def simplex_points(self, s):
        return np.array([self._coords[v] for v in s.vertices])

    def simplex_frame(self, s):
        """Affine frame (b, A): the map t -> b + A t carries the standard
        simplex onto the realized simplex, vertices to vertices."""
        pts = self.simplex_points(s)
        b = pts[0]
        A = (pts[1:] - b).T if s.dim > 0 else np.zeros((self.ambient_dim, 0))
        return b, A

    def bbox(self):
        pts = np.array([self._coords[v] for v in sorted(self._coords)])
        return pts.min(axis=0), pts.max(axis=0)

    def min_edge_length(self, cplx):
        """The shortest edge (rows with the bits of np.linalg.norm), 1.0
        without edges."""
        p = self.points(cplx.ids(1))
        return row_norms(p[:, 0] - p[:, 1]).min() if len(p) else 1.0


def _check_independent(pts, ids):
    """MeshError for the first simplex, vertices pts[i] (N, k, m) and ids[i],
    whose edge matrix has a singular value <= 1e-12 max(1, its largest
    entry over all i): one stacked SVD."""
    mats = (pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)
    scale = max(1.0, float(np.abs(mats).max()))
    bad = np.nonzero(np.linalg.svd(mats, compute_uv=False)[:, -1] <= 1e-12 * scale)[0]
    if bad.size:
        raise MeshError(f"degenerate simplex {tuple(ids[bad[0]].tolist())}: "
                        "vertices affinely dependent")


def barycenter(s, realization):
    """Coordinate mean of the simplex's vertices."""
    return realization.simplex_points(s).mean(axis=0)


def barycentric_subdivision(cplx, realization):
    """Barycentric subdivision with its realization and barycenter ids.

    New vertices are the barycenters of all simplices of the input, in
    (dim, vertex-tuple) order; top simplices of the subdivision are the
    complete flags inside each maximal simplex.  Returns
    (sd_complex, sd_realization, barycenter_ids) where barycenter_ids maps
    each original simplex to its new vertex id.
    """
    sd = SubdivisionData(cplx, realization)
    return sd.cplx, sd.realization, sd.barycenter_ids


class SubdivisionData:
    """Barycentric subdivision of a realized complex as arrays, with the
    location index of its tops.  Vertex offset[l] + i is the barycentre of
    row i of simplices[l] (= ids(l)), at points[offset[l] + i].  A flag of a
    top, one per vertex permutation, gives a subdivision top: the ascending
    ids of its nested faces.  index holds them in simplex_sort_key order,
    and each is checked for affine independence.  The objects (cplx,
    realization, barycenter_ids, tops) are built on first use."""

    def __init__(self, cplx, realization):
        self.simplices = [cplx.ids(l) for l in range(cplx.dim + 1)]
        self.offset = np.cumsum([0] + [len(t) for t in self.simplices])
        self.points = np.concatenate([realization.points(t).mean(axis=1) for t in self.simplices])
        flags = []
        for d in range(cplx.dim + 1):
            tops = cplx.top_ids(d)
            face = {c: self.offset[len(c) - 1] + _find_rows(self.simplices[len(c) - 1], tops[:, c])
                    for k in range(1, d + 2) for c in combinations(range(d + 1), k)}
            flags += [np.stack([face[tuple(sorted(p[:k]))] for k in range(1, d + 2)], axis=1)
                      for p in permutations(range(d + 1))]
        ids = np.concatenate([np.pad(f, ((0, 0), (0, cplx.dim + 1 - f.shape[1])),
                                     constant_values=-1) for f in flags])
        ids = ids[np.lexsort(np.vstack([ids.T[::-1], (ids >= 0).sum(axis=1)]))]
        self.index = _TopIndex(self.points[ids], ids)
        for k in sorted(set(self.index.size.tolist()) - {1}):
            j = np.nonzero(self.index.size == k)[0]
            _check_independent(self.index.pts[j, :k], ids[j, :k])

    def barycenters(self, simplices):
        """Barycentre ids of simplices of one dimension, as an array."""
        l = simplices[0].dim
        at = _find_rows(self.simplices[l], np.array([s.vertices for s in simplices]))
        if (at < 0).any():
            raise MeshError(f"simplex {simplices[int(np.argmin(at))].vertices} not in complex")
        return self.offset[l] + at

    @cached_property
    def boundary(self):
        """The boundary of |K| in R^m as closed pieces, (ids, pts, lo, hi,
        on): each piece's vertex ids (-1 padded), coordinates (zero padded)
        and box, and whether each subdivision vertex lies on a piece.  The
        pieces are the subdivision facets that lie in a facet of one
        m-simplex alone, and every top of lower dimension, whole.  A top of
        full dimension is a flag (..., f, T) ending at the barycentres of a
        facet f of its m-simplex T; dropping T gives its one facet on the
        boundary of T, and every other facet is shared with another flag.
        Each m-simplex holding f gives m! flags ending at f."""
        index, m = self.index, self.points.shape[1]
        full = index.size == m + 1
        piece = ~full
        if full.any():
            f = index.ids[full, m - 1]
            piece[full] = np.bincount(f)[f] == math.factorial(m)
        ids, pts = index.ids[piece, :m], index.pts[piece, :m]
        real = (ids >= 0)[..., None]
        on = np.zeros(len(self.points), bool)
        on[ids[real[..., 0]]] = True
        return (ids, pts, np.where(real, pts, np.inf).min(axis=1),
                np.where(real, pts, -np.inf).max(axis=1), on)

    def star_distances(self, vertex, x, reach):
        """Distance from each row of x[i], (S, P, m), a point of the open
        star of vertex[i], to |K| minus that open star, as (S, P): exact
        where it is at most reach, (S, P), and above reach elsewhere.  The
        vertices are the barycentres of simplices of one dimension l.

        That set is the vertex's link (the facets of its star tops opposite
        it) and the tops without the vertex.  Subdivision top ids ascend
        with the dimension of their faces, so the vertex sits in column l
        of each of its star tops, and the other columns give the facet.  A
        segment from x to a top without the vertex crosses the link, or it
        leaves |K| through a boundary piece (see boundary) holding the
        vertex and comes back through one without it.  So the link gives
        the distance of a vertex on no piece, and a vertex on one also
        takes the pieces without it whose box lies within reach and nearer
        than the link: a cell index of the piece boxes, padded by the
        largest such radius, gives the candidates.  Each distance is to a
        point, a segment or a triangle (_closest_distances).  The link pairs
        go in blocks of about _BLOCK_PAIRS.
        """
        index = self.index
        S, P, m = x.shape
        l = int(np.searchsorted(self.offset, vertex[0], side="right")) - 1
        star = index.stars(vertex)
        cols = [j for j in range(index.ids.shape[1]) if j != l]
        d = np.empty((S, P))
        step = max(1, _BLOCK_PAIRS // max(1, star.shape[1] * P))
        for i in range(0, S, step):
            st, xb = star[i:i + step], x[i:i + step]
            n = np.where(st >= 0, index.size[st] - 1, 0)
            dist = np.full(st.shape + (P,), np.inf)
            for k in set(n.ravel().tolist()) - {0}:
                fs, ft = (n == k).nonzero()
                facets = index.pts[st[fs, ft, None], cols[:k]]
                dist[fs, ft] = _closest_distances(xb[fs], facets[:, None])
            d[i:i + step] = dist.min(axis=1)
        ids, pts, lo, hi, on = self.boundary
        out = on[vertex].nonzero()[0]
        if not out.size:
            return d
        r = d[out].ravel()
        radius = np.minimum(r, reach[out].ravel())
        pad = radius.max()
        rows, piece, xs = _BoxCells(lo - pad, hi + pad).hits(x[out].reshape(-1, m))
        gap = np.maximum(np.maximum(lo.take(piece, axis=0) - xs, xs - hi.take(piece, axis=0)), 0.0)
        near = ((row_norms(gap) <= radius[rows])
                & ~(ids.take(piece, axis=0) == vertex[out[rows // P], None]).any(axis=1)).nonzero()[0]
        n = (ids >= 0).sum(axis=1)[piece[near]]
        for k in set(n.tolist()):
            j = near[n == k]
            np.minimum.at(r, rows[j], _closest_distances(xs.take(j, axis=0), pts[piece[j], :k]))
        d[out] = r.reshape(-1, P)
        return d

    @cached_property
    def tops(self):
        return tuple(Simplex._trusted(tuple(v for v in r if v >= 0))
                     for r in self.index.ids.tolist())

    @cached_property
    def cplx(self):
        return build_complex(len(self.points), [t.vertices for t in self.tops])

    @cached_property
    def realization(self):
        return GeometricRealization(dict(enumerate(self.points)))

    @cached_property
    def barycenter_ids(self):
        rows = (r for t in self.simplices for r in t.tolist())
        return {Simplex._trusted(tuple(r)): i for i, r in enumerate(rows)}

    def carrier(self, p, tol=1e-10):
        """Carrier simplex of each row of p, None outside the complex; a 1-D
        p is one row."""
        return self.index.carriers(np.atleast_2d(p), tol)


@dataclass(frozen=True)
class PointLocation:
    """Result of locating a point: the carrier simplex whose open interior
    holds the point, barycentric coordinates w.r.t. that carrier, the
    smallest coordinate (margin), and the affine residual of the solve."""

    simplex: Simplex
    coords: tuple
    margin: float
    residual: float


def _accepted(lam, resid, scale, tol):
    # written as "not rejected" so that NaN coordinates are accepted, as a
    # scalar `if resid > ... or lam.min() < ...: reject` test does
    return ~((resid > tol * scale) | (lam.min(axis=-1) < -tol))


def carrier_face(s, lam, tol):
    """Carrier face of barycentric coordinates lam on s, and the
    coordinates renormalized on it.

    Coordinates at or below tol drop the corresponding vertices.
    """
    keep = [i for i, v in enumerate(lam) if v > tol]
    if not keep:
        keep = [int(np.argmax(lam))]
    sub = lam[keep]
    return Simplex(tuple(s.vertices[i] for i in keep)), sub / sub.sum()


def carrier_mask(lam, tol):
    """carrier_face's vertex choice over rows of barycentric coordinates,
    (N, k), as a bool mask: the coordinates above tol, or the largest
    alone when none is."""
    keep = lam > tol
    lone = np.nonzero(~keep.any(axis=1))[0]
    keep[lone, np.argmax(lam[lone], axis=1)] = True
    return keep


class _BoxCells:
    """A cell index of the closed boxes lo[k]..hi[k], (K, m).  Cells are the
    mean box extent per axis, from the lowest box corner, or larger where
    boxes spread so far that keys would pass 2^62; an axis along which
    every box is flat takes one cell.  A cell lists the boxes that meet it
    in ascending order."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        m = lo.shape[1]
        self.origin = lo.min(axis=0)
        span = hi.max(axis=0) - self.origin
        size = np.maximum((hi - lo).mean(axis=0), span / 2.0 ** (62 // m))
        self.size = np.where(size > 0.0, size, 1.0)
        self.shape = (span / self.size).astype(int) + 1
        self.stride = np.array([math.prod(self.shape[a + 1:].tolist()) for a in range(m)])
        # (x - origin) / size is monotone, so a point in a box has a cell
        # between the cells of the box's corners
        first = ((lo - self.origin) / self.size).astype(int)
        n = ((hi - self.origin) / self.size).astype(int) - first + 1
        count = n.prod(axis=1)
        box, k = _expand(np.arange(count.max()), np.arange(len(lo)), np.zeros_like(count), count)
        key = np.zeros(box.size, int)
        for a in range(m - 1, -1, -1):  # k counts through its box's block of cells
            key += (first[box, a] + k % n[box, a]) * self.stride[a]
            k //= n[box, a]
        order = np.lexsort((box, key))
        self.keys, start = np.unique(key[order], return_index=True)
        self.start, self.boxes = np.concatenate([start, [key.size]]), box[order]

    def lookup(self, X):
        """The cells of the rows of X, (N, m), as (rows, start, n): the rows
        whose cell lists boxes, ascending, and where that list starts in
        self.boxes and its length.  NaN and infinite rows are off the grid."""
        c = (X - self.origin) / self.size
        rows = _rows_all((c >= 0.0) & (c < self.shape)).nonzero()[0]
        key = c.take(rows, axis=0).astype(int) @ self.stride
        at = np.minimum(self.keys.searchsorted(key), self.keys.size - 1)
        found = (self.keys[at] == key).nonzero()[0]
        at = at[found]
        return rows[found], self.start[at], self.start[at + 1] - self.start[at]

    def hits(self, X):
        """Every (row, box) whose closed box holds the row of X, (N, m), as
        (rows, boxes, x): rows ascending, each row's boxes ascending, and x
        the row of X at each hit.  The exact box test decides among the
        boxes of a row's cell."""
        rows, boxes = _expand(self.boxes, *self.lookup(X))
        x = X.take(rows, axis=0)
        inside = _rows_all((x >= self.lo.take(boxes, axis=0))
                           & (x <= self.hi.take(boxes, axis=0))).nonzero()[0]
        return rows[inside], boxes[inside], x.take(inside, axis=0)


def _rows_all(c):
    """c.all(axis=1) for a 2-D bool array with at least one column, one &
    per column: numpy reduces a short last axis row by row."""
    out = c[:, 0]
    for a in range(1, c.shape[1]):
        out = out & c[:, a]
    return out


def _dots(a, b):
    """Dot products over the last axis, broadcast over the others, one
    multiply-add per coordinate."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i] * b[..., i]
    return out


def _closest_distances(x, p):
    """Distance from each point x, (..., m), to the closed simplex of the
    points p, (..., k, m), broadcast over the leading axes: a point, a
    segment or a triangle (k <= 3; see Ericson, Real-Time Collision
    Detection, 2005, section 5.1).  A larger simplex, such as a
    tetrahedron facet of a star in R^4, raises MeshError: its distance
    is not the distance to one of its faces."""
    if p.shape[-2] > 3:
        raise MeshError(f"distance to a simplex of {p.shape[-2]} vertices: at most 3 are supported")
    a = p[..., 0, :]
    ap = x - a
    if p.shape[-2] == 1:
        return np.sqrt(_dots(ap, ap))
    ab = p[..., 1, :] - a
    if p.shape[-2] == 2:
        e = ap - np.clip(_dots(ap, ab) / _dots(ab, ab), 0.0, 1.0)[..., None] * ab
        return np.sqrt(_dots(e, e))
    # a triangle: the foot point in its plane where that lies inside it,
    # else the nearest point of an edge
    ac = p[..., 2, :] - a
    g00, g01, g11 = _dots(ab, ab), _dots(ab, ac), _dots(ac, ac)
    b0, b1 = _dots(ap, ab), _dots(ap, ac)
    det = g00 * g11 - g01 * g01
    u, w = (g11 * b0 - g01 * b1) / det, (g00 * b1 - g01 * b0) / det
    edges = np.minimum(np.minimum(_closest_distances(x, p[..., :2, :]),
                                  _closest_distances(x, p[..., 1:, :])),
                       _closest_distances(x, p[..., ::2, :]))
    e = ap - u[..., None] * ab - w[..., None] * ac
    inside = (u >= 0.0) & (w >= 0.0) & (u + w <= 1.0)
    return np.where(inside, np.minimum(np.sqrt(_dots(e, e)), edges), edges)


def _expand(lists, rows, start, n):
    """The pairs (rows[i], lists[start[i] + j]) for j < n[i], by row."""
    end = n.cumsum()
    return rows.repeat(n), lists[np.arange(end[-1] if end.size else 0) + (start - end + n).repeat(n)]


# candidate (row, top) pairs per block of a location: bounds its temporaries
# to a few hundred kB
_BLOCK_PAIRS = 1 << 13


class _TopIndex:
    """Bounding boxes, vertex coordinates, residual scales and barycentric
    maps of a set of simplices, for locating many points at once: stacked
    over the tops' vertex coordinates pts (K, k, m) and ascending ids (K,
    k), where -1 pads a smaller top's ids and zeros its pts."""

    def __init__(self, pts, ids):
        self.ids = ids
        real = (ids >= 0)[..., None]
        self.pts = np.where(real, pts, 0.0)
        self.size = real.sum(axis=(1, 2))
        self.lo = np.where(real, pts, np.inf).min(axis=1)
        self.hi = np.where(real, pts, -np.inf).max(axis=1)
        self.scale = np.fmax(1.0, np.abs(self.pts).max(axis=(1, 2)))
        # _accepted means x = P lam - e, lam_i >= -tol, |e| <= tol scale, and
        # lam = M+ (x, 1) is the least-squares solution, whose normal
        # equations give sum(lam) - 1 = -p_i . e (e = 0 and sum(lam) = 1 for
        # a top of full dimension); so x is within
        # tol (k ext + scale + scale^2 min |p_i|) of the box.  The pad per
        # unit tol doubles that, for rounding: the computed lam is off by
        # about cond(M) eps, far below tol.
        pmin = np.where(real[..., 0], np.linalg.norm(self.pts, axis=2), np.inf).min(axis=1)
        self.pad = 2.0 * (self.size[:, None] * (self.hi - self.lo)
                          + (self.scale * (1.0 + self.scale * pmin))[:, None])
        self.cells = {}  # tol -> _BoxCells of the padded boxes: a memo, built on first use

    @cached_property
    def inv(self):
        """The barycentric map of each top: the (pseudo-)inverse M+ of its
        augmented vertex matrix M = [P; 1], (m + 1, k), zero rows padding
        the smaller tops; one stacked call per simplex size, on first
        location."""
        m = self.pts.shape[2]
        inv = np.zeros((len(self.pts), self.pts.shape[1], m + 1))
        for k in set(self.size.tolist()):
            j = np.nonzero(self.size == k)[0]
            inv[j, :k] = np.linalg.pinv(np.concatenate(
                [self.pts[j, :k].transpose(0, 2, 1), np.ones((j.size, 1, k))], axis=1))
        return inv

    @classmethod
    def of(cls, realization, tops):
        """The index of Simplex tops of a realization, in the given order."""
        k = max(len(s.vertices) for s in tops)
        ids = np.array([s.vertices + (-1,) * (k - len(s.vertices)) for s in tops])
        return cls(realization.points(ids), ids)

    @cached_property
    def star(self):
        """The tops holding each vertex id, in top order, -1 padded."""
        top, col = np.nonzero(self.ids >= 0)
        v = self.ids[top, col]
        order, n = np.lexsort((top, v)), np.bincount(v)
        star = np.full((n.size, n.max()), -1)
        star[v[order], np.arange(v.size) - np.repeat(np.cumsum(n) - n, n)] = top[order]
        return star

    def stars(self, vertex):
        """The rows of star for the ids of vertex, trimmed to the longest:
        a star lists its tops first."""
        star = self.star[vertex]
        return star[:, :(star >= 0).sum(axis=1).max()]

    def first_hits(self, x, tol, cand=None):
        """Locate the rows of x, (N, m), each in the first top, in top
        order, whose closed simplex holds it up to tol.

        Returns, for every row some top holds: the row, the top, the
        barycentric coordinates there (zero-padded to the largest top) and
        the distance from the top's affine hull.  The candidates of row i
        are the tops table[which[i]], padded with -1, for cand = (table,
        which), and else those its cell lists in the cell index of the
        padded boxes.  A candidate is tried if its box, padded by tol times
        the top's own pad, holds the row; the pad covers every point the
        barycentric test accepts.  Rows go in blocks of at most _BLOCK_PAIRS
        candidates plus one row's, which bounds the memory of a location;
        _solve tests a block's pairs in one pass.
        """
        x = np.asarray(x, dtype=float)
        lo, hi = self.lo - tol * self.pad, self.hi + tol * self.pad
        if cand is None:
            cells = self.cells.get(tol) or self.cells.setdefault(tol, _BoxCells(lo, hi))
            lists, (rows, start, n) = cells.boxes, cells.lookup(x)
        else:
            # a star lists its tops first, its -1 padding after them
            table, which = cand
            lists, rows = table.ravel(), np.arange(len(x))
            start, n = which * table.shape[1], (table >= 0).sum(axis=1)[which]
        blocks, cut = [], np.flatnonzero(np.diff(np.cumsum(n) // _BLOCK_PAIRS)) + 1
        for rb in np.split(np.arange(rows.size), cut):
            ip, it = _expand(lists, rows[rb], start[rb], n[rb])
            xs = x.take(ip, axis=0)
            near = _rows_all((xs >= lo.take(it, axis=0)) & (xs <= hi.take(it, axis=0)))
            blocks.append(self._solve(x, ip[near], it[near], tol))
        return tuple(np.concatenate(parts) for parts in zip(*blocks))

    def _solve(self, x, ip, it, tol):
        """First accepted pair of each row among the (row, top) pairs ip, it,
        which come by row, then by top.  Every pair is tested in one pass:
        its coordinates are its top's barycentric map applied to (x, 1),
        one stacked matvec, and its residual is the distance of x from the
        top's affine hull.  Acceptance is decided per pair, so a row's
        first accepted pair does not depend on the other pairs."""
        xs = x[ip]
        lam = matvec(self.inv[it], np.concatenate([xs, np.ones((ip.size, 1))], axis=1))
        resid = row_norms(matvec(self.pts[it].transpose(0, 2, 1), lam) - xs)
        hits = np.nonzero(_accepted(lam, resid, self.scale[it], tol))[0]
        first = hits[np.unique(ip[hits], return_index=True)[1]]
        return ip[first], it[first], lam[first], resid[first]

    def carriers(self, x, tol):
        """Carrier simplex of each row of x, (N, m), None outside every top."""
        rows, top, lam, _ = self.first_hits(x, tol)
        lam = np.where(np.arange(lam.shape[1]) < self.size[top, None], lam, -np.inf)
        out = [None] * len(x)
        for i, ids, keep in zip(rows.tolist(), self.ids[top].tolist(),
                                carrier_mask(lam, tol).tolist()):
            out[i] = Simplex(tuple(v for v, k in zip(ids, keep) if k))
        return out


def point_locate(cplx, realization, x, tol=1e-10):
    """Locate x in the realized complex.

    Returns a PointLocation whose simplex is the carrier (the unique
    simplex whose open interior contains x, up to tol), or None when x
    lies outside every closed simplex.  The tolerance separates interior
    from boundary: barycentric coordinates below tol are treated as zero
    and the corresponding vertices dropped from the carrier.
    """
    tops = cplx.top_simplices()
    _, top, lam, resid = _TopIndex.of(realization, tops).first_hits(
        np.asarray(x, dtype=float)[None], tol)
    if not top.size:
        return None
    s = tops[top[0]]
    carrier, sub = carrier_face(s, lam[0, :len(s.vertices)], tol)
    return PointLocation(carrier, tuple(float(c) for c in sub), float(sub.min()), float(resid[0]))


def grid_triangulation(box_lo, box_hi, resolution):
    """Standard triangulated grid over an axis-aligned box.

    Each square is split into 2 triangles, each cube into 6 tetrahedra
    (Freudenthal/Kuhn split along coordinate permutations), which is
    face-to-face compatible across cells without extra vertices.
    """
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    m = lo.size
    if m not in (2, 3):
        raise MeshError(f"unsupported ambient dimension {m} (need 2 or 3)")
    if hi.size != m or np.any(hi <= lo):
        raise MeshError("invalid box bounds")
    n = int(resolution)
    if n < 1:
        raise MeshError("resolution must be >= 1")

    # vertex ids count the grid points (row-major) and a cell's tops walk
    # from its lowest corner one axis at a time, in every axis order
    grid = np.array(list(product(range(n + 1), repeat=m)))
    coords = dict(enumerate(lo + (hi - lo) * grid / n))
    cells = grid[(grid < n).all(axis=1)] @ (n + 1) ** np.arange(m - 1, -1, -1)
    steps = [np.cumsum([0] + [(n + 1) ** (m - 1 - a) for a in p]) for p in permutations(range(m))]
    cplx = build_complex((n + 1) ** m, (cells[:, None, None] + steps).reshape(-1, m + 1).tolist())
    return cplx, GeometricRealization(coords, cplx)


def write_mesh(path, cplx, realization):
    """Write an OFF-style text mesh: counts, coordinates, top simplices."""
    tops = cplx.top_simplices()
    vids = realization.vertex_ids
    remap = {v: i for i, v in enumerate(vids)}
    lines = [f"{len(vids)} {len(tops)}"]
    for v in vids:
        lines.append(" ".join(repr(float(c)) for c in realization.point(v)))
    for s in tops:
        lines.append(" ".join([str(len(s.vertices))] + [str(remap[v]) for v in s.vertices]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Read a mesh written by :func:`write_mesh`."""
    with open(path) as fh:
        rows = [(i, ln.split()) for i, ln in enumerate(fh, start=1)
                if ln.strip() and not ln.startswith("#")]
    try:
        nv, ns = int(rows[0][1][0]), int(rows[0][1][1])
        coords = {i: np.array([float(c) for c in rows[1 + i][1]]) for i in range(nv)}
        simplex_rows = rows[1 + nv : 1 + nv + ns]
        if len(simplex_rows) < ns:
            raise ValueError(f"line {rows[0][0]}: the header declares {ns} simplex rows, "
                             f"the file has "
                             f"{len(simplex_rows)}")
        tops = []
        for j, (lineno, r) in enumerate(simplex_rows):
            k = int(r[0])
            if len(r) != 1 + k:
                raise ValueError(f"line {lineno}: simplex row {j} declares {k} vertex ids, "
                                 f"has {len(r) - 1}")
            tops.append([int(v) for v in r[1:]])
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from exc
    cplx = build_complex(nv, tops)
    return cplx, GeometricRealization(coords, cplx)
