"""Closed-form parametric map families with analytic Jacobians.

Supported families: constant point, straight line segment, circle,
polynomial curve, torus-knot curve, and a polynomial surface patch.
Each family knows how to evaluate itself in batch, differentiate
analytically, and produce a deterministic quasi-uniform sample of its
parameter domain.  Only closed-form families are admitted: downstream
transversality checks lean on trustworthy Jacobians.

Parameter vectors always have shape (n,) with n the domain dimension;
a point domain uses the empty vector.  The formula and the differential
take (N, n) rows, and a single parameter vector is their N = 1 case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rows import entrywise

__all__ = [
    "Domain",
    "SmoothMap",
    "PointMap",
    "LineMap",
    "CircleMap",
    "PolyCurveMap",
    "TorusKnotMap",
    "SurfacePatchMap",
    "MAP_FAMILIES",
    "map_from_params",
]

_TOL = 1e-9


@dataclass(frozen=True)
class Domain:
    """Parameter domain: a point, an interval (optionally periodic), or a box."""

    kind: str
    lo: tuple = ()
    hi: tuple = ()
    periodic: bool = False

    def __post_init__(self):
        if self.kind not in ("point", "interval", "box"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if self.kind == "point" and (lo or hi):
            raise DomainError("point domain takes no bounds")
        if self.kind == "interval" and (len(lo), len(hi)) != (1, 1):
            raise DomainError("interval domain needs scalar bounds")
        if self.kind == "box" and (len(lo) != len(hi) or len(lo) < 1):
            raise DomainError("box domain needs matching bound vectors")
        if any(h <= l for l, h in zip(lo, hi)):
            raise DomainError("empty domain")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        if self.kind == "point":
            return 0
        if self.kind == "interval":
            return 1
        return len(self.lo)

    def wrap(self, y):
        """Map periodic coordinates into [lo, hi); other kinds unchanged."""
        y = np.asarray(y, dtype=float)
        if self.kind == "interval" and self.periodic:
            lo, hi = self.lo[0], self.hi[0]
            return lo + np.mod(y - lo, hi - lo)
        return y

    def contains(self, ys, tol=_TOL):
        """Whether each row of ys, (N, dim), lies in the domain up to tol."""
        ys = np.asarray(ys, dtype=float)
        if self.kind == "point" or self.periodic:
            return np.ones(len(ys), bool)
        return np.all((ys >= np.array(self.lo) - tol) & (ys <= np.array(self.hi) + tol), axis=1)

    def sample(self, density):
        """Deterministic quasi-uniform grid with density points per axis.

        Periodic intervals exclude the identified endpoint; bounded
        intervals and boxes include both ends.
        """
        if density < 1:
            raise DomainError("density must be >= 1")
        if self.kind == "point":
            return np.zeros((1, 0))
        if self.kind == "interval":
            lo, hi = self.lo[0], self.hi[0]
            if self.periodic:
                ys = lo + (hi - lo) * np.arange(density) / density
            else:
                ys = np.linspace(lo, hi, density) if density > 1 else np.array([(lo + hi) / 2])
            return ys.reshape(-1, 1)
        axes = [np.linspace(l, h, density) if density > 1 else np.array([(l + h) / 2])
                for l, h in zip(self.lo, self.hi)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


class SmoothMap:
    """Base class: a smooth map from a parameter domain into R^m.

    Subclasses set ``domain`` and ``ambient_dim`` and implement the
    batched formula and the analytic Jacobian.  Instances are treated as
    immutable after construction.
    """

    family = "abstract"
    domain: Domain
    ambient_dim: int

    def _eval_batch(self, ys):
        raise NotImplementedError

    def _jac(self, ys):
        """(N, ambient_dim, n) differentials at the rows of ys, (N, n)."""
        raise NotImplementedError

    def _check(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.domain.dim,):
            raise DomainError(f"parameter shape {y.shape} != ({self.domain.dim},)")
        if not self.domain.contains(y[None])[0]:
            raise DomainError(f"parameter {y} outside domain")
        return self.domain.wrap(y)

    def eval(self, y):
        """Image point h(y); raises DomainError outside the domain."""
        y = self._check(y)
        return self._eval_batch(y.reshape(1, -1))[0]

    def eval_batch(self, ys):
        ys = np.asarray(ys, dtype=float)
        n = self.domain.dim
        if n == 0:
            k = ys.shape[0] if ys.ndim else 1
            return self._eval_batch(np.zeros((k, 0)))
        return self._eval_batch(ys.reshape(-1, n))

    def eval_raw(self, y):
        """Evaluate the defining formula without the domain check.

        All families are given by globally defined formulas; root finding
        is allowed to wander slightly outside the box.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return self._eval_batch(y.reshape(1, -1))[0]

    def jacobian(self, y):
        """Analytic differential, an (ambient_dim x n) matrix."""
        return self._jac(self._check(y)[None])[0]

    def jacobian_raw(self, y):
        """Differential without the domain check: an (ambient_dim x n)
        matrix for one parameter vector, (N, ambient_dim, n) for (N, n)
        rows, each row with the bits of its one-row call."""
        y = np.asarray(y, dtype=float)
        return self._jac(y) if y.ndim == 2 else self._jac(np.atleast_1d(y)[None])[0]

    def sample_domain(self, density):
        """Deterministic parameter samples, density per axis."""
        return self.domain.sample(density)


class PointMap(SmoothMap):
    """Constant map from a zero-dimensional domain."""

    family = "point"

    def __init__(self, value):
        self.domain = Domain("point")
        self.value = np.asarray(value, dtype=float)
        self.ambient_dim = self.value.size

    def _eval_batch(self, ys):
        return np.tile(self.value, (ys.shape[0], 1))

    def _jac(self, ys):
        return np.zeros((len(ys), self.ambient_dim, 0))


class LineMap(SmoothMap):
    """y -> origin + y * direction over a bounded interval."""

    family = "line"

    def __init__(self, origin, direction, lo=-1.0, hi=1.0):
        self.domain = Domain("interval", (lo,), (hi,))
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if self.origin.shape != self.direction.shape:
            raise DomainError("origin and direction dimensions differ")
        self.ambient_dim = self.origin.size

    def _eval_batch(self, ys):
        return self.origin + ys[:, :1] * self.direction

    def _jac(self, ys):
        return np.tile(self.direction[:, None], (len(ys), 1, 1))


class CircleMap(SmoothMap):
    """Circle center + r(cos 2 pi y * u1 + sin 2 pi y * u2), y in [0, 1)."""

    family = "circle"

    def __init__(self, center, radius, u1=None, u2=None):
        self.domain = Domain("interval", (0.0,), (1.0,), periodic=True)
        self.center = np.asarray(center, dtype=float)
        m = self.center.size
        self.radius = float(radius)
        self.u1 = np.asarray(u1, dtype=float) if u1 is not None else np.eye(m)[0]
        self.u2 = np.asarray(u2, dtype=float) if u2 is not None else np.eye(m)[1]
        self.ambient_dim = m

    def _eval_batch(self, ys):
        ang = 2.0 * math.pi * ys[:, :1]
        return self.center + self.radius * (np.cos(ang) * self.u1 + np.sin(ang) * self.u2)

    def _jac(self, ys):
        ang = 2.0 * math.pi * ys[:, 0]
        sin, cos = entrywise(math.sin, ang), entrywise(math.cos, ang)
        col = 2.0 * math.pi * self.radius * (-sin[:, None] * self.u1 + cos[:, None] * self.u2)
        return col[:, :, None]


class PolyCurveMap(SmoothMap):
    """Polynomial curve sum_k c_k y^k with vector coefficients c_k."""

    family = "poly_curve"

    def __init__(self, coeffs, lo=0.0, hi=1.0):
        self.domain = Domain("interval", (lo,), (hi,))
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 2:
            raise DomainError("coeffs must be a (degree+1, m) array")
        self.ambient_dim = self.coeffs.shape[1]

    def _eval_batch(self, ys):
        powers = ys[:, :1] ** np.arange(self.coeffs.shape[0])
        # row by row, so a batch gives each row's bits from a one-row call
        return (powers[:, None, :] @ self.coeffs)[:, 0, :]

    def _jac(self, ys):
        k = np.arange(1, self.coeffs.shape[0])
        if k.size == 0:
            return np.zeros((len(ys), self.ambient_dim, 1))
        return ((ys[:, :1] ** (k - 1) * k)[:, None, :] @ self.coeffs[1:]).transpose(0, 2, 1)


class TorusKnotMap(SmoothMap):
    """(p, q) torus knot on the torus of radii (R, r), y in [0, 1)."""

    family = "torus_knot"

    def __init__(self, p=2, q=3, big_radius=1.0, small_radius=0.35):
        self.domain = Domain("interval", (0.0,), (1.0,), periodic=True)
        self.p = int(p)
        self.q = int(q)
        self.R = float(big_radius)
        self.r = float(small_radius)
        self.ambient_dim = 3

    def _eval_batch(self, ys):
        a = 2.0 * math.pi * self.p * ys[:, 0]
        b = 2.0 * math.pi * self.q * ys[:, 0]
        w = self.R + self.r * np.cos(b)
        return np.stack([w * np.cos(a), w * np.sin(a), self.r * np.sin(b)], axis=1)

    def _jac(self, ys):
        da = 2.0 * math.pi * self.p
        db = 2.0 * math.pi * self.q
        a, b = da * ys[:, 0], db * ys[:, 0]
        sin_a, cos_a, sin_b, cos_b = (entrywise(f, x) for x in (a, b)
                                      for f in (math.sin, math.cos))
        w = self.R + self.r * cos_b
        dw = -self.r * sin_b * db
        col = np.stack([dw * cos_a - w * sin_a * da, dw * sin_a + w * cos_a * da,
                        self.r * cos_b * db], axis=1)
        return col[:, :, None]


def _power_derivs(x, d):
    """Rows (j x^(j - 1) for j < d) over a 1-D x, the powers taken in Python
    floats: numpy's array power differs from math pow in the last bit."""
    return np.array([[j * xi ** (j - 1) if j else 0.0 for j in range(d)]
                     for xi in x.tolist()]).reshape(len(x), d)


class SurfacePatchMap(SmoothMap):
    """Polynomial patch sum_{jk} c_{jk} u^j v^k over a box domain."""

    family = "surface_patch"

    def __init__(self, coeffs, lo=(0.0, 0.0), hi=(1.0, 1.0)):
        self.domain = Domain("box", tuple(lo), tuple(hi))
        if self.domain.dim != 2:
            raise DomainError("surface patch needs a 2d box domain")
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 3:
            raise DomainError("coeffs must be a (deg_u+1, deg_v+1, m) array")
        self.ambient_dim = self.coeffs.shape[2]

    def _eval_batch(self, ys):
        du, dv, m = self.coeffs.shape
        pu = ys[:, :1] ** np.arange(du)
        pv = ys[:, 1:2] ** np.arange(dv)
        return np.einsum("ku,kv,uvm->km", pu, pv, self.coeffs)

    def _jac(self, ys):
        du, dv, m = self.coeffs.shape
        pu = ys[:, :1] ** np.arange(du)
        pv = ys[:, 1:2] ** np.arange(dv)
        dpu, dpv = _power_derivs(ys[:, 0], du), _power_derivs(ys[:, 1], dv)
        col_u = np.einsum("ku,kv,uvm->km", dpu, pv, self.coeffs)
        col_v = np.einsum("ku,kv,uvm->km", pu, dpv, self.coeffs)
        return np.stack([col_u, col_v], axis=2)


MAP_FAMILIES = {
    "point": PointMap,
    "line": LineMap,
    "circle": CircleMap,
    "poly_curve": PolyCurveMap,
    "torus_knot": TorusKnotMap,
    "surface_patch": SurfacePatchMap,
}


def map_from_params(family, params):
    """Instantiate a family from a flat parameter dict (scenario configs)."""
    if family not in MAP_FAMILIES:
        raise DomainError(f"unknown map family {family!r}; "
                          f"known: {sorted(MAP_FAMILIES)}")
    return MAP_FAMILIES[family](**params)
