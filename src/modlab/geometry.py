"""Extended Euclidean space: points with infinity, the chordal metric, and spherical rings.

The chordal metric is the distance between stereographic images on the sphere of
diameter 1, so it is bounded by 1 and treats the point at infinity like any other
point.  Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

import numpy as np

# Absolute tolerance used when deciding whether a point sits on a sphere.
DEFAULT_SPHERE_TOL = 1e-9


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of n-space (n >= 2) or the distinguished point at infinity.

    ``coords`` is ``None`` exactly when the point is at infinity; finite points
    carry a tuple of finite floats.  Infinity is a real value of its own, never
    a large-coordinate sentinel.
    """

    coords: tuple[float, ...] | None
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if self.coords is not None:
            if len(self.coords) != self.dim:
                raise ValueError("coordinate count does not match dim")
            if not all(math.isfinite(c) for c in self.coords):
                raise ValueError("finite point has non-finite coordinates")

    @staticmethod
    def of(coords: Sequence[float]) -> "ExtendedPoint":
        t = tuple(float(c) for c in coords)
        return ExtendedPoint(t, len(t))

    @staticmethod
    def infinity(dim: int) -> "ExtendedPoint":
        return ExtendedPoint(None, dim)

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    def as_array(self) -> np.ndarray:
        if self.coords is None:
            raise ValueError("the point at infinity has no coordinate array")
        return np.asarray(self.coords, dtype=float)


PointLike = Union[ExtendedPoint, Sequence[float], np.ndarray]


def as_point(x: PointLike, dim: int | None = None) -> ExtendedPoint:
    """Coerce an array-like or ExtendedPoint; validate dimension if given."""
    if isinstance(x, ExtendedPoint):
        p = x
    else:
        p = ExtendedPoint.of(np.asarray(x, dtype=float).ravel())
    if dim is not None and p.dim != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {p.dim}")
    return p


def chordal_distance(x: PointLike, y: PointLike) -> float:
    """Chordal distance h(x, y) in [0, 1].

    h(x, y) = |x - y| / (sqrt(1 + |x|^2) sqrt(1 + |y|^2)) for finite points,
    h(x, inf) = 1 / sqrt(1 + |x|^2), and h(inf, inf) = 0.
    """
    px, py = as_point(x), as_point(y)
    if px.dim != py.dim:
        raise ValueError(f"dimension mismatch: {px.dim} vs {py.dim}")
    if px.is_infinity and py.is_infinity:
        return 0.0
    if px.is_infinity or py.is_infinity:
        fin = py if px.is_infinity else px
        a = fin.as_array()
        return 1.0 / math.sqrt(1.0 + float(a @ a))
    a, b = px.as_array(), py.as_array()
    num = float(np.linalg.norm(a - b))
    return num / (math.sqrt(1.0 + float(a @ a)) * math.sqrt(1.0 + float(b @ b)))


def chordal_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chordal distances between the finite rows of (m, n) and (k, n) arrays, as (m, k)."""
    sa = np.sqrt(1.0 + np.sum(a * a, axis=1))
    sb = np.sqrt(1.0 + np.sum(b * b, axis=1))
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2)) / (sa[:, None] * sb[None, :])


def _split_finite(points: Iterable[PointLike]) -> tuple[np.ndarray, bool, int]:
    """Split a point collection into a finite (m, n) array and an infinity flag."""
    finite = []
    has_inf = False
    dim = None
    for p in points:
        q = as_point(p)
        if dim is None:
            dim = q.dim
        elif q.dim != dim:
            raise ValueError("points of mixed dimension in one set")
        if q.is_infinity:
            has_inf = True
        else:
            finite.append(q.as_array())
    if dim is None:
        raise ValueError("empty point set")
    arr = np.asarray(finite, dtype=float) if finite else np.empty((0, dim))
    return arr, has_inf, dim


def chordal_set_distance(set_a: Iterable[PointLike], set_b: Iterable[PointLike]) -> float:
    """Infimum of the chordal distance over all sampled pairs.

    Both arguments are finite samples; a 2-d array is read as one point per row.
    """
    if isinstance(set_a, np.ndarray) and set_a.ndim == 2:
        set_a = list(set_a)
    if isinstance(set_b, np.ndarray) and set_b.ndim == 2:
        set_b = list(set_b)
    a, inf_a, dim_a = _split_finite(set_a)
    b, inf_b, dim_b = _split_finite(set_b)
    if dim_a != dim_b:
        raise ValueError(f"dimension mismatch: {dim_a} vs {dim_b}")

    best = math.inf
    if inf_a and inf_b:
        return 0.0
    if inf_a and len(b):
        best = min(best, float(np.min(1.0 / np.sqrt(1.0 + np.sum(b * b, axis=1)))))
    if inf_b and len(a):
        best = min(best, float(np.min(1.0 / np.sqrt(1.0 + np.sum(a * a, axis=1)))))
    if len(a) and len(b):
        best = min(best, float(np.min(chordal_matrix(a, b))))
    if not math.isfinite(best):
        raise ValueError("empty point set")
    return best


@dataclass(frozen=True)
class SphericalRing:
    """The open annular region between two concentric spheres, 0 < r_inner < r_outer."""

    center: tuple[float, ...]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        c = tuple(float(v) for v in self.center)
        object.__setattr__(self, "center", c)
        if not all(math.isfinite(v) for v in c):
            raise ValueError("ring center must be finite")
        if not (0.0 < self.r_inner < self.r_outer < math.inf):
            raise ValueError(
                f"ring radii must satisfy 0 < r_inner < r_outer, got "
                f"({self.r_inner}, {self.r_outer})"
            )

    @property
    def dim(self) -> int:
        return len(self.center)

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    def radius_of(self, y: PointLike) -> float:
        p = as_point(y, dim=self.dim)
        return float(np.linalg.norm(p.as_array() - self.center_array()))


class RingPosition(Enum):
    """Where a point sits relative to a spherical ring; exactly one label applies."""

    INSIDE = "inside"
    ON_INNER_SPHERE = "on_inner_sphere"
    IN_OPEN_RING = "in_open_ring"
    ON_OUTER_SPHERE = "on_outer_sphere"
    OUTSIDE = "outside"


def ring_membership(y: PointLike, ring: SphericalRing,
                    tol: float = DEFAULT_SPHERE_TOL) -> RingPosition:
    """Classify a finite point against the ring's spheres with absolute tolerance tol."""
    p = as_point(y, dim=ring.dim)
    if p.is_infinity:
        raise ValueError("ring membership is defined for finite points only")
    r = ring.radius_of(p)
    if abs(r - ring.r_inner) <= tol:
        return RingPosition.ON_INNER_SPHERE
    if abs(r - ring.r_outer) <= tol:
        return RingPosition.ON_OUTER_SPHERE
    if r < ring.r_inner:
        return RingPosition.INSIDE
    if r > ring.r_outer:
        return RingPosition.OUTSIDE
    return RingPosition.IN_OPEN_RING


@dataclass(frozen=True)
class ChordalBall:
    """Ball in the chordal metric; the center may be the point at infinity."""

    center: ExtendedPoint
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius <= 1.0):
            raise ValueError("chordal radius must lie in (0, 1]")

    def contains(self, x: PointLike) -> bool:
        return chordal_distance(self.center, x) < self.radius
