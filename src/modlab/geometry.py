"""Extended Euclidean space: points with infinity, the chordal metric, and spherical rings.

The chordal metric is the distance between stereographic images on the sphere of
diameter 1, so it is bounded by 1 and treats the point at infinity like any other
point.  Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

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


def as_point(x: PointLike) -> ExtendedPoint:
    """Coerce an array-like or ExtendedPoint."""
    if isinstance(x, ExtendedPoint):
        return x
    return ExtendedPoint.of(np.asarray(x, dtype=float).ravel())


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


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of (..., n) arrays, each bit for bit ``u @ v``
    (``einsum`` and ``norm(axis=)`` sum in another order)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


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
