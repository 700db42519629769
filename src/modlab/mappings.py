"""The mapping zoo: branched maps of a punctured ball with analytic derivative data.

Two families: the winding (k-fold angular wrap on the first two axes) and the
radial power x -> |x|^(a-1) x, which is the identity at a = 1, the inversion
x/|x|^2 at a = -1 and the radial stretch at a = alpha > 0.  All fix the puncture
center, carry exact derivatives and preimage formulas, and expose the
distortion coefficient, multiplicity, weight, curve lifting, and cluster-set
sampling used by the inequality scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curves import Curve, _directions
from .geometry import ExtendedPoint, chordal_distance, chordal_matrix, row_dot
from .modulus import unit_sphere_area

MAPPING_KINDS = ("identity", "winding", "radial_stretch", "inversion")

# Relative radius below which a lifted vertex counts as reaching the puncture.
PUNCTURE_TOL = 1e-9
# Two distinct preimage branches closer than this to equidistant are ambiguous.
AMBIGUITY_TOL = 1e-6
# Relative distance within which a lift's start must map to the curve's start.
START_TOL = 1e-9
# Chordal distance below which cluster-set images join one cluster.
CLUSTER_THRESHOLD = 0.05

COMPLETED = "completed"
HIT_PUNCTURE = "hit_puncture"
HIT_OUTER_SPHERE = "hit_outer_sphere"


class LiftingAmbiguity(Exception):
    """Two preimage branches are equally close to the running lift."""


class DomainError(ValueError):
    """A point falls outside the domain or image of a zoo map."""


@dataclass(frozen=True)
class MappingSpec:
    """A zoo member acting on the punctured ball B(center, epsilon0) minus its center."""

    kind: str
    dim: int = 2
    k: int = 1
    alpha: float = 1.0
    center: tuple[float, ...] = ()
    epsilon0: float = 0.5

    def __post_init__(self):
        if self.kind not in MAPPING_KINDS:
            raise ValueError(f"unknown mapping kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if self.kind == "winding" and (self.k < 1 or self.k != int(self.k)):
            raise ValueError("winding order k must be a positive integer")
        if self.kind == "radial_stretch" and not self.alpha > 0:
            raise ValueError("stretch exponent must be positive")
        if not self.center:
            object.__setattr__(self, "center", (0.0,) * self.dim)
        if len(self.center) != self.dim:
            raise ValueError("center length does not match dim")
        if not self.epsilon0 > 0:
            raise ValueError("epsilon0 must be positive")

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def power(self) -> float:
        """The exponent a of the radial power x -> |x|^(a-1) x; 1 for the winding."""
        return {"radial_stretch": self.alpha, "inversion": -1.0}.get(self.kind, 1.0)

    def describe(self) -> str:
        if self.kind == "winding":
            return f"winding(k={self.k})"
        if self.kind == "radial_stretch":
            return f"radial_stretch(alpha={self.alpha:g})"
        return self.kind


def identity(dim: int = 2, center: Sequence[float] = (), epsilon0: float = 0.5) -> MappingSpec:
    return MappingSpec("identity", dim=dim, center=tuple(center), epsilon0=epsilon0)


def winding(k: int, dim: int = 2, center: Sequence[float] = (),
            epsilon0: float = 0.5) -> MappingSpec:
    return MappingSpec("winding", dim=dim, k=int(k), center=tuple(center), epsilon0=epsilon0)


def radial_stretch(alpha: float, dim: int = 2, center: Sequence[float] = (),
                   epsilon0: float = 0.5) -> MappingSpec:
    return MappingSpec("radial_stretch", dim=dim, alpha=float(alpha),
                       center=tuple(center), epsilon0=epsilon0)


def inversion(dim: int = 2, center: Sequence[float] = (), epsilon0: float = 0.5) -> MappingSpec:
    return MappingSpec("inversion", dim=dim, center=tuple(center), epsilon0=epsilon0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _eval_rel(f: MappingSpec, z: np.ndarray) -> np.ndarray:
    """Evaluate on (m, n) coordinates relative to the center."""
    if f.kind == "winding":
        out = z.copy()
        r = np.hypot(z[:, 0], z[:, 1])
        th = np.arctan2(z[:, 1], z[:, 0])
        out[:, 0] = r * np.cos(f.k * th)
        out[:, 1] = r * np.sin(f.k * th)
        return out
    r = np.linalg.norm(z, axis=1, keepdims=True)
    if f.power < 0.0 and np.any(r == 0.0):
        raise DomainError(f"{f.kind} is undefined at the puncture")
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(r > 0.0, r ** (f.power - 1.0), 0.0)
    return scale * z


def evaluate(f: MappingSpec, x) -> np.ndarray:
    """Image of one finite point; the puncture itself is outside the domain."""
    p = np.asarray(x, dtype=float).ravel()
    if len(p) != f.dim:
        raise ValueError("point dimension does not match the mapping")
    if np.linalg.norm(p - f.center_array()) == 0.0:
        raise DomainError("the puncture has no image")
    return evaluate_many(f, p)[0]


def evaluate_many(f: MappingSpec, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    c = f.center_array()
    return c + _eval_rel(f, pts - c)


# ---------------------------------------------------------------------------
# Derivatives and distortion
# ---------------------------------------------------------------------------

def _derivative_rel(f: MappingSpec, z: np.ndarray) -> np.ndarray:
    n = f.dim
    if f.kind == "winding":
        r = math.hypot(z[0], z[1])
        if r == 0.0:
            raise DomainError("winding derivative is undefined on the axis")
        th = math.atan2(z[1], z[0])
        er_in = np.array([math.cos(th), math.sin(th)])
        et_in = np.array([-math.sin(th), math.cos(th)])
        er_out = np.array([math.cos(f.k * th), math.sin(f.k * th)])
        et_out = np.array([-math.sin(f.k * th), math.cos(f.k * th)])
        M = np.eye(n)
        M[:2, :2] = np.outer(er_out, er_in) + f.k * np.outer(et_out, et_in)
        return M
    r = float(np.linalg.norm(z))
    if r == 0.0:
        raise DomainError(f"{f.kind} derivative is undefined at the puncture")
    u = z / r
    return r ** (f.power - 1.0) * (np.eye(n) + (f.power - 1.0) * np.outer(u, u))


def derivative_matrix(f: MappingSpec, x) -> np.ndarray:
    """Exact Jacobian matrix at a finite point away from chart singularities."""
    p = np.asarray(x, dtype=float).ravel()
    return _derivative_rel(f, p - f.center_array())


def finite_difference_derivative(f: MappingSpec, x, step: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian with the given step."""
    p = np.asarray(x, dtype=float).ravel()
    cols = []
    for i in range(f.dim):
        e = np.zeros(f.dim)
        e[i] = step
        cols.append((evaluate(f, p + e) - evaluate(f, p - e)) / (2.0 * step))
    return np.stack(cols, axis=1)


@dataclass
class DistortionReport:
    """Operator norm, Jacobian determinant, and outer distortion at a point."""

    point: tuple[float, ...]
    operator_norm: float
    jacobian_det: float
    K_O: float
    degenerate_case: str | None
    mode: str


def distortion_from_matrix(M: np.ndarray, n: int | None = None,
                           point: Sequence[float] = (), mode: str = "matrix") -> DistortionReport:
    """Distortion data of a derivative matrix, honoring the degenerate conventions.

    K_O = ||M||^n / |det M|; by convention K_O = 1 when M = 0, and K_O = inf
    when M != 0 but det M = 0.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0] if n is None else n
    op = float(np.linalg.svd(M, compute_uv=False)[0])
    det = float(np.linalg.det(M))
    if op == 0.0:
        return DistortionReport(tuple(point), 0.0, 0.0, 1.0, "zero_derivative", mode)
    if det == 0.0:
        return DistortionReport(tuple(point), op, 0.0, math.inf, "vanishing_jacobian", mode)
    return DistortionReport(tuple(point), op, det, op ** n / abs(det), None, mode)


def distortion_at(f: MappingSpec, x, mode: str = "analytic",
                  fd_step: float = 1e-4) -> DistortionReport:
    """Distortion report at a point, from exact or central-difference derivatives."""
    p = np.asarray(x, dtype=float).ravel()
    if mode == "analytic":
        M = derivative_matrix(f, p)
    elif mode == "finite_difference":
        M = finite_difference_derivative(f, p, fd_step)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return distortion_from_matrix(M, f.dim, point=tuple(p), mode=mode)


def multiplicity(f: MappingSpec) -> int:
    """Maximal number of preimages of an image point."""
    return f.k if f.kind == "winding" else 1


def sup_distortion(f: MappingSpec) -> float:
    """Essential supremum of K_O over the punctured ball (constant for the zoo)."""
    n = f.dim
    if f.kind == "winding":
        return float(f.k) ** (n - 1)
    a = abs(f.power)
    return max(a, 1.0) ** n / a


# ---------------------------------------------------------------------------
# Image geometry and the weight
# ---------------------------------------------------------------------------

def image_ball(f: MappingSpec) -> tuple[str, float]:
    """The image of the punctured ball: ('ball', r) or ('exterior', r) about the center."""
    a = f.power  # the winding keeps |x|, as the radial power does at a = 1
    return ("ball" if a > 0 else "exterior"), f.epsilon0 ** a


def image_mask(f: MappingSpec):
    """Indicator of f's image, as a callable on (m, n) point arrays."""
    shape, r = image_ball(f)
    c = f.center_array()

    def mask(pts: np.ndarray) -> np.ndarray:
        rad = np.linalg.norm(np.atleast_2d(pts) - c, axis=1)
        return rad < r if shape == "ball" else rad > r

    return mask


def image_volume(f: MappingSpec) -> float:
    """Volume of the image; infinite for exterior images."""
    shape, r = image_ball(f)
    if shape == "exterior":
        return math.inf
    return unit_sphere_area(f.dim) / f.dim * r ** f.dim


@dataclass
class WeightQ:
    """Constant weight N * K with its L1 norm over the image."""

    value: float
    N: int
    K: float
    l1_norm: float


def weight_Q(f: MappingSpec) -> WeightQ:
    """The weight Q = N(f) * sup K_O with its L1 norm over the whole image.

    An unbounded image makes the norm infinite.
    """
    N = multiplicity(f)
    K = sup_distortion(f)
    value = N * K
    return WeightQ(value, N, K, value * image_volume(f))


# ---------------------------------------------------------------------------
# Preimages and lifting
# ---------------------------------------------------------------------------

def _preimages_rel(f: MappingSpec, w: np.ndarray) -> np.ndarray:
    """Preimages of (L, n) points relative to the center, as (L, branches, n).

    A point with w . w = 0 (the puncture's image) has none; callers mask its rows.
    """
    if f.kind == "winding":
        th = (np.arctan2(w[:, 1], w[:, 0])[:, None] + 2.0 * math.pi * np.arange(f.k)) / f.k
        r = np.hypot(w[:, 0], w[:, 1])[:, None]
        z = np.repeat(w[:, None, :], f.k, axis=1)
        z[..., 0] = r * np.cos(th)
        z[..., 1] = r * np.sin(th)
        return z
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.sqrt(row_dot(w, w)) ** (1.0 / f.power - 1.0)
        return (scale[:, None] * w)[:, None, :]


def preimages(f: MappingSpec, y) -> list[np.ndarray]:
    """All preimages of an image point, unrestricted to the punctured ball."""
    w = np.asarray(y, dtype=float).ravel() - f.center_array()
    if float(w @ w) == 0.0:
        return []
    return list(f.center_array() + _preimages_rel(f, w[None])[0])


def _lift_many(f: MappingSpec, image: np.ndarray, owner: np.ndarray,
               starts: np.ndarray) -> list[tuple[Curve, str]]:
    """Lift the image curves image[owner] from starts, all lifts one vertex at a time.

    A lift continues along the nearest preimage branch and stops once it
    leaves the closure of the punctured ball: at the puncture or its image
    (HIT_PUNCTURE), or past the bounding sphere (HIT_OUTER_SPHERE).  The
    lowest failing lift raises, naming its image curve and vertex.
    """
    c = f.center_array()
    lifted = np.full((len(owner),) + image.shape[1:], np.nan)
    lifted[:, 0] = starts
    status = np.full(len(owner), COMPLETED, dtype=object)
    failed = {}
    active = np.arange(len(owner))
    for i in range(1, image.shape[1]):
        w = image[owner[active], i] - c
        hit = row_dot(w, w) == 0.0  # the puncture's image has no preimage
        cands = c + _preimages_rel(f, w)
        diff = cands - lifted[active, i - 1][:, None, :]
        dists = np.sqrt(row_dot(diff, diff))
        near = np.argsort(dists, axis=1)[:, :2]  # the nearest branch and the runner-up
        dist = np.take_along_axis(dists, near, axis=1)
        z = np.take_along_axis(cands, near[..., None], axis=1)
        best, gap, sep = z[:, 0], dist[:, -1] - dist[:, 0], z[:, -1] - z[:, 0]
        ambiguous = ~hit & (gap <= AMBIGUITY_TOL) & (np.sqrt(row_dot(sep, sep)) > 1e-12)
        for j, g in zip(active[ambiguous], gap[ambiguous]):
            failed[j] = LiftingAmbiguity(f"image curve {owner[j]}: image vertex {i}: "
                                         f"two branches within {g:.3g} of equidistant")
        step = ~hit & ~ambiguous
        lifted[active[step], i] = best[step]
        rad = np.sqrt(row_dot(best - c, best - c))
        puncture = hit | (step & (rad <= PUNCTURE_TOL * f.epsilon0))
        outer = step & (rad > f.epsilon0 * (1.0 + 1e-12))
        status[active[puncture]] = HIT_PUNCTURE
        status[active[outer]] = HIT_OUTER_SPHERE
        active = active[step & ~puncture & ~outer]
    # a lift's vertices are a prefix of its row; drop the rest and repeated vertices
    keep = np.concatenate([np.ones((len(owner), 1), bool),
                           np.linalg.norm(np.diff(lifted, axis=1), axis=2) > 0.0], axis=1)
    sizes = keep.sum(axis=1)
    bad = failed.keys() | set(np.flatnonzero(sizes < 2).tolist())
    if bad:
        j = min(bad)
        raise failed[j] if j in failed else DomainError(
            f"image curve {owner[j]}: lift collapsed to a single point")
    pieces = np.split(lifted[keep], np.cumsum(sizes)[:-1])
    return [(Curve(pts), s) for pts, s in zip(pieces, status)]


def lift_curve(f: MappingSpec, image_curve: Curve, start) -> tuple[Curve, str]:
    """Lift an image curve through f, continuing along the nearest preimage branch.

    The lift begins at `start` (which must map to the curve's first vertex) and
    stops once it leaves the closure of the punctured ball, reporting whether it
    approached the puncture or crossed the bounding sphere.
    """
    start = np.asarray(start, dtype=float).ravel()
    first = image_curve.vertices[0]
    if np.linalg.norm(evaluate(f, start) - first) > START_TOL * max(1.0, float(np.linalg.norm(first))):
        raise ValueError("start point does not map to the first image vertex")
    return _lift_many(f, image_curve.vertices[None], np.array([0]), start[None])[0]


# ---------------------------------------------------------------------------
# Cluster set sampling
# ---------------------------------------------------------------------------

def _components(adjacency: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of a symmetric boolean adjacency matrix.

    Every node takes the least label among itself and its neighbours until no
    label changes, so each component ends up labelled by its smallest index.
    Returns the component count and labels numbered 0, 1, ... in order of
    each component's smallest index.
    """
    labels = np.arange(len(adjacency))
    while True:
        nearest = np.where(adjacency, labels, len(labels)).min(axis=1, initial=len(labels))
        new = np.minimum(labels, nearest)
        if np.array_equal(new, labels):
            break
        labels = new
    roots, labels = np.unique(labels, return_inverse=True)
    return len(roots), labels


def cluster_set_estimate(f: MappingSpec, x0, sample_radii: Sequence[float],
                         samples_per_radius: int = 64) -> list[ExtendedPoint]:
    """Representative limit points of f along spheres shrinking to the puncture.

    Images on the two smallest sample spheres are clustered by single linkage in
    the chordal metric at CLUSTER_THRESHOLD; each cluster is reported by its
    medoid, snapped to the point at infinity when the medoid is within the
    threshold of it.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    radii = sorted(float(r) for r in sample_radii)
    if not radii or radii[0] <= 0 or radii[-1] >= f.epsilon0:
        raise ValueError("sample radii must decrease to 0 inside the punctured ball")
    dirs = _directions(f.dim, samples_per_radius)
    pts = []
    for r in radii[:2]:
        pts.append(evaluate_many(f, x0 + r * dirs))
    images = np.vstack(pts)
    dist = chordal_matrix(images, images)
    # single linkage at the chordal threshold: the components of dist < threshold
    count, labels = _components(dist < CLUSTER_THRESHOLD)

    reps = []
    for label in range(count):
        members = np.flatnonzero(labels == label)
        sums = dist[np.ix_(members, members)].sum(axis=1)
        medoid = ExtendedPoint.of(images[members[np.argmin(sums)]])
        if chordal_distance(medoid, ExtendedPoint.infinity(f.dim)) < CLUSTER_THRESHOLD:
            reps.append(ExtendedPoint.infinity(f.dim))
        else:
            reps.append(medoid)
    # deduplicate representatives (e.g. several clusters near infinity)
    unique: list[ExtendedPoint] = []
    for r in reps:
        if all(chordal_distance(r, u) >= CLUSTER_THRESHOLD for u in unique):
            unique.append(r)
    return unique


def with_domain(f: MappingSpec, center: Sequence[float], epsilon0: float) -> MappingSpec:
    """The same zoo member re-rooted at a new punctured ball."""
    return replace(f, center=tuple(float(v) for v in center), epsilon0=float(epsilon0))
