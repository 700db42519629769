"""Sampled curves, curve families, grid densities, line integrals, and ring crossings.

Curves are piecewise-linear polylines; smooth prototypes are sampled with a
configurable vertex budget.  Densities are nonnegative and cell-centered on a
rectangular grid, and line integrals split every polyline segment at the cell
boundaries it crosses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import SphericalRing

# Vertex budget used when sampling smooth curve prototypes.
DEFAULT_VERTEX_BUDGET = 512


class NoCrossing(Exception):
    """Raised when a curve admits no ring-crossing subcurve."""


class Curve:
    """An ordered polyline of finite vertices, parameterized by arc length."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("a curve needs at least two vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("curve vertices must be finite")
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
        if np.any(seg == 0.0):
            raise ValueError("consecutive curve vertices must be distinct")
        v.setflags(write=False)
        self.vertices = v

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)

    def length(self) -> float:
        return float(self.segment_lengths().sum())

    def start(self) -> np.ndarray:
        return self.vertices[0]

    def end(self) -> np.ndarray:
        return self.vertices[-1]

    def __repr__(self):
        return f"Curve({self.n_vertices} vertices, dim={self.dim}, length={self.length():.4g})"


def resample(curve: Curve, n_vertices: int) -> Curve:
    """Resample a curve at n_vertices arclength-uniform parameter values."""
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    seg = curve.segment_lengths()
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.linspace(0.0, cum[-1], n_vertices)
    out = np.empty((n_vertices, curve.dim))
    j = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[j]) / seg[j]
    out = curve.vertices[j] + t[:, None] * (curve.vertices[j + 1] - curve.vertices[j])
    keep = np.concatenate([[True], np.linalg.norm(np.diff(out, axis=0), axis=1) > 0.0])
    return Curve(out[keep])


@dataclass
class CurveFamily:
    """A finite family of curves standing in for a continuum family."""

    curves: list[Curve] = field(default_factory=list)
    label: str = ""

    def __post_init__(self):
        dims = {c.dim for c in self.curves}
        if len(dims) > 1:
            raise ValueError("all curves in a family must share one dimension")

    @property
    def dim(self) -> int:
        if not self.curves:
            raise ValueError("empty family has no dimension")
        return self.curves[0].dim

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self) -> Iterator[Curve]:
        return iter(self.curves)

    def __getitem__(self, i) -> Curve:
        return self.curves[i]


# ---------------------------------------------------------------------------
# Grids and densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box split into a rectangular grid of cells."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        shape = tuple(int(v) for v in self.shape)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        if not (len(lo) == len(hi) == len(shape)):
            raise ValueError("lo, hi, shape must have equal length")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("grid box must have positive extent on every axis")
        if any(s < 2 for s in shape):
            raise ValueError("resolution must be >= 2 cells per axis")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / np.asarray(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.all((p >= np.asarray(self.lo)) & (p <= np.asarray(self.hi)), axis=1)

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Flat index of the cell containing each point (boundary points clip inward)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((p - np.asarray(self.lo)) / self.spacing).astype(np.int64)
        np.clip(idx, 0, np.asarray(self.shape) - 1, out=idx)
        return np.ravel_multi_index(idx.T, self.shape)

    def cell_center(self, flat_index: np.ndarray) -> np.ndarray:
        """Coordinates of cell centers for flat indices."""
        multi = np.unravel_index(np.asarray(flat_index), self.shape)
        cols = [self.lo[a] + self.spacing[a] * (multi[a] + 0.5) for a in range(self.dim)]
        return np.stack(cols, axis=-1)


@dataclass
class GridDensity:
    """Nonnegative, cell-centered density on a grid; the modulus variable."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.spec.shape:
            v = v.reshape(self.spec.shape)
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite and nonnegative")
        self.values = v

    @staticmethod
    def uniform(spec: GridSpec, value: float) -> "GridDensity":
        return GridDensity(spec, np.full(spec.shape, float(value)))

    @staticmethod
    def zeros(spec: GridSpec) -> "GridDensity":
        return GridDensity(spec, np.zeros(spec.shape))

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def _segment_cell_lengths(spec: GridSpec, a: np.ndarray, b: np.ndarray):
    """Split segment a->b at grid planes; return (flat cell indices, lengths)."""
    d = b - a
    length = math.sqrt(float(d @ d))
    if length == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    lo = np.asarray(spec.lo)
    h = spec.spacing
    pieces = [np.array([0.0, 1.0])]
    for k in range(spec.dim):
        if d[k] == 0.0:
            continue
        c0 = (a[k] - lo[k]) / h[k]
        c1 = (b[k] - lo[k]) / h[k]
        jlo, jhi = math.ceil(min(c0, c1)), math.floor(max(c0, c1))
        if jhi >= jlo:
            t = (lo[k] + np.arange(jlo, jhi + 1) * h[k] - a[k]) / d[k]
            pieces.append(t[(t > 0.0) & (t < 1.0)])
    ts = np.unique(np.concatenate(pieces))
    dt = ts[1:] - ts[:-1]
    keep = dt > 1e-13  # drop ulp-wide slivers from near-corner crossings
    mids = a[None, :] + 0.5 * (ts[:-1] + ts[1:])[keep][:, None] * d[None, :]
    lens = dt[keep] * length
    return spec.cell_index(mids), lens


def curve_cell_lengths(spec: GridSpec, gamma: Curve):
    """Length of gamma inside each grid cell it visits, as (flat indices, lengths).

    This is the sparse constraint row of the discrete modulus problem.
    """
    if not np.all(spec.contains(gamma.vertices)):
        raise ValueError("curve exits the grid bounds")
    idx_parts, len_parts = [], []
    v = gamma.vertices
    for i in range(len(v) - 1):
        fi, li = _segment_cell_lengths(spec, v[i], v[i + 1])
        idx_parts.append(fi)
        len_parts.append(li)
    flat = np.concatenate(idx_parts)
    lens = np.concatenate(len_parts)
    uniq, inv = np.unique(flat, return_inverse=True)
    acc = np.zeros(len(uniq))
    np.add.at(acc, inv, lens)
    return uniq, acc


def line_integral(rho: GridDensity, gamma: Curve) -> float:
    """Integral of rho along gamma: sum of sub-segment length times the cell value."""
    idx, lens = curve_cell_lengths(rho.spec, gamma)
    return float(rho.flat()[idx] @ lens)


# ---------------------------------------------------------------------------
# Ring crossings
# ---------------------------------------------------------------------------

def _sphere_crossings(a: np.ndarray, b: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
    """Parameters s in [0, 1] where segment a + s(b-a) meets the sphere |x-c| = r.

    Solves the quadratic exactly; a grazing tangency (double root) counts once.
    """
    d = b - a
    f = a - center
    qa = float(d @ d)
    qb = 2.0 * float(f @ d)
    qc = float(f @ f) - r * r
    if qa == 0.0:
        return np.empty(0)
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return np.empty(0)
    sq = math.sqrt(disc)
    roots = np.array([(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)])
    if sq == 0.0:
        roots = roots[:1]
    return roots[(roots >= 0.0) & (roots <= 1.0)]


def _crossing_events(gamma: Curve, ring: SphericalRing):
    """All sphere crossings of the polyline as (global parameter, sphere tag, point).

    Vertices sitting on a sphere (within the membership tolerance) count as
    crossings too; the quadratic can miss those grazing contacts in floating
    point.
    """
    from .geometry import DEFAULT_SPHERE_TOL

    c = ring.center_array()
    events = []
    v = gamma.vertices
    radii = np.linalg.norm(v - c, axis=1)
    for tag, r in (("inner", ring.r_inner), ("outer", ring.r_outer)):
        tol = DEFAULT_SPHERE_TOL * max(1.0, r)
        for i in np.nonzero(np.abs(radii - r) <= tol)[0]:
            events.append((float(i), tag, v[i]))
    for i in range(len(v) - 1):
        for tag, r in (("inner", ring.r_inner), ("outer", ring.r_outer)):
            for s in _sphere_crossings(v[i], v[i + 1], c, r):
                t = i + float(s)
                events.append((t, tag, v[i] + s * (v[i + 1] - v[i])))
    events.sort(key=lambda e: e[0])
    # drop duplicate events at shared vertices (s=1 of one segment, s=0 of the next)
    dedup = []
    for e in events:
        if dedup and e[1] == dedup[-1][1] and abs(e[0] - dedup[-1][0]) < 1e-9:
            continue
        dedup.append(e)
    return dedup


def crossing_subcurve(gamma: Curve, ring: SphericalRing) -> Curve:
    """Extract the first subcurve that crosses the ring from one sphere to the other.

    The result starts on one bounding sphere, ends on the other, and its interior
    stays inside the closed ring.  Among all candidates the earliest admissible
    crossing pair is returned.  Raises NoCrossing when the curve never traverses
    the ring.
    """
    if gamma.dim != ring.dim:
        raise ValueError("curve and ring dimension mismatch")
    events = _crossing_events(gamma, ring)
    pair = None
    for e1, e2 in zip(events, events[1:]):
        if e1[1] != e2[1]:
            pair = (e1, e2)
            break
    if pair is None:
        raise NoCrossing("curve has no subcurve traversing the ring")
    (t1, _, p1), (t2, _, p2) = pair
    i1 = math.floor(t1)
    i2 = math.floor(t2)
    inner = gamma.vertices[i1 + 1:i2 + 1]
    pts = [p1] + list(inner) + [p2]
    out = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - out[-1]) > 1e-13 * max(1.0, float(np.linalg.norm(p))):
            out.append(p)
    if len(out) < 2:
        raise NoCrossing("crossing subcurve degenerated to a point")
    return Curve(np.asarray(out))


def minorizes(family: CurveFamily, ring: SphericalRing) -> tuple[bool, CurveFamily]:
    """Does every curve of the family contain a ring-crossing subcurve?

    Returns the flag together with the family of extracted subcurves (only the
    successful extractions when the answer is negative).  The label records the
    sample size on which the certificate was computed.
    """
    extracted = []
    ok = True
    for curve in family:
        try:
            extracted.append(crossing_subcurve(curve, ring))
        except NoCrossing:
            ok = False
    label = (f"ring crossings of '{family.label}' "
             f"({len(extracted)}/{len(family.curves)} of sampled curves)")
    return ok, CurveFamily(extracted, label)


# ---------------------------------------------------------------------------
# Family generation
# ---------------------------------------------------------------------------

def _directions(dim: int, count: int) -> np.ndarray:
    """count unit vectors, equidistributed: uniform angles (n=2), Fibonacci sphere (n=3)."""
    if dim == 2:
        th = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if dim == 3:
        i = np.arange(count) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / count
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    raise ValueError("curve generation supports dimensions 2 and 3 only")


def _perpendicular(u: np.ndarray) -> np.ndarray:
    if len(u) == 2:
        return np.array([-u[1], u[0]])
    trial = np.zeros_like(u)
    trial[int(np.argmin(np.abs(u)))] = 1.0
    v = trial - (trial @ u) * u
    return v / np.linalg.norm(v)


def generate_ring_family(ring: SphericalRing, count: int, kind: str = "radial",
                         pitch: float = 1.0,
                         vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> CurveFamily:
    """Sample the family joining the two spheres of a ring inside its closure.

    radial: straight segments at equidistributed directions.
    spiral: logarithmic spirals r = r_inner * exp(pitch * theta), sampled with
    the vertex budget, winding in the plane spanned by each direction and a
    fixed perpendicular.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    c = ring.center_array()
    dirs = _directions(ring.dim, count)
    curves = []
    if kind == "radial":
        for u in dirs:
            curves.append(Curve([c + ring.r_inner * u, c + ring.r_outer * u]))
    elif kind == "spiral":
        total_angle = math.log(ring.r_outer / ring.r_inner) / pitch
        th = np.linspace(0.0, total_angle, vertex_budget)
        rad = ring.r_inner * np.exp(pitch * th)
        for u in dirs:
            v = _perpendicular(u)
            pts = c + rad[:, None] * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v)
            curves.append(Curve(pts))
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    label = f"{kind}({count}) joining spheres r={ring.r_inner:g},{ring.r_outer:g}"
    return CurveFamily(curves, label)


# ---------------------------------------------------------------------------
# Plain-text serialization (one curve per record)
# ---------------------------------------------------------------------------

def save_family(family: CurveFamily, path) -> None:
    """Write a family as text: one line per curve, vertices 'x,y,...' joined by ';'."""
    with open(path, "w") as fh:
        if family.label:
            fh.write(f"# label: {family.label}\n")
        for curve in family:
            fh.write(";".join(",".join(f"{x:.17g}" for x in v) for v in curve.vertices))
            fh.write("\n")


def load_family(path) -> CurveFamily:
    curves = []
    label = ""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line[1:].strip().startswith("label:"):
                    label = line.split("label:", 1)[1].strip()
                continue
            verts = [[float(x) for x in v.split(",")] for v in line.split(";")]
            curves.append(Curve(verts))
    return CurveFamily(curves, label)
