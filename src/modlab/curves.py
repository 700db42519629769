"""Sampled curves, curve families, grid densities, line integrals, and ring crossings.

Curves are piecewise-linear polylines; smooth prototypes are sampled with a
configurable vertex budget.  Densities are nonnegative and cell-centered on a
rectangular grid, and line integrals split every polyline segment at the cell
boundaries it crosses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .geometry import DEFAULT_SPHERE_TOL, SphericalRing, row_dot

# Vertex budget used when sampling smooth curve prototypes.
DEFAULT_VERTEX_BUDGET = 512


class NoCrossing(Exception):
    """Raised when a curve admits no ring-crossing subcurve."""


def _polylines(v: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Curve's checks on v's runs of `sizes` vertices (a join may repeat); v made read-only."""
    if v.ndim != 2 or (sizes < 2).any():
        raise ValueError("a curve needs at least two vertices")
    if not np.isfinite(v).all():
        raise ValueError("curve vertices must be finite")
    d = v[1:] - v[:-1]  # norm(d, axis=1) == 0 axis by axis, faster on a tall array
    zero = sum((x * x for x in d.T), np.zeros(len(d))) == 0.0
    zero[sizes[:-1].cumsum() - 1] = False  # the joins between polylines
    if zero.any():
        raise ValueError("consecutive curve vertices must be distinct")
    v.setflags(write=False)
    return v


class Curve:
    """An ordered polyline of finite vertices, parameterized by arc length."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        self.vertices = _polylines(v, np.array(v.shape[:1]))

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

    def __repr__(self):
        return f"Curve({self.n_vertices} vertices, dim={self.dim}, length={self.length():.4g})"


@dataclass(frozen=True)
class CurveFamily:
    """A finite family of curves standing in for a continuum family; frozen, curves a tuple."""

    curves: tuple[Curve, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        dims = {c.vertices.shape[1] for c in self.curves}
        if len(dims) > 1:
            raise ValueError("all curves in a family must share one dimension")

    @classmethod
    def from_arrays(cls, vertices, sizes, label: str = "") -> "CurveFamily":
        """The family of runs of `sizes` vertices: read-only views of one validated array."""
        v = np.array(vertices, dtype=float)
        sizes = np.asarray(sizes, dtype=np.int64)
        if v.ndim != 2 or sizes.sum() != len(v):
            raise ValueError("curve sizes must add up to the rows of a vertex array")
        _polylines(v, sizes)
        ends = np.cumsum(sizes)
        curves = [Curve.__new__(Curve) for _ in range(len(sizes))]
        for curve, a, b in zip(curves, (ends - sizes).tolist(), ends.tolist()):
            curve.vertices = v[a:b]
        family = cls(curves, label)
        object.__setattr__(family, "vertices", v)
        return family

    @cached_property
    def vertices(self) -> np.ndarray:
        """Every vertex, curve after curve, read-only: from_arrays' array, else joined once."""
        v = np.concatenate([c.vertices for c in self.curves])
        v.setflags(write=False)
        return v

    @property
    def dim(self) -> int:
        if not self.curves:
            raise ValueError("empty family has no dimension")
        return self.curves[0].dim

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self) -> Iterator[Curve]:
        return iter(self.curves)


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

    @cached_property
    def spacing(self) -> np.ndarray:
        h = (np.asarray(self.hi) - np.asarray(self.lo)) / np.asarray(self.shape)
        h.setflags(write=False)
        return h

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """lo, hi, the last index per axis and the row-major strides, built once."""
        strides = [math.prod(self.shape[a + 1:]) for a in range(self.dim)]
        return (np.asarray(self.lo), np.asarray(self.hi), np.asarray(self.shape) - 1,
                np.array(strides))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each point lies in the closed box lo <= p <= hi, faces included."""
        lo, hi, _, _ = self._arrays
        p = np.atleast_2d(points)
        return np.all((p >= lo) & (p <= hi), axis=1)

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Row-major flat index of the cell containing each point.

        A point on a grid plane goes to the cell above it, up to the rounding
        of (p - lo) / spacing; points on the hi face, or outside the box,
        clamp inward to the nearest cell on each axis.
        """
        lo, _, last, strides = self._arrays
        p = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((p - lo) / self.spacing).astype(np.int64)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, last, out=idx)
        return idx @ strides

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
    def zeros(spec: GridSpec) -> "GridDensity":
        return GridDensity(spec, np.zeros(spec.shape))

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def curve_cell_lengths(spec: GridSpec, gamma: Curve):
    """Length of gamma inside each grid cell it visits, as (flat indices, lengths).

    This is the sparse constraint row of the discrete modulus problem.  Every
    segment is cut at the grid planes it crosses, all segments and axes in one
    array pass (Amanatides-Woo traversal), and the pieces are summed per cell.
    """
    v = gamma.vertices
    if not spec.contains(v).all():
        raise ValueError("curve exits the grid bounds")
    a, d = v[:-1], v[1:] - v[:-1]
    length = np.sqrt(row_dot(d, d))
    lo, h, n = spec._arrays[0], spec.spacing, spec.dim
    c = (v - lo) / h
    jlo = np.ceil(np.minimum(c[:-1], c[1:]))
    hits = np.maximum(np.floor(np.maximum(c[:-1], c[1:])) - jlo + 1.0, 0.0).astype(np.int64)
    hits[d == 0.0] = 0  # a segment parallel to an axis's planes crosses none of them
    hits = hits.ravel()
    hit = np.arange(len(hits)).repeat(hits)  # segment * n + axis of every plane hit
    seg, k = np.divmod(hit, n)
    j = jlo.ravel()[hit] + (np.arange(len(hit)) - (hits.cumsum() - hits).repeat(hits))
    t = (lo[k] + j * h[k] - a.take(hit)) / d.take(hit)  # a[seg, k], gathered flat
    inside = (t > 0.0) & (t < 1.0)
    ends = np.arange(2 * len(d))  # each segment's t = 0 and t = 1
    seg = np.concatenate([ends >> 1, seg[inside]])
    ts = np.concatenate([ends & 1, t[inside]])
    order = np.lexsort((ts, seg))
    seg, ts = seg[order], ts[order]
    dt = ts[1:] - ts[:-1]
    # drop repeated hits (corner crossings) and ulp-wide slivers from near-corner ones
    keep = (seg[1:] == seg[:-1]) & (dt > 1e-13)
    seg = seg[:-1][keep]
    mids = a.take(seg, 0) + (0.5 * (ts[:-1] + ts[1:]))[keep][:, None] * d.take(seg, 0)
    lens = dt[keep] * length[seg]
    # np.unique(cells, return_inverse=True) without its wrapper: sort, flag, search
    cells = spec.cell_index(mids)
    uniq = np.sort(cells)
    uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
    # bincount adds from zero in input order, as np.add.at does
    return uniq, np.bincount(uniq.searchsorted(cells), lens, len(uniq))


def line_integral(rho: GridDensity, gamma: Curve) -> float:
    """Integral of rho along gamma: sum of sub-segment length times the cell value."""
    idx, lens = curve_cell_lengths(rho.spec, gamma)
    return float(rho.flat()[idx] @ lens)


# ---------------------------------------------------------------------------
# Ring crossings
# ---------------------------------------------------------------------------

def _crossing_events(gamma: Curve, ring: SphericalRing):
    """All sphere crossings of the polyline as (global parameter, sphere, point).

    The sphere is 0 (inner) or 1 (outer).  The quadratic of every segment and
    both radii is solved at once; a grazing tangency (double root) counts once.
    Vertices on a sphere (within the membership tolerance) count too, since the
    quadratic can miss those grazing contacts in floating point.
    """
    c = ring.center_array()
    r = np.array([ring.r_inner, ring.r_outer])
    v = gamma.vertices
    radii = np.linalg.norm(v - c, axis=1)
    on_sphere = np.abs(radii - r[:, None]) <= DEFAULT_SPHERE_TOL * np.maximum(1.0, r)[:, None]
    vertex_tag, vertex = np.nonzero(on_sphere)
    d = np.diff(v, axis=0)
    f = v[:-1] - c
    qa = row_dot(d, d)[:, None]
    qb = 2.0 * row_dot(f, d)[:, None]
    qc = row_dot(f, f)[:, None] - r * r
    with np.errstate(divide="ignore", invalid="ignore"):  # no real root gives nan
        sq = np.sqrt(qb * qb - 4.0 * qa * qc)
        roots = np.stack([(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)], axis=-1)
    valid = (roots >= 0.0) & (roots <= 1.0)
    valid[..., 1] &= sq != 0.0
    seg, tag, _ = np.nonzero(valid)  # ordered by (segment, sphere, root)
    s = roots[valid]
    ts = np.concatenate([vertex.astype(float), seg + s])
    tags = np.concatenate([vertex_tag, tag])
    pts = np.concatenate([v[vertex], v[seg] + s[:, None] * d[seg]])
    # drop duplicate events at shared vertices (s=1 of one segment, s=0 of the next)
    dedup = []
    for i in np.argsort(ts, kind="stable"):
        if dedup and tags[i] == dedup[-1][1] and abs(ts[i] - dedup[-1][0]) < 1e-9:
            continue
        dedup.append((ts[i], tags[i], pts[i]))
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


def _perpendiculars(u: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each row of u (rows of a 2-D or 3-D array)."""
    if u.shape[1] == 2:
        return np.stack([-u[:, 1], u[:, 0]], axis=1)
    # the unit vector on the axis where |u| is least, less its component along u
    rows, near = np.arange(len(u)), np.argmin(np.abs(u), axis=1)
    trial = np.zeros_like(u)
    trial[rows, near] = 1.0
    v = trial - u[rows, near][:, None] * u
    return v / np.sqrt(row_dot(v, v))[:, None]


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
    u = _directions(ring.dim, count)[:, None, :]
    if kind == "radial":
        pts = c + np.array([ring.r_inner, ring.r_outer])[:, None] * u
    elif kind == "spiral":
        total_angle = math.log(ring.r_outer / ring.r_inner) / pitch
        th = np.linspace(0.0, total_angle, vertex_budget)[:, None]
        rad = ring.r_inner * np.exp(pitch * th)
        pts = c + rad * (np.cos(th) * u + np.sin(th) * _perpendiculars(u[:, 0])[:, None, :])
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    label = f"{kind}({count}) joining spheres r={ring.r_inner:g},{ring.r_outer:g}"
    return CurveFamily.from_arrays(pts.reshape(-1, ring.dim), np.full(count, pts.shape[1]), label)


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
    """Read a family written by save_family, validated as one vertex array."""
    lines, label = [], ""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if line[1:].strip().startswith("label:"):
                    label = line.split("label:", 1)[1].strip()
            elif line:
                verts = [[float(x) for x in v.split(",")] for v in line.split(";")]
                lines.append(np.array(verts, dtype=float))
    if len({v.shape[1] for v in lines}) > 1:
        raise ValueError("all curves in a family must share one dimension")
    return CurveFamily.from_arrays(np.concatenate(lines or [np.empty((0, 0))]),
                                   [len(v) for v in lines], label)
