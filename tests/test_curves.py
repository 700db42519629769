"""Curves, families, grid densities, line integrals, and ring crossings."""

import math
import re

import numpy as np
import pytest

from modlab.curves import (Curve, CurveFamily, GridDensity, GridSpec,
                           NoCrossing, _directions, crossing_subcurve,
                           curve_cell_lengths, generate_ring_family,
                           line_integral, load_family, minorizes,
                           save_family)
from modlab.geometry import SphericalRing
from modlab.mappings import radial_stretch, winding
from modlab.modulus import family_grid, ring_grid
from modlab.verifier import LIFT_VERTEX_BUDGET, lifted_ring_family


def brute_force_crossing(curve: Curve, ring: SphericalRing, n_scan=200_000):
    """Oracle: scan a dense parameterization for the first ring traversal."""
    c = ring.center_array()
    seg = curve.segment_lengths()
    ts = np.linspace(0.0, len(seg), n_scan)
    i = np.clip(ts.astype(int), 0, len(seg) - 1)
    loc = ts - i
    pts = curve.vertices[i] + loc[:, None] * (curve.vertices[i + 1] - curve.vertices[i])
    r = np.linalg.norm(pts - c, axis=1)
    dr = r[:, None] - np.array([ring.r_inner, ring.r_outer])
    # sign changes between scan points j-1 and j, in (j, inner before outer) order
    changes = (dr[:-1] * dr[1:] <= 0.0) & (r[:-1] != r[1:])[:, None]
    band = None  # (start index, sphere first touched)
    for j, tag in zip(*np.nonzero(changes)):
        j += 1
        if band is None:
            band = (j, tag)
        elif band[1] != tag:
            return ts[band[0]], ts[j]
        else:
            band = (j, tag)
    return None


def reference_box(spec: GridSpec):
    """Oracle: the grid's lo corner, spacing and shape, as arrays built here."""
    lo, shape = np.asarray(spec.lo), np.asarray(spec.shape)
    return lo, (np.asarray(spec.hi) - lo) / shape, shape


def reference_cell_index(spec: GridSpec, points: np.ndarray) -> np.ndarray:
    """Oracle: floor, np.clip to shape - 1 and np.ravel_multi_index."""
    lo, h, shape = reference_box(spec)
    idx = np.floor((points - lo) / h).astype(np.int64)
    return np.ravel_multi_index(np.clip(idx, 0, shape - 1).T, spec.shape)


def reference_cell_lengths(spec: GridSpec, gamma: Curve):
    """Oracle: the per-segment row arithmetic, one segment at a time."""
    lo, h, _ = reference_box(spec)
    idx_parts, len_parts = [], []
    for a, b in zip(gamma.vertices[:-1], gamma.vertices[1:]):
        d = b - a
        length = math.sqrt(float(d @ d))
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
        keep = dt > 1e-13
        mids = a[None, :] + 0.5 * (ts[:-1] + ts[1:])[keep][:, None] * d[None, :]
        idx_parts.append(reference_cell_index(spec, mids))
        len_parts.append(dt[keep] * length)
    uniq, inv = np.unique(np.concatenate(idx_parts), return_inverse=True)
    acc = np.zeros(len(uniq))
    np.add.at(acc, inv, np.concatenate(len_parts))
    return uniq, acc


def reference_ring_family(ring: SphericalRing, count: int, kind: str,
                          pitch: float = 1.0, vertex_budget: int = 512):
    """Oracle: the vertices of each generated curve, one direction at a time."""
    c = ring.center_array()
    curves = []
    for u in _directions(ring.dim, count):
        if kind == "radial":
            curves.append(np.array([c + ring.r_inner * u, c + ring.r_outer * u]))
            continue
        if len(u) == 2:
            v = np.array([-u[1], u[0]])
        else:
            trial = np.zeros_like(u)
            trial[int(np.argmin(np.abs(u)))] = 1.0
            v = trial - (trial @ u) * u
            v = v / np.linalg.norm(v)
        th = np.linspace(0.0, math.log(ring.r_outer / ring.r_inner) / pitch, vertex_budget)
        rad = ring.r_inner * np.exp(pitch * th)
        curves.append(c + rad[:, None] * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v))
    return curves


class TestCurveBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Curve([[0.0, 0.0]])
        with pytest.raises(ValueError):
            Curve([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            Curve([[0.0, 0.0], [math.inf, 0.0]])

    def test_length(self):
        c = Curve([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        assert c.length() == pytest.approx(7.0)

    def test_family_dimension_check(self):
        with pytest.raises(ValueError):
            CurveFamily([Curve([[0, 0], [1, 0]]), Curve([[0, 0, 0], [1, 0, 0]])])

    def test_serialization_roundtrip(self, tmp_path):
        # spiral, 3-D radial, lifted and list-built families come back exactly,
        # as one array whose views are the curves
        path = tmp_path / "family.txt"
        for fam in [
            generate_ring_family(SphericalRing((0.5, -0.25), 1.0, 2.0), 5, "spiral"),
            generate_ring_family(SphericalRing((0.1, 0.2, 0.3), 0.3, 0.9), 7),
            lifted_ring_family(winding(3), (0.0, 0.0), 0.1, 0.4, 16),
            CurveFamily([Curve([[0.0, 0.0], [1.0, 1.0]]), Curve([[1.0, 1.0], [0.1, 1e-300]])]),
        ]:
            save_family(fam, path)
            back = load_family(path)
            assert back.label == fam.label
            assert [c.n_vertices for c in back] == [c.n_vertices for c in fam]
            assert back.vertices.tobytes() == fam.vertices.tobytes()
            assert all(c.vertices.base is back.vertices for c in back)


def reference_load_line(line: str) -> Curve:
    """Oracle: one curve record parsed and checked on its own, as Curve does."""
    return Curve([[float(x) for x in v.split(",")] for v in line.split(";")])


class TestLoadFamily:
    """A family file is read into one vertex array and validated once."""

    @pytest.mark.parametrize("line", [
        "0,0;1,zero", "0,0;1", "0,0,0;1,1", "0,0;;1,1", "0,0", "0,0;inf,1", "0,0;nan,1",
        "0,0;1,1;1,1;2,0",
    ], ids=["unparsable", "ragged", "ragged-3d", "blank-vertex", "single-vertex",
            "infinite", "nan", "repeated-vertex"])
    def test_bad_record_raises_curves_error(self, tmp_path, line):
        with pytest.raises(ValueError) as expected:
            reference_load_line(line)
        path = tmp_path / "family.txt"
        path.write_text(f"# label: bad\n0.5,0.5;1.5,0.5\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            load_family(path)

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("0,0;1,0\n0,0,0;1,0,0\n")
        with pytest.raises(ValueError, match="one dimension"):
            load_family(path)

    @pytest.mark.parametrize("text", ["", "# label: none\n\n"])
    def test_empty_file_has_no_dimension(self, tmp_path, text):
        path = tmp_path / "family.txt"
        path.write_text(text)
        fam = load_family(path)
        assert len(fam) == 0
        with pytest.raises(ValueError, match="empty family has no dimension"):
            fam.dim


class TestFamilyFromArrays:
    """A family cut from one vertex array is validated once, with Curve's checks."""

    @pytest.mark.parametrize("bad", [
        [[0.0, 0.0]],
        [[0.0, 0.0], [math.nan, 1.0]],
        [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]],
    ])
    def test_bad_curve_raises_curves_error(self, bad):
        with pytest.raises(ValueError) as expected:
            Curve(bad)
        good = [[5.0, 5.0], [6.0, 5.0]]
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            CurveFamily.from_arrays(good + bad, [2, len(bad)])

    def test_sizes_must_cover_the_vertices(self):
        with pytest.raises(ValueError, match="add up"):
            CurveFamily.from_arrays([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [2])

    def test_join_may_repeat_a_vertex(self):
        fam = CurveFamily.from_arrays([[0, 0], [1, 0], [1, 0], [1, 1]], [2, 2], "joined")
        assert fam.label == "joined"
        assert [c.vertices.tolist() for c in fam] == [[[0, 0], [1, 0]], [[1, 0], [1, 1]]]

    def test_curves_are_read_only(self):
        fam = CurveFamily.from_arrays([[0, 0], [1, 0], [1, 0], [1, 1]], [2, 2])
        with pytest.raises(ValueError):
            fam.curves[1].vertices[0, 0] = 2.0

    def test_iteration_builds_no_curves(self):
        # the curves are built once, with the family; iterating only reads them
        fam = generate_ring_family(SphericalRing((0.0, 0.0), 1.0, 2.0), 8, "spiral")
        first = list(fam)
        assert all(a is b for a, b in zip(first, fam, strict=True))

    def test_vertices_are_the_validated_array(self):
        given = np.array([[0, 0], [1, 0], [1, 0], [1, 1], [2, 1]], dtype=float)
        fam = CurveFamily.from_arrays(given, [2, 3])
        assert fam.vertices is fam.vertices and not fam.vertices.flags.writeable
        assert all(c.vertices.base is fam.vertices for c in fam)
        assert fam.vertices.tobytes() == given.tobytes()
        with pytest.raises(ValueError):
            fam.vertices[0, 0] = 2.0

    def test_list_family_joins_its_curves_once_when_read(self):
        curves = list(generate_ring_family(SphericalRing((0.0, 0.0), 1.0, 2.0), 4, "spiral"))
        curves.append(Curve([[0.0, 0.0], [1.0, 0.5]]))
        fam = CurveFamily(curves, "listed")
        assert all(a is b for a, b in zip(fam, curves, strict=True))
        assert "vertices" not in vars(fam)  # the constructor packs nothing
        packed = fam.vertices
        assert packed is fam.vertices and not packed.flags.writeable
        assert packed.tobytes() == np.concatenate([c.vertices for c in curves]).tobytes()

    def test_curves_cannot_change_after_vertices_are_read(self):
        # the curves are a tuple of a frozen family, so vertices never misses a
        # curve appended to them or a tuple assigned in their place
        ring = SphericalRing((0.0, 0.0), 1.0, 2.0)
        given = list(generate_ring_family(ring, 4, "spiral"))
        curve = Curve([[0.0, 0.0], [1.0, 0.5]])
        for fam in (generate_ring_family(ring, 4), CurveFamily(given), CurveFamily(iter(given))):
            packed = fam.vertices
            with pytest.raises(AttributeError):
                fam.curves.append(curve)
            with pytest.raises(AttributeError):
                fam.curves = fam.curves + (curve,)
            assert len(fam) == 4 and fam.vertices is packed
        # a family built from any iterable yields the curves it was given, and
        # from_arrays' curves stay views of its vertices
        assert all(a is b for a, b in zip(CurveFamily(iter(given)), given, strict=True))
        arrays = generate_ring_family(ring, 4)
        assert all(c.vertices.base is arrays.vertices for c in arrays)

    def test_mixed_dimensions_rejected(self):
        flat = CurveFamily.from_arrays([[0, 0], [1, 0]], [2])
        solid = CurveFamily.from_arrays([[0, 0, 0], [1, 0, 0]], [2])
        with pytest.raises(ValueError, match="one dimension"):
            CurveFamily(list(flat) + list(solid))


class TestLineIntegral:
    GRID = GridSpec((-0.5, -0.5), (3.5, 0.5), (64, 16))

    def test_unit_density_gives_length(self):
        rho = GridDensity(self.GRID, np.ones(self.GRID.shape))
        seg = Curve([[0.0, 0.0], [3.0, 0.0]])
        assert line_integral(rho, seg) == pytest.approx(3.0, abs=1e-12)

    def test_zero_density(self):
        rho = GridDensity.zeros(self.GRID)
        assert line_integral(rho, Curve([[0.0, 0.0], [2.5, 0.3]])) == 0.0

    def test_reciprocal_density_on_ring(self):
        # exact value: integral of 1/(r log 2) over r in [1, 2] equals 1
        spec = GridSpec((-2.0, -2.0), (2.0, 2.0), (512, 512))
        centers = spec.cell_center(np.arange(spec.n_cells))
        rho = GridDensity(spec, 1.0 / (np.linalg.norm(centers, axis=1) * math.log(2.0)))
        seg = Curve([[1.0, 0.0], [2.0, 0.0]])
        assert line_integral(rho, seg) == pytest.approx(1.0, abs=1e-2)

    def test_additive_under_concatenation(self):
        rng = np.random.default_rng(3)
        spec = GridSpec((0.0, 0.0), (1.0, 1.0), (32, 32))
        rho = GridDensity(spec, rng.uniform(0.0, 2.0, spec.shape))
        a = Curve([[0.1, 0.1], [0.5, 0.7], [0.6, 0.2]])
        b = Curve([[0.6, 0.2], [0.9, 0.9]])
        total = line_integral(rho, Curve(np.vstack([a.vertices, b.vertices[1:]])))
        assert total == pytest.approx(line_integral(rho, a) + line_integral(rho, b),
                                      abs=1e-12)

    def test_monotone_in_density(self):
        rng = np.random.default_rng(4)
        spec = GridSpec((0.0, 0.0), (1.0, 1.0), (16, 16))
        v1 = rng.uniform(0.0, 1.0, spec.shape)
        v2 = v1 + rng.uniform(0.0, 1.0, spec.shape)
        curve = Curve(rng.uniform(0.05, 0.95, (6, 2)))
        assert line_integral(GridDensity(spec, v1), curve) <= \
            line_integral(GridDensity(spec, v2), curve)

    def test_curve_outside_bounds(self):
        rho = GridDensity(self.GRID, np.ones(self.GRID.shape))
        with pytest.raises(ValueError):
            line_integral(rho, Curve([[0.0, 0.0], [10.0, 0.0]]))

    def test_cell_lengths_cover_curve(self):
        spec = GridSpec((0.0, 0.0), (1.0, 1.0), (13, 7))
        curve = Curve([[0.05, 0.05], [0.93, 0.81], [0.11, 0.92]])
        _, lens = curve_cell_lengths(spec, curve)
        assert lens.sum() == pytest.approx(curve.length(), abs=1e-12)


# square and non-square grids in 2-D and 3-D; the non-square shapes catch a
# flat index that mixes up the axes' strides
ROW_GRIDS = [
    GridSpec((0.0, 0.0), (1.0, 1.0), (16, 16)),
    GridSpec((-0.3, 0.2), (0.7, 1.9), (13, 7)),
    GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (8, 8, 8)),
    GridSpec((-1.0, -0.5, 0.25), (1.0, 0.5, 1.0), (11, 6, 5)),
]


class TestCellIndexAgainstReference:
    """cell_index is the clip-and-ravel arithmetic, boundary points included."""

    @pytest.mark.parametrize("spec", ROW_GRIDS)
    def test_points(self, spec):
        rng = np.random.default_rng(spec.n_cells)
        lo, h, shape = reference_box(spec)
        hi = np.asarray(spec.hi)
        inside = rng.uniform(lo, hi, (500, spec.dim))
        planes = lo + rng.integers(0, shape + 1, (500, spec.dim)) * h
        on_plane = np.where(rng.random((500, spec.dim)) < 0.5, planes, inside)
        faces = np.where(rng.random((500, spec.dim)) < 0.5, lo, hi)
        on_face = np.where(rng.random((500, spec.dim)) < 0.4, faces, inside)
        corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(spec.dim, -1).T
        outside = rng.uniform(lo - (hi - lo), hi + (hi - lo), (500, spec.dim))
        for points in (inside, planes, on_plane, on_face, corners, outside):
            idx = spec.cell_index(points)
            assert idx.dtype == np.int64
            assert np.array_equal(idx, reference_cell_index(spec, points))
        # one point as a 1-D array gives a one-element index
        assert np.array_equal(spec.cell_index(inside[0]), reference_cell_index(spec, inside[:1]))


class TestCellLengthsAgainstReference:
    """The array row kernel gives the per-segment rows bit for bit."""

    @staticmethod
    def _polyline(rng, spec, n_vertices):
        # vertices drawn from the grid planes, the corners, or anywhere,
        # and repeated coordinates for axis-parallel segments
        lo, hi, h = np.asarray(spec.lo), np.asarray(spec.hi), spec.spacing
        shape = np.asarray(spec.shape)
        while True:
            v = rng.uniform(lo, hi, (n_vertices, spec.dim))
            on_plane = rng.random(v.shape) < 0.3
            planes = lo + rng.integers(0, shape + 1, v.shape) * h
            v = np.where(on_plane, planes, v)
            corner = rng.random(n_vertices) < 0.15
            v[corner] = lo + rng.integers(0, shape + 1, (corner.sum(), spec.dim)) * h
            for i in range(1, n_vertices):
                same = rng.random(spec.dim) < 0.25
                v[i, same] = v[i - 1, same]
            v = np.clip(v, lo, hi)
            if np.all(np.linalg.norm(np.diff(v, axis=0), axis=1) > 0.0):
                return Curve(v)

    @pytest.mark.parametrize("spec", ROW_GRIDS)
    def test_random_polylines(self, spec):
        rng = np.random.default_rng(spec.n_cells)
        for n_vertices in [2] * 40 + list(range(3, 33)):
            curve = self._polyline(rng, spec, n_vertices)
            idx, lens = curve_cell_lengths(spec, curve)
            ref_idx, ref_lens = reference_cell_lengths(spec, curve)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(lens, ref_lens)

    def test_lifted_family(self):
        fam = lifted_ring_family(winding(3), (0.0, 0.0), 0.1, 0.4, 16)
        assert len(fam) == 48
        assert {c.n_vertices for c in fam} == {LIFT_VERTEX_BUDGET}
        spec = family_grid(fam, 64)
        for curve in fam:
            idx, lens = curve_cell_lengths(spec, curve)
            ref_idx, ref_lens = reference_cell_lengths(spec, curve)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(lens, ref_lens)

    def test_stretch_lift_on_suite_grid(self):
        # the grid the Poletski check puts on a lifted family: a ring grid about
        # the family's bounding box, shifted half a cell; family_grid's per-axis
        # arithmetic gives the box and radius of the axis reductions here exactly
        solid = lifted_ring_family(winding(3, dim=3), (0.15, 0.05, 0.1), 0.02, 0.1, 64)
        fam = lifted_ring_family(radial_stretch(3.0), (0.0, 0.0), 0.01, 0.08, 256)
        for family, resolution in ((solid, 24), (fam, 128)):
            pts = np.concatenate([c.vertices for c in family])
            mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            R = float(np.linalg.norm(pts - mid, axis=1).max())
            spec = ring_grid(SphericalRing(tuple(mid), R / 2, R), resolution, len(family))
            grid = family_grid(family, resolution)
            assert (grid.lo, grid.hi, grid.shape) == (spec.lo, spec.hi, spec.shape)
        for curve in fam:
            idx, lens = curve_cell_lengths(spec, curve)
            ref_idx, ref_lens = reference_cell_lengths(spec, curve)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(lens, ref_lens)

    @pytest.mark.parametrize("spec", ROW_GRIDS)
    def test_box_is_closed(self, spec):
        lo, hi = np.asarray(spec.lo), np.asarray(spec.hi)
        mid = 0.5 * (lo + hi)
        for curve in (Curve([lo, mid, hi]), Curve([hi, lo]), Curve([mid, hi, lo])):
            idx, lens = curve_cell_lengths(spec, curve)
            ref_idx, ref_lens = reference_cell_lengths(spec, curve)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(lens, ref_lens)
        for axis in range(spec.dim):
            for end, away in ((hi, math.inf), (lo, -math.inf)):
                out = end.copy()
                out[axis] = np.nextafter(end[axis], away)
                with pytest.raises(ValueError, match="curve exits the grid bounds"):
                    curve_cell_lengths(spec, Curve([mid, out]))

    def test_diagonal_through_corners(self):
        spec = GridSpec((0.0, 0.0), (1.0, 1.0), (10, 10))
        curve = Curve([[0.0, 0.0], [1.0, 1.0], [0.0, 0.5]])
        idx, lens = curve_cell_lengths(spec, curve)
        ref_idx, ref_lens = reference_cell_lengths(spec, curve)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(lens, ref_lens)
        assert lens.sum() == pytest.approx(curve.length(), abs=1e-12)


class TestCrossingSubcurve:
    RING = SphericalRing((0.0, 0.0), 1.0, 2.0)

    def test_collinear_segment(self):
        sub = crossing_subcurve(Curve([[0.0, 0.0], [3.0, 0.0]]), self.RING)
        assert np.allclose(sub.vertices[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(sub.vertices[-1], [2.0, 0.0], atol=1e-12)

    def test_inside_ring_no_crossing(self):
        th = np.linspace(0.0, 1.0, 20)
        arc = Curve(np.stack([1.5 * np.cos(th), 1.5 * np.sin(th)], axis=1))
        with pytest.raises(NoCrossing):
            crossing_subcurve(arc, self.RING)

    def test_tangency_counts(self):
        # grazes the inner sphere at (0, 1) then leaves the ring outward
        curve = Curve([[-1.5, 1.0], [1.5, 1.0], [1.5, 3.0]])
        sub = crossing_subcurve(curve, self.RING)
        radii = np.linalg.norm(sub.vertices, axis=1)
        assert {round(radii[0], 9), round(radii[-1], 9)} == {1.0, 2.0}

    def test_outward_to_inward_configuration(self):
        sub = crossing_subcurve(Curve([[2.5, 0.4], [0.1, 0.0]]), self.RING)
        r0 = np.linalg.norm(sub.vertices[0])
        r1 = np.linalg.norm(sub.vertices[-1])
        assert r0 == pytest.approx(2.0, abs=1e-9)
        assert r1 == pytest.approx(1.0, abs=1e-9)

    def _random_zigzag(self, rng):
        # from inside the inner ball to outside the outer sphere, oscillating
        n = rng.integers(6, 16)
        radii = np.concatenate([[rng.uniform(0.1, 0.5)],
                                rng.uniform(0.3, 2.4, n - 2),
                                [rng.uniform(2.5, 3.0)]])
        angles = np.cumsum(rng.uniform(-0.8, 0.8, n))
        return Curve(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))

    def test_random_zigzags_against_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            curve = self._random_zigzag(rng)
            sub = crossing_subcurve(curve, self.RING)
            radii = np.linalg.norm(sub.vertices, axis=1)
            assert {round(radii[0], 6), round(radii[-1], 6)} == {1.0, 2.0}
            assert abs(radii[0] - 1.0) < 1e-9 or abs(radii[0] - 2.0) < 1e-9
            assert abs(radii[-1] - 1.0) < 1e-9 or abs(radii[-1] - 2.0) < 1e-9
            assert np.all((radii > 1.0 - 1e-9) & (radii < 2.0 + 1e-9))
            scan = brute_force_crossing(curve, self.RING)
            assert scan is not None

    def test_subcurve_is_contiguous_piece(self):
        curve = Curve([[0.2, 0.0], [0.5, 1.3], [2.6, 0.7]])
        sub = crossing_subcurve(curve, self.RING)
        # interior vertices of the subcurve are vertices of the original
        for v in sub.vertices[1:-1]:
            assert min(np.linalg.norm(curve.vertices - v, axis=1)) < 1e-12


class TestMinorizes:
    RING = SphericalRing((0.3, -0.2), 1.0, 2.0)

    def test_radial_family_minorizes(self):
        rng = np.random.default_rng(5)
        curves = []
        for _ in range(30):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            curves.append(Curve([self.RING.center_array() + 0.1 * u,
                                 self.RING.center_array() + 5.0 * u]))
        ok, extracted = minorizes(CurveFamily(curves, "radial"), self.RING)
        assert ok
        assert len(extracted) == 30
        assert "30/30" in extracted.label

    def test_inner_arcs_do_not_minorize(self):
        th = np.linspace(0.0, 2.0, 12)
        c = self.RING.center_array()
        arcs = [Curve(c + 0.5 * np.stack([np.cos(th + p), np.sin(th + p)], axis=1))
                for p in (0.0, 1.0)]
        ok, extracted = minorizes(CurveFamily(arcs, "inner arcs"), self.RING)
        assert not ok
        assert len(extracted) == 0

    def test_random_oscillating_family(self):
        rng = np.random.default_rng(21)
        c = self.RING.center_array()
        curves = []
        for _ in range(100):
            n = rng.integers(5, 12)
            radii = np.concatenate([[rng.uniform(0.2, 0.9)],
                                    rng.uniform(0.5, 2.2, n - 2),
                                    [rng.uniform(2.2, 4.0)]])
            ang = np.cumsum(rng.uniform(-0.5, 0.5, n))
            curves.append(Curve(c + np.stack([radii * np.cos(ang),
                                              radii * np.sin(ang)], axis=1)))
        ok, extracted = minorizes(CurveFamily(curves, "oscillating"), self.RING)
        assert ok
        for sub in extracted:
            radii = np.linalg.norm(sub.vertices - c, axis=1)
            assert np.all((radii > 1.0 - 1e-9) & (radii < 2.0 + 1e-9))

    def test_admissibility_transfers_to_original_family(self):
        # a density admissible for the extracted subcurves is admissible for
        # the originals, because each original contains its subcurve
        rng = np.random.default_rng(8)
        c = self.RING.center_array()
        curves = []
        for _ in range(20):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            mid = c + rng.uniform(1.2, 1.8) * u
            curves.append(Curve([c + 0.3 * u, mid, c + 3.5 * u]))
        family = CurveFamily(curves, "three-point")
        ok, extracted = minorizes(family, self.RING)
        assert ok
        spec = GridSpec(tuple(c - 4.0), tuple(c + 4.0), (96, 96))
        for trial in range(5):
            rho = GridDensity(spec, rng.uniform(0.0, 3.0, spec.shape))
            sub_integrals = [line_integral(rho, s) for s in extracted]
            if min(sub_integrals) >= 1.0:
                assert min(line_integral(rho, g) for g in family) >= 1.0 - 1e-12


class TestGenerateRingFamily:
    def test_four_radial_directions(self):
        fam = generate_ring_family(SphericalRing((0.0, 0.0), 1.0, 2.0), 4)
        starts = np.array([c.vertices[0] for c in fam])
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(starts, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["radial", "spiral"])
    def test_generated_curves_cross_their_ring(self, kind):
        ring = SphericalRing((1.0, 2.0), 0.5, 1.5)
        fam = generate_ring_family(ring, 16, kind)
        assert len(fam) == 16
        for curve in fam:
            sub = crossing_subcurve(curve, ring)
            radii = np.linalg.norm(sub.vertices - ring.center_array(), axis=1)
            assert np.all((radii > 0.5 - 1e-9) & (radii < 1.5 + 1e-9))

    def test_spiral_spans_radii(self):
        ring = SphericalRing((0.0, 0.0), 1.0, math.e)
        fam = generate_ring_family(ring, 3, "spiral")
        for curve in fam:
            r = np.linalg.norm(curve.vertices, axis=1)
            assert r[0] == pytest.approx(1.0, abs=1e-12)
            assert r[-1] == pytest.approx(math.e, rel=1e-12)
            assert np.all(np.diff(r) > 0)

    def test_three_dimensional_directions(self):
        ring = SphericalRing((0.0, 0.0, 0.0), 1.0, 2.0)
        fam = generate_ring_family(ring, 64)
        starts = np.array([c.vertices[0] for c in fam])
        assert np.allclose(np.linalg.norm(starts, axis=1), 1.0, atol=1e-12)
        # equidistribution: mean direction near zero
        assert np.linalg.norm(starts.mean(axis=0)) < 0.1

    def test_count_validation(self):
        with pytest.raises(ValueError):
            generate_ring_family(SphericalRing((0.0, 0.0), 1.0, 2.0), 0)

    @pytest.mark.parametrize("kind", ["radial", "spiral"])
    @pytest.mark.parametrize("center", [(0.37, -1.25), (0.3, -0.7, 1.9)])
    def test_matches_per_direction_construction(self, kind, center):
        ring = SphericalRing(center, 0.4, 1.7)
        fam = generate_ring_family(ring, 37, kind, pitch=0.5, vertex_budget=33)
        ref = reference_ring_family(ring, 37, kind, pitch=0.5, vertex_budget=33)
        assert len(fam) == len(ref)
        for curve, vertices in zip(fam, ref):
            assert np.array_equal(curve.vertices, vertices)
