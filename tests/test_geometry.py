"""Chordal metric, extended points, and spherical rings."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modlab.geometry import (ExtendedPoint, SphericalRing, chordal_distance,
                             chordal_matrix)

INF2 = ExtendedPoint.infinity(2)

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
point2 = st.tuples(coord, coord)


def stereographic(p: ExtendedPoint) -> np.ndarray:
    """Oracle: image on the sphere of diameter 1 touching the hyperplane at 0."""
    if p.is_infinity:
        out = np.zeros(p.dim + 1)
        out[-1] = 1.0
        return out
    x = p.as_array()
    s = 1.0 + float(x @ x)
    return np.append(x / s, float(x @ x) / s)


class TestChordalDistance:
    def test_origin_to_infinity(self):
        assert chordal_distance([0.0, 0.0], INF2) == 1.0

    def test_coincident(self):
        assert chordal_distance([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_origin_to_unit_vector(self):
        # chord length between the stereographic images of 0 and e1
        expected = np.linalg.norm(stereographic(ExtendedPoint.of([0, 0]))
                                  - stereographic(ExtendedPoint.of([1, 0])))
        assert expected == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert chordal_distance([0.0, 0.0], [1.0, 0.0]) == pytest.approx(
            0.7071067811865476, abs=1e-12)

    @given(point2, point2)
    def test_matches_stereographic_chord(self, a, b):
        pa, pb = ExtendedPoint.of(a), ExtendedPoint.of(b)
        chord = float(np.linalg.norm(stereographic(pa) - stereographic(pb)))
        assert chordal_distance(pa, pb) == pytest.approx(chord, abs=1e-12)

    @given(point2)
    def test_infinity_matches_stereographic_chord(self, a):
        pa = ExtendedPoint.of(a)
        chord = float(np.linalg.norm(stereographic(pa) - stereographic(INF2)))
        assert chordal_distance(pa, INF2) == pytest.approx(chord, abs=1e-12)

    @given(point2, point2)
    def test_symmetric_and_bounded(self, a, b):
        d = chordal_distance(a, b)
        assert d == chordal_distance(b, a)
        assert 0.0 <= d <= 1.0

    @given(point2, point2)
    def test_never_exceeds_euclidean(self, a, b):
        d = chordal_distance(a, b)
        assert d <= np.linalg.norm(np.subtract(a, b)) + 1e-15

    def test_triangle_inequality_with_infinity(self):
        rng = np.random.default_rng(7)
        pts = [ExtendedPoint.of(rng.uniform(-10, 10, 2)) for _ in range(40)]
        pts.append(INF2)
        for _ in range(400):
            x, y, z = rng.choice(len(pts), 3)
            hxz = chordal_distance(pts[x], pts[z])
            hxy = chordal_distance(pts[x], pts[y])
            hyz = chordal_distance(pts[y], pts[z])
            assert hxz <= hxy + hyz + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chordal_distance([0.0, 0.0], [0.0, 0.0, 0.0])

    def test_infinities_coincide(self):
        assert chordal_distance(INF2, ExtendedPoint.infinity(2)) == 0.0


class TestChordalSetDistance:
    def test_identical_sets(self):
        th = np.linspace(0, 2 * math.pi, 360, endpoint=False)
        circle = np.stack([np.cos(th), np.sin(th)], axis=1)
        assert chordal_matrix(circle, circle).min() == 0.0

    def test_concentric_circles(self):
        th = np.linspace(0, 2 * math.pi, 360, endpoint=False)
        inner = np.stack([np.cos(th), np.sin(th)], axis=1)
        outer = 3.0 * inner
        matrix = chordal_matrix(inner, outer)
        # scalar oracle on the same-angle pairs, where the minimum lies, and on
        # a strided sample of the other pairs
        pairs = [(i, i) for i in range(360)]
        pairs += [(i, j) for i in range(0, 360, 7) for j in range(3, 360, 11) if i != j]
        oracle = np.array([chordal_distance(inner[i], outer[j]) for i, j in pairs])
        rows, cols = np.array(pairs).T
        assert matrix[rows, cols] == pytest.approx(oracle, abs=1e-15)
        # |x - y| / sqrt((1 + 1)(1 + 9)) with |x - y| = 2 on one ray
        best = oracle[:360].min()
        assert best == pytest.approx(2.0 / math.sqrt(20.0), abs=1e-12)
        assert oracle.min() == best
        assert matrix.min() == pytest.approx(best, abs=1e-15)


class TestTypes:
    def test_ring_validation(self):
        with pytest.raises(ValueError):
            SphericalRing((0.0, 0.0), 2.0, 1.0)
        with pytest.raises(ValueError):
            SphericalRing((0.0, 0.0), 0.0, 1.0)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            ExtendedPoint.of([math.nan, 0.0])
        with pytest.raises(ValueError):
            ExtendedPoint((1.0,), 1)
