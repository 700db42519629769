"""Analytic ring modulus, admissible functions, and the discrete solver."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from modlab import modulus
from modlab.curves import (Curve, CurveFamily, GridSpec, curve_cell_lengths,
                           generate_ring_family)
from modlab.geometry import SphericalRing
from modlab.mappings import image_ball, radial_stretch, winding
from modlab.modulus import (RADIAL_NODES, EtaFunction, SolverBudgetExceeded, admissible_check,
                            blowup_experiment, blowup_family, discrete_modulus,
                            family_grid,
                            power_eta, reciprocal_eta,
                            ring_grid, ring_modulus_analytic, uniform_eta,
                            unit_sphere_area, weighted_rhs_integral)
from modlab.verifier import default_etas, lifted_ring_family


def reference_ring_grid(ring: SphericalRing, resolution: int, family_size: int) -> GridSpec:
    """Oracle: ring_grid's box computed on numpy arrays."""
    r2 = ring.r_outer
    if ring.dim == 2:
        spacing = 2.0 * math.pi * r2 / family_size
    else:
        spacing = math.sqrt(4.0 * math.pi * r2 * r2 / family_size)
    half = max(r2 * (1.0 + 2.0 / resolution), spacing * resolution / 2.0)
    c = ring.center_array() - half / resolution
    return GridSpec(tuple(c - half), tuple(c + half), (resolution,) * ring.dim)


class TestAnalyticFormulas:
    def test_sphere_areas(self):
        assert unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15, abs=0.0)
        assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15, abs=0.0)
        assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15, abs=0.0)
        assert unit_sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-15, abs=0.0)
        assert unit_sphere_area(6) == pytest.approx(math.pi ** 3, rel=1e-15, abs=0.0)

    def test_ring_modulus_values(self):
        assert ring_modulus_analytic(2, 1.0, math.e) == pytest.approx(2 * math.pi)
        assert ring_modulus_analytic(3, 1.0, math.e) == pytest.approx(4 * math.pi)
        assert ring_modulus_analytic(2, 1.0, math.e ** 10) == pytest.approx(
            2 * math.pi / 10)

    def test_scaling_property(self):
        # the modulus depends only on the ratio of the radii
        assert ring_modulus_analytic(2, 0.5, 0.5 * math.e ** 10) == pytest.approx(
            ring_modulus_analytic(2, 1.0, math.e ** 10), rel=1e-14)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            ring_modulus_analytic(2, 2.0, 1.0)


class TestEta:
    def test_uniform_examples(self):
        eta = uniform_eta(1.0, 2.0)
        assert eta(1.5) == pytest.approx(1.0)
        ok, integral = admissible_check(eta, 1.0, 2.0)
        assert ok and integral == pytest.approx(1.0, abs=1e-15)

        eta_e = uniform_eta(1.0, math.e)
        assert eta_e(2.0) == pytest.approx(0.5819767068693265, abs=1e-12)

    def test_zero_eta_inadmissible(self):
        # supported on (3, 4), so it vanishes on all of (1, 2)
        eta = uniform_eta(3.0, 4.0)
        ok, integral = admissible_check(eta, 1.0, 2.0)
        assert not ok and integral == 0.0

    def test_reciprocal_integral(self):
        eta = reciprocal_eta(1.0, math.e)
        ok, integral = admissible_check(eta, 1.0, math.e)
        assert ok and integral == pytest.approx(1.0, abs=1e-10)
        # quadrature oracle for the closed form
        r = np.linspace(1.0 + 1e-9, math.e - 1e-9, 400_001)
        assert np.trapezoid(eta(r), r) == pytest.approx(1.0, abs=1e-6)

    def test_power_eta_normalized(self):
        for s in (-0.5, 0.0, 1.0, 2.5):
            eta = power_eta(0.3, 1.7, s)
            ok, integral = admissible_check(eta, 0.3, 1.7)
            assert ok and integral == pytest.approx(1.0, abs=1e-12)

    def test_uniform_exact_for_random_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.uniform(0.01, 10.0)
            b = a + rng.uniform(0.01, 50.0)
            ok, integral = admissible_check(uniform_eta(a, b), a, b)
            assert ok and abs(integral - 1.0) <= 1e-15

    def test_negative_levels_rejected(self):
        # c r^s is negative only on a reversed support; that and every other
        # support outside 0 < r1 < r2 < inf, or an exponent that is not
        # finite, is rejected with the bad value named
        for r1, r2, exponent, named in [
                (2.0, 1.0, 0.0, "(2.0, 1.0)"),
                (0.0, 1.0, -1.0, "(0.0, 1.0)"),      # log(r2/r1) divides by zero
                (-1.0, 1.0, 0.5, "(-1.0, 1.0)"),     # r^1.5 of r < 0 is complex
                (1.0, math.inf, 0.0, "(1.0, inf)"),
                (math.nan, 1.0, 0.0, "(nan, 1.0)"),
                (1.0, 2.0, math.nan, "got nan"),
                (1.0, 2.0, -math.inf, "got -inf")]:
            with pytest.raises(ValueError, match=re.escape(named)):
                EtaFunction(r1, r2, exponent)

    def test_kind_reads_the_exponent(self):
        assert [e.kind for e in default_etas(1.0, 2.0)] == ["uniform", "reciprocal", "power"]
        assert [e.describe() for e in default_etas(1.0, 2.0)] == [
            "uniform on (1,2)", "1/(r log(r2/r1)) on (1,2)", "power(s=1) on (1,2)"]
        assert power_eta(1.0, 2.0, 0.0) == uniform_eta(1.0, 2.0)

    def test_no_warning_outside_the_support(self):
        # r^s is taken only inside (r1, r2); r = 0 with s < 0 would warn
        eta = power_eta(0.5, 2.0, -1.5)
        r = np.array([-1.0, 0.0, 0.25, 1.0, 3.0])
        values = eta(r)
        assert values[[0, 1, 2, 4]].tolist() == [0.0] * 4
        assert values[3] == eta._power_coeff()


def ball_share(dim: int, d: float, R: float, r: float) -> float:
    """Closed-form share of a sphere of radius r inside a ball of radius R at distance d.

    The arc fraction theta/pi in 2-D and the cap area (1 - cos theta)/2 in 3-D,
    theta being the angle of the boundary circle seen from the sphere's center.
    """
    cos = min(1.0, max(-1.0, (r * r + d * d - R * R) / (2.0 * r * d)))
    return math.acos(cos) / math.pi if dim == 2 else (1.0 - cos) / 2.0


class TestWeightedRhsIntegral:
    RING = SphericalRing((0.0, 0.0), 1.0, 2.0)

    def test_uniform_eta_gives_annulus_area(self):
        value, = weighted_rhs_integral([uniform_eta(1.0, 2.0)], self.RING)
        assert value == pytest.approx(3 * math.pi, rel=1e-12)

    @staticmethod
    def masked_volume(ring):
        # uniform eta is 1/(r2 - r1), so the right-hand side is volume / (r2 - r1)^n;
        # an image ball that contains the ring must leave the volume whole
        r1, r2 = ring.r_inner, ring.r_outer
        value, = weighted_rhs_integral([uniform_eta(r1, r2)], ring,
                                       ("ball", ring.center, 2.0 * r2))
        return value * (r2 - r1) ** ring.dim

    def test_masked_volume(self):
        vol = self.masked_volume(self.RING)
        assert vol == pytest.approx(3 * math.pi, rel=1e-12)

    def test_masked_volume_3d(self):
        ring = SphericalRing((0.0, 0.0, 0.0), 0.5, 1.0)
        vol = self.masked_volume(ring)
        assert vol == pytest.approx(4 * math.pi / 3 * (1.0 - 0.125), rel=1e-12)

    @pytest.mark.parametrize("dim, r1, r2", [(2, 1.0, math.e), (3, 0.1, 0.4)],
                             ids=["2d", "3d"])
    def test_reciprocal_eta_ring(self, dim, r1, r2):
        # the extremal eta turns the right-hand side into the ring modulus
        ring = SphericalRing((0.0,) * dim, r1, r2)
        value, = weighted_rhs_integral([reciprocal_eta(r1, r2)], ring)
        assert value == pytest.approx(ring_modulus_analytic(dim, r1, r2), rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("ratio", [4.0, math.e, 10.0, 1000.0, 1e4])
    @pytest.mark.parametrize("exponent", [0.0, -1.0, 1.0],
                             ids=["uniform", "reciprocal", "power"])
    def test_concentric_closed_forms(self, dim, ratio, exponent):
        # eta = c r^s on (1, ratio) gives |S^(n-1)| c^n (r2^k - r1^k) / k with
        # k = n (s + 1), and the ring modulus at s = -1
        r1, r2 = 1.0, ratio
        eta = EtaFunction(r1, r2, exponent)
        if exponent == -1.0:
            exact = ring_modulus_analytic(dim, r1, r2)
        else:
            s1 = exponent + 1.0
            c, k = s1 / (r2 ** s1 - r1 ** s1), dim * s1
            exact = unit_sphere_area(dim) * c ** dim * (r2 ** k - r1 ** k) / k
        value, = weighted_rhs_integral([eta], SphericalRing((0.0,) * dim, r1, r2))
        assert value == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["uniform", "reciprocal"])
    def test_concentric_ring_straddles_mask(self, dim, kind):
        # the image of radial_stretch(2) is the ball of radius 0.5^2 = 0.25,
        # so only (0.1, 0.25) of the ring (0.1, 0.4) counts
        f = radial_stretch(2.0, dim=dim, epsilon0=0.5)
        shape, R = image_ball(f)
        ring = SphericalRing((0.0,) * dim, 0.1, 0.4)
        if kind == "uniform":
            eta = uniform_eta(0.1, 0.4)
            radial = (0.25 ** dim - 0.1 ** dim) / (dim * 0.3 ** dim)
        else:
            eta = reciprocal_eta(0.1, 0.4)
            radial = math.log(2.5) / math.log(4.0) ** dim
        value, = weighted_rhs_integral([eta], ring, (shape, f.center, R))
        assert value == pytest.approx(unit_sphere_area(dim) * radial, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("image, R, offset, r1, r2", [
        ("ball", 0.5, 0.2, 0.05, 0.45),      # the ring straddles the image ball
        ("ball", 0.5, 0.6, 0.2, 0.5),        # the ring is centered outside it
        ("exterior", 2.0, 2.2, 0.1, 0.6),    # outside the ball of radius 1/0.5
        ("ball", 0.12, 0.36, 0.2, 1.0),      # a small cap of each sphere
        ("ball", 0.5, 0.2, "|R-d|", 0.6),    # ring ends on the share's kinks
        ("ball", 0.5, 0.2, 0.05, "R+d"),
        ("exterior", 2.0, 2.2, "|R-d|", 0.6),
    ], ids=["ball-0.2-0.05-0.45", "ball-0.6-0.2-0.5", "exterior-2.2-0.1-0.6",
            "small_cap-0.36-0.2-1.0", "ball-0.2-kink-0.6", "ball-0.2-0.05-kink",
            "exterior-2.2-kink-0.6"])
    def test_off_center_ball_masks(self, dim, image, R, offset, r1, r2):
        kink = {"|R-d|": abs(R - offset), "R+d": R + offset}
        r1, r2 = kink.get(r1, r1), kink.get(r2, r2)
        exterior = image == "exterior"
        ring = SphericalRing((offset,) + (0.0,) * (dim - 1), r1, r2)
        for eta in (uniform_eta(r1, r2), reciprocal_eta(r1, r2), power_eta(r1, r2)):
            def integrand(r):
                share = ball_share(dim, offset, R, r)
                return (float(eta(r)) ** dim * r ** (dim - 1)
                        * (1.0 - share if exterior else share))

            kinks = [k for k in (abs(R - offset), R + offset) if r1 < k < r2]
            radial, _ = quad(integrand, r1, r2, points=kinks or None,
                             epsabs=0.0, epsrel=1e-12, limit=200)
            value, = weighted_rhs_integral([eta], ring, (image, (0.0,) * dim, R))
            assert value == pytest.approx(unit_sphere_area(dim) * radial, rel=1e-12)

    # the ring (0.05, 0.45) about (0.2, 0, ...) straddles the image ball of
    # radius 0.5: the share of its spheres is 1 below r = 0.3 and partial above
    STRADDLE_R1, STRADDLE_R2 = 0.05, 0.45

    def straddling(self, dim):
        ring = SphericalRing((0.2,) + (0.0,) * (dim - 1), self.STRADDLE_R1, self.STRADDLE_R2)
        return ring, ("ball", (0.0,) * dim, 0.5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_etas_in_one_call(self, dim):
        ring, image = self.straddling(dim)
        etas = default_etas(self.STRADDLE_R1, self.STRADDLE_R2)
        alone = [weighted_rhs_integral([eta], ring, image)[0] for eta in etas]
        assert weighted_rhs_integral(etas, ring, image) == alone

    def test_piecewise_breakpoint_shared(self):
        ring, image = self.straddling(2)
        r1, r2, b = self.STRADDLE_R1, self.STRADDLE_R2, 0.37  # b: a partial share
        etas = [uniform_eta(r1, b), power_eta(b, r2, -0.5), *default_etas(r1, r2)]
        together = weighted_rhs_integral(etas, ring, image)
        for eta, value in zip(etas, together):
            alone, = weighted_rhs_integral([eta], ring, image)
            # the support end b is a breakpoint of every eta's pieces, which
            # moves the ones that run across it within the rule's accuracy
            assert value == pytest.approx(alone, rel=1e-14, abs=0.0)

    def test_inadmissible_eta_rejected(self):
        # c r on (0.5, 2) has integral (4 - 1) / (4 - 0.25) = 0.8 over (1, 2)
        bad = power_eta(0.5, 2.0, 1.0)
        assert bad.integral(1.0, 2.0) == pytest.approx(0.8, rel=1e-15, abs=0.0)
        with pytest.raises(ValueError):
            weighted_rhs_integral([bad], self.RING)

    def test_admissible_over_the_ring(self):
        # admissible on its own support (0.5, 3), but only 0.4 of it lies in (1, 2)
        with pytest.raises(ValueError, match="inadmissible"):
            weighted_rhs_integral([uniform_eta(0.5, 3.0)], self.RING)


def unit_square_family(count):
    ys = (np.arange(count) + 0.5) / count
    return CurveFamily([Curve([[0.0, y], [1.0, y]]) for y in ys],
                       "side-joining segments")


class TestDiscreteModulus:
    def test_empty_family(self):
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (8, 8))
        result = discrete_modulus(CurveFamily([], "empty"), grid, p=2.0)
        assert result.value == 0.0
        assert result.active_constraints == 0

    def test_rectangle_small(self):
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (64, 64))
        result = discrete_modulus(unit_square_family(64), grid, p=2.0, tol=1e-3)
        assert result.value == pytest.approx(1.0, rel=0.02)
        assert result.residual <= 1e-9

    def test_wide_rectangle_side_ratio(self):
        # width 2, height 1: modulus of side-joining curves equals height/width
        grid = GridSpec((0.0, 0.0), (2.0, 1.0), (64, 32))
        ys = (np.arange(32) + 0.5) / 32
        fam = CurveFamily([Curve([[0.0, y], [2.0, y]]) for y in ys], "wide")
        result = discrete_modulus(fam, grid, p=2.0, tol=1e-3)
        assert result.value == pytest.approx(0.5, rel=0.02)

    def test_ring_family_small(self):
        ring = SphericalRing((0.0, 0.0), 1.0, math.e)
        fam = generate_ring_family(ring, 96)
        grid = ring_grid(ring, 96, 96)
        result = discrete_modulus(fam, grid, p=2.0, tol=3e-3)
        assert result.value == pytest.approx(2 * math.pi, rel=0.05)

    def test_monotone_under_inclusion(self):
        # weak duality certifies M(sub) <= M(full) with no slack: a subfamily's
        # dual value is below its modulus, which is below any feasible energy
        rng = np.random.default_rng(17)
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (16, 16))
        for _ in range(120):
            pts = rng.uniform(0.1, 0.9, (rng.integers(2, 9), rng.integers(2, 4), 2))
            full = CurveFamily([Curve(p) for p in pts], "B")
            sub = CurveFamily([Curve(p) for p in pts[:rng.integers(1, len(pts))]], "A")
            lower = discrete_modulus(sub, grid, p=2.0, tol=1e-3).lower_bound
            assert lower <= discrete_modulus(full, grid, p=2.0, tol=1e-3).value

    def test_ring_grid_matches_array_formula(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3):
            for center in [(0.0,) * dim, tuple(rng.uniform(-5.0, 5.0, dim))]:
                r1 = rng.uniform(0.01, 2.0)
                ring = SphericalRing(center, r1, r1 * rng.uniform(1.1, 20.0))
                for resolution, family_size in [(24, 64), (128, 256), (256, 48), (7, 5000)]:
                    grid = ring_grid(ring, resolution, family_size)
                    ref = reference_ring_grid(ring, resolution, family_size)
                    assert (grid.lo, grid.hi, grid.shape) == (ref.lo, ref.hi, ref.shape)
                    assert np.array_equal(grid.spacing, ref.spacing)

    def test_conformal_invariance_under_scaling(self):
        # a similarity of the ring carries ring_grid's cells along with it, so
        # the discrete problem, and with it the solver's path, is the same
        ring = SphericalRing((0.0, 0.0), 1.0, 2.0)
        base = discrete_modulus(generate_ring_family(ring, 48), ring_grid(ring, 128, 48),
                                p=2.0, tol=1e-3)
        ring2 = SphericalRing((0.7, -0.2), 2.5, 5.0)
        scaled = discrete_modulus(generate_ring_family(ring2, 48), ring_grid(ring2, 128, 48),
                                  p=2.0, tol=1e-3)
        assert scaled.value == pytest.approx(base.value, rel=1e-13, abs=0.0)
        assert scaled.iterations == base.iterations

    def test_invariance_under_quarter_rotation(self):
        # the geometric kernel is exactly equivariant: rotating a curve by 90
        # degrees permutes its cell decomposition with bit-identical lengths
        from modlab.curves import curve_cell_lengths
        ring = SphericalRing((0.0, 0.0), 1.0, 2.0)
        fam = generate_ring_family(ring, 48)
        # the rotation must map the grid onto itself: a box symmetric about the
        # ring's center, the size ring_grid(ring, 64, 48) gives, without its
        # half-cell shift
        half = 2.0 * math.pi * 2.0 / 48 * 64 / 2.0
        grid = GridSpec((-half, -half), (half, half), (64, 64))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        fam2 = CurveFamily([Curve(c.vertices @ rot.T) for c in fam], "rotated")
        for a, b in zip(fam, fam2):
            _, la = curve_cell_lengths(grid, a)
            _, lb = curve_cell_lengths(grid, b)
            assert np.allclose(np.sort(la), np.sort(lb), rtol=1e-12, atol=1e-15)
        # the solved value agrees to solver tolerance (the iterative path is
        # not bitwise equivariant, so machine-level agreement is out of reach)
        base = discrete_modulus(fam, grid, p=2.0, tol=1e-3).value
        rotated = discrete_modulus(fam2, grid, p=2.0, tol=1e-3).value
        assert rotated == pytest.approx(base, rel=5e-3)

    def test_three_dimensional_ring_coarse(self):
        # coarse 3-D cross-check of the analytic formula at four thousand curves
        ring = SphericalRing((0.0, 0.0, 0.0), 1.0, math.e)
        fam = generate_ring_family(ring, 4000)
        grid = ring_grid(ring, 48, 4000)
        result = discrete_modulus(fam, grid, p=3.0, tol=5e-3, budget=500_000)
        assert result.value == pytest.approx(4 * math.pi, rel=0.10)

    def test_single_curve_closed_form(self):
        # one curve with cell lengths l has 2-modulus cell_volume / sum(l^2);
        # the dual reaches that optimum, where only rounding separates the bounds
        from modlab.curves import curve_cell_lengths
        for n in (8, 16, 19, 32):
            grid = GridSpec((0.0, 0.0), (1.0, 1.0), (n, n))
            for vertices in ([[0.1, 0.2], [0.8, 0.7]], [[0.1, 0.1], [0.9, 0.3], [0.4, 0.8]]):
                curve = Curve(vertices)
                result = discrete_modulus(CurveFamily([curve], "one"), grid, p=2.0, tol=1e-3)
                _, lengths = curve_cell_lengths(grid, curve)
                exact = grid.cell_volume / float(lengths @ lengths)
                assert result.value == pytest.approx(exact, rel=1e-12)
                assert result.lower_bound <= result.value

    def test_returned_density_is_feasible(self):
        from modlab.curves import line_integral
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (32, 32))
        fam = unit_square_family(16)
        result = discrete_modulus(fam, grid, p=2.0, tol=1e-3)
        worst = min(line_integral(result.density, c) for c in fam)
        assert worst >= 1.0 - 1e-9

    def test_budget_exceeded_carries_upper_bound(self):
        ring = SphericalRing((0.0, 0.0), 1.0, math.e)
        fam = generate_ring_family(ring, 96)
        grid = ring_grid(ring, 96, 96)
        with pytest.raises(SolverBudgetExceeded) as info:
            discrete_modulus(fam, grid, p=2.0, tol=1e-6, budget=12)
        assert info.value.best_value is not None
        assert info.value.best_value >= 2 * math.pi * (1.0 - 0.05)

    def test_bracket_is_certified(self):
        ring = SphericalRing((0.0, 0.0), 1.0, math.e)
        fam = generate_ring_family(ring, 256)
        grid = ring_grid(ring, 256, 256)
        results = [discrete_modulus(fam, grid, p=2.0, tol=tol) for tol in (3e-3, 1e-4)]
        for tol, result in zip((3e-3, 1e-4), results):
            assert result.lower_bound <= result.value
            assert (result.value - result.lower_bound) / result.value <= tol
        # weak duality: any dual value is below any feasible energy
        coarse, fine = results
        assert coarse.lower_bound <= fine.value
        assert fine.lower_bound <= coarse.value

    def test_low_exponent_rejected(self):
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (8, 8))
        with pytest.raises(ValueError):
            discrete_modulus(unit_square_family(2), grid, p=1.0)

    def test_report_fields(self):
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (16, 16))
        result = discrete_modulus(unit_square_family(8), grid, p=2.0, tol=1e-3)
        report = result.to_report()
        assert set(report) == {"value", "lower_bound", "iterations",
                               "active_constraints", "residual", "grid",
                               "family_size"}
        assert report["family_size"] == 8


def oracle_case(name):
    """The ring, rectangle and mixed radial/spiral oracle families with their grids."""
    ring = SphericalRing((0.0, 0.0), 1.0, math.e)
    if name == "ring":
        return generate_ring_family(ring, 256), ring_grid(ring, 256, 256)
    if name == "rectangle":
        return unit_square_family(256), GridSpec((0.0, 0.0), (1.0, 1.0), (256, 256))
    spiral = generate_ring_family(ring, 128, kind="spiral", pitch=0.5, vertex_budget=32)
    family = CurveFamily(list(generate_ring_family(ring, 128)) + list(spiral), "mixed")
    return family, ring_grid(ring, 256, 256)


@pytest.mark.parametrize("name", ["ring", "rectangle", "mixed"])
def test_residual_matches_csr_product(name):
    # the solver's products must sum each row in CSR order, so its residual
    # equals the one from scipy's CSR matrix bit for bit
    family, grid = oracle_case(name)
    result = discrete_modulus(family, grid, p=2.0, tol=3e-3)
    rows = [curve_cell_lengths(grid, c) for c in family]
    indptr = np.concatenate([[0], np.cumsum([len(cells) for cells, _ in rows])])
    A = sp.csr_matrix((np.concatenate([lengths for _, lengths in rows]),
                       np.concatenate([cells for cells, _ in rows]), indptr),
                      shape=(len(rows), grid.n_cells))
    rho = result.density.values.ravel()
    assert result.residual == max(0.0, 1.0 - (A @ rho).min())


def reference_dual_ascent(row, cell, length, n_cells, w, p, lam, tol, budget):
    """Oracle: the dual ascent as first written, with a fresh array per product."""
    q = 1.0 / (p - 1.0)
    m = len(lam)
    lower, upper, best_rho = -math.inf, math.inf, None

    def state(lam):
        nonlocal lower, upper, best_rho
        s = np.bincount(cell, length * lam[row], n_cells)
        rho = (s / (p * w)) ** q
        integrals = np.bincount(row, length * rho[cell], m)
        g = lam.sum() - (1.0 - 1.0 / p) * float(s @ rho)
        lower = max(lower, g)
        least = integrals.min()
        if least > 0.0:
            rho = rho / least
            energy = float(np.sum(w * rho ** p))
            if energy < upper:
                upper, best_rho = energy, rho
        return g, 1.0 - integrals

    g, grad = state(lam)
    evals = 1
    step = 1.0
    while best_rho is None or upper - lower > tol * upper:
        if evals >= budget:
            raise SolverBudgetExceeded(
                f"no convergence within {budget} dual iterations (bracket "
                f"[{lower:.6g}, {upper:.6g}], tol {tol:g})",
                upper if best_rho is not None else None)
        # monotone safeguard around the BB proposal
        while True:
            lam_new = np.maximum(0.0, lam + step * grad)
            g_new, grad_new = state(lam_new)
            evals += 1
            if g_new >= g - 1e-14 * max(1.0, abs(g)) or step < 1e-15 or evals >= budget:
                break
            step *= 0.5
        dl = lam_new - lam
        dg = grad_new - grad
        curv = float(dl @ dg)
        if curv < 0.0:
            step = float(dl @ dl) / (-curv)
        else:
            step *= 2.0
        lam, g, grad = lam_new, g_new, grad_new
    return lam, best_rho, lower, upper, evals


def reference_case(name):
    """A family, its grid and the exponent: the oracles at p = 2, a spiral family
    at p = 1.5 (q = 2) and p = 4 (q = 1/3), and a 3-D lifted family at p = 3 (q = 0.5)."""
    if name in ("ring", "rectangle", "mixed"):
        return *oracle_case(name), 2.0
    if name == "winding-3d":
        family = lifted_ring_family(winding(3, dim=3), (0.0, 0.0, 0.0), 0.05, 0.3, 64)
        return family, family_grid(family, 24), 3.0
    ring = SphericalRing((0.0, 0.0), 1.0, math.e)
    spiral = generate_ring_family(ring, 128, kind="spiral", pitch=0.5, vertex_budget=32)
    return spiral, ring_grid(ring, 128, 128), float(name.split("-")[1])


@pytest.mark.parametrize("name", ["ring", "rectangle", "mixed", "spiral-1.5", "spiral-4",
                                  "winding-3d"])
def test_dual_ascent_matches_reference(monkeypatch, name):
    # the in-place products and powers repeat the reference's arithmetic, so
    # the solve is the same bit for bit
    family, grid, p = reference_case(name)
    got = discrete_modulus(family, grid, p=p, tol=3e-3)
    monkeypatch.setattr(modulus, "_dual_ascent", reference_dual_ascent)
    ref = discrete_modulus(family, grid, p=p, tol=3e-3)
    assert (got.value, got.lower_bound, got.iterations, got.active_constraints) == \
        (ref.value, ref.lower_bound, ref.iterations, ref.active_constraints)
    assert np.array_equal(got.density.values, ref.density.values)


@pytest.mark.parametrize("name, units", [("rectangle", 7.0), ("ring", 4.0)])
def test_solve_peak_memory(name, units):
    # the traced peak of a warmed solve, in 256^2-cell float64 arrays: the
    # rows once, at most three grid-sized arrays and one entry-sized product
    # (6.03 and 3.42 units; the rows list and a fresh array per product gave
    # 9.14 and 4.80)
    family, grid = oracle_case(name)
    discrete_modulus(family, grid, p=2.0, tol=3e-3)
    tracemalloc.start()
    try:
        discrete_modulus(family, grid, p=2.0, tol=3e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (65536 * 8) <= units


@pytest.mark.parametrize("f, r1, r2, count", [(winding(2), 0.1, 0.4, 128),
                                               (radial_stretch(0.5), 0.15, 0.6, 256),
                                               (winding(5), 0.1, 0.4, 51)],
                         ids=["winding2", "stretch0.5", "winding5"])
def test_lift_peak_memory(f, r1, r2, count):
    # the traced peak of a warmed lift, in the units above: each (lift, vertex)
    # temporary freed once used (1.36-1.38 units; holding them to the end of
    # each function gave 2.17, 1.98 and 2.04)
    lifted_ring_family(f, (0.0, 0.0), r1, r2, count)
    tracemalloc.start()
    try:
        lifted_ring_family(f, (0.0, 0.0), r1, r2, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (65536 * 8) <= 1.5


def test_radial_rule_is_leggauss():
    # modlab computes the rule without numpy.polynomial; only the test imports it
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(RADIAL_NODES)
    assert np.array_equal(modulus._GL_NODES, nodes)
    assert np.array_equal(modulus._GL_WEIGHTS, weights)


class TestRingGrid:
    def test_matched_cell_size(self):
        ring = SphericalRing((0.0, 0.0), 1.0, math.e)
        grid = ring_grid(ring, 256, 256)
        spacing = 2 * math.pi * math.e / 256
        assert grid.spacing[0] == pytest.approx(spacing, rel=1e-12)
        assert grid.lo[0] <= -math.e and grid.hi[0] >= math.e

    def test_never_smaller_than_ring(self):
        ring = SphericalRing((1.0, -2.0), 1.0, 2.0)
        grid = ring_grid(ring, 64, 4096)
        assert grid.lo[0] < 1.0 - 2.0 + 1e-9 and grid.hi[0] > 1.0 + 2.0 - 1e-9

    def test_family_grid_covers(self):
        fam = generate_ring_family(SphericalRing((0.0, 0.0), 0.5, 1.5), 8)
        grid = family_grid(fam, 32)
        for c in fam:
            assert np.all(grid.contains(c.vertices))


def reference_blowup_arcs(separation, grid, eps0, center):
    """Oracle: the upper and lower arc of each radius, one radius at a time."""
    c = np.asarray(center, dtype=float)
    floor = max(separation, 0.5 * float(np.min(grid.spacing)))
    th = np.linspace(0.0, math.pi, 128)
    arcs = []
    r = 0.9 * eps0
    while r >= floor and r > 0.0:
        arcs.append(c + np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
        arcs.append(c + np.stack([r * np.cos(th), -r * np.sin(th)], axis=1))
        r *= 2.0 ** (-1.0 / 8)
    return arcs


class TestBlowup:
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.2)])
    @pytest.mark.parametrize("separation", [0.5, 0.125, 0.03125, 0.0])
    def test_family_matches_per_arc_construction(self, separation, center):
        c = np.asarray(center)
        grid = GridSpec(tuple(c - 1.0), tuple(c + 1.0), (96, 96))
        family = blowup_family(separation, grid, 1.0, center=center)
        arcs = reference_blowup_arcs(separation, grid, 1.0, center)
        assert len(family) == len(arcs) > 0
        assert family.label.endswith(f", {len(arcs)} curves")
        assert family.vertices.tobytes() == np.concatenate(arcs).tobytes()
        for curve, arc in zip(family, arcs):
            assert curve.vertices.tobytes() == arc.tobytes()

    def test_modulus_grows_as_separation_shrinks(self):
        coarse = blowup_experiment(0.5, 128)
        finer = blowup_experiment(0.25, 128)
        assert finer >= coarse

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            blowup_experiment(-0.1, 64)
