"""Mapping zoo: evaluation, distortion, weights, preimages, lifting, cluster sets."""

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from modlab.curves import Curve
from modlab.geometry import chordal_distance
from modlab.mappings import (DomainError, LiftingAmbiguity, MappingSpec,
                             _components, _preimages_rel, cluster_set_estimate,
                             derivative_matrix, distortion_at,
                             distortion_from_matrix, evaluate, evaluate_many,
                             finite_difference_derivative, identity, image_ball,
                             image_mask, inversion, lift_curve, multiplicity,
                             preimages, radial_stretch, sup_distortion,
                             weight_Q, winding, COMPLETED, HIT_OUTER_SPHERE,
                             HIT_PUNCTURE)

ZOO = [identity(), winding(2), winding(3), winding(5),
       radial_stretch(0.5), radial_stretch(2.0), radial_stretch(3.0),
       inversion()]


def ball_points(dim, count=400):
    """Seeded points of the punctured ball of radius 0.5, none at the center."""
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(count, dim))
    return x * (rng.uniform(0.01, 0.5, count) / np.linalg.norm(x, axis=1))[:, None]


def within_ulps(actual, exact, ulps):
    return np.all(np.abs(actual - exact) <= ulps * np.spacing(np.abs(exact)))


class TestEvaluate:
    def test_identity(self):
        assert np.allclose(evaluate(identity(), [0.3, 0.4]), [0.3, 0.4])

    def test_winding_doubles_angle(self):
        r, th = 0.5, math.pi / 3
        x = [r * math.cos(th), r * math.sin(th)]
        y = evaluate(winding(2), x)
        assert np.linalg.norm(y) == pytest.approx(0.5, abs=1e-14)
        assert math.atan2(y[1], y[0]) == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_radial_stretch(self):
        assert np.allclose(evaluate(radial_stretch(2.0), [0.5, 0.0]), [0.25, 0.0])

    def test_inversion(self):
        assert np.allclose(evaluate(inversion(), [0.5, 0.0]), [2.0, 0.0])

    def test_puncture_rejected(self):
        with pytest.raises(DomainError):
            evaluate(identity(), [0.0, 0.0])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_identity_is_bit_exact(self, dim):
        # the radial power at a = 1 scales by r**0.0, which is exactly 1
        x = ball_points(dim)
        assert np.array_equal(evaluate_many(identity(dim=dim), x), x)
        assert np.array_equal(_preimages_rel(identity(dim=dim), x)[:, 0], x)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_inversion_within_four_ulps(self, dim):
        x = ball_points(dim)
        exact = x / np.sum(x * x, axis=1, keepdims=True)
        assert within_ulps(evaluate_many(inversion(dim=dim), x), exact, 4)
        assert within_ulps(_preimages_rel(inversion(dim=dim), x)[:, 0], exact, 4)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_inversion_rejects_puncture(self, dim):
        f = inversion(dim=dim, center=(0.3,) * dim)
        with pytest.raises(DomainError):
            evaluate_many(f, [f.center])

    def test_translated_center(self):
        f = radial_stretch(2.0, center=(1.0, 1.0))
        assert np.allclose(evaluate(f, [1.5, 1.0]), [1.25, 1.0])


class TestDistortion:
    def test_identity_is_conformal(self):
        assert distortion_at(identity(), [0.2, -0.1]).K_O == pytest.approx(1.0)

    def test_winding_distortion(self):
        rep = distortion_at(winding(3), [0.3, 0.2])
        assert rep.K_O == pytest.approx(3.0, rel=1e-12)
        assert rep.operator_norm == pytest.approx(3.0, rel=1e-12)
        assert abs(rep.jacobian_det) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,expected", [(2.0, 2.0), (0.5, 2.0), (3.0, 3.0)])
    def test_stretch_distortion(self, alpha, expected):
        rep = distortion_at(radial_stretch(alpha), [0.3, -0.25])
        assert rep.K_O == pytest.approx(expected, rel=1e-12)

    def test_inversion_is_conformal(self):
        assert distortion_at(inversion(), [0.4, 0.3]).K_O == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_conventions(self):
        zero = distortion_from_matrix(np.zeros((2, 2)))
        assert zero.K_O == 1.0 and zero.degenerate_case == "zero_derivative"
        singular = distortion_from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert math.isinf(singular.K_O)
        assert singular.degenerate_case == "vanishing_jacobian"
        regular = distortion_from_matrix(np.eye(2))
        assert regular.degenerate_case is None

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        for f in ZOO:
            for _ in range(10):
                r = rng.uniform(0.1, 1.0)
                th = rng.uniform(0.0, 2 * math.pi)
                x = [r * math.cos(th), r * math.sin(th)]
                exact = distortion_at(f, x, "analytic")
                approx = distortion_at(f, x, "finite_difference", fd_step=1e-4)
                assert approx.operator_norm == pytest.approx(
                    exact.operator_norm, rel=1e-5)
                assert approx.jacobian_det == pytest.approx(
                    exact.jacobian_det, rel=1e-5)

    def test_distortion_at_least_one(self):
        rng = np.random.default_rng(3)
        for f in ZOO:
            for _ in range(25):
                x = rng.uniform(-0.9, 0.9, 2)
                if np.linalg.norm(x) < 1e-3:
                    continue
                assert distortion_at(f, x).K_O >= 1.0 - 1e-12

    def test_chart_singularity(self):
        with pytest.raises(DomainError):
            derivative_matrix(winding(2, dim=3), [0.0, 0.0, 0.3])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_puncture_has_no_derivative(self, dim):
        for f in (identity(dim=dim), radial_stretch(2.0, dim=dim), inversion(dim=dim)):
            with pytest.raises(DomainError):
                derivative_matrix(f, f.center)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_radial_power_derivatives(self, dim):
        for x in ball_points(dim, 100):
            assert np.array_equal(derivative_matrix(identity(dim=dim), x), np.eye(dim))
            r2 = float(x @ x)
            u = x / math.sqrt(r2)
            exact = (np.eye(dim) - 2.0 * np.outer(u, u)) / r2
            assert within_ulps(derivative_matrix(inversion(dim=dim), x), exact, 4)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_conformal_members_have_unit_sup(self, dim):
        assert sup_distortion(identity(dim=dim)) == 1.0
        assert sup_distortion(inversion(dim=dim)) == 1.0

    def test_three_dimensional_winding(self):
        rep = distortion_at(winding(2, dim=3), [0.3, 0.1, 0.2])
        assert rep.K_O == pytest.approx(4.0, rel=1e-10)  # k^n / k at n=3

    def test_fd_matrix_shape(self):
        M = finite_difference_derivative(identity(dim=3), [0.1, 0.2, 0.3])
        assert M.shape == (3, 3)
        assert np.allclose(M, np.eye(3), atol=1e-9)


class TestWeight:
    def test_identity_weight_on_annulus(self):
        # the annulus 1 < |y| < 2 is the image of radius 2 less that of radius 1
        outer = weight_Q(identity(epsilon0=2.0))
        inner = weight_Q(identity(epsilon0=1.0))
        assert outer.value == 1.0 and outer.N == 1
        assert outer.l1_norm - inner.l1_norm == pytest.approx(3 * math.pi, rel=1e-12)

    def test_winding_weight(self):
        wq = weight_Q(winding(3, epsilon0=1.0))
        assert wq.N == 3 and wq.K == pytest.approx(3.0)
        assert wq.value == pytest.approx(9.0)
        assert wq.l1_norm == pytest.approx(9.0 * math.pi, rel=1e-12)

    def test_stretch_weight(self):
        # the image of the unit ball under |x| -> |x|^2 is the unit ball
        wq = weight_Q(radial_stretch(2.0, epsilon0=1.0))
        assert wq.N == 1 and wq.value == pytest.approx(2.0)
        assert wq.l1_norm == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_inversion_weight_unbounded_image(self):
        wq = weight_Q(inversion())
        assert math.isinf(wq.l1_norm)

    def test_multiplicities(self):
        assert multiplicity(winding(4)) == 4
        assert multiplicity(radial_stretch(2.0)) == 1

    def test_image_regions(self):
        assert image_ball(identity(epsilon0=0.5)) == ("ball", 0.5)
        assert image_ball(radial_stretch(2.0, epsilon0=0.5)) == ("ball", 0.25)
        shape, r = image_ball(inversion(epsilon0=0.5))
        assert shape == "exterior" and r == pytest.approx(2.0)
        mask = image_mask(radial_stretch(2.0, epsilon0=0.5))
        assert mask(np.array([[0.1, 0.0]]))[0]
        assert not mask(np.array([[0.3, 0.0]]))[0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_inversion_image_radius(self, dim):
        # every two-decimal epsilon0 up to 10 gives 1/epsilon0 exactly; pow is
        # not correctly rounded everywhere, so random ones are within one ulp
        for eps in [k / 100 for k in range(1, 1001)]:
            assert image_ball(inversion(dim=dim, epsilon0=eps)) == ("exterior", 1.0 / eps)
        for eps in np.random.default_rng(dim).uniform(0.01, 10.0, 10_000).tolist():
            shape, r = image_ball(inversion(dim=dim, epsilon0=eps))
            assert shape == "exterior" and within_ulps(r, 1.0 / eps, 1)


class TestPreimages:
    @pytest.mark.parametrize("f", ZOO)
    def test_roundtrip(self, f):
        rng = np.random.default_rng(9)
        for _ in range(20):
            r = rng.uniform(0.05, 0.45)
            th = rng.uniform(0, 2 * math.pi)
            x = np.array([r * math.cos(th), r * math.sin(th)])
            y = evaluate(f, x)
            pres = preimages(f, y)
            assert len(pres) == multiplicity(f)
            assert min(np.linalg.norm(p - x) for p in pres) < 1e-9
            for p in pres:
                assert np.allclose(evaluate(f, p), y, atol=1e-9)

    def test_winding_preimage_angles(self):
        pres = preimages(winding(4), [0.3, 0.0])
        angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in pres)
        assert np.allclose(angles, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                           atol=1e-12)


class TestLifting:
    def test_identity_lift_is_the_curve(self):
        curve = Curve([[0.1, 0.0], [0.2, 0.1], [0.3, 0.05]])
        lift, status = lift_curve(identity(), curve, [0.1, 0.0])
        assert status == COMPLETED
        assert np.allclose(lift.vertices, curve.vertices)

    def test_winding_half_arc(self):
        th = np.linspace(0.0, math.pi, 65)
        arc = Curve(0.25 * np.stack([np.cos(th), np.sin(th)], axis=1))
        lift, status = lift_curve(winding(2), arc, [0.25, 0.0])
        assert status == COMPLETED
        lifted_angles = np.arctan2(lift.vertices[:, 1], lift.vertices[:, 0])
        assert lifted_angles[-1] == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.allclose(np.linalg.norm(lift.vertices, axis=1), 0.25, atol=1e-12)

    def test_stretch_lift_hits_puncture(self):
        ts = np.linspace(0.0, 1.0, 64)
        seg = Curve(np.stack([0.25 * (1 - ts), np.zeros_like(ts)], axis=1))
        lift, status = lift_curve(radial_stretch(2.0), seg, [0.5, 0.0])
        assert status == HIT_PUNCTURE
        assert np.linalg.norm(lift.vertices[0] - [0.5, 0.0]) < 1e-12

    def test_lift_exits_through_sphere(self):
        f = radial_stretch(2.0, epsilon0=0.5)  # image ball radius 0.25
        ts = np.linspace(0.04, 0.3, 40)  # leaves the image of the ball
        seg = Curve(np.stack([ts, np.zeros_like(ts)], axis=1))
        lift, status = lift_curve(f, seg, [0.2, 0.0])
        assert status == HIT_OUTER_SPHERE

    def test_roundtrip_through_zoo(self):
        rng = np.random.default_rng(31)
        for f in ZOO:
            shape, r_img = image_ball(f)
            base = 1.5 * r_img if shape == "exterior" else 0.5 * r_img
            th0 = rng.uniform(0, 2 * math.pi)
            th = th0 + np.cumsum(rng.uniform(-0.05, 0.05, 30))
            rr = base * np.exp(np.cumsum(rng.uniform(-0.02, 0.02, 30)))
            curve = Curve(np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1))
            starts = preimages(f, curve.vertices[0])
            lift, status = lift_curve(f, curve, starts[0])
            assert status == COMPLETED
            images = evaluate_many(f, lift.vertices)
            assert np.max(np.linalg.norm(images - curve.vertices, axis=1)) < 1e-9

    def test_full_circle_lift_extent(self):
        for k in (2, 3, 5):
            th = np.linspace(0.0, 2 * math.pi, 1025)
            circle = Curve(0.2 * np.stack([np.cos(th), np.sin(th)], axis=1))
            lift, status = lift_curve(winding(k), circle, [0.2, 0.0])
            assert status == COMPLETED
            ang = np.unwrap(np.arctan2(lift.vertices[:, 1], lift.vertices[:, 0]))
            assert ang[-1] - ang[0] == pytest.approx(2 * math.pi / k, abs=1e-9)

    def test_ambiguous_branch_raises(self):
        # jump by angle pi: the two square-root branches are equidistant
        curve = Curve([[0.3, 0.0], [-0.3, 0.0]])
        with pytest.raises(LiftingAmbiguity):
            lift_curve(winding(2), curve, [0.3, 0.0])

    def test_wrong_start_rejected(self):
        curve = Curve([[0.3, 0.0], [0.2, 0.0]])
        with pytest.raises(ValueError):
            lift_curve(winding(2), curve, [0.1, 0.1])


class TestClusterSet:
    RADII = [0.05, 0.02, 0.01, 0.005]

    def test_identity_clusters_at_center(self):
        reps = cluster_set_estimate(identity(), [0.0, 0.0], self.RADII)
        assert len(reps) == 1
        assert chordal_distance(reps[0], [0.0, 0.0]) < 0.05

    def test_winding_clusters_at_center(self):
        reps = cluster_set_estimate(winding(3), [0.0, 0.0], self.RADII)
        assert len(reps) == 1
        assert chordal_distance(reps[0], [0.0, 0.0]) < 0.05

    def test_inversion_clusters_at_infinity(self):
        reps = cluster_set_estimate(inversion(), [0.0, 0.0], self.RADII)
        assert len(reps) == 1
        assert reps[0].is_infinity

    def test_translated_puncture(self):
        f = radial_stretch(2.0, center=(1.0, -1.0))
        reps = cluster_set_estimate(f, [1.0, -1.0], self.RADII)
        assert len(reps) == 1
        assert chordal_distance(reps[0], [1.0, -1.0]) < 0.05

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            cluster_set_estimate(identity(), [0.0, 0.0], [0.9])


def random_graph(seed, n, density):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    return upper | upper.T | np.eye(n, dtype=bool)


class TestComponents:
    """The numpy labels equal scipy's: same count, same label per node."""

    @staticmethod
    def assert_matches_scipy(adjacency):
        count, labels = _components(adjacency)
        ref_count, ref_labels = connected_components(adjacency, directed=False)
        assert count == ref_count
        np.testing.assert_array_equal(labels, ref_labels)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_symmetric(self, seed):
        n = 20 + 25 * seed
        # around the connectivity threshold: a few large components and singletons
        self.assert_matches_scipy(random_graph(seed, n, 1.5 / n))

    def test_path_graph(self):
        # node i joins i + 1, so label 0 travels 199 hops to the far end
        i = np.arange(199)
        adjacency = np.eye(200, dtype=bool)
        adjacency[i, i + 1] = adjacency[i + 1, i] = True
        self.assert_matches_scipy(adjacency)
        assert _components(adjacency)[0] == 1

    def test_isolated_nodes(self):
        self.assert_matches_scipy(np.eye(50, dtype=bool))
        assert _components(np.zeros((50, 50), dtype=bool))[0] == 50


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            MappingSpec("moebius")

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            winding(0)
        with pytest.raises(ValueError):
            radial_stretch(-1.0)

    def test_describe(self):
        assert winding(2).describe() == "winding(k=2)"
        assert radial_stretch(3.0).describe() == "radial_stretch(alpha=3)"
