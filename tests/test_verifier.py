"""Scenario orchestration: lifted families, inequality checks, continuity."""

import math

import numpy as np
import pytest

from modlab.curves import Curve, generate_ring_family
from modlab.geometry import SphericalRing
from modlab.mappings import (COMPLETED, HIT_OUTER_SPHERE, identity, inversion,
                             lift_curve, multiplicity, preimages, radial_stretch,
                             winding, with_domain)
from modlab.modulus import reciprocal_eta, uniform_eta
from modlab.verifier import (LIFT_VERTEX_BUDGET, lifted_ring_family, continuity_bound,
                             weight_bound_check, verify_poletski)


class TestBuildGammaF:
    def test_identity_returns_radial_segments(self):
        fam = lifted_ring_family(identity(epsilon0=3.0), [0.0, 0.0], 1.0, 2.0, 8)
        assert len(fam) == 8
        for curve in fam:
            r = np.linalg.norm(curve.vertices, axis=1)
            assert r[0] == pytest.approx(1.0, abs=1e-9)
            assert r[-1] == pytest.approx(2.0, abs=1e-9)
            # a lifted radial segment is collinear with the origin
            u = curve.vertices[-1] / np.linalg.norm(curve.vertices[-1])
            assert np.max(np.abs(curve.vertices @ np.array([-u[1], u[0]]))) < 1e-9

    def test_winding_branch_count(self):
        fam = lifted_ring_family(winding(3, epsilon0=1.0), [0.0, 0.0], 0.25, 0.5, 8)
        assert len(fam) == 24
        for curve in fam:
            r = np.linalg.norm(curve.vertices, axis=1)
            assert np.all((r > 0.25 - 1e-9) & (r < 0.5 + 1e-9))

    def test_stretch_preimage_radii(self):
        fam = lifted_ring_family(radial_stretch(2.0, epsilon0=1.0), [0.0, 0.0],
                            0.01, 0.04, 8)
        assert len(fam) == 8
        for curve in fam:
            r = np.linalg.norm(curve.vertices, axis=1)
            assert r.min() == pytest.approx(0.1, abs=1e-9)
            assert r.max() == pytest.approx(0.2, abs=1e-9)

    def test_inversion_preimage_annulus(self):
        fam = lifted_ring_family(inversion(epsilon0=0.5), [0.0, 0.0], 2.5, 4.0, 6)
        for curve in fam:
            r = np.linalg.norm(curve.vertices, axis=1)
            assert r.min() == pytest.approx(0.25, abs=1e-9)
            assert r.max() == pytest.approx(0.4, abs=1e-9)

    def test_batched_lifts_equal_single_lifts(self):
        # the off-center stretch ring: some lifts complete, the others leave
        # the punctured ball at different vertices
        f = radial_stretch(2.0)
        fam = lifted_ring_family(f, (0.1, 0.0), 0.05, 0.2, 32)
        image = generate_ring_family(SphericalRing((0.1, 0.0), 0.05, 0.2), 32)
        assert len(fam) == len(image) == 32
        statuses = []
        for lift, image_curve in zip(fam, image):
            # arclength-uniform samples of the segment, as a polyline resampler
            # computes them: a + (s / L) (b - a) for s = linspace(0, L, n)
            a, b = image_curve.vertices
            length = image_curve.length()
            s = np.linspace(0.0, length, LIFT_VERTEX_BUDGET)
            image_curve = Curve(a + (s / length)[:, None] * (b - a))
            start, = preimages(f, image_curve.vertices[0])
            single, status = lift_curve(f, image_curve, start)
            assert np.array_equal(lift.vertices, single.vertices)
            assert (lift.n_vertices == LIFT_VERTEX_BUDGET) == (status == COMPLETED)
            statuses.append(status)
        assert statuses.count(COMPLETED) == 19
        assert statuses.count(HIT_OUTER_SPHERE) == 13
        exits = [c.n_vertices for c in fam if c.n_vertices < LIFT_VERTEX_BUDGET]
        assert min(exits) == 23 and max(exits) == 32


class TestVerifyPoletski:
    def test_identity_equality_witness(self):
        rep = verify_poletski(identity(epsilon0=3.0), [0.0, 0.0], 1.0, math.e,
                              resolution=128, count=128)
        assert rep.satisfied
        rhs_opt = dict((e.kind, v) for e, v in rep.rhs_per_eta)["reciprocal"]
        assert rhs_opt == pytest.approx(2 * math.pi, rel=0.02)
        assert abs(rep.lhs.value - rhs_opt) / rhs_opt <= 0.05

    def test_winding_scales_rhs_by_q(self):
        rep = verify_poletski(winding(3, epsilon0=1.0), [0.0, 0.0], 0.25, 0.5,
                              resolution=96, count=64)
        assert rep.satisfied
        assert rep.q_value == pytest.approx(9.0)
        rhs_opt = dict((e.kind, v) for e, v in rep.rhs_per_eta)["reciprocal"]
        assert rhs_opt / rep.lhs.value == pytest.approx(9.0, rel=0.1)

    def test_uniform_eta_dominates_optimal(self):
        rep = verify_poletski(identity(epsilon0=3.0), [0.0, 0.0], 1.0, 2.0,
                              resolution=96, count=64)
        by_kind = dict((e.kind, v) for e, v in rep.rhs_per_eta)
        assert by_kind["piecewise"] >= by_kind["reciprocal"] - 1e-9

    def test_monotone_in_eta_list(self):
        f = identity(epsilon0=3.0)
        small = verify_poletski(f, [0.0, 0.0], 1.0, 2.0, resolution=128, count=192,
                                etas=[uniform_eta(1.0, 2.0)])
        large = verify_poletski(f, [0.0, 0.0], 1.0, 2.0, resolution=128, count=192,
                                etas=[uniform_eta(1.0, 2.0), reciprocal_eta(1.0, 2.0)])
        assert small.satisfied and large.satisfied
        assert large.slack <= small.slack + 1e-9

    def test_inadmissible_eta_rejected(self, monkeypatch):
        from modlab import verifier
        from modlab.modulus import EtaFunction

        def no_lift(*args, **kwargs):
            pytest.fail("an inadmissible eta must be rejected before any lift")

        monkeypatch.setattr(verifier, "lifted_ring_family", no_lift)
        bad = EtaFunction("piecewise", 1.0, 2.0, breaks=(1.0, 2.0), levels=(0.3,))
        with pytest.raises(ValueError, match="inadmissible"):
            verify_poletski(identity(epsilon0=3.0), [0.0, 0.0], 1.0, 2.0,
                            etas=[bad])

    def test_invariant_under_similarity(self):
        # the 12 acceptance-suite configs with the domain scaled by 2 and moved
        # to (0.7, -0.2): the image ring scales by 2^a, and the lifted family
        # and its grid move with the domain, so the discrete problem is the same
        zoo = [(winding(2), (0.1, 0.4), (0.05, 0.3)), (winding(3), (0.1, 0.4), (0.05, 0.3)),
               (winding(5), (0.1, 0.4), (0.05, 0.3)),
               (radial_stretch(0.5), (0.15, 0.6), (0.1, 0.5)),
               (radial_stretch(2.0), (0.02, 0.2), (0.01, 0.1)),
               (radial_stretch(3.0), (0.01, 0.08), (0.002, 0.05))]
        c = (0.7, -0.2)
        for f, *rings in zoo:
            moved, s = with_domain(f, c, 2.0 * f.epsilon0), 2.0 ** f.power
            count = max(48, 256 // multiplicity(f))
            for r1, r2 in rings:
                base = verify_poletski(f, (0.0, 0.0), r1, r2, 64, count=count)
                image = verify_poletski(moved, c, s * r1, s * r2, 64, count=count)
                case = f"{f.describe()} on ({r1}, {r2})"
                assert image.lhs.value == pytest.approx(base.lhs.value, rel=1e-12), case
                assert image.lhs.iterations == base.lhs.iterations, case
                for (_, a), (_, b) in zip(image.rhs_per_eta, base.rhs_per_eta):
                    assert a == pytest.approx(b, rel=4e-15), case

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            verify_poletski(identity(), [0.0, 0.0], 2.0, 1.0)


class TestProofWeightBoundReport:
    def test_identity_on_unit_ball(self):
        rep = weight_bound_check(identity(epsilon0=1.0), [0.0, 0.0], 0.25, 0.5,
                             resolution=128, count=128)
        assert rep.holds
        assert rep.lhs == pytest.approx(2 * math.pi / math.log(2), rel=0.03)
        assert rep.q_l1_norm == pytest.approx(math.pi, rel=1e-6)
        assert rep.bound == pytest.approx(16 * math.pi, rel=1e-6)

    def test_winding_holds_with_slack(self):
        rep = weight_bound_check(winding(2, epsilon0=1.0), [0.0, 0.0], 0.25, 0.5,
                             resolution=96, count=64)
        assert rep.holds
        assert rep.bound / rep.lhs >= 1.0

    def test_narrow_gap_bound_blows_up(self):
        rep = weight_bound_check(identity(epsilon0=1.0), [0.0, 0.0], 0.40, 0.407,
                             resolution=96, count=64)
        assert rep.holds
        assert rep.bound > 1e4

    def test_unbounded_weight_rejected(self):
        with pytest.raises(ValueError):
            weight_bound_check(inversion(epsilon0=0.5), [0.0, 0.0], 2.5, 4.0)

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            weight_bound_check(identity(), [0.0, 0.0], 0.5, 0.25)


class TestContinuityBound:
    def test_identity_closed_form(self):
        rep = continuity_bound(identity(epsilon0=1.0), [0.0, 0.0], 0.25, 200)
        # the supremum sits at the largest sampled radius r0
        expected = 0.25 * math.sqrt(math.log(2.0)) / math.sqrt(math.pi)
        assert rep.estimated_Cn == pytest.approx(expected, rel=1e-9)
        assert rep.q_l1_norm == pytest.approx(math.pi, rel=1e-9)
        largest = max(rep.samples, key=lambda s: s[0])
        assert largest[2] == pytest.approx(math.sqrt(math.pi) * 1.2011224087864498,
                                           rel=1e-9)

    def test_bound_factor_vanishes_at_puncture(self):
        rep = continuity_bound(identity(epsilon0=1.0), [0.0, 0.0], 0.25, 100)
        smallest = min(rep.samples, key=lambda s: s[0])
        largest = max(rep.samples, key=lambda s: s[0])
        assert smallest[2] < 0.25 * largest[2]
        assert smallest[1] < 1e-5

    def test_rotation_invariance(self):
        f = radial_stretch(2.0, epsilon0=1.0)
        n = 150
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((n, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        th = 0.7
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        a = continuity_bound(f, [0.0, 0.0], 0.25, n, directions=dirs)
        b = continuity_bound(f, [0.0, 0.0], 0.25, n, directions=dirs @ rot.T)
        assert abs(a.estimated_Cn - b.estimated_Cn) <= 1e-10

    def test_stability_under_doubling(self):
        f = winding(3, epsilon0=1.0)
        a = continuity_bound(f, [0.0, 0.0], 0.2, 200)
        b = continuity_bound(f, [0.0, 0.0], 0.2, 400)
        assert abs(a.estimated_Cn - b.estimated_Cn) / a.estimated_Cn <= 0.05

    def test_r0_must_fit_in_domain(self):
        with pytest.raises(ValueError):
            continuity_bound(identity(epsilon0=0.5), [0.0, 0.0], 0.3, 50)

    def test_unbounded_image_rejected(self):
        with pytest.raises(ValueError):
            continuity_bound(inversion(epsilon0=1.0), [0.0, 0.0], 0.25, 50)
