"""Acceptance suite: every criterion at its stated tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import math
import time

import numpy as np
import pytest

import modlab as ml
from modlab.curves import Curve, CurveFamily, GridSpec
from modlab.geometry import SphericalRing
from modlab.mappings import evaluate_many, image_ball, preimages, COMPLETED

TWO_PI = 2.0 * math.pi


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def ring_oracle():
    """The modulus of the 256 radial segments of A(0, 1, e) on its 256² ring grid: 2π."""
    ring = SphericalRing((0.0, 0.0), 1.0, math.e)
    family = ml.generate_ring_family(ring, 256)
    grid = ml.ring_grid(ring, 256, 256)
    return ml.discrete_modulus(family, grid, p=2.0, tol=3e-3)


def rectangle_oracle():
    """The modulus of 256 side-joining segments of the unit square on 256²: 1."""
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (256, 256))
    ys = (np.arange(256) + 0.5) / 256
    family = CurveFamily([Curve([[0.0, y], [1.0, y]]) for y in ys],
                         "side-joining")
    return ml.discrete_modulus(family, grid, p=2.0, tol=3e-3)


def test_criterion_1_ring_modulus_oracle():
    t0 = time.perf_counter()
    result = ring_oracle()
    elapsed = time.perf_counter() - t0
    rel = abs(result.value - TWO_PI) / TWO_PI
    report("criterion 1 (ring modulus oracle)",
           rel <= 0.05 and elapsed < 60.0,
           f"M={result.value:.5f} vs 2pi={TWO_PI:.5f} (rel {rel:.2%}), "
           f"{elapsed:.1f}s")


def test_ring_oracle_precision():
    # the discrete bracket sits +0.0025% and -0.216% about 2π; criterion 1
    # allows 5%, this pin twenty times less on the value and ten on the bound
    result = ring_oracle()
    assert result.value == pytest.approx(TWO_PI, rel=5e-4, abs=0.0)
    assert result.lower_bound == pytest.approx(TWO_PI, rel=5e-3, abs=0.0)


def test_criterion_2_rectangle_oracle():
    result = rectangle_oracle()
    rel = abs(result.value - 1.0)
    report("criterion 2 (rectangle oracle)", rel <= 0.05,
           f"M={result.value:.5f} vs 1.0 (rel {rel:.2%})")


def test_rectangle_oracle_precision():
    # the side-joining segments cut every cell at its full width: exactly 1
    assert rectangle_oracle().value == pytest.approx(1.0, rel=1e-4, abs=0.0)


def test_criterion_3_poletski_equality_witness():
    rep = ml.verify_poletski(ml.identity(epsilon0=3.0), [0.0, 0.0], 1.0, math.e,
                             resolution=256, count=256)
    rhs_opt = dict((e.kind, v) for e, v in rep.rhs_per_eta)["reciprocal"]
    gap = abs(rep.lhs.value - rhs_opt) / rhs_opt
    report("criterion 3 (equality witness, identity + extremal eta)",
           rep.satisfied and gap <= 0.05,
           f"lhs={rep.lhs.value:.5f} rhs={rhs_opt:.5f} gap={gap:.2%}")


# (mapping factory, image ring pairs, expected rhs_optimal / lhs ratio)
POLETSKI_SCENARIOS = [
    ("winding k=2", lambda: ml.winding(2, epsilon0=0.5),
     [(0.1, 0.4), (0.05, 0.3)], 4.0),
    ("winding k=3", lambda: ml.winding(3, epsilon0=0.5),
     [(0.1, 0.4), (0.05, 0.3)], 9.0),
    ("winding k=5", lambda: ml.winding(5, epsilon0=0.5),
     [(0.1, 0.4), (0.05, 0.3)], 25.0),
    ("stretch a=0.5", lambda: ml.radial_stretch(0.5, epsilon0=0.5),
     [(0.15, 0.6), (0.1, 0.5)], 4.0),
    ("stretch a=2", lambda: ml.radial_stretch(2.0, epsilon0=0.5),
     [(0.02, 0.2), (0.01, 0.1)], 1.0),
    ("stretch a=3", lambda: ml.radial_stretch(3.0, epsilon0=0.5),
     [(0.01, 0.08), (0.002, 0.05)], 1.0),
]


def test_criterion_4_poletski_suite():
    failures = []
    checked = 0
    for name, make, pairs, ratio in POLETSKI_SCENARIOS:
        f = make()
        branches = ml.multiplicity(f)
        count = max(48, 256 // branches)
        for r1, r2 in pairs:
            rep = ml.verify_poletski(f, [0.0, 0.0], r1, r2,
                                     resolution=128, count=count)
            checked += 1
            if not rep.satisfied:
                failures.append(f"{name} ({r1},{r2}): lhs {rep.lhs.value:.4f} "
                                f"> min rhs {rep.min_rhs():.4f}")
                continue
            rhs_opt = dict((e.kind, v) for e, v in rep.rhs_per_eta)["reciprocal"]
            seen = rhs_opt / rep.lhs.value
            if abs(seen - ratio) / ratio > 0.15:
                failures.append(f"{name} ({r1},{r2}): rhs/lhs {seen:.3f} "
                                f"vs N*K-consistent {ratio:.3f}")
    report("criterion 4 (inequality suite, 12 scenarios x 3 etas)",
           not failures and checked == 12,
           f"{checked} scenarios; " + ("; ".join(failures) if failures else
                                       "all satisfied with N*K-consistent slack"))


def test_criterion_5_proof_bound_suite():
    failures = []
    checked = 0
    for name, make, pairs, _ in POLETSKI_SCENARIOS:
        f = make()
        count = max(48, 256 // ml.multiplicity(f))
        for eps1, eps1_star in pairs:
            rep = ml.weight_bound_check(f, [0.0, 0.0], eps1, eps1_star,
                                    resolution=128, count=count)
            checked += 1
            if not rep.holds:
                failures.append(f"{name} ({eps1},{eps1_star}): "
                                f"lhs {rep.lhs:.4f} > bound {rep.bound:.4f}")
    report("criterion 5 (total-weight bound suite)",
           not failures and checked == 12,
           f"{checked} scenarios; " + ("; ".join(failures) if failures else
                                       "bound holds in all"))


def test_criterion_6_blowup_experiment():
    separations = [0.5 / 2 ** j for j in range(7)]
    values = [ml.blowup_experiment(s, 512) for s in separations]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    growth = values[-1] / values[0]
    refine = [ml.blowup_experiment(0.0, r) for r in (64, 128, 256)]
    refine_monotone = refine[0] < refine[1] < refine[2]
    report("criterion 6 (blow-up)",
           increasing and growth >= 2.0 and refine_monotone,
           f"moduli {['%.3f' % v for v in values]} (x{growth:.1f}); "
           f"refinement at sep=0: {['%.3f' % v for v in refine]}")


def test_criterion_7_continuity_bound():
    failures = []
    for name, f in [("identity", ml.identity(epsilon0=1.0)),
                    ("winding k=3", ml.winding(3, epsilon0=1.0)),
                    ("stretch a=2", ml.radial_stretch(2.0, epsilon0=1.0))]:
        a = ml.continuity_bound(f, 0.25, 200)
        b = ml.continuity_bound(f, 0.25, 400)
        if not math.isfinite(a.estimated_Cn):
            failures.append(f"{name}: constant not finite")
            continue
        drift = abs(b.estimated_Cn - a.estimated_Cn) / a.estimated_Cn
        if drift > 0.05:
            failures.append(f"{name}: unstable under doubling ({drift:.2%})")
        rng = np.random.default_rng(1)
        dirs = rng.standard_normal((200, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        c1 = ml.continuity_bound(f, 0.25, 200, directions=dirs)
        c2 = ml.continuity_bound(f, 0.25, 200, directions=dirs @ rot.T)
        if abs(c1.estimated_Cn - c2.estimated_Cn) > 1e-10:
            failures.append(f"{name}: not rotation invariant")
    report("criterion 7 (continuity constant)", not failures,
           "; ".join(failures) if failures else
           "finite, stable under doubling, rotation invariant")


CONTINUITY_R0 = 0.25


def continuity_closed_form(f, a):
    """r0^a (log 2)^(1/n) / ||Q||_1^(1/n), the ratio at |x - x0| = r0 when |f(x) - x0| = r^a."""
    n = f.dim
    return (CONTINUITY_R0 ** a * math.log(2.0) ** (1.0 / n)
            / ml.weight_Q(f).l1_norm ** (1.0 / n))


@pytest.mark.parametrize("f, a", [
    (ml.identity(epsilon0=1.0), 1.0),
    (ml.radial_stretch(0.5, epsilon0=1.0), 0.5),
    (ml.radial_stretch(2.0, epsilon0=1.0), 2.0),
    (ml.winding(3, epsilon0=1.0), 1.0),
    (ml.identity(dim=3, epsilon0=1.0), 1.0),
], ids=["identity", "stretch0.5", "stretch2", "winding3", "identity3d"])
def test_continuity_constant_closed_form(f, a):
    # for a >= 1/(2n log 2) the ratio rises with the radius, so its supremum
    # is the largest sample, r0 itself
    got = ml.continuity_bound(f, CONTINUITY_R0).estimated_Cn
    assert got == pytest.approx(continuity_closed_form(f, a), rel=1e-14, abs=0.0)


def test_continuity_constant_interior_maximum():
    # for a = 0.3 < 1/(4 log 2) the ratio peaks inside (1e-6 r0, r0), 2.26%
    # above its value at r0; the 200 log-spaced samples can miss the peak by
    # at most the ratio's drop half a sample step either side of it
    f, a, samples = ml.radial_stretch(0.3, epsilon0=1.0), 0.3, 200
    lo, hi = math.log(1e-6 * CONTINUITY_R0), math.log(CONTINUITY_R0)
    q = ml.weight_Q(f).l1_norm

    def ratio(t):
        return np.exp(a * t) * np.log1p(CONTINUITY_R0 / np.exp(t)) ** 0.5 / q ** 0.5

    t = np.linspace(lo, hi, 2_000_001)
    peak = t[np.argmax(ratio(t))]
    best = ratio(peak)
    half_step = 0.5 * (hi - lo) / (samples - 1)
    drop = 1.0 - min(ratio(peak - half_step), ratio(peak + half_step)) / best
    got = ml.continuity_bound(f, CONTINUITY_R0, samples).estimated_Cn
    assert got > continuity_closed_form(f, a) * 1.02
    assert best * (1.0 - drop) <= got <= best * (1.0 + 1e-12)


def test_criterion_8_lifting_roundtrip():
    rng = np.random.default_rng(42)
    zoo = [ml.identity(), ml.winding(2), ml.winding(3), ml.winding(5),
           ml.radial_stretch(0.5), ml.radial_stretch(2.0),
           ml.radial_stretch(3.0), ml.inversion()]
    worst = 0.0
    for f in zoo:
        shape, r_img = image_ball(f)
        base = 1.5 * r_img if shape == "exterior" else 0.5 * r_img
        for _ in range(100):
            th = rng.uniform(0, TWO_PI) + np.cumsum(rng.uniform(-0.05, 0.05, 24))
            rr = base * np.exp(np.cumsum(rng.uniform(-0.02, 0.02, 24)))
            curve = Curve(np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1))
            start = preimages(f, curve.vertices[0])[0]
            lift, status = ml.lift_curve(f, curve, start)
            assert status == COMPLETED
            err = np.max(np.linalg.norm(
                evaluate_many(f, lift.vertices) - curve.vertices, axis=1))
            worst = max(worst, float(err))
    extent_err = 0.0
    for k in (2, 3, 5):
        th = np.linspace(0.0, TWO_PI, 1025)
        circle = Curve(0.2 * np.stack([np.cos(th), np.sin(th)], axis=1))
        lift, _ = ml.lift_curve(ml.winding(k), circle, [0.2, 0.0])
        ang = np.unwrap(np.arctan2(lift.vertices[:, 1], lift.vertices[:, 0]))
        extent_err = max(extent_err, abs(ang[-1] - ang[0] - TWO_PI / k))
    report("criterion 8 (lifting round-trip)",
           worst < 1e-9 and extent_err < 1e-9,
           f"800 round-trips, worst vertex error {worst:.2e}; "
           f"full-circle extent error {extent_err:.2e}")


def test_criterion_9_distortion_oracles():
    rng = np.random.default_rng(5)
    cases = [(ml.identity(), 1.0), (ml.winding(2), 2.0), (ml.winding(3), 3.0),
             (ml.winding(5), 5.0), (ml.radial_stretch(0.5), 2.0),
             (ml.radial_stretch(2.0), 2.0), (ml.radial_stretch(3.0), 3.0)]
    worst_exact = 0.0
    worst_fd = 0.0
    for f, expected in cases:
        for _ in range(20):
            r = rng.uniform(0.1, 1.0)
            th = rng.uniform(0.0, TWO_PI)
            x = [r * math.cos(th), r * math.sin(th)]
            exact = ml.distortion_at(f, x, "analytic")
            fd = ml.distortion_at(f, x, "finite_difference")
            worst_exact = max(worst_exact, abs(exact.K_O - expected) / expected)
            worst_fd = max(worst_fd, abs(fd.K_O - exact.K_O) / exact.K_O)
    report("criterion 9 (distortion oracles)",
           worst_exact < 1e-12 and worst_fd < 1e-5,
           f"analytic off by {worst_exact:.2e}; finite differences off by "
           f"{worst_fd:.2e} at h=1e-4")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(2024)
    failures = []

    # monotonicity of the modulus under family inclusion
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (12, 12))
    for _ in range(1000):
        pts = rng.uniform(0.08, 0.92, (4, 2, 2))
        small = CurveFamily([Curve(p) for p in pts[:2]], "A")
        big = CurveFamily([Curve(p) for p in pts], "B")
        va = ml.discrete_modulus(small, grid, p=2.0, tol=5e-3).value
        vb = ml.discrete_modulus(big, grid, p=2.0, tol=5e-3).value
        if va > vb * 1.02 + 1e-9:
            failures.append(f"inclusion: {va:.4f} > {vb:.4f}")
            break

    # extracted crossing families bound the modulus of the originals
    ring = SphericalRing((0.0, 0.0), 0.3, 0.7)
    grid2 = GridSpec((-1.0, -1.0), (1.0, 1.0), (24, 24))
    for _ in range(1000):
        curves = []
        for _ in range(3):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            v = u + 0.3 * rng.normal(size=2)
            v /= np.linalg.norm(v)
            curves.append(Curve([0.1 * u, rng.uniform(0.35, 0.65) * v, 0.95 * u]))
        family = CurveFamily(curves, "sample")
        ok, extracted = ml.minorizes(family, ring)
        if not ok:
            continue
        va = ml.discrete_modulus(family, grid2, p=2.0, tol=5e-3).value
        ve = ml.discrete_modulus(extracted, grid2, p=2.0, tol=5e-3).value
        if va > ve * 1.02 + 1e-9:
            failures.append(f"minorization: {va:.4f} > {ve:.4f}")
            break

    # uniform eta is admissible with integral exactly 1
    for _ in range(1000):
        a = rng.uniform(0.01, 20.0)
        b = a + rng.uniform(0.01, 30.0)
        ok, integral = ml.admissible_check(ml.uniform_eta(a, b), a, b)
        if not ok or abs(integral - 1.0) > 1e-15:
            failures.append(f"uniform eta on ({a}, {b}): integral {integral!r}")
            break

    # distortion never drops below 1
    zoo = [ml.identity(), ml.winding(2), ml.winding(3), ml.winding(5),
           ml.radial_stretch(0.5), ml.radial_stretch(2.0), ml.inversion()]
    for _ in range(1000):
        f = zoo[rng.integers(len(zoo))]
        r = rng.uniform(0.01, 0.45)
        th = rng.uniform(0.0, TWO_PI)
        k = ml.distortion_at(f, [r * math.cos(th), r * math.sin(th)]).K_O
        if k < 1.0 - 1e-12:
            failures.append(f"{f.describe()}: K_O {k}")
            break

    report("criterion 10 (property suites, 1000 instances each)",
           not failures, "; ".join(failures) if failures else
           "inclusion monotonicity, minorization bound, eta exactness, K_O >= 1")
