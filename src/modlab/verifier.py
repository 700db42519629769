"""Executable inequality scenarios for the mapping zoo.

Builds the family of domain curves whose images cross a given image ring,
checks the weighted upper bound on its modulus against a library of admissible
test functions, evaluates the total-weight bound driven by the uniform test
function, and estimates the continuity modulus constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CurveFamily
from .geometry import SphericalRing, row_dot
from .mappings import (DomainError, MappingSpec, _lift_many, _preimages_rel,
                       _through_puncture, evaluate_many, image_ball, weight_Q)
from .mappings import image_mask  # unused here; perfbench/tracing.py wraps this name
from .modulus import (DEFAULT_BUDGET, EtaFunction, ModulusResult, discrete_modulus,
                      family_grid, power_eta, reciprocal_eta, uniform_eta, weighted_rhs_integral)

# Discrete modulus carries the dominant error; closed-form sides are exact.
DEFAULT_REL_TOL = 0.02
LIFT_VERTEX_BUDGET = 33


def default_etas(r1: float, r2: float) -> list[EtaFunction]:
    """The tested library of admissible functions: uniform, extremal, power-law."""
    return [uniform_eta(r1, r2), reciprocal_eta(r1, r2), power_eta(r1, r2, 1.0)]


def lifted_ring_family(f: MappingSpec, y0, r1: float, r2: float,
                       count: int) -> CurveFamily:
    """Domain curves whose images join the spheres of the image ring A(y0, r1, r2).

    The radial image ring family is generated, every segment is sampled at
    LIFT_VERTEX_BUDGET arclength-uniform points, and each is lifted from every
    preimage of its initial point inside the punctured ball; the lifted curves
    form the returned family (k branches per image curve for a k-fold winding).
    A segment that passes the puncture's image (mappings._through_puncture) has
    no lift in the punctured ball; it is dropped with all its branches, and the
    same test, broadcast over its steps, is the puncture mask the lifts are given.
    """
    from .curves import generate_ring_family

    y0 = np.asarray(y0, dtype=float).ravel()
    ring = SphericalRing(tuple(y0), r1, r2)
    ends = generate_ring_family(ring, count).vertices.reshape(count, 2, -1)
    d = ends[:, 1] - ends[:, 0]
    length = np.linalg.norm(d, axis=1)
    t = np.linspace(0.0, length, LIFT_VERTEX_BUDGET, axis=1) / length[:, None]
    image = ends[:, :1] + t[..., None] * d[:, None]
    del t  # t and image are (curve, vertex) arrays, each freed once used
    c = f.center_array()
    through = _through_puncture(ends - c)[:, 0]
    starts = c + _preimages_rel(f, image[:, 0] - c)
    rad = np.sqrt(row_dot(starts - c, starts - c))
    inside = (rad <= f.epsilon0 * (1.0 + 1e-9)) & ~through[:, None]  # w = 0 is through
    missing = ~inside.any(axis=1) & ~through
    if missing.any():
        raise DomainError(f"image curve {np.argmax(missing)}: initial point has no "
                          f"preimage inside the punctured ball")
    owner, branch = np.nonzero(inside)
    # a step is no nearer the puncture's image than its segment, and its tolerance no larger
    cut = np.broadcast_to(through[:, None], (count, LIFT_VERTEX_BUDGET - 1))
    lifted, sizes, _ = _lift_many(f, image, owner, starts[owner, branch], cut)
    del image
    label = (f"lifts of radial({count}) in ring(r={r1:g},{r2:g}) "
             f"through {f.describe()} ({len(sizes)} curves)")
    return CurveFamily.from_arrays(lifted, sizes, label)


def _lifted_modulus(f: MappingSpec, y0, r1: float, r2: float, resolution: int,
                    count: int, tol: float, budget: int) -> ModulusResult:
    """Discrete modulus of the lifted ring family on its family_grid."""
    family = lifted_ring_family(f, y0, r1, r2, count)
    return discrete_modulus(family, family_grid(family, resolution), p=float(f.dim),
                            tol=tol, budget=budget)


@dataclass
class PoletskiReport:
    """One weighted modulus-inequality check for a mapping and an image ring."""

    mapping: str
    y0: tuple[float, ...]
    r1: float
    r2: float
    lhs: ModulusResult
    rhs_per_eta: list[tuple[EtaFunction, float]]
    satisfied: bool
    slack: float
    rel_tol: float
    q_value: float

    def min_rhs(self) -> float:
        return min(v for _, v in self.rhs_per_eta)

    def to_dict(self) -> dict:
        return {
            "scenario": "poletski",
            "mapping": self.mapping,
            "y0": list(self.y0),
            "r1": self.r1,
            "r2": self.r2,
            "lhs": self.lhs.value,
            "rhs_per_eta": [{"eta": e.describe(), "value": v}
                            for e, v in self.rhs_per_eta],
            "q_value": self.q_value,
            "satisfied": self.satisfied,
            "slack": self.slack,
            "rel_tol": self.rel_tol,
            "family_size": self.lhs.family_size,
        }


def verify_poletski(f: MappingSpec, y0, r1: float, r2: float,
                    resolution: int = 128, etas: Sequence[EtaFunction] | None = None,
                    count: int = 192, solver_tol: float = 3e-3,
                    budget: int = DEFAULT_BUDGET) -> PoletskiReport:
    """Check that the modulus of the lifted family stays under every weighted bound.

    The left side is the discrete modulus of the lifted curves; each right side
    integrates Q * eta^n over the image ring cut to the mapping's image, with
    Q = multiplicity times supremal distortion.  The check allows the relative
    tolerance DEFAULT_REL_TOL on the discrete side.
    """
    if not (0 < r1 < r2):
        raise ValueError("need 0 < r1 < r2")
    etas = default_etas(r1, r2) if etas is None else list(etas)
    if not etas:
        raise ValueError("need at least one eta")
    y0 = tuple(np.asarray(y0, dtype=float).ravel())
    shape, R = image_ball(f)
    q = weight_Q(f).value
    # an inadmissible eta is rejected here, before any lift or solve
    values = weighted_rhs_integral(etas, SphericalRing(y0, r1, r2), (shape, f.center, R))
    rhs = [(eta, q * v) for eta, v in zip(etas, values)]
    lhs = _lifted_modulus(f, y0, r1, r2, resolution, count, solver_tol, budget)
    min_rhs = min(v for _, v in rhs)
    satisfied = lhs.value <= min_rhs * (1.0 + DEFAULT_REL_TOL)
    return PoletskiReport(f.describe(), y0, r1, r2, lhs, rhs, satisfied,
                          min_rhs - lhs.value, DEFAULT_REL_TOL, q)


@dataclass
class WeightBoundReport:
    """The total-weight bound: modulus of the lifted ring family vs ||Q||_1 / gap^n."""

    mapping: str
    y1: tuple[float, ...]
    eps1: float
    eps1_star: float
    lhs: float
    bound: float
    holds: bool
    q_l1_norm: float
    lhs_result: ModulusResult | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": "weight_bound",
            "mapping": self.mapping,
            "y1": list(self.y1),
            "eps1": self.eps1,
            "eps1_star": self.eps1_star,
            "lhs": self.lhs,
            "bound": self.bound,
            "holds": self.holds,
            "q_l1_norm": self.q_l1_norm,
        }


def weight_bound_check(f: MappingSpec, y1, eps1: float, eps1_star: float,
                   resolution: int = 128, count: int = 192,
                   solver_tol: float = 3e-3,
                   budget: int = DEFAULT_BUDGET) -> WeightBoundReport:
    """Evaluate M(lifted family) <= ||Q||_1 / (eps1_star - eps1)^n within DEFAULT_REL_TOL.

    ||Q||_1 is taken over the whole image of the mapping and must be finite.
    """
    if not (0 < eps1 < eps1_star):
        raise ValueError("need 0 < eps1 < eps1_star")
    wq = weight_Q(f)
    if not math.isfinite(wq.l1_norm):
        raise ValueError("the weight is not integrable over the image")
    lhs = _lifted_modulus(f, y1, eps1, eps1_star, resolution, count, solver_tol, budget)
    bound = wq.l1_norm / (eps1_star - eps1) ** f.dim
    holds = lhs.value <= bound * (1.0 + DEFAULT_REL_TOL)
    return WeightBoundReport(f.describe(), tuple(np.asarray(y1, dtype=float).ravel()),
                   eps1, eps1_star, lhs.value, bound, holds, wq.l1_norm, lhs)


@dataclass
class ContinuityReport:
    """Empirical constant for the logarithmic continuity estimate at the puncture."""

    mapping: str
    x0: tuple[float, ...]
    r0: float
    samples: list[tuple[float, float, float]]  # (|x - x0|, |f(x) - f(x0)|, rhs factor)
    estimated_Cn: float
    q_l1_norm: float

    def to_dict(self) -> dict:
        return {
            "scenario": "continuity",
            "mapping": self.mapping,
            "x0": list(self.x0),
            "r0": self.r0,
            "estimated_Cn": self.estimated_Cn,
            "q_l1_norm": self.q_l1_norm,
            "samples": [{"radius": r, "lhs": l, "rhs_factor": g}
                        for r, l, g in self.samples],
        }


def continuity_bound(f: MappingSpec, r0: float, sample_count: int = 200,
                     seed: int = 0, directions: np.ndarray | None = None) -> ContinuityReport:
    """Empirical constant in |f(x) - f(x0)| <= C ||Q||_1^(1/n) / log^(1/n)(1 + r0/|x - x0|).

    x0 is the puncture f.center.  Samples log-uniformly in |x - x0| down to
    1e-6 r0 (the largest radius is always included), extends f to the puncture
    by its limit there, x0 itself, and reports the supremum of lhs over the
    bound factor.  Radii and the rotation of the sample directions do not
    affect the zoo's radially symmetric members.
    """
    if not (0 < 2.0 * r0 < f.epsilon0):
        raise ValueError("need 0 < 2 r0 < distance from the puncture to the boundary")
    wq = weight_Q(f)
    if not math.isfinite(wq.l1_norm):
        raise ValueError("the weight is not integrable over the image")
    n = f.dim
    x0 = f.center_array()  # every bounded-image zoo member extends by its center

    radii = np.geomspace(1e-6 * r0, r0, sample_count)
    if directions is None:
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((sample_count, n))
        directions = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    else:
        directions = np.asarray(directions, dtype=float)
        if directions.shape != (sample_count, n):
            raise ValueError("directions must be one unit vector per sample")

    pts = x0 + radii[:, None] * directions
    images = evaluate_many(f, pts)
    lhs = np.linalg.norm(images - x0, axis=1)
    log_factor = np.log1p(r0 / radii) ** (1.0 / n)
    rhs_factor = wq.l1_norm ** (1.0 / n) / log_factor
    ratios = lhs / rhs_factor
    estimated = float(ratios.max())
    samples = [(float(r), float(l), float(g_)) for r, l, g_ in
               zip(radii, lhs, rhs_factor)]
    return ContinuityReport(f.describe(), f.center, r0, samples, estimated,
                            wq.l1_norm)
