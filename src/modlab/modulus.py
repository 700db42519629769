"""Modulus of curve families: analytic ring formulas and a discrete solver.

The discrete p-modulus of a finite family on a grid minimizes
sum(rho^p * cell_volume) over nonnegative cell densities subject to
integral(rho, curve) >= 1 for every curve.  The solver runs projected ascent
on the Lagrangian dual over the whole family with analytic primal recovery and
returns a certified bracket: `value` is the energy of a feasible density (an
upper bound), `lower_bound` a dual value, and `tol` bounds their relative gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CurveFamily, GridDensity, GridSpec, curve_cell_lengths
from .geometry import SphericalRing

DEFAULT_BUDGET = 200_000


# ---------------------------------------------------------------------------
# Analytic formulas
# ---------------------------------------------------------------------------

def unit_sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in n-space: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ring_modulus_analytic(n: int, r1: float, r2: float) -> float:
    """Conformal modulus of the family joining the spheres of A(y0, r1, r2)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not (0.0 < r1 < r2):
        raise ValueError(f"radii must satisfy 0 < r1 < r2, got ({r1}, {r2})")
    return unit_sphere_area(n) / math.log(r2 / r1) ** (n - 1)


# ---------------------------------------------------------------------------
# Admissible radial test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaFunction:
    """The normalized power c * r^s on (r1, r2), zero outside.

    c = (s + 1) / (r2^(s+1) - r1^(s+1)), or 1 / log(r2/r1) at s = -1, so the
    integral over (r1, r2) is 1.  s = 0 is the uniform 1 / (r2 - r1), and
    s = -1 the extremal 1 / (r log(r2/r1)) for the ring.
    """

    r1: float
    r2: float
    exponent: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r1 < self.r2 < math.inf:
            raise ValueError(f"eta support must satisfy 0 < r1 < r2 < inf, "
                             f"got ({self.r1}, {self.r2})")
        if not math.isfinite(self.exponent):
            raise ValueError(f"eta exponent must be finite, got {self.exponent}")

    @property
    def kind(self) -> str:
        s = self.exponent
        return "uniform" if s == 0.0 else "reciprocal" if s == -1.0 else "power"

    def _power_coeff(self) -> float:
        s = self.exponent
        if s == -1.0:
            return 1.0 / math.log(self.r2 / self.r1)
        return (s + 1.0) / (self.r2 ** (s + 1.0) - self.r1 ** (s + 1.0))

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inside = (r > self.r1) & (r < self.r2)
        # r^s only inside the support, where r > 0
        return np.where(inside, self._power_coeff() * np.where(inside, r, 1.0)
                        ** self.exponent, 0.0)

    def integral(self, a: float | None = None, b: float | None = None) -> float:
        """Exact integral over (a, b) intersected with the support."""
        lo = self.r1 if a is None else max(a, self.r1)
        hi = self.r2 if b is None else min(b, self.r2)
        if hi <= lo:
            return 0.0
        s = self.exponent
        c = self._power_coeff()
        if s == -1.0:
            return c * math.log(hi / lo)
        return c * (hi ** (s + 1.0) - lo ** (s + 1.0)) / (s + 1.0)

    def describe(self) -> str:
        name = {"uniform": "uniform", "reciprocal": "1/(r log(r2/r1))"}.get(
            self.kind, f"power(s={self.exponent:g})")
        return f"{name} on ({self.r1:g},{self.r2:g})"


def uniform_eta(r1: float, r2: float) -> EtaFunction:
    return EtaFunction(r1, r2, 0.0)


def reciprocal_eta(r1: float, r2: float) -> EtaFunction:
    return EtaFunction(r1, r2, -1.0)


def power_eta(r1: float, r2: float, exponent: float = 1.0) -> EtaFunction:
    return EtaFunction(r1, r2, exponent)


def admissible_check(eta: EtaFunction, r1: float, r2: float) -> tuple[bool, float]:
    """Integrate eta over (r1, r2); admissible when the integral reaches 1."""
    value = eta.integral(r1, r2)
    return value >= 1.0 - 1e-12, value


# ---------------------------------------------------------------------------
# Discrete modulus
# ---------------------------------------------------------------------------

class SolverBudgetExceeded(Exception):
    """Dual-ascent iteration budget ran out; carries the best feasible upper bound."""

    def __init__(self, message: str, best_value: float | None = None):
        super().__init__(message)
        self.best_value = best_value


@dataclass
class ModulusResult:
    """Outcome of a discrete modulus solve: the bracket [lower_bound, value]."""

    value: float
    density: GridDensity
    iterations: int
    active_constraints: int
    residual: float
    family_size: int
    lower_bound: float

    def to_report(self) -> dict:
        spec = self.density.spec
        return {
            "value": self.value,
            "lower_bound": self.lower_bound,
            "iterations": self.iterations,
            "active_constraints": self.active_constraints,
            "residual": self.residual,
            "grid": {"lo": list(spec.lo), "hi": list(spec.hi), "shape": list(spec.shape)},
            "family_size": self.family_size,
        }


def _matvec(row: np.ndarray, cell: np.ndarray, length: np.ndarray,
            rho: np.ndarray, m: int) -> np.ndarray:
    """A @ rho: each curve's integral of rho, summed over its row in input order."""
    return np.bincount(row, length * rho[cell], m)


def _dual_ascent(row: np.ndarray, cell: np.ndarray, length: np.ndarray,
                 n_cells: int, w: float, p: float, lam: np.ndarray,
                 tol: float, budget: int):
    """Projected ascent with Barzilai-Borwein steps on the Lagrangian dual.

    The constraint matrix A holds length[k] at (row[k], cell[k]), with the
    entries sorted by row.  Both products are np.bincount sums, which add
    from zero in input order as a CSR (A @ rho) or CSC (A^T @ lam) loop does.
    Primal recovery: rho = (A^T lam / (p w))^(1/(p-1)).  Every evaluation gives
    a lower bound, the dual value g(lam), and an upper bound, the energy of rho
    rescaled so its least curve integral is 1.  Stops once the best bounds are
    within the relative gap tol.  Returns the multipliers, the best rescaled
    density, the best lower and upper bounds and the number of evaluations;
    raises SolverBudgetExceeded after budget evaluations.
    """
    q = 1.0 / (p - 1.0)
    m = len(lam)
    lower, upper, best_rho = -math.inf, math.inf, None

    def state(lam):
        nonlocal lower, upper, best_rho
        s = np.bincount(cell, length * lam[row], n_cells)
        rho = (s / (p * w)) ** q
        integrals = _matvec(row, cell, length, rho, m)
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


def discrete_modulus(family: CurveFamily, grid: GridSpec, p: float | None = None,
                     tol: float = 1e-3, budget: int = DEFAULT_BUDGET) -> ModulusResult:
    """Discrete p-modulus of a finite curve family on a grid, with a certified bracket.

    One projected dual ascent over every curve of the family, started at
    lam = 1, runs until the relative primal-dual gap (value - lower_bound) / value
    is at most tol.  The value is the energy of a feasible density (every curve
    integral >= 1), so it is an upper bound; lower_bound is a dual value.
    """
    if p is None:
        p = float(grid.dim)
    if p <= 1.0:
        raise ValueError("modulus exponent must exceed 1")
    if len(family.curves) == 0:
        return ModulusResult(0.0, GridDensity.zeros(grid), 0, 0, 0.0, 0, 0.0)

    rows = [curve_cell_lengths(grid, c) for c in family]
    m = len(rows)
    row = np.repeat(np.arange(m), [len(cells) for cells, _ in rows])
    cell = np.concatenate([cells for cells, _ in rows])
    length = np.concatenate([lengths for _, lengths in rows])
    w = grid.cell_volume

    lam, rho, lower, value, evals = _dual_ascent(row, cell, length, grid.n_cells, w, p,
                                                 np.ones(m), tol, budget)
    residual = float(max(0.0, 1.0 - _matvec(row, cell, length, rho, m).min()))
    density = GridDensity(grid, rho.reshape(grid.shape))
    # at an exact optimum the dual value can pass the energy by rounding only;
    # lowering a lower bound keeps it valid
    return ModulusResult(value, density, evals, int(np.count_nonzero(lam > 0.0)),
                         residual, m, float(min(lower, value)))


def ring_grid(ring: SphericalRing, resolution: int, family_size: int) -> GridSpec:
    """Square grid about a ring, sized so cells match the curve spacing.

    A family of `family_size` curves equidistributed over directions is spaced
    2 pi r_outer / family_size apart (n = 2), or sqrt(4 pi r_outer^2 /
    family_size) apart (n = 3), at the outer sphere.  Cells finer
    than that spacing let the minimizing density collapse onto per-curve tubes
    and undershoot badly, so the box half-width is grown (never below the ring
    itself) until the cell size equals that spacing.  The box is shifted half a
    cell so the ring's center is a cell center and no axis lies in a grid plane.
    """
    r2 = ring.r_outer
    n = ring.dim
    if n == 2:
        spacing = 2.0 * math.pi * r2 / family_size
    elif n == 3:
        spacing = math.sqrt(4.0 * math.pi * r2 * r2 / family_size)
    else:
        raise ValueError("ring grids support dimensions 2 and 3 only")
    half = max(r2 * (1.0 + 2.0 / resolution), spacing * resolution / 2.0)
    c = [x - half / resolution for x in ring.center]
    return GridSpec(tuple(x - half for x in c), tuple(x + half for x in c), (resolution,) * n)


def family_grid(family: CurveFamily, resolution: int) -> GridSpec:
    """ring_grid about the family's bounding-box midpoint, out to its farthest vertex."""
    # axis by axis, faster on a tall (N, n) array; the squares add in norm(axis=1)'s order
    cols = family.vertices.T
    mid = [0.5 * (x.min() + x.max()) for x in cols]
    R = math.sqrt(np.max(sum((x - m) * (x - m) for x, m in zip(cols, mid))))
    return ring_grid(SphericalRing(tuple(mid), R / 2, R), resolution, len(family))


# ---------------------------------------------------------------------------
# Weighted right-hand-side quadrature
# ---------------------------------------------------------------------------

# Radial rule: Gauss-Legendre nodes per piece between the radii where the
# integrand has a kink.
RADIAL_NODES = 64

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(RADIAL_NODES)


def weighted_rhs_integral(etas: Sequence[EtaFunction], ring: SphericalRing,
                          image: tuple[str, Sequence[float], float] | None = None
                          ) -> list[float]:
    """Integrals of eta(|y - y0|)^n over the ring cut to an image, one per eta.

    `image` is ('ball' | 'exterior', center, R), a mapping's image_ball about
    its center; None is all of space.  In polar coordinates about y0 each value
    is |S^(n-1)| times the integral of eta(r)^n r^(n-1) phi(r) over
    (r_inner, r_outer), where phi(r) is the share of the sphere S(y0, r) in the
    image.  With d = |y0 - center| and cos = (r^2 + d^2 - R^2) / (2 r d)
    clipped to [-1, 1], a ball's share is the arc fraction arccos(cos) / pi
    (n = 2) or the cap fraction (1 - cos) / 2 (n = 3), and r < R for d = 0; an
    exterior's is 1 minus that.  The ring is cut at phi's kinks |R - d| and
    R + d and at every eta's support ends, and each piece (t0, t1) in log r is
    integrated by Gauss-Legendre in u on [0, 1] with
    log r = t0 + (t1 - t0)(3u^2 - 2u^3).  Every eta must be admissible for the
    ring: its integral over (r_inner, r_outer) reaches 1.
    """
    n = ring.dim
    lo, hi = ring.r_inner, ring.r_outer
    for eta in etas:
        ok, integ = admissible_check(eta, lo, hi)
        if not ok:
            raise ValueError(f"eta {eta.describe()} is inadmissible "
                             f"(integral {integ:.6g} < 1)")
    kinks = []
    if image is not None:
        if n not in (2, 3):
            raise ValueError("image shares support dimensions 2 and 3 only")
        shape, center, R = image
        d = float(np.linalg.norm(ring.center_array() - np.asarray(center, dtype=float)))
        kinks = [abs(R - d), R + d]
    ends = [x for eta in etas for x in (eta.r1, eta.r2)]
    # sorted and distinct as np.unique would give them, without its masked-array import
    edges = np.log(sorted({min(max(x, lo), hi) for x in (lo, hi, *ends, *kinks)}))
    # Gauss-Legendre in u for t = log r, where dr = r dt.  The 2-D arc share
    # goes like sqrt(|t - t_k|) at a kink t_k; the map is flat at both ends of
    # the piece, which makes the integrand smooth in u
    t0, t1 = edges[:-1, None], edges[1:, None]
    u = 0.5 * (1.0 + _GL_NODES)
    t = t0 + (t1 - t0) * u * u * (3.0 - 2.0 * u)
    weights = 3.0 * (t1 - t0) * u * (1.0 - u) * _GL_WEIGHTS
    r = np.exp(t).ravel()
    weights = weights.ravel()
    phi = np.ones_like(r)
    if image is not None:
        if d == 0.0:
            phi = (r < R).astype(float)
        else:
            cos = np.clip((r * r + d * d - R * R) / (2.0 * r * d), -1.0, 1.0)
            phi = np.arccos(cos) / math.pi if n == 2 else (1.0 - cos) / 2.0
        if shape == "exterior":
            phi = 1.0 - phi
    rd = r ** n
    scale = unit_sphere_area(n)
    return [scale * float(np.sum(weights * eta(r) ** n * rd * phi)) for eta in etas]


# ---------------------------------------------------------------------------
# Blow-up experiment
# ---------------------------------------------------------------------------

def blowup_family(separation: float, grid: GridSpec, eps0: float = 1.0,
                  center: Sequence[float] = (0.0, 0.0)) -> CurveFamily:
    """Circular arcs joining two radial segments that approach the puncture.

    The segments sit on the positive and negative first axis, reaching from the
    separation radius out to 0.9 * eps0 inside the punctured ball.  The arcs
    have 128 vertices each, and their radii decrease geometrically (eight per
    factor two) down to max(separation, half a grid cell), so families at
    smaller separations are supersets of families at larger ones.
    """
    c = np.asarray(center, dtype=float)
    if len(c) != 2:
        raise ValueError("the blow-up experiment is planar")
    floor = max(separation, 0.5 * float(np.min(grid.spacing)))
    radii, r = [], 0.9 * eps0
    while r >= floor and r > 0.0:
        radii.append(r)
        r *= 2.0 ** (-1.0 / 8)
    th = np.linspace(0.0, math.pi, 128)
    # each radius's upper arc, then its mirror image in the first axis
    arcs = np.array(radii)[:, None, None, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    arcs = c + arcs * np.array([[[1.0, 1.0]], [[1.0, -1.0]]])
    label = (f"arcs joining axis segments, separation={separation:g}, "
             f"floor={floor:g}, {2 * len(radii)} curves")
    return CurveFamily.from_arrays(arcs.reshape(-1, 2), np.full(2 * len(radii), 128), label)


def blowup_experiment(separation: float, resolution: int, eps0: float = 1.0,
                      tol: float = 3e-3, budget: int = DEFAULT_BUDGET,
                      center: Sequence[float] = (0.0, 0.0)) -> float:
    """Discrete modulus of curves joining two continua that run toward a puncture.

    As the separation shrinks the segments extend toward the puncture, the
    family gains arcs, and the modulus grows without bound in the limit.
    """
    if separation < 0:
        raise ValueError("separation must be >= 0")
    c = np.asarray(center, dtype=float)
    grid = GridSpec(tuple(c - eps0), tuple(c + eps0), (resolution, resolution))
    family = blowup_family(separation, grid, eps0, center=c)
    result = discrete_modulus(family, grid, p=2.0, tol=tol, budget=budget)
    return result.value
