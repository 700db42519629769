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

from .curves import Curve, CurveFamily, GridDensity, GridSpec, curve_cell_lengths
from .geometry import SphericalRing

DEFAULT_BUDGET = 100_000


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
    """Nonnegative test function on (r1, r2), piecewise constant or closed form.

    kinds:
      piecewise  - constant levels between sorted breakpoints
      reciprocal - 1 / (r log(r2/r1)), the extremizer for the ring
      power      - a * r^s normalized so the integral over (r1, r2) is 1
    """

    kind: str
    r1: float
    r2: float
    breaks: tuple[float, ...] = ()
    levels: tuple[float, ...] = ()
    exponent: float = 0.0

    def __post_init__(self):
        if self.r1 >= self.r2:
            raise ValueError("eta support requires r1 < r2")
        if self.kind == "piecewise":
            if len(self.breaks) != len(self.levels) + 1:
                raise ValueError("piecewise eta needs one more breakpoint than levels")
            if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
                raise ValueError("breakpoints must increase")
            if any(v < 0 for v in self.levels):
                raise ValueError("eta must be nonnegative")
        elif self.kind not in ("reciprocal", "power"):
            raise ValueError(f"unknown eta kind {self.kind!r}")

    def _power_coeff(self) -> float:
        s = self.exponent
        if s == -1.0:
            return 1.0 / math.log(self.r2 / self.r1)
        return (s + 1.0) / (self.r2 ** (s + 1.0) - self.r1 ** (s + 1.0))

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.kind == "piecewise":
            for a, b, v in zip(self.breaks, self.breaks[1:], self.levels):
                out = np.where((r >= a) & (r <= b), v, out)
        elif self.kind == "reciprocal":
            inside = (r > self.r1) & (r < self.r2)
            with np.errstate(divide="ignore"):
                out = np.where(inside, 1.0 / (np.maximum(r, 1e-300) *
                                              math.log(self.r2 / self.r1)), 0.0)
        else:
            inside = (r > self.r1) & (r < self.r2)
            out = np.where(inside, self._power_coeff() * r ** self.exponent, 0.0)
        return out

    def integral(self, a: float | None = None, b: float | None = None) -> float:
        """Exact integral over (a, b) intersected with the support."""
        a = self.r1 if a is None else a
        b = self.r2 if b is None else b
        if self.kind == "piecewise":
            total = 0.0
            for lo, hi, v in zip(self.breaks, self.breaks[1:], self.levels):
                total += v * max(0.0, min(hi, b) - max(lo, a))
            return total
        lo, hi = max(a, self.r1), min(b, self.r2)
        if hi <= lo:
            return 0.0
        if self.kind == "reciprocal":
            return math.log(hi / lo) / math.log(self.r2 / self.r1)
        s = self.exponent
        c = self._power_coeff()
        if s == -1.0:
            return c * math.log(hi / lo)
        return c * (hi ** (s + 1.0) - lo ** (s + 1.0)) / (s + 1.0)

    def describe(self) -> str:
        if self.kind == "piecewise":
            return f"piecewise[{len(self.levels)}] on ({self.r1:g},{self.r2:g})"
        if self.kind == "reciprocal":
            return f"1/(r log(r2/r1)) on ({self.r1:g},{self.r2:g})"
        return f"power(s={self.exponent:g}) on ({self.r1:g},{self.r2:g})"


def uniform_eta(r1: float, r2: float) -> EtaFunction:
    """The constant 1/(r2 - r1) on [r1, r2], zero outside; integral exactly 1."""
    if r1 >= r2:
        raise ValueError("uniform eta requires r1 < r2")
    return EtaFunction("piecewise", r1, r2, breaks=(r1, r2), levels=(1.0 / (r2 - r1),))


def reciprocal_eta(r1: float, r2: float) -> EtaFunction:
    return EtaFunction("reciprocal", r1, r2)


def power_eta(r1: float, r2: float, exponent: float = 1.0) -> EtaFunction:
    return EtaFunction("power", r1, r2, exponent=exponent)


def admissible_check(eta: EtaFunction, r1: float, r2: float) -> tuple[bool, float]:
    """Integrate eta over (r1, r2); admissible when the integral reaches 1.

    Exact for piecewise-constant representations; closed form otherwise.
    """
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
    2 pi r_outer / family_size apart (n = 2) at the outer sphere.  Cells finer
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
    c = ring.center_array() - half / resolution
    return GridSpec(tuple(c - half), tuple(c + half), (resolution,) * n)


def family_grid(family: CurveFamily, resolution: int) -> GridSpec:
    """Bounding-box grid around a family, padded by 5% of its extent on each side."""
    pts = np.vstack([c.vertices for c in family])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = np.maximum(hi - lo, 1e-12)
    return GridSpec(tuple(lo - 0.05 * extent), tuple(hi + 0.05 * extent),
                    (resolution,) * family.dim)


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
    exterior's is 1 minus that.  Gauss-Legendre in log r runs on each piece
    between phi's kinks |R - d| and R + d and every eta's breakpoints and
    support ends; in 2-D with d > 0, where the arc share has square-root kinks,
    each piece is integrated in u with log r = t0 + (t1 - t0)(3u^2 - 2u^3).
    Every eta must be admissible for the ring: its integral over
    (r_inner, r_outer) reaches 1.
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
    ends = [x for eta in etas for x in (eta.r1, eta.r2, *eta.breaks)]
    edges = np.log(np.unique(np.clip([lo, hi, *ends, *kinks], lo, hi)))
    # Gauss-Legendre in t = log r, where dr = r dt
    t0, t1 = edges[:-1, None], edges[1:, None]
    if n == 2 and image is not None and d > 0.0:
        # the arc share goes like sqrt(|t - t_k|) at a kink t_k; the map is
        # flat at both ends of the piece, which makes the integrand smooth in u
        u = 0.5 * (1.0 + _GL_NODES)
        t = t0 + (t1 - t0) * u * u * (3.0 - 2.0 * u)
        weights = 3.0 * (t1 - t0) * u * (1.0 - u) * _GL_WEIGHTS
    else:
        half = 0.5 * (t1 - t0)
        t = t0 + half * (1.0 + _GL_NODES)
        weights = half * _GL_WEIGHTS
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
    h_min = float(np.min(grid.spacing))
    floor = max(separation, 0.5 * h_min)
    ratio = 2.0 ** (-1.0 / 8)
    th = np.linspace(0.0, math.pi, 128)
    curves = []
    r = 0.9 * eps0
    while r >= floor and r > 0.0:
        upper = c + np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        lower = c + np.stack([r * np.cos(th), -r * np.sin(th)], axis=1)
        curves.append(Curve(upper))
        curves.append(Curve(lower))
        r *= ratio
    label = (f"arcs joining axis segments, separation={separation:g}, "
             f"floor={floor:g}, {len(curves)} curves")
    return CurveFamily(curves, label)


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
