"""Workload inputs, operations and output checks for the modlab benchmark.

Every input is generated here from the seed; modlab sees only the INI files,
the curve-family file and the call arguments.  Seed 0 reproduces the
acceptance-suite inputs exactly.  Any other seed shuffles the order of the
operations and jitters every radius by up to +-2%, each ring's two radii by
one common factor.

The common factor keeps r2/r1, which fixes the ring's modulus and the path of
the adaptive right-hand-side quadrature.  Independent factors flipped that
quadrature's last refinement on the (0.002, 0.05) stretch ring, and with it the
suite's peak RSS, between 152 and 416 MB from one seed to the next.

An operation is one CLI ``run`` or one library solve.  Its
``run`` is the timed call; its ``check`` is untimed and returns a failure
message, or None when the output is correct.  Library calls look modlab's
functions up on the package at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import modlab
import modlab.cli
from modlab.curves import Curve, CurveFamily, GridSpec, line_integral
from modlab.geometry import SphericalRing

JITTER = 0.02

# Acceptance criterion 4: (label, [mapping] keys, image rings, the expected
# rhs(reciprocal eta) / lhs ratio N*K).
POLETSKI_ZOO = [
    ("winding_k2", {"kind": "winding", "k": 2}, [(0.1, 0.4), (0.05, 0.3)], 4.0),
    ("winding_k3", {"kind": "winding", "k": 3}, [(0.1, 0.4), (0.05, 0.3)], 9.0),
    ("winding_k5", {"kind": "winding", "k": 5}, [(0.1, 0.4), (0.05, 0.3)], 25.0),
    ("stretch_a0.5", {"kind": "radial_stretch", "alpha": 0.5},
     [(0.15, 0.6), (0.1, 0.5)], 4.0),
    ("stretch_a2", {"kind": "radial_stretch", "alpha": 2.0},
     [(0.02, 0.2), (0.01, 0.1)], 1.0),
    ("stretch_a3", {"kind": "radial_stretch", "alpha": 3.0},
     [(0.01, 0.08), (0.002, 0.05)], 1.0),
]
POLETSKI_RATIO_TOL = 0.15
ORACLE_REL_TOL = 0.05
FEASIBILITY_TOL = 1e-9


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    out_dir: Path | None = None  # where a CLI operation writes its reports


class Jitter:
    """Seeded factors in [0.98, 1.02] for radii; 1 at seed 0."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.active = seed != 0

    def factor(self) -> float:
        return 1.0 + self.rng.uniform(-JITTER, JITTER) if self.active else 1.0

    def ring(self, r1: float, r2: float) -> SphericalRing:
        s = self.factor()
        return SphericalRing((0.0, 0.0), r1 * s, r2 * s)

    def shuffle(self, ops: list) -> list:
        if self.active:
            self.rng.shuffle(ops)
        return ops


def _write_ini(path: Path, sections: dict) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    path.write_text("\n".join(lines))


def _cli_op(name: str, command: str, ini: Path, out: Path,
            check: Callable[[dict], str | None]) -> Operation:
    def run():
        return modlab.cli.main([command, str(ini)])

    def check_exit(code):
        if code != 0:
            return f"exit code {code}"
        return check(json.loads((out / "report.json").read_text()))

    return Operation(name, run, check_exit, out)


# ---------------------------------------------------------------------------
# poletski_suite: the 12 acceptance-zoo configs through `modlab run`
# ---------------------------------------------------------------------------

def _poletski(workdir: Path, jitter: Jitter) -> list[Operation]:
    ops = []
    for label, mapping, rings, ratio in POLETSKI_ZOO:
        branches = mapping.get("k", 1)
        for r1, r2 in rings:
            s = jitter.factor()
            r1, r2 = r1 * s, r2 * s
            name = f"poletski_{label}_r{r1:.4g}-{r2:.4g}"
            ini, out = workdir / f"{name}.ini", workdir / name
            _write_ini(ini, {
                "scenario": {"kind": "poletski"},
                "mapping": {**mapping, "center": "0, 0", "epsilon0": 0.5, "dim": 2},
                "geometry": {"y0": "0, 0", "r1": repr(r1), "r2": repr(r2)},
                "solver": {"resolution": 128, "tol": 0.003,
                           "curve_count": max(48, 256 // branches), "seed": 0},
                "output": {"out_dir": str(out)},
            })
            ops.append(_cli_op(name, "run", ini, out, _poletski_check(ratio)))
    return ops


def _poletski_check(ratio: float):
    def check(report: dict) -> str | None:
        rec = report["results"][0]
        # report.json carries lhs as the bare float: run_scenario overwrites the
        # solver record (iterations, residual, active curves) with the trace value.
        lhs = rec["lhs"]
        rhs = next(e["value"] for e in rec["rhs_per_eta"]
                   if e["eta"].startswith("1/(r log"))
        seen = rhs / lhs
        if not rec["satisfied"] or abs(seen - ratio) / ratio > POLETSKI_RATIO_TOL:
            return f"rhs/lhs {seen:.4f} vs N*K {ratio} (satisfied={rec['satisfied']})"
        return None
    return check


# ---------------------------------------------------------------------------
# oracles: three library solves with short 2-vertex rows
# ---------------------------------------------------------------------------

def _oracles(workdir: Path, jitter: Jitter) -> list[Operation]:
    ring = jitter.ring(1.0, math.e)
    mixed_ring = jitter.ring(1.0, math.e)
    square = GridSpec((0.0, 0.0), (1.0, 1.0), (256, 256))
    sides = CurveFamily([Curve([[0.0, (j + 0.5) / 256], [1.0, (j + 0.5) / 256]])
                         for j in range(256)], "side-joining")

    def ring_solve():
        family = modlab.generate_ring_family(ring, 256)
        grid = modlab.ring_grid(ring, 256, 256)
        return modlab.discrete_modulus(family, grid, p=2.0, tol=3e-3)

    def ring_check(result):
        exact = modlab.ring_modulus_analytic(2, ring.r_inner, ring.r_outer)
        rel = abs(result.value - exact) / exact
        return None if rel <= ORACLE_REL_TOL else f"M={result.value} vs {exact} ({rel:.2%})"

    def rectangle_solve():
        return modlab.discrete_modulus(sides, square, p=2.0, tol=3e-3)

    def rectangle_check(result):
        rel = abs(result.value - 1.0)
        return None if rel <= ORACLE_REL_TOL else f"M={result.value} vs 1 ({rel:.2%})"

    def mixed_solve():
        radial = modlab.generate_ring_family(mixed_ring, 128)
        spiral = modlab.generate_ring_family(mixed_ring, 128, kind="spiral",
                                             pitch=0.5, vertex_budget=32)
        family = CurveFamily(list(radial) + list(spiral), "radial(128)+spiral(128)")
        grid = modlab.ring_grid(mixed_ring, 256, 256)
        return family, modlab.discrete_modulus(family, grid, p=2.0, tol=3e-3)

    def mixed_check(out):
        family, result = out
        worst = min(line_integral(result.density, c) for c in family)
        if worst < 1.0 - FEASIBILITY_TOL:
            return f"density infeasible: least curve integral {worst!r}"
        return None

    return [Operation("ring_oracle", ring_solve, ring_check),
            Operation("rectangle_oracle", rectangle_solve, rectangle_check),
            Operation("mixed_family", mixed_solve, mixed_check)]


WORKLOADS = {
    "poletski_suite": _poletski,
    "oracles": _oracles,
}


def build(name: str, seed: int, workdir) -> list[Operation]:
    """Write the workload's input files under workdir and return its operations."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jitter = Jitter(seed)
    return jitter.shuffle(WORKLOADS[name](workdir, jitter))
