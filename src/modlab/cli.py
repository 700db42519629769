"""Config-driven experiment runner: parses INI scenarios, runs them, writes reports.

Scenario kinds: ring_modulus, discrete_modulus, poletski, weight_bound, continuity,
blowup, cluster_set.  Every run writes report.json plus trace.csv (and
density.csv when a solve produced an extremal density).  Exit codes: 0 success,
1 configuration error, 2 solver failure, 3 an inequality check failed; the
report's status is ok, solver_failure or violation for exits 0, 2 and 3.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .curves import generate_ring_family, load_family
from .geometry import SphericalRing
from .mappings import (DomainError, LiftingAmbiguity, MappingSpec,
                       cluster_set_estimate, identity, inversion, radial_stretch,
                       winding)
from .modulus import (SolverBudgetExceeded, blowup_experiment, discrete_modulus,
                      ring_grid, ring_modulus_analytic)
from .verifier import continuity_bound, weight_bound_check, verify_poletski

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VIOLATION = 3
EXIT_BY_STATUS = {"ok": EXIT_OK, "solver_failure": EXIT_SOLVER, "violation": EXIT_VIOLATION}

SCENARIOS = ("ring_modulus", "discrete_modulus", "poletski", "weight_bound",
             "continuity", "blowup", "cluster_set")

GRID_GUARD = {2: 2048, 3: 96}

# Float and coordinate keys that must be finite.
FINITE_KEYS = ("mapping.alpha", "mapping.center", "mapping.epsilon0", "geometry.y0",
               "geometry.r1", "geometry.r2", "geometry.r0", "geometry.eps1",
               "geometry.eps1_star", "geometry.separation", "solver.tol")

DEFAULT_CONFIG = """\
# modlab experiment configuration (INI, flat key = value sections)

[scenario]
kind = poletski            ; one of: ring_modulus, discrete_modulus, poletski,
                           ;         weight_bound, continuity, blowup, cluster_set

[mapping]
kind = winding             ; identity | winding | radial_stretch | inversion
k = 3                      ; winding order (winding only)
alpha = 2.0                ; stretch exponent (radial_stretch only)
center = 0, 0              ; puncture location x0
epsilon0 = 0.5             ; punctured-ball radius
dim = 2

[geometry]
y0 = 0, 0                  ; image ring center
r1 = 0.1                   ; image ring inner radius
r2 = 0.4                   ; image ring outer radius
r0 = 0.2                   ; continuity sample radius
eps1 = 0.1                 ; proof-bound inner radius
eps1_star = 0.4            ; proof-bound outer radius
separation = 0.125         ; blow-up separation

[solver]
resolution = 128           ; grid cells per axis (n=2 max 2048, n=3 max 96)
tol = 0.003                ; relative primal-dual gap of the modulus bracket
curve_count = 192          ; curves in generated families
sample_count = 200         ; continuity samples
seed = 0
budget = 200000            ; dual ascent iteration budget

[output]
out_dir = ./modlab-out
"""


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, f: str, msg: str):
        super().__init__(f"{f}: {msg}")
        self.field = f


@dataclass
class ExperimentConfig:
    kind: str
    mapping_kind: str = "identity"
    k: int = 1
    alpha: float = 1.0
    center: tuple[float, ...] = (0.0, 0.0)
    epsilon0: float = 0.5
    dim: int = 2
    y0: tuple[float, ...] = (0.0, 0.0)
    r1: float = 0.1
    r2: float = 0.4
    r0: float = 0.2
    eps1: float = 0.1
    eps1_star: float = 0.4
    separation: float = 0.125
    resolution: int = 128
    tol: float = 3e-3
    curve_count: int = 192
    sample_count: int = 200
    seed: int = 0
    budget: int = 200_000
    out_dir: str = "./modlab-out"
    family_file: str = ""
    sweep_parameter: str = ""
    sweep_values: tuple[float, ...] = ()

    def validate(self) -> None:
        if self.kind not in SCENARIOS:
            raise ConfigError("scenario.kind", f"unknown scenario {self.kind!r}")
        if self.mapping_kind not in ("identity", "winding", "radial_stretch", "inversion"):
            raise ConfigError("mapping.kind", f"unknown mapping {self.mapping_kind!r}")
        if self.dim not in GRID_GUARD:
            raise ConfigError("mapping.dim", "supported dimensions are 2 and 3")
        for name in FINITE_KEYS:
            value = getattr(self, name.split(".")[1])
            if not np.all(np.isfinite(value)):
                raise ConfigError(name, f"must be finite, got {value!r}")
        for name, value in (("mapping.center", self.center), ("geometry.y0", self.y0)):
            if len(value) != self.dim:
                raise ConfigError(name, f"has {len(value)} coordinates, "
                                        f"but mapping.dim is {self.dim}")
        if self.resolution > GRID_GUARD[self.dim]:
            raise ConfigError("solver.resolution",
                              f"exceeds the n={self.dim} memory guard "
                              f"({GRID_GUARD[self.dim]} cells per axis)")
        if self.resolution < 2:
            raise ConfigError("solver.resolution", "must be at least 2")
        if not self.r1 < self.r2:
            raise ConfigError("geometry.r1", f"radii must be ordered, got "
                                             f"r1={self.r1} >= r2={self.r2}")
        if not self.eps1 < self.eps1_star:
            raise ConfigError("geometry.eps1", "must be below eps1_star")
        if self.k < 1:
            raise ConfigError("mapping.k", "winding order must be >= 1")
        if self.alpha <= 0:
            raise ConfigError("mapping.alpha", "stretch exponent must be positive")
        if self.epsilon0 <= 0:
            raise ConfigError("mapping.epsilon0", "must be positive")
        if self.tol <= 0:
            raise ConfigError("solver.tol", "must be positive")
        if self.curve_count < 1:
            raise ConfigError("solver.curve_count", "must be >= 1")

    def mapping(self) -> MappingSpec:
        if self.mapping_kind == "identity":
            return identity(self.dim, self.center, self.epsilon0)
        if self.mapping_kind == "winding":
            return winding(self.k, self.dim, self.center, self.epsilon0)
        if self.mapping_kind == "radial_stretch":
            return radial_stretch(self.alpha, self.dim, self.center, self.epsilon0)
        return inversion(self.dim, self.center, self.epsilon0)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip())


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError("config", f"cannot read {path}")
    cfg = ExperimentConfig(kind="poletski")

    def fetch(section, key, cast, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key).strip()
        try:
            return cast(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}") from exc

    if not parser.has_section("scenario") or not parser.has_option("scenario", "kind"):
        raise ConfigError("scenario.kind", "missing")
    cfg.kind = parser.get("scenario", "kind").strip()
    if parser.has_section("mapping") and not parser.has_option("mapping", "kind"):
        raise ConfigError("mapping.kind", "missing")
    cfg.mapping_kind = fetch("mapping", "kind", str, cfg.mapping_kind)
    cfg.k = fetch("mapping", "k", int, cfg.k)
    cfg.alpha = fetch("mapping", "alpha", float, cfg.alpha)
    cfg.epsilon0 = fetch("mapping", "epsilon0", float, cfg.epsilon0)
    cfg.dim = fetch("mapping", "dim", int, cfg.dim)
    cfg.center = fetch("mapping", "center", _floats, (0.0,) * cfg.dim)
    cfg.y0 = fetch("geometry", "y0", _floats, (0.0,) * cfg.dim)
    cfg.r1 = fetch("geometry", "r1", float, cfg.r1)
    cfg.r2 = fetch("geometry", "r2", float, cfg.r2)
    cfg.r0 = fetch("geometry", "r0", float, cfg.r0)
    cfg.eps1 = fetch("geometry", "eps1", float, cfg.eps1)
    cfg.eps1_star = fetch("geometry", "eps1_star", float, cfg.eps1_star)
    cfg.separation = fetch("geometry", "separation", float, cfg.separation)
    cfg.resolution = fetch("solver", "resolution", int, cfg.resolution)
    cfg.tol = fetch("solver", "tol", float, cfg.tol)
    cfg.curve_count = fetch("solver", "curve_count", int, cfg.curve_count)
    cfg.sample_count = fetch("solver", "sample_count", int, cfg.sample_count)
    cfg.seed = fetch("solver", "seed", int, cfg.seed)
    cfg.budget = fetch("solver", "budget", int, cfg.budget)
    cfg.out_dir = fetch("output", "out_dir", str, cfg.out_dir)
    cfg.family_file = fetch("scenario", "family_file", str, cfg.family_file)

    if parser.has_section("sweep"):
        if not parser.has_option("sweep", "parameter"):
            raise ConfigError("sweep.parameter", "missing")
        cfg.sweep_parameter = parser.get("sweep", "parameter").strip()
        cfg.sweep_values = fetch("sweep", "values", _floats, ())
    return cfg


SWEEPABLE = {
    "geometry.separation": "separation",
    "geometry.r0": "r0",
    "geometry.r1": "r1",
    "geometry.r2": "r2",
    "solver.sample_count": "sample_count",
    "solver.resolution": "resolution",
    "solver.curve_count": "curve_count",
}


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def _density_rows(result):
    spec = result.density.spec
    flat = result.density.flat()
    nz = np.nonzero(flat)[0]
    centers = spec.cell_center(nz)
    for i, idx in enumerate(nz):
        yield [int(idx)] + [f"{c:.9g}" for c in np.atleast_1d(centers[i])] + [f"{flat[idx]:.9g}"]


def run_scenario(cfg: ExperimentConfig) -> dict:
    """Execute one scenario; returns a result record with 'violation' flagging."""
    f = cfg.mapping()
    rec: dict = {"scenario": cfg.kind, "violation": False}
    if cfg.kind == "ring_modulus":
        ring = SphericalRing(cfg.y0, cfg.r1, cfg.r2)
        family = generate_ring_family(ring, cfg.curve_count)
        grid = ring_grid(ring, cfg.resolution, cfg.curve_count)
        result = discrete_modulus(family, grid, p=float(cfg.dim), tol=cfg.tol,
                                  budget=cfg.budget)
        exact = ring_modulus_analytic(cfg.dim, cfg.r1, cfg.r2)
        rec.update(result=result.to_report(), analytic=exact,
                   relative_error=(result.value - exact) / exact, _density=result)
        rec.update(parameter=cfg.r2, lhs=result.value, rhs=exact,
                   slack=exact - result.value)
    elif cfg.kind == "discrete_modulus":
        if cfg.family_file:
            family = load_family(cfg.family_file)
            from .modulus import family_grid
            grid = family_grid(family, cfg.resolution)
        else:
            ring = SphericalRing(cfg.y0, cfg.r1, cfg.r2)
            family = generate_ring_family(ring, cfg.curve_count)
            grid = ring_grid(ring, cfg.resolution, cfg.curve_count)
        result = discrete_modulus(family, grid, p=float(cfg.dim), tol=cfg.tol,
                                  budget=cfg.budget)
        rec.update(result=result.to_report(), family=family.label, _density=result)
        rec.update(parameter=len(family), lhs=result.value, rhs="", slack="")
    elif cfg.kind == "poletski":
        report = verify_poletski(f, cfg.y0, cfg.r1, cfg.r2, cfg.resolution,
                                 count=cfg.curve_count, solver_tol=cfg.tol,
                                 budget=cfg.budget)
        rec.update(report.to_dict(), result=report.lhs.to_report(),
                   violation=not report.satisfied, _density=report.lhs)
        rec.update(parameter=cfg.r2, lhs=report.lhs.value, rhs=report.min_rhs(),
                   slack=report.slack)
    elif cfg.kind == "weight_bound":
        report = weight_bound_check(f, cfg.y0, cfg.eps1, cfg.eps1_star, cfg.resolution,
                                count=cfg.curve_count, solver_tol=cfg.tol,
                                budget=cfg.budget)
        rec.update(report.to_dict(), result=report.lhs_result.to_report(),
                   violation=not report.holds, _density=report.lhs_result)
        rec.update(parameter=cfg.eps1_star, lhs=report.lhs, rhs=report.bound,
                   slack=report.bound - report.lhs)
    elif cfg.kind == "continuity":
        report = continuity_bound(f, cfg.center, cfg.r0, cfg.sample_count,
                                  seed=cfg.seed)
        finite = math.isfinite(report.estimated_Cn)
        rec.update(report.to_dict(), violation=not finite)
        rec.update(parameter=cfg.sample_count, lhs=report.estimated_Cn,
                   rhs=report.q_l1_norm, slack="")
    elif cfg.kind == "blowup":
        value = blowup_experiment(cfg.separation, cfg.resolution,
                                  eps0=cfg.epsilon0, tol=cfg.tol,
                                  budget=cfg.budget, center=cfg.center)
        rec.update(separation=cfg.separation, modulus=value)
        rec.update(parameter=cfg.separation, lhs=value, rhs="", slack="")
    elif cfg.kind == "cluster_set":
        radii = [cfg.epsilon0 * 0.5 ** j for j in range(3, 10)]
        reps = cluster_set_estimate(f, cfg.center, radii,
                                    samples_per_radius=cfg.sample_count // 2 or 32)
        rec.update(cluster_points=[(list(p.coords) if not p.is_infinity else "infinity")
                                   for p in reps])
        rec.update(parameter=len(reps), lhs=len(reps), rhs="", slack="")
    else:
        raise ConfigError("scenario.kind", f"unknown scenario {cfg.kind!r}")
    return rec


def _write_outputs(cfg: ExperimentConfig, records: list[dict], started: float,
                   outcome: dict) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clean = []
    density = None
    for rec in records:
        rec = dict(rec)
        density = rec.pop("_density", None) or density
        clean.append(rec)
    echo = {k: v for k, v in asdict(cfg).items() if not k.startswith("_")}
    report = {
        "tool": "modlab",
        "version": __version__,
        "seed": cfg.seed,
        "config": echo,
        **outcome,
        "results": clean,
        "wall_clock_seconds": time.time() - started,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, default=str))
    with open(out / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "parameter", "lhs", "rhs", "slack"])
        for i, rec in enumerate(clean):
            writer.writerow([rec.get("scenario", cfg.kind), rec.get("parameter", i),
                             rec.get("lhs", ""), rec.get("rhs", ""),
                             rec.get("slack", "")])
    if density is not None:
        with open(out / "density.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_index"]
                            + [f"x{a}" for a in range(density.density.spec.dim)]
                            + ["rho"])
            for row in _density_rows(density):
                writer.writerow(row)


def _sweep_steps(cfg: ExperimentConfig) -> list:
    if not cfg.sweep_parameter:
        raise ConfigError("sweep.parameter", "a sweep needs exactly one swept parameter")
    if cfg.sweep_parameter not in SWEEPABLE:
        raise ConfigError("sweep.parameter",
                          f"cannot sweep {cfg.sweep_parameter!r}; "
                          f"choose one of {sorted(SWEEPABLE)}")
    if not cfg.sweep_values or not np.all(np.isfinite(cfg.sweep_values)):
        raise ConfigError("sweep.values", "needs one or more finite values")
    attr = SWEEPABLE[cfg.sweep_parameter]
    cast = int if attr in ("sample_count", "resolution", "curve_count") else float
    return [(value, replace(cfg, **{attr: cast(value)})) for value in cfg.sweep_values]


def _execute(config_path, overrides: dict | None, sweep: bool) -> int:
    """Validate every step of a run or sweep, then run them and write the reports.

    A solver failure (the budget ran out, or a lift met a branch point or left
    the mapping's domain) still reports the finished records, the message and
    the best upper bound.
    """
    started = time.time()
    records, failure = [], {}
    try:
        cfg = load_config(config_path)
        if overrides:
            cfg = replace(cfg, **overrides)
        steps = _sweep_steps(cfg) if sweep else [(None, cfg)]
        for _, step in steps:
            step.validate()
        for value, step in steps:
            rec = run_scenario(step)
            records.append({**rec, "parameter": value} if sweep else rec)
    except (SolverBudgetExceeded, LiftingAmbiguity, DomainError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        failure = {"message": str(exc), "best_value": getattr(exc, "best_value", None)}
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violation = any(rec.get("violation") for rec in records)
    status = "solver_failure" if failure else "violation" if violation else "ok"
    _write_outputs(cfg, records, started, {"status": status, **failure})
    if status == "violation":
        print("inequality check FAILED; see report.json", file=sys.stderr)
    return EXIT_BY_STATUS[status]


def run(config_path, overrides: dict | None = None) -> int:
    """Execute the configured scenario and write report files."""
    return _execute(config_path, overrides, sweep=False)


def sweep(config_path, overrides: dict | None = None) -> int:
    """Run the scenario once per swept parameter value; one CSV row per value."""
    return _execute(config_path, overrides, sweep=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="modulus-of-curve-families experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        p = sub.add_parser(name, help=f"{name} a configured scenario")
        p.add_argument("config", help="path to an INI scenario file")
        p.add_argument("--grid", type=int, help="override solver.resolution")
        p.add_argument("--tol", type=float, help="override solver.tol")
        p.add_argument("--seed", type=int, help="override solver.seed")
        p.add_argument("--out-dir", help="override output.out_dir")
    sub.add_parser("print-defaults", help="print a documented default config")
    args = parser.parse_args(argv)

    if args.command == "print-defaults":
        print(DEFAULT_CONFIG, end="")
        return EXIT_OK
    flags = {"resolution": args.grid, "tol": args.tol, "seed": args.seed,
             "out_dir": args.out_dir}
    overrides = {key: value for key, value in flags.items() if value is not None}
    action = run if args.command == "run" else sweep
    return action(args.config, overrides)


if __name__ == "__main__":
    sys.exit(main())
