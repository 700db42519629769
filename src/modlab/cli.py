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
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, make_dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .curves import generate_ring_family, load_family
from .geometry import SphericalRing
from .mappings import (MAPPING_KINDS, DomainError, MappingSpec, cluster_set_estimate,
                       image_ball)
from .modulus import (DEFAULT_BUDGET, SolverBudgetExceeded, blowup_experiment, discrete_modulus,
                      family_grid, ring_grid, ring_modulus_analytic)
from .verifier import continuity_bound, weight_bound_check, verify_poletski

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VIOLATION = 3
EXIT_BY_STATUS = {"ok": EXIT_OK, "solver_failure": EXIT_SOLVER, "violation": EXIT_VIOLATION}

SCENARIOS = ("ring_modulus", "discrete_modulus", "poletski", "weight_bound",
             "continuity", "blowup", "cluster_set")

GRID_GUARD = {2: 2048, 3: 96}
# solver.resolution when absent from a 3-D config: the 3-D Poletski check's grid
RESOLUTION_3D = 24
# density.csv rows formatted per write, so memory stays bounded on 96^3 grids
DENSITY_BLOCK_ROWS = 4096


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, f: str, msg: str):
        super().__init__(f"{f}: {msg}")
        self.field = f


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip())


def _point(text: str) -> tuple[float, ...]:
    """Comma-separated coordinates; an absent point is the origin in mapping.dim."""
    return _floats(text)


def _above(bound):
    return (lambda v: v > bound), f"must be > {bound}"


def _at_least(bound):
    return (lambda v: v >= bound), f"must be >= {bound}"


def _one_of(choices):
    return (lambda v: v in choices), f"must be one of {', '.join(map(str, choices))}"


@dataclass(frozen=True)
class Key:
    """One INI key: where it lives, how it parses, its default, check and doc."""

    section: str
    key: str
    type: Callable[[str], object]
    default: object
    check: tuple[Callable[[object], bool], str] | None = None
    sweepable: bool = False
    doc: str = ""
    attr: str = ""          # the config field; the key itself when empty
    required: bool = False  # must be given whenever its section is; [scenario] always is

    def __post_init__(self):
        object.__setattr__(self, "attr", self.attr or self.key)

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}"


CONFIG = (
    Key("scenario", "kind", str, "poletski", _one_of(SCENARIOS), required=True,
        doc="required: " + " | ".join(SCENARIOS)),
    Key("scenario", "family_file", str, "",
        doc="curve-family file replayed by discrete_modulus"),
    Key("mapping", "kind", str, "identity", _one_of(MAPPING_KINDS), attr="mapping_kind",
        required=True, doc=" | ".join(MAPPING_KINDS)),
    Key("mapping", "k", int, 1, _at_least(1), doc="winding order (winding only)"),
    Key("mapping", "alpha", float, 1.0, _above(0),
        doc="stretch exponent (radial_stretch only)"),
    Key("mapping", "dim", int, 2, _one_of(tuple(GRID_GUARD)), doc="dimension n"),
    Key("mapping", "center", _point, (0.0, 0.0), doc="puncture location x0"),
    Key("mapping", "epsilon0", float, 0.5, _above(0), doc="punctured-ball radius"),
    Key("geometry", "y0", _point, (0.0, 0.0), doc="image ring center"),
    Key("geometry", "r1", float, 0.1, _above(0), sweepable=True,
        doc="image ring inner radius"),
    Key("geometry", "r2", float, 0.4, sweepable=True, doc="image ring outer radius"),
    Key("geometry", "r0", float, 0.2, _above(0), sweepable=True,
        doc="continuity sample radius"),
    Key("geometry", "eps1", float, 0.1, _above(0), doc="proof-bound inner radius"),
    Key("geometry", "eps1_star", float, 0.4, doc="proof-bound outer radius"),
    Key("geometry", "separation", float, 0.125, _at_least(0), sweepable=True,
        doc="blow-up separation"),
    Key("solver", "resolution", int, 128, _at_least(2), sweepable=True,
        doc=f"grid cells per axis, {RESOLUTION_3D} when absent and n=3 "
            f"(n=2 max {GRID_GUARD[2]}, n=3 max {GRID_GUARD[3]})"),
    Key("solver", "tol", float, 0.003, _above(0),
        doc="relative primal-dual gap of the modulus bracket"),
    Key("solver", "curve_count", int, 192, _at_least(1), sweepable=True,
        doc="curves in generated families"),
    Key("solver", "sample_count", int, 200, _at_least(1), sweepable=True,
        doc="continuity and cluster-set samples"),
    Key("solver", "seed", int, 0, _at_least(0),
        doc="seed of the continuity sample directions"),
    Key("solver", "budget", int, DEFAULT_BUDGET, _at_least(1), doc="dual ascent iteration budget"),
    Key("output", "out_dir", str, "./modlab-out", doc="report directory"),
    Key("sweep", "parameter", str, "", attr="sweep_parameter", required=True,
        doc="the key `modlab sweep` varies, one marked sweepable"),
    Key("sweep", "values", _floats, (), attr="sweep_values",
        doc="its comma-separated values"),
)


class _Experiment:
    """The methods of ExperimentConfig, whose fields are the rows of CONFIG."""

    def validate(self) -> None:
        """Reject a bad value, naming its key: each key's checks, then joint ones."""
        for row in CONFIG:
            value = getattr(self, row.attr)
            if row.type in (float, _point) and not np.all(np.isfinite(value)):
                raise ConfigError(row.name, f"must be finite, got {value!r}")
            if row.check and not row.check[0](value):
                raise ConfigError(row.name, f"{row.check[1]}, got {value!r}")
        for name, value in (("mapping.center", self.center), ("geometry.y0", self.y0)):
            if len(value) != self.dim:
                raise ConfigError(name, f"has {len(value)} coordinates, "
                                        f"but mapping.dim is {self.dim}")
        if self.resolution > GRID_GUARD[self.dim]:
            raise ConfigError("solver.resolution",
                              f"exceeds the n={self.dim} memory guard "
                              f"({GRID_GUARD[self.dim]} cells per axis)")
        if not self.r1 < self.r2:
            raise ConfigError("geometry.r1", f"radii must be ordered, got "
                                             f"r1={self.r1} >= r2={self.r2}")
        if not self.eps1 < self.eps1_star:
            raise ConfigError("geometry.eps1", "must be below eps1_star")
        if self.kind == "continuity" and not 2.0 * self.r0 < self.epsilon0:
            raise ConfigError("geometry.r0", f"must be below epsilon0 / 2 = "
                                             f"{self.epsilon0 / 2}, got {self.r0}")
        if (self.kind in ("continuity", "weight_bound")
                and image_ball(self.mapping())[0] == "exterior"):
            raise ConfigError("mapping.kind", f"{self.mapping_kind} has an unbounded image, "
                                              f"where the weight is not integrable")
        if self.kind == "blowup" and self.dim != 2:
            raise ConfigError("mapping.dim", f"the blow-up experiment is planar, got {self.dim}")

    def mapping(self) -> MappingSpec:
        return MappingSpec(self.mapping_kind, self.dim, self.k, self.alpha,
                           center=self.center, epsilon0=self.epsilon0)


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(row.attr, type(row.default), field(default=row.default)) for row in CONFIG],
    bases=(_Experiment,), namespace={"__module__": __name__})


def default_config() -> str:
    """The documented INI template: every key of CONFIG at its default."""
    lines = ["# modlab experiment configuration (INI, flat key = value sections)"]
    section = None
    for row in CONFIG:
        if row.section != section:
            section = row.section
            lines += ["", f"[{section}]"]
        value = row.default
        if isinstance(value, tuple):
            value = ", ".join(map(str, value))
        doc = ("sweepable; " if row.sweepable else "") + row.doc
        # an absent resolution follows the dimension, so the template leaves it out
        key = f"# {row.key}" if row.attr == "resolution" else row.key
        lines.append(f"{key} = {value}".ljust(26) + f" ; {doc}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    """Read an INI file whose every section and key is a row of CONFIG."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    values: dict = {}
    try:
        if not parser.read(path):
            raise ConfigError("config", f"cannot read {path}")
        known = {(row.section, row.key) for row in CONFIG}
        for section in parser.sections():
            if section not in {s for s, _ in known}:
                raise ConfigError("config", f"unknown section [{section}]")
            for key in parser[section]:
                if (section, key) not in known:
                    raise ConfigError(f"{section}.{key}", "unknown key")
        given = {"scenario", *parser.sections()}
        for row in CONFIG:
            raw = parser.get(row.section, row.key, fallback=None)
            if raw is None:
                if row.required and row.section in given:
                    raise ConfigError(row.name, "missing")
                # a dim that validate rejects (say 10**9) must not size a tuple
                dim = values.get("dim")
                if row.type is _point and dim in GRID_GUARD:
                    values[row.attr] = (0.0,) * dim
                elif row.attr == "resolution" and dim == 3:
                    values[row.attr] = RESOLUTION_3D
                else:
                    values[row.attr] = row.default
                continue
            try:
                values[row.attr] = row.type(raw.strip())
            except (ValueError, TypeError) as exc:
                raise ConfigError(row.name, f"cannot parse {raw!r}") from exc
    except configparser.Error as exc:
        raise ConfigError("config", str(exc).replace("\n", " ")) from exc
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def run_scenario(cfg: ExperimentConfig) -> dict:
    """Execute one scenario; returns a result record with 'violation' flagging."""
    f = cfg.mapping()
    rec: dict = {"scenario": cfg.kind, "violation": False}
    if cfg.kind in ("ring_modulus", "discrete_modulus"):
        if cfg.kind == "discrete_modulus" and cfg.family_file:
            try:
                family = load_family(cfg.family_file)
                dim = family.dim  # an empty family has none
            except (OSError, ValueError) as exc:
                raise ConfigError("scenario.family_file", str(exc)) from exc
            if dim != cfg.dim:
                raise ConfigError("scenario.family_file", f"holds {dim}-D curves, "
                                                          f"but mapping.dim is {cfg.dim}")
            grid = family_grid(family, cfg.resolution)
        else:
            ring = SphericalRing(cfg.y0, cfg.r1, cfg.r2)
            family = generate_ring_family(ring, cfg.curve_count)
            grid = ring_grid(ring, cfg.resolution, cfg.curve_count)
        result = discrete_modulus(family, grid, p=float(cfg.dim), tol=cfg.tol,
                                  budget=cfg.budget)
        rec.update(result=result.to_report(), _density=result)
        if cfg.kind == "ring_modulus":
            exact = ring_modulus_analytic(cfg.dim, cfg.r1, cfg.r2)
            rec.update(analytic=exact, relative_error=(result.value - exact) / exact,
                       parameter=cfg.r2, lhs=result.value, rhs=exact,
                       slack=exact - result.value)
        else:
            rec.update(family=family.label, parameter=len(family), lhs=result.value,
                       rhs="", slack="")
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
        report = continuity_bound(f, cfg.r0, cfg.sample_count, seed=cfg.seed)
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
        reps = cluster_set_estimate(f, radii, samples_per_radius=cfg.sample_count // 2 or 32)
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
    clean = [{key: v for key, v in rec.items() if key != "_density"} for rec in records]
    density = next((rec["_density"] for rec in reversed(records) if rec.get("_density")), None)
    report = {
        "tool": "modlab",
        "version": __version__,
        "seed": cfg.seed,
        "config": asdict(cfg),
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
        spec = density.density.spec
        flat = density.density.flat()
        nz = np.flatnonzero(flat)
        # axis a's shape[a] cell-centre coordinates, formatted once as cell_center computes them
        axes = [np.array(["%.9g" % x for x in (lo + h * (np.arange(m) + 0.5)).tolist()], object)
                for lo, h, m in zip(spec.lo, spec.spacing, spec.shape)]
        row = "%d," + "%s," * spec.dim + "%.9g\r\n"
        with open(out / "density.csv", "w", newline="") as fh:
            fh.write(",".join(["cell_index", *(f"x{a}" for a in range(spec.dim)), "rho"])
                     + "\r\n")
            for i in range(0, len(nz), DENSITY_BLOCK_ROWS):
                cells = nz[i:i + DENSITY_BLOCK_ROWS]
                coords = (x[j] for x, j in zip(axes, np.unravel_index(cells, spec.shape)))
                block = np.column_stack([cells, *coords, flat[cells]])
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _sweep_steps(cfg: ExperimentConfig) -> list:
    if not cfg.sweep_parameter:
        raise ConfigError("sweep.parameter", "a sweep needs exactly one swept parameter")
    sweepable = {row.name: row for row in CONFIG if row.sweepable}
    if cfg.sweep_parameter not in sweepable:
        raise ConfigError("sweep.parameter",
                          f"cannot sweep {cfg.sweep_parameter!r}; "
                          f"choose one of {sorted(sweepable)}")
    values = cfg.sweep_values
    if not values or not np.all(np.isfinite(values)):
        raise ConfigError("sweep.values", "needs one or more finite values")
    row = sweepable[cfg.sweep_parameter]
    if row.type is int and any(v != int(v) for v in values):
        raise ConfigError("sweep.values", f"{row.name} takes integers, got {values}")
    return [(value, replace(cfg, **{row.attr: row.type(value)})) for value in values]


def _execute(config_path, overrides: dict | None, sweep: bool) -> int:
    """Validate every step of a run or sweep, then run them and write the reports.

    A solver failure (the budget ran out, or a lift left the mapping's domain)
    still reports the finished records, the message and the best upper bound.
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
    except (SolverBudgetExceeded, DomainError) as exc:
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


@functools.cache  # building it takes about 1 ms, half a percent of a Poletski run
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "print-defaults":
        print(default_config(), end="")
        return EXIT_OK
    flags = {"resolution": args.grid, "tol": args.tol, "seed": args.seed,
             "out_dir": args.out_dir}
    overrides = {key: value for key, value in flags.items() if value is not None}
    action = run if args.command == "run" else sweep
    return action(args.config, overrides)


if __name__ == "__main__":
    sys.exit(main())
