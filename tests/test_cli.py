"""CLI: config parsing, scenario execution, reports, exit codes, determinism."""

import configparser
import csv
import io
import json
import math
from types import SimpleNamespace

import pytest
import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from modlab import cli
from modlab.curves import (Curve, CurveFamily, GridDensity, GridSpec,
                           generate_ring_family, save_family)
from modlab.geometry import SphericalRing
from modlab.mappings import DomainError
from modlab.modulus import discrete_modulus, ring_grid


def write_config(path, text):
    path.write_text(text)
    return str(path)


POLETSKI_CONFIG = """
[scenario]
kind = poletski

[mapping]
kind = winding
k = 3
center = 0, 0
epsilon0 = 0.5
dim = 2

[geometry]
y0 = 0, 0
r1 = 0.1
r2 = 0.4

[solver]
resolution = 64
curve_count = 32
tol = 0.005
seed = 7

[output]
out_dir = {out}
"""


class TestConfigParsing:
    def test_print_defaults_parses(self, capsys):
        assert cli.main(["print-defaults"]) == 0
        text = capsys.readouterr().out
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(text)
        assert parser.get("scenario", "kind") == "poletski"

    def test_missing_mapping_kind(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", """
[scenario]
kind = poletski
[mapping]
k = 3
""")
        assert cli.run(cfg) == cli.EXIT_CONFIG

    def test_radii_out_of_order(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=tmp_path)
                           .replace("r1 = 0.1", "r1 = 0.5"))
        assert cli.run(cfg) == cli.EXIT_CONFIG

    def test_unreadable_config(self, tmp_path):
        assert cli.run(str(tmp_path / "missing.ini")) == cli.EXIT_CONFIG

    def test_memory_guard(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=tmp_path)
                           .replace("resolution = 64", "resolution = 4096"))
        assert cli.run(cfg) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("field, edits", [
        ("mapping.center", {"center = 0, 0": "center = 0.3, 0.1, 0.2"}),
        ("geometry.y0", {"center = 0, 0": "center = 0, 0, 0", "dim = 2": "dim = 3"}),
    ])
    def test_coordinate_length_mismatch(self, tmp_path, capsys, field, edits):
        text = POLETSKI_CONFIG.format(out=tmp_path)
        for old, new in edits.items():
            text = text.replace(old, new)
        assert cli.run(write_config(tmp_path / "c.ini", text)) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, old, new", [
        ("geometry.r1", "r1 = 0.1", "r1 = nan"),
        ("solver.tol", "tol = 0.005", "tol = inf"),
        ("mapping.center", "center = 0, 0", "center = 0, nan"),
    ])
    def test_non_finite_value_named(self, tmp_path, capsys, field, old, new):
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=tmp_path)
                           .replace(old, new))
        assert cli.run(cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "finite" in err

    @pytest.mark.parametrize("field, edits, command", [
        ("solver.sample_count", {"[solver]": "[solver]\nsample_count = 0"}, "run"),
        ("solver.budget", {"[solver]": "[solver]\nbudget = 0"}, "run"),
        ("geometry.separation", {"r2 = 0.4": "r2 = 0.4\nseparation = -0.1"}, "run"),
        ("geometry.r1", {"r1 = 0.1": "r1 = 0"}, "run"),
        ("geometry.r0", {"r2 = 0.4": "r2 = 0.4\nr0 = -0.2"}, "run"),
        ("geometry.eps1", {"r2 = 0.4": "r2 = 0.4\neps1 = 0"}, "run"),
        ("sweep.values", {"[output]": "[sweep]\nparameter = solver.resolution\n"
                                      "values = 32.7, 48.2\n[output]"}, "sweep"),
        ("solver.resolutoin", {"resolution = 64": "resolutoin = 32"}, "run"),
        ("[solvr]", {"[solver]": "[solvr]"}, "run"),
        ("solver.seed", {"seed = 7": "seed = -1"}, "run"),
        # scenario-specific checks, also made before any work
        ("geometry.r0", {"kind = poletski": "kind = continuity",
                         "r2 = 0.4": "r2 = 0.4\nr0 = 0.25"}, "run"),
        ("mapping.kind", {"kind = poletski": "kind = continuity",
                          "kind = winding": "kind = inversion"}, "run"),
        ("mapping.kind", {"kind = poletski": "kind = weight_bound",
                          "kind = winding": "kind = inversion"}, "run"),
        ("mapping.dim", {"kind = poletski": "kind = blowup", "dim = 2": "dim = 3",
                         "center = 0, 0": "center = 0, 0, 0", "y0 = 0, 0": "y0 = 0, 0, 0",
                         "resolution = 64": "resolution = 24"}, "run"),
        ("geometry.r0", {"kind = poletski": "kind = continuity",
                         "[output]": "[sweep]\nparameter = geometry.r0\n"
                                     "values = 0.1, 0.2, 0.3\n[output]"}, "sweep"),
    ])
    def test_bad_value_named(self, tmp_path, capsys, field, edits, command):
        out = tmp_path / "out"
        text = POLETSKI_CONFIG.format(out=out)
        for old, new in edits.items():
            text = text.replace(old, new)
        assert cli.main([command, write_config(tmp_path / "c.ini", text)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        {"[scenario]": "kind = poletski\n[scenario]"},
        {"[output]": "[solver]\nseed = 1\n[output]"},
        {"kind = poletski": "kind = poletski\nfamily_file = 100%"},
    ], ids=["no-section-header", "duplicate-section", "bad-interpolation"])
    def test_malformed_ini_is_config_error(self, tmp_path, capsys, edit):
        text = POLETSKI_CONFIG.format(out=tmp_path / "out")
        for old, new in edit.items():
            text = text.replace(old, new, 1)
        assert cli.run(write_config(tmp_path / "c.ini", text)) == cli.EXIT_CONFIG
        assert "configuration error: config:" in capsys.readouterr().err

    def test_print_defaults_round_trip(self, tmp_path, capsys):
        assert cli.main(["print-defaults"]) == 0
        cfg = cli.load_config(write_config(tmp_path / "d.ini", capsys.readouterr().out))
        assert cfg == cli.ExperimentConfig()
        assert {row.attr: getattr(cfg, row.attr) for row in cli.CONFIG} == \
            {row.attr: row.default for row in cli.CONFIG}
        cfg.validate()

    def test_print_defaults_edited_to_3d(self, tmp_path, capsys):
        assert cli.main(["print-defaults"]) == 0
        text = capsys.readouterr().out
        for key, value in (("dim", "3"), ("center", "0, 0, 0"), ("y0", "0, 0, 0")):
            lines = [line for line in text.splitlines() if line.startswith(f"{key} =")]
            assert len(lines) == 1
            text = text.replace(lines[0], f"{key} = {value}")
        cfg = cli.load_config(write_config(tmp_path / "d.ini", text))
        assert cfg.resolution == cli.RESOLUTION_3D == 24
        cfg.validate()

    def test_absent_point_is_origin_in_dim(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path / "c.ini", """
[scenario]
kind = poletski
[mapping]
kind = identity
dim = 3
[solver]
resolution = 24
"""))
        cfg.validate()
        assert cfg.center == cfg.y0 == (0.0, 0.0, 0.0)

    def test_absent_resolution_in_3d(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = poletski
[mapping]
kind = winding
k = 3
dim = 3
[solver]
curve_count = 64
[output]
out_dir = {out}
""")
        assert cli.load_config(path).resolution == cli.RESOLUTION_3D == 24
        assert cli.run(path) == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())["config"]["resolution"] == 24

    def test_unknown_scenario(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=tmp_path)
                           .replace("kind = poletski", "kind = warp", 1))
        assert cli.run(cfg) == cli.EXIT_CONFIG


ROW_NAMES = [row.name for row in cli.CONFIG]
RAW_VALUES = st.one_of(
    st.integers(-3, 3000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "0, 0", "0.1, 0.2, 0.3", "poletski", "winding", "1e999",
                     *ROW_NAMES]),
    st.text(alphabet="0123456789.,-e%;[]ab ", max_size=8))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.dictionaries(st.sampled_from(ROW_NAMES), RAW_VALUES, max_size=5))
def test_random_config_loads_or_names_a_key(tmp_path, edits):
    """Random values for table keys load and validate, or name a table key."""
    sections: dict = {"scenario": {"kind": "poletski"}}
    for name, raw in edits.items():
        section, key = name.split(".")
        sections.setdefault(section, {})[key] = raw
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())
    try:
        cfg = cli.load_config(write_config(tmp_path / "c.ini", text))
        cfg.validate()
        cfg.mapping()
        for _, step in cli._sweep_steps(cfg) if cfg.sweep_parameter else ():
            step.validate()
    except cli.ConfigError as exc:
        assert exc.field in ROW_NAMES + ["config"], str(exc)


FAMILY_CONFIG = """
[scenario]
kind = discrete_modulus
family_file = {family}
[mapping]
kind = identity
dim = {dim}
[solver]
resolution = 16
[output]
out_dir = {out}
"""

# the off-centre Moebius check: the inversion keeps the 2-modulus and Q = 1,
# so the extremal eta makes the inequality an equality
MOEBIUS_CONFIG = """
[scenario]
kind = poletski
[mapping]
kind = inversion
[geometry]
y0 = 3, 0
r1 = 0.2
r2 = 0.8
[solver]
curve_count = 256
[output]
out_dir = {out}
"""


class TestRun:
    def test_poletski_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out))
        assert cli.main(["run", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tool"] == "modlab"
        assert report["seed"] == 7
        assert report["status"] == "ok"
        assert report["results"][0]["satisfied"] is True
        assert report["results"][0]["q_value"] == 9.0
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scenario", "parameter", "lhs", "rhs", "slack"]
        assert len(rows) == 2
        assert (out / "density.csv").exists()

    @pytest.mark.parametrize("kind", ["poletski", "weight_bound"])
    def test_report_carries_solver_record(self, tmp_path, kind):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out)
                           .replace("kind = poletski", f"kind = {kind}"))
        assert cli.run(cfg) == 0
        rec = json.loads((out / "report.json").read_text())["results"][0]
        assert rec["result"]["lower_bound"] <= rec["result"]["value"]
        assert rec["lhs"] == rec["result"]["value"]
        assert rec["result"]["iterations"] > 0

    def test_ring_modulus_scenario(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = ring_modulus
[geometry]
r1 = 1.0
r2 = 2.0
[solver]
resolution = 96
curve_count = 96
[output]
out_dir = {out}
""")
        assert cli.run(cfg) == 0
        report = json.loads((out / "report.json").read_text())
        rec = report["results"][0]
        assert abs(rec["relative_error"]) < 0.08

    def test_density_csv_bytes(self, tmp_path):
        """density.csv equals per-row csv.writer formatting of the run's density."""
        # a 2-D run, and a 3-D run with more nonzero cells than one write block
        runs = [(2, 48, 48, 0.003, 100), (3, 24, 2048, 0.05, cli.DENSITY_BLOCK_ROWS)]
        for dim, resolution, count, tol, least in runs:
            out = tmp_path / f"out{dim}"
            path = write_config(tmp_path / f"c{dim}.ini", f"""
[scenario]
kind = ring_modulus
[mapping]
kind = identity
dim = {dim}
[geometry]
r1 = 1.0
r2 = 2.0
[solver]
resolution = {resolution}
curve_count = {count}
tol = {tol}
[output]
out_dir = {out}
""")
            assert cli.run(path) == 0
            density = cli.run_scenario(cli.load_config(path))["_density"].density
            flat = density.flat()
            nz = np.nonzero(flat)[0]
            centers = density.spec.cell_center(nz)
            expected = io.StringIO(newline="")
            writer = csv.writer(expected)
            writer.writerow(["cell_index"] + [f"x{a}" for a in range(dim)] + ["rho"])
            for i, idx in enumerate(nz):
                writer.writerow([int(idx)] + [f"{c:.9g}" for c in centers[i]]
                                + [f"{flat[idx]:.9g}"])
            assert len(nz) > least
            assert (out / "density.csv").read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("spec", [GridSpec((-0.37, 1.1), (2.9, 1.75), (97, 80)),
                                      GridSpec((-1.0, -0.3, 0.2), (0.4, 1.0, 2.2), (21, 18, 24))])
    def test_density_csv_matches_block_formatter(self, tmp_path, spec):
        """density.csv equals the %-formatting of every row's cell_center, in blocks."""
        values = np.random.default_rng(spec.dim).random(spec.n_cells) ** 3
        values[values < 0.1] = 0.0
        flat = GridDensity(spec, values).flat()
        nz = np.flatnonzero(flat)
        assert len(nz) > cli.DENSITY_BLOCK_ROWS
        rows = np.column_stack([nz, spec.cell_center(nz), flat[nz]])
        row = ",".join(["%d"] + ["%.9g"] * (spec.dim + 1)) + "\r\n"
        expected = ",".join(["cell_index", *(f"x{a}" for a in range(spec.dim)), "rho"]) + "\r\n"
        for i in range(0, len(rows), cli.DENSITY_BLOCK_ROWS):
            block = rows[i:i + cli.DENSITY_BLOCK_ROWS]
            expected += row * len(block) % tuple(block.ravel().tolist())
        cfg = cli.ExperimentConfig(out_dir=str(tmp_path))
        record = {"_density": SimpleNamespace(density=GridDensity(spec, values))}
        cli._write_outputs(cfg, [record], 0.0, {"status": "ok"})
        assert (tmp_path / "density.csv").read_bytes() == expected.encode()

    def test_cluster_set_scenario(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = cluster_set
[mapping]
kind = inversion
epsilon0 = 0.5
[output]
out_dir = {out}
""")
        assert cli.run(cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"][0]["cluster_points"] == ["infinity"]

    @pytest.mark.parametrize("kind", ["continuity", "cluster_set"])
    def test_puncture_off_the_origin(self, tmp_path, kind):
        # both scenarios sample about mapping.center, the puncture
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = {kind}
[mapping]
kind = winding
k = 3
center = 0.3, -0.2
epsilon0 = 1.0
[output]
out_dir = {out}
""")
        assert cli.run(cfg) == 0
        rec = json.loads((out / "report.json").read_text())["results"][0]
        if kind == "continuity":
            assert rec["x0"] == [0.3, -0.2]
        else:
            assert np.allclose(rec["cluster_points"], [[0.3, -0.2]], atol=0.05)

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "other"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=tmp_path / "ignored"))
        assert cli.main(["run", cfg, "--out-dir", str(out), "--seed", "3",
                         "--grid", "48"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 3
        assert report["config"]["resolution"] == 48

    def test_family_file_scenario(self, tmp_path):
        out = tmp_path / "out"
        family = tmp_path / "family.txt"
        family.write_text("# label: sides\n0,0.25;1,0.25\n0,0.75;1,0.75\n")
        cfg = write_config(tmp_path / "c.ini",
                           FAMILY_CONFIG.format(family=family, dim=2, out=out))
        assert cli.run(cfg) == 0
        rec = json.loads((out / "report.json").read_text())["results"][0]
        assert rec["family"] == "sides" and rec["lhs"] > 0.0

    @pytest.mark.parametrize("name, resolution, rel", [
        ("ring", 128, 0.01),
        ("ring", 256, 0.01),
        ("mixed", 256, 0.01),
        ("rectangle", 128, 0.05),
    ])
    def test_family_file_replay(self, tmp_path, name, resolution, rel):
        # a saved family replays on a grid matched to its curve spacing, so the
        # density cannot collapse onto tubes and undershoot the modulus
        ring = SphericalRing((0.0, 0.0), 1.0, math.e)
        if name == "ring":
            family, expected = generate_ring_family(ring, 256), 2.0 * math.pi
        elif name == "mixed":
            spiral = generate_ring_family(ring, 128, kind="spiral", pitch=0.5, vertex_budget=32)
            family = CurveFamily(list(generate_ring_family(ring, 128)) + list(spiral), "mixed")
            expected = discrete_modulus(family, ring_grid(ring, 256, 256), p=2.0,
                                        tol=3e-3).value
        else:
            family = CurveFamily([Curve([[0.0, y], [1.0, y]])
                                  for y in (np.arange(256) + 0.5) / 256], "sides")
            expected = 1.0  # the side-joining unit square
        path = tmp_path / "family.txt"
        save_family(family, path)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini",
                           FAMILY_CONFIG.format(family=path, dim=2, out=out))
        assert cli.main(["run", cfg, "--grid", str(resolution)]) == 0
        rec = json.loads((out / "report.json").read_text())["results"][0]
        assert rec["lhs"] == pytest.approx(expected, rel=rel, abs=0.0)

    @pytest.mark.parametrize("text, dim", [
        ("", 2),
        (None, 2),
        ("0,0;1,zero\n", 2),
        ("0,0;1\n", 2),
        ("0,0;1,0\n0,1;1,1\n", 3),
    ], ids=["empty", "missing", "unparsable", "ragged", "dim-mismatch"])
    def test_family_file_errors_named(self, tmp_path, capsys, text, dim):
        out = tmp_path / "out"
        family = tmp_path / "family.txt"
        if text is not None:
            family.write_text(text)
        cfg = write_config(tmp_path / "c.ini",
                           FAMILY_CONFIG.format(family=family, dim=dim, out=out))
        assert cli.run(cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: scenario.family_file:" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_off_centre_moebius_check_holds(self, tmp_path):
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path / "c.ini", MOEBIUS_CONFIG.format(out=out))) == 0
        rec = json.loads((out / "report.json").read_text())["results"][0]
        assert rec["satisfied"] and rec["lhs"] == pytest.approx(2 * np.pi / np.log(4),
                                                                rel=0.025)

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out))

        real = cli.verify_poletski

        def sabotaged(*args, **kwargs):
            report = real(*args, **kwargs)
            report.satisfied = False
            return report

        monkeypatch.setattr(cli, "verify_poletski", sabotaged)
        assert cli.run(cfg) == cli.EXIT_VIOLATION
        assert json.loads((out / "report.json").read_text())["status"] == "violation"

    def test_solver_failure_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out)
                           .replace("[solver]", "[solver]\nbudget = 5"))
        assert cli.run(cfg) == cli.EXIT_SOLVER
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "solver_failure"
        assert "dual iterations" in report["message"]
        assert isinstance(report["best_value"], float)

    def test_lifting_ambiguity_is_solver_failure(self, tmp_path, capsys):
        # image curve 16 runs along the negative first axis through 0, the
        # puncture's image, where the winding's branches meet: no lift of it
        # stays in the punctured ball, so it and its 3 lifts leave the family
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out)
                           .replace("y0 = 0, 0", "y0 = 0.2, 0")
                           .replace("r1 = 0.1", "r1 = 0.05")
                           .replace("r2 = 0.4", "r2 = 0.3"))
        assert cli.run(cfg) == cli.EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        rec = report["results"][0]
        assert rec["family_size"] == rec["result"]["family_size"] == 3 * 31

    def test_domain_error_is_solver_failure(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out))

        def outside(*args, **kwargs):
            raise DomainError("lift collapsed to a single point")

        monkeypatch.setattr(cli, "verify_poletski", outside)
        assert cli.run(cfg) == cli.EXIT_SOLVER
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "solver_failure"

    def test_ring_outside_image_is_solver_failure(self, tmp_path, capsys):
        # radial_stretch(2) maps B(0, 0.5) onto B(0, 0.25), which misses the ring
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out)
                           .replace("kind = winding\nk = 3",
                                    "kind = radial_stretch\nalpha = 2")
                           .replace("r1 = 0.1", "r1 = 0.3"))
        assert cli.run(cfg) == cli.EXIT_SOLVER
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "solver_failure"
        assert "no preimage inside the punctured ball" in report["message"]

    def test_replay_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path / "c.ini", POLETSKI_CONFIG.format(out=out1))
        assert cli.run(cfg) == 0
        assert cli.run(cfg, overrides={"out_dir": str(out2)}) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        del r1["wall_clock_seconds"], r2["wall_clock_seconds"]
        r1["config"].pop("out_dir"), r2["config"].pop("out_dir")
        assert r1 == r2


class TestSweep:
    def test_blowup_sweep_monotone(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = blowup
[mapping]
kind = identity
epsilon0 = 1.0
[solver]
resolution = 96
[sweep]
parameter = geometry.separation
values = 0.4, 0.2, 0.1, 0.05
[output]
out_dir = {out}
""")
        assert cli.main(["sweep", cfg]) == 0
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 4
        moduli = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(moduli, moduli[1:]))

    def test_continuity_sweep_stable(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = continuity
[mapping]
kind = radial_stretch
alpha = 2.0
epsilon0 = 1.0
[geometry]
r0 = 0.25
[sweep]
parameter = solver.sample_count
values = 100, 200, 400
[output]
out_dir = {out}
""")
        assert cli.sweep(cfg) == 0
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(r[2]) for r in rows]
        spread = (max(values) - min(values)) / min(values)
        assert spread <= 0.05

    def test_empty_sweep_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = blowup
[sweep]
parameter = geometry.separation
values =
[output]
out_dir = {tmp_path}
""")
        assert cli.sweep(cfg) == cli.EXIT_CONFIG

    def test_unsweepable_parameter_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", f"""
[scenario]
kind = blowup
[sweep]
parameter = mapping.k
values = 1, 2
[output]
out_dir = {tmp_path}
""")
        assert cli.sweep(cfg) == cli.EXIT_CONFIG
