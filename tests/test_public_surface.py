"""The package's public names: every export resolves, every documented one exists,
every name the benchmark's tracer wraps is still there, and importing the
package pulls in numpy only."""

import importlib.util
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import modlab

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_every_export_resolves():
    missing = [name for name in modlab.__all__ if not hasattr(modlab, name)]
    assert not missing


def test_readme_names_are_package_attributes():
    quickstart = README.split("## Library quickstart", 1)[1].split("```", 2)[1]
    named = set(re.findall(r"\bml\.(\w+)", quickstart))
    table = README.split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    for row in table.splitlines()[2:]:
        # the first column is one code span: `f(args)` or `f / g / h`
        span = row.split("`")[1]
        named.update(part.split("(")[0].strip() for part in span.split("/"))
    assert {"discrete_modulus", "power_eta", "cluster_set_estimate",
            "SphericalRing", "verify_poletski"} <= named
    assert sorted(name for name in named if not hasattr(modlab, name)) == []


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/tracing.py wraps modlab functions at the module attributes the
    # program reads them from, so a name dropped from src/ breaks install()
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert len(patched) > len(tracing.LOOKUPS)
        assert all(getattr(module, attr) is not original
                   for module, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in patched)


POLETSKI_INI = """
[scenario]
kind = poletski
[mapping]
kind = winding
k = 2
center = 0, 0
epsilon0 = 0.5
dim = 2
[geometry]
y0 = 0, 0
r1 = 0.1
r2 = 0.4
[solver]
resolution = 32
curve_count = 16
[output]
out_dir = {out}
"""


def test_benchmark_tracer_counts_every_layer(monkeypatch, tmp_path):
    # a traced pass reaches every layer and its counters read what the
    # program did, so a change of signature or call site shows up here
    from modlab import cli
    from modlab.curves import Curve, CurveFamily, GridSpec

    tracing = load_tracing(monkeypatch)
    ini = tmp_path / "poletski.ini"
    ini.write_text(POLETSKI_INI.format(out=tmp_path / "out"))
    sides = CurveFamily([Curve([[0.0, y], [1.0, y]]) for y in (0.25, 0.75)], "sides")
    operations = [
        ("poletski", lambda: cli.main(["run", str(ini)]) == 0),
        ("rectangle", lambda: modlab.discrete_modulus(
            sides, GridSpec((0.0, 0.0), (1.0, 1.0), (8, 8)), p=2.0).value > 0.0),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, run in operations:
            tracer.begin_op(name)
            start = time.perf_counter()
            ok = run()
            tracer.end_op(start, time.perf_counter())
            assert ok, name
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert [layer for layer in tracing.LAYERS if summary[f"{layer}.calls"] < 1] == []
    assert summary["modulus.solve.dual_evals"] == sum(s["iterations"] for s in tracer.solves)
    assert summary["curves.assemble.nnz"] > 0
    # coverage can fail on a host pause; every other self-test line is a fault
    assert [e for e in tracer.self_test() if "spans cover" not in e] == []


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency; a fresh interpreter shows what the
    # package and its CLI import on their own
    code = ("import sys, modlab, modlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
