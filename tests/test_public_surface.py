"""The package's public names: every export resolves, every documented one exists,
every name the benchmark's tracer wraps is still there, and importing the
package pulls in numpy only."""

import importlib.util
import inspect
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


def test_readme_entry_point_arguments_are_parameters():
    # a parameter deleted from a function must leave the README's table too
    table = README.split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    stale = []
    for row in table.splitlines()[2:]:
        call = re.fullmatch(r"(\w+)\((.*)\)", row.split("`")[1])
        if call:
            params = inspect.signature(getattr(modlab, call[1])).parameters
            stale += [(call[1], arg) for arg in re.findall(r"\w+", call[2])
                      if arg not in params]
    assert stale == []


def test_readme_quickstart_runs(capsys):
    quickstart = README.split("## Library quickstart", 1)[1].split("```", 2)[1]
    exec(quickstart.removeprefix("python\n"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("True")


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def load_tracing(monkeypatch):
    return load_perfbench(monkeypatch, "tracing")


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


PASS_COUNTS = {"curves.assemble.calls": 3836, "curves.assemble.segments": 102_784,
               "curves.assemble.nnz": 211_810, "mappings.lift.vertices": 101_244,
               "modulus.solve.dual_evals": 140, "modulus.solve.active": 3708}


def test_benchmark_tracer_counts_every_layer(monkeypatch, tmp_path):
    # one traced pass of both benchmark workloads at seed 0, as perfbench/run.py
    # runs it: every operation's own check passes, the pass reaches every layer
    # and the counters read what the program did, so a change of signature or
    # call site shows up here
    tracing = load_tracing(monkeypatch)
    workloads = load_perfbench(monkeypatch, "workloads")
    ops = [op for name in workloads.WORKLOADS
           for op in workloads.build(name, 0, tmp_path / name)]
    tracer = tracing.Tracer()
    tracer.install()
    outputs = []
    try:
        for op in ops:
            tracer.begin_op(op.name)
            start = time.perf_counter()
            outputs.append(op.run())
            tracer.end_op(start, time.perf_counter(), op.out_dir)
    finally:
        tracer.uninstall()
    failures = [(op.name, op.check(out)) for op, out in zip(ops, outputs)]
    assert [f for f in failures if f[1] is not None] == []
    summary = tracer.summary()
    assert [layer for layer in tracing.LAYERS if summary[f"{layer}.calls"] < 1] == []
    assert summary["modulus.solve.dual_evals"] == sum(s["iterations"] for s in tracer.solves)
    assert summary["curves.assemble.nnz"] > 0
    # one pass at seed 0 does this much work; a change to the family, lift,
    # row or solve layers that alters it shows up here
    assert {key: summary[key] for key in PASS_COUNTS} == PASS_COUNTS
    # coverage can fail on a host pause or a cold first call, which run.py
    # warms up before it traces; every other self-test line is a fault
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


def test_poletski_check_imports_no_masked_arrays():
    # numpy.ma costs about 11 ms and 1.2 MB to import; np.unique loads it,
    # so the rhs breakpoints are deduplicated without it
    code = ("import sys, modlab as ml; "
            "ml.verify_poletski(ml.winding(3), (0.0, 0.0), 0.1, 0.4, resolution=32, count=32); "
            "ml.cluster_set_estimate(ml.winding(3), [0.05, 0.02, 0.01]); "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
