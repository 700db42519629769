"""In-memory spans around modlab's layers, recorded from outside the program.

Each layer is timed by wrapping its public functions where the program looks
them up (a module attribute read at call time).  A span holds its layer name,
start, end, parent span and operation id.  The wrappers are installed only for
a traced pass and removed afterwards, so untraced passes run the program as
shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, layer).  Every lookup site of a layer function on the
# workloads' paths is listed, because `from x import f` binds a name per module.
LOOKUPS = [
    ("modlab", "generate_ring_family", "curves.family"),
    ("modlab.curves", "generate_ring_family", "curves.family"),  # read by verifier at call time
    ("modlab.verifier", "lifted_ring_family", "mappings.lift"),
    ("modlab.modulus", "curve_cell_lengths", "curves.assemble"),
    ("modlab", "discrete_modulus", "modulus.solve"),
    ("modlab.verifier", "discrete_modulus", "modulus.solve"),
    ("modlab.verifier", "weighted_rhs_integral", "modulus.rhs"),
    ("modlab.cli", "verify_poletski", "verifier.check"),
    ("modlab.cli", "run_scenario", "cli.scenario"),
    ("modlab.cli", "run", "cli.write"),
]
LAYERS = ["curves.family", "mappings.lift", "curves.assemble", "modulus.solve",
          "modulus.rhs", "verifier.check", "cli.scenario", "cli.write"]
COUNTS = ["curves.assemble.segments", "curves.assemble.nnz",
          "modulus.solve.dual_evals", "modulus.solve.active",
          "modulus.solve.family_size", "mappings.lift.vertices",
          "modulus.rhs.points", "cli.write.bytes"]
REPORT_FILES = ("report.json", "trace.csv", "density.csv")
COVERAGE = 0.99  # least share of each operation's wall time its root spans cover


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records spans and counts while an operation is open."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.op_names: list[str] = []
        self.op_windows: list[tuple[float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.solves: list[dict] = []
        self.max_residual = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, layer in LOOKUPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, _COUNTERS.get(attr)))
        verifier = importlib.import_module("modlab.verifier")
        self._saved.append((verifier, "image_mask", verifier.image_mask))
        verifier.image_mask = self._counting_mask(verifier.image_mask)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = Span(layer, start, end, parent, tracer.op)
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return traced

    def _counting_mask(self, make_mask):
        tracer = self

        @functools.wraps(make_mask)
        def image_mask(*args, **kwargs):
            mask = make_mask(*args, **kwargs)

            def counted(pts):
                if tracer.op is not None:
                    tracer.counts["modulus.rhs.points"] += len(pts)
                return mask(pts)

            return counted

        return image_mask

    # -- operations --------------------------------------------------------
    def begin_op(self, name: str) -> None:
        self.op = len(self.op_names)
        self.op_names.append(name)

    def end_op(self, start: float, end: float, out_dir=None) -> None:
        self.op_windows.append((start, end))
        self.op = None
        for name in REPORT_FILES if out_dir is not None else ():
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                self.counts["cli.write.bytes"] += os.path.getsize(path)

    # -- accounting --------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer self time and calls, counts, and the uncovered wall time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("self_s", "calls")}
        covered = 0.0
        for sid, s in enumerate(spans):
            out[f"{s.layer}.self_s"] += (s.end - s.start) - child_time[sid]
            out[f"{s.layer}.calls"] += 1
            if s.parent is None:
                covered += s.end - s.start
        wall = sum(end - start for start, end in self.op_windows)
        out["harness.other_s"] = wall - covered
        out["trace.wall_s"] = wall
        for key in COUNTS:
            out[key] = self.counts.get(key, 0.0)
        size = out["modulus.solve.family_size"]
        out["modulus.solve.active_ratio"] = out["modulus.solve.active"] / size if size else 0.0
        out["modulus.solve.max_residual"] = self.max_residual
        return out

    def self_test(self) -> list[str]:
        """Check the span tree and how much of each operation it covers.

        Nesting (every child span inside its parent, every span inside its
        operation) and the sum (layer self times plus harness.other_s equal the
        traced wall time) hold by construction, because spans open and close on
        one stack and harness.other_s is the wall time minus the root spans;
        they guard this module's bookkeeping.  Coverage can fail: an operation
        whose root spans cover less than COVERAGE of its wall time runs work
        through a lookup that LOOKUPS misses.
        """
        errors = []
        covered = [0.0] * len(self.op_windows)
        for sid, s in enumerate(self.spans):
            if s.parent is not None:
                p = self.spans[s.parent]
                if not (p.start <= s.start <= s.end <= p.end):
                    errors.append(f"span {sid} ({s.layer}) leaves parent {s.parent}")
            else:
                covered[s.op] += s.end - s.start
            lo, hi = self.op_windows[s.op]
            if not (lo <= s.start <= s.end <= hi):
                errors.append(f"span {sid} ({s.layer}) leaves operation {s.op}")
        for op, (lo, hi) in enumerate(self.op_windows):
            if covered[op] < COVERAGE * (hi - lo):
                errors.append(f"operation {self.op_names[op]}: spans cover "
                              f"{covered[op]:.4f} s of {hi - lo:.4f} s")
        summary = self.summary()
        total = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
        total += summary["harness.other_s"]
        if abs(total - summary["trace.wall_s"]) > 1e-6:
            errors.append(f"self times sum to {total!r}, traced wall is "
                          f"{summary['trace.wall_s']!r}")
        return errors

    def write(self, path) -> None:
        """Write every span as one JSON line: layer, start, end, parent, op."""
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "layer": s.layer, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     "op_name": self.op_names[s.op]}) + "\n")
            for solve in self.solves:
                fh.write(json.dumps({"solve": solve}) + "\n")


# -- counters, run after the span closes ----------------------------------

def _count_rows(tracer, args, kwargs, out):
    gamma = args[1] if len(args) > 1 else kwargs["gamma"]
    tracer.counts["curves.assemble.segments"] += gamma.n_vertices - 1
    tracer.counts["curves.assemble.nnz"] += len(out[0])


def _count_solve(tracer, args, kwargs, result):
    tracer.counts["modulus.solve.dual_evals"] += result.iterations
    tracer.counts["modulus.solve.active"] += result.active_constraints
    tracer.counts["modulus.solve.family_size"] += result.family_size
    tracer.max_residual = max(tracer.max_residual, result.residual)
    tracer.solves.append({"op": tracer.op, "op_name": tracer.op_names[tracer.op],
                          "value": result.value, "iterations": result.iterations,
                          "active_constraints": result.active_constraints,
                          "family_size": result.family_size,
                          "residual": result.residual})


def _count_lift(tracer, args, kwargs, family):
    tracer.counts["mappings.lift.vertices"] += sum(c.n_vertices for c in family)


_COUNTERS = {
    "curve_cell_lengths": _count_rows,
    "discrete_modulus": _count_solve,
    "lifted_ring_family": _count_lift,
}
