"""modlab benchmark: time-to-verdict on fixed workloads, with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

NAME is poletski_suite or oracles; `all` runs each in its own process and
prints one table.  S defaults to BENCHMARK.json's run_seconds.
With --trace 0 the run reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb) from untraced operations, with setup probes between them; with
--trace 1 it alternates untraced and traced passes and reports per-layer self
times, counts and the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
holds the samples, quartiles, failures and provenance.  Everything the run
writes goes under perfbench/_work/.  See perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child process.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("poletski_suite", "oracles")
SETUP_PROBES = 16

# A fresh interpreter that imports modlab and its CLI and writes the workload's
# input files, then reports ready; the parent times spawn-to-ready.
SETUP_PROBE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import modlab, modlab.cli, workloads
workloads.build({workload!r}, {seed!r}, {workdir!r})
print("ready", flush=True)
"""


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def describe(values, unit):
    q1, median, q3 = quartiles(values)
    return {"mean": statistics.fmean(values), "median": median, "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "samples": values}


def provenance():
    import numpy
    import scipy
    rev, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            rev = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {"git_rev": rev, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
            "machine": platform.machine()}


class SetupProbes:
    """Seconds from spawning a fresh interpreter to ready to run.

    The probes are spread over the run, between operations, so that their
    median covers the host's slow and fast phases as the operations do.  Their own
    time is not part of the run's measuring time.
    """

    def __init__(self, workload, seed, workdir, seconds):
        self.code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload,
                                       seed=seed, workdir=str(workdir / "probe"))
        self.seconds = seconds
        self.samples = []
        self.spent = 0.0

    def take(self):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", self.code], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            status = proc.wait()
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"setup probe failed (exit {status})")
        self.samples.append(elapsed)
        self.spent += time.perf_counter() - start

    def keep_pace(self, measured):
        """Probe until the samples match the share of the run measured so far."""
        while len(self.samples) < SETUP_PROBES * min(1.0, measured / self.seconds):
            self.take()


def run_op(op, tracer, failures):
    """One timed operation, checked untimed afterwards; returns its seconds."""
    if tracer is not None:
        tracer.begin_op(op.name)
    start = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.end_op(start, end, op.out_dir)
    if error is None:
        error = op.check(out)
    if error is not None:
        failures.append(f"{op.name}: {error}")
    return end - start


def measure(args, workdir, ops, failures):
    """End-to-end metrics from untraced operations, with setup probes between them.

    A closed loop: the operations run one at a time, in the workload's order,
    pass after pass, until the next one is expected to end past --seconds.  The
    first pass always completes.  wall_s is the sum over the operations of each
    one's mean time, so every operation counts once however many times it ran
    and the whole measuring time is used, not only whole passes.
    """
    probes = SetupProbes(args.workload, args.seed, workdir, args.seconds)
    times = {op.name: [] for op in ops}
    started = time.perf_counter()

    def measured():
        return time.perf_counter() - started - probes.spent

    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and measured() + statistics.fmean(times[op.name]) > args.seconds:
            break
        times[op.name].append(run_op(op, None, failures))
        probes.keep_pace(measured())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.keep_pace(args.seconds)  # a run that ended early takes the rest now
    wall = sum(statistics.fmean(t) for t in times.values())
    attempted = sum(map(len, times.values()))
    detail = {"operations": {name: describe(t, "s") for name, t in times.items()},
              "wall_s": {"value": wall, "unit": "s", "n": attempted},
              "setup_s": describe(probes.samples, "s"),
              "peak_rss_mb": {"value": peak_mb, "unit": "MB", "n": 1}}
    metrics = {"wall_s": wall, "setup_s": statistics.median(probes.samples),
               "peak_rss_mb": peak_mb}
    return attempted, metrics, detail


def measure_traced(args, ops, failures):
    """Per-layer metrics: untraced and traced passes alternate while time allows."""
    from tracing import Tracer

    walls, traced_walls, summaries, self_test = [], [], [], []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        walls.append(sum(run_op(op, None, failures) for op in ops))
        tracer = Tracer()
        tracer.install()
        try:
            traced_walls.append(sum(run_op(op, tracer, failures) for op in ops))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        self_test += tracer.self_test()
        now = time.perf_counter()
        if now - started + (now - pass_start) > args.seconds:
            break
    metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)  # the last traced pass
    detail = {"self_test": self_test or "passed",
              "spans": str(spans_path.relative_to(ROOT)),
              "passes": {"untraced": walls, "traced": traced_walls}}
    return len(ops) * (len(walls) + len(traced_walls)), metrics, detail


def run_one(args):
    if not (SRC / "modlab" / "__init__.py").is_file():
        print(f"modlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import modlab
    if not Path(modlab.__file__).resolve().is_relative_to(SRC):
        print(f"imported modlab from {modlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import modlab.cli  # noqa: F401  (compiles bytecode before the probes time imports)
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    failures = []
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            attempted, values, detail = measure_traced(args, ops, failures)
        else:
            attempted, values, detail = measure(args, workdir, ops, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(failures=failures, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, provenance=provenance())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in DECLARED["per_layer" if args.trace else "end_to_end"]}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=1))
    print(json.dumps({"detail": detail}))
    correct = not failures and detail.get("self_test", "passed") == "passed"
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; one table of the end-to-end metrics."""
    total_attempted = total_failed = 0
    correct = True
    metrics = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        total_attempted += result["attempted"]
        total_failed += result["failed"]
        share = result["failed"] / result["attempted"]
        print(f"{workload:15s} failed {result['failed']}/{result['attempted']} "
              f"({share:.1%})")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
            metrics[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
