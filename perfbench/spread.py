"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload oracles --seeds 1-10

Runs perfbench/run.py once per seed (untraced, for BENCHMARK.json's
run_seconds) and prints, per metric, the median of the runs and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed:3d} run {time.perf_counter() - start:.1f} s "
              f"correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {median:.4f} spread "
              f"{(q3 - q1) / median:.2%} (bound {bounds.get(name, float('nan')):.0%}, "
              f"n={len(vals)})")


if __name__ == "__main__":
    main()
