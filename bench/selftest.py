"""Self-test of the benchmark's tracing: exact counts must repeat.

    python3 bench/selftest.py [--seconds 1]

Runs the traced mode of every workload twice with the same seed and
fails unless every exact statistic (calls, terms, points, nodes,
cache_hit_ratio) is identical between the two runs.  The traced runs
themselves fail if a layer the workload must reach recorded no call, and
``run.py`` fails if a metric declared in ``BENCHMARK.json`` is missing.
Exits 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import EXACT_STATS  # noqa: E402
from run import load_benchmark  # noqa: E402


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported failed ops:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    problems = []
    for workload in (w["name"] for w in load_benchmark()["workloads"]):
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        exact = [name for name in first if name.rsplit(".", 1)[-1] in EXACT_STATS]
        differing = [f"{name}: {first[name]!r} != {second[name]!r}"
                     for name in exact if first[name] != second[name]]
        problems += [f"{workload} {d}" for d in differing]
        print(f"{workload}: {len(exact)} exact statistics, {len(differing)} differ")
    if problems:
        raise SystemExit("counts did not repeat:\n" + "\n".join(problems))
    print("ok")


if __name__ == "__main__":
    main()
