"""fresnet benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload build-wide --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (the library is imported from
``src/``; nothing needs building).  The workload runs in its own process,
started here with the BLAS thread count pinned to 1 before numpy is
imported.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``BENCHMARK.json``).  The last line
of standard output is the result as one JSON object; a fuller record with
the environment is written to ``.bench_out/``.

The set-up time is the median over ``SETUP_SAMPLES`` processes: the
measuring process and ``SETUP_SAMPLES - 1`` processes that only set up.
Times are CPU times of the workload process; see ``worker.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
#: A run must end within this many seconds; each child gets what is left.
DEADLINE_S = 170

class BenchError(Exception):
    pass


def git_sha():
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child(args, env, started, *extra):
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting the workload process")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main():
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "fresnet", "__init__.py")):
        raise BenchError(f"no fresnet sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(child(args, env, started, "--setup-only")["setup_s"])
    report = child(args, env, started)
    setup_samples.append(report["setup_s"])

    if not args.trace:
        report["metrics"]["setup_s"] = statistics.median(setup_samples)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in report["metrics"]]
    if missing:
        raise BenchError(f"workload process did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = report["failed"] == 0 and report["setup_failure"] is None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "correct": correct,
        "setup_samples_s": setup_samples,
        **report,
        "metrics": metrics,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for p in record.get("predictions", []):
        print(f"prediction {p['metric']} {p['expect']}: {p['value']:.4g} "
              f"({'holds' if p['holds'] else 'FAILS'})")
    if report["setup_failure"]:
        print(f"failure: {report['setup_failure']}")
    for reason in report["failures"]:
        print(f"failure: {reason}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
