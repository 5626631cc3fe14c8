"""One workload in one process: set up, run the closed loop, report JSON.

Started by ``run.py``, which pins the BLAS thread count before this
process imports numpy.  The last line of standard output is a JSON object
with the run's metrics; ``run.py`` turns it into the benchmark's result.

Timed loop: whole cycles of the workload's inputs, until ``--seconds``
of wall time have passed and (untraced) at least ``MIN_OPS`` ops have run,
so every run sees the same mix of specs and p90 has at least ten samples
beyond it.  Each op is timed alone; its check runs after it, untimed.

Op and set-up times are CPU time of this process (``time.process_time``).
The program is single-threaded here (BLAS pinned to one thread) and does
almost no I/O, so on an unshared machine CPU time equals wall time.  On a
shared virtual machine wall time also holds the time the hypervisor gave
the CPU to other guests (steal), which swung cycle times by up to 50 %
between runs; CPU time leaves it out.  The end-to-end op times are then
given in units of a reference kernel timed in the same run (see
``untraced``); absolute CPU and wall figures are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import fresnet  # noqa: E402
import spans  # noqa: E402
from workloads import L2_METRIC, MAXERR_METRIC, WORKLOADS, accuracy, geomean  # noqa: E402

#: p90 needs at least ten samples beyond it.
MIN_OPS = 100
#: Failure reasons kept in the result, so a broken run explains itself.
MAX_REASONS = 10


def reference_kernel():
    """Fixed numpy work, timed before every op of the untraced loop to track
    the machine's speed over the run: about 4 ms of sines of an outer
    product, the same kind of work as the library's trig sums."""
    return float(np.sin(np.multiply.outer(REF_X, REF_W)).sum())


REF_X = np.linspace(0.0, 1.0, 10000)
REF_W = np.arange(1.0, 21.0)


def run_loop(wl, seconds, min_ops, tracer=None, op_base=0, reference=False):
    """Whole cycles until ``seconds`` have passed and ``min_ops`` ops ran.

    Returns one ``(cpu_s, wall_s, ref_cpu_s)`` per op and the failure
    reasons; ``ref_cpu_s`` is the reference kernel's CPU time just before
    the op, or None without ``reference``.
    """
    samples, reasons = [], []
    start = time.perf_counter()
    while True:
        for item in wl.cycle():
            op_id = op_base + len(samples)
            ref = None
            if reference:
                t0 = time.process_time()
                reference_kernel()
                ref = time.process_time() - t0
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    result = wl.run(item)
                else:
                    result = tracer.run_op(op_id, spans.OP_SPAN, wl.run, item)
                failure = None
            except Exception as exc:  # an op that raises counts as failed
                failure = f"op {op_id}: {type(exc).__name__}: {exc}"
            samples.append((time.process_time() - t0, time.perf_counter() - w0, ref))
            if failure:
                reasons.append(failure)
                continue
            try:
                if tracer is None:
                    wl.check(item, result)
                else:
                    tracer.run_op(op_id, spans.CHECK_SPAN, wl.check, item, result)
            except Exception as exc:  # a wrong or unreadable output counts as failed
                reasons.append(f"op {op_id}: {type(exc).__name__}: {exc}")
        if time.perf_counter() - start >= seconds and len(samples) >= min_ops:
            return samples, reasons


def percentiles(values):
    """(p50, p90) of ``values``."""
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def absolute_stats(times):
    p50, p90 = percentiles([t * 1e3 for t in times])
    return {"ops_per_s": len(times) / math.fsum(times), "op_p50_ms": p50, "op_p90_ms": p90}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def untraced(wl, args):
    samples, reasons = run_loop(wl, args.seconds, MIN_OPS, reference=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    errors = accuracy(wl, os.path.join(args.out_dir, "accuracy-cache.json"))
    accuracy_s = time.perf_counter() - t0
    cpu = [c for c, _, _ in samples]
    refs = [r for _, _, r in samples]
    # Op times in units of the reference kernel timed in the same run, so
    # the drift of the machine's speed cancels and a change to the program
    # moves only the numerator.  Throughput and p50 are divided by the mean
    # reference time, the run's average speed; p90 by the reference's own
    # p90, the speed of the run's slow spells, which is what sets an op's
    # p90.  Throughput is ops per 1000 reference units.
    ref_mean = statistics.fmean(refs)
    p50, p90 = percentiles(cpu)
    metrics = {
        "ops_per_kref": 1000 * len(cpu) * ref_mean / math.fsum(cpu),
        "op_p50_ref": p50 / ref_mean,
        "op_p90_ref": p90 / percentiles(refs)[1],
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - len(reasons) / len(samples),
        L2_METRIC: geomean([e[0] for e in errors]),
        MAXERR_METRIC: geomean([e[1] for e in errors]),
    }
    extra = {
        "op_ms": [c * 1e3 for c in cpu],
        "ref_ms": [r * 1e3 for r in refs],
        "cpu": absolute_stats(cpu),
        "wall": absolute_stats([w for _, w, _ in samples]),
        "accuracy_s": accuracy_s,
        "accuracy_per_spec": [{"spec": list(spec), "l2_err": l2, "maxerr_off_jump": mx}
                              for spec, (l2, mx) in zip(wl.cells, errors)],
    }
    return len(samples), reasons, metrics, extra


def traced(wl, args):
    # Untraced and traced cycles alternate, so drift in the machine's speed
    # affects both sides of the tracing overhead alike.  One last traced
    # cycle runs under tracemalloc for the per-call peak allocation.
    tracer = spans.Tracer()
    base, timed, reasons = [], [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        samples, failed = run_loop(wl, 0, 1, op_base=len(base) + len(timed))
        base += [c for c, _, _ in samples]
        reasons += failed
        tracer.install()
        try:
            samples, failed = run_loop(wl, 0, 1, tracer, op_base=len(base) + len(timed))
        finally:
            tracer.uninstall()
        timed += [c for c, _, _ in samples]
        reasons += failed
    n_timed_spans = len(tracer.spans)
    tracer.install()
    tracemalloc.start()
    tracer.measure_alloc = True
    try:
        alloc, failed = run_loop(wl, 0, 1, tracer, op_base=len(base) + len(timed))
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    reasons += failed
    metrics = spans.summarise(tracer.spans[:n_timed_spans], len(timed), tracer.peak_alloc)
    metrics["trace.ops_per_s"] = len(timed) / math.fsum(timed)
    metrics["trace.untraced_ops_per_s"] = len(base) / math.fsum(base)
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.untraced_ops_per_s"] / metrics["trace.ops_per_s"] - 1.0)

    missing = [name for name in wl.traced_layers
               if name not in tracer.absent and metrics[f"{name}.calls"] == 0]
    if missing:
        raise SystemExit(f"{wl.name}: no calls recorded for {', '.join(missing)}; "
                         "a wrapper missed where the library looks the function up")
    extra = {
        "absent_from_library": tracer.absent,
        "predictions": [
            {"metric": metric, "expect": f"{op} {limit}", "value": metrics[metric],
             "holds": metrics[metric] > limit if op == ">" else metrics[metric] == limit}
            for metric, op, limit in wl.predictions
        ],
    }
    path = os.path.join(args.out_dir, f"spans-{wl.name}-s{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans[:n_timed_spans]:
            fh.write(json.dumps(span) + "\n")
    extra["spans_file"] = os.path.relpath(path, ROOT)
    return len(base) + len(timed) + len(alloc), reasons, metrics, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.abspath(fresnet.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"imported fresnet from {fresnet.__file__}, not from this checkout")
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        wl = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        setup_failure = None
        try:
            wl.setup()
            item = wl.warmup_item()
            wl.check(item, wl.run(item))
        except Exception as exc:  # reported like a failed op; the timed ops still run
            setup_failure = f"set-up: {type(exc).__name__}: {exc}"
        setup_s = time.process_time()  # CPU time since this process started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        run = traced if args.trace else untraced
        attempted, reasons, metrics, extra = run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(reasons),
        "setup_failure": setup_failure,
        "failures": reasons[:MAX_REASONS],
        "metrics": metrics,
        "environment": environment(),
        **extra,
    }))


if __name__ == "__main__":
    main()
