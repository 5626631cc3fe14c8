"""The benchmark's traced runs against today's library.

A traced run (``bench/worker.py --trace 1``) exits non-zero when a span it
traces records no call, so a library change that stops calling a traced
function, or calls it under another name, breaks the benchmark.  One short
traced run per workload, with BLAS pinned to one thread as ``bench/run.py``
pins it, must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


@pytest.mark.parametrize("workload", ["build-wide", "eval-wide", "convergence-sweep"])
def test_traced_run_exits_0(workload, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1", "--trace", "1",
         "--seconds", "0.2", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
