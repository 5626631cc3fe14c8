"""The three benchmark workloads: inputs from the seed, the op, its check.

Each workload is a closed loop with one client: the next op starts when
the previous op and its check have finished.  Inputs are generated from
the seed outside the timed op; the program sees only those inputs.

Why these workloads:

* ``build-wide`` builds and serializes one network per op, as
  ``fresnet build`` does.  Most of a build is ``smooth.fourier_coeffs``,
  so this workload carries the build-quadrature and coefficient work and
  bypasses the network evaluator.  K = 1024 is included on purpose: the
  default quadrature under-resolves it, and the accuracy metrics show it.
* ``eval-wide`` evaluates one fixed K = 512 network on fresh points.  The
  final spectral layer does nearly all the work and ``smooth`` does none,
  so this workload carries the evaluation kernel and bypasses the build.
* ``convergence-sweep`` runs one cell of the ``convergence`` CLI sweep
  per op: many small builds and many small evaluations, so fixed per-call
  costs (jets, Bell and Hermite solves, array rebuilds, argument parsing)
  show here and nowhere else.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics

import numpy as np

from fresnet import builder, cli, metrics, network, targets
from fresnet.quadrature import QuadratureConfig

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: The benchmark's own accuracy rule, independent of the library defaults:
#: L2 error by this quadrature, and max error on a uniform grid off the jump.
ACCURACY_QUAD = QuadratureConfig(256, 16, 0.7)
ACCURACY_GRID_N = 20001
ACCURACY_JUMP_GAP = 0.05
#: The metric names carry the rule, so a changed rule cannot pass as the
#: same metric.
L2_METRIC = "l2_err.gl{0.panels_per_side}x{0.nodes_per_panel}r{0.grading_ratio}".format(
    ACCURACY_QUAD)
MAXERR_METRIC = f"maxerr_off_jump.grid{ACCURACY_GRID_N}gap{ACCURACY_JUMP_GAP}"
#: Errors below this are rounding noise of the evaluator, not approximation
#: error; they are raised to it before the geometric mean over specs, so a
#: change in summation order alone cannot move the accuracy metrics.
ERROR_FLOOR = 1e-11
#: Points per evaluation when the benchmark evaluates a network itself,
#: so its own checks do not dominate the process's peak memory.
EVAL_CHUNK = 2048
#: Fixed points at which a built network and its serialized copy are compared.
CHECK_POINTS = np.linspace(-1.0, 1.0, 33)


class CheckFailure(Exception):
    """An op's output failed the benchmark's correctness check."""


def expected_neurons(depth, half_modes, m):
    return depth + 2 * half_modes + 1 + 4 * (m + 1)


def eval_chunked(net, x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([network.eval_grid(net, x[i:i + EVAL_CHUNK])
                           for i in range(0, x.size, EVAL_CHUNK)])


def geomean(errors):
    return math.exp(statistics.fmean(math.log(max(e, ERROR_FLOOR)) for e in errors))


def _code_digest():
    """Digest of everything besides the network that decides its errors:
    the library sources, this file (the rule) and the numpy version."""
    h = hashlib.sha256(np.__version__.encode())
    paths = [os.path.abspath(__file__)]
    for dirpath, dirnames, filenames in os.walk(SRC_DIR):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, SRC_DIR).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def accuracy(wl, cache_path):
    """Per spec of the workload: (L2 error, max error at |x| >= gap).

    Measuring a K = 1024 network by this rule takes seconds, and a network
    is a deterministic function of its cell and the code, so results are
    kept in ``cache_path`` keyed by workload, cell and :func:`_code_digest`.
    Any change to the library or to this rule misses the cache.
    """
    try:
        with open(cache_path, encoding="utf-8") as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        cache = {}
    code = _code_digest()
    out = []
    for cell in wl.cells:
        key = f"{code} {wl.name} {cell}"
        if key not in cache:
            cache[key] = _errors(targets.target_lookup(cell[0]), wl.accuracy_net(cell))
        out.append(tuple(cache[key]))
    tmp = cache_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cache, fh)
    os.replace(tmp, cache_path)
    return out


def _errors(target, net):
    l2 = metrics.lp_error(target.eval, lambda x: eval_chunked(net, x), 2.0, ACCURACY_QUAD)
    grid = np.linspace(-1.0, 1.0, ACCURACY_GRID_N)
    grid = grid[np.abs(grid) >= ACCURACY_JUMP_GAP]
    maxerr = float(np.max(np.abs(target.eval(grid) - eval_chunked(net, grid))))
    return l2, maxerr


def check_net(net, text, depth, half_modes, m):
    """Neuron count, finite output, and ``text`` parses to the same outputs."""
    count = network.neuron_count(net)
    if count != expected_neurons(depth, half_modes, m):
        raise CheckFailure(f"neuron_count {count} != {expected_neurons(depth, half_modes, m)}")
    values = network.eval_grid(net, CHECK_POINTS)
    if not np.all(np.isfinite(values)):
        raise CheckFailure("non-finite network output")
    if not np.array_equal(network.eval_grid(network.deserialize(text), CHECK_POINTS), values):
        raise CheckFailure("serialization round trip changed the network output")


def reference_forward(net, x):
    """The network's defining recursion, point by point with exact sums."""

    def branch(br, t):
        return math.fsum(a * math.sin(w * t) + b * math.cos(w * t)
                         for w, a, b in zip(br.freqs, br.sin_amps, br.cos_amps))

    out = []
    for t in x:
        t = float(t)
        f = branch(net.layers[0].g_branch, t)
        for layer in net.layers[1:]:
            prev = f
            f = prev + branch(layer.g_branch, t)
            if layer.h_branch is not None:
                f += branch(layer.h_branch, prev)
        out.append(f)
    return np.array(out)


BUILD_LAYERS = (
    "builder.build_piecewise_net", "smooth.build_smooth_branch", "smooth.fourier_coeffs",
    "quadrature.nodes_weights", "targets.one_sided_derivs", "targets.eval",
    "jump.build_jump_H", "jump.q_derivs_at", "jump.q_eval", "hermite.hermite_endpoint",
    "hermite.trig_deriv_eval", "sign.build_sign_net",
)
EVAL_LAYERS = ("network.sign_layers", "network.spectral_layer", "network.jump_layer")


class BuildWide:
    name = "build-wide"
    #: Layers that must record calls in the traced run.
    traced_layers = BUILD_LAYERS + ("network.serialize", "network.deserialize")
    #: (metric, comparison, value) stated before measuring; reported, not enforced.
    predictions = [("smooth.fourier_coeffs.op_share", ">", 0.5)]
    depth = 60
    cells = [(t, m, k) for t in ("pw_smooth", "hat") for m in (2, 4) for k in (256, 512, 1024)]
    #: The cheapest cell, so set-up time is mostly import and not build noise.
    warmup_cell = ("hat", 4, 256)

    def __init__(self, rng, workdir):
        self.order = [self.cells[i] for i in rng.permutation(len(self.cells))]

    def setup(self):
        pass

    def cycle(self):
        return list(self.order)

    def warmup_item(self):
        return self.warmup_cell

    def run(self, cell):
        name, m, k = cell
        spec = builder.BuildSpec(targets.target_lookup(name), m, k, self.depth)
        net = builder.build_piecewise_net(spec)
        return net, network.serialize(net)

    def check(self, cell, result):
        net, text = result
        _, m, k = cell
        check_net(net, text, self.depth, k, m)

    def accuracy_net(self, cell):
        return self.run(cell)[0]


class EvalWide:
    name = "eval-wide"
    traced_layers = EVAL_LAYERS
    predictions = [
        ("network.spectral_layer.op_share", ">", 0.5),
        ("smooth.op_share", "==", 0.0),
        ("smooth.fourier_coeffs.calls", "==", 0.0),
    ]
    cell = ("pw_smooth", 4, 512)
    cells = [cell]
    depth = 60
    points = 5000
    #: Indices of each op's points that the check recomputes independently.
    checked = np.linspace(0, points - 1, 8).astype(int)

    def __init__(self, rng, workdir):
        self.rng = rng
        self.net = None

    def setup(self):
        name, m, k = self.cell
        spec = builder.BuildSpec(targets.target_lookup(name), m, k, self.depth)
        self.net = builder.build_piecewise_net(spec)
        check_net(self.net, network.serialize(self.net), self.depth, k, m)

    def cycle(self):
        return [self.rng.uniform(-1.0, 1.0, self.points)]

    def warmup_item(self):
        return self.cycle()[0]

    def run(self, x):
        return network.eval_grid(self.net, x)

    def check(self, x, values):
        if values.shape != x.shape or not np.all(np.isfinite(values)):
            raise CheckFailure("missing or non-finite values")
        ref = reference_forward(self.net, x[self.checked])
        if not np.allclose(values[self.checked], ref, rtol=1e-9, atol=1e-9):
            raise CheckFailure("values differ from the network's defining recursion")

    def accuracy_net(self, cell):
        return self.net


class ConvergenceSweep:
    name = "convergence-sweep"
    traced_layers = BUILD_LAYERS + EVAL_LAYERS + (
        "cli.main", "metrics.lp_error", "smooth.series_eval")
    predictions = []
    cells = [(t, m, k) for t in ("hat", "pw_smooth") for m in (1, 2, 3, 4)
             for k in (5, 10, 20, 40, 80)]
    warmup_cell = ("hat", 2, 20)
    depth = 20

    def __init__(self, rng, workdir):
        self.order = [self.cells[i] for i in rng.permutation(len(self.cells))]
        self.out = os.path.join(workdir, "convergence.csv")

    def setup(self):
        pass

    def cycle(self):
        return list(self.order)

    def warmup_item(self):
        return self.warmup_cell

    def argv(self, cell):
        name, m, k = cell
        return ["convergence", "--target", name, "--m", str(m), "--modes-list", str(k),
                "--depth", str(self.depth), "--out", self.out]

    def run(self, cell):
        return cli.main(self.argv(cell))

    def check(self, cell, code):
        if code != 0:
            raise CheckFailure(f"exit code {code}")
        _, m, k = cell
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        os.remove(self.out)  # so a later op cannot pass on this op's file
        kinds = sorted(row["experiment"] for row in rows)
        if kinds != ["fourier_baseline", "resnet"]:
            raise CheckFailure(f"rows {kinds}, expected one resnet and one fourier_baseline")
        for row in rows:
            if not all(math.isfinite(float(row[c])) for c in ("error_l1", "error_l2")):
                raise CheckFailure(f"non-finite error in {row['experiment']} row")
            if row["experiment"] == "resnet" and (
                    int(row["neurons"]) != expected_neurons(self.depth, k, m)):
                raise CheckFailure(f"resnet row reports {row['neurons']} neurons")

    def accuracy_net(self, cell):
        # The CLI does not return its network: rebuild it from the parsed
        # arguments as the CLI does, to measure it by the benchmark's rule
        # rather than the CSV's error columns.
        args = cli.build_parser().parse_args(self.argv(cell))
        quad = QuadratureConfig(args.panels, args.nodes, args.grading)
        spec = builder.BuildSpec(targets.target_lookup(args.target), args.m[0],
                                 args.modes_list[0], args.depth, quad)
        return builder.build_piecewise_net(spec)


WORKLOADS = {w.name: w for w in (BuildWide, EvalWide, ConvergenceSweep)}
