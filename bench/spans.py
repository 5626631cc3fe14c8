"""Spans around the calls into each fresnet module, recorded from outside.

The tracer replaces every binding of a public library function in every
loaded ``fresnet`` module (the defining module and each module that
imported the name), and patches methods on their class, so a call is
recorded wherever the caller looked the function up.  Spans are kept in
memory and summarised per op; nothing inside the library is modified on
disk.

A span is ``(op_id, span_id, parent_id, name, start, end, self_s, counts)``
with times in process CPU seconds, as for the ops; ``self_s`` is the
duration minus the time covered by direct child spans.
``Branch.__call__`` is split by the branch's position in the network being
evaluated: the last layer's g-branch is ``network.spectral_layer``, its
h-branch ``network.jump_layer``, and every other branch of the net the
width-1 sign stack ``network.sign_layers``.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

# Dense intermediates the current code builds per (mode, point) term, in
# bytes, used for the ``computed_mb`` metrics (computed, not measured):
# fourier_coeffs: float64 phase + complex128 scaled phase + complex128 exp;
# Branch.__call__: float64 phase + sin + cos.
FOURIER_BYTES_PER_TERM = 8 + 16 + 16
BRANCH_BYTES_PER_TERM = 8 + 8 + 8


def _size(x):
    return int(np.size(x))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _CountingCallable:
    """Wraps an integrand so the points it is evaluated at are counted."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0

    def __call__(self, x):
        self.points += _size(x)
        return self.fn(x)


# Per-layer count hooks.  Each takes (original function, args, kwargs) and
# returns (args, kwargs, after) where ``after(result)`` gives the counts.

def _fourier_counts(fn, args, kwargs):
    g = _CountingCallable(_arg(args, kwargs, 0, "g"))
    if args:
        args = (g,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, g=g)

    def after(result):
        terms = _size(result) * g.points
        return {"terms": terms, "computed_mb": terms * FOURIER_BYTES_PER_TERM / 1e6}

    return args, kwargs, after


def _series_counts(fn, args, kwargs):
    coeffs, x = _arg(args, kwargs, 0, "coeffs"), _arg(args, kwargs, 1, "x")
    terms = _size(coeffs) * _size(x)
    return args, kwargs, lambda result: {"terms": terms}


def _lp_error_counts(fn, args, kwargs):
    f = _CountingCallable(_arg(args, kwargs, 0, "f"))
    if args:
        args = (f,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=f)
    return args, kwargs, lambda result: {"points": f.points}


def _points_at(index, name):
    def hook(fn, args, kwargs):
        points = _size(_arg(args, kwargs, index, name))
        return args, kwargs, lambda result: {"points": points}

    return hook


def _branch_counts(fn, args, kwargs):
    branch, t = args
    points = _size(t)
    terms = points * branch.width
    return args, kwargs, lambda result: {
        "terms": terms, "points": points, "computed_mb": terms * BRANCH_BYTES_PER_TERM / 1e6}


def _nodes_counts(fn, args, kwargs):
    hits_before = fn.cache_info().hits

    def after(result):
        hit = fn.cache_info().hits > hits_before
        return {"nodes": _size(result[0]), "cache_hits": int(hit)}

    return args, kwargs, after


#: (module, attribute, span name, count hook or None).
FUNCTIONS = [
    ("fresnet.cli", "main", "cli.main", None),
    ("fresnet.builder", "build_piecewise_net", "builder.build_piecewise_net", None),
    ("fresnet.smooth", "build_smooth_branch", "smooth.build_smooth_branch", None),
    ("fresnet.smooth", "fourier_coeffs", "smooth.fourier_coeffs", _fourier_counts),
    ("fresnet.smooth", "series_eval", "smooth.series_eval", _series_counts),
    ("fresnet.quadrature", "nodes_weights", "quadrature.nodes_weights", _nodes_counts),
    ("fresnet.metrics", "lp_error", "metrics.lp_error", _lp_error_counts),
    ("fresnet.jump", "build_jump_H", "jump.build_jump_H", None),
    ("fresnet.jump", "q_derivs_at", "jump.q_derivs_at", None),
    ("fresnet.jump", "q_eval", "jump.q_eval", _points_at(1, "x")),
    ("fresnet.hermite", "hermite_endpoint", "hermite.hermite_endpoint", None),
    ("fresnet.hermite", "trig_deriv_eval", "hermite.trig_deriv_eval", _points_at(1, "x")),
    ("fresnet.sign", "build_sign_net", "sign.build_sign_net", None),
    ("fresnet.network", "serialize", "network.serialize", None),
    ("fresnet.network", "deserialize", "network.deserialize", None),
]

#: (module, class, method, span name).  Patched on the class.
METHODS = [
    ("fresnet.targets", "PiecewiseTarget", "one_sided_derivs", "targets.one_sided_derivs"),
    ("fresnet.targets", "PiecewiseTarget", "eval", "targets.eval"),
]

#: Entry points whose argument is the network being evaluated; they mark
#: which branches form its last layer while they run.
NET_ENTRY_POINTS = ("eval_grid", "eval_prefix", "eval")

#: Layers whose per-call peak allocation is measured with tracemalloc.
ALLOC_LAYERS = ("smooth.fourier_coeffs", "network.spectral_layer")


class Tracer:
    """Records spans inside the op currently run by :meth:`run_op`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = None
        self._next_id = 0
        self._patches = []
        self._net_stack = []
        self.absent = []
        self.measure_alloc = False
        self.peak_alloc = {}

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, parent, 0.0]
        self._stack.append(frame)
        return frame, time.process_time()

    def _exit(self, frame, name, start, counts):
        end = time.process_time()
        self._stack.pop()
        duration = end - start
        parent = frame[1]
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            (self._op_id, frame[0], parent[0] if parent else None, name,
             start, end, duration - frame[2], counts)
        )

    def run_op(self, op_id, name, fn, *args):
        """Call ``fn(*args)`` as the root span ``name`` of op ``op_id``."""
        self._op_id = op_id
        frame, start = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, name, start, None)
            self._op_id = None

    def _call(self, name, fn, hook, args, kwargs):
        if self._op_id is None:
            return fn(*args, **kwargs)
        after = None
        if hook is not None:
            args, kwargs, after = hook(fn, args, kwargs)
        alloc = self.measure_alloc and name in ALLOC_LAYERS
        if alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        frame, start = self._enter()
        counts = None
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                counts = after(result)
            return result
        finally:
            self._exit(frame, name, start, counts)
            if alloc:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                self.peak_alloc[name] = max(self.peak_alloc.get(name, 0.0), peak)

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, hook, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fresnet" or mod_name.startswith("fresnet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def install(self):
        """Patch every traced function, method and entry point."""
        self.absent = []
        for mod_name, attr, name, hook in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            self._rebind(orig, self._wrap(name, orig, hook))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            if attr not in cls.__dict__:
                self.absent.append(name)
                continue
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr], None))
        network = sys.modules["fresnet.network"]
        for attr in NET_ENTRY_POINTS:
            if hasattr(network, attr):
                self._rebind(getattr(network, attr), self._net_entry(getattr(network, attr)))
        self._set(network.Branch, "__call__", self._branch_call(network.Branch.__call__))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _net_entry(self, fn):
        tracer = self

        def wrapper(net, *args, **kwargs):
            last = net.layers[-1]
            tracer._net_stack.append((last.g_branch, last.h_branch))
            try:
                return fn(net, *args, **kwargs)
            finally:
                tracer._net_stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _branch_call(self, fn):
        tracer = self

        def wrapper(branch, t):
            if not tracer._net_stack:
                name = "network.other_branch"
            else:
                last_g, last_h = tracer._net_stack[-1]
                if branch is last_g:
                    name = "network.spectral_layer"
                elif branch is last_h:
                    name = "network.jump_layer"
                else:
                    name = "network.sign_layers"
            return tracer._call(name, fn, _branch_counts, (branch, t), {})

        wrapper.__wrapped__ = fn
        return wrapper


#: Per-layer metrics the traced run reports: span name -> statistics.
LAYER_STATS = {
    "smooth.fourier_coeffs": ("calls", "self_ms", "terms", "computed_mb", "peak_alloc_mb"),
    "smooth.build_smooth_branch": ("calls", "self_ms"),
    "quadrature.nodes_weights": ("calls", "cache_hit_ratio", "nodes"),
    "smooth.series_eval": ("calls", "self_ms", "terms"),
    "metrics.lp_error": ("calls", "self_ms", "points"),
    "cli.main": ("calls", "self_ms"),
    "targets.one_sided_derivs": ("calls", "self_ms"),
    "targets.eval": ("calls", "self_ms"),
    "jump.build_jump_H": ("calls", "self_ms"),
    "jump.q_derivs_at": ("calls", "self_ms"),
    "jump.q_eval": ("calls", "points", "self_ms"),
    "hermite.hermite_endpoint": ("calls", "self_ms"),
    "hermite.trig_deriv_eval": ("calls", "points", "self_ms"),
    "sign.build_sign_net": ("calls", "self_ms"),
    "builder.build_piecewise_net": ("calls", "self_ms"),
    "network.spectral_layer": ("calls", "self_ms", "terms", "computed_mb", "peak_alloc_mb"),
    "network.jump_layer": ("calls", "self_ms"),
    "network.sign_layers": ("calls", "self_ms", "terms"),
    "network.serialize": ("calls", "self_ms"),
    "network.deserialize": ("calls", "self_ms"),
}

#: Statistics that must repeat exactly across runs with the same seed.
EXACT_STATS = ("calls", "terms", "points", "nodes", "cache_hit_ratio")

#: Inclusive share of op time, for the predictions: span names or a
#: module prefix ending in ".".
SHARES = {
    "smooth.fourier_coeffs.op_share": "smooth.fourier_coeffs",
    "network.spectral_layer.op_share": "network.spectral_layer",
    "smooth.op_share": "smooth.",
}

OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"


def _matches(name, key):
    return name.startswith(key) if key.endswith(".") else name == key


def summarise(spans, n_ops, peak_alloc):
    """Per-layer metrics ``{metric: value}`` from the spans of ``n_ops`` ops.

    Sums cover every span of an op (the timed call and its check); shares
    are inclusive time inside the timed call over the timed call's time.
    """
    totals = {name: {"calls": 0, "self_s": 0.0} for name in LAYER_STATS}
    parents = {}
    op_time = 0.0
    for op_id, span_id, parent_id, name, start, end, self_s, counts in spans:
        parents[span_id] = (parent_id, name)
        if name == OP_SPAN:
            op_time += end - start
        if name not in totals:
            continue
        acc = totals[name]
        acc["calls"] += 1
        acc["self_s"] += self_s
        for key, value in (counts or {}).items():
            acc[key] = acc.get(key, 0) + value

    def outermost_in_op(span_id, key):
        parent_id = parents[span_id][0]
        while parent_id is not None:
            grand_id, name = parents[parent_id]
            if grand_id is None:
                return name == OP_SPAN
            if _matches(name, key):
                return False  # an enclosing span already counts this time
            parent_id = grand_id
        return False

    inclusive = dict.fromkeys(SHARES, 0.0)
    for op_id, span_id, parent_id, name, start, end, self_s, counts in spans:
        for metric, key in SHARES.items():
            if _matches(name, key) and outermost_in_op(span_id, key):
                inclusive[metric] += end - start

    out = {}
    for name, stats in LAYER_STATS.items():
        acc = totals[name]
        for stat in stats:
            if stat == "calls":
                value = acc["calls"] / n_ops
            elif stat == "self_ms":
                value = acc["self_s"] * 1e3 / n_ops
            elif stat == "peak_alloc_mb":
                value = peak_alloc.get(name, 0.0)
            elif stat == "cache_hit_ratio":
                value = acc.get("cache_hits", 0) / acc["calls"] if acc["calls"] else 0.0
            elif stat == "nodes":
                value = acc.get("nodes", 0) / acc["calls"] if acc["calls"] else 0.0
            else:
                value = acc.get(stat, 0) / n_ops
            out[f"{name}.{stat}"] = value
    for metric, value in inclusive.items():
        out[metric] = value / op_time if op_time else 0.0
    return out

