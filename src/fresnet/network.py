"""Fourier residual network data model, evaluator and serializer.

A network of depth L is the recursion

    f_1(x) = g_1(x)
    f_l(x) = f_{l-1}(x) + g_l(x) + h_l(f_{l-1}(x)),   l = 2, ..., L,

where every branch g/h is a finite trigonometric sum

    sum_k a_k sin(w_k t) + b_k cos(w_k t).

Branches are stored in real sin/cos form, one entry per underlying complex
mode.  A complex amplitude c at signed frequency w contributes
Re(c e^{iwt}) and is folded onto the nonnegative frequency |w| by
:func:`mode_entry`.  A zero-frequency entry is a constant bias term; it is
excluded from :func:`neuron_count` so that neuron totals match the
L + W + 1 + 4(m+1) accounting of the deep piecewise construction.

Every branch, and every other trigonometric sum in the package, is
evaluated by one kernel, :func:`trig_sum`.  It folds each mode onto a
nonnegative frequency and merges duplicates.  Modes at exact multiples
k pi of pi become one coefficient array c_0..c_K, summed by complex Horner
in z = e^{i pi x}: one complex exp per point instead of a sin and a cos
per point and mode, and O(n) memory for n points.  The few other modes
(pi/2 in the first sign layer, the sin(x) neuron, the quarter-pi Hermite
modes) are summed as a dense n x D sine/cosine product over their D
distinct frequencies.

Networks are immutable after construction and evaluation is pure, so all
operations are safe for concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


class NetworkFormatError(ValueError):
    """Raised for malformed or inconsistent serialized networks."""


@dataclass(frozen=True)
class Branch:
    """One trigonometric branch: parallel lists of frequencies and amplitudes."""

    freqs: tuple
    sin_amps: tuple
    cos_amps: tuple

    def __post_init__(self):
        if not (len(self.freqs) == len(self.sin_amps) == len(self.cos_amps)):
            raise NetworkFormatError(
                f"mismatched lengths freqs={len(self.freqs)} "
                f"a={len(self.sin_amps)} b={len(self.cos_amps)}"
            )
        for seq in (self.freqs, self.sin_amps, self.cos_amps):
            if any(not np.isfinite(v) for v in seq):
                raise NetworkFormatError("branch parameters must be finite")

    @property
    def width(self) -> int:
        return len(self.freqs)

    @cached_property
    def _plan(self):
        # a sin(wt) + b cos(wt) == Re((b - ia) e^{iwt})
        amps = np.asarray(self.cos_amps, dtype=float) - 1j * np.asarray(self.sin_amps, dtype=float)
        return _trig_plan(self.freqs, amps, 0)

    def __call__(self, t):
        """Evaluate the branch at scalar or array input."""
        if self.width == 0:
            return np.zeros(np.shape(t))
        return _trig_apply(self._plan, t)


@dataclass(frozen=True)
class Layer:
    g_branch: Branch
    h_branch: Optional[Branch] = None


@dataclass(frozen=True)
class FourierResNet:
    layers: tuple

    def __post_init__(self):
        if len(self.layers) < 1:
            raise NetworkFormatError("network must have depth >= 1")
        if self.layers[0].h_branch is not None:
            raise NetworkFormatError("layer 1 must not have an h-branch")

    @property
    def depth(self) -> int:
        return len(self.layers)


def trig_sum(omegas, amps, x, deriv: int = 0):
    """Re sum_j amps_j (i omegas_j)^deriv e^{i omegas_j x} at scalar or array x.

    ``omegas`` are real frequencies of any sign and ``amps`` complex
    amplitudes; the result has the shape of ``x``.
    """
    return _trig_apply(_trig_plan(omegas, amps, deriv), x)


def _trig_plan(omegas, amps, deriv: int):
    """Split the modes into a Horner array for the multiples of pi and a
    dense remainder, both folded onto nonnegative, distinct frequencies."""
    if deriv < 0:
        raise ValueError("derivative order must be nonnegative")
    omegas = np.asarray(omegas, dtype=float).ravel()
    amps = np.asarray(amps, dtype=complex).ravel()
    if omegas.shape != amps.shape:
        raise ValueError(f"{omegas.size} frequencies but {amps.size} amplitudes")
    if deriv:
        amps = amps * (1j * omegas) ** deriv
    # Re(c e^{-iwx}) == Re(conj(c) e^{iwx})
    amps = np.where(omegas < 0, amps.conj(), amps)
    omegas = np.abs(omegas)
    ks = np.rint(omegas / np.pi)
    # Horner takes max(k) steps per point, so multiples of pi beyond twice
    # the mode count (the builder makes none; a loaded file may) are
    # cheaper as dense terms.
    on_grid = (ks * np.pi == omegas) & (ks <= 2 * omegas.size)
    k_on = ks[on_grid].astype(int)
    horner = np.zeros(k_on.max() + 1 if k_on.size else 0, dtype=complex)
    np.add.at(horner, k_on, amps[on_grid])
    freqs, where = np.unique(omegas[~on_grid], return_inverse=True)
    dense = np.zeros(freqs.size, dtype=complex)
    np.add.at(dense, where, amps[~on_grid])
    return horner.tolist(), freqs, dense.real, -dense.imag


def _trig_apply(plan, x):
    horner, freqs, cos_amps, sin_amps = plan
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    if horner:
        z = np.exp(1j * np.pi * x)
        p = np.full(x.shape, horner[-1])
        for c in reversed(horner[:-1]):
            p *= z
            p += c
        out += p.real
    if freqs.size:
        phase = np.multiply.outer(x, freqs)
        out += np.sin(phase) @ sin_amps + np.cos(phase) @ cos_amps
    return out[()] if out.ndim == 0 else out


def mode_entry(c: complex, omega: float):
    """Fold a complex mode c e^{i omega t} onto a nonnegative frequency.

    Returns (freq, sin_amp, cos_amp) such that
    a sin(freq t) + b cos(freq t) == Re(c e^{i omega t}) for all real t.
    """
    c = complex(c)
    if omega >= 0:
        return (omega, -c.imag, c.real)
    return (-omega, c.imag, c.real)


def branch_from_modes(coeffs, omegas) -> Branch:
    """Branch with one real entry per complex mode (sign-folded)."""
    entries = [mode_entry(c, w) for c, w in zip(coeffs, omegas)]
    return Branch(
        tuple(e[0] for e in entries),
        tuple(e[1] for e in entries),
        tuple(e[2] for e in entries),
    )


def eval_prefix(net: FourierResNet, x, ell: int):
    """Output of the first ``ell`` layers, f_ell(x)."""
    if not 1 <= ell <= net.depth:
        raise IndexError(f"layer index {ell} out of range 1..{net.depth}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    f = _forward(net, np.atleast_1d(x), ell)
    return float(f[0]) if scalar else f


def _forward(net: FourierResNet, xs: np.ndarray, upto: int) -> np.ndarray:
    f = net.layers[0].g_branch(xs)
    for layer in net.layers[1:upto]:
        prev = f
        f = prev + layer.g_branch(xs)
        if layer.h_branch is not None:
            f = f + layer.h_branch(prev)
    return f


def eval_grid(net: FourierResNet, xs) -> np.ndarray:
    """f_L at every point of ``xs``."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(xs.shape)
    return _forward(net, xs, net.depth)


def neuron_count(net: FourierResNet) -> int:
    """Total neurons: branch entries with nonzero frequency.

    Zero-frequency entries are constant biases (cos(0) = 1) and are not
    counted, keeping the total equal to the complex-mode count of the
    underlying construction.
    """
    total = 0
    for layer in net.layers:
        branches = [layer.g_branch]
        if layer.h_branch is not None:
            branches.append(layer.h_branch)
        for br in branches:
            total += sum(1 for w in br.freqs if w != 0.0)
    return total


def frequency_multiset(net: FourierResNet):
    """Sorted list of all branch frequencies (with multiplicity)."""
    out = []
    for layer in net.layers:
        out.extend(layer.g_branch.freqs)
        if layer.h_branch is not None:
            out.extend(layer.h_branch.freqs)
    return sorted(out)


# -- serialization --------------------------------------------------------
#
# Format: UTF-8 JSON, schema
#   {"depth": int, "layers": [{"g": {"freqs": [...], "a": [...], "b": [...]},
#                              "h": {...} | null}, ...]}
# Numbers are written as decimal with 17 significant digits, which
# round-trips IEEE binary64 exactly.

def _fmt(v: float) -> str:
    s = format(float(v), ".17g")
    # keep a decimal point so JSON parses the value as a float ("-0" would
    # otherwise come back as the integer 0 and lose the sign of -0.0)
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _branch_json(br: Branch) -> str:
    def arr(vals):
        return "[" + ", ".join(_fmt(v) for v in vals) + "]"

    return (
        '{"freqs": ' + arr(br.freqs)
        + ', "a": ' + arr(br.sin_amps)
        + ', "b": ' + arr(br.cos_amps) + "}"
    )


def serialize(net: FourierResNet) -> str:
    lines = ['{', f'  "depth": {net.depth},', '  "layers": [']
    for i, layer in enumerate(net.layers):
        h = _branch_json(layer.h_branch) if layer.h_branch is not None else "null"
        sep = "," if i < net.depth - 1 else ""
        lines.append('    {"g": ' + _branch_json(layer.g_branch) + ', "h": ' + h + "}" + sep)
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_branch(obj, where: str) -> Branch:
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: branch must be an object")
    for key in ("freqs", "a", "b"):
        if key not in obj or not isinstance(obj[key], list):
            raise NetworkFormatError(f"{where}: missing or invalid '{key}' array")
    freqs, a, b = obj["freqs"], obj["a"], obj["b"]
    try:
        return Branch(tuple(map(float, freqs)), tuple(map(float, a)), tuple(map(float, b)))
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}: {exc}") from exc


def deserialize(text: str) -> FourierResNet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise NetworkFormatError("document must be an object with a 'layers' array")
    layers_doc = doc["layers"]
    if not isinstance(layers_doc, list) or not layers_doc:
        raise NetworkFormatError("'layers' must be a nonempty array")
    if "depth" in doc and doc["depth"] != len(layers_doc):
        raise NetworkFormatError(
            f"declared depth {doc['depth']} != number of layers {len(layers_doc)}"
        )
    layers = []
    for i, layer_doc in enumerate(layers_doc, start=1):
        if not isinstance(layer_doc, dict) or "g" not in layer_doc:
            raise NetworkFormatError(f"layer {i}: must be an object with a 'g' branch")
        g = _parse_branch(layer_doc["g"], f"layer {i} g-branch")
        h_doc = layer_doc.get("h")
        h = None if h_doc is None else _parse_branch(h_doc, f"layer {i} h-branch")
        layers.append(Layer(g, h))
    return FourierResNet(tuple(layers))


def save(net: FourierResNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path) -> FourierResNet:
    with open(path, encoding="utf-8") as fh:
        return deserialize(fh.read())
