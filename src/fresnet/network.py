"""Fourier residual network data model, evaluator and serializer.

A network of depth L is the recursion

    f_1(x) = g_1(x)
    f_l(x) = f_{l-1}(x) + g_l(x) + h_l(f_{l-1}(x)),   l = 2, ..., L,

where every branch g/h is a finite trigonometric sum

    sum_k a_k sin(w_k t) + b_k cos(w_k t).

Branches are stored in real sin/cos form, one entry per underlying complex
mode.  A complex amplitude c at signed frequency w contributes
Re(c e^{iwt}) and is folded onto the nonnegative frequency |w| by
:func:`branch_from_modes` (conjugating c when w < 0).  A zero-frequency
entry is a constant bias term; it is excluded from :func:`neuron_count` so
that neuron totals match the L + W + 1 + 4(m+1) accounting of the deep
piecewise construction.

Every branch, and every other trigonometric sum in the package, is
evaluated by one kernel, :func:`trig_sum`.  It folds each mode onto a
nonnegative frequency and merges duplicates, then sums each part by the
cheapest rule that keeps it exact to rounding:

* Modes at exact multiples k pi (the spectral modes) form the pi ladder
  c_1..c_K, summed as Re z sum_k c_k z^(k-1) by complex Horner in
  z = e^{i pi x}; the constant c_0 is added as its real part.
* Modes at exact odd multiples (2j+1) pi/4 (the m+1 distinct Hermite
  frequencies of H and H_r) form the quarter-pi ladder c_0..c_m, summed
  as Re u sum_j c_j w^j with u = e^{i pi x/4} and w = u^2.
* Every other mode is a dense term (pi/2 in the first sign layer, the
  sin(x) neuron), and so is each mode of a ladder with a single nonzero
  frequency (the sign stack's h, at pi).  Dense terms are summed one
  frequency at a time, in a fixed order, computing only the sine or cosine
  whose amplitude is nonzero.

A ladder costs one complex exp per point and one complex multiply per
mode and point, instead of a sine and a cosine per point and mode; for a
single frequency the dense term is no dearer.  So the spectral layer
costs two complex exps per point, the jump layer one, and sin(pi v)/pi,
sin(pi x/2) and sin(x) one real sine each.

Horner steps multiply into a second buffer rather than in place: numpy's
in-place complex multiply rounds a length-1 array differently from a
longer one, and a point's bits must not depend on the call.  All parts run
over the flattened input in chunks of :data:`TRIG_CHUNK` points, so memory
is O(chunk) besides the output, and a point's bits do not depend on where
it sits in the input or on the input's shape: a point evaluated alone, in
any subset or in the full input gets the same bits.

The forward pass evaluates only what still changes.  A run of consecutive
layers with an empty g-branch and equal h-branches (the width-1 sign
stack) applies the same map v -> (v + 0.0) + h(v) again and again.  That
map is a pure function of the value, so a point whose float64 bits did
not change in one step is fixed for the rest of the run: the run is
iterated only on the points that still move, which is bit-identical to
applying every layer to every point.  Under phi(y) = y + sin(pi y)/pi most
points reach their floating-point fixed point within about 20 layers.

Networks are immutable after construction and evaluation is pure, so all
operations are safe for concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

#: Points per block in which :func:`trig_sum` evaluates its Horner and dense
#: parts, so the Horner state (16 B per point) stays cache-sized.  Every
#: point is summed in the same order whatever its block, so chunking
#: changes no bit.
TRIG_CHUNK = 16384

#: Amplitude sets whose largest entry is below 2**-TINY_EXP are summed
#: scaled up by 2**TINY_SHIFT and scaled back once: a power of two is exact,
#: so their products stay out of the subnormal range, where each rounds to
#: an absolute 5e-324 and a sum of such amplitudes loses all its digits.
TINY_EXP = 900
TINY_SHIFT = 600


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
        if not np.isfinite(np.asarray((*self.freqs, *self.sin_amps, *self.cos_amps))).all():
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
    """Fold the modes onto nonnegative, distinct frequencies and split them
    into the constant, the pi ladder, the quarter-pi ladder and the dense
    terms (see the module docstring), with the power of two (see
    :data:`TINY_EXP`) by which all are scaled."""
    if deriv < 0:
        raise ValueError("derivative order must be nonnegative")
    omegas = np.asarray(omegas, dtype=float).ravel()
    amps = np.asarray(amps, dtype=complex).ravel()
    if omegas.shape != amps.shape:
        raise ValueError(f"{omegas.size} frequencies but {amps.size} amplitudes")
    top = np.abs(amps).max(initial=0.0)
    shift = TINY_SHIFT if 0 < top < 2.0 ** -TINY_EXP else 0
    if shift:
        amps = np.ldexp(amps.real, shift) + 1j * np.ldexp(amps.imag, shift)
    if deriv:
        amps = amps * (1j * omegas) ** deriv
    # Re(c e^{-iwx}) == Re(conj(c) e^{iwx})
    amps = np.where(omegas < 0, amps.conj(), amps)
    omegas = np.abs(omegas)
    # grid[q] sums the modes at exactly q pi/4, up to 2n pi: Horner takes
    # one step per multiple, so higher ones (the builder makes none; a
    # loaded file may) are cheaper as dense terms
    quarters = np.rint(omegas / (np.pi / 4))
    on = (quarters * (np.pi / 4) == omegas) & (quarters <= 8 * omegas.size)
    q = quarters[on].astype(int)
    grid = np.zeros(q.max(initial=-1) + 1, dtype=complex)
    np.add.at(grid, q, amps[on])
    # q = 0 is the constant, added as its real part; the pi ladder holds
    # q = 4k at index k - 1, the quarter-pi ladder q = 2j + 1 at index j,
    # and q = 4k + 2 (pi/2 in the first sign layer) is always dense
    bias = grid[0].real if grid.size else 0.0
    rest = grid != 0
    rest[:1] = False
    ladders = []
    for start, step in ((4, 4), (1, 2)):
        nonzero = grid[start::step].nonzero()[0]
        # a single frequency costs a sine and a cosine at most, no more
        # than the ladder's complex exp
        if nonzero.size < 2:
            ladders.append([])
            continue
        ladders.append(grid[start:start + step * nonzero[-1] + 1:step].tolist())
        rest[start::step] = False
    qs = rest.nonzero()[0]
    freqs, merged = qs * (np.pi / 4), grid[qs]
    if q.size < omegas.size:
        off, where = np.unique(omegas[~on], return_inverse=True)
        off_amps = np.zeros(off.size, dtype=complex)
        np.add.at(off_amps, where, amps[~on])
        freqs, merged = np.concatenate([freqs, off]), np.concatenate([merged, off_amps])
    # a sin(wx) + b cos(wx) == Re((b - ia) e^{iwx}); a term with a = b = 0
    # is dropped, and one with a or b zero computes only the other's trig
    terms = [(w, a, b) for w, a, b in zip(freqs.tolist(), (-merged.imag).tolist(),
                                          merged.real.tolist()) if a or b]
    return bias, ladders[0], ladders[1], terms, shift


def _horner(coeffs, z):
    """sum_j coeffs[j] z^j by Horner.  Each step multiplies into the other
    of two buffers: numpy's in-place complex multiply rounds a length-1
    array differently from a longer one."""
    p = np.full(z.shape, coeffs[-1])
    q = np.empty_like(p)
    for c in reversed(coeffs[:-1]):
        np.multiply(p, z, out=q)
        q += c
        p, q = q, p
    return p


def _trig_apply(plan, x):
    bias, pi_ladder, quarter_ladder, terms, shift = plan
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.full(flat.size, bias)
    for lo in range(0, flat.size, TRIG_CHUNK):
        xc = flat[lo:lo + TRIG_CHUNK]
        oc = out[lo:lo + TRIG_CHUNK]
        if pi_ladder:
            z = np.exp(1j * np.pi * xc)
            oc += (z * _horner(pi_ladder, z)).real
        if quarter_ladder:
            u = np.exp(1j * (np.pi / 4) * xc)
            oc += (u * _horner(quarter_ladder, u * u)).real
        # one frequency at a time, so a point's sum has a fixed order
        # (a matrix-vector product's order depends on the row's position)
        for w, a, b in terms:
            wx = xc * w
            if not b:
                oc += a * np.sin(wx)
            elif not a:
                oc += b * np.cos(wx)
            else:
                oc += a * np.sin(wx) + b * np.cos(wx)
        if shift:
            np.ldexp(oc, -shift, out=oc)
    return out[0] if x.ndim == 0 else out.reshape(x.shape)


def branch_from_modes(coeffs, omegas) -> Branch:
    """Branch with one real entry per complex mode c e^{i omega t}.

    Each entry is (|omega|, a, b) with
    a sin(|omega| t) + b cos(|omega| t) == Re(c e^{i omega t}): c is
    conjugated where omega < 0, the fold :func:`_trig_plan` also uses.
    """
    omegas = np.asarray(omegas, dtype=float).ravel()
    coeffs = np.asarray(coeffs, dtype=complex).ravel()
    if omegas.shape != coeffs.shape:
        raise ValueError(f"{omegas.size} frequencies but {coeffs.size} amplitudes")
    negative = omegas < 0
    coeffs = np.where(negative, coeffs.conj(), coeffs)
    return Branch(
        tuple(np.where(negative, -omegas, omegas).tolist()),
        tuple((-coeffs.imag).tolist()),
        tuple(coeffs.real.tolist()),
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
    layers = net.layers[:upto]
    flat = xs.ravel()
    f = layers[0].g_branch(flat)
    i = 1
    while i < len(layers):
        g, h = layers[i].g_branch, layers[i].h_branch
        end = i + 1
        if g.width == 0:
            while (end < len(layers) and layers[end].g_branch.width == 0
                   and layers[end].h_branch == h):
                end += 1
            f = _iterate(h, f, end - i)
        else:
            prev = f
            f = prev + g(flat)
            if h is not None:
                f += h(prev)
        i = end
    return f.reshape(xs.shape)


def _iterate(h: Optional[Branch], f: np.ndarray, steps: int) -> np.ndarray:
    """Apply v -> (v + 0.0) + h(v) ``steps`` times to the 1-D array f, in
    place, each time only to the points whose bits the previous step changed."""
    live, v = np.arange(f.size), f
    for _ in range(steps):
        new = v + 0.0
        if h is not None:
            new += h(v)
        # bit patterns, not values: NaN != NaN would keep a NaN point moving.
        # Taken before f is written, since v is f in the first step.
        moved = new.view(np.int64) != v.view(np.int64)
        live, v = live[moved], new[moved]
        f[live] = v
        if not live.size:
            break
    return f


def eval_grid(net: FourierResNet, xs) -> np.ndarray:
    """f_L at every point of ``xs``."""
    return _forward(net, np.asarray(xs, dtype=float), net.depth)


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


# -- serialization --------------------------------------------------------
#
# Format: UTF-8 JSON, schema
#   {"depth": int, "layers": [{"g": {"freqs": [...], "a": [...], "b": [...]},
#                              "h": {...} | null}, ...]}
# Numbers are written as decimal with 17 significant digits, which
# round-trips IEEE binary64 exactly.
#
# Formatting the numbers is most of the cost, and about half the numbers of
# a built network repeat an earlier one bit for bit (each +-k pair of the
# spectral layer folds to the same entry, and every sign layer holds the
# same h-branch).  So serialize builds the text as a skeleton with one %s
# per number, formats each distinct float64 bit pattern once and fills the
# skeleton in one step; the bytes are those of formatting every number in
# turn.  Numbers are told apart by their bits, not their values:
# -0.0 == 0.0, but one is written "-0.0", the other "0.0".

def _fmt(v: float) -> str:
    s = format(float(v), ".17g")
    # keep a decimal point so JSON parses the value as a float ("-0" would
    # otherwise come back as the integer 0 and lose the sign of -0.0)
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _branch_skeleton(br: Branch, values: list) -> str:
    """The branch's JSON with a %s per number; its numbers go onto ``values``
    in the same order."""
    arr = "[" + ", ".join(["%s"] * br.width) + "]"
    values += br.freqs
    values += br.sin_amps
    values += br.cos_amps
    return '{"freqs": ' + arr + ', "a": ' + arr + ', "b": ' + arr + "}"


def serialize(net: FourierResNet) -> str:
    values = []
    lines = ['{', f'  "depth": {net.depth},', '  "layers": [']
    for i, layer in enumerate(net.layers):
        g = _branch_skeleton(layer.g_branch, values)
        h = _branch_skeleton(layer.h_branch, values) if layer.h_branch is not None else "null"
        sep = "," if i < net.depth - 1 else ""
        lines.append('    {"g": ' + g + ', "h": ' + h + "}" + sep)
    lines.append("  ]")
    lines.append("}")
    bits, slots = np.unique(np.array(values, dtype=float).view(np.int64), return_inverse=True)
    texts = [_fmt(v) for v in bits.view(float).tolist()]
    return ("\n".join(lines) + "\n") % tuple([texts[j] for j in slots.tolist()])


def _parse_branch(obj, where: str) -> Branch:
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: branch must be an object")
    for key in ("freqs", "a", "b"):
        if key not in obj or not isinstance(obj[key], list):
            raise NetworkFormatError(f"{where}: missing or invalid '{key}' array")
        for v in obj[key]:
            # exact types: json.loads gives bool, a subclass of int, for true/false
            if type(v) not in (int, float):
                raise NetworkFormatError(f"{where}: '{key}' entry {v!r} is not a number")
    try:
        return Branch(*(tuple(map(float, obj[key])) for key in ("freqs", "a", "b")))
    except (ValueError, OverflowError) as exc:
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
    depth = doc.get("depth", len(layers_doc))
    if type(depth) is not int:
        raise NetworkFormatError(f"'depth' must be an integer, got {depth!r}")
    if depth != len(layers_doc):
        raise NetworkFormatError(
            f"declared depth {depth} != number of layers {len(layers_doc)}"
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
