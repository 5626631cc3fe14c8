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
evaluated by one kernel, :func:`trig_sum`, which sums values only (H's
derivatives at a point are one small product of its modes, see
:func:`fresnet.hermite.deriv_rows`).  It folds each mode onto a
nonnegative frequency and merges duplicates, then sums each part by the
cheapest rule that keeps it exact to rounding:

* Modes at exact multiples k pi (the spectral modes) form the pi ladder
  c_1..c_K; the constant c_0 is added as its real part.  A ladder of at
  most D + 1 = 12 terms is summed as Re z sum_k c_k z^(k-1) by complex
  Horner in z = e^{i pi x}.  A longer one is summed from a Taylor table
  (after Anderson & Dahleh, SIAM J. Sci. Comput. 17(4), 1996): the sum has
  period 2, so the plan tabulates it and its first D = 11 derivatives at
  the M = 16K nodes x_j = 2j/M of one period by one batched inverse real
  FFT of D + 1 half spectra, and a point takes D real Horner steps in its
  offset from the nearest node.
* Modes at exact odd multiples (2j+1) pi/4 (the m+1 distinct Hermite
  frequencies of H and H_r) form the quarter-pi ladder c_0..c_m, summed
  as Re u sum_j c_j w^j with u = e^{i pi x/4} and w = u^2.
* Every other mode is a dense term (pi/2 in the first sign layer, the
  sin(x) neuron), and so is each mode of a ladder with a single nonzero
  frequency (the sign stack's h, at pi).  Dense terms are summed one
  frequency at a time, in a fixed order, computing only the sine or cosine
  whose amplitude is nonzero.

A Horner ladder costs one complex exp per point and one complex multiply
per mode and point, instead of a sine and a cosine per point and mode; for
a single frequency the dense term is no dearer.  The Taylor table costs
O(K log K) once per plan, and then a gather and D real multiply-adds per
point whatever K is: the Horner steps it replaces outnumber the Taylor
steps.  So the spectral layer costs one table lookup and one complex exp
per point, the jump layer one complex exp, and sin(pi v)/pi, sin(pi x/2)
and sin(x) one real sine each.

Horner steps multiply into a second buffer rather than in place: numpy's
in-place complex multiply rounds a length-1 array differently from a
longer one, and a point's bits must not depend on the call.  The table
lookup is real arithmetic, rounded the same whatever the array.  All parts
run over the flattened input in chunks of :data:`TRIG_CHUNK` points, so
memory is O(chunk) besides the output, and a point's bits do not depend on
where it sits in the input or on the input's shape: a point evaluated
alone, in any subset or in the full input gets the same bits.  An
infinite or NaN x gives NaN in every part, without a floating-point
warning.

The forward pass evaluates only what still changes.  A run of consecutive
layers with an empty g-branch and equal h-branches (the width-1 sign
stack) applies the same map v -> (v + 0.0) + h(v) again and again.  That
map is a pure function of the value, so a point whose float64 bits did
not change in one step is fixed for the rest of the run: the run is
iterated only on the points that still move, which is bit-identical to
applying every layer to every point.  Under phi(y) = y + sin(pi y)/pi most
points reach their floating-point fixed point within about 20 layers.

The forward pass takes the flattened input in blocks of :data:`TRIG_CHUNK`
points, so it holds one block at a time besides the output, and runs
every layer on a block in increasing order of x: one argsort per block
(none for a block that is already non-decreasing, such as a grid or
quadrature nodes), one take, and one scatter of the result back into the
output.  A point's bits do not depend on its position, so the order
changes no bit, but neighbouring points then take the same branches of
sin and exp, touch nearby rows of the Taylor table, and leave the sign
stack's run in contiguous stretches.

Networks are immutable after construction and evaluation is pure, so all
operations are safe for concurrent use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

#: Points per block in which :func:`trig_sum` evaluates its parts and the
#: forward pass its layers, so the Horner state (16 B per point) stays
#: cache-sized.  Every point is summed in the same order whatever its
#: block, so chunking changes no bit.
TRIG_CHUNK = 16384

#: Amplitude sets whose largest entry is below 2**-TINY_EXP are summed
#: scaled up by 2**TINY_SHIFT and scaled back once: a power of two is exact,
#: so their products stay out of the subnormal range, where each rounds to
#: an absolute 5e-324 and a sum of such amplitudes loses all its digits.
TINY_EXP = 900
TINY_SHIFT = 600

#: Taylor steps per point, and table nodes per pi-ladder term, of the pi
#: ladder's Taylor table.  A point lies within 1/M of its nearest of the
#: M = 16K nodes, so the first dropped term is below
#: (pi K / M)^(D+1) / (D+1)! = (pi/16)^12 / 12! < 2**-54 of sum |c_k|.
_TAYLOR_STEPS = 11
_NODES_PER_TERM = 16


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
        # A NaN or infinite entry makes the entries' sum NaN or infinite, so a
        # finite float sum shows every entry finite without building an array.
        # Any other sum (finite entries that overflow, entries that are not all
        # floats or cannot be added) leaves the verdict to numpy's check.  An
        # empty branch has no entry to check.
        try:
            total = sum(self.freqs) + sum(self.sin_amps) + sum(self.cos_amps)
        except (TypeError, ValueError, ArithmeticError):
            total = None
        if self.freqs and not (type(total) is float and math.isfinite(total)):
            if not np.isfinite(np.asarray((*self.freqs, *self.sin_amps, *self.cos_amps))).all():
                raise NetworkFormatError("branch parameters must be finite")

    @property
    def width(self) -> int:
        return len(self.freqs)

    @cached_property
    def _plan(self):
        return _trig_plan(*_branch_modes(self))

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


def trig_sum(omegas, amps, x):
    """Re sum_j amps_j e^{i omegas_j x} at scalar or array x.

    ``omegas`` are real frequencies of any sign and ``amps`` complex
    amplitudes; the result has the shape of ``x``.
    """
    return _trig_apply(_trig_plan(omegas, amps), x)


def _branch_modes(branch: Branch):
    """(freqs, amps): one complex mode per entry, amplitude b - ia, since
    a sin(wt) + b cos(wt) == Re((b - ia) e^{iwt}).  Built without
    arithmetic, so :func:`branch_from_modes` gives back the entries bit for
    bit, signed zeros included."""
    amps = np.asarray(branch.cos_amps, dtype=complex)
    amps.imag = np.negative(branch.sin_amps)
    return np.asarray(branch.freqs, dtype=float), amps


def _trig_plan(omegas, amps):
    """Fold the modes onto nonnegative, distinct frequencies and split them
    into the constant, the pi ladder (as Horner coefficients or as its
    Taylor table), the quarter-pi ladder and the dense terms (see the
    module docstring), with the power of two (see :data:`TINY_EXP`) by
    which all are scaled."""
    omegas = np.asarray(omegas, dtype=float).ravel()
    amps = np.asarray(amps, dtype=complex).ravel()
    if omegas.shape != amps.shape:
        raise ValueError(f"{omegas.size} frequencies but {amps.size} amplitudes")
    top = np.abs(amps).max(initial=0.0)
    shift = TINY_SHIFT if 0 < top < 2.0 ** -TINY_EXP else 0
    if shift:
        amps = np.ldexp(amps.real, shift) + 1j * np.ldexp(amps.imag, shift)
    # Re(c e^{-iwx}) == Re(conj(c) e^{iwx})
    amps = np.where(omegas < 0, amps.conj(), amps)
    omegas = np.abs(omegas)
    # grid[q] sums the modes at exactly q pi/4, up to 2n pi: Horner takes
    # one step per multiple, and the Taylor table holds 16 nodes per
    # multiple, so a ladder's time and memory grow with its top multiple.
    # Capped at 2n pi, they stay O(n) per point and per plan; higher
    # multiples (the builder makes none; a loaded file may) are cheaper as
    # dense terms
    quarters = np.rint(omegas / (np.pi / 4))
    on = (quarters * (np.pi / 4) == omegas) & (quarters <= 8 * omegas.size)
    q = quarters[on].astype(int)
    grid = _merge(q, amps[on], q.max(initial=-1) + 1)
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
        off_amps = _merge(where, amps[~on], off.size)
        freqs, merged = np.concatenate([freqs, off]), np.concatenate([merged, off_amps])
    # a sin(wx) + b cos(wx) == Re((b - ia) e^{iwx}); a term with a = b = 0
    # is dropped, and one with a or b zero computes only the other's trig
    terms = [(w, a, b) for w, a, b in zip(freqs.tolist(), (-merged.imag).tolist(),
                                          merged.real.tolist()) if a or b]
    pi_ladder, pi_table = ladders[0], None
    # the table pays off once Horner would take more steps than Taylor
    if len(pi_ladder) > _TAYLOR_STEPS + 1:
        pi_ladder, pi_table = [], _taylor_table(pi_ladder)
    return bias, pi_ladder, pi_table, ladders[1], terms, shift


def _merge(index, amps, size: int):
    """out[i] = sum of amps[j] over index[j] == i, for i < size: one
    bincount for the real parts and one for the imaginary parts, each
    adding in input order, as np.add.at does."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, amps.real, size)
    out.imag = np.bincount(index, amps.imag, size)
    return out


def _taylor_table(ladder):
    """Taylor table of S(x) = Re sum_k c_k e^{i k pi x} for the ladder
    c_1..c_K: row d, column j holds S^(d)(x_j) h^d / d! at the M = 16K nodes
    x_j = j h, h = 2/M, of S's period 2.  Row d is
    Re sum_k c_k (i k pi h)^d / d! e^{2 pi i k j / M}, which is M/2 times
    the inverse real FFT of that half spectrum (K < M/2).  All D + 1 half
    spectra go through one batched inverse FFT, each given as its K + 1
    modes k = 0..K, which the FFT pads with zeros to M/2 + 1: the
    transient is (D + 1)(K + 1) complex values, 0.2 MB at K = 1024,
    besides the table."""
    terms = len(ladder)
    nodes = _NODES_PER_TERM * terms
    spectra = np.zeros((_TAYLOR_STEPS + 1, terms + 1), dtype=complex)
    modes = spectra[:, 1:]  # a view: k = 1..K of every order
    modes[0] = ladder
    step = 1j * (2 * np.pi / nodes) * np.arange(1, terms + 1)
    for d in range(1, _TAYLOR_STEPS + 1):
        np.multiply(modes[d - 1], step / d, out=modes[d])
    table = np.fft.irfft(spectra, nodes, axis=1)
    table *= nodes / 2
    return table


def _taylor(table, x):
    """S(x) from its Taylor table (see :func:`_taylor_table`): x is reduced
    exactly into the period, and the value is the Taylor sum at the nearest
    node in the offset t, in node spacings, |t| <= 1/2.  Runs under
    :func:`_trig_apply`'s errstate, as fmod(+-inf, 2) is NaN."""
    nodes = table.shape[1]
    u = np.fmod(x, 2.0) * (nodes / 2)
    j = np.rint(u)
    t = u - j
    # a non-finite x gives a NaN t, so a NaN value whatever its node; its
    # index is set before the cast, whose result on NaN is undefined
    j[np.isnan(j)] = 0.0
    # j is in [-M, M]: the period wraps it onto a column
    j = j.astype(np.intp) % nodes
    p = table[-1].take(j)
    for row in table[-2::-1]:
        p *= t
        p += row.take(j)
    return p


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
    bias, pi_ladder, pi_table, quarter_ladder, terms, shift = plan
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.full(flat.size, bias)
    # an infinite x gives NaN, silently, in every part: fmod(+-inf, 2) in
    # the table, exp in the ladders, sin and cos in the dense terms
    with np.errstate(invalid="ignore"):
        for lo in range(0, flat.size, TRIG_CHUNK):
            xc = flat[lo:lo + TRIG_CHUNK]
            oc = out[lo:lo + TRIG_CHUNK]
            if pi_table is not None:
                oc += _taylor(pi_table, xc)
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
    out = np.empty(flat.size)
    for lo in range(0, flat.size, TRIG_CHUNK):
        x = flat[lo:lo + TRIG_CHUNK]
        # each block in increasing order of x; a non-decreasing one (a grid,
        # quadrature nodes) is taken as it is
        order = slice(None) if (x[1:] >= x[:-1]).all() else x.argsort()
        x = x[order]
        f = layers[0].g_branch(x)
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
                f = prev + g(x)
                if h is not None:
                    f += h(prev)
            i = end
        out[lo:lo + TRIG_CHUNK][order] = f
    return out.reshape(xs.shape)


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
#
# No step takes a Python call per number.  The distinct numbers are
# formatted by one %-operation on "%.17g" repeated once per number, and each
# whole number below 1e17, which %.17g writes without a point or an
# exponent, gets ".0" from one numpy mask, so that JSON parses it as a float
# ("-0" would come back as the integer 0 and lose the sign of -0.0).  A
# layer's skeleton line depends only on the widths of its g- and h-branch,
# and is built once per such shape (a built net has at most four).

def serialize(net: FourierResNet) -> str:
    def skeleton(width):
        if width is None:
            return "null"
        arr = "[" + ", ".join(["%s"] * width) + "]"
        return '{"freqs": ' + arr + ', "a": ' + arr + ', "b": ' + arr + "}"

    values = []
    shapes = {}
    lines = ['{', f'  "depth": {net.depth},', '  "layers": [']
    for layer in net.layers:
        g, h = layer.g_branch, layer.h_branch
        values += g.freqs
        values += g.sin_amps
        values += g.cos_amps
        if h is not None:
            values += h.freqs
            values += h.sin_amps
            values += h.cos_amps
        shape = (g.width, None if h is None else h.width)
        line = shapes.get(shape)
        if line is None:
            line = '    {"g": ' + skeleton(shape[0]) + ', "h": ' + skeleton(shape[1]) + "},"
            shapes[shape] = line
        lines.append(line)
    # the last layer's line drops its comma
    lines[-1] = lines[-1][:-1]
    lines.append("  ]")
    lines.append("}")
    bits, slots = np.unique(np.array(values, dtype=float).view(np.int64), return_inverse=True)
    d = bits.view(float)
    texts = (("%.17g\0" * d.size) % tuple(d.tolist())).split("\0")
    for i in np.flatnonzero((d == np.floor(d)) & (np.abs(d) < 1e17)).tolist():
        texts[i] += ".0"
    return ("\n".join(lines) + "\n") % tuple(map(texts.__getitem__, slots.tolist()))


_NUMBER_TYPES = {int, float}


def _parse_branch(obj, where: str) -> Branch:
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: branch must be an object")
    columns = []
    for key in ("freqs", "a", "b"):
        if key not in obj or not isinstance(obj[key], list):
            raise NetworkFormatError(f"{where}: missing or invalid '{key}' array")
        # exact types: json.loads gives bool, a subclass of int, for true/false.
        # One set of the entries' types; the entries are scanned one by one
        # only to name the first offending one
        types = set(map(type, obj[key]))
        if not types <= _NUMBER_TYPES:
            v = next(v for v in obj[key] if type(v) not in _NUMBER_TYPES)
            raise NetworkFormatError(f"{where}: '{key}' entry {v!r} is not a number")
        columns.append((obj[key], int in types))
    try:
        # serialize writes floats only, taken as they are; int entries (a
        # hand-written file) are converted, so a branch holds floats
        return Branch(*(tuple(map(float, entries)) if has_int else tuple(entries)
                        for entries, has_int in columns))
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
