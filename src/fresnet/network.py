"""Fourier residual network data model, evaluator and serializer.

A network of depth L is the recursion

    f_1(x) = g_1(x)
    f_l(x) = f_{l-1}(x) + g_l(x) + h_l(f_{l-1}(x)),   l = 2, ..., L,

where every branch g/h is a finite trigonometric sum

    sum_k a_k sin(w_k t) + b_k cos(w_k t).

Branches are stored in real sin/cos form, one entry per underlying complex
mode, as one read-only (3, width) float64 array.  A complex amplitude c
at signed frequency w contributes Re(c e^{iwt}) and is folded onto the
nonnegative frequency |w| by :func:`branch_from_modes` (conjugating c when
w < 0).  A zero-frequency entry is a constant bias term; it is excluded
from :func:`neuron_count` so that neuron totals match the
L + W + 1 + 4(m+1) accounting of the deep piecewise construction.

Every trigonometric sum in the package is a :class:`Branch`, evaluated by
one kernel: the branch's plan, built on its first call and kept, and
:meth:`Branch.__call__`.  The kernel sums values only (H's derivatives at a
point are one small product of its modes, see
:func:`fresnet.hermite.deriv_rows`).  The plan folds each mode onto a
nonnegative frequency and merges duplicates, then sums each part by one
rule that keeps it exact to rounding:

* Modes at exact multiples k pi (the spectral modes) form the pi ladder
  c_1..c_K; the constant c_0 is added as its real part.  The ladder is
  summed from a Taylor table (after Anderson & Dahleh, SIAM J. Sci.
  Comput. 17(4), 1996): the sum has period 2, so the plan tabulates it and
  its first D = 11 derivatives at the M = 16K nodes x_j = 2j/M of one
  period by one batched inverse real FFT of D + 1 half spectra, and a
  point takes D real Horner steps in its offset from the nearest node.
  The point is reduced into the period exactly, as x - 2 trunc(x/2), and
  its node wrapped onto a column in float arithmetic: vector passes, with
  no fmod or integer modulo, which numpy runs as scalar loops.
* Modes at exact odd multiples (2j+1) pi/4 (the m+1 distinct Hermite
  frequencies of H and H_r) form the quarter-pi ladder c_0..c_m, summed
  as Re u sum_j c_j w^j by complex Horner in w = u^2, u = e^{i pi x/4};
  cos(pi x/4) and sin(pi x/4) are written straight into u's real and
  imaginary halves.
* Every other mode is a dense term (pi/2 in the first sign layer, the
  sin(x) neuron), and so is each mode of a ladder with a single nonzero
  frequency (the sign stack's h, at pi).  Dense terms are summed one
  frequency at a time, in a fixed order, computing only the sine or cosine
  whose amplitude is nonzero.

The Taylor table costs O(K log K) once per plan, and then a gather and D
real multiply-adds per point whatever K is.  The Horner ladder costs one
cosine and one sine per point and one complex multiply per mode and
point, instead of a sine and a cosine per point and mode; for a single
frequency the dense term is no dearer.  So the spectral layer costs one
table lookup and one cosine-sine pair per point, the jump layer one
cosine-sine pair, and sin(pi v)/pi, sin(pi x/2) and sin(x) one real sine
each.

A call computes only the parts its plan has, in a fixed order: table,
quarter-pi ladder, then each dense term.  The first part's own array
becomes the sum, the constant is added to it once, and each later part is
added in place, so every point gets (((c_0 + p_1) + p_2) + ...); a plan
with no part gives the constant.  A dense term is computed in place on its
own x w.  Most calls of the forward pass are sign steps on a few hundred
points or fewer, where these fixed per-call passes cost more than the
sine itself.

Horner steps multiply into a second buffer rather than in place: numpy's
in-place complex multiply rounds a length-1 array differently from a
longer one, and a point's bits must not depend on the call.  The table
lookup is real arithmetic, rounded the same whatever the array.  An input
of at most :data:`TRIG_CHUNK` points is summed in one pass over the
flattened input; a longer one chunk by chunk into a preallocated output,
so working memory is O(chunk) besides the output.  A point's bits do not
depend on where it sits in the input or on the input's shape: a point
evaluated alone, in any subset or in the full input gets the same bits.
An infinite or NaN x gives NaN in every part, without a floating-point
warning: each call sets its own error state, so it is thread-safe.

The forward pass evaluates only what still changes.  A run of consecutive
layers with an empty g-branch and equal h-branches (the width-1 sign
stack) applies the same map v -> (v + 0.0) + h(v) again and again.  That
map is a pure function of the value, so a point whose float64 bits did
not change in one step is fixed for the rest of the run, and recomputing
it changes no bit.  The run works in place on one stretch of the block,
from the first to the last point that moved in the previous step, and
shrinks it after every step; no point is gathered or scattered.  Under
phi(y) = y + sin(pi y)/pi most points reach their floating-point fixed
point within about 20 layers.  The run adds 0.0 to the block once, so it
holds no -0.0; then v + 0.0 is v bit for bit, and each step is h(v) with
v added into it, one add per step.  A run is a pure function of h, its
number of steps and the block's bits after that + 0.0, and every net of
one depth runs the same sign stack, which a sweep evaluates on the same
quadrature nodes net after net.  So h keeps the last run it computed, and
a run that repeats it copies that output instead of calling h; a new
point set costs one compare of sizes and first points and two copies.

The forward pass takes the flattened input in blocks of :data:`TRIG_CHUNK`
points, so it holds one block at a time besides the output, and runs
every layer on a block in increasing order of x: one in-place sort of
int64 keys per block, each key the point's float bits made monotone with
its index packed into as many low bits as the block's indices take (none
for a block that is already non-decreasing, such as a grid or quadrature
nodes), one take, and one scatter of the result back into the output.
A point's bits do not depend on its position, so the order changes no
bit, but neighbouring points then take the same branches of sin and cos
and touch nearby rows of the Taylor table, and, phi being monotone, the
points of the sign stack that still move form one stretch that holds few
fixed points.

Networks are immutable after construction and evaluation is pure, so all
operations are safe for concurrent use.  A branch changes only what it
caches: its plan, built on its first call, and, as the h of a run, the
memo of its last run.  The memo is one tuple of read-only copies,
replaced in one assignment and read once per run, so a concurrent run
sees either memo whole, and a run that uses it gets the bits it would
compute.

:func:`serialize` writes every number through :mod:`fresnet.numtext`,
which writes every float that fresnet writes to 17 digits, exactly as
"%.17g" % v does; the ".0" that JSON needs on a whole number is the
serializer's own rule (see the serialization notes below).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import numtext

#: Points per block in which :meth:`Branch.__call__` sums its parts and
#: the forward pass evaluates its layers, so the Horner state (16 B per
#: point) stays cache-sized.  Every point is summed in the same order
#: whatever its block, so chunking changes no bit.
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


class Branch:
    """One trigonometric branch: parallel lists of frequencies and amplitudes.

    ``entries`` holds them as one read-only (3, width) float64 array: row 0
    the frequencies, row 1 the sine amplitudes a, row 2 the cosine
    amplitudes b.  ``freqs``, ``sin_amps`` and ``cos_amps`` are those rows as
    tuples of Python floats, each built on its first read and kept; the
    library reads only the array.  The constructor takes any three
    equal-length sequences of real numbers (ints and bools read back as
    floats) and copies them; a branch is immutable, and every entry must be
    finite.  Branches are equal, and hash equal, when their entries are
    equal as numbers, so -0.0 and 0.0 entries compare equal.
    """

    #: The last run of the forward pass on this branch as its h, kept by
    #: :func:`_iterate`.
    _last_run = None

    def __init__(self, freqs, sin_amps, cos_amps):
        if not (len(freqs) == len(sin_amps) == len(cos_amps)):
            raise NetworkFormatError(
                f"mismatched lengths freqs={len(freqs)} a={len(sin_amps)} b={len(cos_amps)}"
            )
        # a copy; numbers only: with dtype=float a string would parse, so
        # the dtype is checked instead (an int beyond 64 bits is an object)
        entries = np.array((freqs, sin_amps, cos_amps))
        if entries.ndim != 2 or entries.dtype.kind not in "biuf":
            raise TypeError(f"branch entries must be flat sequences of real numbers, "
                            f"got {entries.dtype} of shape {entries.shape}")
        object.__setattr__(self, "entries", _sealed(entries.astype(float, copy=False)))

    @classmethod
    def _of(cls, entries: np.ndarray) -> Branch:
        """The branch whose entries are ``entries``, a read-only (3, width)
        float64 array with finite entries that nothing else writes."""
        branch = object.__new__(cls)
        object.__setattr__(branch, "entries", entries)
        return branch

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Branch attribute {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Branch attribute {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Branch:
            return NotImplemented
        a, b = self.entries, other.entries
        # equal bits (so equal widths: every entries array has 3 rows), else
        # equal values, which differ in bits only by the sign of a zero
        return a.tobytes() == b.tobytes() or (a.shape == b.shape and bool((a == b).all()))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, so equal branches have equal bytes
        return hash((self.entries + 0.0).tobytes())

    def __reduce__(self):
        # a copy or an unpickled branch is made by the constructor, so its
        # entries are read-only too
        return Branch, tuple(self.entries)

    def __repr__(self):
        rows = (tuple(row) for row in self.entries.tolist())
        return "Branch(freqs={!r}, sin_amps={!r}, cos_amps={!r})".format(*rows)

    @cached_property
    def freqs(self) -> tuple:
        return tuple(self.entries[0].tolist())

    @cached_property
    def sin_amps(self) -> tuple:
        return tuple(self.entries[1].tolist())

    @cached_property
    def cos_amps(self) -> tuple:
        return tuple(self.entries[2].tolist())

    @property
    def width(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def _plan(self):
        return _trig_plan(*_branch_modes(self))

    @np.errstate(invalid="ignore")
    def __call__(self, t):
        """Evaluate the branch at scalar or array input."""
        # an infinite t gives NaN, silently, in every part: inf - inf in the
        # table's reduction, cos and sin in the quarter-pi ladder and the dense
        # terms.  The decorator sets the error state per call, so a call is
        # thread-safe and the caller's state is back when it returns
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        if flat.size <= TRIG_CHUNK:
            out = _trig_sum(self._plan, flat)
        else:
            out = np.empty(flat.size)
            for lo in range(0, flat.size, TRIG_CHUNK):
                out[lo:lo + TRIG_CHUNK] = _trig_sum(self._plan, flat[lo:lo + TRIG_CHUNK])
        return out[0] if t.ndim == 0 else out.reshape(t.shape)


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


def _sealed(entries: np.ndarray) -> np.ndarray:
    """A view of the new array ``entries``, which is made read-only, if its
    entries are all finite.  A view of a read-only array cannot be made
    writeable again."""
    if not np.isfinite(entries).all():
        raise NetworkFormatError("branch parameters must be finite")
    entries.flags.writeable = False
    return entries.view()


def _branch_modes(branch: Branch):
    """(freqs, amps): one complex mode per entry, amplitude b - ia, since
    a sin(wt) + b cos(wt) == Re((b - ia) e^{iwt}).  Built without
    arithmetic, so :func:`branch_from_modes` gives back the entries bit for
    bit, signed zeros included.  The frequencies are a read-only view of
    the branch's entries."""
    freqs, sin_amps, cos_amps = branch.entries
    amps = cos_amps.astype(complex)
    amps.imag = np.negative(sin_amps)
    return freqs, amps


def _trig_plan(omegas, amps):
    """Fold a branch's modes onto nonnegative, distinct frequencies and
    split them into the constant, the pi ladder's Taylor table, the
    quarter-pi ladder and the dense terms (see the module docstring), with
    the power of two (see :data:`TINY_EXP`) by which all are scaled."""
    # Re(c e^{-iwx}) == Re(conj(c) e^{iwx})
    amps = np.where(omegas < 0, amps.conj(), amps)
    omegas = np.abs(omegas)
    # grid[q] sums the modes at exactly q pi/4, up to 2d pi for d merged
    # nonzero modes: the Taylor table holds 16 nodes per multiple of pi, and
    # Horner takes one step per odd multiple of pi/4, so a ladder's time and
    # memory grow with its top multiple.  Capped at 2d pi, they stay O(d)
    # per point and per plan; higher multiples (the builder makes none; a
    # loaded file may) are cheaper as dense terms.  d <= n entries, so no
    # multiple above 2n pi enters the grid at all
    quarters = np.rint(omegas / (np.pi / 4))
    on = (quarters * (np.pi / 4) == omegas) & (quarters <= 8 * omegas.size)
    q = quarters[on].astype(int)
    # np.add.at adds the modes at one frequency in input order
    grid = np.zeros(q.max(initial=-1) + 1, dtype=complex)
    np.add.at(grid, q, amps[on])
    off, off_amps = (), np.zeros(0, dtype=complex)
    if q.size < omegas.size:
        off, where = np.unique(omegas[~on], return_inverse=True)
        off_amps = np.zeros(off.size, dtype=complex)
        np.add.at(off_amps, where, amps[~on])
    # the scale follows the merged amplitudes, so a branch and the branch of
    # its merged modes get one plan.  A power of two is exact, also on a
    # subnormal, so the scaled sums are the sums of the scaled modes
    top = max(np.abs(grid).max(initial=0.0), np.abs(off_amps).max(initial=0.0))
    shift = TINY_SHIFT if 0 < top < 2.0 ** -TINY_EXP else 0
    if shift:
        for part in (grid.real, grid.imag, off_amps.real, off_amps.imag):
            np.ldexp(part, shift, out=part)
    rest = grid != 0
    live = np.count_nonzero(rest) + np.count_nonzero(off_amps)
    cap = 8 * live
    if grid.size > cap + 1:
        # the multiples above the cap join the off-grid modes, in one
        # frequency order
        above = rest[cap + 1:].nonzero()[0] + cap + 1
        off = np.concatenate([above * (np.pi / 4), off])
        off_amps = np.concatenate([grid[above], off_amps])
        order = off.argsort(kind="stable")
        off, off_amps = off[order], off_amps[order]
        grid, rest = grid[:cap + 1], rest[:cap + 1]
    # q = 0 is the constant, added as its real part; the pi ladder holds
    # q = 4k at index k - 1, the quarter-pi ladder q = 2j + 1 at index j,
    # and q = 4k + 2 (pi/2 in the first sign layer) is always dense
    bias = grid[0].real if grid.size else 0.0
    rest[:1] = False
    ladders = []
    for start, step in ((4, 4), (1, 2)):
        nonzero = rest[start::step].nonzero()[0]
        # a single frequency costs a sine and a cosine at most, no more
        # than a table lookup or a complex exp
        if nonzero.size < 2:
            ladders.append([])
            continue
        ladders.append(grid[start:start + step * nonzero[-1] + 1:step].tolist())
        rest[start::step] = False
    qs = rest.nonzero()[0]
    freqs, merged = qs * (np.pi / 4), grid[qs]
    if len(off):
        freqs, merged = np.concatenate([freqs, off]), np.concatenate([merged, off_amps])
    # a sin(wx) + b cos(wx) == Re((b - ia) e^{iwx}); a term with a = b = 0
    # is dropped, and one with a or b zero computes only the other's trig
    terms = [(w, a, b) for w, a, b in zip(freqs.tolist(), (-merged.imag).tolist(),
                                          merged.real.tolist()) if a or b]
    pi_ladder, quarter_ladder = ladders
    pi_table = _taylor_table(pi_ladder) if pi_ladder else None
    return bias, pi_table, quarter_ladder, terms, shift


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
    # row d - 1: the factor i k pi h / d from order d - 1 to order d
    steps = (1j * (2 * np.pi / nodes) * np.arange(1, terms + 1)
             / np.arange(1, _TAYLOR_STEPS + 1)[:, None])
    for d in range(1, _TAYLOR_STEPS + 1):
        np.multiply(modes[d - 1], steps[d - 1], out=modes[d])
    table = np.fft.irfft(spectra, nodes, axis=1)
    table *= nodes / 2
    return table


def _taylor(table, x):
    """S(x) from its Taylor table (see :func:`_taylor_table`): the Taylor
    sum at the nearest node in the offset t (see :func:`_nearest_node`).
    Runs under :meth:`Branch.__call__`'s errstate, as inf - inf is NaN."""
    j, t = _nearest_node(x, table.shape[1])
    p = table[-1].take(j)
    for row in table[-2::-1]:
        p *= t
        p += row.take(j)
    return p


def _nearest_node(x, nodes: int):
    """(j, t): the column j of x's nearest node x_j = 2j/M, M = ``nodes``,
    on S's period 2, and the offset t from it in node spacings, |t| <= 1/2.

    x is reduced exactly: x/2 and its trunc are exact, so r = x - 2 trunc(x/2)
    is fmod(x, 2), which is representable, but for the sign of a zero r.
    t = u - rint(u), u = r M/2, loses that sign: it is +0 at a node either
    way.  rint(u) lies in [-M, M] and is wrapped onto a column by
    k - M floor(k/M), exact there.  A non-finite x gives a NaN t (inf - inf
    or NaN) and column 0; no step is a scalar loop."""
    u = x * 0.5
    np.trunc(u, out=u)
    u *= -2.0
    u += x
    u *= nodes / 2
    k = np.rint(u)
    t = u
    t -= k
    # set before the cast, whose result on NaN is undefined
    k[np.isnan(k)] = 0.0
    wraps = k / nodes
    np.floor(wraps, out=wraps)
    wraps *= nodes
    k -= wraps
    return k.astype(np.intp), t


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


def _trig_sum(plan, x):
    """The plan's sum at the 1-D array x of at most :data:`TRIG_CHUNK`
    points, as a new array.  Only the parts the plan has are computed, and
    they are added in a fixed order: table, quarter-pi ladder, then each
    dense term.  The first part's own array is the sum, and the constant is
    added to it once, so every point gets (((c_0 + p_1) + p_2) + ...),
    scaled back by the plan's power of two last; a plan with no part gives
    the constant."""
    bias, pi_table, quarter_ladder, terms, shift = plan
    out = None
    if pi_table is not None:
        out = _taylor(pi_table, x)
        out += bias
    if quarter_ladder:
        # u = e^{i pi x/4}, its halves written in place from one phase,
        # which is freed before Horner so no real buffer is held through it
        u = np.empty(x.size, dtype=complex)
        phase = x * (np.pi / 4)
        np.cos(phase, out=u.real)
        np.sin(phase, out=u.imag)
        del phase
        part = (u * _horner(quarter_ladder, u * u)).real
        if out is None:
            out = part + bias
        else:
            out += part
    # one frequency at a time, so a point's sum has a fixed order
    # (a matrix-vector product's order depends on the row's position)
    for w, a, b in terms:
        part = x * w
        if not b:
            np.sin(part, out=part)
            part *= a
        elif not a:
            np.cos(part, out=part)
            part *= b
        else:
            cos = np.cos(part)
            cos *= b
            np.sin(part, out=part)
            part *= a
            part += cos
        if out is None:
            out = part
            out += bias
        else:
            out += part
    if out is None:
        out = np.full(x.size, bias)
    if shift:
        np.ldexp(out, -shift, out=out)
    return out


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
    # a = -Im c, which conj(c) turns into Im c; b = Re c either way
    entries = np.array([np.where(negative, -omegas, omegas),
                        np.where(negative, coeffs.imag, -coeffs.imag), coeffs.real])
    return Branch._of(_sealed(entries))


def eval_prefix(net: FourierResNet, x, ell: int):
    """Output of the first ``ell`` layers, f_ell(x)."""
    # bool is an Integral, but True is no layer index
    if isinstance(ell, bool) or not isinstance(ell, numbers.Integral):
        raise TypeError(f"layer index must be an integer, got {ell!r}")
    if not 1 <= ell <= net.depth:
        raise IndexError(f"layer index {ell} out of range 1..{net.depth}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    f = _forward(net, np.atleast_1d(x), ell)
    return float(f[0]) if scalar else f


def _forward(net: FourierResNet, xs: np.ndarray, upto: int) -> np.ndarray:
    """f_upto at every point of xs, in blocks of :data:`TRIG_CHUNK` points
    of the flattened input: each block is taken into increasing order (by
    :func:`_ascending`, unless it is already non-decreasing), run through
    the layers, a run of sign layers by :func:`_iterate`, and scattered
    back into the output."""
    layers = net.layers[:upto]
    flat = xs.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, TRIG_CHUNK):
        x = flat[lo:lo + TRIG_CHUNK]
        # each block in increasing order of x; a non-decreasing one (a grid,
        # quadrature nodes) is taken as it is
        order = slice(None) if (x[1:] >= x[:-1]).all() else _ascending(x)
        x = x[order]
        f = layers[0].g_branch(x)
        i = 1
        while i < len(layers):
            g, h = layers[i].g_branch, layers[i].h_branch
            end = i + 1
            if g.width == 0 and h is not None:
                # built nets share one h object; a loaded one has equal copies
                while (end < len(layers) and layers[end].g_branch.width == 0
                       and (layers[end].h_branch is h or layers[end].h_branch == h)):
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


def _ascending(x: np.ndarray) -> np.ndarray:
    """The permutation that takes the block x into increasing order, by
    one in-place sort of int64 keys.

    A key is x's float64 bits made monotone (a negative x has every bit
    but its sign flipped, so -0.0 sorts just below +0.0, -NaN first and
    +NaN last) with its low bits, as many as an index into x takes,
    replaced by the point's index, which the sort carries along: after it,
    the low bits are the permutation.  Points fewer than 2^b ulps apart,
    b those index bits, may come out in either order, which changes no
    bit: the order only sets the speed."""
    mask = (1 << (x.size - 1).bit_length()) - 1
    bits = x.view(np.int64)
    # -1 where the sign bit is set, else 0; flips the bits below the sign
    # and above the index of a negative x
    key = bits >> 63
    key &= 0x7FFF_FFFF_FFFF_FFFF & ~mask
    key ^= bits & ~mask
    key |= np.arange(x.size)
    key.sort()
    key &= mask
    return key


def _iterate(h: Branch, f: np.ndarray, steps: int) -> np.ndarray:
    """Apply v -> (v + 0.0) + h(v) ``steps`` times to the 1-D array f, in
    place, each step on the stretch f[lo:hi] from the first to the last
    point whose bits the previous step changed.

    f += 0.0 once leaves no -0.0 in f, so v + 0.0 is v bit for bit and a
    step is h(v), then v added into it: one add per step.  h(-0.0) has the
    bits of h(+0.0), so the first step is unchanged too.  A point that did
    not move is a fixed point of the step, so recomputing one inside the
    stretch changes no bit; on a sorted f the stretch holds little more
    than the moved points, since phi is monotone.

    The run is a pure function of h, ``steps`` and f's bits after the
    + 0.0, so h keeps the last run it computed as ``(steps, input bits,
    output)``, read-only copies that are never handed out, and a run that
    repeats it copies the output into f without calling h: every net of
    one depth runs the same sign stack on the same quadrature nodes.  The
    memo is one tuple, replaced in one assignment, so concurrent runs on
    one h each see a whole memo; it holds one block, the last."""
    f += 0.0
    if not f.size:
        return f
    memo = h._last_run
    start = f.view(np.int64)
    # size, then the first point, then all: a new point set fails early
    if (memo is not None and memo[0] == steps and memo[1].size == start.size
            and memo[1][0] == start[0] and (memo[1] == start).all()):
        f[...] = memo[2]
        return f
    start = start.copy()
    lo, hi = 0, f.size
    for _ in range(steps):
        v = f[lo:hi]
        new = h(v)
        # v first: a NaN point keeps its own payload
        np.add(v, new, out=new)
        # bit patterns, not values: NaN != NaN would keep a NaN point moving
        moved = new.view(np.int64) != v.view(np.int64)
        first = moved.argmax()
        if not moved[first]:
            break
        last = moved.size - moved[::-1].argmax()
        lo, hi = lo + first, lo + last
        f[lo:hi] = new[first:last]
    end = f.copy()
    start.flags.writeable = end.flags.writeable = False
    object.__setattr__(h, "_last_run", (steps, start, end))
    return f


def eval_grid(net: FourierResNet, xs) -> np.ndarray:
    """f_L at every point of ``xs``.

    A net is defined at every x, but its accuracy is claimed only on
    [-1, 1], where its target lives: outside, it is an extension with no
    claim (a pw_smooth net at m = 4, K = 64, L = 30 gives 0.918 at x = 1.5
    and 1.628 at x = 3).  NaN and +-inf give NaN, with no warning."""
    return _forward(net, np.asarray(xs, dtype=float), net.depth)


def neuron_count(net: FourierResNet) -> int:
    """Total neurons: branch entries with nonzero frequency.

    Zero-frequency entries are constant biases (cos(0) = 1) and are not
    counted, keeping the total equal to the complex-mode count of the
    underlying construction.
    """
    return np.count_nonzero(np.concatenate(
        [br.entries[0] for layer in net.layers for br in (layer.g_branch, layer.h_branch)
         if br is not None]))


# -- serialization --------------------------------------------------------
#
# Format: UTF-8 JSON, schema
#   {"depth": int, "layers": [{"g": {"freqs": [...], "a": [...], "b": [...]},
#                              "h": {...} | null}, ...]}
# Numbers are written as "%.17g" writes them (:mod:`fresnet.numtext`): 17
# significant digits, which round-trip IEEE binary64 exactly, and ".0" after
# a whole number, which JSON must read as a float ("-0" would come back as
# the integer 0 and lose the sign of -0.0).
#
# About half the numbers of a built network repeat an earlier one bit for
# bit (each +-k pair of the spectral layer folds to the same entry, and
# every sign layer holds the same h-branch), so serialize writes each
# distinct float64 bit pattern once.  Numbers are told apart by their bits,
# not their values: -0.0 == 0.0, but one is written "-0.0", the other
# "0.0".  The whole document is built as bytes, with no Python string per
# number:
#
# * :func:`fresnet.numtext.rows` writes each distinct number as one row of
#   26 bytes: its text, then NUL pads.  A whole number's text (a sign and at
#   most 17 digits) never reaches the two pads before the row's last two,
#   so a row that holds neither a point nor an "e" gets ".0" there, and
#   every row ", " in its last two bytes.  Those rows are the whole numbers
#   below 1e17 in magnitude, found from the numbers, which is cheaper than
#   scanning the rows: "%.17g" writes a number below 1e17 in fixed point,
#   and its 17-digit rounding is whole only if the number is (a fraction
#   of a double is at least 2^-53 of it, the rounding below 10^-16 of it).
# * np.unique's inverse takes the rows into file order, and the separator of
#   each array's last row becomes "\n" and a pad.
# * One bytes.translate deletes the pads, and one decode and one split give
#   one string per array (three per nonempty branch, 189 for a built net
#   at L = 60).
# * Those fill a skeleton with one %s per nonempty array; an empty array
#   is written "[]" by the skeleton.  A layer's skeleton line depends only on
#   the widths of its g- and h-branch, and is built once per such shape (a
#   built net has at most four); the last layer's line drops its comma.
#
# The bytes are those of formatting every number in turn.  At K = 1024
# (6,390 numbers, 3,122 distinct) the rows cost about 0.13 us per distinct
# number, and the gather, translate, decode, split and fill about 0.04 us
# per number of the file; np.unique is most of the rest.  The numbers
# come from one np.concatenate of the branches' entries arrays, with no
# Python float per number.

#: The bytes a whole number's row gets before its separator (see the
#: serialization notes above).
_POINT_ZERO = np.frombuffer(b".0", dtype=np.uint8)


def serialize(net: FourierResNet) -> str:
    def skeleton(width):
        if width is None:
            return "null"
        arr = "[%s]" if width else "[]"
        return '{"freqs": ' + arr + ', "a": ' + arr + ', "b": ' + arr + "}"

    # each nonempty branch's entries, freqs then a then b, in file order,
    # after an empty array, so that a net of empty branches joins to none
    values = [np.empty(0)]
    # the length of each nonempty array, in file order
    lengths = []
    shapes = {}
    lines = ['{', f'  "depth": {net.depth},', '  "layers": [']
    for layer in net.layers:
        g, h = layer.g_branch, layer.h_branch
        for branch in (g, h):
            if branch is not None and branch.width:
                values.append(branch.entries.ravel())
                lengths += (branch.width,) * 3
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
    bits, slots = np.unique(np.concatenate(values).view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    rows = numtext.rows(distinct)
    # the rows that hold neither a point nor an "e" (see the notes above)
    whole = (distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e17)
    rows[whole, -4:-2] = _POINT_ZERO
    rows[:, -2] = ord(",")
    rows[:, -1] = ord(" ")
    rows = rows.take(slots, axis=0)
    # each array's last number ends in a newline and a pad, not ", "
    rows[np.cumsum(lengths, dtype=np.intp) - 1, -2:] = (ord("\n"), 0)
    texts = rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    texts.pop()
    return ("\n".join(lines) + "\n") % tuple(texts)


_NUMBER_TYPES = {int, float}


def _refuse_unknown_keys(obj: dict, known: tuple, where: str) -> None:
    """Refuse the first key of ``obj`` outside ``known``: serialize writes
    none, so such a key is a misspelt or foreign field, not one to drop."""
    for key in obj:
        if key not in known:
            raise NetworkFormatError(f"{where}: unknown key {key!r}")


def _parse_branch(obj, where: str, numbers: list) -> int:
    """Check the branch object ``obj`` and append its entries, freqs then a
    then b, to ``numbers`` as Python floats; returns its width."""
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: branch must be an object")
    _refuse_unknown_keys(obj, ("freqs", "a", "b"), where)
    columns = []
    for key in ("freqs", "a", "b"):
        if key not in obj or not isinstance(obj[key], list):
            raise NetworkFormatError(f"{where}: missing or invalid '{key}' array")
        # exact types: json.loads gives bool, a subclass of int, for true/false.
        # One set of the entries' types; the entries are scanned one by one
        # only to name the first offending one
        column = obj[key]
        types = set(map(type, column))
        if not types <= _NUMBER_TYPES:
            v = next(v for v in column if type(v) not in _NUMBER_TYPES)
            raise NetworkFormatError(f"{where}: '{key}' entry {v!r} is not a number")
        if int in types:
            # serialize writes floats only; int entries (a hand-written
            # file) are converted here, where an int too large for a float
            # can be named
            try:
                column = list(map(float, column))
            except OverflowError as exc:
                raise NetworkFormatError(f"{where}: {exc}") from exc
        columns.append(column)
    width = len(columns[0])
    if not width == len(columns[1]) == len(columns[2]):
        raise NetworkFormatError(f"{where}: mismatched lengths freqs={width} "
                                 f"a={len(columns[1])} b={len(columns[2])}")
    for column in columns:
        numbers += column
    return width


def deserialize(text: str) -> FourierResNet:
    """The network of a serialized document.

    The structure and the type of every entry are checked branch by branch,
    in document order, and a key that :func:`serialize` does not write is
    refused at every level (the document, a layer, a branch); then all
    entries are converted to float64 at once and checked finite, and each
    branch's entries are a (3, width) view of that one read-only array."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise NetworkFormatError("document must be an object with a 'layers' array")
    _refuse_unknown_keys(doc, ("depth", "layers"), "document")
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
    numbers = []
    # the widths of each layer's g- and h-branch, None for no h-branch
    widths = []
    for i, layer_doc in enumerate(layers_doc, start=1):
        if not isinstance(layer_doc, dict) or "g" not in layer_doc:
            raise NetworkFormatError(f"layer {i}: must be an object with a 'g' branch")
        _refuse_unknown_keys(layer_doc, ("g", "h"), f"layer {i}")
        g = _parse_branch(layer_doc["g"], f"layer {i} g-branch", numbers)
        h_doc = layer_doc.get("h")
        h = None if h_doc is None else _parse_branch(h_doc, f"layer {i} h-branch", numbers)
        widths.append((g, h))
    entries = np.array(numbers, dtype=float)
    finite = np.isfinite(entries).all()
    # every view of a read-only array is read-only
    entries.flags.writeable = False
    layers = []
    lo = 0
    for i, pair in enumerate(widths, start=1):
        g_h = []
        for kind, width in zip("gh", pair):
            if width is None:
                g_h.append(None)
                continue
            view = entries[lo:lo + 3 * width].reshape(3, width)
            lo += 3 * width
            # only when some entry is not finite, to name its branch
            if not finite and not np.isfinite(view).all():
                raise NetworkFormatError(
                    f"layer {i} {kind}-branch: branch parameters must be finite")
            g_h.append(Branch._of(view))
        layers.append(Layer(*g_h))
    return FourierResNet(tuple(layers))


def save(net: FourierResNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path) -> FourierResNet:
    with open(path, encoding="utf-8") as fh:
        return deserialize(fh.read())
