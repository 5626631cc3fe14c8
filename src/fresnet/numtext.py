"""Number text: every float fresnet writes to 17 digits, as ``"%.17g" % v``.

Seventeen significant digits give back every IEEE binary64 bit on reading.
:func:`texts` is the definition, ``"%.17g" % v`` per number, and
:func:`rows` its vector form, which gives the same bytes and falls back
to :func:`texts` for the numbers it cannot settle.
:func:`fresnet.network.serialize` writes a network's numbers through
:func:`rows`, and the CLI writes its CSV through :func:`write_csv` (whole
columns) and :func:`texts` (the few numbers of an experiment row).  The
CLI's ``wall_ms`` column and its SVG coordinates are not 17-digit numbers
and are written outside this module.  JSON's ``.0`` on a whole number is
:func:`~fresnet.network.serialize`'s own rule, not this module's.

:func:`rows` gets the text of "%.17g" from vector passes.  "%.17g" writes
round(|v| 10^(16-e)), the 17-digit integer of |v|, with e its decimal
exponent, rounding a tie to even (Gay, "Correctly Rounded Binary-Decimal
and Decimal-Binary Conversions", 1990).  The kernel takes e from log10,
corrected by one where the product below falls outside [10^16, 10^17),
and forms |v| 10^(16-e) as the unevaluated sum p + r of two doubles:
Dekker's exact two-product ("A floating-point technique for extending the
available precision", 1971) of |v| with the double nearest 10^(16-e),
Veltkamp-split by 2^27 + 1 since numpy has no fused multiply-add, plus |v|
times the double nearest the rest of 10^(16-e).  Both doubles come from
exact Python integers, so p + r is within about 1e-14 of the exact
product, below 10^17.  p is a whole number above 2^53, so the fraction of
the product is r - floor(r), and the 17-digit integer is p + floor(r),
plus one where that fraction is above 1/2, computed in int64.

Any number the product cannot settle is written by :func:`texts` into
its row: a fraction within 1e-9 of 1/2 (an exact tie is always among
them, so only CPython decides a tie), a product that still reads outside
[10^16, 10^17) after its correction (an exact power of ten may, such as
1e20), +-0, and |v| outside [1e-280, 1e280], where a split or a product
could overflow or lose bits below the normal range.  Of a built network's
nonzero numbers none falls back.

The rows are laid out by one take: each number's source row holds its
sign, its 17 digits (from a table of 4-digit groups), its exponent bytes
and the constant bytes, and a table of byte patterns, one per exponent
class (-4..16, else exponential) and count of significant digits, picks
them, with pads where a sign, a point or a third exponent digit is absent.
Its tables take about 0.7 ms to build, once per process.

The kernel holds about 316 B per number at its peak, so :func:`write_csv`
formats and writes a table in blocks of :data:`CSV_BLOCK` numbers: writing
a 1e6-line, two-column table peaks at about 11 MB under tracemalloc,
against 618 MB in one block.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

#: Bytes of a text row of :func:`rows`: a text takes at most 24 (a sign,
#: 17 digits, a point and a four-byte exponent such as "e-308"), and the
#: last two are pads in every row, where a caller writes its separator.
WIDTH = 26
#: Numbers per block in which :func:`write_csv` formats and writes a table.
CSV_BLOCK = 32768

#: The magnitudes that :func:`rows` writes by its own arithmetic; any other
#: number falls back to :func:`texts` (see the module docstring).
_G17_MIN, _G17_MAX = 1e-280, 1e280
#: Its tables cover the decimal exponents -_G17_E.._G17_E: those of every
#: |v| in [_G17_MIN, _G17_MAX], each with its one correction, while
#: 10^(16 + _G17_E) times _SPLIT stays below the overflow threshold.
_G17_E = 284
#: Veltkamp's split constant for binary64: a double splits into two halves
#: of at most 26 significant bits, whose products are exact.
_SPLIT = 2.0 ** 27 + 1
#: Bytes of a source row of :func:`rows`.
_SOURCE_ROW = 32
#: A negative number's source row's first four bytes, a pad, the sign and
#: two pads; every source row's last four, ".0e" and a pad.
_MINUS_WORD = np.frombuffer(b"\0-\0\0", dtype=np.uint32)[0]
_TAIL_WORD = np.frombuffer(b".0e\0", dtype=np.uint32)[0]


@cache
def _g17_tables():
    """The read-only tables of :func:`rows`.

    For e in [-_G17_E, _G17_E]: ``hi`` the double nearest 10^s, s = 16 - e,
    its Veltkamp halves ``hi1`` and ``hi2``, ``lo`` the double nearest
    10^s - hi, and ``exps`` the four bytes of "%e"'s exponent (sign,
    hundreds or a pad byte, tens, units) as one uint32.  ``groups`` holds
    the four digit bytes of 0..9999 as one uint32, and ``patterns`` the
    offsets, within a source row of :func:`rows`, of the bytes of the text
    row of each exponent class (-4..16, then exponential) and count
    n = 1..17 of significant digits, in row class * 17 + n - 1: the sign,
    the text, then offset 0 (a pad byte) to the row's end."""
    powers = [1]
    for _ in range(16 + _G17_E):
        powers.append(powers[-1] * 10)
    hi, lo = [], []
    for power in reversed(powers):
        h = float(power)
        hi.append(h)
        lo.append(float(power - int(h)))
    for power in powers[1:_G17_E - 16 + 1]:
        # 10^-k: int true division rounds correctly, so h = 1/10^k, and with
        # h = num/2^t, 10^-k - h = (2^t - num 10^k) / 10^k * 2^-t exactly
        h = 1 / power
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append(math.ldexp((den - num * power) / power, 1 - den.bit_length()))
    hi = np.array(hi)
    c = hi * _SPLIT
    hi1 = c - (c - hi)
    e = np.arange(-_G17_E, _G17_E + 1)
    exps = np.empty((e.size, 4), dtype=np.uint8)
    exps[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    e = abs(e)
    exps[:, 1] = np.where(e >= 100, e // 100 + 48, 0)
    exps[:, 2] = e // 10 % 10 + 48
    exps[:, 3] = e % 10 + 48
    # groups[i, j, k, l] = the bytes of "ijkl"
    groups = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    for place in range(4):
        groups[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    # a source row: 0 pad, 1 sign, 2-3 pads, 4-23 the digit groups (the 17
    # digits at 7-23), 24-27 the exponent, 28-30 ".0e", 31 a pad
    point, zero, exp_e = (bytes((offset,)) for offset in range(28, 31))
    exponent = bytes(range(24, 28))
    patterns = bytearray()
    for cls in range(22):
        x = cls - 4  # the exponent of a fixed-point class
        for n in range(1, 18):
            d = bytes(range(7, 7 + n))
            if cls == 21:
                text = d[:1] + (point + d[1:] if n > 1 else b"") + exp_e + exponent
            elif x < 0:
                text = zero + point + zero * (-x - 1) + d
            elif n <= x + 1:
                text = d + zero * (x + 1 - n)
            else:
                text = d[:x + 1] + point + d[x + 1:]
            patterns += b"\1" + text + bytes(WIDTH - 1 - len(text))
    patterns = np.frombuffer(patterns, dtype=np.uint8).reshape(22 * 17, -1).astype(np.intp)
    tables = (hi, hi1, hi - hi1, np.array(lo), exps.view(np.uint32).ravel(),
              groups.view(np.uint32).ravel(), patterns)
    for t in tables:
        t.flags.writeable = False
    return tables


def _product17(a, e):
    """(p, r): |a| 10^(16-e) as p + r, for a in [_G17_MIN, _G17_MAX] and e
    in the tables' range, with p the rounded product (Dekker's two-product
    of a and 10^(16-e)'s nearest double, plus a times the rest's)."""
    hi, hi1, hi2, lo = _g17_tables()[:4]
    i = e + _G17_E
    h, h1, h2 = hi[i], hi1[i], hi2[i]
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    p = a * h
    r = a1 * h1
    r -= p
    r += a1 * h2
    r += a2 * h1
    r += a2 * h2
    r += a * lo[i]
    return p, r


def _digits17(values):
    """(digits, e, settled) for the 1-D float64 array ``values``: the int64
    digits = round(|v| 10^(16-e)) in [10^16, 10^17) and the decimal exponent
    e of |v| rounded to 17 significant digits, as "%.17g" has them, wherever
    ``settled``; elsewhere the product cannot decide them, and the digits
    and e are meaningless (see the module docstring)."""
    a = np.abs(values)
    settled = (a >= _G17_MIN) & (a <= _G17_MAX)
    a[~settled] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p, r = _product17(a, e)
    # p - 10^16 and p - 10^17 are exact where p is near them, and far from
    # them the sign of p + r - 10^k is that of p - 10^k; so each test has
    # the sign of the exact difference
    low = (p - 1e16) + r < 0
    high = (p - 1e17) + r >= 0
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.intp) - low[fix]
        p[fix], r[fix] = _product17(a[fix], e[fix])
        # log10 is never off by two; a product on a boundary may still
        # read outside it, and that number falls back
        out = ((p[fix] - 1e16) + r[fix] < 0) | ((p[fix] - 1e17) + r[fix] >= 0)
        settled[fix[out]] = False
    floor = np.floor(r)
    frac = r - floor
    settled &= np.abs(frac - 0.5) > 1e-9
    digits = p.astype(np.int64)
    digits += floor.astype(np.int64)
    digits += frac > 0.5
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry
    return digits, e, settled


def rows(values) -> np.ndarray:
    """The text of each number of the 1-D float64 array ``values`` as one
    writable uint8 row of :data:`WIDTH` bytes: "%.17g" % v, bit for bit,
    and NUL pads, the last two bytes among them (see the module
    docstring)."""
    exps, groups, patterns = _g17_tables()[4:]
    digits, e, settled = _digits17(values)
    n = values.size
    # each source row as eight uint32 words: sign, five digit groups,
    # exponent and the constant bytes (see _g17_tables)
    source = np.empty((n, _SOURCE_ROW // 4), dtype=np.uint32)
    source[:, 0] = np.where(np.signbit(values), _MINUS_WORD, 0)
    rest = digits
    for col in range(5, 1, -1):
        rest, group = np.divmod(rest, 10000)
        source[:, col] = groups.take(group)
    source[:, 1] = groups.take(rest)
    source[:, 6] = exps.take(e + _G17_E)
    source[:, 7] = _TAIL_WORD
    source = source.view(np.uint8)
    significant = 17 - (source[:, 23:6:-1] != ord("0")).argmax(axis=1)
    cls = np.where((e >= -4) & (e <= 16), e + 4, 21)
    index = patterns.take(cls * 17 + significant - 1, axis=0)
    index += np.arange(0, n * _SOURCE_ROW, _SOURCE_ROW)[:, None]
    out = source.ravel().take(index)
    fallback = np.flatnonzero(~settled)
    if fallback.size:
        text = np.array(texts(values[fallback]), dtype=f"S{WIDTH}")
        out[fallback] = text.view(np.uint8).reshape(-1, WIDTH)
    return out


def texts(values) -> list:
    """["%.17g" % v for v in values], for a sequence of real numbers: the
    definition of the text that :func:`rows` and :func:`write_csv` write."""
    return ["%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def write_csv(fh, columns) -> None:
    """Write the equal-length 1-D columns of real numbers to the binary
    file ``fh`` as CSV lines, one per index: the numbers' "%.17g" texts
    joined by "," and ended by "\\n".  The table is formatted and written
    in blocks of :data:`CSV_BLOCK` numbers (at least one line each)."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    shapes = [c.shape for c in columns]
    if any(len(shape) != 1 or shape != shapes[0] for shape in shapes):
        raise ValueError(f"CSV columns must be 1-D and of one length, got shapes {shapes}")
    step = max(1, CSV_BLOCK // len(columns))
    for lo in range(0, columns[0].size, step):
        block = np.stack([c[lo:lo + step] for c in columns], axis=1)
        out = rows(block.ravel()).reshape(block.shape + (WIDTH,))
        out[..., -1] = ord(",")
        out[:, -1, -1] = ord("\n")
        fh.write(out.tobytes().translate(None, b"\0"))
