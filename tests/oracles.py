"""Reference routes the tests check the library against.

Each recomputes a library quantity by an independent method: jet
composition instead of the Bell-matrix chain rule, a dense grid, the
sign map iterated directly instead of the network's layers, one
complex exponential per mode and node instead of an FFT over panels, every
layer applied to every point instead of only to the points still moving,
one mode at a time instead of a vectorised fold, every number of a
network formatted in turn instead of each distinct bit pattern once, a
Taylor table's rows one inverse FFT at a time instead of one batched FFT,
a point reduced into the table's period by fmod and its node wrapped by an
integer modulo instead of by float arithmetic, or a branch's parts added
one by one to an array filled with its constant, the quarter-pi phase
taken as a complex exp.  The Gibbs measurements take
one approximation at a time, the support width from the outermost points
over the threshold instead of the largest |x| of all of them.  The rate
fit, which only the tests read, lives here too, and so does the reading
of a net's two Hermite solves with their endpoint data recomputed from
the target.  :func:`forget_solves` empties the memo of endpoint solves, for
tests that count or spy on a solve and so need it computed afresh.
"""

import math
from dataclasses import dataclass

import numpy as np

from fresnet import hermite, jets, network
from fresnet.jets import Jet
from fresnet.jump import h_endpoint_data, q_derivs_at, z_profile
from fresnet.metrics import DEFAULT_GRID_N
from fresnet.network import _NODES_PER_TERM, _TAYLOR_STEPS, Branch, FourierResNet
from fresnet.quadrature import build_rule, nodes_weights


def trig_eval_jet(br: Branch, u: Jet) -> Jet:
    """Compose the branch with a jet argument, a sin(w u) + b cos(w u) per
    entry, so the composition stays in real jet arithmetic."""
    acc = jets.jet_const(0.0, u.base_point, u.order)
    for w, a, b in zip(br.freqs, br.sin_amps, br.cos_amps):
        wu = u * w
        acc = acc + (jets.sin(wu) * a + jets.cos(wu) * b)
    return acc


def branch_modes(br: Branch):
    """(omegas, amps): one complex mode b - ia at frequency w per entry, so
    Re(c e^{i w t}) == a sin(w t) + b cos(w t), built without arithmetic."""
    return list(br.freqs), [complex(b, -a) for a, b in zip(br.sin_amps, br.cos_amps)]


def max_abs_deriv(br: Branch, lo: float, hi: float, n: int = 4001) -> float:
    """Grid estimate of max |H'| on [lo, hi], with
    H' = sum w (a cos(w x) - b sin(w x)) summed entry by entry."""
    grid = np.linspace(lo, hi, n)
    deriv = np.zeros_like(grid)
    for w, a, b in zip(br.freqs, br.sin_amps, br.cos_amps):
        deriv += w * (a * np.cos(w * grid) - b * np.sin(w * grid))
    return float(np.max(np.abs(deriv)))


def forget_solves() -> None:
    """Empty the memo of :func:`fresnet.hermite.hermite_endpoint`, so the
    next call on any data solves and judges it afresh and returns a new
    branch."""
    hermite._solve.cache_clear()


def held_solves(target, net: FourierResNet, m: int, k: int):
    """[(H, its endpoint data), (H_r, its endpoint data)] of a net built
    at order m and half mode count k: H is the last h-branch, H_r the last
    g-branch's entries after its 2k+1 spectral ones, and the data, rows
    at -1 and +1, are recomputed from the target as the build computes
    them."""
    h, g = net.layers[-1].h_branch, net.layers[-1].g_branch
    h_r = Branch(g.freqs[2 * k + 1:], g.sin_amps[2 * k + 1:], g.cos_amps[2 * k + 1:])
    h_data = h_endpoint_data(target.one_sided_derivs(0.0, "left", m),
                             target.one_sided_derivs(0.0, "right", m))
    r_data = [target.one_sided_derivs(-1.0, "right", m) - q_derivs_at(-1.0, "right", h, m),
              target.one_sided_derivs(1.0, "left", m) - q_derivs_at(1.0, "left", h, m)]
    return [(h, h_data), (h_r, r_data)]


def phi(y):
    """Fixed-point iteration map y + sin(pi y)/pi of the sign construction."""
    return y + np.sin(np.pi * np.asarray(y, dtype=float)) / np.pi


def jet_z(point: float, side: str, m: int) -> Jet:
    """Jet of z = sgn + sin at a one-sided point, composed in jet arithmetic."""
    step = z_profile(point, side, 0)[0] - math.sin(point)
    return jets.jet_const(step, point, m) + jets.sin(jets.jet_var(point, m))


def fourier_coeffs_dense(g, half_modes: int) -> np.ndarray:
    """(1/2) sum_j w_j g(x_j) e^{-i k pi x_j} for k = -K..K over the build
    rule's nodes, each mode formed directly.

    Evaluated one row of the (2K+1) x nodes exponential matrix at a time,
    so memory stays at O(nodes).
    """
    x, w = nodes_weights(build_rule(half_modes))
    wg = w * np.asarray(g(x), dtype=float)
    return np.array([0.5 * np.exp(-1j * np.pi * (k * x)) @ wg
                     for k in range(-half_modes, half_modes + 1)])


def taylor_table_per_order(ladder) -> np.ndarray:
    """The pi ladder's Taylor table (``network._taylor_table``) one order at
    a time: the half spectrum is multiplied by (i k pi h)/d in place and
    inverse-transformed on its own for each d = 0..D."""
    terms = len(ladder)
    nodes = _NODES_PER_TERM * terms
    spectrum = np.zeros(nodes // 2 + 1, dtype=complex)
    modes = spectrum[1:terms + 1]  # a view: k = 1..K
    modes[:] = ladder
    step = 1j * (2 * np.pi / nodes) * np.arange(1, terms + 1)
    table = np.empty((_TAYLOR_STEPS + 1, nodes))
    for d, row in enumerate(table):
        if d:
            modes *= step / d
        row[:] = np.fft.irfft(spectrum, nodes)
    table *= nodes / 2
    return table


def nearest_node_fmod(x, nodes: int):
    """(j, t) of ``network._nearest_node`` by fmod(x, 2), exact, for the
    reduction and an integer modulo for the column: u = fmod(x, 2) M/2,
    j = rint(u) mod M, t = u - rint(u)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        u = np.fmod(x, 2.0) * (nodes / 2)
    j = np.rint(u)
    t = u - j
    j[np.isnan(j)] = 0.0
    return j.astype(np.intp) % nodes, t


def taylor_fmod(table, x) -> np.ndarray:
    """The Taylor sum of ``network._taylor`` at the nodes and offsets of
    :func:`nearest_node_fmod`."""
    j, t = nearest_node_fmod(x, table.shape[1])
    p = table[-1][j]
    for row in table[-2::-1]:
        p = p * t + row[j]
    return p


def trig_sum_filled(br: Branch, x) -> np.ndarray:
    """The branch at the 1-D array x from its plan: an array filled with the
    constant, then the table (by :func:`taylor_fmod`), the quarter-pi ladder with u = exp(i pi x/4)
    and each dense term added in turn, then the 2^-shift rescale."""
    bias, pi_table, quarter_ladder, terms, shift = br._plan
    x = np.asarray(x, dtype=float)
    out = np.full(x.size, bias)
    with np.errstate(invalid="ignore"):
        if pi_table is not None:
            out += taylor_fmod(pi_table, x)
        if quarter_ladder:
            u = np.exp(1j * (np.pi / 4) * x)
            out += (u * network._horner(quarter_ladder, u * u)).real
        for w, a, b in terms:
            wx = x * w
            if not b:
                out += a * np.sin(wx)
            elif not a:
                out += b * np.cos(wx)
            else:
                out += a * np.sin(wx) + b * np.cos(wx)
    if shift:
        np.ldexp(out, -shift, out=out)
    return out


def forward_plain(net: FourierResNet, xs, upto: int = None) -> np.ndarray:
    """f_upto at every point of xs by the recursion as written: every layer
    applied to every point, f = (f + g(x)) + h(f)."""
    xs = np.asarray(xs, dtype=float)
    f = net.layers[0].g_branch(xs)
    for layer in net.layers[1:upto or net.depth]:
        prev = f
        f = prev + layer.g_branch(xs)
        if layer.h_branch is not None:
            f = f + layer.h_branch(prev)
    return f


def mode_entry(c: complex, omega: float):
    """(freq, sin_amp, cos_amp) with a sin(freq t) + b cos(freq t) ==
    Re(c e^{i omega t}) and freq >= 0, for one complex mode."""
    c = complex(c)
    if omega >= 0:
        return (omega, -c.imag, c.real)
    return (-omega, c.imag, c.real)


def frequency_multiset(net: FourierResNet):
    """Sorted list of all branch frequencies (with multiplicity)."""
    out = []
    for layer in net.layers:
        out.extend(layer.g_branch.freqs)
        if layer.h_branch is not None:
            out.extend(layer.h_branch.freqs)
    return sorted(out)


def number_text(v: float) -> str:
    """One number as the file writes it: "%.17g", and ".0" if that has
    neither a point nor an exponent."""
    s = format(float(v), ".17g")
    # keep a decimal point so JSON parses the value as a float ("-0" would
    # otherwise come back as the integer 0 and lose the sign of -0.0)
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _branch_json(br: Branch) -> str:
    def arr(vals):
        return "[" + ", ".join(number_text(v) for v in vals) + "]"

    return (
        '{"freqs": ' + arr(br.freqs)
        + ', "a": ' + arr(br.sin_amps)
        + ', "b": ' + arr(br.cos_amps) + "}"
    )


def serialize_plain(net: FourierResNet) -> str:
    """The network's ``.fnet.json`` text, every number formatted in turn."""
    lines = ['{', f'  "depth": {net.depth},', '  "layers": [']
    for i, layer in enumerate(net.layers):
        h = _branch_json(layer.h_branch) if layer.h_branch is not None else "null"
        sep = "," if i < net.depth - 1 else ""
        lines.append('    {"g": ' + _branch_json(layer.g_branch) + ', "h": ' + h + "}" + sep)
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit log(err) = slope * log(x) + intercept."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


def fit_rate(xs, errs) -> RateFit:
    """Fit log(err) vs log(x); the slope is the algebraic rate exponent."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if xs.shape != errs.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need equal-length vectors with at least 2 points")
    both = np.concatenate([xs, errs])
    if not ((both > 0) & (both < np.inf)).all():
        raise ValueError("all xs and errs must be finite and positive")
    lx, ly = np.log(xs), np.log(errs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 if total == 0 else 1.0 - float(np.sum(resid**2)) / float(total)
    return RateFit(float(slope), float(intercept), r2, xs.size)


def _gibbs_values(fn, grid, what):
    vals = np.asarray(fn(grid), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError(f"{what} has a non-finite value")
    return vals


def gibbs_grid() -> np.ndarray:
    """The Gibbs profile's grid: DEFAULT_GRID_N uniform points of [-1, 1]
    with the point 0 left out."""
    grid = np.linspace(-1.0, 1.0, DEFAULT_GRID_N)
    return np.delete(grid, DEFAULT_GRID_N // 2)


def gibbs_support_width(f, approx, threshold: float) -> float:
    """Largest |x| of the grid where |f - approx| exceeds the threshold (0 if
    nowhere): the grid is sorted, so that is the first or the last such
    point."""
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError("threshold must be finite and positive")
    grid = gibbs_grid()
    err = np.abs(_gibbs_values(f, grid, "f") - _gibbs_values(approx, grid, "approx"))
    over = np.flatnonzero(err > threshold)
    if over.size == 0:
        return 0.0
    return float(max(abs(grid[over[0]]), abs(grid[over[-1]])))


def max_overshoot(approx, lo: float, hi: float) -> float:
    """How far the approximation leaves the band [lo, hi] on the grid: the
    largest distance of a value above hi or below lo, 0 inside the band."""
    if not lo < hi:
        raise ValueError("lo must be < hi")
    vals = _gibbs_values(approx, gibbs_grid(), "approx")
    return float(max(0.0, np.max(vals - hi), np.max(lo - vals)))
