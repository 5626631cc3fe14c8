"""Reference routes the tests check the library against.

Each recomputes a library quantity by an independent method: jet
composition instead of the Bell-matrix chain rule, a dense grid, the
sign map iterated directly instead of the network's layers, one
complex exponential per mode and node instead of an FFT over panels, every
layer applied to every point instead of only to the points still moving,
one mode at a time instead of a vectorised fold, every number of a
network formatted in turn instead of each distinct bit pattern once, or a
Taylor table's rows one inverse FFT at a time instead of one batched FFT.
"""

import math

import numpy as np

from fresnet import jets
from fresnet.jets import Jet
from fresnet.jump import z_profile
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
