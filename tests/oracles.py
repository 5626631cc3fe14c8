"""Reference routes the tests check the library against.

Each recomputes a library quantity by an independent method: jet
composition instead of the Bell-matrix chain rule, a dense grid, the
sign map iterated directly instead of the network's layers, one
complex exponential per mode and node instead of an FFT over panels, every
layer applied to every point instead of only to the points still moving,
one mode at a time instead of a vectorised fold, or every number of a
network formatted in turn instead of each distinct bit pattern once.
"""

import math

import numpy as np

from fresnet import jets
from fresnet.hermite import TrigPoly, trig_deriv_eval
from fresnet.jets import Jet
from fresnet.jump import z_profile
from fresnet.network import Branch, FourierResNet
from fresnet.quadrature import build_rule, nodes_weights


def trig_eval_jet(poly: TrigPoly, u: Jet) -> Jet:
    """Compose the (real part of the) polynomial with a jet argument.

    Uses Re(c e^{i w u}) = Re(c) cos(w u) - Im(c) sin(w u) per mode, so the
    composition stays in real jet arithmetic.
    """
    acc = jets.jet_const(0.0, u.base_point, u.order)
    for c, w in zip(poly.coeffs, poly.mode_freqs):
        wu = u * w
        acc = acc + (jets.cos(wu) * c.real - jets.sin(wu) * c.imag)
    return acc


def max_abs_deriv(poly: TrigPoly, lo: float, hi: float, n: int = 4001) -> float:
    """Grid estimate of max |H'| on [lo, hi]."""
    grid = np.linspace(lo, hi, n)
    return float(np.max(np.abs(trig_deriv_eval(poly, grid, 1))))


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
