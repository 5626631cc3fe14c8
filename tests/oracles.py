"""Reference routes the tests check the library against.

Each recomputes a library quantity by an independent method: jet
composition instead of the Bell-matrix chain rule, a dense grid, or the
sign map iterated directly instead of the network's layers.
"""

import math

import numpy as np

from fresnet import jets
from fresnet.hermite import TrigPoly, trig_deriv_eval
from fresnet.jets import Jet
from fresnet.jump import z_profile


def trig_eval_jet(poly: TrigPoly, u: Jet) -> Jet:
    """Compose the (real part of the) polynomial with a jet argument.

    Uses Re(c e^{i w u}) = Re(c) cos(w u) - Im(c) sin(w u) per mode, so the
    composition stays in real jet arithmetic.
    """
    acc = jets.jet_const(0.0, u.base_point, u.order)
    for c, w in zip(poly.coeffs, poly.mode_freqs):
        wu = jets.jet_scale(u, w)
        term = jets.jet_sub(
            jets.jet_scale(jets.jet_cos(wu), c.real),
            jets.jet_scale(jets.jet_sin(wu), c.imag),
        )
        acc = jets.jet_add(acc, term)
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
    step = z_profile(point, side, 0).value - math.sin(point)
    return jets.jet_add(jets.jet_const(step, point, m), jets.jet_sin(jets.jet_var(point, m)))
