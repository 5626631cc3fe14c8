"""Width-1 deep network approximating the sign function.

The construction iterates phi(y) = y + sin(pi y)/pi on the initial layer
sin(pi x / 2).  Integer points are fixed points of phi, everything else in
(-1, 1) is attracted to +-1, and the iterates stay monotone and inside
[-1, 1], so the approximation is free of overshoot at every depth.
"""

from __future__ import annotations

import math

import numpy as np

from .network import Branch, FourierResNet, Layer


def build_sign_net(depth: int) -> FourierResNet:
    """Depth-``depth`` width-1 network whose output converges to sgn."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    layers = [Layer(Branch((math.pi / 2,), (1.0,), (0.0,)))]
    h = Branch((math.pi,), (1.0 / math.pi,), (0.0,))
    for _ in range(depth - 1):
        layers.append(Layer(Branch((), (), ()), h))
    return FourierResNet(tuple(layers))


def sign_error_bound(ell: int, p: float) -> float:
    """L^p error bound (4/p)^{1/p} 2^{-ell/p} for the depth-``ell`` iterate."""
    if p <= 0:
        raise ValueError("p must be positive")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return (4.0 / p) ** (1.0 / p) * 2.0 ** (-ell / p)


def truncated_sign_series(n_terms: int) -> Branch:
    """Classical n-term Fourier sine series of sgn on [-1, 1].

    Terms (4 / (pi (2l-1))) sin((2l-1) pi x), l = 1..n_terms.  This is the
    standard [-1, 1] series; it exhibits the Gibbs overshoot that the deep
    construction avoids.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    ells = np.arange(1, n_terms + 1)
    freqs = (2 * ells - 1) * math.pi
    amps = 4.0 / (math.pi * (2 * ells - 1))
    return Branch(tuple(freqs), tuple(amps), (0.0,) * n_terms)
