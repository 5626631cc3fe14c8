"""Shallow spectral approximation of smooth non-periodic functions.

Approximates f on [-1, 1] by F = H_r + G, where H_r is the endpoint
Hermite trigonometric polynomial matching f's derivatives up to order m
at +-1, and G is the truncated Fourier series of the periodized residual
g = f - H_r.  Because g's periodic extension is C^m, its coefficients
decay like k^{-m} and the truncation error is spectral in the mode count.

Mode-count convention: ``half_modes`` K gives the symmetric set of
integer frequencies k = -K..K (2K+1 modes including the constant); the
width parameter W of the error analysis corresponds to 2K.  The extra
constant mode is a bias and is not counted as a neuron (see
:func:`fresnet.network.neuron_count`).
"""

from __future__ import annotations

import numpy as np

from .hermite import hermite_endpoint, trig_deriv_eval
from .network import Branch, branch_from_modes, trig_sum
from .quadrature import DEFAULT_QUAD, QuadratureConfig, nodes_weights


def fourier_coeffs(g, half_modes: int, quad: QuadratureConfig = DEFAULT_QUAD) -> np.ndarray:
    """Coefficients g_k = (1/2) integral g(x) e^{-i k pi x} dx, k = -K..K.

    ``g`` must be a vectorized callable, finite on [-1, 1].  The composite
    Gauss-Legendre rule never straddles 0, preserving accuracy when g has
    a higher-derivative jump there.
    """
    if half_modes < 0:
        raise ValueError("half_modes must be nonnegative")
    x, w = nodes_weights(quad)
    vals = np.asarray(g(x), dtype=float)
    ks = np.arange(-half_modes, half_modes + 1)
    return 0.5 * np.exp(-1j * np.pi * np.multiply.outer(ks, x)) @ (w * vals)


def series_eval(coeffs: np.ndarray, x):
    """Real part of the symmetric Fourier sum with the given k = -K..K coefficients."""
    half = (len(coeffs) - 1) // 2
    return trig_sum(np.pi * np.arange(-half, half + 1), coeffs, x)


def build_smooth_branch(
    f,
    endpoint_derivs_minus,
    endpoint_derivs_plus,
    m: int,
    half_modes: int,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> Branch:
    """Single branch realizing H_r + G for the target ``f``.

    ``endpoint_derivs_minus`` / ``..._plus`` are f's derivatives of orders
    0..m at -1 and +1.  The branch holds one entry per complex mode: the
    2K+1 integer-frequency modes of the residual series followed by the
    2(m+1) quarter-pi modes of H_r, total width 2K + 1 + 2(m+1).
    """
    minus = np.asarray(endpoint_derivs_minus, dtype=float)
    plus = np.asarray(endpoint_derivs_plus, dtype=float)
    if minus.shape != plus.shape or minus.size != m + 1:
        raise ValueError("endpoint derivative lists must both have length m + 1")
    h_poly = hermite_endpoint(minus, plus)

    def residual(x):
        return np.asarray(f(x), dtype=float) - trig_deriv_eval(h_poly, x, 0)

    ghat = fourier_coeffs(residual, half_modes, quad)
    ks = np.arange(-half_modes, half_modes + 1)
    coeffs = np.concatenate([ghat, np.asarray(h_poly.coeffs)])
    omegas = np.concatenate([ks * np.pi, h_poly.mode_freqs])
    return branch_from_modes(coeffs, omegas)
