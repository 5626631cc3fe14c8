"""Shallow spectral approximation of smooth non-periodic functions.

Approximates f on [-1, 1] by F = H_r + G, where H_r is the endpoint
Hermite trigonometric polynomial matching f's derivatives up to order m
at +-1, and G is the truncated Fourier series of the periodized residual
g = f - H_r.  Because g's periodic extension is C^m, its coefficients
decay like k^{-m} and the truncation error is spectral in the mode count.

The coefficients are quadrature sums over the build rule
:func:`fresnet.quadrature.build_rule`, which depends on K alone: 2n
uniform panels of 16 Gauss nodes, n = ceil(5K/16) per side, so 10 nodes
per wavelength of the top mode.  Node j of panel p sits at
x_pj = x_0j + p h with h = 1/n, so e^{-ik pi x_pj} = e^{-ik pi x_0j}
e^{-2 pi i k p / 2n}, and the sum over panels is a discrete Fourier
transform of length 2n: one FFT per Gauss node column and a
(K+1) x 16 phase product give every mode.  Because g is real, only
k >= 0 is computed; the negative modes are the conjugates
c_{-k} = conj(c_k).

Mode-count convention: ``half_modes`` K gives the symmetric set of
integer frequencies k = -K..K (2K+1 modes including the constant); the
width parameter W of the error analysis corresponds to 2K.  The extra
constant mode is a bias and is not counted as a neuron (see
:func:`fresnet.network.neuron_count`).
"""

from __future__ import annotations

import numpy as np

from .hermite import hermite_endpoint
from .network import Branch, _branch_modes, branch_from_modes, trig_sum
from .quadrature import build_rule, nodes_weights


def fourier_coeffs(g, half_modes: int) -> np.ndarray:
    """Coefficients g_k = (1/2) integral g(x) e^{-i k pi x} dx, k = -K..K.

    ``g`` must be a vectorized real callable, finite on [-1, 1].  The
    build rule's panels never straddle 0, preserving accuracy when g has
    a higher-derivative jump there.  With A the FFT over panels of
    (1/2) w g(x) shaped (panels, nodes per panel) and x_0j the nodes of
    the first panel, c_k = sum_j e^{-ik pi x_0j} A[k mod panels, j] for
    k = 0..K; the negative modes are their exact conjugates, and c_0 is
    real.
    """
    if half_modes < 0:
        raise ValueError("half_modes must be nonnegative")
    rule = build_rule(half_modes)
    x, w = nodes_weights(rule)
    panels, nodes = 2 * rule.panels_per_side, rule.nodes_per_panel
    samples = 0.5 * w * np.asarray(g(x), dtype=float)
    spectrum = np.fft.fft(samples.reshape(panels, nodes), axis=0)
    ks = np.arange(half_modes + 1)
    phase = np.exp(-1j * np.pi * np.multiply.outer(ks, x[:nodes]))
    c = np.einsum("kj,kj->k", phase, spectrum[ks % panels])
    c[0] = c[0].real
    return np.concatenate([c[:0:-1].conj(), c])


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
    h_r = hermite_endpoint(minus, plus)

    def residual(x):
        return np.asarray(f(x), dtype=float) - h_r(x)

    ghat = fourier_coeffs(residual, half_modes)
    ks = np.arange(-half_modes, half_modes + 1)
    # H_r's entries come back from its modes bit for bit, so the branch is
    # made once over all 2K + 1 + 2(m+1) modes
    h_freqs, h_amps = _branch_modes(h_r)
    coeffs = np.concatenate([ghat, h_amps])
    omegas = np.concatenate([ks * np.pi, h_freqs])
    return branch_from_modes(coeffs, omegas)
