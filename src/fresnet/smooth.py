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
c_{-k} = conj(c_k).  All of this but g depends on K alone: the nodes,
the half weights, each mode's FFT row and the phase table are computed
once per K in a process and shared read-only, so a build does only the
integrand, the FFT and the phase product.

Mode-count convention: ``half_modes`` K gives the symmetric set of
integer frequencies k = -K..K (2K+1 modes including the constant); the
width parameter W of the error analysis corresponds to 2K.  The extra
constant mode is a bias and is not counted as a neuron (see
:func:`fresnet.network.neuron_count`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .hermite import hermite_endpoint
from .network import Branch, _branch_modes, branch_from_modes
from .quadrature import build_rule, nodes_weights


#: The largest K whose tables :func:`fourier_coeffs` keeps in the cache:
#: about 1.4 MB per entry at K = 4096, at most 22.5 MB in all.  A larger
#: K's tables are computed on each call and dropped after it.
_CACHED_MODES = 4096


@lru_cache(maxsize=16)
def _rule_tables(half_modes: int):
    """The build rule's per-K tables: the half weights (1/2) w, the gather
    rows k mod panels and the (K+1) x 16 phase table e^{-ik pi x_0j}, for
    k = 0..K.

    They depend on K alone, so a process computes them once per K and a
    one-off build pays for them once.  One K's tables take about
    344 (K+1) B: the phase table 256 (K+1) B, the half weights about
    80 K B, the rows 8 (K+1) B.  Sixteen entries hold the nine K of a
    convergence sweep over K = 5..80 and its baselines without eviction;
    at most 5.6 MB are held if every entry is at K = 1024, 22.5 MB at
    K = 4096, the largest K that :func:`fourier_coeffs` caches
    (:data:`_CACHED_MODES`).  The arrays are shared by every caller, so
    they are read-only.
    """
    rule = build_rule(half_modes)
    x, w = nodes_weights(rule)
    panels, nodes = 2 * rule.panels_per_side, rule.nodes_per_panel
    ks = np.arange(half_modes + 1)
    # e^{i theta}, theta = -pi k x, as cos and sin written into the real and
    # imaginary halves: the same bits as np.exp(1j * theta), at about two
    # thirds of its cost for K = 1024
    theta = -np.pi * np.multiply.outer(ks, x[:nodes])
    phase = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    half_w, rows = 0.5 * w, ks % panels
    for array in (half_w, rows, phase):
        array.flags.writeable = False
    return half_w, rows, phase


def fourier_coeffs(g, half_modes: int) -> np.ndarray:
    """Coefficients g_k = (1/2) integral g(x) e^{-i k pi x} dx, k = -K..K.

    ``g`` must be a vectorized real callable, finite on [-1, 1].  The
    build rule's panels never straddle 0, preserving accuracy when g has
    a higher-derivative jump there.  With A the FFT over panels of
    (1/2) w g(x) shaped (panels, nodes per panel) and x_0j the nodes of
    the first panel, c_k = sum_j e^{-ik pi x_0j} A[k mod panels, j] for
    k = 0..K; the negative modes are their exact conjugates, and c_0 is
    real.  Everything but g depends on K alone and is computed once per
    K up to :data:`_CACHED_MODES` (``_rule_tables``), so a call does the
    integrand, the FFT and one product.  The nodes are still fetched from ``nodes_weights`` on every
    call, so a tracer that rebinds that name sees each build's quadrature
    stage, warm or cold.
    """
    if half_modes < 0:
        raise ValueError("half_modes must be nonnegative")
    x = nodes_weights(build_rule(half_modes))[0]
    tables = _rule_tables if half_modes <= _CACHED_MODES else _rule_tables.__wrapped__
    half_w, rows, phase = tables(half_modes)
    samples = half_w * np.asarray(g(x), dtype=float)
    spectrum = np.fft.fft(samples.reshape(-1, phase.shape[1]), axis=0)
    c = np.einsum("kj,kj->k", phase, spectrum[rows])
    c[0] = c[0].real
    return np.concatenate([c[:0:-1].conj(), c])


def build_smooth_branch(f, endpoint_derivs_minus, endpoint_derivs_plus, half_modes: int) -> Branch:
    """Single branch realizing H_r + G for the target ``f``.

    ``endpoint_derivs_minus`` / ``..._plus`` are f's derivatives of orders
    0..m at -1 and +1, which set H_r's order m (:func:`hermite_endpoint`
    refuses lists of unequal length, empty ones and orders above
    :data:`fresnet.jets.MAX_ORDER`).  The branch holds one entry per
    complex mode: the 2K+1 integer-frequency modes of the residual series
    followed by the 2(m+1) quarter-pi modes of H_r, total width
    2K + 1 + 2(m+1).
    """
    h_r = hermite_endpoint(endpoint_derivs_minus, endpoint_derivs_plus)

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
