"""Endpoint trigonometric Hermite interpolation.

Builds the 2(m+1)-term trigonometric polynomial

    H(x) = sum_{k=-(m+1)}^{m} c_{2k+1} e^{i (2k+1) pi x / 4}

matching prescribed derivative values H^{(s)}(-1) and H^{(s)}(1) for
0 <= s <= m.  The coefficients solve a dense complex linear system with
one row per derivative constraint; the system is uniquely solvable, so a
singular solve indicates a numerical problem and is reported with a
condition estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import jets
from .network import Branch, branch_from_modes, trig_sum

#: Warn when the interpolation system is estimated worse-conditioned than this.
CONDITION_WARN_THRESHOLD = 1e10


class HermiteSolveError(RuntimeError):
    """Raised when the interpolation system cannot be solved."""


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial on odd quarter-pi frequencies.

    ``coeffs[j]`` is the complex amplitude of mode k = j - (order_m + 1),
    i.e. frequency (2k+1) pi / 4.
    """

    order_m: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 2 * (self.order_m + 1):
            raise ValueError(
                f"expected {2 * (self.order_m + 1)} coefficients, got {len(self.coeffs)}"
            )

    @property
    def mode_freqs(self) -> np.ndarray:
        ks = np.arange(-(self.order_m + 1), self.order_m + 1)
        return (2 * ks + 1) * np.pi / 4.0


def zero_poly(m: int) -> TrigPoly:
    return TrigPoly(m, (0j,) * (2 * (m + 1)))


def hermite_endpoint(alphas, betas) -> TrigPoly:
    """Polynomial with H^{(s)}(-1) = alphas[s], H^{(s)}(1) = betas[s]."""
    alphas = np.asarray(alphas, dtype=complex)
    betas = np.asarray(betas, dtype=complex)
    if alphas.shape != betas.shape or alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas and betas must be equal-length nonempty vectors")
    m = alphas.size - 1
    if m > jets.MAX_ORDER:
        raise ValueError(f"order {m} exceeds maximum supported order {jets.MAX_ORDER}")
    n = 2 * (m + 1)
    omegas = (2 * np.arange(-(m + 1), m + 1) + 1) * np.pi / 4.0
    rows = []
    rhs = []
    for endpoint, targets in ((-1.0, alphas), (1.0, betas)):
        for s in range(m + 1):
            rows.append((1j * omegas) ** s * np.exp(1j * omegas * endpoint))
            rhs.append(targets[s])
    matrix = np.array(rows).reshape(n, n)
    cond = np.linalg.cond(matrix)
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"Hermite interpolation system badly conditioned (cond ~ {cond:.2e}); "
            "results may lose accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        coeffs = np.linalg.solve(matrix, np.asarray(rhs))
    except np.linalg.LinAlgError as exc:
        raise HermiteSolveError(
            f"singular interpolation system (cond ~ {cond:.2e})"
        ) from exc
    return TrigPoly(m, tuple(coeffs))


def trig_deriv_eval(poly: TrigPoly, x, s: int = 0):
    """Real part of the s-th derivative of the polynomial at ``x``.

    Defined for all real x (the polynomial is entire), including arguments
    outside [-1, 1].
    """
    return trig_sum(poly.mode_freqs, poly.coeffs, x, s)


def to_branch(poly: TrigPoly) -> Branch:
    """Real sin/cos branch equivalent to the polynomial.

    One entry per complex mode; negative-frequency modes are sign-folded
    onto the matching positive frequency, so each frequency
    (2k+1) pi / 4, k = 0..m, appears twice.
    """
    return branch_from_modes(poly.coeffs, poly.mode_freqs)
