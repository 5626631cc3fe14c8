"""Endpoint trigonometric Hermite interpolation.

Builds the 2(m+1)-term trigonometric polynomial

    H(x) = sum_{k=-(m+1)}^{m} c_{2k+1} e^{i (2k+1) pi x / 4}

matching prescribed derivative values H^{(s)}(-1) and H^{(s)}(1) for
0 <= s <= m.  The coefficients solve a dense complex linear system with
one row per derivative constraint.  The matrix depends on m alone, so a
process builds it once per order.  Each solve has one verdict: its
coefficients c are returned only if every row meets the componentwise
backward-error test |M c - rhs| <= RESIDUAL_BOUND (|M| |c| + |rhs|)
(Oettli & Prager, 1964), and otherwise, or on a singular solve,
:class:`HermiteSolveError` is raised.  A row of |M| |c| is
sum_k |c_k| |omega_k|^s, the size of the terms that H^{(s)} sums, so each
condition is held to what rounding can reach; non-finite data, or data
whose scale overflows, fails.

H is returned as a :class:`fresnet.network.Branch`, the type every
trigonometric polynomial of a network has: one real entry per complex
mode, so each frequency (2k+1) pi / 4, k = 0..m, appears twice, the
negative-frequency mode sign-folded onto it.  H has only 2(m+1) modes c,
so its derivatives of orders 0..m at a point y are one small product,
Re(V c), with the rows V of :func:`deriv_rows`; the interpolation matrix
is those rows at y = -1 and y = +1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import jets
from .network import Branch, branch_from_modes

#: Largest componentwise backward error a solve may leave in any row.
RESIDUAL_BOUND = 1e-8


class HermiteSolveError(RuntimeError):
    """Raised when the interpolation system cannot be solved accurately."""


def hermite_endpoint(alphas, betas) -> Branch:
    """Polynomial with H^{(s)}(-1) = alphas[s], H^{(s)}(1) = betas[s]."""
    alphas = np.asarray(alphas, dtype=complex)
    betas = np.asarray(betas, dtype=complex)
    if alphas.shape != betas.shape or alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas and betas must be equal-length nonempty vectors")
    m = alphas.size - 1
    if m > jets.MAX_ORDER:
        raise ValueError(f"order {m} exceeds maximum supported order {jets.MAX_ORDER}")
    matrix, omegas = _hermite_system(m)
    rhs = np.concatenate([alphas, betas])
    try:
        coeffs = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise HermiteSolveError(f"singular order-{m} interpolation system") from exc
    # a product, not a quotient: all-zero data passes (0 <= 0), NaN fails,
    # and so does a scale that overflows, taken without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.abs(matrix @ coeffs - rhs)
        scale = np.abs(matrix) @ np.abs(coeffs) + np.abs(rhs)
    if not np.all((residual <= RESIDUAL_BOUND * scale) & (scale < np.inf)):
        raise HermiteSolveError(
            f"order-{m} interpolation solve leaves a scaled residual above {RESIDUAL_BOUND:g}"
        )
    return branch_from_modes(coeffs, omegas)


@lru_cache(maxsize=jets.MAX_ORDER + 1)
def _hermite_system(m: int):
    """(matrix, omegas) of the order-m interpolation system, read-only.

    They depend on m alone, so a process builds each order's system once:
    rows s = 0..m are the derivative conditions at -1, rows m+1..2m+1
    those at +1.
    """
    omegas = (2 * np.arange(-(m + 1), m + 1) + 1) * np.pi / 4.0
    matrix = np.concatenate([deriv_rows(omegas, -1.0, m), deriv_rows(omegas, 1.0, m)])
    matrix.flags.writeable = omegas.flags.writeable = False
    return matrix, omegas


def deriv_rows(omegas, y, m: int) -> np.ndarray:
    """(m+1) x n matrix V with V[s, k] = (i omegas_k)^s e^{i omegas_k y}.

    For amplitudes c at the frequencies ``omegas``, Re(V @ c) is
    [H(y), H'(y), ..., H^(m)(y)] of H(t) = Re sum_k c_k e^{i omegas_k t}.
    """
    omegas = np.asarray(omegas, dtype=float)
    phase = np.exp(1j * omegas * y)
    return np.array([(1j * omegas) ** s * phase for s in range(m + 1)])
