"""Endpoint trigonometric Hermite interpolation.

Builds the 2(m+1)-term trigonometric polynomial

    H(x) = sum_{k=-(m+1)}^{m} c_{2k+1} e^{i (2k+1) pi x / 4}

matching prescribed derivative values H^{(s)}(-1) and H^{(s)}(1) for
0 <= s <= m.  The coefficients solve a dense complex linear system with
one row per derivative constraint; the system is uniquely solvable, so a
singular solve indicates a numerical problem and is reported with a
condition estimate.  The matrix and its condition estimate depend on m
alone, so a process builds them once per order; the warning for a badly
conditioned system and the solve come with every call.

H is returned as a :class:`fresnet.network.Branch`, the type every
trigonometric polynomial of a network has: one real entry per complex
mode, so each frequency (2k+1) pi / 4, k = 0..m, appears twice, the
negative-frequency mode sign-folded onto it.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from . import jets
from .network import Branch, _branch_plan, _trig_apply, branch_from_modes

#: Warn when the interpolation system is estimated worse-conditioned than this.
CONDITION_WARN_THRESHOLD = 1e10


class HermiteSolveError(RuntimeError):
    """Raised when the interpolation system cannot be solved."""


def hermite_endpoint(alphas, betas) -> Branch:
    """Polynomial with H^{(s)}(-1) = alphas[s], H^{(s)}(1) = betas[s]."""
    alphas = np.asarray(alphas, dtype=complex)
    betas = np.asarray(betas, dtype=complex)
    if alphas.shape != betas.shape or alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas and betas must be equal-length nonempty vectors")
    m = alphas.size - 1
    if m > jets.MAX_ORDER:
        raise ValueError(f"order {m} exceeds maximum supported order {jets.MAX_ORDER}")
    matrix, omegas, cond = _hermite_system(m)
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"Hermite interpolation system badly conditioned (cond ~ {cond:.2e}); "
            "results may lose accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    rhs = np.concatenate([alphas, betas])
    try:
        coeffs = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise HermiteSolveError(
            f"singular interpolation system (cond ~ {cond:.2e})"
        ) from exc
    return branch_from_modes(coeffs, omegas)


@lru_cache(maxsize=jets.MAX_ORDER + 1)
def _hermite_system(m: int):
    """(matrix, omegas, cond) of the order-m interpolation system, read-only.

    They depend on m alone, so a process builds each order's system and
    condition estimate once: rows s = 0..m are the derivative conditions
    at -1, rows m+1..2m+1 those at +1.
    """
    omegas = (2 * np.arange(-(m + 1), m + 1) + 1) * np.pi / 4.0
    rows = [(1j * omegas) ** s * np.exp(1j * omegas * endpoint)
            for endpoint in (-1.0, 1.0) for s in range(m + 1)]
    matrix = np.array(rows)
    cond = np.linalg.cond(matrix)
    matrix.flags.writeable = omegas.flags.writeable = False
    return matrix, omegas, cond


def trig_deriv_eval(branch: Branch, x, s: int = 0):
    """The s-th derivative of the branch at ``x``.

    Defined for all real x (the polynomial is entire), including arguments
    outside [-1, 1].
    """
    return _trig_apply(_deriv_plan(branch, s), x)


@lru_cache(maxsize=64)
def _deriv_plan(branch: Branch, s: int):
    """The kernel's plan for the s-th derivative.  A branch is immutable,
    and H's derivatives are evaluated one order at a time at single points
    (the endpoint derivatives of q), so each (branch, s) plan is built once."""
    return _branch_plan(branch, s)
