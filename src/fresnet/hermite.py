"""Endpoint trigonometric Hermite interpolation.

Builds the 2(m+1)-term trigonometric polynomial

    H(x) = sum_{k=-(m+1)}^{m} c_{2k+1} e^{i (2k+1) pi x / 4}

matching prescribed derivative values H^{(s)}(-1) and H^{(s)}(1) for
0 <= s <= m.  The coefficients solve a dense complex linear system with
one row per derivative constraint.

H is returned as a :class:`fresnet.network.Branch`, the type every
trigonometric polynomial of a network has: one real entry per complex
mode, so each frequency (2k+1) pi / 4, k = 0..m, appears twice, the
negative-frequency mode sign-folded onto it.  H has only 2(m+1) modes c,
so its derivatives of orders 0..m at a point y are one small product,
Re(V c), with the rows V of :func:`deriv_rows`; the interpolation matrix
is those rows at y = -1 and y = +1.

Each solve has one verdict, :func:`scaled_residual`, judged on the Branch
itself, so a net's H and H_r can be judged again from what the net holds.
It unfolds the branch's entries back into c exactly and returns the
largest componentwise backward error |M c - rhs| / (|M| |c| + |rhs|)
(Oettli & Prager, 1964).  A row of |M| |c| is sum_k |c_k| |omega_k|^s,
the size of the terms that H^{(s)} sums, so each condition is held to
what rounding can reach.  :func:`hermite_endpoint` returns its branch
only if that error is at most RESIDUAL_BOUND, and otherwise, or on a
singular solve, raises :class:`HermiteSolveError`; non-finite data, or
data whose scale overflows, fails.

A solve depends on its endpoint data alone, never on a net's width or
depth, so a process solves each data once: :func:`hermite_endpoint` keeps
the judged branch of the last 64 distinct data it solved, keyed by the
data's bits, and hands the same branch to every caller of that data.  A
sweep over K or L at one (target, m) thus solves H and H_r once.  A
refusal is never kept: refused data is solved and judged again on every
call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import jets
from .network import Branch, _branch_modes, branch_from_modes

#: Largest componentwise backward error a solve may leave in any row.
RESIDUAL_BOUND = 1e-8


class HermiteSolveError(RuntimeError):
    """Raised when the interpolation system cannot be solved accurately."""


def hermite_endpoint(alphas, betas) -> Branch:
    """Polynomial with H^{(s)}(-1) = alphas[s], H^{(s)}(1) = betas[s].

    The judged branch of each distinct data is kept (:func:`_solve`), so a
    repeated call returns the same branch object, which callers share: it
    is immutable, and its evaluation plan is built once.  A refusal is
    never kept: refused data is solved and judged again on every call.
    """
    return _solve(_endpoint_data(alphas, betas)[1].tobytes())


@lru_cache(maxsize=64)
def _solve(key: bytes) -> Branch:
    """The judged solve of the endpoint data whose complex128 bytes, rows
    at -1 and +1, are ``key``.

    Keyed by bits, not values, so data differing only in the sign of a
    zero or in a NaN payload is solved apart, and each branch holds the
    bits a fresh solve of its own data gives.  lru_cache keeps no call
    that raises.
    """
    data = np.frombuffer(key, dtype=complex).reshape(2, -1)
    m = data.shape[1] - 1
    matrix, omegas = _hermite_system(m)
    try:
        coeffs = np.linalg.solve(matrix, data.ravel())
    except np.linalg.LinAlgError as exc:
        raise HermiteSolveError(f"singular order-{m} interpolation system") from exc
    # non-finite coefficients make no Branch; their residual is NaN or inf
    if np.isfinite(coeffs).all():
        branch = branch_from_modes(coeffs, omegas)
        if scaled_residual(branch, *data) <= RESIDUAL_BOUND:
            return branch
    raise HermiteSolveError(
        f"order-{m} interpolation solve leaves a scaled residual above {RESIDUAL_BOUND:g}"
    )


@np.errstate(all="ignore")
def scaled_residual(branch: Branch, alphas, betas) -> float:
    """Largest componentwise backward error |M c - b| / (|M| |c| + |b|) of
    ``branch`` as a solution of the order-m system with data b = [alphas,
    betas], m = len(alphas) - 1.

    c is the branch's entries unfolded back into the solve's complex
    modes, exactly: the entry of a negative frequency of
    :func:`_hermite_system` holds the conjugate of its mode.  A row with
    zero residual counts 0.0, so all-zero data gives 0.0; a row whose scale
    overflows counts inf, and NaN data gives NaN, so ``not r <= bound``
    refuses both.  Raises ValueError for endpoint lists
    :func:`hermite_endpoint` refuses and for a branch whose entries are not
    at the 2(m+1) frequencies of an order-m polynomial.
    """
    m, data = _endpoint_data(alphas, betas)
    matrix, omegas = _hermite_system(m)
    freqs = branch.entries[0]
    if freqs.shape != omegas.shape or not (freqs == np.abs(omegas)).all():
        raise ValueError(f"branch is not an order-{m} endpoint polynomial of width {omegas.size}")
    _, coeffs = _branch_modes(branch)
    np.conjugate(coeffs, out=coeffs, where=omegas < 0)
    rhs = data.ravel()
    residual = np.abs(matrix @ coeffs - rhs)
    scale = np.abs(matrix) @ np.abs(coeffs) + np.abs(rhs)
    rows = residual / scale
    rows[residual == 0] = 0.0  # an exact row counts 0, also where 0/0
    rows[scale == np.inf] = np.inf
    return float(rows.max())


def _endpoint_data(alphas, betas, dtype=complex):
    """(m, [alphas, betas] as a 2 x (m+1) array of ``dtype``), refusing
    anything but two equal-length nonempty vectors of order
    m <= :data:`fresnet.jets.MAX_ORDER`."""
    alphas, betas = np.asarray(alphas, dtype=dtype), np.asarray(betas, dtype=dtype)
    if alphas.shape != betas.shape or alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas and betas must be equal-length nonempty vectors")
    if alphas.size > jets.MAX_ORDER + 1:
        raise ValueError(f"order {alphas.size - 1} exceeds maximum supported order {jets.MAX_ORDER}")
    return alphas.size - 1, np.concatenate([alphas, betas]).reshape(2, -1)


def _hermite_system(m: int):
    """(matrix, omegas) of the order-m interpolation system: rows s = 0..m
    are the derivative conditions at -1, rows m+1..2m+1 those at +1."""
    omegas = (2 * np.arange(-(m + 1), m + 1) + 1) * np.pi / 4.0
    matrix = np.concatenate([deriv_rows(omegas, -1.0, m), deriv_rows(omegas, 1.0, m)])
    return matrix, omegas


def deriv_rows(omegas, y, m: int) -> np.ndarray:
    """(m+1) x n matrix V with V[s, k] = (i omegas_k)^s e^{i omegas_k y}.

    For amplitudes c at the frequencies ``omegas``, Re(V @ c) is
    [H(y), H'(y), ..., H^(m)(y)] of H(t) = Re sum_k c_k e^{i omegas_k t}.
    """
    omegas = np.asarray(omegas, dtype=float)
    phase = np.exp(1j * omegas * y)
    return np.array([(1j * omegas) ** s * phase for s in range(m + 1)])
