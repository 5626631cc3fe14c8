"""Jump matcher: prescribe one-sided derivatives at the breakpoint.

Given jump data {alpha_s} (left) and {beta_s} (right), builds the
trigonometric polynomial H such that

    q(x) = z(x) + H(z(x)),      z(x) = sgn(x) + sin(x),

has q^{(s)}(0^-) = alpha_s and q^{(s)}(0^+) = beta_s for 0 <= s <= m.
Because z(0^-) = -1 and z(0^+) = 1, the required values of H and its
derivatives at y = -1 and y = +1 follow from two lower-triangular
chain-rule systems, after which the endpoint Hermite interpolation of
:mod:`fresnet.hermite` produces H, a :class:`fresnet.network.Branch`: the
builder puts it into the network as the last layer's h-branch as it is.
:func:`z_profile` returns z's one-sided derivatives as one array
[z, z', ..., z^(m)], laid out like a target's ``one_sided_derivs``, so
each system's right-hand side is a difference of two such arrays.  The
profile and its chain-rule matrix depend on (point, side, m) alone, so a
process computes each once.  :func:`q_derivs_at` takes H's derivatives at
z(point) from H's 2(m+1) modes by one row product
(:func:`fresnet.hermite.deriv_rows`), and :func:`q_eval` evaluates H as
the branch it is.

The chain-rule coefficients are partial Bell polynomials
B_{s,j}(z', z'', ...), computed by the standard recurrence
B_{n,k} = sum_i C(n-1, i-1) x_i B_{n-i,k-1}.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .hermite import deriv_rows, hermite_endpoint
from .network import Branch, _branch_modes


def z_eval(x):
    """z(x) = sgn(x) + sin(x), vectorized."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) + np.sin(x)


def z_profile(point: float, side: str, m: int) -> np.ndarray:
    """One-sided [z(point), z'(point), ..., z^(m)(point)], the layout of
    :meth:`fresnet.targets.PiecewiseTarget.one_sided_derivs`.

    The sgn part is locally constant away from the jump, so it contributes
    only to the value; the derivatives are those of sin.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not -1.0 <= point <= 1.0:
        raise ValueError("point outside [-1, 1]")
    if point != 0:
        step = math.copysign(1.0, point)
    else:
        step = 1.0 if side == "right" else -1.0
    # sin's derivatives cycle through sin, cos, -sin, -cos, so they are exact
    # at a zero point, where sin(k pi/2) would round for even k; + 0.0 turns
    # -0.0 into 0.0, so the points -0.0 and 0.0 give the same bits.  The sgn
    # step adds to the value only
    s, c = math.sin(point), math.cos(point)
    cycle = (s, c, -s, -c)
    zs = np.array([cycle[k % 4] for k in range(m + 1)]) + 0.0
    zs[0] += step
    return zs


def chain_rule_matrix(derivs) -> np.ndarray:
    """Lower-triangular A with A[s, j] = B_{s,j}(z', z'', ...).

    ``derivs`` is (z', ..., z^(m)); the result is (m+1) x (m+1).
    """
    m = len(derivs)
    x = derivs  # x[i-1] = z^{(i)}
    bell = np.zeros((m + 1, m + 1))
    bell[0, 0] = 1.0
    for n in range(1, m + 1):
        for k in range(1, n + 1):
            acc = 0.0
            for i in range(1, n - k + 2):
                acc += math.comb(n - 1, i - 1) * x[i - 1] * bell[n - i, k - 1]
            bell[n, k] = acc
    return bell


@lru_cache(maxsize=64)
def _chain_rule_system(point: float, side: str, m: int):
    """(z_profile, chain_rule_matrix) at (point, side, m), read-only.

    A build reads them at 0 from both sides and at the two endpoints, for
    its own m, so a process computes each once.
    """
    zs = z_profile(point, side, m)
    a = chain_rule_matrix(zs[1:])
    zs.flags.writeable = a.flags.writeable = False
    return zs, a


def build_jump_H(alphas, betas) -> Branch:
    """H such that q = z + H(z) has the prescribed one-sided derivatives."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.shape != betas.shape or alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas and betas must be equal-length nonempty vectors")
    m = alphas.size - 1
    endpoint_values = []
    for side, data in (("left", alphas), ("right", betas)):
        zs, a = _chain_rule_system(0.0, side, m)
        rhs = data - zs
        v = np.zeros(m + 1)
        for s in range(m + 1):
            v[s] = (rhs[s] - a[s, :s] @ v[:s]) / a[s, s]
        endpoint_values.append(v)
    return hermite_endpoint(endpoint_values[0], endpoint_values[1])


def q_eval(h: Branch, x):
    """q(x) = z(x) + H(z(x)), vectorized."""
    z = z_eval(x)
    return z + h(z)


def q_derivs_at(point: float, side: str, h: Branch, m: int) -> np.ndarray:
    """One-sided derivatives [q(point), ..., q^(m)(point)] of q = z + H(z)."""
    zs, a = _chain_rule_system(point, side, m)
    freqs, amps = _branch_modes(h)
    h_derivs = (deriv_rows(freqs, zs[0], m) @ amps).real
    return zs + a @ h_derivs
