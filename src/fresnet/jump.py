"""Jump matcher: prescribe one-sided derivatives at the breakpoint.

Given jump data {alpha_s} (left) and {beta_s} (right), builds the
trigonometric polynomial H such that

    q(x) = z(x) + H(z(x)),      z(x) = sgn(x) + sin(x),

has q^{(s)}(0^-) = alpha_s and q^{(s)}(0^+) = beta_s for 0 <= s <= m.
Because z(0^-) = -1 and z(0^+) = 1, the required values of H and its
derivatives at y = -1 and y = +1 follow from two lower-triangular
chain-rule systems, after which the endpoint Hermite interpolation of
:mod:`fresnet.hermite` produces H.  :func:`z_profile` returns z's one-sided
derivatives as one array [z, z', ..., z^(m)], laid out like a target's
``one_sided_derivs``, so each system's right-hand side is a difference of
two such arrays.

The chain-rule coefficients are partial Bell polynomials
B_{s,j}(z', z'', ...), computed by the standard recurrence
B_{n,k} = sum_i C(n-1, i-1) x_i B_{n-i,k-1}.
"""

from __future__ import annotations

import math

import numpy as np

from .hermite import TrigPoly, hermite_endpoint, trig_deriv_eval


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
    # sin^(k)(x) = sin(x + k pi/2); the sgn step adds to the value only
    zs = np.array([math.sin(point + k * math.pi / 2) for k in range(m + 1)])
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


def build_jump_H(alphas, betas) -> TrigPoly:
    """H such that q = z + H(z) has the prescribed one-sided derivatives."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.shape != betas.shape or alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas and betas must be equal-length nonempty vectors")
    m = alphas.size - 1
    endpoint_values = []
    for side, data in (("left", alphas), ("right", betas)):
        zs = z_profile(0.0, side, m)
        rhs = data - zs
        a = chain_rule_matrix(zs[1:])
        v = np.zeros(m + 1)
        for s in range(m + 1):
            v[s] = (rhs[s] - a[s, :s] @ v[:s]) / a[s, s]
        endpoint_values.append(v)
    return hermite_endpoint(endpoint_values[0], endpoint_values[1])


def q_eval(poly: TrigPoly, x):
    """q(x) = z(x) + H(z(x)), vectorized."""
    z = z_eval(x)
    return z + trig_deriv_eval(poly, z, 0)


def q_derivs_at(point: float, side: str, poly: TrigPoly, m: int) -> np.ndarray:
    """One-sided derivatives [q(point), ..., q^(m)(point)] of q = z + H(z)."""
    zs = z_profile(point, side, m)
    a = chain_rule_matrix(zs[1:])
    h_derivs = np.array([trig_deriv_eval(poly, zs[0], j) for j in range(m + 1)])
    return zs + a @ h_derivs
