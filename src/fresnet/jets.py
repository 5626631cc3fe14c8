"""Truncated Taylor-series ("jet") arithmetic.

A :class:`Jet` holds the normalized Taylor coefficients

    coeffs[k] = f^{(k)}(a) / k!,   k = 0, ..., order

of a scalar function at a base point ``a``.  Sums, products and the
elementary functions sin/cos/exp propagate these coefficients through the
standard power-series recurrences, so derivatives of closed-form
expressions are obtained to machine accuracy with no finite differencing.

Coefficients are stored normalized (divided by k!) to keep the recurrences
free of factorial growth; raw derivatives are recovered with
:func:`derivatives`.

Jet arithmetic is the operators ``+``, ``-`` and ``*`` of :class:`Jet`
(a scalar operand is promoted to a constant jet) and the module-level
:func:`sin`, :func:`cos` and :func:`exp`.  These dispatch on the argument
type (Jet vs. numpy array / scalar), so a single closure written against
them can be evaluated both pointwise and as a jet.  Jets are started with
:func:`jet_var` (the identity) and :func:`jet_const`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Largest supported jet order.  Bounds numerical conditioning of the
#: recurrences; higher orders are rejected.
MAX_ORDER = 12


class JetError(ValueError):
    """Raised for invalid jet constructions or mismatched operands."""


def _check_order(m: int) -> None:
    if m < 0:
        raise JetError(f"jet order must be nonnegative, got {m}")
    if m > MAX_ORDER:
        raise JetError(f"jet order {m} exceeds maximum supported order {MAX_ORDER}")


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion at a base point.

    ``coeffs`` has length ``order + 1``; entry k is f^{(k)}(base_point)/k!.
    """

    base_point: float
    coeffs: tuple

    def __post_init__(self):
        _check_order(len(self.coeffs) - 1)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- arithmetic; scalars are promoted to constant jets -----------------

    def __add__(self, other):
        other = _coerce(other, self)
        return Jet(self.base_point, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self)
        return Jet(self.base_point, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return _coerce(other, self) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base_point, tuple(float(other) * a for a in self.coeffs))
        # Cauchy product truncated at the common order
        u, v = self.coeffs, _coerce(other, self).coeffs
        return Jet(self.base_point, tuple(
            sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(self.order + 1)
        ))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _coerce(value, like: Jet) -> Jet:
    """``value`` as a jet compatible with ``like``: a scalar becomes a
    constant jet, and a jet must share its base point and order."""
    if not isinstance(value, Jet):
        return jet_const(float(value), like.base_point, like.order)
    if value.base_point != like.base_point:
        raise JetError(
            f"mismatched base points: {like.base_point} vs {value.base_point}"
        )
    if value.order != like.order:
        raise JetError(f"mismatched orders: {like.order} vs {value.order}")
    return value


def jet_var(a: float, m: int) -> Jet:
    """Jet of the identity function x at base point ``a``."""
    _check_order(m)
    coeffs = [float(a)] + [0.0] * m
    if m >= 1:
        coeffs[1] = 1.0
    return Jet(float(a), tuple(coeffs))


def jet_const(c: float, a: float, m: int) -> Jet:
    """Jet of the constant function ``c`` at base point ``a``."""
    _check_order(m)
    return Jet(float(a), (float(c),) + (0.0,) * m)


def _sin_cos(u: Jet):
    # Joint recurrence from s' = u' c and c' = -u' s, in normalized
    # coefficients: (k+1) s_{k+1} = sum_j (j+1) u_{j+1} c_{k-j}.
    m = u.order
    s = [0.0] * (m + 1)
    c = [0.0] * (m + 1)
    s[0] = math.sin(u.coeffs[0])
    c[0] = math.cos(u.coeffs[0])
    for k in range(m):
        acc_s = 0.0
        acc_c = 0.0
        for j in range(k + 1):
            up = (j + 1) * u.coeffs[j + 1]
            acc_s += up * c[k - j]
            acc_c += up * s[k - j]
        s[k + 1] = acc_s / (k + 1)
        c[k + 1] = -acc_c / (k + 1)
    return Jet(u.base_point, tuple(s)), Jet(u.base_point, tuple(c))


def derivatives(u: Jet) -> np.ndarray:
    """Raw derivatives [f(a), f'(a), ..., f^{(m)}(a)] of the jet."""
    return np.array([math.factorial(k) * ck for k, ck in enumerate(u.coeffs)])


# -- generic elementary functions: Jet or numpy ---------------------------

def sin(u):
    return _sin_cos(u)[0] if isinstance(u, Jet) else np.sin(u)


def cos(u):
    return _sin_cos(u)[1] if isinstance(u, Jet) else np.cos(u)


def exp(u):
    if not isinstance(u, Jet):
        return np.exp(u)
    m = u.order
    e = [0.0] * (m + 1)
    e[0] = math.exp(u.coeffs[0])
    for k in range(m):
        acc = 0.0
        for j in range(k + 1):
            acc += (j + 1) * u.coeffs[j + 1] * e[k - j]
        e[k + 1] = acc / (k + 1)
    return Jet(u.base_point, tuple(e))
