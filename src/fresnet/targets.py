"""Registry of target functions on [-1, 1] with a breakpoint at x = 0.

Each target consists of two closures, valid on [-1, 0] and (0, 1]
respectively, written against the generic elementary functions in
:mod:`fresnet.jets` so that the same closure evaluates both pointwise (on
numpy arrays) and as a jet.  One-sided derivatives therefore come out of
closed-form jet composition, with no finite differencing.

Registered names: ``sgn``, ``pw_smooth``, ``hat``, ``smooth_nonper``.
Custom targets may be registered programmatically via
:func:`register_target`; there is no expression parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .jets import jet_var


class UnknownTargetError(KeyError):
    """Raised for a target name not present in the registry."""


@dataclass(frozen=True)
class PiecewiseTarget:
    """Two-piece target with breakpoint at 0 and jet-exact derivatives."""

    name: str
    left_piece: Callable
    right_piece: Callable
    value_at_breakpoint: float

    @property
    def is_smooth(self) -> bool:
        """True for single-piece targets (no jump; degenerate builder path)."""
        return self.left_piece is self.right_piece

    def eval(self, x):
        """Pointwise value; left piece for x < 0, right for x > 0."""
        x = np.asarray(x, dtype=float)
        # NaN fails both comparisons, so the test is for points inside
        if not np.all((x >= -1.0) & (x <= 1.0)):
            raise ValueError("evaluation point outside [-1, 1]")
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        vals = np.full(xs.shape, self.value_at_breakpoint, dtype=float)
        # each piece sees only the points of its own side, where it is valid;
        # a piece that gives a scalar is broadcast over them
        for side, piece in ((xs < 0, self.left_piece), (xs > 0, self.right_piece)):
            vals[side] = piece(xs[side])
        return float(vals[0]) if scalar else vals

    def one_sided_derivs(self, point: float, side: str, m: int) -> np.ndarray:
        """[f(point^s), f'(point^s), ..., f^(m)(point^s)] for side s."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if not -1.0 <= point <= 1.0:
            raise ValueError("point outside [-1, 1]")
        use_left = point < 0 or (point == 0 and side == "left")
        piece = self.left_piece if use_left else self.right_piece
        return jets.derivatives(piece(jet_var(point, m)))


def _sgn_left(u):
    return -1.0 + 0.0 * u


def _sgn_right(u):
    return 1.0 + 0.0 * u


def _affine_up(u):
    return 1.0 + u


def _cos_bump(u):
    return 1.0 + jets.cos(math.pi * u)


def _affine_down(u):
    return 1.0 - u


def _smooth_nonper(u):
    return jets.exp(-0.5 * (u * u)) * jets.cos(8.0 * u) + u


_REGISTRY: dict[str, PiecewiseTarget] = {}


def register_target(target: PiecewiseTarget) -> None:
    if target.name in _REGISTRY:
        raise ValueError(f"target {target.name!r} already registered")
    _REGISTRY[target.name] = target


def target_lookup(name: str) -> PiecewiseTarget:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownTargetError(
            f"unknown target {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def registered_names() -> list[str]:
    return sorted(_REGISTRY)


# Breakpoint conventions: sgn(0) = 0 by definition; for the other
# piecewise targets the value at 0 is the left-piece limit.
register_target(PiecewiseTarget("sgn", _sgn_left, _sgn_right, 0.0))
register_target(PiecewiseTarget("pw_smooth", _affine_up, _cos_bump, 1.0))
register_target(PiecewiseTarget("hat", _affine_up, _affine_down, 1.0))
register_target(
    PiecewiseTarget("smooth_nonper", _smooth_nonper, _smooth_nonper, 1.0)
)
