"""Registry of target functions on [-1, 1] with a breakpoint at x = 0.

Each target consists of two closures, valid on [-1, 0] and (0, 1]
respectively, written against the generic elementary functions in
:mod:`fresnet.jets` so that the same closure evaluates both pointwise (on
numpy arrays) and as a jet.  One-sided derivatives therefore come out of
closed-form jet composition, with no finite differencing.

A target's jets depend on (target, point, side, m) alone, never on a net's
width or depth, so a process computes each once:
:meth:`PiecewiseTarget.one_sided_derivs` keeps the last 64 distinct ones,
keyed by the target and the point's float64 bits, and hands each caller a
fresh copy.  A target's pieces must therefore be deterministic and
hashable: a kept jet is handed out again without calling the piece.

Registered names: ``sgn``, ``pw_smooth``, ``hat``, ``smooth_nonper``.
Custom targets may be registered programmatically via
:func:`register_target`; there is no expression parser.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import jets
from .jets import jet_var


class UnknownTargetError(KeyError):
    """Raised for a target name not present in the registry."""


@dataclass(frozen=True)
class PiecewiseTarget:
    """Two-piece target with breakpoint at 0 and jet-exact derivatives.

    The pieces must be deterministic, since the jets taken of them are kept
    per (point, side, m) (:meth:`one_sided_derivs`), and hashable, since
    the target is part of that key.  Targets are equal, and hash equal,
    when their name, pieces and breakpoint value are, so two targets with
    one name and different pieces keep their own jets.
    """

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
        """[f(point^s), f'(point^s), ..., f^(m)(point^s)] for side s.

        The jet of each distinct (target, point, side, m) is kept
        (:func:`_jets`), keyed by the point's float64 bits, so -0.0 and 0.0
        are two points; each call returns a fresh writable copy.  A refusal
        is never kept: a bad side, a point outside [-1, 1] (NaN included)
        and an order the jets refuse are refused before the lookup, on
        every call.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if not -1.0 <= point <= 1.0:
            raise ValueError("point outside [-1, 1]")
        jets._check_order(m)
        return _jets(self, struct.pack("d", point), side, m).copy()


@lru_cache(maxsize=64)
def _jets(target: PiecewiseTarget, point_bits: bytes, side: str, m: int) -> np.ndarray:
    """The target's one-sided derivatives of orders 0..m at the point whose
    float64 bits are ``point_bits``, read-only; lru_cache keeps no call
    that raises."""
    (point,) = struct.unpack("d", point_bits)
    use_left = point < 0 or (point == 0 and side == "left")
    piece = target.left_piece if use_left else target.right_piece
    derivs = jets.derivatives(piece(jet_var(point, m)))
    derivs.flags.writeable = False
    return derivs


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
