"""Error norms, rate fits and Gibbs-oscillation diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_QUAD, QuadratureConfig, nodes_weights

#: Uniform grid size for the overshoot / support diagnostics.
DEFAULT_GRID_N = 20001


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit log(err) = slope * log(x) + intercept."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


def lp_error(f, g, p, quad: QuadratureConfig = DEFAULT_QUAD):
    """(integral |f - g|^p over [-1, 1])^(1/p) by composite Gauss-Legendre.

    Both callables must accept numpy arrays.  Panels are split at 0 and
    geometrically graded toward it, so error localized in exponentially
    small neighborhoods of the breakpoint is still resolved.  For a tuple
    of exponents ``p`` the tuple of norms is returned, from one evaluation
    of f and g.
    """
    ps = p if isinstance(p, tuple) else (p,)
    if not all(0 < q < np.inf for q in ps):
        raise ValueError("p must be a finite positive number")
    x, w = nodes_weights(quad)
    diff = np.abs(np.asarray(f(x), dtype=float) - np.asarray(g(x), dtype=float))
    norms = tuple(float(w @ diff**q) ** (1.0 / q) for q in ps)
    return norms if isinstance(p, tuple) else norms[0]


def fit_rate(xs, errs) -> RateFit:
    """Fit log(err) vs log(x); the slope is the algebraic rate exponent."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if xs.shape != errs.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need equal-length vectors with at least 2 points")
    if np.any(xs <= 0) or np.any(errs <= 0):
        raise ValueError("all xs and errs must be positive")
    lx, ly = np.log(xs), np.log(errs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 if total == 0 else 1.0 - float(np.sum(resid**2)) / float(total)
    return RateFit(float(slope), float(intercept), r2, xs.size)


def _diagnostic_grid() -> np.ndarray:
    grid = np.linspace(-1.0, 1.0, DEFAULT_GRID_N)
    return grid[grid != 0.0]  # sgn convention at 0 is measure-zero; skip it


def _support_width(grid, f_vals, approx_vals, threshold: float) -> float:
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    err = np.abs(np.asarray(f_vals, dtype=float) - np.asarray(approx_vals, dtype=float))
    exceed = np.abs(grid)[err > threshold]
    return float(exceed.max()) if exceed.size else 0.0


def _overshoot(approx_vals, lo: float, hi: float) -> float:
    if not lo < hi:
        raise ValueError("lo must be < hi")
    vals = np.asarray(approx_vals, dtype=float)
    return float(max(0.0, vals.max() - hi, lo - vals.min()))


def gibbs_support_width(f, approx, threshold: float) -> float:
    """Largest |x| where |f - approx| exceeds the threshold (0 if nowhere)."""
    grid = _diagnostic_grid()
    return _support_width(grid, f(grid), approx(grid), threshold)


def max_overshoot(approx, lo: float, hi: float) -> float:
    """How far the approximation leaves the band [lo, hi] on [-1, 1]."""
    return _overshoot(approx(_diagnostic_grid()), lo, hi)


def _gibbs_profile(f, approxes, threshold: float, lo: float, hi: float):
    """Yield (:func:`gibbs_support_width`, :func:`max_overshoot`) of each
    approximation in ``approxes`` in turn, evaluating f once for all of them
    and each approximation once for both."""
    grid = _diagnostic_grid()
    f_vals = f(grid)
    for approx in approxes:
        vals = approx(grid)
        yield _support_width(grid, f_vals, vals, threshold), _overshoot(vals, lo, hi)
