"""Error norms and the Gibbs-oscillation profile."""

from __future__ import annotations

import numpy as np

from .quadrature import DEFAULT_QUAD, QuadratureConfig, nodes_weights

#: Uniform grid size for the Gibbs profile.
DEFAULT_GRID_N = 20001


def lp_error(f, g, p, quad: QuadratureConfig = DEFAULT_QUAD):
    """(integral |f - g|^p over [-1, 1])^(1/p) by composite Gauss-Legendre.

    Both callables must accept numpy arrays.  Panels are split at 0 and
    geometrically graded toward it, so error localized in exponentially
    small neighborhoods of the breakpoint is still resolved.  For a tuple
    of exponents ``p`` the tuple of norms is returned, from one evaluation
    of f and g.  A non-finite value of f or of g is refused: NaN or inf
    would make every norm NaN or inf.
    """
    ps = p if isinstance(p, tuple) else (p,)
    if not all(0 < q < np.inf for q in ps):
        raise ValueError("p must be a finite positive number")
    x, w = nodes_weights(quad)
    vals = []
    for name, fn in (("f", f), ("g", g)):
        vals.append(np.asarray(fn(x), dtype=float))
        if not np.isfinite(vals[-1]).all():
            raise ValueError(f"{name} has a non-finite value on the quadrature nodes")
    diff = np.abs(vals[0] - vals[1])
    norms = tuple(float(w @ diff**q) ** (1.0 / q) for q in ps)
    return norms if isinstance(p, tuple) else norms[0]


def gibbs_profile(f, approxes, threshold: float, lo: float, hi: float):
    """Yield (support width, overshoot) of each approximation in turn, on
    ``DEFAULT_GRID_N`` uniform points of [-1, 1] without 0 (the sgn
    convention there is measure-zero).  ``approxes`` holds (label,
    approximation) pairs; the label names the approximation in an error.

    The support width is the largest |x| where |f - approx| exceeds the
    threshold (0 if nowhere); the overshoot is how far the approximation
    leaves the band [lo, hi].  f is evaluated once for all approximations,
    each approximation once for both.  A non-finite value of f or of an
    approximation is refused: NaN would read as no support and no overshoot.
    """
    if not 0 < threshold < np.inf:
        raise ValueError("threshold must be a finite positive number")
    if not lo < hi:
        raise ValueError("lo must be < hi")
    grid = np.linspace(-1.0, 1.0, DEFAULT_GRID_N)
    grid = grid[grid != 0.0]
    f_vals = np.asarray(f(grid), dtype=float)
    if not np.isfinite(f_vals).all():
        raise ValueError("f has a non-finite value on the Gibbs grid")
    for label, approx in approxes:
        vals = np.asarray(approx(grid), dtype=float)
        if not np.isfinite(vals).all():
            raise ValueError(f"approximation {label} has a non-finite value on the Gibbs grid")
        exceed = np.abs(grid)[np.abs(f_vals - vals) > threshold]
        width = float(exceed.max()) if exceed.size else 0.0
        yield width, float(max(0.0, vals.max() - hi, lo - vals.min()))
