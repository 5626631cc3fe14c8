"""Composite Gauss-Legendre quadrature on [-1, 1], split at the origin.

The package uses two kinds of rule for two jobs.  Measuring error
(:func:`fresnet.metrics.lp_error`) uses the graded rule configured by
:class:`QuadratureConfig`, by default :data:`DEFAULT_QUAD`.  Building the
spectral layer's coefficients uses :func:`build_rule`, which depends on
the mode count K alone: uniform 16-node panels, 10 nodes per wavelength
of the top mode, no cascade.

Panels never straddle 0, and with ``grading_ratio < 1`` a geometric
cascade of breakpoints accumulates toward 0 on both sides, down to a
minimum panel width of 1e-12.  The geometric points are laid on top of a
uniform base grid of ``panels_per_side`` panels per side: the uniform grid
caps the maximum panel width (needed to resolve oscillatory integrands at
moderate node counts), while the geometric cascade resolves features in
exponentially small neighborhoods of 0, where deep networks localize
their error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_PANEL_WIDTH = 1e-12
#: Gauss nodes per panel of the build rule.
BUILD_NODES = 16
#: Build-rule nodes per side per mode: 5 K nodes on [0, 1] are 10 nodes per
#: wavelength of e^{i K pi x}.  The integrand g e^{-ik pi x} reaches mode
#: 2K, and 5 is the smallest round value at which a degree-K trigonometric
#: polynomial's coefficients come back to rounding.
BUILD_NODES_PER_MODE = 5


@dataclass(frozen=True)
class QuadratureConfig:
    panels_per_side: int = 64
    nodes_per_panel: int = 12
    grading_ratio: float = 0.7

    def __post_init__(self):
        if self.panels_per_side < 1:
            raise ValueError("panels_per_side must be >= 1")
        if not 2 <= self.nodes_per_panel <= 64:
            raise ValueError("nodes_per_panel must be in [2, 64]")
        if not 0.0 < self.grading_ratio <= 1.0:
            raise ValueError("grading_ratio must be in (0, 1]")


DEFAULT_QUAD = QuadratureConfig()


def build_rule(half_modes: int) -> QuadratureConfig:
    """Uniform rule for the Fourier coefficients of modes -K..K:
    max(1, ceil(5K / 16)) panels of 16 Gauss nodes per side, no grading."""
    panels = max(1, math.ceil(BUILD_NODES_PER_MODE * half_modes / BUILD_NODES))
    return QuadratureConfig(panels, BUILD_NODES, 1.0)


def _positive_breakpoints(cfg: QuadratureConfig) -> np.ndarray:
    pts = set(np.linspace(0.0, 1.0, cfg.panels_per_side + 1).tolist())
    if cfg.grading_ratio < 1.0:
        g = cfg.grading_ratio
        while g > MIN_PANEL_WIDTH:
            pts.add(g)
            g *= cfg.grading_ratio
    bps = np.array(sorted(pts))
    # drop points closer together than the minimum panel width
    keep = [0]
    for i in range(1, len(bps)):
        if bps[i] - bps[keep[-1]] >= MIN_PANEL_WIDTH or i == len(bps) - 1:
            keep.append(i)
    return bps[keep]


@lru_cache(maxsize=32)
def nodes_weights(cfg: QuadratureConfig = DEFAULT_QUAD):
    """Quadrature nodes and weights over [-1, 1] as (x, w) arrays.

    Nodes ascend: panel by panel from -1, each panel's nodes in the order
    of the reference rule (``fourier_coeffs`` relies on this layout).
    """
    ref_x, ref_w = np.polynomial.legendre.leggauss(cfg.nodes_per_panel)
    bps = _positive_breakpoints(cfg)
    los, his = bps[:-1], bps[1:]
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    x_pos = (np.multiply.outer(half, ref_x) + mid[:, None]).ravel()
    w_pos = np.multiply.outer(half, ref_w).ravel()
    x = np.concatenate([-x_pos[::-1], x_pos])
    w = np.concatenate([w_pos[::-1], w_pos])
    return x, w

