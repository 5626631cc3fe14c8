"""Assemble the full deep piecewise approximation network.

The network realizes F(x) = Z_L(x) + H(Z_L(x)) + R(x) as a depth-(L+1)
Fourier ResNet:

* layers 1..L are the width-1 sign construction, with a single sin(x)
  neuron added to layer L's g-branch so the running output is
  Z_L(x) = S_L(x) + sin(x);
* layer L+1 has a g-branch computing the shallow spectral approximation
  R of the smooth residual r = f - q (endpoint data obtained
  analytically, not by differencing), and an h-branch computing H(Z_L)
  where H is the jump-matching trigonometric polynomial.

The sin(x) neuron must sit in layer L specifically: layer L's h-branch
still receives S_{L-1}, so the fixed-point iteration is undisturbed.
For a single-piece (smooth) target the jump vector vanishes and the
builder degenerates to the one-layer shallow network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hermite import TrigPoly, to_branch, zero_poly
from .jump import build_jump_H, q_derivs_at, q_eval
from .network import Branch, FourierResNet, Layer, eval_grid
from .quadrature import DEFAULT_QUAD, QuadratureConfig
from .sign import build_sign_net
from .smooth import build_smooth_branch
from .targets import PiecewiseTarget


@dataclass(frozen=True)
class BuildSpec:
    """What to build: target, Hermite order m, half mode count K, depth L.

    The build's quadrature rule follows from K alone
    (:func:`fresnet.quadrature.build_rule`).  ``quad`` is accepted for
    callers that still pass a rule, but it does not reach the build.
    """

    target: PiecewiseTarget
    m: int
    half_modes: int
    depth: int
    quad: QuadratureConfig = field(default=DEFAULT_QUAD)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.half_modes < 0:
            raise ValueError("half_modes must be >= 0")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")


@dataclass(frozen=True)
class ComponentViews:
    """Separately evaluable construction stages, for testing and plotting."""

    net: FourierResNet
    jump_poly: TrigPoly
    s_l: Callable
    z_l: Callable
    q: Callable
    r: Callable
    r_w: Callable


def component_views(spec: BuildSpec) -> ComponentViews:
    target, m = spec.target, spec.m
    f_minus = target.one_sided_derivs(-1.0, "right", m)
    f_plus = target.one_sided_derivs(1.0, "left", m)
    sign_net = build_sign_net(spec.depth)

    if target.is_smooth:
        # No jump: H = 0, q = z cancels out of the final sum; emit the
        # shallow single-layer network directly.
        smooth_branch = build_smooth_branch(
            target.eval, f_minus, f_plus, m, spec.half_modes
        )
        net = FourierResNet((Layer(smooth_branch),))
        h_poly = zero_poly(m)
        r_fn = target.eval

        def q_fn(x):
            # Degenerate decomposition f = q + r with q = 0, r = f.
            return np.zeros(np.shape(np.asarray(x, dtype=float)))

    else:
        alphas = target.one_sided_derivs(0.0, "left", m)
        betas = target.one_sided_derivs(0.0, "right", m)
        h_poly = build_jump_H(alphas, betas)

        def q_fn(x):
            return q_eval(h_poly, x)

        def r_fn(x):
            return target.eval(x) - q_fn(x)

        r_minus = f_minus - q_derivs_at(-1.0, "right", h_poly, m)
        r_plus = f_plus - q_derivs_at(1.0, "left", h_poly, m)
        smooth_branch = build_smooth_branch(
            r_fn, r_minus, r_plus, m, spec.half_modes
        )

        layers = list(sign_net.layers)
        last = layers[-1]
        sin_neuron = Branch((1.0,), (1.0,), (0.0,))
        layers[-1] = Layer(sin_neuron, last.h_branch)
        layers.append(Layer(smooth_branch, to_branch(h_poly)))
        net = FourierResNet(tuple(layers))

    def s_l(x):
        return eval_grid(sign_net, x)

    def z_l(x):
        return s_l(x) + np.sin(np.asarray(x, dtype=float))

    return ComponentViews(
        net=net,
        jump_poly=h_poly,
        s_l=s_l,
        z_l=z_l,
        q=q_fn,
        r=r_fn,
        r_w=smooth_branch,
    )


def build_piecewise_net(spec: BuildSpec) -> FourierResNet:
    return component_views(spec).net


def suggested_architecture(eps: float, m: int, c: float = 1.0):
    """(depth, width) sufficient for accuracy eps under the rate bound.

    Inverts c (2^{-L/2} + W^{-m+1/2}) <= eps termwise: logarithmic depth,
    algebraic width.  ``c`` is the (target-dependent) rate constant; this
    is a documented formula, not an optimizer.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    depth = max(2, math.ceil(2 * math.log2(2 * c / eps)))
    width = math.ceil((2 * c / eps) ** (1.0 / (m - 0.5)))
    return depth, width
