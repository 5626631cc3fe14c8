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

import numbers
from dataclasses import dataclass, field

from .jump import build_jump_H, q_derivs_at, q_eval
from .network import Branch, FourierResNet, Layer
from .quadrature import DEFAULT_QUAD, QuadratureConfig
from .sign import build_sign_net
from .smooth import build_smooth_branch
from .targets import PiecewiseTarget


#: The sin(x) neuron of layer L's g-branch, the same in every net, so its
#: evaluation plan is built once per process, as the cached sign net's are.
_SIN_NEURON = Branch((1.0,), (1.0,), (0.0,))


@dataclass(frozen=True)
class BuildSpec:
    """What to build: target, Hermite order m, half mode count K, depth L.

    The build's quadrature rule follows from K alone
    (:func:`fresnet.quadrature.build_rule`).  ``quad`` does not reach the
    build: a spec with any rule builds the same net.  It is kept only for
    its one caller, the convergence-sweep workload's ``accuracy_net`` in
    ``bench/workloads.py``, which still passes the CLI's rule.
    """

    target: PiecewiseTarget
    m: int
    half_modes: int
    depth: int
    quad: QuadratureConfig = field(default=DEFAULT_QUAD)

    def __post_init__(self):
        for name, low in (("m", 1), ("half_modes", 0), ("depth", 2)):
            value = getattr(self, name)
            # bool is an Integral, but True is no order, mode count or depth
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
            # a fixed-width numpy integer would overflow in the build's sizes
            object.__setattr__(self, name, int(value))


def build_piecewise_net(spec: BuildSpec) -> FourierResNet:
    """The net F = Z_L + H(Z_L) + R_W of ``spec``.

    Each stage is read from the net: H is ``net.layers[-1].h_branch``, R_W
    is ``net.layers[-1].g_branch`` and Z_L is
    :func:`fresnet.network.eval_prefix` of the first L layers.
    """
    target, m = spec.target, spec.m
    f_minus = target.one_sided_derivs(-1.0, "right", m)
    f_plus = target.one_sided_derivs(1.0, "left", m)

    if target.is_smooth:
        # No jump: H = 0, q = z cancels out of the final sum; emit the
        # shallow single-layer network directly.
        smooth_branch = build_smooth_branch(target.eval, f_minus, f_plus, spec.half_modes)
        return FourierResNet((Layer(smooth_branch),))

    alphas = target.one_sided_derivs(0.0, "left", m)
    betas = target.one_sided_derivs(0.0, "right", m)
    h_poly = build_jump_H(alphas, betas)

    def r(x):
        # the smooth residual r = f - q, with q = z + H(z)
        return target.eval(x) - q_eval(h_poly, x)

    r_minus = f_minus - q_derivs_at(-1.0, "right", h_poly, m)
    r_plus = f_plus - q_derivs_at(1.0, "left", h_poly, m)
    smooth_branch = build_smooth_branch(r, r_minus, r_plus, spec.half_modes)

    layers = list(build_sign_net(spec.depth).layers)
    layers[-1] = Layer(_SIN_NEURON, layers[-1].h_branch)
    layers.append(Layer(smooth_branch, h_poly))
    return FourierResNet(tuple(layers))
