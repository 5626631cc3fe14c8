"""Constructive deep Fourier residual networks for piecewise-smooth targets.

Builds width-1-deep + shallow-spectral networks approximating functions
with a jump at x = 0, with exponential-in-depth and spectral-in-width
error decay and no Gibbs overshoot.

The top level exports the documented surface; every submodule keeps its
own names (``fresnet.network.Branch``, ``fresnet.metrics.gibbs_profile``, ...).
"""

from .builder import BuildSpec, build_piecewise_net
from .metrics import lp_error
from .network import (
    FourierResNet,
    NetworkFormatError,
    deserialize,
    eval_grid,
    load,
    neuron_count,
    save,
    serialize,
)
from .targets import PiecewiseTarget, register_target, registered_names, target_lookup

__all__ = [
    "BuildSpec",
    "FourierResNet",
    "NetworkFormatError",
    "PiecewiseTarget",
    "build_piecewise_net",
    "deserialize",
    "eval_grid",
    "load",
    "lp_error",
    "neuron_count",
    "register_target",
    "registered_names",
    "save",
    "serialize",
    "target_lookup",
]
