"""``eval_grid`` against the net's recursion run at 40 digits.

The reference (``oracles.forward_mp``) evaluates the same net, on its own
float parameters, in mpmath, so its distance to ``eval_grid`` is the
evaluator's rounding alone, apart from the approximation error.  That
rounding is held to a small multiple of eps · S, where S is the sum of
|a| + |b| over the net's entries: the size of the terms the evaluator
sums.
"""

import numpy as np
import pytest

from fresnet import network
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.targets import registered_names, target_lookup
from oracles import forward_mp

#: Eight points off the jump, |x| >= 0.05, both ends of the domain included.
OFF_JUMP = np.array([-1.0, -0.73, -0.41, -0.05, 0.05, 0.38, 0.77, 1.0])

#: Bound on the distance to the reference in units of eps · S.  The largest
#: ratio seen over these targets, orders and widths was 0.82 (smooth_nonper,
#: m = 12, K = 32), so the bound leaves a margin of about 10.
ROUNDING_UNITS = 8.0


def amplitude_sum(net: network.FourierResNet) -> float:
    """S: the sum of |a| + |b| over every entry of every branch."""
    return sum(float(np.abs(br.entries[1:]).sum()) for layer in net.layers
               for br in (layer.g_branch, layer.h_branch) if br is not None)


@pytest.mark.parametrize("name", registered_names())
def test_eval_grid_is_within_a_few_eps_of_the_40_digit_recursion(name):
    eps = np.finfo(float).eps
    for m in (1, 4, 12):
        for k in (8, 32):
            built = build_piecewise_net(BuildSpec(target_lookup(name), m, k, 20))
            for net in (built, network.deserialize(network.serialize(built))):
                got = network.eval_grid(net, OFF_JUMP).tolist()
                err = max(abs(float(r - g)) for r, g in zip(forward_mp(net, OFF_JUMP), got))
                ratio = err / (eps * amplitude_sum(net))
                assert ratio <= ROUNDING_UNITS, (m, k, ratio)
