"""Builds of generated custom targets, m = 1..12: no warning (pytest turns
every warning into an error), H meets its Hermite conditions in real form,
H and the H_r the net holds pass the solve's verdict in the built and the
loaded net, the error off the jump halves with each doubling of K down to a
rounding floor, and the round trip is exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnet import jets
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import RESIDUAL_BOUND, deriv_rows, scaled_residual
from fresnet.jump import _chain_rule_system
from fresnet.network import deserialize, eval_grid, serialize
from fresnet.targets import PiecewiseTarget
from oracles import branch_modes, held_solves

DEPTH = 60
HALF_MODES = (32, 64, 128, 256)
#: Grid off the jump, |x| >= 0.05, where the sign stack has converged.
GRID = np.linspace(-1.0, 1.0, 2001)
GRID = GRID[np.abs(GRID) >= 0.05]
#: Rounding floor of that error: up to 2.3e-10 at m = 12 over 500 random
#: draws of these pieces at K = 256, and below 1e-13 for m <= 4.
FLOOR = 1e-9


def piece(a, b, c, d):
    """u -> a + b u + c exp(d u) cos(3 d u + 0.3), on arrays and on jets."""
    return lambda u: a + b * u + c * jets.exp(d * u) * jets.cos(3.0 * d * u + 0.3)


coefficient = st.floats(-2.0, 2.0)
pieces = st.tuples(coefficient, coefficient, coefficient, st.floats(-2.5, 2.5))


def hermite_data(target, m):
    """H's endpoint data, from the jump data by the chain-rule systems,
    solved by numpy as an oracle for the library's substitution."""
    data = []
    for side in ("left", "right"):
        zs, bell = _chain_rule_system(0.0, side, m)
        data.append(np.linalg.solve(bell, target.one_sided_derivs(0.0, side, m) - zs))
    return data


def assert_verdicts_pass(target, net, m, k):
    """H and the H_r slice of ``net`` pass the Hermite solve's verdict on
    endpoint data recomputed from the target."""
    for branch, data in held_solves(target, net, m, k):
        assert scaled_residual(branch, *data) <= RESIDUAL_BOUND


@pytest.mark.parametrize("m", range(1, 13))
@settings(derandomize=True, max_examples=3, deadline=None)
@given(pieces, pieces)
def test_generated_target_builds_right(m, left, right):
    target = PiecewiseTarget("_generated", piece(*left), piece(*right), 0.0)
    values = target.eval(GRID)
    # relative to the target, but never below the jump of z that H cancels
    scale = max(1.0, np.max(np.abs(values)))
    errors = []
    for k in HALF_MODES:
        net = build_piecewise_net(BuildSpec(target, m, k, DEPTH))
        if k == HALF_MODES[0]:
            freqs, amps = branch_modes(net.layers[-1].h_branch)
            amps = np.array(amps)
            for y, wanted in zip((-1.0, 1.0), hermite_data(target, m)):
                rows = deriv_rows(freqs, y, m)
                residual = np.abs((rows @ amps).real - wanted)
                assert np.all(residual <= 1e-9 * (np.abs(rows) @ np.abs(amps) + np.abs(wanted)))
            assert_verdicts_pass(target, net, m, k)
        errors.append(np.max(np.abs(eval_grid(net, GRID) - values)) / scale)
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse / 2, FLOOR), errors
    text = serialize(net)
    loaded = deserialize(text)
    assert loaded == net and serialize(loaded) == text
    assert_verdicts_pass(target, loaded, m, HALF_MODES[-1])
