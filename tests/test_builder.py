"""Full assembly: wiring identities, error split, architecture formula."""

import math

import numpy as np
import pytest

from fresnet import network
from fresnet.builder import (
    BuildSpec,
    build_piecewise_net,
    component_views,
    suggested_architecture,
)
from fresnet.jump import q_derivs_at, q_eval
from fresnet.metrics import lp_error
from fresnet.network import Branch
from fresnet.sign import build_sign_net
from fresnet.targets import target_lookup


def grid_no_zero(n=1001):
    g = np.linspace(-1, 1, n)
    return g[g != 0]


def test_network_realizes_component_sum():
    # f_net(x) == Z_L(x) + H(Z_L(x)) + R_W(x) exactly, by wiring
    spec = BuildSpec(target_lookup("pw_smooth"), 2, 8, 8)
    v = component_views(spec)
    xs = grid_no_zero()
    z = v.z_l(xs)
    expect = z + v.jump_poly(z) + v.r_w(xs)
    assert network.eval_grid(v.net, xs) == pytest.approx(expect, abs=1e-12)


def test_jump_poly_is_the_h_branch_and_its_plans_are_reused():
    m = 3
    v = component_views(BuildSpec(target_lookup("hat"), m, 8, 6))
    assert v.jump_poly is v.net.layers[-1].h_branch
    assert v.r_w is v.net.layers[-1].g_branch
    # the build evaluated H (in q) through the branch the net holds, so the
    # net's h-branch already carries that evaluation plan
    assert "_plan" in v.jump_poly.__dict__
    first = q_derivs_at(1.0, "left", v.jump_poly, m)
    again = q_derivs_at(1.0, "left", v.jump_poly, m)
    assert np.array_equal(again, first)
    smooth = component_views(BuildSpec(target_lookup("smooth_nonper"), m, 8, 6))
    assert smooth.jump_poly == Branch((), (), ())
    assert smooth.net.layers[-1].h_branch is None


def test_decomposition_f_equals_q_plus_r():
    for name in ("pw_smooth", "hat"):
        t = target_lookup(name)
        v = component_views(BuildSpec(t, 2, 8, 6))
        xs = grid_no_zero()
        assert v.q(xs) + v.r(xs) == pytest.approx(t.eval(xs), abs=1e-12)
        assert v.q(xs) == pytest.approx(q_eval(v.jump_poly, xs), abs=1e-14)


def test_sign_layers_preserved_with_sin_neuron():
    spec = BuildSpec(target_lookup("hat"), 1, 4, 7)
    net = build_piecewise_net(spec)
    ref = build_sign_net(7)
    assert net.depth == 8
    for i in range(6):
        assert net.layers[i] == ref.layers[i]
    last_sign = net.layers[6]
    assert last_sign.g_branch.freqs == (1.0,)  # the added sin(x) neuron
    assert last_sign.g_branch.sin_amps == (1.0,)
    assert last_sign.h_branch == ref.layers[6].h_branch
    # final layer: smooth g-branch + jump h-branch
    final = net.layers[7]
    assert final.h_branch is not None
    assert final.h_branch.width == 4  # 2(m+1) with m=1


def test_z_l_matches_sign_prefix_plus_sin():
    spec = BuildSpec(target_lookup("pw_smooth"), 1, 4, 6)
    v = component_views(spec)
    xs = grid_no_zero(301)
    s = network.eval_grid(build_sign_net(6), xs)
    assert v.z_l(xs) == pytest.approx(s + np.sin(xs), abs=1e-14)


def test_residual_is_smooth_across_breakpoint():
    # r = f - q must have matching one-sided values at 0 (the jump cancels)
    t = target_lookup("pw_smooth")
    v = component_views(BuildSpec(t, 3, 8, 6))
    eps = 1e-7
    assert v.r(-eps) == pytest.approx(v.r(eps), abs=1e-5)


def test_end_to_end_accuracy_moderate_budget():
    t = target_lookup("pw_smooth")
    net = build_piecewise_net(BuildSpec(t, 2, 32, 20))
    err = lp_error(t.eval, lambda x: network.eval_grid(net, x), 2.0)
    assert err < 5e-3


def test_smooth_target_degenerates_to_single_layer():
    t = target_lookup("smooth_nonper")
    spec = BuildSpec(t, 3, 24, 5)
    net = build_piecewise_net(spec)
    assert net.depth == 1
    v = component_views(spec)
    xs = grid_no_zero(501)
    assert v.q(xs) == pytest.approx(np.zeros_like(xs))
    assert v.r(xs) == pytest.approx(t.eval(xs))
    err = np.max(np.abs(network.eval_grid(net, xs) - t.eval(xs)))
    assert err < 1e-4


def test_neuron_count_formula():
    for (m, k, depth) in ((1, 3, 5), (2, 16, 10), (4, 40, 20)):
        net = build_piecewise_net(BuildSpec(target_lookup("hat"), m, k, depth))
        assert network.neuron_count(net) == depth + 2 * k + 1 + 4 * (m + 1)


def test_suggested_architecture():
    depth, width = suggested_architecture(1e-3, 2)
    assert depth >= 2 and width >= 1
    # halving eps never shrinks the suggestion
    d2, w2 = suggested_architecture(5e-4, 2)
    assert d2 >= depth and w2 >= width
    # frozen value: eps = 2^-8, c = 1, m = 2 -> depth = 2*log2(2^9) = 18
    assert suggested_architecture(2.0**-8, 2)[0] == 18
    with pytest.raises(ValueError):
        suggested_architecture(0.0, 2)
    with pytest.raises(ValueError):
        suggested_architecture(1e-3, 0)


def test_build_spec_validation():
    t = target_lookup("hat")
    with pytest.raises(ValueError):
        BuildSpec(t, 0, 4, 5)
    with pytest.raises(ValueError):
        BuildSpec(t, 1, -1, 5)
    with pytest.raises(ValueError):
        BuildSpec(t, 1, 4, 1)


def test_neuron_count_second_published_size():
    # m=1, W=10 (K=5), L=11 -> 30 neurons
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 1, 5, 11))
    assert network.neuron_count(net) == 30


def test_zero_target_cancellation():
    from fresnet.targets import PiecewiseTarget

    zero = PiecewiseTarget("_zero", lambda u: 0.0 * u, lambda u: 0.0 * u + 0.0, 0.0)
    net = build_piecewise_net(BuildSpec(zero, 2, 16, 20))
    xs = grid_no_zero(4001)
    # H must cancel z's jump so the full output stays near 0
    assert np.max(np.abs(network.eval_grid(net, xs))) <= 0.05


def test_sgn_target_zero_width():
    from fresnet.sign import sign_error_bound

    t = target_lookup("sgn")
    for depth in (6, 12):
        net = build_piecewise_net(BuildSpec(t, 1, 0, depth))
        err = lp_error(t.eval, lambda x: network.eval_grid(net, x), 2.0)
        assert err <= sign_error_bound(depth, 2.0), (depth, err)
        # endpoints are exact fixed points of the sign iteration
        assert network.eval_grid(net, np.array([-1.0, 1.0])) == pytest.approx(
            [-1.0, 1.0], abs=1e-9
        )


def test_z_minus_zl_equals_sgn_minus_sl():
    from fresnet.jump import z_eval
    from fresnet.targets import target_lookup as lookup

    v = component_views(BuildSpec(target_lookup("pw_smooth"), 1, 4, 8))
    sgn = lookup("sgn")
    e_z = lp_error(z_eval, v.z_l, 2.0)
    e_s = lp_error(sgn.eval, v.s_l, 2.0)
    assert e_z == e_s  # the sin(x) term cancels identically


def test_error_split_bound():
    # ||f - F|| <= ||sgn - S_L|| (1 + Lip(H)) + ||r - R_W||, Lip over [-1.01, 1.01]
    from oracles import max_abs_deriv
    from fresnet.targets import target_lookup as lookup

    sgn = lookup("sgn")
    for name in ("pw_smooth", "hat"):
        t = target_lookup(name)
        for m, half, depth in ((1, 5, 12), (2, 16, 16), (3, 32, 20)):
            v = component_views(BuildSpec(t, m, half, depth))
            lhs = lp_error(t.eval, lambda x: network.eval_grid(v.net, x), 2.0)
            rhs = (
                lp_error(sgn.eval, v.s_l, 2.0)
                * (1 + max_abs_deriv(v.jump_poly, -1.01, 1.01))
                + lp_error(v.r, v.r_w, 2.0)
            )
            assert lhs <= rhs, (name, m, half, depth, lhs, rhs)


def test_amplitudes_bounded_across_depth():
    def max_amp(net):
        worst = 0.0
        for layer in net.layers:
            branches = [layer.g_branch] + ([layer.h_branch] if layer.h_branch else [])
            for br in branches:
                for a, b in zip(br.sin_amps, br.cos_amps):
                    worst = max(worst, math.hypot(a, b))
        return worst

    amps = [
        max_amp(build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 2, 16, depth)))
        for depth in range(2, 21)
    ]
    assert (max(amps) - min(amps)) / min(amps) < 0.10
