"""Full assembly: wiring identities, error split, spec validation."""

import math
import sys

import numpy as np
import pytest

from fresnet import hermite, jump, network, quadrature, sign, smooth
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import RESIDUAL_BOUND, scaled_residual
from fresnet.jump import q_derivs_at, q_eval
from fresnet.metrics import lp_error
from fresnet.quadrature import QuadratureConfig
from fresnet.sign import build_sign_net
from fresnet.targets import PiecewiseTarget, target_lookup
from oracles import forget_solves, held_solves


def grid_no_zero(n=1001):
    g = np.linspace(-1, 1, n)
    return g[g != 0]


def test_network_realizes_component_sum():
    # f_net(x) == Z_L(x) + H(Z_L(x)) + R_W(x) exactly, by wiring
    spec = BuildSpec(target_lookup("pw_smooth"), 2, 8, 8)
    net = build_piecewise_net(spec)
    last = net.layers[-1]
    xs = grid_no_zero()
    z = network.eval_prefix(net, xs, spec.depth)
    expect = z + last.h_branch(z) + last.g_branch(xs)
    assert network.eval_grid(net, xs) == pytest.approx(expect, abs=1e-12)


def test_jump_poly_is_the_h_branch_and_its_plans_are_reused():
    m = 3
    h_poly = build_piecewise_net(BuildSpec(target_lookup("hat"), m, 8, 6)).layers[-1].h_branch
    # the build evaluated H (in q) through the branch the net holds, so the
    # net's h-branch already carries that evaluation plan
    assert "_plan" in h_poly.__dict__
    first = q_derivs_at(1.0, "left", h_poly, m)
    again = q_derivs_at(1.0, "left", h_poly, m)
    assert np.array_equal(again, first)
    smooth = build_piecewise_net(BuildSpec(target_lookup("smooth_nonper"), m, 8, 6))
    assert smooth.layers[-1].h_branch is None


def test_decomposition_f_equals_q_plus_r():
    for name in ("pw_smooth", "hat"):
        t = target_lookup(name)
        last = build_piecewise_net(BuildSpec(t, 2, 8, 6)).layers[-1]
        xs = grid_no_zero()
        q = q_eval(last.h_branch, xs)
        r = t.eval(xs) - q
        assert q + r == pytest.approx(t.eval(xs), abs=1e-12)
        # the net's g-branch R_W stands for r: q + R_W is f to within the
        # width error, about 1e-4 at K = 8
        assert q + last.g_branch(xs) == pytest.approx(t.eval(xs), abs=1e-3)


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
    net = build_piecewise_net(spec)
    xs = grid_no_zero(301)
    s = network.eval_grid(build_sign_net(6), xs)
    assert network.eval_prefix(net, xs, 6) == pytest.approx(s + np.sin(xs), abs=1e-14)


def test_residual_is_smooth_across_breakpoint():
    # r = f - q must have matching one-sided values at 0 (the jump cancels)
    t = target_lookup("pw_smooth")
    h_poly = build_piecewise_net(BuildSpec(t, 3, 8, 6)).layers[-1].h_branch

    def r(x):
        return t.eval(x) - q_eval(h_poly, x)

    eps = 1e-7
    assert r(-eps) == pytest.approx(r(eps), abs=1e-5)


def test_a_build_calls_each_stage_by_a_name_a_tracer_can_rebind(monkeypatch):
    """A tracer records a build stage by rebinding the stage's function in
    every fresnet module that holds it, and a method on its class (as
    ``bench/spans.py`` does); a traced run fails when a stage records no
    calls.  So one build must reach every stage through such a name, also
    when an earlier build at the same K filled the per-K caches."""
    spec = BuildSpec(target_lookup("pw_smooth"), 2, 8, 6)
    build_piecewise_net(spec)
    calls = {}

    def counting(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in ((sign, "build_sign_net"), (jump, "build_jump_H"),
                         (jump, "q_derivs_at"), (jump, "q_eval"),
                         (smooth, "build_smooth_branch"), (smooth, "fourier_coeffs"),
                         (hermite, "hermite_endpoint"), (quadrature, "nodes_weights")):
        orig = getattr(module, name)
        wrapper = counting(name, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "fresnet" or mod_name.startswith("fresnet.")):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, wrapper)
    for name in ("one_sided_derivs", "eval"):
        method = PiecewiseTarget.__dict__[name]
        monkeypatch.setattr(PiecewiseTarget, name, counting(f"PiecewiseTarget.{name}", method))
    build_piecewise_net(spec)
    assert len(calls) == 10 and all(calls.values()), calls


def rebind_everywhere(monkeypatch, module, name, wrapper):
    """Rebind ``module.name`` in every fresnet module that holds it."""
    orig = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "fresnet" or mod_name.startswith("fresnet.")):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapper)


@pytest.mark.parametrize("m", (1, 4, 8, 12))
@pytest.mark.parametrize("name", ("sgn", "pw_smooth", "hat"))
def test_the_net_holds_each_solve_and_its_verdict(monkeypatch, name, m):
    """H is the last h-branch and H_r the last g-branch's entries after its
    2K+1 spectral ones, in the built net and in its loaded copy; the verdict
    on either slice, from endpoint data recomputed from the spec, is the
    value the solve was judged by."""
    forget_solves()
    solves, verdicts = [], []
    real_solve = hermite.hermite_endpoint
    real_verdict = hermite.scaled_residual

    def spy_solve(alphas, betas):
        solves.append(real_solve(alphas, betas))
        return solves[-1]

    def spy_verdict(branch, alphas, betas):
        verdicts.append(real_verdict(branch, alphas, betas))
        return verdicts[-1]

    rebind_everywhere(monkeypatch, hermite, "hermite_endpoint", spy_solve)
    rebind_everywhere(monkeypatch, hermite, "scaled_residual", spy_verdict)
    t, k = target_lookup(name), 64
    net = build_piecewise_net(BuildSpec(t, m, k, 20))
    assert len(solves) == len(verdicts) == 2
    for held in (net, network.deserialize(network.serialize(net))):
        for (branch, data), solve, judged in zip(held_solves(t, held, m, k), solves, verdicts):
            assert branch == solve
            value = scaled_residual(branch, *data)
            assert value == judged and value <= 1e-10 < RESIDUAL_BOUND, (value, judged)


def test_a_spec_rule_does_not_reach_the_build():
    # BuildSpec.quad is kept for one caller and must build the default net
    t = target_lookup("pw_smooth")
    ruled = BuildSpec(t, 2, 16, 8, QuadratureConfig(8, 4, 0.5))
    assert network.serialize(build_piecewise_net(ruled)) == network.serialize(
        build_piecewise_net(BuildSpec(t, 2, 16, 8)))


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
    xs = grid_no_zero(501)
    err = np.max(np.abs(network.eval_grid(net, xs) - t.eval(xs)))
    assert err < 1e-4


def test_neuron_count_formula():
    for (m, k, depth) in ((1, 3, 5), (2, 16, 10), (4, 40, 20)):
        net = build_piecewise_net(BuildSpec(target_lookup("hat"), m, k, depth))
        assert network.neuron_count(net) == depth + 2 * k + 1 + 4 * (m + 1)


def test_build_spec_validation():
    t = target_lookup("hat")
    with pytest.raises(ValueError, match="m must be >= 1"):
        BuildSpec(t, 0, 4, 5)
    with pytest.raises(ValueError, match="half_modes must be >= 0"):
        BuildSpec(t, 1, -1, 5)
    with pytest.raises(ValueError, match="depth must be >= 2"):
        BuildSpec(t, 1, 4, 1)
    # a float or a bool is refused by name, not failed deep in the build or
    # (True) built as m = 1
    for args, field in (((2, 2.5, 20), "half_modes"), ((2.0, 4, 20), "m"),
                        ((2, 4, 20.0), "depth"), ((True, 4, 20), "m"),
                        ((2, False, 20), "half_modes"), ((2, 4, np.float64(20)), "depth"),
                        ((2, "4", 20), "half_modes")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            BuildSpec(t, *args)
    # numpy integers are integers, stored as int, so a uint8 K = 200 does not
    # overflow in the build's sizes and builds the same net
    spec = BuildSpec(t, np.int64(2), np.uint8(200), np.int32(6))
    assert [type(v) for v in (spec.m, spec.half_modes, spec.depth)] == [int] * 3
    assert network.serialize(build_piecewise_net(spec)) == network.serialize(
        build_piecewise_net(BuildSpec(t, 2, 200, 6)))


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

    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 1, 4, 8))
    sign_net = build_sign_net(8)
    sgn = lookup("sgn")
    e_z = lp_error(z_eval, lambda x: network.eval_prefix(net, x, 8), 2.0)
    e_s = lp_error(sgn.eval, lambda x: network.eval_grid(sign_net, x), 2.0)
    assert e_z == e_s  # the sin(x) term cancels identically


def test_error_split_bound():
    # ||f - F|| <= ||sgn - S_L|| (1 + Lip(H)) + ||r - R_W||, Lip over [-1.01, 1.01]
    from oracles import max_abs_deriv
    from fresnet.targets import target_lookup as lookup

    sgn = lookup("sgn")
    for name in ("pw_smooth", "hat"):
        t = target_lookup(name)
        for m, half, depth in ((1, 5, 12), (2, 16, 16), (3, 32, 20)):
            net = build_piecewise_net(BuildSpec(t, m, half, depth))
            sign_net = build_sign_net(depth)
            h_poly, r_w = net.layers[-1].h_branch, net.layers[-1].g_branch
            lhs = lp_error(t.eval, lambda x: network.eval_grid(net, x), 2.0)
            rhs = (
                lp_error(sgn.eval, lambda x: network.eval_grid(sign_net, x), 2.0)
                * (1 + max_abs_deriv(h_poly, -1.01, 1.01))
                + lp_error(lambda x: t.eval(x) - q_eval(h_poly, x), r_w, 2.0)
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
