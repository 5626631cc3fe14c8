"""Deep sign construction: structure, frozen values, iteration properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fresnet import network
from fresnet.sign import build_sign_net, sign_error_bound, truncated_sign_series
from oracles import phi


def test_structure():
    net = build_sign_net(4)
    assert net.depth == 4
    first = net.layers[0]
    assert first.g_branch.freqs == (math.pi / 2,)
    assert first.g_branch.sin_amps == (1.0,)
    assert first.h_branch is None
    for layer in net.layers[1:]:
        assert layer.g_branch.width == 0
        assert layer.h_branch.freqs == (math.pi,)
        assert layer.h_branch.sin_amps == (1 / math.pi,)
    assert network.neuron_count(net) == 4
    with pytest.raises(ValueError):
        build_sign_net(0)


def test_sign_net_is_cached_per_depth():
    assert build_sign_net(60) is build_sign_net(60)
    assert build_sign_net(61).depth == 61


def test_depth_two_value_is_phi_of_layer_one():
    # Oracle computed from scratch: S_2(1/2) = phi(sin(pi/4))
    y1 = math.sin(math.pi / 4)
    expect = y1 + math.sin(math.pi * y1) / math.pi
    assert network.eval_prefix(build_sign_net(2), 0.5, 2) == pytest.approx(expect, abs=1e-16)


def test_network_iterates_phi():
    net = build_sign_net(6)
    xs = np.linspace(-1, 1, 41)
    v = np.sin(np.pi * xs / 2)
    for ell in range(1, 7):
        assert network.eval_prefix(net, xs, ell) == pytest.approx(v, abs=1e-14)
        v = phi(v)


def test_phi_fixed_points_and_monotonicity():
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(1.0, abs=1e-16)
    assert phi(-1.0) == pytest.approx(-1.0, abs=1e-16)
    ys = np.linspace(-1, 1, 2001)
    assert np.all(np.diff(phi(ys)) >= 0)  # phi' = 1 + cos(pi y) >= 0
    inside = ys[(ys > 0) & (ys < 1)]
    assert np.all(phi(inside) > inside)  # pushed toward +1


@given(st.integers(min_value=1, max_value=30))
def test_iterates_stay_in_unit_interval(depth):
    xs = np.linspace(-1, 1, 257)
    v = network.eval_prefix(build_sign_net(depth), xs, depth)
    assert np.all(np.abs(v) <= 1.0 + 1e-12)


def test_error_bound_frozen_values():
    assert sign_error_bound(1, 1.0) == pytest.approx(2.0)
    assert sign_error_bound(3, 1.0) == pytest.approx(0.5)
    # p = 2: (4/2)^(1/2) 2^(-l/2)
    assert sign_error_bound(2, 2.0) == pytest.approx(math.sqrt(2.0) / 2)
    with pytest.raises(ValueError):
        sign_error_bound(0, 1.0)
    with pytest.raises(ValueError):
        sign_error_bound(1, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite positive"):
            sign_error_bound(1, bad)


def test_truncated_series_frozen_partial_sum():
    br = truncated_sign_series(2)
    assert br.freqs == pytest.approx((math.pi, 3 * math.pi))
    assert br.sin_amps == pytest.approx((4 / math.pi, 4 / (3 * math.pi)))
    x = 0.25
    expect = (4 / math.pi) * math.sin(math.pi * x) + (4 / (3 * math.pi)) * math.sin(
        3 * math.pi * x
    )
    assert br(np.array([x]))[0] == pytest.approx(expect, abs=1e-15)
    with pytest.raises(ValueError):
        truncated_sign_series(0)


def test_series_is_odd_and_periodic_partial_sum():
    br = truncated_sign_series(9)
    xs = np.linspace(0.01, 0.99, 50)
    assert br(-xs) == pytest.approx(-br(xs), abs=1e-13)


def test_series_l1_error_matches_brute_force_oracle():
    # independent fine trapezoid tabulation vs the package quadrature
    from fresnet.metrics import lp_error
    from fresnet.targets import target_lookup

    sgn = target_lookup("sgn")
    br = truncated_sign_series(20)
    # even point count: x = 0 is never sampled (sgn's measure-zero value
    # there would punch a spurious dip into the trapezoid sum).  The |.|
    # kinks at the Gibbs zero-crossings sit inside Gauss panels and limit
    # the package rule to ~1e-4 relative accuracy for this integrand.
    xs = np.linspace(-1.0, 1.0, 400000)
    brute = np.trapezoid(np.abs(sgn.eval(xs) - br(xs)), xs)
    assert lp_error(sgn.eval, br, 1.0) == pytest.approx(brute, rel=1e-3)


def test_series_gibbs_overshoot_at_20_terms():
    from oracles import max_overshoot

    assert max_overshoot(truncated_sign_series(20), -1.0, 1.0) > 0.08
