"""Error metrics: closed-form norms, the Gibbs profile against the oracles'
one-approximation measurements, and the oracles' exact rate recovery."""

import math

import numpy as np
import pytest

from fresnet.metrics import DEFAULT_GRID_N, gibbs_profile, lp_error
from oracles import fit_rate, gibbs_support_width, max_overshoot


def profile(f, approx, threshold=0.5, lo=-1.0, hi=1.0):
    """The library's (support width, overshoot) of one approximation."""
    [pair] = gibbs_profile(f, [("approx", approx)], threshold, lo, hi)
    return pair


def brute_force_lp(f, g, p, n=200001):
    # trapezoid on a dense uniform grid; independent of the package quadrature
    xs = np.linspace(-1, 1, n)
    return float(np.trapezoid(np.abs(f(xs) - g(xs)) ** p, xs) ** (1 / p))


def test_constant_difference_norms():
    one = lambda x: np.ones_like(x)  # noqa: E731
    zero = lambda x: np.zeros_like(x)  # noqa: E731
    assert lp_error(one, zero, 1.0) == pytest.approx(2.0, rel=1e-13)
    assert lp_error(one, zero, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_identity_l2_norm_closed_form():
    # ||x||_{L^2[-1,1]} = sqrt(2/3)
    got = lp_error(lambda x: x, lambda x: np.zeros_like(x), 2.0)
    assert got == pytest.approx(math.sqrt(2 / 3), rel=1e-13)


def test_agrees_with_brute_force_quadrature():
    f = lambda x: np.sin(3 * x) + x**2  # noqa: E731
    g = lambda x: np.cos(x)  # noqa: E731
    for p in (1.0, 2.0):
        # trapezoid is only ~O(h^2) at the kinks of |f - g|
        assert lp_error(f, g, p) == pytest.approx(brute_force_lp(f, g, p), rel=1e-5)


def test_fit_rate_recovers_exact_power_law():
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    errs = 3.5 * xs**-2.5
    fit = fit_rate(xs, errs)
    assert fit.slope == pytest.approx(-2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 5


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([1.0], [1.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        fit_rate([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, 2.0, 3.0])
    # NaN passes a test of err <= 0 and gave an all-NaN fit
    for xs, errs in (([1.0, 2.0], [1.0, math.nan]), ([1.0, 2.0], [1.0, math.inf]),
                     ([1.0, math.inf], [1.0, 0.5]), ([math.nan, 2.0], [1.0, 0.5])):
        with pytest.raises(ValueError, match="finite"):
            fit_rate(xs, errs)


def test_gibbs_support_width():
    f = lambda x: np.zeros_like(x)  # noqa: E731
    bump = lambda x: np.where(np.abs(x) < 0.25, 1.0, 0.0)  # noqa: E731
    w = gibbs_support_width(f, bump, 0.5)
    assert w == pytest.approx(0.25, abs=1e-3)
    assert profile(f, bump)[0] == w
    assert gibbs_support_width(f, f, 0.5) == profile(f, f)[0] == 0.0
    # one-sided support: the largest |x| is at the left end
    left = lambda x: np.where(x < -0.6, 1.0, 0.0)  # noqa: E731
    assert gibbs_support_width(f, left, 0.5) == profile(f, left)[0] == 1.0
    # nan passes a test of threshold <= 0, and inf would give every width 0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gibbs_support_width(f, f, bad)
        with pytest.raises(ValueError, match="threshold"):
            profile(f, f, bad)


def test_max_overshoot():
    inside = lambda x: 0.9 * np.sin(x)  # noqa: E731
    assert max_overshoot(inside, -1.0, 1.0) == profile(inside, inside)[1] == 0.0
    spike = lambda x: 1.2 * np.ones_like(x)  # noqa: E731
    assert max_overshoot(spike, -1.0, 1.0) == pytest.approx(0.2, rel=1e-12)
    low = lambda x: -1.5 * np.ones_like(x)  # noqa: E731
    assert max_overshoot(low, -1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    for approx in (spike, low):
        assert profile(inside, approx)[1] == max_overshoot(approx, -1.0, 1.0)
    for lo, hi in ((math.nan, 1.0), (-1.0, math.nan), (1.0, -1.0)):
        with pytest.raises(ValueError):
            max_overshoot(inside, lo, hi)
        with pytest.raises(ValueError, match="lo must be"):
            profile(inside, inside, lo=lo, hi=hi)


def test_non_finite_values_are_refused():
    # NaN compares false with every threshold and band edge, so it would
    # read as no Gibbs support and no overshoot
    nan = lambda x: np.full_like(x, np.nan)  # noqa: E731
    with pytest.raises(ValueError, match="non-finite"):
        max_overshoot(nan, -1.0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        gibbs_support_width(np.sin, nan, 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        gibbs_support_width(nan, np.sin, 0.1)
    with pytest.raises(ValueError, match="^f has a non-finite"):
        profile(nan, np.sin)
    one_inf = lambda x: np.where(x == x[-1], np.inf, np.sin(x))  # noqa: E731
    pairs = gibbs_profile(np.sin, enumerate([np.sin, one_inf]), 0.1, -1.0, 1.0)
    assert next(pairs) == (0.0, 0.0)
    with pytest.raises(ValueError, match="^approximation 1 has a non-finite"):
        next(pairs)


def test_gibbs_profile_checks_its_arguments_before_evaluating_f():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(x)

    for threshold, lo, hi in ((math.inf, -1.0, 1.0), (0.1, 1.0, 1.0)):
        with pytest.raises(ValueError):
            next(gibbs_profile(f, [("sin", np.sin)], threshold, lo, hi))
    assert calls == []
    assert list(gibbs_profile(f, enumerate([np.sin, np.cos]), 0.1, -1.0, 1.0))[0] == (0.0, 0.0)
    assert calls == [DEFAULT_GRID_N - 1]


def test_lp_error_validation():
    with pytest.raises(ValueError):
        lp_error(lambda x: x, lambda x: x, 0.0)
    with pytest.raises(ValueError):
        lp_error(lambda x: x, lambda x: x, (1.0, 0.0))
    # nan passes a test of p <= 0, and inf would give 1.0 for every error
    for bad in (math.nan, math.inf, -math.inf, (1.0, math.nan), (math.inf, 2.0)):
        with pytest.raises(ValueError, match="finite positive"):
            lp_error(lambda x: x, lambda x: 0 * x, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("p", [2.0, (1.0, 2.0)], ids=["scalar-p", "tuple-p"])
def test_lp_error_refuses_a_non_finite_value(bad, p):
    # one bad node would make every norm NaN or inf
    one_bad = lambda x: np.where(x == x[-1], bad, np.sin(x))  # noqa: E731
    with pytest.raises(ValueError, match="^f has a non-finite value on the quadrature nodes$"):
        lp_error(one_bad, np.sin, p)
    with pytest.raises(ValueError, match="^g has a non-finite value on the quadrature nodes$"):
        lp_error(np.sin, one_bad, p)
    # f is refused before g is evaluated
    calls = []

    def g(x):
        calls.append(x.size)
        return np.sin(x)

    with pytest.raises(ValueError, match="^f has"):
        lp_error(one_bad, g, p)
    assert calls == []


def test_lp_error_tuple_of_exponents_evaluates_once():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(3 * x) + x**2

    g = lambda x: np.cos(x)  # noqa: E731
    norms = lp_error(f, g, (1.0, 2.0, 0.5))
    assert len(calls) == 1
    assert norms == tuple(lp_error(f, g, p) for p in (1.0, 2.0, 0.5))


def test_lp_error_symmetry_and_self_distance():
    f = lambda x: np.sin(2 * x)  # noqa: E731
    g = lambda x: x**3  # noqa: E731
    assert lp_error(f, g, 2.0) == lp_error(g, f, 2.0)
    assert lp_error(f, f, 1.5) <= 1e-14


def test_fit_rate_scale_invariance():
    xs = np.array([1.0, 2.0, 5.0, 9.0])
    errs = np.array([0.9, 0.31, 0.07, 0.021])
    s1 = fit_rate(xs, errs).slope
    s2 = fit_rate(xs, 137.0 * errs).slope
    assert abs(s1 - s2) <= 1e-12


def test_quadrature_panel_doubling_self_consistency():
    from fresnet import network
    from fresnet.builder import BuildSpec, build_piecewise_net
    from fresnet.quadrature import QuadratureConfig
    from fresnet.targets import target_lookup

    for name, m, half, depth in (("pw_smooth", 2, 32, 20), ("hat", 1, 8, 12)):
        t = target_lookup(name)
        net = build_piecewise_net(BuildSpec(t, m, half, depth))
        approx = lambda x: network.eval_grid(net, x)  # noqa: E731
        e1 = lp_error(t.eval, approx, 2.0, QuadratureConfig(64, 12, 0.7))
        e2 = lp_error(t.eval, approx, 2.0, QuadratureConfig(128, 12, 0.7))
        assert abs(e1 - e2) <= 1e-8 * e1, (name, e1, e2)
