"""Jet arithmetic: frozen expansions plus algebraic property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnet import jets
from fresnet.jets import (
    Jet,
    JetError,
    derivatives,
    jet_const,
    jet_var,
)

# Bounded coefficients keep the truncated products well away from overflow.
coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def random_jet(draw, order, base=0.5):
    cs = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    return Jet(base, tuple(cs))


jet_pairs = st.integers(min_value=0, max_value=8).flatmap(
    lambda m: st.tuples(
        st.lists(coeff, min_size=m + 1, max_size=m + 1),
        st.lists(coeff, min_size=m + 1, max_size=m + 1),
    )
)


def test_sin_series_at_zero():
    u = jets.sin(jet_var(0.0, 5))
    assert u.coeffs == pytest.approx((0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120), abs=1e-15)


def test_exp_derivatives_all_equal_e():
    d = derivatives(jets.exp(jet_var(1.0, 6)))
    assert d == pytest.approx(np.full(7, math.e), rel=1e-14)


def test_sin_derivatives_cycle():
    a = 0.7
    d = derivatives(jets.sin(jet_var(a, 8)))
    expected = [math.sin(a + k * math.pi / 2) for k in range(9)]
    assert d == pytest.approx(expected, abs=1e-13)


def test_variable_and_constant_jets():
    v = jet_var(2.0, 3)
    assert v.coeffs == (2.0, 1.0, 0.0, 0.0)
    c = jet_const(5.0, 2.0, 3)
    assert c.coeffs == (5.0, 0.0, 0.0, 0.0)
    assert jet_var(1.5, 0).coeffs == (1.5,)


@given(jet_pairs)
def test_addition_is_coefficientwise(pair):
    us, vs = pair
    u, v = Jet(0.0, tuple(us)), Jet(0.0, tuple(vs))
    s = u + v
    assert s.coeffs == pytest.approx(tuple(a + b for a, b in zip(us, vs)))


@given(jet_pairs)
@settings(max_examples=60)
def test_product_satisfies_leibniz_rule(pair):
    us, vs = pair
    u, v = Jet(0.0, tuple(us)), Jet(0.0, tuple(vs))
    du, dv = derivatives(u), derivatives(v)
    dp = derivatives(u * v)
    m = u.order
    for n in range(m + 1):
        expect = sum(math.comb(n, k) * du[k] * dv[n - k] for k in range(n + 1))
        assert dp[n] == pytest.approx(expect, rel=1e-10, abs=1e-9)


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_sin_cos_pythagorean_identity(a):
    u = jet_var(a, 6)
    s, c = jets.sin(u), jets.cos(u)
    ident = s * s + c * c
    assert ident.coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert ident.coeffs[1:] == pytest.approx((0.0,) * 6, abs=1e-13)


def test_composed_closure_matches_finite_difference():
    # f(x) = exp(-x^2/2) cos(8 x) + x via the generic dispatchers
    def f(u):
        return jets.exp(-0.5 * (u * u)) * jets.cos(8.0 * u) + u

    a = 0.3
    d = derivatives(f(jet_var(a, 3)))
    h = 1e-5
    xs = np.array([-2, -1, 1, 2]) * h + a
    vals = f(xs)
    fd1 = (8 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12 * h)
    assert d[1] == pytest.approx(fd1, rel=1e-8)


def test_dispatch_matches_numpy_on_arrays():
    xs = np.linspace(-1, 1, 7)
    assert np.allclose(jets.sin(xs), np.sin(xs))
    assert np.allclose(jets.cos(xs), np.cos(xs))
    assert np.allclose(jets.exp(xs), np.exp(xs))


def test_negation_negates_every_coefficient():
    u = jets.sin(jet_var(0.5, 4)) + 2.0
    neg = -u
    assert neg.base_point == 0.5
    assert neg.coeffs == tuple(-c for c in u.coeffs)
    assert derivatives(neg).tolist() == (-derivatives(u)).tolist()


def test_mismatched_operands_rejected():
    with pytest.raises(JetError):
        jet_var(0.0, 2) + jet_var(1.0, 2)
    with pytest.raises(JetError):
        jet_var(0.0, 2) * jet_var(0.0, 3)


def test_order_limits():
    with pytest.raises(JetError):
        jet_var(0.0, jets.MAX_ORDER + 1)
    with pytest.raises(JetError):
        jet_var(0.0, -1)
    jet_var(0.0, jets.MAX_ORDER)  # boundary is allowed
