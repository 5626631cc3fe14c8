"""Endpoint Hermite interpolation: closed forms, residuals, jet cross-check."""

import math

import numpy as np
import pytest

from fresnet import jets
from fresnet.hermite import (
    TrigPoly,
    hermite_endpoint,
    to_branch,
    trig_deriv_eval,
    zero_poly,
)
from oracles import max_abs_deriv, trig_eval_jet


def test_m0_all_ones_closed_form():
    # H(-1) = H(1) = 1 has the explicit solution H(x) = sqrt(2) cos(pi x / 4)
    p = hermite_endpoint([1.0], [1.0])
    assert p.order_m == 0
    assert np.asarray(p.coeffs) == pytest.approx(
        np.array([1 / math.sqrt(2), 1 / math.sqrt(2)]), abs=1e-14
    )
    xs = np.linspace(-1, 1, 33)
    assert trig_deriv_eval(p, xs) == pytest.approx(
        math.sqrt(2) * np.cos(math.pi * xs / 4), abs=1e-14
    )


def test_interpolation_conditions_random_data():
    rng = np.random.default_rng(1234)
    for m in range(7):
        a, b = rng.normal(size=m + 1), rng.normal(size=m + 1)
        p = hermite_endpoint(a, b)
        for s in range(m + 1):
            assert trig_deriv_eval(p, -1.0, s) == pytest.approx(a[s], abs=1e-9)
            assert trig_deriv_eval(p, 1.0, s) == pytest.approx(b[s], abs=1e-9)


def test_real_data_gives_real_polynomial():
    p = hermite_endpoint([2.0, -1.0], [0.5, 3.0])
    c = np.asarray(p.coeffs)
    # conjugate symmetry c_{-k-1} = conj(c_k) under the index map
    assert c == pytest.approx(np.conj(c[::-1]), abs=1e-12)
    # imaginary part of the full sum vanishes identically
    xs = np.linspace(-2, 2, 65)
    imag = (np.exp(1j * np.multiply.outer(xs, p.mode_freqs)) @ c).imag
    assert imag == pytest.approx(np.zeros_like(xs), abs=1e-13)


def test_derivative_evaluation_consistent_with_jets():
    p = hermite_endpoint([1.0, 2.0, -0.5], [0.0, 1.0, 1.0])
    for x0 in (-0.8, 0.1, 0.9):
        u = jets.jet_var(x0, p.order_m)
        d = jets.derivatives(trig_eval_jet(p, u))
        for s in range(p.order_m + 1):
            assert trig_deriv_eval(p, x0, s) == pytest.approx(d[s], rel=1e-11, abs=1e-11)


def test_to_branch_matches_polynomial():
    p = hermite_endpoint([1.0, 0.0], [0.0, 2.0])
    br = to_branch(p)
    assert br.width == 4
    # sign-folding: each positive quarter-pi frequency appears twice
    assert sorted(br.freqs) == pytest.approx(
        [math.pi / 4, math.pi / 4, 3 * math.pi / 4, 3 * math.pi / 4]
    )
    xs = np.linspace(-1, 1, 27)
    assert br(xs) == pytest.approx(trig_deriv_eval(p, xs), abs=1e-13)


def test_zero_poly():
    p = zero_poly(3)
    assert trig_deriv_eval(p, np.linspace(-1, 1, 9), 2) == pytest.approx(np.zeros(9))
    assert to_branch(p).width == 8


def test_mode_freqs_are_odd_quarter_multiples():
    p = zero_poly(2)
    ks = np.round(4 * p.mode_freqs / math.pi).astype(int)
    assert list(ks) == [-5, -3, -1, 1, 3, 5]


def test_max_abs_deriv():
    p = hermite_endpoint([0.0], [0.0])  # identically zero
    assert max_abs_deriv(p, -1, 1) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        hermite_endpoint([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        hermite_endpoint([], [])
    with pytest.raises(ValueError):
        TrigPoly(1, (0j,) * 3)
    with pytest.raises(ValueError):
        trig_deriv_eval(zero_poly(1), 0.0, -1)
