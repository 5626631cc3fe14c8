"""Endpoint Hermite interpolation: closed forms, residuals, jet cross-check."""

import math

import numpy as np
import pytest

from fresnet import jets
from fresnet.hermite import deriv_rows, hermite_endpoint
from fresnet.network import Branch
from oracles import branch_modes, max_abs_deriv, trig_eval_jet


def derivs_at(p, y, m):
    """[p(y), p'(y), ..., p^(m)(y)] by the rows helper."""
    omegas, amps = branch_modes(p)
    return (deriv_rows(omegas, y, m) @ np.array(amps, dtype=complex)).real


def test_m0_all_ones_closed_form():
    # H(-1) = H(1) = 1 has the explicit solution H(x) = sqrt(2) cos(pi x / 4)
    p = hermite_endpoint([1.0], [1.0])
    assert p.width == 2
    # both modes fold onto pi/4; each complex amplitude is 1/sqrt(2)
    assert p.freqs == (math.pi / 4, math.pi / 4)
    _, amps = branch_modes(p)
    assert np.array(amps) == pytest.approx(
        np.array([1 / math.sqrt(2), 1 / math.sqrt(2)]), abs=1e-14
    )
    xs = np.linspace(-1, 1, 33)
    assert p(xs) == pytest.approx(
        math.sqrt(2) * np.cos(math.pi * xs / 4), abs=1e-14
    )


def test_interpolation_conditions_random_data():
    rng = np.random.default_rng(1234)
    for m in range(7):
        a, b = rng.normal(size=m + 1), rng.normal(size=m + 1)
        p = hermite_endpoint(a, b)
        assert derivs_at(p, -1.0, m) == pytest.approx(a, abs=1e-9)
        assert derivs_at(p, 1.0, m) == pytest.approx(b, abs=1e-9)


def test_real_data_gives_real_polynomial():
    p = hermite_endpoint([2.0, -1.0], [0.5, 3.0])
    # conjugate symmetry c_{-k-1} = conj(c_k): entry j holds mode
    # k = j - (m+1), its mirror 2(m+1) - 1 - j holds mode -k-1, and
    # |c_k - conj(c_{-k-1})| is the hypot of the two entries' differences
    a, b = np.array(p.sin_amps), np.array(p.cos_amps)
    assert np.hypot(a - a[::-1], b - b[::-1]) == pytest.approx(np.zeros(4), abs=1e-12)
    # imaginary part of the full complex sum vanishes identically: the
    # first half of the entries are the negative-frequency modes, folded
    # by conjugation
    omegas, amps = branch_modes(p)
    half = p.width // 2
    omegas = np.concatenate([-np.array(omegas[:half]), omegas[half:]])
    c = np.array(amps)
    c[:half] = c[:half].conj()
    xs = np.linspace(-2, 2, 65)
    imag = (np.exp(1j * np.multiply.outer(xs, omegas)) @ c).imag
    assert imag == pytest.approx(np.zeros_like(xs), abs=1e-13)


def test_derivative_evaluation_consistent_with_jets():
    p = hermite_endpoint([1.0, 2.0, -0.5], [0.0, 1.0, 1.0])
    m = 2
    for x0 in (-0.8, 0.1, 0.9):
        u = jets.jet_var(x0, m)
        d = jets.derivatives(trig_eval_jet(p, u))
        got = derivs_at(p, x0, m)
        for s in range(m + 1):
            assert got[s] == pytest.approx(d[s], rel=1e-11, abs=1e-11)


def test_mode_freqs_are_odd_quarter_multiples():
    rng = np.random.default_rng(3)
    for m in range(6):
        p = hermite_endpoint(rng.normal(size=m + 1), rng.normal(size=m + 1))
        assert p.width == 2 * (m + 1)
        want = sorted(2 * [(2 * k + 1) * math.pi / 4 for k in range(m + 1)])
        assert sorted(p.freqs) == want


def test_empty_branch_derivatives_are_zero():
    # a smooth target's jump polynomial
    empty = Branch((), (), ())
    assert empty(np.linspace(-1, 1, 9)) == pytest.approx(np.zeros(9))
    for y in np.linspace(-1, 1, 9):
        assert derivs_at(empty, y, 2) == pytest.approx(np.zeros(3))


def test_max_abs_deriv():
    p = hermite_endpoint([0.0], [0.0])  # identically zero
    assert max_abs_deriv(p, -1, 1) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        hermite_endpoint([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        hermite_endpoint([], [])
    with pytest.raises(ValueError):
        hermite_endpoint(np.zeros(jets.MAX_ORDER + 2), np.zeros(jets.MAX_ORDER + 2))
