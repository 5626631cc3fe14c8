"""Jump matcher: chain-rule matrix vs symbolic Bell oracle, derivative matching."""

import math
import warnings

import numpy as np
import pytest
import sympy

from fresnet import jets
from fresnet.jump import (
    _chain_rule_system,
    build_jump_H,
    chain_rule_matrix,
    q_derivs_at,
    q_eval,
    z_eval,
    z_profile,
)
from oracles import branch_modes, jet_z, trig_eval_jet


def test_z_values_and_jump():
    xs = np.array([-0.5, 0.5])
    assert z_eval(xs) == pytest.approx([-1 + math.sin(-0.5), 1 + math.sin(0.5)])
    assert z_profile(0.0, "left", 0)[0] == -1.0
    assert z_profile(0.0, "right", 0)[0] == 1.0


def test_z_profile_derivatives_are_sine_cycle():
    zs = z_profile(0.0, "right", 4)
    assert zs[1:].tolist() == [1.0, 0.0, -1.0, 0.0]
    zs = z_profile(0.3, "left", 2)
    assert zs[1:] == pytest.approx((math.cos(0.3), -math.sin(0.3)))


def test_z_profile_gives_the_same_bits_at_both_zeros():
    # a value-keyed cache takes -0.0 and 0.0 as one key
    for side in ("left", "right"):
        plus, minus = z_profile(0.0, side, 8), z_profile(-0.0, side, 8)
        assert np.array_equal(plus.view(np.int64), minus.view(np.int64))
        assert not np.signbit(plus[plus == 0.0]).any()
        zs, bell = _chain_rule_system(-0.0, side, 8)
        assert np.array_equal(zs.view(np.int64), plus.view(np.int64))
        assert np.array_equal(bell.view(np.int64), chain_rule_matrix(plus[1:]).view(np.int64))


def test_z_profile_matches_jet_route():
    for point, side in ((0.0, "left"), (0.0, "right"), (-0.7, "left"), (0.2, "right")):
        zs = z_profile(point, side, 5)
        d = jets.derivatives(jet_z(point, side, 5))
        assert d[0] == pytest.approx(zs[0], abs=1e-15)
        assert d[1:] == pytest.approx(zs[1:], abs=1e-14)


def test_chain_rule_matrix_against_sympy_bell():
    # A[s, j] must equal the partial Bell polynomial B_{s,j}(z', z'', ...)
    rng = np.random.default_rng(99)
    for m in range(1, 7):
        derivs = tuple(rng.normal(size=m))
        a = chain_rule_matrix(derivs)
        syms = sympy.symbols(f"x1:{m + 1}")
        subs = dict(zip(syms, derivs))
        for n in range(m + 1):
            for k in range(m + 1):
                if k > n or (n > 0 and k == 0):
                    expect = 0.0
                elif n == 0:
                    expect = 1.0 if k == 0 else 0.0
                else:
                    expect = float(sympy.bell(n, k, syms[: n - k + 1]).subs(subs))
                assert a[n, k] == pytest.approx(expect, rel=1e-10, abs=1e-10), (m, n, k)


def test_chain_rule_matrix_diagonal_is_zprime_powers():
    a = chain_rule_matrix((2.0, 0.5, -1.0))
    assert np.diag(a) == pytest.approx([1.0, 2.0, 4.0, 8.0])


def test_build_jump_H_matches_prescribed_derivatives():
    rng = np.random.default_rng(5)
    for m in range(1, 5):
        alphas, betas = rng.normal(size=m + 1), rng.normal(size=m + 1)
        poly = build_jump_H(alphas, betas)
        assert q_derivs_at(0.0, "left", poly, m) == pytest.approx(alphas, abs=1e-9)
        assert q_derivs_at(0.0, "right", poly, m) == pytest.approx(betas, abs=1e-9)


def test_q_derivs_match_jet_composition_oracle():
    # independent route: q = z + H(z) composed entirely in jet arithmetic
    rng = np.random.default_rng(17)
    m = 4
    poly = build_jump_H(rng.normal(size=m + 1), rng.normal(size=m + 1))
    for point, side in ((0.0, "left"), (0.0, "right"), (0.5, "right"), (-0.25, "left")):
        zj = jet_z(point, side, m)
        oracle = jets.derivatives(zj + trig_eval_jet(poly, zj))
        got = q_derivs_at(point, side, poly, m)
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("m", range(1, 13))
def test_q_derivs_match_jet_oracle_where_the_build_reads_them(m):
    # 0 from both sides (the jump data) and -1 from the right, +1 from the
    # left (the residual's endpoint data), up to the largest order jets
    # support; the solve warns about its condition from m = 9 on
    rng = np.random.default_rng(100 + m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        poly = build_jump_H(rng.normal(size=m + 1), rng.normal(size=m + 1))
    omegas, amps = branch_modes(poly)
    # |H^(j)| <= sum_k |c_k| |w_k|^j, and q^(s) = z^(s) + sum_j A[s, j] H^(j)(z)
    h_scale = np.array([math.fsum(abs(c) * abs(w) ** j for w, c in zip(omegas, amps))
                        for j in range(m + 1)])
    for point, side in ((0.0, "left"), (0.0, "right"), (-1.0, "right"), (1.0, "left")):
        zs = z_profile(point, side, m)
        scale = np.abs(zs) + np.abs(chain_rule_matrix(zs[1:])) @ h_scale
        zj = jet_z(point, side, m)
        oracle = np.array(jets.derivatives(zj + trig_eval_jet(poly, zj)))
        got = q_derivs_at(point, side, poly, m)
        assert np.all(np.abs(got - oracle) <= 1e-13 * scale), (point, side)


def test_q_eval_limits_at_breakpoint():
    alphas = np.array([2.0, 1.0])
    betas = np.array([3.0, -1.0])
    poly = build_jump_H(alphas, betas)
    eps = 1e-9
    assert q_eval(poly, -eps) == pytest.approx(alphas[0], abs=1e-7)
    assert q_eval(poly, eps) == pytest.approx(betas[0], abs=1e-7)


def test_validation():
    with pytest.raises(ValueError):
        z_profile(0.0, "middle", 2)
    with pytest.raises(ValueError):
        z_profile(1.5, "left", 2)
    with pytest.raises(ValueError):
        build_jump_H([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        build_jump_H([], [])
