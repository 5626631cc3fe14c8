"""Shallow spectral approximation: coefficient oracles and end-to-end accuracy."""

import math
import tracemalloc

import numpy as np
import pytest

from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import deriv_rows
from fresnet.jets import MAX_ORDER
from fresnet.network import _branch_modes, branch_from_modes, eval_grid
from fresnet.quadrature import build_rule, nodes_weights
from fresnet import quadrature, smooth
from fresnet.smooth import build_smooth_branch, fourier_coeffs
from fresnet.targets import target_lookup

from oracles import fourier_coeffs_dense


def kinked(x):
    """Real, non-periodic, with a derivative jump at 0 and content at every mode."""
    x = np.asarray(x, dtype=float)
    return np.exp(np.sin(3 * x)) + np.where(x < 0, x * x, -0.5 * x) + 0.3 * np.cos(40.5 * x)


def test_coeffs_of_pure_cosine():
    # g = cos(pi x): only k = +-1 survive, each with coefficient 1/2
    c = fourier_coeffs(lambda x: np.cos(np.pi * x), 3)
    expect = np.zeros(7, dtype=complex)
    expect[3 - 1] = expect[3 + 1] = 0.5
    assert c == pytest.approx(expect, abs=1e-13)


def test_coeffs_of_identity_closed_form():
    # (1/2) int x e^{-i k pi x} dx = i (-1)^k / (k pi) for k != 0, else 0
    k_half = 5
    c = fourier_coeffs(lambda x: x, k_half)
    ks = np.arange(-k_half, k_half + 1)
    expect = np.where(ks == 0, 0, 1j * (-1.0) ** ks / np.where(ks == 0, 1, ks * math.pi))
    assert c == pytest.approx(expect, abs=1e-13)


def series(coeffs):
    """The symmetric Fourier sum with the k = -K..K coefficients, as a branch."""
    half = (len(coeffs) - 1) // 2
    return branch_from_modes(coeffs, np.pi * np.arange(-half, half + 1))


def test_series_branch_inverts_coefficients():
    rng = np.random.default_rng(2)
    half = 6
    coeffs = rng.normal(size=2 * half + 1) + 1j * rng.normal(size=2 * half + 1)
    # make the sum real: c_{-k} = conj(c_k)
    coeffs = coeffs + np.conj(coeffs[::-1])
    got = fourier_coeffs(series(coeffs), half)
    assert got == pytest.approx(coeffs, abs=1e-12)


@pytest.mark.parametrize("half", [40, 256])
def test_build_rule_recovers_trig_polynomials(half):
    # g e^{-ik pi x} reaches mode 2K; with 4 instead of 5 build-rule nodes
    # per mode and side the error is 9e-11 here, with 5 it is 2e-13 or less
    rng = np.random.default_rng(half)
    coeffs = rng.normal(size=2 * half + 1) + 1j * rng.normal(size=2 * half + 1)
    coeffs = coeffs + np.conj(coeffs[::-1])
    got = fourier_coeffs(series(coeffs), half)
    assert np.max(np.abs(got - coeffs)) <= 1e-12


def test_branch_matches_hermite_plus_series():
    t = target_lookup("smooth_nonper")
    m, half = 3, 16
    minus = t.one_sided_derivs(-1.0, "right", m)
    plus = t.one_sided_derivs(1.0, "left", m)
    br = build_smooth_branch(t.eval, minus, plus, half)
    assert br.width == 2 * half + 1 + 2 * (m + 1)
    # independent reconstruction
    from fresnet.hermite import hermite_endpoint

    hp = hermite_endpoint(minus, plus)
    ghat = fourier_coeffs(lambda x: t.eval(x) - hp(x), half)
    xs = np.linspace(-1, 1, 101)
    expect = hp(xs) + series(ghat)(xs)
    assert br(xs) == pytest.approx(expect, abs=1e-12)


def test_periodized_residual_endpoint_mismatch_vanishes():
    t = target_lookup("smooth_nonper")
    m = 4
    minus = t.one_sided_derivs(-1.0, "right", m)
    plus = t.one_sided_derivs(1.0, "left", m)
    from fresnet.hermite import hermite_endpoint

    hp = hermite_endpoint(minus, plus)
    freqs, amps = _branch_modes(hp)
    gm = minus - (deriv_rows(freqs, -1.0, m) @ amps).real
    gp = plus - (deriv_rows(freqs, 1.0, m) @ amps).real
    assert gm == pytest.approx(np.zeros(m + 1), abs=1e-9)
    assert gp == pytest.approx(np.zeros(m + 1), abs=1e-9)


def test_smooth_target_spectral_accuracy():
    t = target_lookup("smooth_nonper")
    m = 4
    minus = t.one_sided_derivs(-1.0, "right", m)
    plus = t.one_sided_derivs(1.0, "left", m)
    br = build_smooth_branch(t.eval, minus, plus, 48)
    xs = np.linspace(-1, 1, 2001)
    assert np.max(np.abs(br(xs) - t.eval(xs))) < 1e-6


def test_truncation_error_decreases_with_modes():
    t = target_lookup("smooth_nonper")
    m = 2
    minus = t.one_sided_derivs(-1.0, "right", m)
    plus = t.one_sided_derivs(1.0, "left", m)
    xs = np.linspace(-1, 1, 1001)
    errs = []
    for half in (8, 16, 32, 64):
        br = build_smooth_branch(t.eval, minus, plus, half)
        errs.append(np.max(np.abs(br(xs) - t.eval(xs))))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < errs[0] / 10


def _coeff_scale(g, half):
    """sum |w g| over the build rule of K = half, the scale of each coefficient's rounding."""
    x, w = nodes_weights(build_rule(half))
    return np.sum(np.abs(w * g(x)))


@pytest.mark.parametrize("half", [512, 1024, 4096])
def test_build_rule_agrees_with_twice_finer_rule(half):
    # fourier_coeffs(g, 2K) runs on a rule with twice the nodes; its middle
    # 2K+1 modes are the same integrals, so the rule for K resolves them
    got = fourier_coeffs(kinked, half)
    finer = fourier_coeffs(kinked, 2 * half)[half:3 * half + 1]
    assert np.max(np.abs(got - finer)) <= (half + 1) * 1e-15 * _coeff_scale(kinked, half)


@pytest.mark.parametrize("half", [512, 1024])
@pytest.mark.parametrize("name", ["pw_smooth", "hat"])
def test_deep_build_error_off_jump_at_rounding_floor(name, half):
    t = target_lookup(name)
    net = build_piecewise_net(BuildSpec(t, 4, half, 60))
    xs = np.linspace(-1.0, 1.0, 20001)
    xs = xs[np.abs(xs) >= 0.05]
    assert np.max(np.abs(eval_grid(net, xs) - t.eval(xs))) <= 1e-12


def test_validation():
    with pytest.raises(ValueError):
        fourier_coeffs(lambda x: x, -1)
    with pytest.raises(ValueError):
        build_smooth_branch(lambda x: x, [0.0], [0.0, 1.0], 4)
    # the endpoint data set the Hermite order, which hermite_endpoint bounds
    with pytest.raises(ValueError, match="exceeds maximum supported order"):
        build_smooth_branch(lambda x: x, [0.0] * (MAX_ORDER + 2), [0.0] * (MAX_ORDER + 2), 4)
    with pytest.raises(ValueError):
        build_smooth_branch(lambda x: x, [], [], 4)


def test_periodic_compatible_data_gives_zero_hermite_part():
    # with zero endpoint data the Hermite part vanishes and sin(pi x) is
    # reproduced by its own (exact) k = +-1 Fourier modes
    b = build_smooth_branch(
        lambda x: np.sin(math.pi * np.asarray(x)), [0.0, 0.0], [0.0, 0.0], 4
    )
    h_amps = [math.hypot(a, c) for a, c in zip(b.sin_amps[-4:], b.cos_amps[-4:])]
    assert max(h_amps) <= 1e-9
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(b(xs) - np.sin(math.pi * xs))) < 1e-12


def test_identity_with_no_modes_is_pure_hermite():
    # f = x, m = 1, K = 0: H_r carries the whole endpoint data
    b = build_smooth_branch(lambda x: np.asarray(x, dtype=float),
                            np.array([-1.0, 1.0]), np.array([1.0, 1.0]), 0)
    assert b.width == 1 + 4  # constant residual mode + 2(m+1) Hermite modes
    assert ends_interpolated(b)
    assert abs(b(np.array([0.0]))[0]) < 0.15


def ends_interpolated(b):
    # endpoint interpolation transferred to the branch (values only)
    ends = b(np.array([-1.0, 1.0]))
    return abs(ends[0] + 1.0) < 1e-9 and abs(ends[1] - 1.0) < 1e-9


def test_smooth_target_width_rate():
    # spectral rate in W for the single-piece target, each smoothness order
    from fresnet.metrics import lp_error
    from oracles import fit_rate

    t = target_lookup("smooth_nonper")
    for m in (1, 2, 3, 4):
        minus = t.one_sided_derivs(-1.0, "right", m)
        plus = t.one_sided_derivs(1.0, "left", m)
        ws, errs = [], []
        for half in (1, 2, 4, 8, 16):
            b = build_smooth_branch(t.eval, minus, plus, half)
            ws.append(2 * half)
            errs.append(lp_error(t.eval, b, 2.0))
        assert fit_rate(ws, errs).slope <= -(m - 0.5), m


# Named for the recurrence the panel FFT replaced.  The ids keep the
# "default" rule of the time fourier_coeffs also took a rule; the build
# rule is now the only one.
@pytest.mark.parametrize("half", [0, 1, 7, 80, 1024], ids=lambda k: f"{k}-default")
def test_recurrence_matches_dense_oracle(half):
    got = fourier_coeffs(kinked, half)
    want = fourier_coeffs_dense(kinked, half)
    assert got.shape == (2 * half + 1,)
    assert np.max(np.abs(got - want)) <= (half + 1) * 1e-15 * _coeff_scale(kinked, half)


@pytest.mark.parametrize("half", [0, 1, 7, 80])
def test_negative_modes_are_exact_conjugates(half):
    c = fourier_coeffs(kinked, half)
    assert np.array_equal(c[:half][::-1], np.conj(c[half + 1:]))
    assert c[half].imag == 0.0


def _build_peak(spec):
    # a cold build: its peak includes the per-K tables and the rule's nodes
    smooth._rule_tables.cache_clear()
    quadrature.nodes_weights.cache_clear()
    tracemalloc.start()
    try:
        build_piecewise_net(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_stays_linear_in_nodes():
    # a dense (2K+1) x nodes exponential matrix alone would take
    # 2049 * 10240 * 16 B = 336 MB
    peak = _build_peak(BuildSpec(target_lookup("pw_smooth"), 4, 1024, 60))
    assert peak < 16e6, f"build peak {peak / 1e6:.1f} MB"


def test_fine_rule_build_memory_at_high_modes():
    # the build rule at K = 4096 has 40,960 nodes; a dense
    # (2K+1) x nodes exponential matrix would take 5.4 GB
    peak = _build_peak(BuildSpec(target_lookup("pw_smooth"), 4, 4096, 60))
    assert peak < 32e6, f"build peak {peak / 1e6:.1f} MB"
