"""The shared trig-sum kernel against an exact-summation oracle, and its memory."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnet import network
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import deriv_rows, hermite_endpoint
from fresnet.jump import z_profile
from fresnet.network import Branch, eval_grid, eval_prefix, trig_sum
from fresnet.targets import target_lookup
from oracles import branch_modes, taylor_table_per_order


def fsum_oracle(omegas, amps, x, deriv):
    """Re sum_j amps_j (i omegas_j)^deriv e^{i omegas_j x}, mode by mode, fsum'd.

    The amplitudes are scaled by a power of two so that the largest has
    magnitude in [1/2, 1), and the sum is scaled back once: amplitudes
    near the subnormal range would otherwise round in every product.
    """
    top = max((abs(complex(c)) for c in amps), default=0.0)
    e = math.frexp(top)[1]
    scaled = [complex(math.ldexp(complex(c).real, -e), math.ldexp(complex(c).imag, -e))
              for c in amps]
    return math.ldexp(math.fsum(
        (c * (1j * w) ** deriv * cmath.exp(1j * w * x)).real
        for w, c in zip(omegas, scaled)
    ), e)


def tolerance(omegas, amps, deriv):
    scale = max([1.0] + [abs(w) for w in omegas]) ** deriv
    return 1e-13 * sum(abs(complex(c)) for c in amps) * scale


finite = {"allow_nan": False, "allow_infinity": False}
amplitudes = st.builds(complex, st.floats(-10, 10, **finite), st.floats(-10, 10, **finite))
#: Signed multiples k pi, k = -24..24: zero, both signs and, drawn twice, duplicates.
pi_multiples = st.integers(-24, 24).map(lambda k: k * math.pi)
#: Frequencies off the k pi grid, such as the quarter-pi Hermite modes.
off_grid = st.one_of(
    st.floats(-75, 75, **finite),
    st.integers(-12, 11).map(lambda k: (2 * k + 1) * math.pi / 4),
)
modes = st.lists(st.tuples(st.one_of(pi_multiples, off_grid), amplitudes), max_size=40)
#: The h-branch sees Z_L = S_L + sin(x), so |x| reaches about 1.85.
points = st.floats(-2.5, 2.5, **finite)


@settings(max_examples=200, deadline=None)
@given(modes, st.lists(points, min_size=1, max_size=8))
def test_kernel_matches_fsum_oracle(mode_list, xs):
    omegas = [w for w, _ in mode_list]
    amps = [c for _, c in mode_list]
    tol = tolerance(omegas, amps, 0)
    got = trig_sum(omegas, amps, np.array(xs))
    assert got.shape == (len(xs),)
    for x, value in zip(xs, got):
        assert abs(value - fsum_oracle(omegas, amps, x, 0)) <= tol
        scalar = trig_sum(omegas, amps, x)
        assert np.ndim(scalar) == 0
        assert abs(scalar - fsum_oracle(omegas, amps, x, 0)) <= tol


def test_subnormal_amplitudes_keep_their_digits():
    # unscaled, every product rounds to the absolute 5e-324 grid and the
    # first sum comes out as -1e-323
    assert trig_sum([2 * math.pi], [5e-324j], 0.25) == -5e-324
    want = fsum_oracle([math.pi, 0.75], [2.2250738585e-313j, 3e-320], 1.0625, 0)
    assert trig_sum([math.pi, 0.75], [2.2250738585e-313j, 3e-320], 1.0625) == want


def test_kernel_keeps_the_shape_of_x():
    xs = np.linspace(-2, 2, 12).reshape(3, 4)
    got = trig_sum([0.0, math.pi, -2 * math.pi, 0.75], [1, 2j, 1 - 1j, 0.5], xs)
    assert got.shape == (3, 4)
    assert trig_sum([], [], xs).shape == (3, 4)


def test_lone_high_multiple_of_pi():
    # Far above the ladders' cap of 2n multiples of pi for n modes, still
    # summed correctly (as one dense term).
    w = 1e6 * math.pi
    for x in (0.3, -1.7):
        assert trig_sum([w], [0.5 - 2j], x) == pytest.approx(
            fsum_oracle([w], [0.5 - 2j], x, 0), abs=1e-9)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        trig_sum([math.pi, 0.0], [1.0], 0.0)


def test_branch_matches_its_sin_cos_form():
    rng = np.random.default_rng(4)
    freqs = tuple(np.concatenate([np.arange(6) * math.pi, [math.pi / 2, 1.0, 3 * math.pi / 4]]))
    br = Branch(freqs, tuple(rng.uniform(-1, 1, 9)), tuple(rng.uniform(-1, 1, 9)))
    xs = rng.uniform(-2, 2, 25)
    want = [math.fsum(a * math.sin(w * x) + b * math.cos(w * x)
                      for w, a, b in zip(br.freqs, br.sin_amps, br.cos_amps)) for x in xs]
    assert br(xs) == pytest.approx(want, abs=1e-13)
    # the cached evaluation plan is not part of the value
    assert br == Branch(br.freqs, br.sin_amps, br.cos_amps)


def test_dense_sum_bits_do_not_depend_on_position():
    # nine distinct frequencies off the k pi grid: all go to the dense part
    rng = np.random.default_rng(9)
    freqs = tuple((2 * np.arange(9) + 1) * math.pi / 4 + 0.01 * np.arange(9))
    br = Branch(freqs, tuple(rng.uniform(-1, 1, 9)), tuple(rng.uniform(-1, 1, 9)))
    x = rng.uniform(-1.5, 1.5, 4003)
    full = br(x)
    singles = np.array([br(x[i:i + 1])[0] for i in range(x.size)])
    assert np.array_equal(singles.view(np.int64), full.view(np.int64))
    for size in (1, 5, 17, 1000, 4002):
        idx = rng.choice(x.size, size, replace=False)
        assert np.array_equal(br(x[idx]).view(np.int64), full[idx].view(np.int64))


def test_ladder_bits_do_not_depend_on_position():
    # the spectral branch sums both ladders, the jump branch the quarter-pi
    # one; each Horner step must round a lone point as it rounds it in an array
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 128, 60))
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, 400)
    last = net.layers[-1]
    for br in (last.g_branch, last.h_branch):
        full = br(x)
        singles = np.array([br(x[i:i + 1])[0] for i in range(x.size)])
        assert np.array_equal(singles.view(np.int64), full.view(np.int64))
        for size in (1, 5, 17, 399):
            idx = rng.choice(x.size, size, replace=False)
            assert np.array_equal(br(x[idx]).view(np.int64), full[idx].view(np.int64))
    full = eval_grid(net, x)
    scalars = np.array([eval_prefix(net, v, net.depth) for v in x])
    assert np.array_equal(scalars.view(np.int64), full.view(np.int64))


def test_quarter_pi_ladder_matches_fsum_oracle():
    # up to the largest order jets support; the solve warns about its
    # condition from m = 9 on
    rng = np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        polys = [hermite_endpoint(rng.normal(size=m + 1), rng.normal(size=m + 1))
                 for m in (1, 4, 8, 12)]
    xs = np.concatenate([np.linspace(-2.5, 2.5, 41), rng.uniform(-2.5, 2.5, 40)])
    for poly in polys:
        omegas, amps = branch_modes(poly)
        tol = tolerance(omegas, amps, 0)
        for x, value in zip(xs, poly(xs)):
            assert abs(value - fsum_oracle(omegas, amps, x, 0)) <= tol, (poly.width, x)


def test_deriv_rows_match_fsum_oracle():
    # H's derivatives of orders 0..m at the Hermite endpoints, at z(+-1),
    # where the build reads H's endpoint data, and inside
    rng = np.random.default_rng(13)
    zs = [z_profile(1.0, "left", 0)[0], z_profile(-1.0, "right", 0)[0]]
    ys = [-1.0, 1.0] + zs + [0.0, 0.3, -0.71] + rng.uniform(-2.5, 2.5, 5).tolist()
    for m in (1, 4, 8, 12):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            poly = hermite_endpoint(rng.normal(size=m + 1), rng.normal(size=m + 1))
        omegas, amps = branch_modes(poly)
        for y in ys:
            got = (deriv_rows(omegas, y, m) @ np.array(amps)).real
            assert got.shape == (m + 1,)
            for s in range(m + 1):
                tol = 1e-13 * math.fsum(abs(c) * abs(w) ** s for w, c in zip(omegas, amps))
                assert abs(got[s] - fsum_oracle(omegas, amps, y, s)) <= tol, (m, s, y)


@pytest.mark.parametrize("m", [1, 4, 8, 12])
def test_built_layers_match_their_sin_cos_form(m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), m, 64, 20))
    xs = np.linspace(-2.5, 2.5, 101)
    last = net.layers[-1]
    for br in (last.g_branch, last.h_branch):
        tol = 1e-13 * math.fsum(map(abs, br.sin_amps + br.cos_amps))
        want = [math.fsum(a * math.sin(w * x) + b * math.cos(w * x)
                          for w, a, b in zip(br.freqs, br.sin_amps, br.cos_amps)) for x in xs]
        assert np.max(np.abs(br(xs) - want)) <= tol


def test_eval_memory_stays_linear_in_points():
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 512, 60))
    xs = np.linspace(-1.0, 1.0, 20000)
    tracemalloc.start()
    try:
        network.eval_grid(net, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense n x W phase matrix alone would take 20000 * 1055 * 8 B = 169 MB
    assert peak < 32e6, f"eval_grid peak {peak / 1e6:.1f} MB"


def pi_ladder_branch(terms, seed):
    """A branch of only the modes k pi, k = 0..terms: the constant and a pi
    ladder of ``terms`` terms, nothing dense."""
    rng = np.random.default_rng(seed)
    freqs = tuple(np.arange(terms + 1) * math.pi)
    return Branch(freqs, tuple(rng.uniform(-1, 1, terms + 1)),
                  tuple(rng.uniform(-1, 1, terms + 1)))


@pytest.mark.parametrize("terms", [12, 13, 80, 512])
@pytest.mark.parametrize("deriv", [0, 2])
def test_pi_ladder_matches_fsum_oracle_on_both_sides_of_the_table(terms, deriv):
    # up to D + 1 = 12 terms by Horner, from 13 on by the Taylor table; the
    # amplitudes (i omega)^deriv c, those of the sum's deriv-th derivative,
    # weight the top modes up to (512 pi)^2 times the others
    rng = np.random.default_rng(terms)
    signs = rng.choice([-1, 1], terms)
    omegas = np.concatenate([[0.0], np.arange(1, terms + 1) * math.pi * signs])
    amps = rng.normal(size=terms + 1) + 1j * rng.normal(size=terms + 1)
    weighted = amps * (1j * omegas) ** deriv
    plan = network._trig_plan(omegas, weighted)
    assert (plan[2] is not None) == (terms > 12)
    xs = np.concatenate([np.linspace(-2.5, 2.5, 41), rng.uniform(-2.5, 2.5, 40)])
    tol = tolerance(omegas, amps, deriv)
    got = trig_sum(omegas, weighted, xs)
    for x, value in zip(xs, got):
        assert abs(value - fsum_oracle(omegas, amps, x, deriv)) <= tol, (terms, x)


def test_pi_ladder_table_takes_any_float():
    br = pi_ladder_branch(40, 21)
    x = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**53, 1e3 + 0.3, -1e3 - 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = br(x)
        assert np.isnan(br(np.inf))
    assert np.isnan(got[:3]).all() and np.isfinite(got[3:]).all()
    # fmod(x, 2) is exact, so a far point has the bits of its reduction
    reduced = np.fmod(x[3:], 2.0)
    assert np.array_equal(got[3:].view(np.int64), br(reduced).view(np.int64))
    # every float from 2^53 up is an even integer, so it reduces to 0
    assert got[3] == got[4] == got[5] == br(0.0)
    # k pi x and k pi fmod(x, 2) differ by a multiple of 2 pi
    omegas, amps = br.freqs, np.array(br.cos_amps) - 1j * np.array(br.sin_amps)
    for x0, value in zip(reduced, got[3:]):
        assert abs(value - fsum_oracle(omegas, amps, x0, 0)) <= tolerance(omegas, amps, 0)


def test_pi_ladder_table_is_periodic_to_the_bit():
    br = pi_ladder_branch(80, 22)
    x = np.arange(128) / 64.0  # dyadic points of [0, 2): x + 2j is exact
    base = br(x).view(np.int64)
    for j in (-500, -3, -1, 1, 2, 7, 499):
        assert np.array_equal(br(x + 2 * j).view(np.int64), base), j


def test_pi_ladder_table_bits_do_not_depend_on_position_far_out():
    rng = np.random.default_rng(23)
    x = rng.uniform(-1e3, 1e3, 3001)
    for br in (pi_ladder_branch(13, 24), pi_ladder_branch(300, 25)):
        assert br._plan[2] is not None
        full = br(x)
        singles = np.array([br(x[i:i + 1])[0] for i in range(x.size)])
        assert np.array_equal(singles.view(np.int64), full.view(np.int64))
        assert np.array_equal(br(x[:3000].reshape(3, 1000)).ravel().view(np.int64),
                              full[:3000].view(np.int64))
        for size in (1, 5, 17, 1000, 3000):
            idx = rng.choice(x.size, size, replace=False)
            assert np.array_equal(br(x[idx]).view(np.int64), full[idx].view(np.int64))


@pytest.mark.parametrize("terms,scale", [(13, 1.0), (100, 1.0), (1024, 1.0),
                                         (100, 2.0 ** -950)])
def test_taylor_table_matches_the_per_order_oracle_bit_for_bit(terms, scale):
    # one batched inverse FFT of all D + 1 half spectra, against one FFT per
    # order; the scaled ladder's amplitudes are near the subnormal range
    rng = np.random.default_rng(terms)
    ladder = ((rng.normal(size=terms) + 1j * rng.normal(size=terms)) * scale).tolist()
    got = network._taylor_table(ladder)
    assert got.shape == (12, 16 * terms)
    assert np.array_equal(got.view(np.int64), taylor_table_per_order(ladder).view(np.int64))
