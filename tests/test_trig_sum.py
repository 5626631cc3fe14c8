"""The shared trig-sum kernel against an exact-summation oracle, and its memory."""

import cmath
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnet import network
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import deriv_rows, hermite_endpoint
from fresnet.jump import z_profile
from fresnet.network import Branch, branch_from_modes, eval_grid, eval_prefix
from fresnet.targets import target_lookup
from oracles import (branch_modes, nearest_node_fmod, taylor_fmod, taylor_table_per_order,
                     trig_sum_filled)


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
    br = branch_from_modes(amps, omegas)
    got = br(np.array(xs))
    assert got.shape == (len(xs),)
    for x, value in zip(xs, got):
        assert abs(value - fsum_oracle(omegas, amps, x, 0)) <= tol
        scalar = br(x)
        assert np.ndim(scalar) == 0
        assert abs(scalar - fsum_oracle(omegas, amps, x, 0)) <= tol


def test_subnormal_amplitudes_keep_their_digits():
    # unscaled, every product rounds to the absolute 5e-324 grid and the
    # first sum comes out as -1e-323
    assert branch_from_modes([5e-324j], [2 * math.pi])(0.25) == -5e-324
    want = fsum_oracle([math.pi, 0.75], [2.2250738585e-313j, 3e-320], 1.0625, 0)
    assert branch_from_modes([2.2250738585e-313j, 3e-320], [math.pi, 0.75])(1.0625) == want


def test_kernel_keeps_the_shape_of_x():
    xs = np.linspace(-2, 2, 12).reshape(3, 4)
    got = branch_from_modes([1, 2j, 1 - 1j, 0.5], [0.0, math.pi, -2 * math.pi, 0.75])(xs)
    assert got.shape == (3, 4)
    assert branch_from_modes([], [])(xs).shape == (3, 4)


def test_lone_high_multiple_of_pi():
    # Far above the ladders' cap of 2n multiples of pi for n modes, still
    # summed correctly (as one dense term).
    w = 1e6 * math.pi
    for x in (0.3, -1.7):
        assert branch_from_modes([0.5 - 2j], [w])(x) == pytest.approx(
            fsum_oracle([w], [0.5 - 2j], x, 0), abs=1e-9)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        branch_from_modes([1.0], [math.pi, 0.0])


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


def test_parts_add_as_to_a_filled_constant():
    """Each part a plan has is added in a fixed order after the constant,
    with the bits of adding every part to an array filled with the
    constant, signed zeros included, whichever parts the plan has."""
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 64, 60))
    rng = np.random.default_rng(15)
    branches = [net.layers[0].g_branch, net.layers[1].h_branch,
                net.layers[-1].g_branch, net.layers[-1].h_branch,
                branch_from_modes([0.5, -0.0, 0.25j], [0.0, math.pi / 2, 1.0]),
                branch_from_modes([1e-300, 3e-301j, -2e-302], [0.0, 2.0, 0.75]),
                branch_from_modes([0.0, -0.0j], [math.pi, 0.0]),
                branch_from_modes([-1.5], [0.0]), branch_from_modes([4e-320], [0.0]),
                branch_from_modes([], [])]
    powers = 2.0 ** -np.arange(1, 70)
    xs = np.concatenate([rng.uniform(-2.0, 2.0, 3000), powers, -powers,
                         [0.0, -0.0, 5e-324, -5e-324, 1e6, -1e300]])
    for br in branches:
        want = trig_sum_filled(br, xs)
        assert np.array_equal(br(xs).view(np.int64), want.view(np.int64)), br.freqs[:4]
        assert np.array_equal(br(xs[:1]).view(np.int64), want[:1].view(np.int64))


# low multiples, so that both branches hold their ladder (capped at 2n pi
# for n entries) the same way
@pytest.mark.parametrize("ladder,w0,w1", [("pi", 2 * math.pi, math.pi),
                                           ("quarter-pi", 3 * math.pi / 4, math.pi / 4),
                                           ("off the grid", 1.3, 2.1)])
def test_duplicate_entries_merge_in_input_order(ladder, w0, w1):
    """Entries at one frequency are summed in the order the branch holds
    them: 1e16 + 3 + (2 - 1e16) is 6 in that order, 5 or 4 in another."""
    sines, cosines = (-1e16, 5.0, 1e16 + 2), (1e16, 3.0, 2 - 1e16)

    def merged(order):
        a, b = (sum((v[i] for i in order[1:]), v[order[0]]) for v in (sines, cosines))
        return Branch((w0, w1), (a, 0.25), (b, -0.5))

    br = Branch((w0, w0, w1, w0), sines[:2] + (0.25,) + sines[2:],
                cosines[:2] + (-0.5,) + cosines[2:])
    xs = np.linspace(-1.9, 1.9, 301)
    want = merged((0, 1, 2))(xs)
    assert np.array_equal(br(xs).view(np.int64), want.view(np.int64))
    for order in ((0, 2, 1), (2, 1, 0)):
        assert not np.array_equal(want, merged(order)(xs))
    _, pi_table, quarter_ladder, terms, _ = br._plan
    parts = {"pi": pi_table is not None, "quarter-pi": bool(quarter_ladder),
             "off the grid": bool(terms)}
    assert [name for name, present in parts.items() if present] == [ladder]


def test_ladder_cap_counts_merged_modes():
    """The ladders end at 2 pi per merged nonzero mode, so a branch and the
    branch of its merged modes have one plan: 5 pi lies above the cap of
    two modes (4 pi) whether 3 pi is held once or three times, and joins
    the dense terms after 3 pi, the ladder's one nonzero frequency."""
    sines, cosines = (-1e16, 5.0, 1e16 + 2), (1e16, 3.0, 2 - 1e16)
    br = Branch((3 * math.pi, 3 * math.pi, 5 * math.pi, 3 * math.pi),
                sines[:2] + (0.25,) + sines[2:], cosines[:2] + (-0.5,) + cosines[2:])
    merged = Branch((3 * math.pi, 5 * math.pi), (sines[0] + sines[1] + sines[2], 0.25),
                    (cosines[0] + cosines[1] + cosines[2], -0.5))
    xs = np.linspace(-1.9, 1.9, 301)
    assert np.array_equal(br(xs).view(np.int64), merged(xs).view(np.int64))
    assert repr(br._plan) == repr(merged._plan)
    _, pi_table, quarter_ladder, terms, _ = br._plan
    assert pi_table is None and not quarter_ladder
    assert [w for w, _, _ in terms] == [3 * math.pi, 5 * math.pi]
    # a merged mode of zero amplitude does not count: 7 pi cancels, so pi and
    # 5 pi are the two modes and 5 pi lies above their cap, as without 7 pi
    cancel = Branch((math.pi, 5 * math.pi, 7 * math.pi, 7 * math.pi),
                    (0.5, 0.25, 1.0, -1.0), (0.0,) * 4)
    kept = Branch((math.pi, 5 * math.pi), (0.5, 0.25), (0.0, 0.0))
    assert np.array_equal(cancel(xs).view(np.int64), kept(xs).view(np.int64))
    assert cancel._plan[1] is None


def test_rescale_follows_merged_modes():
    """The subnormal rescale is decided from the merged amplitudes: the two
    unit sines at pi cancel, so the branch, like the branch of its merged
    modes, has only amplitudes below 2**-TINY_EXP and is summed scaled."""
    br = Branch((math.pi, math.pi, 2.5, 0.75), (1.0, -1.0, 3e-310, 1e-309),
                (0.0, 0.0, 0.0, 2e-310))
    merged = Branch((2.5, 0.75), (3e-310, 1e-309), (0.0, 2e-310))
    xs = np.linspace(-1.9, 1.9, 301)
    assert np.array_equal(br(xs).view(np.int64), merged(xs).view(np.int64))
    # the same dense terms and the same shift; the bias is 0.0 in both
    assert br._plan[2:] == merged._plan[2:] and br._plan[-1] == network.TINY_SHIFT


def test_signed_zeros_give_one_bit_pattern():
    """h(-0.0) and h(+0.0) differ only in the signs of zero parts, and
    adding the constant makes those +0.0: the sign stack normalises -0.0
    once per run and relies on this."""
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 64, 20))
    branches = {
        "table": pi_ladder_branch(40, 27),
        "sines-only table": Branch(tuple(np.arange(20) * math.pi),
                                   tuple(np.linspace(-1.0, 1.0, 20)), (0.0,) * 20),
        "quarter-pi ladder": net.layers[-1].h_branch,
        "spectral layer": net.layers[-1].g_branch,
        "dense terms": Branch((1.0, math.pi / 2, 2.5), (-1.0, 0.5, -0.25), (0.0, 0.0, 0.0)),
        "sign step": net.layers[1].h_branch,
        "constant only": branch_from_modes([-1.5], [0.0]),
        "empty": Branch((), (), ()),
        "rescaled": branch_from_modes([1e-300, 3e-301j, -2e-302], [0.0, 2.0, 0.75]),
        "rescaled sines": Branch((math.pi, 1.0), (2.0 ** -950, -(2.0 ** -1000)), (0.0, 0.0)),
    }
    for name, br in branches.items():
        pair = br(np.array([-0.0, 0.0])).view(np.int64)
        assert pair[0] == pair[1], name
        singles = np.array([br(-0.0), br(0.0)]).view(np.int64)
        assert np.array_equal(singles, pair), name
    assert branches["rescaled"]._plan[-1] == branches["rescaled sines"]._plan[-1] > 0


def test_quarter_pi_ladder_matches_fsum_oracle():
    # up to the largest order jets support
    rng = np.random.default_rng(12)
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


@pytest.mark.parametrize("terms", [2, 5, 12, 13, 80, 512])
@pytest.mark.parametrize("deriv", [0, 2])
def test_pi_ladder_matches_fsum_oracle_on_both_sides_of_the_table(terms, deriv):
    # every ladder of two or more nonzero terms by the Taylor table, on both
    # sides of its D + 1 = 12 rows; the amplitudes (i omega)^deriv c, those
    # of the sum's deriv-th derivative, weight the top modes up to
    # (512 pi)^2 times the others
    rng = np.random.default_rng(terms)
    signs = rng.choice([-1, 1], terms)
    omegas = np.concatenate([[0.0], np.arange(1, terms + 1) * math.pi * signs])
    amps = rng.normal(size=terms + 1) + 1j * rng.normal(size=terms + 1)
    weighted = amps * (1j * omegas) ** deriv
    br = branch_from_modes(weighted, omegas)
    assert br._plan[1] is not None
    xs = np.concatenate([np.linspace(-2.5, 2.5, 41), rng.uniform(-2.5, 2.5, 40)])
    tol = tolerance(omegas, amps, deriv)
    got = br(xs)
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
    for br in (pi_ladder_branch(5, 26), pi_ladder_branch(13, 24), pi_ladder_branch(300, 25)):
        assert br._plan[1] is not None
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


def reduction_points(nodes):
    """Points where a reduction into the period 2 can go wrong: +-2k and
    their neighbours, +-(2 - ulp), every power of two from 2^53 (all even
    integers) up, the largest float, both signs of every power 2^-1..2^-1074
    (subnormals included), signed zeros, non-finite points, the nodes
    2j/M and the points halfway between them, where rint ties."""
    evens = 2.0 * np.arange(-60, 61)
    big = 2.0 ** np.arange(53, 1024)
    tiny = 2.0 ** -np.arange(1, 1075)
    steps = np.arange(-nodes - 2, nodes + 3) * (2.0 / nodes)
    rng = np.random.default_rng(nodes)
    return np.concatenate([
        evens, np.nextafter(evens, np.inf), np.nextafter(evens, -np.inf),
        [np.nextafter(2.0, 0.0), -np.nextafter(2.0, 0.0), np.nextafter(-2.0, -4.0)],
        big, -big, big + 2.0 ** 53, [np.finfo(float).max, -np.finfo(float).max],
        tiny, -tiny, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
        steps, steps + 1.0 / nodes, steps - 1.0 / nodes,
        rng.uniform(-4.0, 4.0, 3000), rng.uniform(-1e6, 1e6, 1000),
    ])


@pytest.mark.parametrize("terms", [2, 13, 80, 512])
def test_nearest_node_matches_the_fmod_oracle_bit_for_bit(terms):
    """x - 2 trunc(x/2) and a float wrap of the column give the node and
    offset bits of fmod(x, 2) and an integer modulo at every point, +0 for
    the offset at a node whatever the sign of x, and NaN for a non-finite
    x.  M = 16K is a power of two only for some K."""
    nodes = 16 * terms
    x = reduction_points(nodes)
    with np.errstate(invalid="ignore"):  # as under the kernel's errstate
        j, t = network._nearest_node(x, nodes)
    want_j, want_t = nearest_node_fmod(x, nodes)
    assert j.dtype == np.intp and ((0 <= j) & (j < nodes)).all()
    assert np.array_equal(j, want_j)
    nan = np.isnan(want_t)
    assert np.array_equal(np.isnan(t), nan) and nan.sum() == 4
    assert np.array_equal(t[~nan].view(np.int64), want_t[~nan].view(np.int64))
    # +0 at every node: even integers, +-0 and the far points all land on one
    at_node = (t == 0) & ~nan
    assert not np.signbit(t[at_node]).any()
    assert at_node[np.isin(x, [0.0, 2.0, -2.0, 2.0 ** 60, -(2.0 ** 60)])].all()


@pytest.mark.parametrize("terms", [13, 512])
def test_taylor_sum_matches_the_fmod_route_bit_for_bit(terms):
    br = pi_ladder_branch(terms, 40 + terms)
    table = br._plan[1]
    x = reduction_points(table.shape[1])
    with np.errstate(invalid="ignore"):
        got, want = network._taylor(table, x), taylor_fmod(table, x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_non_finite_points_give_nan_in_threads_and_under_raise():
    """Four threads call every kind of branch on +-inf and NaN at once, each
    inside ``np.errstate(invalid="raise")``: every branch gives NaN with no
    warning and no FloatingPointError, the finite points keep their bits,
    and each thread's own error state is unchanged after the calls."""
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 32, 20))
    branches = [net.layers[0].g_branch, net.layers[1].h_branch,
                net.layers[-1].g_branch, net.layers[-1].h_branch,
                pi_ladder_branch(13, 5), branch_from_modes([0.5j, 1.0], [1.0, 2.5])]
    x = np.tile([np.inf, -np.inf, np.nan, 0.5, -0.0], 400)
    want = [br(x[3:5]).view(np.int64) for br in branches]
    start = threading.Barrier(4, timeout=30)

    def work():
        start.wait()
        with np.errstate(invalid="raise"):
            for _ in range(30):
                for br, finite in zip(branches, want):
                    got = br(x).reshape(-1, 5)
                    assert np.isnan(got[:, :3]).all()
                    assert (got[:, 3:].view(np.int64) == finite).all()
                    assert np.isnan(br(np.inf))
            return np.geterr()["invalid"]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' calls finely
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ThreadPoolExecutor(4) as pool:
                jobs = [pool.submit(work) for _ in range(4)]
                states = [job.result(timeout=120) for job in jobs]
    finally:
        sys.setswitchinterval(switch)
    assert states == ["raise"] * 4
