"""The forward pass against the plain recursion, bit for bit.

``network._forward`` evaluates the flattened input in blocks, each in
increasing order of x (by one sort of packed int64 keys), and iterates a run of identical width-1 layers in
place on the stretch from the first to the last point whose bits still
change; a branch evaluates in chunks over the flattened input.  None of
these may change a single output bit.
"""

import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnet import network
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.network import (Branch, FourierResNet, Layer, branch_from_modes, eval_grid,
                             eval_prefix)
from fresnet.sign import build_sign_net
from fresnet.jets import MAX_ORDER
from fresnet.targets import registered_names, target_lookup
from oracles import forget_solves, forward_plain

EMPTY = Branch((), (), ())
SIGN_H = Branch((math.pi,), (1.0 / math.pi,), (0.0,))
FIRST = Layer(Branch((math.pi / 2,), (1.0,), (0.0,)))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_bits(got, want, what=""):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    differ = np.flatnonzero(bits(got) != bits(want))
    assert differ.size == 0, f"{what}: {differ.size} values differ, first at {differ[:5]}"


def tricky_points(n=4000, seed=0):
    """Uniform points, both signs of 2^-1..2^-69 and the smallest subnormal,
    signed zeros, and points outside [-1, 1]."""
    rng = np.random.default_rng(seed)
    powers = 2.0 ** -np.arange(1, 70)
    return np.concatenate([
        rng.uniform(-1.0, 1.0, n), powers, -powers, [0.0, -0.0, 5e-324, -5e-324],
        rng.uniform(-6.0, 6.0, 200), [1.0, -1.0, 2.0, -3.0, 1e6, -1e300],
    ])


@pytest.fixture(scope="module")
def built_net():
    return build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 32, 60))


def test_sign_nets_match_plain_recursion():
    xs = tricky_points()
    for depth in (1, 2, 3, 5, 8, 13, 21, 34, 60, 80):
        net = build_sign_net(depth)
        assert_same_bits(eval_grid(net, xs), forward_plain(net, xs))


def test_built_nets_match_plain_recursion(built_net):
    xs = tricky_points(seed=1)
    assert_same_bits(eval_grid(built_net, xs), forward_plain(built_net, xs))
    hat = build_piecewise_net(BuildSpec(target_lookup("hat"), 2, 16, 30))
    loaded = network.deserialize(network.serialize(hat))
    assert_same_bits(eval_grid(loaded, xs), forward_plain(hat, xs))


def test_near_zero_and_signed_zeros():
    net = build_sign_net(70)
    xs = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.0**-60, -(2.0**-60)])
    got = eval_grid(net, xs)
    assert_same_bits(got, forward_plain(net, xs))
    # the sign map keeps 0 fixed; -0.0 leaves layer 1 as +0.0
    assert bits(got[:2]).tolist() == bits([0.0, 0.0]).tolist()
    for x in xs:
        assert bits(eval_prefix(net, x, net.depth)) == bits(forward_plain(net, [x])[0])


def test_non_finite_inputs(built_net):
    """inf and NaN inputs give NaN at the same points, and every finite
    point keeps its bits.  The NaNs' own sign bits are not compared: numpy's
    vector and scalar loops give NaNs of either sign for the same input, so
    the plain recursion already returns -NaN for an inf input at the end of
    a 5-point array and +NaN at the end of a 17-point one."""
    xs = np.concatenate([tricky_points(500, seed=2), [np.inf, -np.inf, np.nan, -np.nan]])
    for net in (built_net, build_sign_net(40)):
        with np.errstate(invalid="ignore"):
            got, want = eval_grid(net, xs), forward_plain(net, xs)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert finite.sum() == xs.size - 4
        assert_same_bits(got[finite], want[finite])


def test_infinite_inputs_give_nan_without_a_warning(built_net):
    """No errstate here: pytest turns every warning into an error."""
    short = build_piecewise_net(BuildSpec(target_lookup("hat"), 2, 8, 10))
    for net in (built_net, short, build_sign_net(40)):
        got = eval_grid(net, [np.inf, -np.inf, 0.5])
        assert np.isnan(got[:2]).all()
        assert_same_bits(got[2:], forward_plain(net, [0.5]))
        assert np.isnan(eval_prefix(net, -np.inf, 5))
        for br in (net.layers[0].g_branch, net.layers[-1].g_branch, net.layers[-1].h_branch):
            if br.width:
                assert np.isnan(br(np.array([np.inf, -np.inf]))).all()


def test_shuffled_input_gives_the_shuffled_bits(built_net):
    """Each block is evaluated in increasing order of x; a point's bits
    must not depend on that order or on where the point sits."""
    xs = tricky_points(seed=9)
    perm = np.random.default_rng(10).permutation(xs.size)
    for net in (built_net, build_sign_net(60)):
        assert_same_bits(eval_grid(net, xs[perm]), forward_plain(net, xs)[perm])
        for ell in (1, 2, 5, 19, 30, 60):
            assert_same_bits(eval_prefix(net, xs[perm], ell),
                             forward_plain(net, xs, ell)[perm], f"depth {ell}")


def test_blocks_of_an_unordered_input(built_net):
    """Tricky points straddle both block edges of a three-block input, in
    random order; the blocks between are random or non-decreasing."""
    chunk = network.TRIG_CHUNK
    rng = np.random.default_rng(11)
    tricky = tricky_points(200, seed=12)
    half = tricky.size // 2
    xs = rng.uniform(-1.0, 1.0, 2 * chunk + 1234)
    for edge in (chunk, 2 * chunk):
        xs[edge - half:edge - half + tricky.size] = rng.permutation(tricky)
    assert_same_bits(eval_grid(built_net, xs), forward_plain(built_net, xs))
    # the first block non-decreasing, with signed zeros side by side; the
    # second decreasing; the third unordered
    xs[:chunk] = np.sort(xs[:chunk])
    zero = np.searchsorted(xs[:chunk], 0.0)
    xs[zero - 2:zero + 2] = [-0.0, 0.0, -0.0, 0.0]
    assert (xs[1:chunk] >= xs[:chunk - 1]).all()
    xs[chunk:2 * chunk] = np.sort(xs[chunk:2 * chunk])[::-1]
    for ell in (3, 60):
        assert_same_bits(eval_prefix(built_net, xs, ell), forward_plain(built_net, xs, ell))


def test_eval_prefix_at_every_depth(built_net):
    xs = tricky_points(1000, seed=3)
    for ell in range(1, built_net.depth + 1):
        assert_same_bits(eval_prefix(built_net, xs, ell), forward_plain(built_net, xs, ell))
    for ell in (1, 2, 7, 30, built_net.depth):
        for x in (0.3, -0.0, -0.71):
            want = forward_plain(built_net, [x], ell)[0]
            assert bits(eval_prefix(built_net, x, ell)) == bits(want)


def test_runs_broken_by_a_g_branch_or_another_h():
    other_h = Branch((math.pi,), (0.9 / math.pi,), (0.0,))
    dense_h = Branch((2.5, 0.75), (0.1, -0.05), (0.02, 0.0))
    g = Branch((1.0,), (0.01,), (0.0,))
    run = [Layer(EMPTY, SIGN_H)] * 6
    nets = {
        "g breaks the run": [FIRST, *run, Layer(g, SIGN_H), *run],
        "another h": [FIRST, *run, Layer(EMPTY, other_h), *run, *[Layer(EMPTY, other_h)] * 5],
        "dense h run": [FIRST, *[Layer(EMPTY, dense_h)] * 12, *run],
        "h-less layers": [FIRST, Layer(EMPTY), Layer(EMPTY), *run, Layer(EMPTY), *run],
        "alternating h": [FIRST, *[Layer(EMPTY, h) for h in (SIGN_H, other_h) * 8]],
        # equal, not identical, branches still form one run
        "equal copies": [FIRST, *[Layer(EMPTY, Branch(SIGN_H.freqs, SIGN_H.sin_amps,
                                                      SIGN_H.cos_amps)) for _ in range(20)]],
    }
    xs = tricky_points(2000, seed=4)
    for name, layers in nets.items():
        net = FourierResNet(tuple(layers))
        for ell in range(1, net.depth + 1):
            assert_same_bits(eval_prefix(net, xs, ell), forward_plain(net, xs, ell),
                             f"{name}, depth {ell}")


def test_equal_h_branches_form_one_run(built_net, monkeypatch):
    """Built nets share one sign h object; loaded nets and hand-built ones
    hold equal copies, which must still form one run per block."""
    copies = FourierResNet((FIRST, *[Layer(EMPTY, Branch(SIGN_H.freqs, SIGN_H.sin_amps,
                                                        SIGN_H.cos_amps)) for _ in range(20)]))
    loaded = network.deserialize(network.serialize(built_net))
    assert loaded.layers[1].h_branch is not loaded.layers[2].h_branch
    assert copies.layers[1].h_branch is not copies.layers[2].h_branch
    runs = []
    iterate = network._iterate

    def spy(h, f, steps):
        runs.append(steps)
        return iterate(h, f, steps)

    monkeypatch.setattr(network, "_iterate", spy)
    for net, steps in ((copies, 20), (loaded, 58), (built_net, 58)):
        for n, blocks in ((33, 1), (3000, 1), (network.TRIG_CHUNK + 1, 2)):
            runs.clear()
            eval_grid(net, np.random.default_rng(n).uniform(-1.0, 1.0, n))
            assert runs == [steps] * blocks


def test_iterate_on_an_unordered_input_gives_the_per_layer_bits():
    """Called directly, a run need not see sorted points: the stretch then
    spans more fixed points, and no bit changes.  Layers with neither a
    g-branch nor an h-branch form no run: each adds the empty branch's 0.0."""
    h = SIGN_H
    rng = np.random.default_rng(14)
    for f0 in (rng.permutation(tricky_points(3000, seed=15)),
               rng.uniform(-1.0, 1.0, 500), np.array([-0.0, 0.3, -0.0, 5e-324])):
        for steps in (1, 2, 7, 60):
            want = f0.copy()
            for _ in range(steps):
                want = (want + 0.0) + h(want)
            got = network._iterate(h, f0.copy(), steps)
            assert_same_bits(got, want, f"{f0.size} points, {steps} steps")
    edges = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]
    xs = rng.permutation(np.concatenate([edges, tricky_points(500, seed=17)]))
    net = FourierResNet((FIRST, *[Layer(EMPTY)] * 3, *[Layer(EMPTY, SIGN_H)] * 4,
                         *[Layer(EMPTY)] * 2))
    first = FIRST.g_branch(xs)
    for ell in range(1, net.depth + 1):
        got = eval_prefix(net, xs, ell)
        assert_same_bits(got, forward_plain(net, xs, ell), f"depth {ell}")
        if 2 <= ell <= 4:
            assert_same_bits(got, first + 0.0, f"depth {ell}")


def test_rescaled_stacks_match_plain_recursion():
    """A first g-branch and a sign h whose amplitudes lie below 2**-TINY_EXP
    are summed scaled up and scaled back by ldexp, which can give -0.0;
    such stacks keep the plain recursion's bits at every depth, signed zeros
    and subnormals included."""
    powers = 2.0 ** -np.arange(1, 1075)
    xs = np.concatenate([[0.0, -0.0, 5e-324, -5e-324], powers, -powers,
                         tricky_points(300, seed=16)])
    for scale in (2.0 ** -950, 2.0 ** -1000, 2.0 ** -1070):
        first = Layer(Branch((math.pi / 2,), (scale,), (0.0,)))
        h = Branch((math.pi,), (scale / math.pi,), (0.0,))
        assert h._plan[-1] == first.g_branch._plan[-1] == network.TINY_SHIFT
        net = FourierResNet((first, *[Layer(EMPTY, h)] * 30))
        for ell in range(1, net.depth + 1):
            assert_same_bits(eval_prefix(net, xs, ell), forward_plain(net, xs, ell),
                             f"scale {scale}, depth {ell}")


def test_nd_input_equals_flat_result_reshaped(built_net):
    flat = np.random.default_rng(5).uniform(-1.0, 1.0, 20000)
    want = eval_grid(built_net, flat)
    for shape in ((20000, 1), (1, 20000), (100, 200), (20, 50, 20)):
        xs = flat.reshape(shape)
        assert_same_bits(eval_grid(built_net, xs), want.reshape(shape))
        assert_same_bits(eval_prefix(built_net, xs, 7),
                         eval_prefix(built_net, flat, 7).reshape(shape))
    last = built_net.layers[-1].h_branch
    assert_same_bits(last(flat.reshape(200, 100)), last(flat).reshape(200, 100))
    br = branch_from_modes([1.0, 0.5j, 0.3 - 0.1j, 2.0], [0.5, -1.3, 2.0 * math.pi, 0.25])
    assert_same_bits(br(flat.reshape(400, 50)), br(flat).reshape(400, 50))


def test_chunking_keeps_the_bits_of_one_block():
    """An input longer than one chunk gives, at every point, the bits the
    same point gets in a call that fits in one chunk."""
    n = 2 * network.TRIG_CHUNK + 1001
    xs = np.random.default_rng(6).uniform(-1.0, 1.0, n)
    omegas = np.concatenate([np.arange(-40, 41) * math.pi, [0.5, 1.0, 2.25, -0.75]])
    amps = np.random.default_rng(7).normal(size=omegas.size) * (1 + 0.5j)
    br = branch_from_modes(amps, omegas)
    whole = br(xs)
    for lo in range(0, n, network.TRIG_CHUNK):
        assert_same_bits(whole[lo:lo + network.TRIG_CHUNK], br(xs[lo:lo + network.TRIG_CHUNK]))


def adversarial_block(n, seed):
    """n points drawn from a few hundred distinct values, with NaN of both
    signs, +-inf, +-0.0 and subnormals among them, so most repeat; sorted
    descending, then a few swapped, so the block is out of order."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([tricky_points(150, seed=seed),
                             [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 0.5]])
    xs = np.sort(rng.choice(values, n))[::-1].copy()
    swap = rng.choice(n, 40, replace=False)
    xs[swap] = xs[swap[::-1]]
    # NaN sorts last in np.sort: move some of both signs to the front
    xs[:3] = [np.nan, -np.nan, np.nan]
    return xs


@pytest.mark.parametrize("extra", [0, 1])
def test_adversarial_blocks_match_point_by_point(built_net, extra):
    """A block of exactly TRIG_CHUNK points, and one more (a second block of
    one point), each point against the same point evaluated alone and
    against the plain recursion.  NaN sign bits are not compared (see
    test_non_finite_inputs)."""
    xs = adversarial_block(network.TRIG_CHUNK + extra, seed=20 + extra)
    with np.errstate(invalid="ignore"):
        plain = forward_plain(built_net, xs)
    got = eval_grid(built_net, xs)
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(plain)) and nan.sum() > 3
    assert np.array_equal(nan, ~np.isfinite(xs))
    assert_same_bits(got[~nan], plain[~nan])
    # each distinct bit pattern once, evaluated alone
    patterns, first = np.unique(bits(xs), return_index=True)
    assert patterns.size < 600
    for i in first:
        alone = eval_prefix(built_net, xs[i], built_net.depth)
        same = bits(xs) == bits(xs[i])
        if np.isnan(alone):
            assert nan[same].all()
        else:
            assert (bits(got[same]) == bits(alone)).all(), xs[i]


def test_ascending_orders_a_block_by_its_packed_keys():
    """The permutation sorts a block (NaN of both signs, +-inf, +-0.0,
    duplicates, a descending run); -NaN comes first, +NaN last and -0.0
    before +0.0.  Points within 2^b ulps of each other may swap, b the
    bits an index into the block takes."""
    rng = np.random.default_rng(21)
    n = network.TRIG_CHUNK
    xs = rng.uniform(-1.0, 1.0, n)
    xs[:2000] = np.sort(xs[:2000])[::-1]
    xs[2000:2200] = 0.25
    xs[rng.choice(n, 10, replace=False)] = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                                            np.nan, -np.nan, 0.0, -0.0]
    order = network._ascending(xs)
    assert np.array_equal(np.sort(order), np.arange(n))
    ys = xs[order]
    assert np.isnan(ys[:2]).all() and np.signbit(ys[:2]).all()
    assert np.isnan(ys[-2:]).all() and not np.signbit(ys[-2:]).any()
    finite = ys[2:-2]
    assert np.array_equal(finite, np.sort(xs[~np.isnan(xs)]))
    zeros = bits(finite[finite == 0.0])
    assert zeros.tolist() == bits([-0.0, -0.0, 0.0, 0.0]).tolist()
    # neighbours closer than the index bits may come out in either order,
    # among them the subnormals next to a zero of their own sign; a block
    # of 200 points takes 8 index bits
    for near in (0.5 + np.arange(200) * np.spacing(0.5), np.arange(-100, 100) * 5e-324):
        order = network._ascending(near[::-1].copy())
        assert np.array_equal(np.sort(order), np.arange(200))
        assert np.abs(near[::-1][order] - near).max() <= 2 ** 8 * np.spacing(near).max()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ascending_sorts_the_smallest_blocks(n):
    """A block of n points takes the index bits of n - 1 (none for one
    point), and its keys still sort it: every order of distinct points,
    equal points and a signed-zero pair."""
    blocks = [np.array(p) for p in itertools.permutations([-0.75, 0.25, 0.5][:n])]
    blocks += [np.full(n, 0.125), np.array([0.0, -0.0, 1.0])[:n]]
    for xs in blocks:
        order = network._ascending(xs.copy())
        assert np.array_equal(np.sort(order), np.arange(n)), xs
        # -0.0 before +0.0
        want = sorted(xs.tolist(), key=lambda v: (v, math.copysign(1.0, v)))
        assert bits(xs[order]).tolist() == bits(want).tolist(), xs


def test_block_order_follows_the_chunk_size(built_net, monkeypatch):
    """The index bits of a key come from the block it sorts, so any chunk
    size gives the plain recursion's bits: blocks of 2^15 points take 15 of
    them, and a chunk that is not a power of two leaves a smaller last
    block."""
    xs = np.random.default_rng(22).uniform(-1.0, 1.0, 2 ** 15 + 5)
    want = forward_plain(built_net, xs)
    for chunk in (2 ** 15, 1000, 3 * 2 ** 12):
        monkeypatch.setattr(network, "TRIG_CHUNK", chunk)
        assert_same_bits(eval_grid(built_net, xs), want, f"TRIG_CHUNK {chunk}")


def test_every_layer_is_a_call_of_its_own_branch(built_net, monkeypatch):
    """The forward pass evaluates each layer as ``Branch.__call__(branch,
    t)`` on the net's own branch objects, so a hook on that one method sees
    every layer and tells the last layer's branches apart by identity; the
    last layer's branches are called once per block."""
    assert "__call__" in network.Branch.__dict__
    called = []
    call = network.Branch.__call__

    def spy(branch, t):
        called.append(branch)
        return call(branch, t)

    monkeypatch.setattr(network.Branch, "__call__", spy)
    first, sign, last = built_net.layers[0], built_net.layers[1], built_net.layers[-1]
    for n, blocks in ((5000, 1), (network.TRIG_CHUNK + 1, 2)):
        called.clear()
        eval_grid(built_net, np.random.default_rng(n).uniform(-1.0, 1.0, n))
        assert any(b is first.g_branch for b in called)
        assert any(b is sign.h_branch for b in called)
        assert sum(b is last.g_branch for b in called) == blocks
        assert sum(b is last.h_branch for b in called) == blocks


def test_million_point_eval_memory():
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 512, 60))
    xs = np.linspace(-1.0, 1.0, 1_000_000)
    tracemalloc.start()
    try:
        eval_grid(net, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6, f"eval_grid peak {peak / 1e6:.1f} MB"


def test_random_order_million_point_eval_holds_one_block():
    """Besides its 8 MB output, the forward pass holds one block at a
    time: a 1e6-point eval in random order, table build included, peaks
    within a few MB of the output."""
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 512, 60))
    xs = np.random.default_rng(13).uniform(-1.0, 1.0, 1_000_000)
    tracemalloc.start()
    try:
        eval_grid(net, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < xs.nbytes + 4e6, f"eval_grid peak {peak / 1e6:.1f} MB"


def test_the_library_makes_no_tuple_views():
    """A build, serialize, load, neuron count and eval read only each
    branch's entries array: none of the branches they make holds the
    tuple views, which are built on a first read."""
    forget_solves()
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 64, 20))
    loaded = network.deserialize(network.serialize(net))
    for held in (net, loaded):
        network.serialize(held)
        network.neuron_count(held)
        eval_grid(held, np.linspace(-1.0, 1.0, 33))
    branches = [net.layers[-1].g_branch, net.layers[-1].h_branch]
    branches += [br for layer in loaded.layers for br in (layer.g_branch, layer.h_branch)
                 if br is not None]
    for br in branches:
        assert not {"freqs", "sin_amps", "cos_amps"} & br.__dict__.keys()
    assert "_plan" in net.layers[-1].g_branch.__dict__  # the eval did run
    # a first read builds a view and keeps it
    spectral = net.layers[-1].g_branch
    assert spectral.freqs is spectral.freqs and "freqs" in spectral.__dict__



# -- the memo of a run's last result -----------------------------------------
#
# Each check compares with a run on a fresh Branch(*h.entries), which has no
# memo, so it computes every step.

def without_memo(net):
    """``net`` with each h-branch object replaced by a fresh copy."""
    fresh = {}
    return FourierResNet(tuple(
        Layer(layer.g_branch, None if layer.h_branch is None
              else fresh.setdefault(id(layer.h_branch), Branch(*layer.h_branch.entries)))
        for layer in net.layers))


def fresh_run(h, f, steps):
    return network._iterate(Branch(*h.entries), f.copy(), steps)


def calls_of(h, monkeypatch):
    """The number of calls of ``h`` so far, as a list that grows."""
    calls = []
    call = network.Branch.__call__

    def spy(branch, t):
        if branch is h:
            calls.append(np.size(t))
        return call(branch, t)

    monkeypatch.setattr(network.Branch, "__call__", spy)
    return calls


def test_a_repeated_run_copies_its_memo(monkeypatch):
    h = Branch(*SIGN_H.entries)
    f0 = FIRST.g_branch(np.sort(np.random.default_rng(30).uniform(-1.0, 1.0, 3000)))
    calls = calls_of(h, monkeypatch)
    first = network._iterate(h, f0.copy(), 18)
    assert calls and h._last_run[0] == 18
    memo = h._last_run
    calls.clear()
    again = network._iterate(h, f0.copy(), 18)
    assert calls == [] and h._last_run is memo
    want = fresh_run(h, f0, 18)
    assert_same_bits(first, want)
    assert_same_bits(again, want)
    # the memo is read-only and the run's output is not the memo's array
    assert not memo[1].flags.writeable and not memo[2].flags.writeable
    for run in (first, again):
        assert run.flags.writeable and not np.shares_memory(run, memo[2])
    again[:] = 0.0
    assert_same_bits(network._iterate(h, f0.copy(), 18), want)
    # one point moved by one ulp, first, last or inside: the run computes
    for i in (0, 1500, f0.size - 1):
        f1 = f0.copy()
        f1[i] = np.nextafter(f1[i], np.inf)
        calls.clear()
        assert_same_bits(network._iterate(h, f1.copy(), 18), fresh_run(h, f1, 18), f"point {i}")
        assert calls
        assert (h._last_run[1] == bits(f1 + 0.0)).all()
    # the same points for another number of steps, or a shorter block
    for f1, steps in ((f0, 17), (f0[:-1], 17)):
        calls.clear()
        assert_same_bits(network._iterate(h, f1.copy(), steps), fresh_run(h, f1, steps))
        assert calls


def test_eval_prefix_at_alternating_depths(built_net, monkeypatch):
    """Depths ending inside the sign run give runs of as many steps, so each
    depth replaces the memo that the other one left."""
    xs = tricky_points(2000, seed=31)
    h = built_net.layers[1].h_branch
    calls = calls_of(h, monkeypatch)
    for ell in (30, 45, 30, 30, 45, 60, 45, 2, 60):
        calls.clear()
        got = eval_prefix(built_net, xs, ell)
        assert_same_bits(got, eval_prefix(without_memo(built_net), xs, ell), f"depth {ell}")
        assert_same_bits(got, forward_plain(built_net, xs, ell), f"depth {ell}")
    # a repeated depth calls h only in the layers outside the run
    eval_prefix(built_net, xs, 45)
    calls.clear()
    eval_prefix(built_net, xs, 45)
    assert calls == []


def test_memo_keys_on_bits_after_the_added_zero():
    """-0.0 and +0.0 are one point after the run's + 0.0, so they share a
    memo; NaNs with other payloads are other points, and every payload
    comes out as a fresh run gives it."""
    h = Branch(*SIGN_H.entries)
    payloads = np.array([0x7FF8000000000001, 0x7FF8000000000002, -0x0007FFFFFFFFFFFF,
                         0x7FFFFFFFFFFFFFFF], dtype=np.int64).view(float)
    base = np.concatenate([np.linspace(-0.9, 0.9, 61), payloads])
    for zero in (0.0, -0.0, 0.0):
        f0 = base.copy()
        f0[30] = zero
        assert_same_bits(network._iterate(h, f0.copy(), 20), fresh_run(h, f0, 20), f"{zero}")
    memo = h._last_run
    f0[30] = -0.0
    network._iterate(h, f0.copy(), 20)
    assert h._last_run is memo
    for i in range(4):
        f1 = f0.copy()
        f1[-4 + i] = np.int64(0x7FF8000000000003 + i).view(float)
        assert_same_bits(network._iterate(h, f1.copy(), 20), fresh_run(h, f1, 20), f"NaN {i}")
        assert h._last_run is not memo


def test_an_empty_run_leaves_the_memo(built_net):
    h = built_net.layers[1].h_branch
    xs = np.linspace(-1.0, 1.0, 101)
    eval_grid(built_net, xs)
    memo = h._last_run
    assert network._iterate(h, np.empty(0), 58).shape == (0,)
    assert h._last_run is memo
    for empty in (np.empty(0), np.empty((0, 3))):
        got = eval_grid(built_net, empty)
        assert_same_bits(got, eval_grid(without_memo(built_net), empty))
    assert h._last_run is memo
    assert_same_bits(eval_grid(built_net, xs), eval_grid(without_memo(built_net), xs))


def test_the_memo_holds_one_block(built_net):
    xs = np.random.default_rng(32).uniform(-1.0, 1.0, 3 * network.TRIG_CHUNK + 17)
    h = built_net.layers[1].h_branch
    want = eval_grid(without_memo(built_net), xs)
    for _ in range(2):
        assert_same_bits(eval_grid(built_net, xs), want)
        steps, start, end = h._last_run
        assert start.size == end.size == 17
    # the last block alone, in the order the pass sorts it, hits the memo
    tail = np.sort(xs[-17:])
    assert_same_bits(eval_grid(built_net, tail), eval_grid(without_memo(built_net), tail))
    assert h._last_run[1] is start


def test_threads_on_alternating_point_sets(built_net):
    """Four threads evaluate one net on point sets that alternate, so the
    memo is replaced and read from every thread at once; each result has
    its single-thread bits."""
    rng = np.random.default_rng(33)
    sets = [np.linspace(-1.0, 1.0, 3360), np.linspace(-1.0, 1.0, 3361),
            np.sort(rng.uniform(-1.0, 1.0, 3360)), rng.uniform(-1.0, 1.0, 500)]
    fresh = without_memo(built_net)
    want = [eval_grid(fresh, xs).view(np.int64) for xs in sets]
    start = threading.Barrier(4, timeout=30)

    def work(k):
        start.wait()
        for i in range(40):
            j = (k + i) % len(sets)
            if not (eval_grid(built_net, sets[j]).view(np.int64) == want[j]).all():
                return j
        return None

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' calls finely
    try:
        with ThreadPoolExecutor(4) as pool:
            bad = [job.result(timeout=120) for job in [pool.submit(work, k) for k in range(4)]]
    finally:
        sys.setswitchinterval(switch)
    assert bad == [None] * 4

@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(registered_names()), st.integers(1, MAX_ORDER), st.integers(0, 128),
       st.integers(2, 60),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=50))
def test_a_built_net_is_finite_on_the_domain(name, m, half_modes, depth, xs):
    # a net is defined at every x, and claims accuracy only on [-1, 1]
    net = build_piecewise_net(BuildSpec(target_lookup(name), m, half_modes, depth))
    assert np.isfinite(eval_grid(net, xs + [-1.0, -0.0, 0.0, 1.0])).all()
