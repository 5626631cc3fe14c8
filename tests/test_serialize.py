"""Serialization: the bytes of ``serialize`` against the per-value oracle
``serialize_plain`` (``"%.17g"`` and the ``.0`` rule), and the round trip
compared bit for bit.  The number-text kernel is checked against
``"%.17g"`` in ``tests/test_numtext.py``."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresnet import numtext
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.network import Branch, FourierResNet, Layer, deserialize, serialize
from fresnet.sign import build_sign_net
from fresnet.targets import target_lookup
from oracles import number_text, serialize_plain


def bits(net):
    """Every number of the network in file order, as int64 bit patterns."""
    values = []
    for layer in net.layers:
        for br in (layer.g_branch, layer.h_branch):
            if br is not None:
                values += br.freqs + br.sin_amps + br.cos_amps
    return np.array(values, dtype=float).view(np.int64)


def assert_same_text(text, expected):
    """text == expected, reported by the first difference: pytest's own
    report of two long unequal strings is a diff that takes about half a
    minute per failing call."""
    if text != expected:
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                  min(len(text), len(expected)))
        start = max(at - 60, 0)
        pytest.fail(f"texts differ from index {at}: {text[start:at + 20]!r} "
                    f"!= {expected[start:at + 20]!r}")


def assert_bytes_and_round_trip(net):
    text = serialize(net)
    assert_same_text(text, serialize_plain(net))
    again = deserialize(text)
    assert again == net
    assert np.array_equal(bits(again), bits(net))


@pytest.mark.parametrize("half_modes", [32, 512, 1024])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("target", ["pw_smooth", "hat"])
def test_built_net_bytes_match_oracle(target, m, half_modes):
    net = build_piecewise_net(BuildSpec(target_lookup(target), m, half_modes, 60))
    assert_bytes_and_round_trip(net)


def test_one_layer_smooth_net_bytes_match_oracle():
    net = build_piecewise_net(BuildSpec(target_lookup("smooth_nonper"), 3, 24, 5))
    assert net.depth == 1
    assert_bytes_and_round_trip(net)


@pytest.mark.parametrize("depth", [1, 2, 60])
def test_sign_net_bytes_match_oracle(depth):
    assert_bytes_and_round_trip(build_sign_net(depth))


def test_loaded_net_bytes_match_oracle():
    built = build_piecewise_net(BuildSpec(target_lookup("hat"), 3, 40, 12))
    assert_bytes_and_round_trip(deserialize(serialize_plain(built)))


# whole numbers on both sides of the ".0" rule: .17g writes 2**53 and
# 99999999999999984.0 without a point or exponent, 1e17 and 2**60 with one
WHOLE = (1.0, -3.0, 1e16, 2.0 ** 53, 99999999999999984.0, 1e17, 2.0 ** 60)
SUBNORMAL = (5e-324, -2.2e-313)
HUGE = (1.7976931348623157e308, -1.7976931348623157e308)


def edge_net():
    g = Branch(
        (0.0, -0.0, 1.0, 2.0 ** 53, 1e17),
        (-0.0, 0.0, -3.0, 99999999999999984.0, 5e-324),
        (0.0, 0.0, 1e16, 2.0 ** 60, -2.2e-313),
    )
    h = Branch(
        (-0.0, 1.7976931348623157e308, 0.0),
        (0.0, -1.7976931348623157e308, -0.0),
        (-0.0, -0.0, 5e-324),
    )
    return FourierResNet((Layer(g), Layer(Branch((-0.0,), (0.0,), (-0.0,)), h)))


def test_edge_values_keep_their_bits():
    net = edge_net()
    text = serialize(net)
    assert_same_text(text, serialize_plain(net))
    assert np.array_equal(bits(deserialize(text)), bits(net))
    numbers = set(bits(net).view(float).tolist())
    assert numbers >= {*WHOLE, *SUBNORMAL, *HUGE}
    # a number that is written as a whole number must keep its ".0"
    assert '"freqs": [0.0, -0.0, 1.0, 9007199254740992.0, 1e+17]' in text
    assert '"a": [-0.0, 0.0, -3.0, 99999999999999984.0, 4.9406564584124654e-324]' in text
    assert '"b": [0.0, 0.0, 10000000000000000.0, 1.152921504606847e+18,' in text
    assert '{"g": {"freqs": [-0.0], "a": [0.0], "b": [-0.0]}' in text


# numbers the kernel leaves to "%.17g": a signed zero, an exact tie at 17
# digits and a magnitude outside its range
FALLBACK = (-0.0, 200000000000001 / 16, 1e300)


@pytest.mark.parametrize("v", FALLBACK)
def test_a_fallback_number_first_last_and_alone_in_an_array(v):
    assert not numtext._digits17(np.array([v]))[2][0]
    first = Branch((v, 0.5, 3.0), (v, -1.25, 2.0), (v, 7.0, 1e-5))
    last = Branch((0.5, 3.0, v), (-1.25, 2.0, v), (7.0, 1e-5, v))
    alone = Branch((v,), (v,), (v,))
    net = FourierResNet((Layer(first), Layer(last, alone), Layer(alone, first)))
    assert_bytes_and_round_trip(net)
    text = serialize(net)
    number = number_text(v)
    assert f'"freqs": [{number}, 0.5, 3.0]' in text
    assert f'"b": [7.0, 1.0000000000000001e-05, {number}]' in text
    assert f'{{"freqs": [{number}], "a": [{number}], "b": [{number}]}}' in text


def test_a_whole_number_keeps_its_point_as_an_arrays_last_entry():
    g = Branch((0.5, 3.0), (0.25, 2.0 ** 53), (-1.5, 99999999999999984.0))
    h = Branch((1e16,), (-7.0,), (1e17,))
    net = FourierResNet((Layer(g), Layer(g, h)))
    assert_bytes_and_round_trip(net)
    text = serialize(net)
    assert '{"freqs": [0.5, 3.0], "a": [0.25, 9007199254740992.0], "b": [-1.5, 99999999999999984.0]}' in text
    assert '"h": {"freqs": [10000000000000000.0], "a": [-7.0], "b": [1e+17]}}\n' in text


def test_widths_zero_and_one():
    empty = Branch((), (), ())
    one = Branch((2.5,), (-0.0,), (4.0,))
    net = FourierResNet((Layer(one), Layer(empty, one), Layer(one, empty), Layer(empty, empty),
                         Layer(one, one)))
    assert_bytes_and_round_trip(net)
    assert '{"g": {"freqs": [], "a": [], "b": []}, "h": {"freqs": [2.5], "a": [-0.0], "b": [4.0]}}' \
        in serialize(net)


@pytest.mark.parametrize("depth", [1, 3])
def test_a_net_whose_branches_are_all_empty(depth):
    empty = Branch((), (), ())
    net = FourierResNet((Layer(empty), *[Layer(empty, empty)] * (depth - 1)))
    assert_bytes_and_round_trip(net)
    assert serialize(net).count("[]") == 3 + 6 * (depth - 1)


def from_bits(pattern):
    return struct.unpack("<d", struct.pack("<q", pattern))[0]


finite_floats = st.integers(-2 ** 63, 2 ** 63 - 1).map(from_bits).filter(math.isfinite)


@st.composite
def small_nets(draw):
    """Nets of depth 1..3 whose numbers come from a small pool of finite
    float64 bit patterns, so values repeat, with both zeros always in it."""
    pool = draw(st.lists(finite_floats, min_size=1, max_size=6)) + [0.0, -0.0]
    numbers = st.sampled_from(pool)

    def branch():
        width = draw(st.integers(0, 4))
        return Branch(*(tuple(draw(st.lists(numbers, min_size=width, max_size=width)))
                        for _ in range(3)))

    layers = [Layer(branch())]
    for _ in range(draw(st.integers(0, 2))):
        layers.append(Layer(branch(), branch() if draw(st.booleans()) else None))
    return FourierResNet(tuple(layers))


@st.composite
def deep_nets(draw):
    """Nets of depth 3..6 whose layers are drawn from a few shared branches,
    so Branch objects and layer shapes recur in non-adjacent layers.  The
    last layer takes the shape of an earlier, non-adjacent one with new
    branches: serialize builds one skeleton line per shape, and only the
    last layer's line drops its comma."""
    pool = draw(st.lists(finite_floats, min_size=1, max_size=4)) + [0.0, -0.0]
    numbers = st.sampled_from(pool)

    def branch(width):
        return Branch(*(tuple(draw(st.lists(numbers, min_size=width, max_size=width)))
                        for _ in range(3)))

    shared = [branch(draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 3)))]
    pick = st.sampled_from(shared)
    depth = draw(st.integers(3, 6))
    layers = [Layer(draw(pick))]
    for _ in range(depth - 2):
        layers.append(Layer(draw(pick), draw(st.one_of(st.none(), pick))))
    model = layers[draw(st.integers(0, depth - 3))]
    h = model.h_branch
    layers.append(Layer(branch(model.g_branch.width), None if h is None else branch(h.width)))
    return FourierResNet(tuple(layers))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_nets())
@example(FourierResNet((Layer(Branch((0.0, -0.0), (-0.0, 0.0), (5e-324, -5e-324))),)))
@example(FourierResNet((Layer(Branch((), (), ())),)))
def test_drawn_net_bytes_match_oracle(net):
    assert_bytes_and_round_trip(net)


A = Branch((1.0, -0.0), (0.5, 2.0 ** 53), (-0.0, 1e17))
B = Branch((3.0,), (0.25,), (0.0,))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(deep_nets())
# shapes (2, -), (1, 2), (2, 1), (1, 2), (0, -), (1, 2): the first and the
# last line of shape (1, 2) differ only by the comma
@example(FourierResNet((
    Layer(A), Layer(B, A), Layer(A, B), Layer(B, A), Layer(Branch((), (), ())),
    Layer(Branch((9.0,), (1.0,), (-1.0,)), Branch((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))),
)))
def test_deep_net_bytes_match_oracle(net):
    def shape(layer):
        return layer.g_branch.width, None if layer.h_branch is None else layer.h_branch.width

    assert shape(net.layers[-1]) in map(shape, net.layers[:-2])
    assert_bytes_and_round_trip(net)
