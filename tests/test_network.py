"""Network evaluation against a straight-line oracle, plus serialization."""

import math

import numpy as np
import pytest

from fresnet import network
from fresnet.network import (
    Branch,
    FourierResNet,
    Layer,
    NetworkFormatError,
    branch_from_modes,
    deserialize,
    eval_grid,
    eval_prefix,
    neuron_count,
    serialize,
)
from oracles import frequency_multiset, mode_entry


def oracle_eval(net, x):
    """Independent scalar re-implementation of the layer recursion."""

    def branch(br, t):
        return sum(
            a * math.sin(w * t) + b * math.cos(w * t)
            for w, a, b in zip(br.freqs, br.sin_amps, br.cos_amps)
        )

    f = branch(net.layers[0].g_branch, x)
    for layer in net.layers[1:]:
        prev = f
        f = prev + branch(layer.g_branch, x)
        if layer.h_branch is not None:
            f += branch(layer.h_branch, prev)
    return f


def random_net(rng, depth, max_width=4):
    def rand_branch():
        w = int(rng.integers(0, max_width + 1))
        return Branch(
            tuple(rng.uniform(0, 8, w)),
            tuple(rng.uniform(-1, 1, w)),
            tuple(rng.uniform(-1, 1, w)),
        )

    layers = [Layer(rand_branch())]
    for _ in range(depth - 1):
        layers.append(Layer(rand_branch(), rand_branch()))
    return FourierResNet(tuple(layers))


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(7)
    for depth in (1, 2, 3, 6):
        net = random_net(rng, depth)
        xs = rng.uniform(-1, 1, 17)
        got = eval_grid(net, xs)
        want = [oracle_eval(net, x) for x in xs]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_eval_prefix_chain():
    rng = np.random.default_rng(11)
    net = random_net(rng, 5)
    xs = rng.uniform(-1, 1, 9)
    assert eval_prefix(net, xs, net.depth) == pytest.approx(eval_grid(net, xs))
    sub = FourierResNet(net.layers[:3])
    assert eval_prefix(net, xs, 3) == pytest.approx(eval_grid(sub, xs))
    with pytest.raises(IndexError):
        eval_prefix(net, 0.0, 0)
    with pytest.raises(IndexError):
        eval_prefix(net, 0.0, net.depth + 1)


def test_scalar_and_empty_inputs():
    net = random_net(np.random.default_rng(3), 2)
    assert eval_prefix(net, 0.25, net.depth) == pytest.approx(oracle_eval(net, 0.25))
    assert eval_grid(net, np.array([])).shape == (0,)
    assert eval_grid(net, np.empty((0, 3))).shape == (0, 3)
    # an empty branch evaluates like any other: np.float64 at a scalar,
    # zeros of the input's shape at an array
    empty, one = Branch((), (), ()), Branch((1.0,), (1.0,), (0.0,))
    assert type(empty(0.25)) is type(one(0.25)) is np.float64
    assert empty(0.25) == 0.0
    got = empty(np.ones((2, 3)))
    assert got.shape == (2, 3) and np.array_equal(got, np.zeros((2, 3)))


def bits(values):
    """float64 bit patterns, so -0.0 and 0.0 compare unequal."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_branch_from_modes_matches_per_mode_oracle():
    rng = np.random.default_rng(5)
    signed_zeros = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(1.5, 0.0), -2j]
    coeffs = [complex(rng.normal(), rng.normal()) for _ in range(30)] + signed_zeros * 2
    omegas = [*rng.normal(size=30) * 4, 0.0, -0.0, 3.0, -3.0, 0.0, -1.0, -0.0, -2.5, 2.5, -0.0]
    br = branch_from_modes(coeffs, omegas)
    want = [mode_entry(c, w) for c, w in zip(coeffs, omegas)]
    assert bits(br.freqs) == bits([e[0] for e in want])
    assert bits(br.sin_amps) == bits([e[1] for e in want])
    assert bits(br.cos_amps) == bits([e[2] for e in want])
    ts = rng.uniform(-3, 3, 13)
    for freq, a, b, c, w in zip(br.freqs, br.sin_amps, br.cos_amps, coeffs, omegas):
        assert freq >= 0
        got = a * np.sin(freq * ts) + b * np.cos(freq * ts)
        assert got == pytest.approx((c * np.exp(1j * w * ts)).real, abs=1e-13)


def test_branch_from_modes_width():
    br = branch_from_modes([1 + 2j, 3j, 0.5], [-2.0, 0.0, 2.0])
    assert br.width == 3
    assert br.freqs == (2.0, 0.0, 2.0)
    # one coefficient would otherwise broadcast silently over three modes
    with pytest.raises(ValueError, match="3 frequencies but 1 amplitudes"):
        branch_from_modes([1j], [1.0, 2.0, 3.0])


def test_neuron_count_skips_zero_frequency_bias():
    bias_branch = Branch((0.0, 1.0, 2.0), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0))
    net = FourierResNet((Layer(bias_branch), Layer(Branch((3.0,), (1.0,), (0.0,)), bias_branch)))
    # 2 nonzero-freq entries per bias_branch + 1 in the middle g
    assert neuron_count(net) == 5


def test_frequency_multiset_sorted_with_multiplicity():
    net = FourierResNet(
        (
            Layer(Branch((2.0, 1.0), (1, 1), (0, 0))),
            Layer(Branch((1.0,), (1,), (0,)), Branch((3.0,), (1,), (0,))),
        )
    )
    assert frequency_multiset(net) == [1.0, 1.0, 2.0, 3.0]


def test_branch_validation():
    with pytest.raises(NetworkFormatError):
        Branch((1.0,), (1.0, 2.0), (0.0,))
    with pytest.raises(NetworkFormatError):
        Branch((float("nan"),), (1.0,), (0.0,))
    with pytest.raises(NetworkFormatError):
        FourierResNet(())
    with pytest.raises(NetworkFormatError):
        FourierResNet((Layer(Branch((), (), ()), Branch((), (), ())),))


# -- serialization --------------------------------------------------------

def test_round_trip_is_exact():
    rng = np.random.default_rng(19)
    net = random_net(rng, 4)
    assert deserialize(serialize(net)) == net


def test_round_trip_preserves_awkward_floats():
    br = Branch((math.pi, 1e-300), (0.1, -0.0), (1 / 3, 5e300))
    net = FourierResNet((Layer(br),))
    again = deserialize(serialize(net)).layers[0].g_branch
    for a, b in zip(br.freqs + br.sin_amps + br.cos_amps,
                    again.freqs + again.sin_amps + again.cos_amps):
        assert math.copysign(1, a) == math.copysign(1, b)
        assert a == b


def test_parse_error_reports_position():
    with pytest.raises(NetworkFormatError, match=r"line 2, column"):
        deserialize('{\n  "layers": [}\n}')


def test_depth_mismatch_rejected():
    text = '{"depth": 3, "layers": [{"g": {"freqs": [], "a": [], "b": []}, "h": null}]}'
    with pytest.raises(NetworkFormatError, match="depth 3"):
        deserialize(text)


def test_layer_one_h_branch_rejected():
    text = (
        '{"layers": [{"g": {"freqs": [], "a": [], "b": []},'
        ' "h": {"freqs": [], "a": [], "b": []}}]}'
    )
    with pytest.raises(NetworkFormatError, match="layer 1"):
        deserialize(text)


def test_malformed_branch_rejected():
    bad = '{"layers": [{"g": {"freqs": [1.0], "a": [], "b": []}, "h": null}]}'
    with pytest.raises(NetworkFormatError, match="mismatched lengths"):
        deserialize(bad)
    with pytest.raises(NetworkFormatError):
        deserialize('{"layers": "nope"}')
    with pytest.raises(NetworkFormatError):
        deserialize("[1, 2]")


def _one_layer(g):
    return '{"depth": 1, "layers": [{"g": ' + g + ', "h": null}]}'


@pytest.mark.parametrize("entry", ['"1.5"', '" 2 "', "true", "false", "null", "[1.0]", "{}"])
@pytest.mark.parametrize("key", ["freqs", "a", "b"])
def test_non_number_entries_rejected(key, entry):
    arrays = {"freqs": "[1.0, 2.0]", "a": "[0.5, 0.25]", "b": "[0.0, 1.0]"}
    arrays[key] = "[1.0, " + entry + "]"
    g = "{" + ", ".join(f'"{k}": {v}' for k, v in arrays.items()) + "}"
    with pytest.raises(NetworkFormatError, match=f"layer 1 g-branch: '{key}' entry"):
        deserialize(_one_layer(g))


def test_non_number_entry_in_h_branch_names_it():
    text = (
        '{"layers": [{"g": {"freqs": [], "a": [], "b": []}, "h": null},'
        ' {"g": {"freqs": [], "a": [], "b": []},'
        ' "h": {"freqs": [1.0], "a": [true], "b": [0.0]}}]}'
    )
    with pytest.raises(NetworkFormatError, match="layer 2 h-branch: 'a' entry True"):
        deserialize(text)


def test_integer_entries_load_as_floats():
    net = deserialize(_one_layer('{"freqs": [0, 3], "a": [1, -2], "b": [0.5, 0]}'))
    br = net.layers[0].g_branch
    assert br == Branch((0.0, 3.0), (1.0, -2.0), (0.5, 0.0))
    assert all(type(v) is float for v in br.freqs + br.sin_amps + br.cos_amps)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_entries_rejected(entry):
    g = '{"freqs": [1.0], "a": [' + entry + '], "b": [0.0]}'
    with pytest.raises(NetworkFormatError, match="layer 1 g-branch"):
        deserialize(_one_layer(g))


@pytest.mark.parametrize("depth", ["true", "1.0", '"1"', "null"])
def test_non_integer_depth_rejected(depth):
    text = '{"depth": ' + depth + ', "layers": [{"g": {"freqs": [], "a": [], "b": []}, "h": null}]}'
    with pytest.raises(NetworkFormatError, match="'depth' must be an integer"):
        deserialize(text)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", [0, 1, 2])
def test_branch_rejects_non_finite_in_every_field(field, bad):
    fields = [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
    fields[field][1] = bad
    with pytest.raises(NetworkFormatError, match="finite"):
        Branch(*map(tuple, fields))


def test_save_load(tmp_path):
    net = random_net(np.random.default_rng(23), 3)
    path = tmp_path / "net.fnet.json"
    network.save(net, path)
    assert network.load(path) == net
