"""Network evaluation against a straight-line oracle, plus serialization."""

import copy
import math
import pickle

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


def test_eval_prefix_takes_only_an_integer_layer_index():
    net = random_net(np.random.default_rng(11), 3)
    xs = np.linspace(-1, 1, 5)
    for ell in (True, False, 2.0, 1.5, "2", None):
        with pytest.raises(TypeError, match=f"layer index must be an integer, got {ell!r}"):
            eval_prefix(net, xs, ell)
    for ell in (np.int64(2), np.uint8(2)):
        assert np.array_equal(eval_prefix(net, xs, ell), eval_prefix(net, xs, 2))


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


def test_branch_modes_give_back_the_entries_bit_for_bit():
    # the smooth build joins H_r's modes to the residual's this way
    rng = np.random.default_rng(6)
    # signed zeros of both kinds among the amplitudes
    br = Branch(
        tuple(abs(rng.normal(size=8) * 3).tolist()) + (0.0, 1.0, 2.0, 0.5),
        tuple(rng.normal(size=8).tolist()) + (0.0, -0.0, -0.0, 0.0),
        tuple(rng.normal(size=8).tolist()) + (-0.0, 0.0, -0.0, 0.0),
    )
    freqs, amps = network._branch_modes(br)
    back = branch_from_modes(amps, freqs)
    for got, want in zip((back.freqs, back.sin_amps, back.cos_amps),
                         (br.freqs, br.sin_amps, br.cos_amps)):
        assert bits(got) == bits(want)
    ts = rng.uniform(-3, 3, 13)
    assert br(ts) == pytest.approx((np.exp(1j * np.multiply.outer(ts, freqs)) @ amps).real,
                                   abs=1e-13)


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


@pytest.mark.parametrize("g, message", [
    ("[1.0]", "layer 1 g-branch: branch must be an object"),
    ('{"a": [], "b": []}', "layer 1 g-branch: missing or invalid 'freqs' array"),
    ('{"freqs": 1.0, "a": [], "b": []}', "layer 1 g-branch: missing or invalid 'freqs' array"),
    ('{"freqs": {}, "a": [], "b": []}', "layer 1 g-branch: missing or invalid 'freqs' array"),
])
def test_branch_that_is_no_object_of_arrays_rejected(g, message):
    with pytest.raises(NetworkFormatError, match=f"^{message}$"):
        deserialize(_one_layer(g))


@pytest.mark.parametrize("layer", ['{"h": null}', "[]", "null"])
def test_layer_without_g_branch_rejected(layer):
    with pytest.raises(NetworkFormatError, match="^layer 1: must be an object with a 'g' branch$"):
        deserialize('{"layers": [' + layer + "]}")


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
    # so load -> save writes them as floats
    assert '{"freqs": [0.0, 3.0], "a": [1.0, -2.0], "b": [0.5, 0.0]}' in serialize(net)


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


MAX = 1.7976931348623157e308


@pytest.mark.parametrize("fields", [
    ((1.0,), (MAX,), (MAX,)),  # the sum overflows to +inf
    ((1.0, 2.0), (MAX, MAX), (-MAX, -MAX)),  # +inf + -inf: NaN
    ((MAX, -MAX), (-MAX, -MAX), (0.0, 0.0)),  # -inf
])
def test_branch_accepts_finite_entries_whose_sum_overflows(fields):
    assert Branch(*fields).freqs == fields[0]


@pytest.mark.parametrize("fields", [
    ((1.0, math.inf), (-math.inf, 0.0), (0.0, 0.0)),  # the sum is NaN
    ((math.inf,), (0.0,), (-math.inf,)),
    ((1.0,), (math.nan,), (MAX,)),
])
def test_branch_refuses_non_finite_entries_that_cancel_in_the_sum(fields):
    with pytest.raises(NetworkFormatError, match="^branch parameters must be finite$"):
        Branch(*fields)


def test_branch_check_of_entries_that_are_not_all_floats():
    # int entries, and ints mixed with floats, are accepted as numbers
    assert Branch((1, 2), (0, True), (1.5, 0)).width == 2
    assert Branch((), (), ()).width == 0
    # entries that are not real numbers raise TypeError (strings and huge
    # ints did before entries were an array); a string is not parsed, in a
    # tuple, a list or an array
    for rows in [(("1.0",), (1.0,), (0.0,)), ((10 ** 400,), (1.0,), (0.0,)),
                 (["1.0", "2.0"], [1.0, 2.0], [0.0, 0.0]), ((1.0,), np.array(["0.5"]), (0.0,)),
                 ((1.0,), (1.0,), (-(10 ** 400),)), ((1j,), (1.0,), (0.0,)),
                 (((1.0,),), ((1.0,),), ((0.0,),))]:
        with pytest.raises(TypeError):
            Branch(*rows)


def test_save_load(tmp_path):
    net = random_net(np.random.default_rng(23), 3)
    path = tmp_path / "net.fnet.json"
    network.save(net, path)
    assert network.load(path) == net


# -- the Branch contract -----------------------------------------------------

def _made_branches():
    """A branch from each way one is made: the constructor,
    branch_from_modes and deserialize (nonempty and empty)."""
    made = Branch((1.0, 2.0), (0.5, -0.25), (0.0, 3.0))
    loaded = deserialize(serialize(FourierResNet((Layer(made), Layer(Branch((), (), ()), made)))))
    return {
        "constructor": made,
        "branch_from_modes": branch_from_modes([1 + 2j, -3j], [-2.0, 0.5]),
        "loaded": loaded.layers[1].h_branch,
        "loaded empty": loaded.layers[1].g_branch,
    }


@pytest.mark.parametrize("duplicate", [None, copy.copy, copy.deepcopy,
                                       lambda br: pickle.loads(pickle.dumps(br))])
@pytest.mark.parametrize("how", ["constructor", "branch_from_modes", "loaded", "loaded empty"])
def test_a_branch_refuses_every_write(how, duplicate):
    """So does its copy, deep copy or unpickled copy."""
    br = _made_branches()[how]
    if duplicate is not None:
        br(0.5)  # a plan to copy along
        br = duplicate(br)
        assert br == _made_branches()[how]
    before = br.entries.copy()
    for name in ("entries", "freqs", "sin_amps", "cos_amps", "width", "other"):
        with pytest.raises(AttributeError):
            setattr(br, name, (1.0,))
        with pytest.raises(AttributeError):
            delattr(br, name)
    assert not br.entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        br.entries[...] = 7.0
    with pytest.raises(ValueError):
        br.entries.flags.writeable = True
    assert br.entries.dtype == np.float64 and br.entries.shape == (3, br.width)
    assert np.array_equal(br.entries.view(np.int64), before.view(np.int64))


def test_tuples_lists_and_arrays_make_equal_branches():
    rows = ((0.0, 1.5, math.pi), (1.0, -2.0, 0.25), (3.0, 0.0, -1e-300))
    made = [Branch(*rows), Branch(*map(list, rows)), Branch(*map(np.array, rows)),
            Branch(*np.array(rows)), Branch(rows[0], list(rows[1]), np.array(rows[2]))]
    for br in made:
        assert br == made[0] and hash(br) == hash(made[0])
        assert br.freqs == rows[0] and br.sin_amps == rows[1] and br.cos_amps == rows[2]
        assert np.array_equal(br.entries, np.array(rows))
    assert made[0] != Branch(rows[0], rows[1], (3.0, 0.0, -2e-300))
    assert made[0] != Branch((0.0,), (1.0,), (3.0,))
    assert made[0] != rows and Branch((), (), ()) == Branch([], [], [])


def test_int_and_bool_entries_read_back_as_floats():
    br = Branch((1, 2), [0, True], np.array([False, True]))
    assert br.entries.dtype == np.float64
    for view, want in ((br.freqs, (1.0, 2.0)), (br.sin_amps, (0.0, 1.0)),
                       (br.cos_amps, (0.0, 1.0))):
        assert view == want and all(type(v) is float for v in view)
    assert br == Branch((1.0, 2.0), (0.0, 1.0), (0.0, 1.0))


def test_signed_zero_entries_are_equal_and_hash_equal():
    plus = Branch((0.0, 1.0), (0.0, 0.5), (0.0, -0.0))
    minus = Branch((-0.0, 1.0), (-0.0, 0.5), (-0.0, 0.0))
    assert plus.entries.tobytes() != minus.entries.tobytes()
    assert plus == minus and minus == plus and hash(plus) == hash(minus)
    assert len({plus, minus}) == 1
    # the bits are kept: each is written with its own zeros
    assert serialize(FourierResNet((Layer(plus),))) != serialize(FourierResNet((Layer(minus),)))


def test_a_made_branch_does_not_follow_its_inputs():
    coeffs, omegas = np.array([1 + 2j, 0.5 - 1j, -3j]), np.array([-2.0, 0.0, 1.5])
    br = branch_from_modes(coeffs, omegas)
    want = br.entries.copy()
    coeffs[:] = np.nan
    omegas[:] = -7.0
    assert np.array_equal(br.entries, want)
    rows = [np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0])]
    stacked = np.array(rows)
    br, from_stack = Branch(*rows), Branch(*stacked)
    for arr in (*rows, stacked):
        arr[:] = np.inf
    assert br == from_stack == Branch((1.0, 2.0), (0.5, 0.5), (0.0, 1.0))


@pytest.mark.parametrize("entry", [0, 3, 5])
@pytest.mark.parametrize("layer, kind", [(1, "g"), (2, "h"), (3, "g"), (3, "h")])
def test_a_non_finite_entry_names_its_branch(layer, kind, entry):
    """The non-finite entry is the first (freqs[0]), a middle (a[1]) or the
    last (b[1]) of its branch; layer 2's g-branch is empty."""

    def branch(numbers):
        return ('{"freqs": [%s, %s], "a": [%s, %s], "b": [%s, %s]}' % tuple(numbers)
                if numbers else '{"freqs": [], "a": [], "b": []}')

    numbers = {(i, k): ["1.0", "2.0", "0.5", "0.25", "0.0", "1.0"] for i in (1, 2, 3) for k in "gh"}
    numbers[2, "g"] = []
    numbers[layer, kind][entry] = "NaN"
    text = ('{"layers": [{"g": ' + branch(numbers[1, "g"]) + ', "h": null}, '
            + ", ".join('{"g": %s, "h": %s}' % (branch(numbers[i, "g"]), branch(numbers[i, "h"]))
                        for i in (2, 3)) + "]}")
    with pytest.raises(NetworkFormatError,
                       match=f"^layer {layer} {kind}-branch: branch parameters must be finite$"):
        deserialize(text)


EMPTY = '{"freqs": [], "a": [], "b": []}'


@pytest.mark.parametrize("text, message", [
    ('{"depth": 1, "layers": [{"g": ' + EMPTY + ', "h": null}], "x": 1}',
     "document: unknown key 'x'"),
    ('{"layers": [{"g": ' + EMPTY + ', "h": null, "x": 1}]}', "layer 1: unknown key 'x'"),
    ('{"layers": [{"g": ' + EMPTY + '}, {"g": ' + EMPTY + ', "H": null}]}',
     "layer 2: unknown key 'H'"),
    ('{"layers": [{"g": {"freqs": [], "a": [], "x": [], "b": []}}]}',
     "layer 1 g-branch: unknown key 'x'"),
    ('{"layers": [{"g": ' + EMPTY + '}, {"g": ' + EMPTY + ', "h": {"freqs": [], "a": [], '
     '"b": [], "c": []}}]}', "layer 2 h-branch: unknown key 'c'"),
], ids=["document", "layer", "second-layer", "g-branch", "h-branch"])
def test_an_unknown_key_is_refused_with_its_place(text, message):
    with pytest.raises(NetworkFormatError, match=f"^{message}$"):
        deserialize(text)
