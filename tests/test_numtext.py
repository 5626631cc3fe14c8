"""The number-text kernel against ``"%.17g"``: its rows, ties and fallbacks
on the values of ``tests/edge_floats.py``, the vector path in calls of
every size, the two writers the CLI uses (``texts`` and ``write_csv``),
the CSV writer's refusal of a column that is not 1-D or not of the other
columns' length, and the memory of a blocked CSV."""

import io
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from fresnet import numtext
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.targets import target_lookup
from edge_floats import edge_floats


def g17(values):
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def row_texts(rows):
    """The numbers of ``numtext.rows``' rows, each of which must end in two
    pads and hold no other byte but pads and its text."""
    assert rows.shape[1] == numtext.WIDTH
    assert not rows[:, -2:].any()
    rows = rows.copy()
    rows[:, -1] = ord(",")
    texts = rows.tobytes().translate(None, b"\0").decode("ascii").split(",")
    assert texts.pop() == ""
    return texts


def test_kernel_writes_the_bytes_of_percent_17g():
    values = edge_floats()
    assert values.size > 300_000
    assert row_texts(numtext.rows(values)) == g17(values)


def test_kernel_leaves_ties_zeros_and_range_ends_to_percent_17g():
    values = edge_floats()
    _, _, settled = numtext._digits17(values)
    a = np.abs(values)
    # m/16 for an odd m in [1.6e14, 1e15) is 625 m / 10^4, 18 significant
    # digits ending in 5: a tie at 17 digits
    tie = (a >= 1e13) & (a < 6.25e13)
    tie[tie] = a[tie] * 16 % 2 == 1
    assert tie.sum() >= 5000
    assert not settled[tie].any()
    outside = (a < numtext._G17_MIN) | (a > numtext._G17_MAX)
    assert not settled[outside].any()
    # every other number that falls back is an exact tie, whose exact
    # decimal has 18 significant digits ending in 5, or a power of ten,
    # whose product may read just outside [10^16, 10^17)
    for v in values[~settled & ~outside].tolist():
        digits = "".join(map(str, Decimal(v).as_tuple().digits)).rstrip("0")
        assert (len(digits) == 18 and digits[-1] == "5") or digits == "1", v
    x = 200000000000001 / 16
    assert not numtext._digits17(np.array([x]))[2][0]
    pair = ["12500000000000.062", "-12500000000000.062"]
    assert row_texts(numtext.rows(np.array([x, -x]))) == pair


def test_a_built_nets_nonzero_numbers_take_the_vector_path():
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 1024, 60))
    values = np.concatenate([br.entries.ravel() for layer in net.layers
                             for br in (layer.g_branch, layer.h_branch) if br is not None])
    values = np.unique(values.view(np.int64)).view(float)
    _, _, settled = numtext._digits17(values)
    assert values.size > 3000
    assert settled[values != 0].all()
    assert not settled[values == 0].any()


@pytest.mark.parametrize("size", [1, 2, 127])
def test_small_calls_take_the_vector_path(size, monkeypatch):
    calls = []
    digits17 = numtext._digits17
    monkeypatch.setattr(numtext, "_digits17", lambda v: calls.append(v.size) or digits17(v))
    # nonzero numbers inside the kernel's range, none of them a tie
    values = np.geomspace(1e-7, 3e9, size) * np.where(np.arange(size) % 2, -1, 1)
    assert digits17(values)[2].all()
    assert row_texts(numtext.rows(values)) == g17(values)
    assert calls == [size]


def test_empty_input_gives_no_rows_and_no_lines():
    assert numtext.rows(np.empty(0)).shape == (0, numtext.WIDTH)
    assert numtext.texts([]) == []
    sink = io.BytesIO()
    numtext.write_csv(sink, [np.empty(0), np.empty(0)])
    assert sink.getvalue() == b""


# small and large calls, and one of several blocks
SIZES = (1, 2, 127, 128, 1000, 3 * numtext.CSV_BLOCK + 7)


def pieces(values, sizes):
    lo = 0
    while lo < values.size:
        for size in sizes:
            yield values[lo:lo + size]
            lo += size


def test_texts_is_percent_17g_in_calls_of_every_size():
    for piece in pieces(edge_floats(), SIZES):
        assert numtext.texts(piece) == g17(piece)
    assert numtext.texts((0.5, -0.0, 1, True)) == ["0.5", "-0", "1", "1"]


@pytest.mark.parametrize("columns", [1, 2, 5])
def test_csv_lines_are_percent_17g_in_tables_of_every_size(columns):
    for piece in pieces(edge_floats(), [columns * size for size in SIZES]):
        table = piece[:piece.size // columns * columns].reshape(-1, columns)
        sink = io.BytesIO()
        numtext.write_csv(sink, table.T)
        expected = "".join(",".join(g17(line)) + "\n" for line in table)
        assert sink.getvalue().decode("ascii") == expected


#: Lines of two columns per block of write_csv.
CSV_LINES = numtext.CSV_BLOCK // 2


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), ()])
def test_csv_refuses_a_column_that_is_not_1d(shape):
    sink = io.BytesIO()
    with pytest.raises(ValueError, match=re.escape(f"got shapes {[shape, shape]}")):
        numtext.write_csv(sink, [np.ones(shape), np.ones(shape)])
    assert sink.getvalue() == b""


@pytest.mark.parametrize("sizes", [(2, 3), (3, 2), (CSV_LINES + 1, CSV_LINES)])
def test_csv_refuses_columns_of_unequal_length_before_writing(sizes):
    sink = io.BytesIO()
    with pytest.raises(ValueError, match=re.escape(f"got shapes {[(n,) for n in sizes]}")):
        numtext.write_csv(sink, [np.ones(n) for n in sizes])
    assert sink.getvalue() == b""


class Sink:
    """A binary file that keeps only the number of bytes written."""

    size = 0

    def write(self, data):
        self.size += len(data)


def test_a_csv_of_2e6_numbers_is_written_in_bounded_memory():
    # unblocked, the kernel's peak would be about 316 B per number, 632 MB
    x = np.linspace(-1.0, 1.0, 1_000_000)
    y = np.sin(np.pi * x) / 3
    sink = Sink()
    tracemalloc.start()
    try:
        numtext.write_csv(sink, (x, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 30_000_000
    assert peak < 40 * 2 ** 20, peak
