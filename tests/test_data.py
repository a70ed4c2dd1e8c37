"""Dataset ingestion, splits, standardization, windowing, synthetic
generation, and perturbation injection."""

import ast
import csv
import json
import sys
import tracemalloc
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mffftnet import data as D
from mffftnet.errors import DataError, ParameterError
from mffftnet.fourier import as_complex
from mffftnet.tensor import Tensor
from perfbench.workloads import etth1_like_csv, two_sine_csv
from tests import oracles
from tests.oracles import naive_dft

GOLDEN = """date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT
2016-07-01 00:00:00,5.827,2.009,1.599,0.462,4.203,1.340,30.531
2016-07-01 01:00:00,5.693,2.076,1.492,0.426,4.142,1.371,27.787
2016-07-01 02:00:00,5.157,1.741,1.279,0.355,3.777,1.218,27.787
"""


TWO_SINE_SPEC = Path(__file__).resolve().parents[1] / "scripts" / "specs" / "two_sine.json"


def two_sine(n: int | None = None) -> D.SeriesTable:
    """The desk corpus ``mff synth`` makes of ``scripts/specs/two_sine.json``,
    generated with ``n`` rows in place of the spec's when given."""
    spec = json.loads(TWO_SINE_SPEC.read_text())
    if n is not None:
        spec["n"] = n
    spec = D.SyntheticSpec(**spec)
    return D.gen_synthetic(spec.n, spec.features, seed=spec.seed)


def _mini_table(n: int, d: int = 2, seed: int = 0) -> D.SeriesTable:
    rng = np.random.default_rng(seed)
    return D.SeriesTable(
        timestamps=[f"t{i}" for i in range(n)],
        values=rng.normal(size=(n, d)),
        feature_names=[f"f{j}" for j in range(d)],
    )


# -- load_csv ----------------------------------------------------------------


def test_load_csv_golden_file(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(GOLDEN)
    table = D.load_csv(path)
    assert table.num_rows == 3 and table.num_features == 7
    assert table.feature_names == ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
    assert table.target_index == 6  # last column by default
    np.testing.assert_allclose(table.values[0], [5.827, 2.009, 1.599, 0.462, 4.203, 1.340, 30.531])
    np.testing.assert_allclose(table.values[2, 6], 27.787)


def test_load_csv_missing_file():
    with pytest.raises(DataError, match="no/such/file"):
        D.load_csv("no/such/file.csv")


def test_load_csv_non_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a,b\n2020-01-01 00:00:00,1.0,oops\n")
    with pytest.raises(DataError, match=r"row 1.*'b'.*'oops'"):
        D.load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite_names_first_row_and_column(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(
        "date,a,b\n2020-01-01 00:00:00,1.0,2.0\n"
        f"2020-01-01 01:00:00,1.0,{cell}\n2020-01-01 02:00:00,{cell},2.0\n"
    )
    with pytest.raises(DataError, match=r"row 2, column 'b': non-finite"):
        D.load_csv(path)


def test_load_csv_non_monotone_timestamps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "date,a\n2020-01-02 00:00:00,1.0\n2020-01-01 00:00:00,2.0\n"
    )
    with pytest.raises(DataError, match="strictly increasing"):
        D.load_csv(path)


def test_load_csv_mixed_time_zone_offsets(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a\n2020-01-01 00:00:00,1.0\n2020-01-01 01:00:00+05:00,2.0\n")
    with pytest.raises(DataError, match="row 2: timestamps mix time zone"):
        D.load_csv(path)


# byte strings that reach the decoder's, the CSV dialect's and the
# timestamp parser's corner cases more often than uniform random bytes do
_TOKENS = [b"\xff", b"\xc3", b"\x00", b'"', b"\r", b"\n", b",", b"+05:00", b"T", b"nan", b"1e999"]


@st.composite
def _mutated_golden(draw):
    raw = bytearray(GOLDEN.encode())
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(raw)))
        chunk = draw(st.sampled_from(_TOKENS) | st.binary(min_size=1, max_size=4))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "delete":
            del raw[i : i + len(chunk)]
        elif kind == "insert":
            raw[i:i] = chunk
        else:
            raw[i : i + len(chunk)] = chunk
    return bytes(raw)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_mutated_golden())
def test_fuzz_load_csv_raises_only_data_error(tmp_path, raw):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(raw)
    try:
        D.load_csv(path)
    except DataError:
        pass


# -- load_csv against the per-row oracle ---------------------------------------


def _outcome(load, path):
    """What ``load`` makes of ``path``: the error message, or the table's
    timestamps, names, value bytes and shape."""
    try:
        table = load(path)
    except DataError as exc:
        return str(exc)
    return table.timestamps, table.feature_names, table.values.tobytes(), table.values.shape


def _float_only_number(message: str) -> bool:
    """Whether ``message`` names a non-numeric cell that ``float`` reads:
    one with digit-grouping underscores or non-ASCII digits."""
    if ": non-numeric cell " not in message:
        return False
    cell = ast.literal_eval(message.split(": non-numeric cell ", 1)[1])
    try:
        float(cell)
    except ValueError:
        return False
    return "_" in cell or any(not c.isascii() and c.isdigit() for c in cell)


def assert_matches_oracle(path):
    """``load_csv`` and the per-row oracle return the same table or raise
    the same message, except that a file that is not UTF-8 is rejected as
    such before its rows are checked, and that a cell ``float`` reads with
    underscores or non-ASCII digits is non-numeric."""
    new, old = _outcome(D.load_csv, path), _outcome(oracles.load_csv, path)
    if new == old:
        return
    assert isinstance(new, str), (new, old)
    if new == f"{path} is not valid UTF-8 text":
        assert isinstance(old, str)
    else:
        assert _float_only_number(new), (new, old)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_mutated_golden())
def test_load_csv_matches_oracle_on_mutated_golden(tmp_path, raw):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(raw)
    assert_matches_oracle(path)


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["inf", "-Infinity", "NaN", "+1e5", "-2.5E-3", ".5", "5.", "1e999", "-0",
         "x", "", "1 2", "0x10", "1_0", "١٢", "\x1c1", "2\x1f", "\xa03 "]
    ),
)


@st.composite
def _cells(draw, text, pad=True):
    """``text``, maybe padded with whitespace, maybe quoted (``"``
    doubled inside)."""
    if pad:
        text = draw(st.sampled_from(["", "", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))
    if draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
    return text


_FAULTS = [None, None, None, None, "order", "zone", "stamp", "cell", "ragged", "blank"]


@st.composite
def _corpus(draw):
    r"""A small CSV: one to three features, ``\n``, ``\r\n`` or lone ``\r``
    line ends, quoted and padded cells, signs, exponents, ``inf``/``nan``,
    and in some corpora one fault: an hour out of order, a time-zone
    offset, a bad timestamp, a bad or non-finite cell, a ragged row or a
    blank line."""
    width = draw(st.integers(1, 3))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    n = draw(st.integers(1, 6))
    fault, at = draw(st.sampled_from(_FAULTS)), draw(st.integers(0, n - 1))
    sep = draw(st.sampled_from([" ", "T"]))
    lines = ["date," + ",".join(f"c{j}" for j in range(width))]
    for i in range(n):
        stamp = f"2020-01-01{sep}{i if fault != 'order' or i != at else 0:02d}:00:00"
        stamp += "+05:00" if fault == "zone" and i >= at else ""
        stamp = "day" if fault == "stamp" and i == at else stamp
        numbers = _NUMBERS if fault == "cell" and i == at else st.one_of(
            st.floats(-1e6, 1e6).map(repr), st.sampled_from(["+1e5", "-2.5E-3", ".5", "5.", "-0", "7"]))
        count = width + (draw(st.sampled_from([-1, 1])) if fault == "ragged" and i == at else 0)
        cells = [draw(_cells(draw(numbers))) for _ in range(count)]
        lines.append(",".join([draw(_cells(stamp, pad=False))] + cells))
        if fault == "blank" and i == at:
            lines.append("")
    text = end.join(lines) + draw(st.sampled_from([end, end, ""]))
    return text.encode()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_corpus())
def test_load_csv_matches_oracle_on_generated_corpora(tmp_path, raw):
    path = tmp_path / "gen.csv"
    path.write_bytes(raw)
    assert_matches_oracle(path)


@pytest.mark.parametrize("make, seed", [(etth1_like_csv, 7), (two_sine_csv, 7)])
def test_load_csv_matches_oracle_on_benchmark_corpora(tmp_path, make, seed):
    path = tmp_path / "corpus.csv"
    make(path, seed)
    new, old = D.load_csv(path), oracles.load_csv(path)
    assert new.values.tobytes() == old.values.tobytes() and new.values.flags.c_contiguous
    assert new.timestamps == old.timestamps and new.feature_names == old.feature_names


def test_load_csv_keeps_no_decoded_copy_while_parsing(tmp_path):
    # the ETTh1-shaped corpus (2.7 MB): its bytes, the parse's arrays and
    # the parsed table, but no decoded text of the whole file beside them
    path = tmp_path / "corpus.csv"
    etth1_like_csv(path, 1)
    D.load_csv(path)  # so one-time imports and caches are not traced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        D.load_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 2.5 * size, f"{peak / size:.2f}x the file's bytes"


_INF = f"{np.float64('inf')!r}"

# (kind, file bytes, message); "{path}" stands for the file's path
MALFORMED = [
    ("empty file", b"", "{path} is empty"),
    ("header only", b"date,a\n", "{path}: no data rows"),
    ("no feature column", b"date\n2020-01-01 00:00:00\n", "{path}: no feature columns"),
    ("ragged row", b"date,a,b\n2020-01-01 00:00:00,1\n", "row 1: expected 3 cells, got 2"),
    ("blank line", b"date,a\n2020-01-01 00:00:00,1\n\n2020-01-01 01:00:00,2\n",
     "row 2: expected 2 cells, got 0"),
    ("trailing blank line", b"date,a\r\n2020-01-01 00:00:00,1\r\n\r\n", "row 2: expected 2 cells, got 0"),
    ("bad timestamp", b"date,a\n2020-01-01 00:00:00,1\nyesterday,2\n",
     "row 2: cannot parse timestamp 'yesterday'"),
    ("time-zone mix", b"date,a\n2020-01-01 00:00:00,1\n2020-01-01 01:00:00+05:00,2\n",
     "row 2: timestamps mix time zone offsets and none"),
    ("non-increasing", b"date,a\n2020-01-02 00:00:00,1\n2020-01-01 00:00:00,2\n",
     "row 2: timestamps not strictly increasing"),
    ("non-numeric cell", b"date,a,b\n2020-01-01 00:00:00,1.0,oops\n",
     "row 1, column 'b': non-numeric cell 'oops'"),
    ("non-finite cell", b"date,a,b\n2020-01-01 00:00:00,1,2\n2020-01-01 01:00:00,3,inf\n",
     f"row 2, column 'b': non-finite value {_INF}"),
    ("not UTF-8", b"date,a\n2020-01-01 00:00:00,\xff\n", "{path} is not valid UTF-8 text"),
    ("field over the limit", b"date,a\n2020-01-01 00:00:00," + b"1" * 200 + b"\n",
     "{path}: malformed CSV: field larger than field limit (100)"),
    # two faults: the earlier row's is reported, whatever its kind
    ("non-numeric before ragged", b"date,a\n2020-01-01 00:00:00,x\n2020-01-01 01:00:00\n",
     "row 1, column 'a': non-numeric cell 'x'"),
    ("ragged before non-numeric", b"date,a\n2020-01-01 00:00:00\n2020-01-01 01:00:00,x\n",
     "row 1: expected 2 cells, got 1"),
    ("ragged before field over the limit",
     b"date,a\n2020-01-01 00:00:00\n2020-01-01 01:00:00," + b"1" * 200 + b"\n",
     "row 1: expected 2 cells, got 1"),
    ("field over the limit before bad timestamp",
     b"date,a\n2020-01-01 00:00:00," + b"1" * 200 + b"\nyesterday,1\n",
     "{path}: malformed CSV: field larger than field limit (100)"),
    # a non-finite value is only looked for once every row has passed
    ("non-finite before bad timestamp", b"date,a\n2020-01-01 00:00:00,nan\nyesterday,1\n",
     "row 2: cannot parse timestamp 'yesterday'"),
    ("non-increasing after non-numeric", b"date,a\n2020-01-02 00:00:00,x\n2020-01-01 00:00:00,1\n",
     "row 1, column 'a': non-numeric cell 'x'"),
    # two faults in one row: cell count, then timestamp, then cells, leftmost first
    ("bad timestamp before non-numeric in a row", b"date,a\nyesterday,x\n",
     "row 1: cannot parse timestamp 'yesterday'"),
    ("time-zone mix before non-numeric in a row",
     b"date,a\n2020-01-01 00:00:00,1\n2020-01-01 01:00:00+05:00,x\n",
     "row 2: timestamps mix time zone offsets and none"),
    ("non-increasing before non-numeric in a row",
     b"date,a\n2020-01-02 00:00:00,1\n2020-01-01 00:00:00,x\n",
     "row 2: timestamps not strictly increasing"),
    ("ragged before bad timestamp in a row", b"date,a,b\nyesterday,1\n",
     "row 1: expected 3 cells, got 2"),
    ("leftmost non-numeric in a row", b"date,a,b\n2020-01-01 00:00:00,x,y\n",
     "row 1, column 'a': non-numeric cell 'x'"),
]


@pytest.fixture
def field_limit_100():
    old = csv.field_size_limit(100)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("kind, raw, message", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_load_csv_malformed_message(tmp_path, field_limit_100, kind, raw, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    expected = message.format(path=path)
    for load in (D.load_csv, oracles.load_csv):
        with pytest.raises(DataError) as info:
            load(path)
        assert str(info.value) == expected, load.__module__


@pytest.mark.parametrize("cell", ["1_0", "١", "1٢.5", "٣e1"])
def test_load_csv_float_only_numbers_are_non_numeric(tmp_path, cell):
    """``float`` reads these and the per-row oracle accepted them;
    ``np.loadtxt`` does not."""
    path = tmp_path / "cell.csv"
    path.write_text(f"date,a\n2020-01-01 00:00:00,{cell}\n", encoding="utf-8")
    assert oracles.load_csv(path).values[0, 0] == float(cell)
    with pytest.raises(DataError, match=r"row 1, column 'a': non-numeric cell"):
        D.load_csv(path)


_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_DIGITS = [chr(c) for c in range(128, sys.maxunicode + 1) if unicodedata.category(chr(c)) == "Nd"][::40]


@pytest.mark.parametrize(
    "cell",
    ["1", " 2 ", "-3e-2", "+.5", "5.", "inf", "-Infinity", "nAn", "1e999", "", " ", "1 2",
     "0x10", "1_0", "1__0", "_1", "1e", "--1", "1\x00", "\x00", "1j", "١"]
    + [w + "7" + w for w in _WHITESPACE] + [d + "1" for d in _DIGITS],
)
def test_is_number_is_what_both_float_and_loadtxt_read(cell):
    try:
        float(cell)
        by_float = True
    except ValueError:
        by_float = False
    row = np.dtype([("date", object), ("values", np.float64, (1,))])
    try:
        np.loadtxt([f'd,"{cell}"'], dtype=row, delimiter=",", quotechar='"', comments=None)
        by_loadtxt = True
    except ValueError:
        by_loadtxt = False
    assert D._is_number(cell) == (by_float and by_loadtxt)


@pytest.mark.parametrize(
    "raw, lengths",
    [
        (b"", []),
        (b"a", [1]),
        (b"a\n", [1]),
        (b"a\r\nbb\rccc\n\ndd", [1, 2, 3, 0, 2]),
        (b"\r\r\n\n\r", [0, 0, 0, 0]),
        (b"ab\r\n", [2]),
        ("\u00e9\n".encode(), [2]),  # bytes, not characters
    ],
)
def test_line_lengths_split_lines_as_csv_does(raw, lengths):
    assert D._line_lengths(raw).tolist() == lengths


def test_load_csv_multi_line_quoted_cell(tmp_path):
    """A quoted cell may hold line breaks; ``float`` strips them from a
    number, so the file is valid with one row per record, not per line."""
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'date,a,b\r\n2020-01-01 00:00:00,"1\r\n",2\r\n"2020-01-01 01:00:00","\n3\n\n","4"\r\n')
    assert_matches_oracle(path)
    table = D.load_csv(path)
    np.testing.assert_array_equal(table.values, [[1.0, 2.0], [3.0, 4.0]])
    assert table.timestamps == ["2020-01-01 00:00:00", "2020-01-01 01:00:00"]


def test_load_csv_long_line_of_short_fields(tmp_path, field_limit_100):
    """The field limit bounds each field, not the line."""
    names = [f"c{j}" for j in range(60)]
    path = tmp_path / "wide.csv"
    path.write_text("date," + ",".join(names) + "\n2020-01-01 00:00:00," + ",".join(["1.5"] * 60) + "\n")
    table = D.load_csv(path)
    assert table.feature_names == names and np.all(table.values == 1.5)
    assert_matches_oracle(path)


@pytest.mark.parametrize("where", ["number", "timestamp", "name"])
def test_load_csv_information_separator(tmp_path, where):
    """``np.loadtxt`` strips \\x1c-\\x1f around a number and ``float`` does
    not: such a cell stays non-numeric. Elsewhere they are plain text."""
    cells = {"number": ("a", "2020-01-01 00:00:00", "\x1c1"),
             "timestamp": ("a", "2020-01-01\x1c00:00:00", "1"),
             "name": ("a\x1d", "2020-01-01 00:00:00", "1")}[where]
    path = tmp_path / "sep.csv"
    path.write_text(f"date,{cells[0]}\n{cells[1]},{cells[2]}\n")
    assert_matches_oracle(path)
    assert isinstance(_outcome(D.load_csv, path), str) == (where == "number")


# -- split -------------------------------------------------------------------


def test_split_floor_622():
    spec = D.split(_mini_table(10))
    assert spec.train_end == 6 and spec.valid_end == 8 and spec.total == 10


@pytest.mark.parametrize(
    "shape,expected",
    [
        ((17420, 7), (8640, 2880, 2880)),
        ((69680, 7), (34560, 11520, 11520)),
        ((35064, 12), (21038, 7013, 7013)),
    ],
)
def test_split_recognized_datasets(shape, expected):
    table = _mini_table(shape[0], shape[1])
    spec = D.split(table)
    assert spec.train_end == expected[0]
    assert spec.valid_end - spec.train_end == expected[1]
    assert spec.total - spec.valid_end == expected[2]


def test_split_stats_train_only():
    table = _mini_table(100)
    spec = D.split(table)
    mutated = table.values.copy()
    mutated[spec.train_end :] += 100.0
    spec2 = D.split(
        D.SeriesTable(table.timestamps, mutated, table.feature_names)
    )
    np.testing.assert_array_equal(spec.mean, spec2.mean)
    np.testing.assert_array_equal(spec.std, spec2.std)


# -- standardize -------------------------------------------------------------


def test_standardize_train_moments():
    table = _mini_table(100)
    spec = D.split(table)
    std = D.standardize(table, spec)
    train = std.values[: spec.train_end]
    np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-9)


def test_standardize_constant_column():
    table = D.SeriesTable(
        [f"t{i}" for i in range(10)], np.full((10, 1), 3.0), ["c"]
    )
    spec = D.split(table)
    std = D.standardize(table, spec)
    np.testing.assert_array_equal(std.values, np.zeros((10, 1)))
    assert spec.std[0] == 1.0


# -- windows -----------------------------------------------------------------


def test_window_counts():
    table = _mini_table(10)
    assert D.window_batch(table, (0, 10), 5, 1).windows.shape == (6, 5, 2)
    assert D.window_batch(table, (0, 10), 5, 5).windows.shape == (2, 5, 2)


def test_windows_stay_inside_range():
    table = _mini_table(30)
    wins = D.window_batch(table, (10, 20), 4, 3).windows
    assert wins.flags.c_contiguous and len(wins) == 3
    for i, w in enumerate(wins):
        start = 10 + 3 * i
        assert start + 4 <= 20
        np.testing.assert_array_equal(w, table.values[start : start + 4])


def test_windows_too_long():
    with pytest.raises(ParameterError):
        D.window_batch(_mini_table(10), (0, 4), 5)


@pytest.mark.parametrize("T, stride", [(0, 1), (3, 0)])
def test_windows_bad_length_or_stride(T, stride):
    with pytest.raises(ParameterError):
        D.window_batch(_mini_table(10), (0, 10), T, stride)


def test_window_count_is_the_number_window_batch_takes():
    table = _mini_table(40)
    for split_range in [(0, 40), (3, 29), (10, 11), (39, 40)]:
        for T in range(1, 30):
            for stride in range(1, 8):
                if T > split_range[1] - split_range[0]:
                    with pytest.raises(ParameterError):
                        D.window_count(split_range, T, stride)
                    continue
                wins = D.window_batch(table, split_range, T, stride).windows
                assert D.window_count(split_range, T, stride) == len(wins)


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 40), st.integers(1, 10), st.integers(1, 5))
def test_property_window_count_formula(n, T, stride):
    if T > n:
        return
    count = len(D.window_batch(_mini_table(n), (0, n), T, stride).windows)
    assert count == (n - T) // stride + 1


# -- gen_synthetic -----------------------------------------------------------


def test_synthetic_sinusoid_dominant_bin():
    comp = D.SyntheticFeature(waves=[(24.0, 1.0, 0.0)])
    table = D.gen_synthetic(24, [comp], seed=0)
    amps = np.abs(as_complex(naive_dft(Tensor(table.values)).data)[:, 0])
    assert np.argmax(amps) == 1  # one full cycle across the window


def test_synthetic_zero_components():
    table = D.gen_synthetic(10, [D.SyntheticFeature(), D.SyntheticFeature()])
    np.testing.assert_array_equal(table.values, np.zeros((10, 2)))


def test_synthetic_deterministic():
    comp = [D.SyntheticFeature(waves=[(8.0, 1.0, 0.3)], noise_std=0.1)]
    a = D.gen_synthetic(50, comp, seed=3)
    b = D.gen_synthetic(50, comp, seed=3)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.timestamps == b.timestamps


def test_synthetic_bad_period():
    with pytest.raises(ParameterError):
        D.gen_synthetic(10, [D.SyntheticFeature(waves=[(0.0, 1.0, 0.0)])])


def test_synthetic_rows_stop_at_the_last_hourly_timestamp():
    # 2020-01-01 plus 69 951 239 hours is the last whole hour before datetime.max
    with pytest.raises(ParameterError, match="at most 69951240 hourly rows"):
        D.gen_synthetic(69_951_241, [D.SyntheticFeature()])


def test_synthetic_negative_seed():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        D.gen_synthetic(10, [D.SyntheticFeature()], seed=-1)


@pytest.mark.parametrize(
    "feature",
    [{"waves": [(24.0, 1.0)]}, {"slope": float("nan")}, {"noise_std": -0.1},
     {"waves": [(-1.0, 1.0, 0.0)]}],
    ids=["short-wave", "nan-slope", "negative-noise", "negative-period"],
)
def test_synthetic_feature_rejects_a_bad_value(feature):
    with pytest.raises(ParameterError):
        D.SyntheticFeature(**feature)


def test_bundled_two_sine_deterministic():
    a, b = two_sine(), two_sine()
    np.testing.assert_array_equal(a.values, b.values)
    assert a.num_rows == 1600 and a.num_features == 2


# -- inject ------------------------------------------------------------------


def test_inject_ratio_zero_unchanged():
    table = _mini_table(50)
    out = D.inject(table, D.PerturbationSpec(kind="noise", ratio=0.0))
    np.testing.assert_array_equal(out.values, table.values)


def test_inject_exact_cell_count():
    table = _mini_table(100, 1)
    out = D.inject(table, D.PerturbationSpec(kind="noise", ratio=0.4, seed=1))
    assert np.count_nonzero(out.values != table.values) == 40


def test_inject_noise_statistics():
    table = D.SeriesTable(
        [f"t{i}" for i in range(40000)], np.zeros((40000, 1)), ["x"]
    )
    out = D.inject(
        table, D.PerturbationSpec(kind="noise", ratio=0.3, noise_mean=10, noise_std=10, seed=2)
    )
    shifts = out.values[out.values != 0.0]
    assert len(shifts) == 12000
    assert abs(shifts.mean() - 10.0) < 0.5


def test_inject_missing_zeroes_only_the_chosen_cells():
    table = _mini_table(100)
    out = D.inject(table, D.PerturbationSpec(kind="missing", ratio=0.1, seed=3))
    changed = out.values != table.values
    assert changed.sum() == 20  # ceil(0.1 * 100 * 2)
    assert np.all(out.values[changed] == 0.0)


@pytest.mark.parametrize("kind", ["noise", "missing"])
def test_inject_rows_perturbs_the_leading_rows_as_their_own_table(kind):
    table = _mini_table(60)
    spec = D.PerturbationSpec(kind=kind, ratio=0.3, seed=4)
    head = D.SeriesTable(table.timestamps[:25], table.values[:25], table.feature_names)
    out = D.inject(table, spec, rows=25)
    np.testing.assert_array_equal(out.values[:25], D.inject(head, spec).values)
    np.testing.assert_array_equal(out.values[25:], table.values[25:])


def test_inject_deterministic():
    table = _mini_table(60)
    spec = D.PerturbationSpec(kind="noise", ratio=0.2, seed=9)
    np.testing.assert_array_equal(
        D.inject(table, spec).values, D.inject(table, spec).values
    )


def test_perturbation_spec_validation():
    with pytest.raises(ParameterError):
        D.PerturbationSpec(kind="sparkle", ratio=0.1)
    with pytest.raises(ParameterError):
        D.PerturbationSpec(kind="noise", ratio=1.5)
    spec = D.PerturbationSpec(kind="noise", ratio=0.1)
    assert spec.noise_mean == 10.0 and spec.noise_std == 10.0
