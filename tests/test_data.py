"""Dataset ingestion, splits, standardization, windowing, synthetic
generation, and perturbation injection."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mffftnet import data as D
from mffftnet.errors import DataError, ParameterError
from mffftnet.fourier import naive_dft
from mffftnet.tensor import Tensor

GOLDEN = """date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT
2016-07-01 00:00:00,5.827,2.009,1.599,0.462,4.203,1.340,30.531
2016-07-01 01:00:00,5.693,2.076,1.492,0.426,4.142,1.371,27.787
2016-07-01 02:00:00,5.157,1.741,1.279,0.355,3.777,1.218,27.787
"""


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
    amps = np.abs(naive_dft(Tensor(table.values)).values[:, 0])
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


def test_bundled_two_sine_deterministic():
    a, b = D.bundled_two_sine(), D.bundled_two_sine()
    np.testing.assert_array_equal(a.values, b.values)
    assert a.num_features == 2


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


def test_inject_missing_zeroes_and_masks():
    table = _mini_table(100)
    out = D.inject(table, D.PerturbationSpec(kind="missing", ratio=0.1, seed=3))
    assert out.missing_mask.sum() == 20  # ceil(0.1 * 100 * 2)
    assert np.all(out.values[out.missing_mask] == 0.0)
    np.testing.assert_array_equal(
        out.values[~out.missing_mask], table.values[~out.missing_mask]
    )


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
