"""Dataset ingestion, splitting, windowing, synthetic generation, and the
robustness perturbation injectors.

CSV layout follows the ETT convention: header row with a leading ``date``
column, remaining columns numeric features, last column the univariate
target.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParameterError

# Split row counts for the datasets whose boundaries are fixed by convention,
# keyed by (sample count, feature count).
KNOWN_SPLITS = {
    (17420, 7): (8640, 2880, 2880),
    (69680, 7): (34560, 11520, 11520),
    (35064, 12): (21038, 7013, 7013),
}
# Train/valid/test proportions of every other dataset.
SPLIT_RATIOS = (6, 2, 2)


@dataclass
class SeriesTable:
    timestamps: list[str]
    values: np.ndarray  # N x D float64
    feature_names: list[str]
    missing_mask: np.ndarray | None = None  # True where a cell was discarded

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.values.shape[0]
        if len(self.timestamps) != n:
            raise DataError(
                f"{len(self.timestamps)} timestamps for {n} value rows"
            )

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1]

    @property
    def target_index(self) -> int:
        """The univariate target: the last column."""
        return self.num_features - 1


@dataclass
class SplitSpec:
    train_end: int
    valid_end: int
    total: int
    mean: np.ndarray  # per-feature, train range only
    std: np.ndarray  # per-feature; constant features clamped to 1

    @property
    def train_range(self) -> tuple[int, int]:
        return (0, self.train_end)

    @property
    def valid_range(self) -> tuple[int, int]:
        return (self.train_end, self.valid_end)

    @property
    def test_range(self) -> tuple[int, int]:
        return (self.valid_end, self.total)


@dataclass
class WindowBatch:
    windows: np.ndarray  # B x T x D


@dataclass
class PerturbationSpec:
    kind: str  # "noise" | "missing"
    ratio: float
    noise_mean: float = 10.0
    noise_std: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("noise", "missing"):
            raise ParameterError(f"unknown perturbation kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ParameterError(f"perturbation ratio must be in [0,1], got {self.ratio}")
        if not math.isfinite(self.noise_mean):
            raise ParameterError(f"noise mean must be finite, got {self.noise_mean}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ParameterError(
                f"noise std must be finite and >= 0, got {self.noise_std}"
            )


def _parse_timestamp(text: str, row: int) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"row {row}: cannot parse timestamp {text!r}") from exc


def _read_rows(reader, path) -> tuple[list[str], list[str], list[list[float]]]:
    """The feature names, timestamps and numeric rows of ``reader``'s
    records, each row checked."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    if len(header) < 2:
        raise DataError(f"{path}: no feature columns")
    timestamps: list[str] = []
    rows: list[list[float]] = []
    prev: datetime | None = None
    for i, rec in enumerate(reader, start=1):
        if len(rec) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(rec)}")
        stamp = _parse_timestamp(rec[0], i)
        if prev is not None:
            if (stamp.tzinfo is None) != (prev.tzinfo is None):
                raise DataError(f"row {i}: timestamps mix time zone offsets and none")
            if stamp <= prev:
                raise DataError(f"row {i}: timestamps not strictly increasing")
        prev = stamp
        vals = []
        for j, cell in enumerate(rec[1:], start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(
                    f"row {i}, column {header[j]!r}: non-numeric cell {cell!r}"
                ) from None
        timestamps.append(rec[0])
        rows.append(vals)
    return header[1:], timestamps, rows


def load_csv(path) -> SeriesTable:
    """Read an ETT-style CSV (date column + numeric features); the last
    column is the target."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    with fh:
        try:
            names, timestamps, rows = _read_rows(csv.reader(fh), path)
        except UnicodeDecodeError:
            raise DataError(f"{path} is not valid UTF-8 text") from None
        except csv.Error as exc:
            raise DataError(f"{path}: malformed CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0]
        raise DataError(
            f"row {i + 1}, column {names[j]!r}: non-finite value {values[i, j]!r}"
        )
    return SeriesTable(timestamps, values, names)


def split(table: SeriesTable) -> SplitSpec:
    """Train/valid/test boundaries plus train-only normalization statistics.

    Recognized dataset sizes use their conventional fixed row counts;
    anything else gets floor-based ``SPLIT_RATIOS`` splits.
    """
    n = table.num_rows
    key = (n, table.num_features)
    if key in KNOWN_SPLITS:
        # Conventional fixed counts may not cover every row (e.g. the hourly
        # sets); rows past the test boundary are simply unused.
        n_train, n_valid, n_test = KNOWN_SPLITS[key]
    else:
        total = sum(SPLIT_RATIOS)
        n_train = n * SPLIT_RATIOS[0] // total
        n_valid = n * SPLIT_RATIOS[1] // total
        n_test = n - n_train - n_valid
    if n_train < 1 or n_train + n_valid + n_test > n:
        raise ParameterError(
            f"split counts ({n_train}, {n_valid}, {n_test}) invalid for N={n}"
        )
    train = table.values[:n_train]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return SplitSpec(
        train_end=n_train,
        valid_end=n_train + n_valid,
        total=n_train + n_valid + n_test,
        mean=mean,
        std=std,
    )


def standardize(table: SeriesTable, spec: SplitSpec) -> SeriesTable:
    """(x - mean) / std per feature, statistics from the train range only."""
    values = (table.values - spec.mean) / spec.std
    return replace(table, values=values)


def window_batch(table, split_range, T, stride: int = 1) -> WindowBatch:
    """Every ``stride``-th T x D window fully inside ``split_range``, one
    strided view of the split copied into a (B, T, D) array."""
    start, end = split_range
    if T < 1 or stride < 1:
        raise ParameterError(f"window length/stride must be >= 1, got {T}/{stride}")
    if T > end - start:
        raise ParameterError(
            f"window length {T} exceeds split length {end - start}"
        )
    view = sliding_window_view(table.values[start:end], T, axis=0)[::stride]
    return WindowBatch(windows=np.ascontiguousarray(view.transpose(0, 2, 1)))


@dataclass
class SyntheticFeature:
    """One generated column: a sum of sinusoids plus trend and noise."""

    waves: list[tuple[float, float, float]] = field(default_factory=list)
    slope: float = 0.0
    noise_std: float = 0.0


def gen_synthetic(
    T_total: int, components: list[SyntheticFeature], seed: int = 0
) -> SeriesTable:
    """x_d[t] = sum_i amp*sin(2 pi t/period + phase) + slope*t + noise, one
    column per component."""
    D = len(components)
    rng = np.random.default_rng(seed)
    t = np.arange(T_total, dtype=np.float64)
    values = np.zeros((T_total, D))
    for d, comp in enumerate(components):
        col = comp.slope * t
        for period, amplitude, phase in comp.waves:
            if period <= 0:
                raise ParameterError(f"sinusoid period must be positive, got {period}")
            col = col + amplitude * np.sin(2 * np.pi * t / period + phase)
        if comp.noise_std > 0:
            col = col + rng.normal(0.0, comp.noise_std, size=T_total)
        values[:, d] = col
    origin = datetime(2020, 1, 1)
    stamps = [(origin + timedelta(hours=int(i))).isoformat(sep=" ") for i in range(T_total)]
    names = [f"f{d}" for d in range(D)]
    return SeriesTable(stamps, values, names)


def bundled_two_sine(n: int = 1600, seed: int = 7) -> SeriesTable:
    """The small two-sinusoid corpus used by desk-scale training runs."""
    comps = [
        SyntheticFeature(waves=[(24.0, 1.0, 0.0), (12.0, 0.5, 0.7)], noise_std=0.05),
        SyntheticFeature(waves=[(16.0, 1.0, 1.1)], noise_std=0.05),
    ]
    return gen_synthetic(n, comps, seed=seed)


def inject(table: SeriesTable, spec: PerturbationSpec) -> SeriesTable:
    """Perturb exactly ceil(ratio*N*D) cells, chosen uniformly without
    replacement under the spec seed.

    noise: add Normal(noise_mean, noise_std^2) draws to the chosen cells.
    missing: zero the chosen cells (train-mean imputation on standardized
    data) and record them in ``missing_mask``.
    """
    n_cells = table.values.size
    k = math.ceil(spec.ratio * n_cells)
    values = table.values.copy()
    if k == 0:
        return replace(table, values=values)
    rng = np.random.default_rng(spec.seed)
    flat_idx = rng.choice(n_cells, size=k, replace=False)
    coords = np.unravel_index(flat_idx, table.values.shape)
    if spec.kind == "noise":
        values[coords] += rng.normal(spec.noise_mean, spec.noise_std, size=k)
        return replace(table, values=values)
    mask = np.zeros(table.values.shape, dtype=bool)
    mask[coords] = True
    values[coords] = 0.0
    return replace(table, values=values, missing_mask=mask)
