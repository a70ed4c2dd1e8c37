"""Dataset ingestion, splitting, windowing, synthetic generation, and the
robustness perturbation injectors.

CSV layout follows the ETT convention: header row with a leading ``date``
column, remaining columns numeric features, last column the univariate
target. ``load_csv`` has two parts. A file that passes gets one
``np.loadtxt`` parse of every data row and checks on the whole arrays. Any
other file gets a loop over its ``csv`` records that stops at the first
fault and names it.
"""

from __future__ import annotations

import csv
import io
import math
import operator
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


# ASCII separators that ``np.loadtxt`` strips around a number as whitespace
# and ``float`` does not: a file holding one has its cells checked one by one.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _line_lengths(raw: bytes) -> np.ndarray:
    """The length in bytes of each line of ``raw`` as ``csv`` reads it
    (a line ends at ``\\n``, ``\\r`` or ``\\r\\n``), terminator excluded."""
    b = np.frombuffer(raw, np.uint8)
    lf = b == 10
    if b"\r" in raw:
        cr = b == 13
        crlf = np.append(cr[:-1] & lf[1:], False)
        lf[1:] &= ~cr[:-1]  # the LF of a CRLF ends no line of its own
        stops = np.flatnonzero(lf | cr)
        width = 1 + crlf[stops]
    else:
        stops = np.flatnonzero(lf)
        width = 1
    starts = np.concatenate(([0], stops + width))
    lengths = np.append(stops, len(b)) - starts
    # past a final terminator there is no line
    return lengths[:-1] if lengths[-1] == 0 else lengths


def _is_number(cell: str) -> bool:
    """Whether ``cell`` is a number to both ``float`` and ``np.loadtxt``:
    ``float``'s grammar, but ASCII only and without digit-grouping
    underscores."""
    try:
        float(cell)
    except ValueError:
        return False
    text = cell.strip()
    return "_" not in text and text.isascii()


def _parse_rows(lines, width: int) -> tuple[list[str] | None, np.ndarray | None]:
    """The date cells and the (N, width) float64 values of the records
    ``lines`` holds, parsed by one ``np.loadtxt`` call; (None, None) if it
    rejects them."""
    row = np.dtype([("date", object), ("values", np.float64, (width,))])
    try:
        rows = np.loadtxt(lines, dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except ValueError:
        return None, None
    return rows["date"].tolist(), np.ascontiguousarray(rows["values"])


def _rows_pass(timestamps: list[str], values: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether the parsed rows are the file's records, one per line of
    ``lengths`` and no line over ``csv.field_size_limit()``, with
    timestamps that parse, all carry a time zone offset or none, and
    strictly increase, and with every value finite."""
    if len(values) != len(lengths) or lengths.max() > csv.field_size_limit():
        return False
    try:
        stamps = list(map(datetime.fromisoformat, timestamps))
    except ValueError:
        return False
    # tested first: an aware and a naive timestamp do not compare
    return (
        len({s.tzinfo is None for s in stamps}) == 1
        and all(map(operator.lt, stamps, stamps[1:]))
        and bool(np.isfinite(values).all())
    )


def _fault(path, text: str, header: list[str], values) -> DataError | None:
    """The error that checking ``text``'s records one by one meets first,
    in file order (row 1 is the first after the header). A row is checked
    for, in this order: its cell count, an unparsable timestamp, a time
    zone mix with the row before, a timestamp not after the row before's,
    and a non-numeric cell, leftmost first. A record ``csv`` cannot read (a
    field over ``csv.field_size_limit()``) fails where it stands. Once
    every record has passed, the first non-finite value in ``values``, the
    parsed rows, is the fault. None when the rows hold none of these."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    before = None
    try:
        for n, record in enumerate(reader, 1):
            if len(record) != len(header):
                return DataError(f"row {n}: expected {len(header)} cells, got {len(record)}")
            try:
                stamp = datetime.fromisoformat(record[0])
            except ValueError:
                return DataError(f"row {n}: cannot parse timestamp {record[0]!r}")
            if before is not None and (before.tzinfo is None) != (stamp.tzinfo is None):
                return DataError(f"row {n}: timestamps mix time zone offsets and none")
            if before is not None and not before < stamp:
                return DataError(f"row {n}: timestamps not strictly increasing")
            before = stamp
            for name, cell in zip(header[1:], record[1:]):
                if not _is_number(cell):
                    return DataError(f"row {n}, column {name!r}: non-numeric cell {cell!r}")
    except csv.Error as exc:
        return DataError(f"{path}: malformed CSV: {exc}")
    if values is None:
        return None
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0]
        return DataError(
            f"row {i + 1}, column {header[j + 1]!r}: non-finite value {values[i, j]!r}"
        )
    return None


def load_csv(path) -> SeriesTable:
    """Read an ETT-style CSV (date column + numeric features); the last
    column is the target.

    The file must be UTF-8. ``csv`` reads the header record, and one
    ``np.loadtxt`` call parses every data row: the ``date`` cell as a
    string, each feature cell as a float64 (``,`` delimited, ``"`` quoted,
    no comments). Then whole-array checks confirm that the rows are the
    file's records (no blank line, which ``csv`` reads as a row of 0 cells,
    and no field over ``csv.field_size_limit()``), that every timestamp
    parses with ``datetime.fromisoformat``, that all of them carry a time
    zone offset or none does, that they strictly increase, and that every
    value is finite. If the parse or a check fails, ``_fault`` goes through
    ``csv``'s records in file order and raises the ``DataError`` of the
    first fault, naming its row and column.

    A feature cell is a number as ``float`` reads it, with surrounding
    whitespace allowed, except that it must be ASCII and must not group
    digits with underscores: ``1_0`` and non-ASCII digits are non-numeric.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    try:
        raw.decode("utf-8")  # a check only: the text is not kept
    except UnicodeDecodeError:
        raise DataError(f"{path} is not valid UTF-8 text") from None
    # decoded in chunks as it is read, so no decoded copy of the file is
    # alive while loadtxt runs; only the fault path decodes it whole again
    lines = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    if len(header) < 2:
        raise DataError(f"{path}: no feature columns")
    lengths = _line_lengths(raw)[reader.line_num :]
    if not len(lengths):
        raise DataError(f"{path}: no data rows")
    # a body of blank lines leaves loadtxt nothing to parse
    timestamps, values = _parse_rows(lines, len(header) - 1) if lengths.max() else (None, None)
    if (
        values is None
        or any(c in raw for c in _LOADTXT_ONLY_SPACE)
        or not _rows_pass(timestamps, values, lengths)
    ):
        fault = _fault(path, raw.decode("utf-8"), header, values)
        if fault is not None:
            raise fault
        if values is None:  # loadtxt rejects only rows that hold a fault
            raise DataError(f"{path}: malformed CSV")
    return SeriesTable(timestamps, values, header[1:])


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


def window_count(split_range, T, stride: int = 1) -> int:
    """How many windows ``window_batch`` takes from ``split_range``: one at
    every ``stride``-th row from its start that leaves T rows inside it. A
    length or stride below 1, or a window longer than the split, raises
    ``ParameterError``."""
    start, end = split_range
    if T < 1 or stride < 1:
        raise ParameterError(f"window length/stride must be >= 1, got {T}/{stride}")
    if T > end - start:
        raise ParameterError(
            f"window length {T} exceeds split length {end - start}"
        )
    return (end - start - T) // stride + 1


def window_batch(table, split_range, T, stride: int = 1) -> WindowBatch:
    """The ``window_count`` T x D windows of ``split_range``, one strided
    view of the rows they cover copied into a (B, T, D) array."""
    start = split_range[0]
    rows = table.values[start : start + (window_count(split_range, T, stride) - 1) * stride + T]
    view = sliding_window_view(rows, T, axis=0)[::stride]
    return WindowBatch(windows=np.ascontiguousarray(view.transpose(0, 2, 1)))


@dataclass
class SyntheticFeature:
    """One generated column: a sum of sinusoids plus trend and noise. A wave
    is (period, amplitude, phase), all finite and the period positive; the
    slope is finite and ``noise_std`` finite and >= 0. A feature that breaks
    a rule raises ParameterError. The numbers are taken as floats, so a
    spec's feature object decodes as ``SyntheticFeature(**feature)``."""

    waves: list[tuple[float, float, float]] = field(default_factory=list)
    slope: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self):
        self.waves = [tuple(map(float, w)) for w in self.waves]
        self.slope, self.noise_std = float(self.slope), float(self.noise_std)
        for w in self.waves:
            if len(w) != 3:
                raise ParameterError(
                    f"a synthetic wave is [period, amplitude, phase], got {list(w)}"
                )
        values = [self.slope, self.noise_std, *np.ravel(self.waves)]
        if not np.isfinite(values).all() or self.noise_std < 0:
            raise ParameterError(
                "a synthetic feature needs finite waves and slope and a finite"
                f" noise_std >= 0, got {self}"
            )
        for period, _, _ in self.waves:
            if period <= 0:
                raise ParameterError(f"sinusoid period must be positive, got {period}")


@dataclass
class SyntheticSpec:
    """The JSON object ``mff synth`` reads, decoded as ``SyntheticSpec(**spec)``:
    ``n`` rows of ``features``, objects of ``SyntheticFeature``'s fields,
    with their noise drawn from ``seed``. A key that no field reads raises
    TypeError, an ``n`` or ``seed`` that is not a whole number ValueError;
    ``gen_synthetic`` checks the values."""

    n: int
    features: list[SyntheticFeature]
    seed: int = 0

    def __post_init__(self):
        for key in ("n", "seed"):  # 30 or 30.0, not 30.5, NaN, "30" or true
            value = getattr(self, key)
            if type(value) not in (int, float) or value % 1:
                raise ValueError(f"{key!r} must be a whole number, got {value!r}")
            setattr(self, key, int(value))
        self.features = [SyntheticFeature(**feature) for feature in self.features]


def gen_synthetic(
    T_total: int, components: list[SyntheticFeature], seed: int = 0
) -> SeriesTable:
    """x_d[t] = sum_i amp*sin(2 pi t/period + phase) + slope*t + noise, one
    column per component, stamped hourly from 2020-01-01. No row or no
    component, a negative seed, or more rows than those stamps can reach
    before ``datetime.max`` raise ParameterError."""
    origin = datetime(2020, 1, 1)
    max_rows = (datetime.max - origin) // timedelta(hours=1) + 1
    if T_total < 1 or not components:
        raise ParameterError(
            f"synthetic spec needs n >= 1 and a feature, got n={T_total} and "
            f"{len(components)} features"
        )
    if T_total > max_rows:
        raise ParameterError(f"at most {max_rows} hourly rows fit, got {T_total}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    D = len(components)
    rng = np.random.default_rng(seed)
    t = np.arange(T_total, dtype=np.float64)
    values = np.zeros((T_total, D))
    for d, comp in enumerate(components):
        col = comp.slope * t
        for period, amplitude, phase in comp.waves:
            col = col + amplitude * np.sin(2 * np.pi * t / period + phase)
        if comp.noise_std > 0:
            col = col + rng.normal(0.0, comp.noise_std, size=T_total)
        values[:, d] = col
    stamps = [(origin + timedelta(hours=int(i))).isoformat(sep=" ") for i in range(T_total)]
    names = [f"f{d}" for d in range(D)]
    return SeriesTable(stamps, values, names)


def inject(table: SeriesTable, spec: PerturbationSpec, rows: int | None = None) -> SeriesTable:
    """Perturb exactly ceil(ratio*rows*D) cells of the first ``rows`` rows
    (every row when None), chosen uniformly without replacement under the
    spec seed; the other rows stay as they are.

    noise: add Normal(noise_mean, noise_std^2) draws to the chosen cells.
    missing: zero the chosen cells (train-mean imputation on standardized
    data).
    """
    values = table.values.copy()
    head = values[:rows]  # a view: its C-order flat indices are the sub-table's
    k = math.ceil(spec.ratio * head.size)
    if k:
        rng = np.random.default_rng(spec.seed)
        coords = np.unravel_index(rng.choice(head.size, size=k, replace=False), head.shape)
        if spec.kind == "noise":
            head[coords] += rng.normal(spec.noise_mean, spec.noise_std, size=k)
        else:
            head[coords] = 0.0
    return replace(table, values=values)
