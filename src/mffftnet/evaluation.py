"""Frozen-representation forecasting probe and report emission.

Each valid position contributes the backbone representation at the last
timestep of its lookback window (no augmentation, dropout off) paired with
the next P standardized values. A closed-form ridge regressor is fitted on
the train split, its regularization chosen on the validation split, and
scored on the test split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import SeriesTable, SplitSpec
from .errors import ConfigurationError
from .model import Model
from .tensor import Tensor, no_grad

DEFAULT_ALPHA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

HOURLY_HORIZONS = [24, 48, 168, 336, 720]
QUARTER_HOUR_HORIZONS = [24, 48, 96, 288, 672]


def horizon_grid(dataset_name: str) -> list[int]:
    """Conventional horizon grid: 15-minute datasets (ETTm*) get the short
    grid, everything else the hourly one."""
    if dataset_name.lower().startswith("ettm"):
        return list(QUARTER_HOUR_HORIZONS)
    return list(HOURLY_HORIZONS)


@dataclass
class RidgeProbe:
    weights: np.ndarray  # K x (P * D_out)
    intercept: np.ndarray  # P * D_out
    ridge_alpha: float


@dataclass
class ForecastReport:
    dataset: str
    mode: str  # "multivariate" | "univariate"
    entries: list[dict] = field(default_factory=list)  # {horizon, mse, mae}
    warnings: list[str] = field(default_factory=list)
    avg_mse: float = 0.0
    avg_mae: float = 0.0
    config: dict = field(default_factory=dict)
    timestamp: str = ""
    note: str = "metrics computed on standardized data"

    def finalize(self) -> None:
        if self.entries:
            self.avg_mse = float(np.mean([e["mse"] for e in self.entries]))
            self.avg_mae = float(np.mean([e["mae"] for e in self.entries]))

    def to_json(self) -> str:
        payload = {
            "dataset": self.dataset,
            "mode": self.mode,
            "entries": self.entries,
            "warnings": self.warnings,
            "avg_mse": self.avg_mse,
            "avg_mae": self.avg_mae,
            "config": self.config,
            "timestamp": self.timestamp,
            "note": self.note,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ForecastReport":
        payload = json.loads(text)
        return cls(**payload)

    def console_table(self) -> str:
        lines = [f"{self.dataset} ({self.mode})", f"{'horizon':>8} {'MSE':>10} {'MAE':>10}"]
        for e in self.entries:
            lines.append(f"{e['horizon']:>8} {e['mse']:>10.4f} {e['mae']:>10.4f}")
        lines.append(f"{'avg':>8} {self.avg_mse:>10.4f} {self.avg_mae:>10.4f}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def _rows(n: int, T: int, P: int) -> int:
    """Lookback/target pairs in a split of ``n`` rows."""
    m = n - T - P + 1
    if m < 1:
        raise ConfigurationError(
            f"split of {n} rows too short for lookback {T} + horizon {P}"
        )
    return m


def _targets(
    values: np.ndarray, T: int, P: int, target_index: int, mode: str
) -> np.ndarray:
    """Row i holds the P rows after lookback i, flattened: M x (P*D_out)."""
    cols = [target_index] if mode == "univariate" else slice(None)
    w = sliding_window_view(values[T:, cols], P, axis=0)  # M x D_out x P
    return w.transpose(0, 2, 1).reshape(len(w), -1)


def extract_features(
    model: Model,
    values: np.ndarray,
    T: int,
    P: int,
    target_index: int,
    mode: str = "multivariate",
    chunk: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """(features M x K, targets M x (P*D_out)) over one split's rows."""
    m = _rows(len(values), T, P)
    lookbacks = sliding_window_view(values[: m + T - 1], T, axis=0)  # M x D x T
    feats = []
    with no_grad():
        for lo in range(0, m, chunk):
            batch = np.ascontiguousarray(lookbacks[lo : lo + chunk].transpose(0, 2, 1))
            feats.append(model.encode(Tensor(batch), training=False).data[:, -1, :])
    return np.concatenate(feats), _targets(values, T, P, target_index, mode)


def _ridge_solver(X: np.ndarray, Y: np.ndarray):
    """Centre and form the normal equations once; the returned function
    solves them for one alpha."""
    xm, ym = X.mean(axis=0), Y.mean(axis=0)
    Xc, Yc = X - xm, Y - ym
    gram, cross = Xc.T @ Xc, Xc.T @ Yc
    eye = np.eye(X.shape[1])

    def solve(alpha: float) -> RidgeProbe:
        W = np.linalg.solve(gram + alpha * eye, cross)
        return RidgeProbe(weights=W, intercept=ym - xm @ W, ridge_alpha=alpha)

    return solve


def _solve_ridge(X: np.ndarray, Y: np.ndarray, alpha: float) -> RidgeProbe:
    return _ridge_solver(X, Y)(alpha)


def predict(probe: RidgeProbe, X: np.ndarray) -> np.ndarray:
    return X @ probe.weights + probe.intercept


def score(probe: RidgeProbe, X: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    err = predict(probe, X) - Y
    return float(np.mean(err**2)), float(np.mean(np.abs(err)))


def fit_ridge(
    train: tuple[np.ndarray, np.ndarray],
    valid: tuple[np.ndarray, np.ndarray],
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> RidgeProbe:
    """Closed-form solve per alpha on train; pick the validation-MSE winner."""
    if len(train[0]) < 2:
        raise ConfigurationError("ridge probe needs at least 2 training rows")
    solve = _ridge_solver(*train)
    best: RidgeProbe | None = None
    best_mse = np.inf
    for alpha in alpha_grid:
        probe = solve(alpha)
        mse, _ = score(probe, valid[0], valid[1])
        if mse < best_mse:
            best, best_mse = probe, mse
    assert best is not None
    return best


def evaluate_horizons(
    model: Model,
    table: SeriesTable,
    split_spec: SplitSpec,
    T: int,
    horizons: list[int],
    mode: str = "multivariate",
    alpha_grid=DEFAULT_ALPHA_GRID,
    dataset_name: str = "",
    config_snapshot: dict | None = None,
    timestamp: str = "",
) -> ForecastReport:
    """Per horizon: fit on train, select alpha on valid, score on test.
    Horizons that do not fit in a split become warning entries.

    Each split is encoded once, at the smallest fitting horizon; a longer
    horizon P uses the first ``n - T - P + 1`` of those feature rows. The
    chunks start at the same rows and the encoder maps each window on its
    own, so the rows equal a per-horizon extraction bit for bit.
    """
    report = ForecastReport(
        dataset=dataset_name or "unnamed",
        mode=mode,
        config=config_snapshot or {},
        timestamp=timestamp,
    )
    ranges = [split_spec.train_range, split_spec.valid_range, split_spec.test_range]
    splits = [table.values[a:b] for a, b in ranges]
    fitting = []
    for P in horizons:
        try:
            for values in splits:
                _rows(len(values), T, P)
        except ConfigurationError as exc:
            report.warnings.append(f"horizon {P} skipped: {exc}")
            continue
        fitting.append(P)
    if fitting:
        P0 = min(fitting)
        feats = [
            extract_features(model, values, T, P0, table.target_index, mode)[0]
            for values in splits
        ]
        for P in fitting:
            parts = [
                (
                    X[: _rows(len(values), T, P)],
                    _targets(values, T, P, table.target_index, mode),
                )
                for X, values in zip(feats, splits)
            ]
            probe = fit_ridge(parts[0], parts[1], alpha_grid)
            mse, mae = score(probe, parts[2][0], parts[2][1])
            report.entries.append(
                {"horizon": P, "mse": mse, "mae": mae, "ridge_alpha": probe.ridge_alpha}
            )
    report.finalize()
    return report


def train_mean_baseline(
    train_targets: np.ndarray, test_targets: np.ndarray
) -> tuple[float, float]:
    """MSE/MAE of predicting the train-split mean target everywhere."""
    pred = train_targets.mean(axis=0)
    err = test_targets - pred
    return float(np.mean(err**2)), float(np.mean(np.abs(err)))
