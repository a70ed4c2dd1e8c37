"""Frozen-representation forecasting probe and report emission.

Each valid position contributes the backbone representation at the last
timestep of its lookback window (no augmentation, dropout off) paired with
the next P standardized values. A closed-form ridge regressor is fitted on
the train split, its regularization chosen on the validation split, and
scored on the test split.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import SeriesTable, SplitSpec
from .errors import ConfigurationError
from .model import Model
from .tensor import Tensor, no_grad

DEFAULT_ALPHA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


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
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

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


def _after_lookback(
    values: np.ndarray, T: int, target_index: int, mode: str
) -> np.ndarray:
    """The target columns of the rows after the first lookback."""
    return values[T:, [target_index] if mode == "univariate" else slice(None)]


def _target_windows(
    values: np.ndarray, T: int, P: int, target_index: int, mode: str
) -> np.ndarray:
    """A view: [i, p] holds the row p + 1 steps after lookback i, M x P x D_out."""
    u = _after_lookback(values, T, target_index, mode)
    return sliding_window_view(u, P, axis=0).transpose(0, 2, 1)


# Lookbacks an ``extract_features`` call encodes at once: no encoder call
# holds more than ``_ENCODE_LOOKBACKS * T`` rows.
_ENCODE_LOOKBACKS = 64


def extract_features(model: Model, values: np.ndarray, T: int, P: int) -> np.ndarray:
    """Features M x K over one split's rows: row i is the encoder output at
    the last step of lookback i, the T rows ending at row i + T - 1.

    Each encoder call sees a segment of T + S - 1 consecutive rows and keeps
    its last S outputs, the features of S consecutive lookbacks. When the
    backbone's receptive field fits in T, the last step of a lookback never
    reads the zero padding before it, so it equals the output at that row
    of any causal pass over a longer run of rows ending there: S is then
    as large as ``_ENCODE_LOOKBACKS * T`` rows per call allow. Otherwise
    S = 1, and a call encodes ``_ENCODE_LOOKBACKS`` lookbacks as a batch.
    Both ways give the per-lookback features bit for bit. Each call's rows
    are written into one M x K array."""
    m = _rows(len(values), T, P)
    if model.config.backbone.receptive_field <= T:
        S, per_call = (_ENCODE_LOOKBACKS - 1) * T + 1, 1
    else:
        S, per_call = 1, _ENCODE_LOOKBACKS
    feats = np.empty((m, model.config.backbone.output_dim))
    with no_grad():
        for lo in range(0, m, S * per_call):
            hi = min(lo + S * per_call, m)
            segments = sliding_window_view(
                values[lo : hi + T - 1], T + min(S, hi - lo) - 1, axis=0
            )[::S]  # segments x D x rows
            batch = np.ascontiguousarray(segments.transpose(0, 2, 1))
            out = model.encode(Tensor(batch), training=False).data[:, T - 1 :]
            feats[lo:hi] = out.reshape(hi - lo, -1)
    return feats


@dataclass
class Moments:
    """What the ridge probe needs of one split's (features x, targets y)
    rows, taken about a centre (x0, y0): the train split's own means for
    the split the probe is fitted on, the train means for the others."""

    rows: int
    x0: np.ndarray  # K
    y0: np.ndarray  # P * D_out
    gram: np.ndarray  # K x K: sum of (x - x0)(x - x0)^T
    cross: np.ndarray  # K x (P * D_out): sum of (x - x0)(y - y0)^T
    syy: float  # sum of |y - y0|^2


def _smooth_length(n: int) -> int:
    """Smallest 2·3·5-smooth integer >= n; pocketfft is several times
    slower on lengths with a large prime factor."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


# Rows per block in ``_lag_sums``. With L lags a block is transformed at F =
# the smallest 2-3-5-smooth length >= B + L - 1, and B then grows to F - L +
# 1. On the ETTh1-shaped probe (K=32, D_out=7, L=720; 8553 train and 2793
# validation rows; 2 cores, numpy 2.4 pocketfft) the two splits took, as
# medians of 25 interleaved runs, 28 ms at B=256, 24 ms at 512, 22-23 ms at
# 768-1024, 25-26 ms at 1329-1536, 30 ms at 2048 and 48 ms at 4096, against
# 71 ms for one full-length correlation per split.
_CORR_ROWS = 1024


# Array elements one column of a group makes in ``_lag_sums``: its block
# spectra (blocks x bins complex), its per-bin products (D x bins complex)
# and its lag output (D x F real), with bins = F // 2 + 1. A group takes as
# many whole columns as fit, at least one, so its arrays never hold more
# than 16 bytes times this budget. The correlations of one ETTh1-shaped
# probe (both splits and every horizon's tail rows; D=7, horizons 24-720;
# 2 cores, numpy 2.4; medians of 41 interleaved runs at K=32 and 15 at
# K=320, the largest traced excess over the output in brackets) took 23
# and 238 ms at 2^15 (1.0 MB), 31 and 301 ms at 2^16 (1.2 MB), 24 and 230
# ms at 2^17 (1.9 MB), 22.5 and 213 ms at 2^18 (3.0 MB), 25 and 223 ms at
# 2^19 (5.3-5.4 MB) and 25 and 231 ms at 2^20 (7.7-10.7 MB). 2^18 is the
# fastest at both widths.
_GROUP_ELEMS = 2**18


def _lag_sums(A: np.ndarray, u: np.ndarray, lags: int, less=None) -> np.ndarray:
    """K x lags x D: [k, p, d] = sum_i A[i, k] u[i + p, d], with u read as
    zero past its last row; given a K x lags x D array ``less``, it is
    returned less these sums, subtracted in place.

    An overlap-add correlation: block b of B rows, A[bB : bB + B], is
    correlated with the F values of u from row bB on. At the FFT length F
    >= B + lags - 1 no lag below ``lags`` wraps around, so the per-bin
    products of all blocks add up to the spectrum of the lag sums, and one
    irfft of length F gives them. F follows ``lags`` and ``_CORR_ROWS``, not
    len(A); at most B rows are one block.

    The feature columns go through in groups whose block spectra, per-bin
    products and lag output take at most ``_GROUP_ELEMS`` elements: a
    group's block spectra, one GEMM per bin over all blocks, written in the
    layout the irfft reads, and one irfft give its columns of the lag sums.
    Full blocks are a reshaped view of A, and rfft's length argument pads
    the last, partial one, so no buffer K columns wide grows with len(A); u
    and its block spectra, D columns wide, are transformed once. For D > 1
    each lag sum is the same sum over the blocks whatever the grouping; for
    D = 1 numpy hands the per-bin products to a BLAS matrix-vector kernel,
    whose rounding follows the group's width. The sums match a dense sum
    within ~1e-15 relative."""
    (m, K), D = A.shape, u.shape[1]
    fft_len = _smooth_length(min(_CORR_ROWS, m) + lags - 1)
    rows = min(fft_len - lags + 1, m)  # B, widened to fill F
    blocks, bins, full = -(-m // rows), fft_len // 2 + 1, m // rows
    padded = np.zeros(((blocks - 1) * rows + fft_len, D))  # past it no lag reads u
    n = min(len(u), len(padded))
    padded[:n] = u[:n]
    # blocks x D x bins
    fu = np.fft.rfft(sliding_window_view(padded, fft_len, axis=0)[::rows], fft_len)
    del padded
    cols = min(K, max(1, _GROUP_ELEMS // ((blocks + D) * bins + D * fft_len)))
    sums = np.empty((K, lags, D)) if less is None else less
    for lo in range(0, K, cols):
        hi = min(lo + cols, K)
        fa = np.empty((blocks, bins, hi - lo), dtype=complex)
        if full:
            blocked = A[: full * rows].reshape(full, rows, K)[..., lo:hi]
            np.fft.rfft(blocked, fft_len, axis=1, out=fa[:full])
        if full < blocks:
            np.fft.rfft(A[full * rows :, lo:hi], fft_len, axis=0, out=fa[full])
        np.conj(fa, out=fa)
        # columns x D x bins: the products of every block summed, one GEMM
        # per bin, contiguous along the bins so the irfft copies nothing
        spectrum = np.empty((hi - lo, D, bins), dtype=complex)
        np.matmul(fa.transpose(1, 2, 0), fu.transpose(2, 0, 1), out=spectrum.transpose(2, 0, 1))
        del fa  # or the irfft's output is made beside it
        lagged = np.fft.irfft(spectrum, fft_len)  # columns x D x F
        if less is None:
            sums[lo:hi] = lagged[..., :lags].transpose(0, 2, 1)
        else:
            sums[lo:hi] -= lagged[..., :lags].transpose(0, 2, 1)
        del spectrum, lagged  # or they stay alive beside the next group's
    return sums


class _TargetSeries:
    """One split's feature rows X (m0 of them, encoded at the shortest
    horizon P0) against its post-lookback values u (n = m0 + P0 - 1 rows),
    correlated once for every horizon in ``horizons``.

    The series takes ownership of X: it centres X in place, so the caller
    must not use it afterwards. u is only read.

    Target row i of horizon P is u[i : i + P] flattened, so the cross
    moment sum_i a_i y_i^T is, per lag p < P, the cross-correlation of the
    feature columns with u at lag p. Each horizon's own feature mean is
    taken first; then the features are centred on the mean c of all m0
    rows, A = X - c, and one block-wise FFT correlation (``_lag_sums``)
    gives the lag sums over all m0 rows for every lag below the longest
    horizon.

    Horizon P keeps the first m = n - P + 1 rows: it subtracts the lag sums
    of the P - P0 tail rows A[m:m0], one more correlation of P lags, and
    moves the centre from c to its x0 exactly, through (c - x0) times the
    target sums. The running sums of u and u^2 give the target sums and
    Syy. The Gram works the same way: the Gram of all m0 rows about c,
    computed once, less the tail rows' Gram, plus the rank-one terms of the
    shift d = c - x0: with s the sum of the kept A rows,
    sum_i (A_i + d)(A_i + d)^T = S + s d^T + d s^T + m d d^T.

    Once the lag sums and the Gram are made, the series keeps of A only
    what the horizons read: the rows past the longest horizon's cut, which
    hold every horizon's tail, and each horizon's s. An s summed over the
    kept rows, not the total less the tail's sum, leaves the metrics' bits
    as they were. Of the running sums it keeps the first and the last
    longest-horizon rows. So once the caller drops X, no array the series
    holds grows with the split."""

    def __init__(self, X: np.ndarray, u: np.ndarray, horizons):
        self.u = u
        self.means = {P: X[: len(u) - P + 1].mean(axis=0) for P in horizons}
        self.c = X.mean(axis=0)
        X -= self.c
        self.lags = _lag_sums(X, u, max(horizons))
        self.gram = X.T @ X
        self.cut = len(u) - max(horizons) + 1
        self.tail = X[self.cut :].copy()
        self.row_sums = {P: X[: len(u) - P + 1].sum(axis=0) for P in horizons}
        # running sums of u and u^2; horizon P reads the first and the last P
        running = np.zeros((len(u) + 1, 2, u.shape[1]))
        np.cumsum(u, axis=0, out=running[1:, 0])
        np.cumsum(u * u, axis=0, out=running[1:, 1])
        self.head, self.last = running[: max(horizons)].copy(), running[-max(horizons) :].copy()

    def moments(self, P: int, centre: Moments | None = None) -> Moments:
        """Moments of the first ``n - P + 1`` feature rows against their
        horizon-P targets, about ``centre``'s (x0, y0) or, without one,
        about their own means."""
        m = len(self.u) - P + 1
        sums = self.last[-P:] - self.head[:P]
        ysum, ysq = sums[:, 0], sums[:, 1].ravel()  # P x D_out each
        x0, y0 = (self.means[P], ysum.ravel() / m) if centre is None else (centre.x0, centre.y0)
        d = self.c - x0
        tail = self.tail[m - self.cut :]
        lags = np.multiply.outer(d, ysum)  # K x P x D_out, then the lag sums
        lags += self.lags[:, :P]
        if len(tail):
            _lag_sums(tail, self.u[m:], P, less=lags)
        s = self.row_sums[P]
        gram = self.gram - tail.T @ tail + np.outer(s, d) + np.outer(d, s) + m * np.outer(d, d)
        cross = lags.reshape(len(x0), -1)
        cross -= np.outer(s + m * d, y0)
        ysum = ysum.ravel()
        syy = float(np.sum(ysq - 2 * y0 * ysum + m * y0 * y0))
        return Moments(rows=m, x0=x0, y0=y0, gram=gram, cross=cross, syy=syy)


# Errors per block in ``score``: a block takes as many rows as keep its
# predictions within this many elements (4 MB), at least one, and the one
# buffer every block is written into holds that many. Scoring an
# ETTh1-shaped test split (K=32, D_out=7, horizons 24-720; 2 cores, medians
# of 21 interleaved runs, three rounds) took 96-97 ms in blocks of 256 rows,
# 106-107 ms at 2^17 elements, 109-114 ms at 2^18, 98-102 ms at 2^19 and
# 90-92 ms at 2^20. 2^19 is the smallest budget within 5% of 256 rows,
# whose block holds 10 MB of errors at P=720. Written into one buffer, the
# five horizons' scoring took 88 ms against 89 ms with a new array per
# block (medians of 21 interleaved runs); either traces 4.2 MB at P=720.
_SCORE_ELEMS = 2**19


def score(probe: RidgeProbe, X: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) of the predictions for X; Y is M x (P*D_out) or the
    M x P x D_out target windows. The rows are scored in blocks of at most
    ``_SCORE_ELEMS`` errors, accumulating the sums of err^2 and |err|. Every
    block's predictions are written into one buffer, straight from a view
    of X's rows, so no array holds more than one block's errors."""
    rows = max(1, _SCORE_ELEMS // probe.weights.shape[1])
    buf = np.empty((min(rows, len(X)), probe.weights.shape[1]))
    sq, ab = 0.0, 0.0
    for lo in range(0, len(X), rows):
        target = Y[lo : lo + rows]
        err = np.matmul(X[lo : lo + rows], probe.weights, out=buf[: len(target)])
        err += probe.intercept
        windows = err.reshape(target.shape)
        windows -= target
        err = err.ravel()
        sq += float(err @ err)
        ab += float(np.abs(err, out=err).sum())
    return sq / Y.size, ab / Y.size


def _check_alphas(alpha_grid) -> None:
    if len(alpha_grid) == 0:
        raise ConfigurationError("the ridge alpha grid is empty")
    for alpha in alpha_grid:
        if not (np.isfinite(alpha) and alpha > 0):
            raise ConfigurationError(f"ridge alphas must be finite and > 0, got {alpha!r}")


def check_probe_grid(horizons, alpha_grid, mode) -> None:
    """Raise ``ConfigurationError`` unless there is a horizon, every horizon
    is an integer >= 1, the alpha grid is non-empty, finite and positive,
    and the mode is multivariate or univariate."""
    if mode not in ("multivariate", "univariate"):
        raise ConfigurationError(f"mode must be multivariate or univariate, got {mode!r}")
    if len(horizons) == 0:
        raise ConfigurationError("the horizons list is empty")
    for P in horizons:
        if isinstance(P, bool) or not isinstance(P, numbers.Integral) or P < 1:
            raise ConfigurationError(f"horizons must be integers >= 1, got {P!r}")
    _check_alphas(alpha_grid)


def fitting_horizons(split_spec: SplitSpec, T: int, horizons) -> tuple[list[int], list[str]]:
    """Each distinct horizon once, in first-seen order: those whose
    lookback/target pairs fit every split, and a warning for each other
    one. Needs only the split lengths, so a caller can run it before any
    training; raises ``ConfigurationError`` when no horizon fits."""
    ranges = [split_spec.train_range, split_spec.valid_range, split_spec.test_range]
    fitting, warnings = [], []
    for P in dict.fromkeys(horizons):
        try:
            for a, b in ranges:
                _rows(b - a, T, P)
        except ConfigurationError as exc:
            warnings.append(f"horizon {P} skipped: {exc}")
            continue
        fitting.append(P)
    if not fitting:
        raise ConfigurationError(
            f"none of the horizons fits every split: {'; '.join(warnings)}"
        )
    return fitting, warnings


def fit_ridge(
    train: Moments, valid: Moments, alpha_grid=DEFAULT_ALPHA_GRID
) -> RidgeProbe:
    """Ridge fit on the train moments, alpha chosen by the lowest
    validation SSE, tr(W^T G_v W) - 2 tr(W^T C_v) + Syy over the validation
    moments about the train means. The first alpha on the grid wins a tie.

    The train Gram is eigendecomposed once, G = Q diag(lam) Q^T, so W(alpha)
    = Q diag(d) Q^T C with d = 1 / (lam + alpha). With Ct = Q^T C, the
    validation SSE of every alpha is d^T S d - 2 d^T t + Syy, where S =
    (Q^T G_v Q) * (Ct Ct^T) elementwise and t_i = sum_j (Q^T C_v)_ij Ct_ij:
    O(K^2) per alpha, and W is formed for the winner only. G is positive
    semi-definite, so its eigenvalues are clipped at 0 and lam + alpha > 0
    for every alpha the grid may hold. On a well-conditioned Gram W matches
    ``np.linalg.solve(G + alpha I, C)`` within 1e-10 relative."""
    _check_alphas(alpha_grid)
    if train.rows < 2:
        raise ConfigurationError("ridge probe needs at least 2 training rows")
    lam, Q = np.linalg.eigh(train.gram)
    lam = np.maximum(lam, 0.0)
    ct = Q.T @ train.cross
    S = (Q.T @ valid.gram @ Q) * (ct @ ct.T)
    t = np.einsum("ij,ij->i", Q.T @ valid.cross, ct)
    best, best_sse = None, np.inf
    for alpha in alpha_grid:
        d = 1.0 / (lam + alpha)
        sse = d @ S @ d - 2 * d @ t + valid.syy
        if sse < best_sse:
            best, best_sse = (alpha, d), sse
    alpha, d = best
    ct *= d[:, None]
    W = Q @ ct
    return RidgeProbe(weights=W, intercept=train.y0 - train.x0 @ W, ridge_alpha=alpha)


def evaluate_horizons(
    model: Model,
    table: SeriesTable,
    split_spec: SplitSpec,
    T: int,
    horizons: list[int],
    mode: str = "multivariate",
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> ForecastReport:
    """Per horizon: fit on train, select alpha on valid, score on test.
    Horizons that do not fit in a split become warning entries. The report's
    dataset reads "unnamed" and its config and timestamp are empty; a
    caller that knows them sets them on the report.

    Each split is encoded once, at the smallest fitting horizon; a longer
    horizon P uses the first ``n - T - P + 1`` of those feature rows. A
    feature row is the encoder output at the last step of its lookback,
    whether ``extract_features`` encodes lookbacks one by one or, when the
    receptive field fits in T, long causal segments that each yield many
    rows; so the rows equal a per-horizon extraction bit for bit.

    No target matrix is formed. The ridge fit and the alpha choice read
    the train and validation splits through their moments: each of the two
    splits runs one block-wise FFT cross-correlation of its features with
    its values, at a length set by the longest horizon, and every horizon
    reads its moments from it (``_TargetSeries``). ``fit_ridge`` ranks the
    whole alpha grid from one eigendecomposition of the train Gram per
    horizon. The test split is scored in row blocks against a strided view
    of its values, since MAE needs every error. Against dense target
    matrices and one solve per alpha the metrics agree within 1e-10
    relative.

    An empty horizon list, a horizon below 1, a bad alpha grid (empty,
    non-finite or not positive) or a mode other than multivariate or
    univariate raises ``ConfigurationError``, and so does a list in which
    no horizon fits every split, before any window is encoded.
    """
    check_probe_grid(horizons, alpha_grid, mode)
    report = ForecastReport(dataset="unnamed", mode=mode)
    fitting, report.warnings = fitting_horizons(split_spec, T, horizons)
    ranges = [split_spec.train_range, split_spec.valid_range, split_spec.test_range]
    splits = [table.values[a:b] for a, b in ranges]
    P0 = min(fitting)
    # each series centres its features in place and keeps only their tail
    # rows, so none is named here and a split's are freed before the next
    train, valid = (
        _TargetSeries(
            extract_features(model, values, T, P0),
            _after_lookback(values, T, table.target_index, mode),
            fitting,
        )
        for values in splits[:2]
    )
    test = extract_features(model, splits[2], T, P0)
    for P in fitting:
        fit = train.moments(P)
        probe = fit_ridge(fit, valid.moments(P, centre=fit), alpha_grid)
        del fit  # its cross moments are as large as the weights
        m = _rows(len(splits[2]), T, P)
        mse, mae = score(
            probe,
            test[:m],
            _target_windows(splits[2], T, P, table.target_index, mode),
        )
        report.entries.append(
            {"horizon": P, "mse": mse, "mae": mae, "ridge_alpha": probe.ridge_alpha}
        )
        del probe  # or it stays alive beside the next horizon's moments
    report.finalize()
    return report


def train_mean_baseline(
    train_targets: np.ndarray, test_targets: np.ndarray
) -> tuple[float, float]:
    """MSE/MAE of predicting the train-split mean target everywhere."""
    pred = train_targets.mean(axis=0)
    err = test_targets - pred
    return float(np.mean(err**2)), float(np.mean(np.abs(err)))
