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
from .errors import ConfigurationError, NumericError
from .model import Model
from .tensor import Tensor, no_grad

DEFAULT_ALPHA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass
class RidgeProbe:
    """Predictions x @ weights + intercept. ``coef`` stacks the weights over
    the intercept, (K + 1) x (P * D_out), so that ``score`` multiplies [x, 1]
    by it in one GEMM; ``weights`` and ``intercept`` are views of it."""

    coef: np.ndarray
    ridge_alpha: float

    @property
    def weights(self) -> np.ndarray:  # K x (P * D_out)
        return self.coef[:-1]

    @property
    def intercept(self) -> np.ndarray:  # P * D_out
        return self.coef[-1]


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


# Rows per block in ``_lag_sums``: a block is transformed at F, the smallest
# 2-3-5-smooth length >= B + lags - 1, and B then grows to F - lags + 1; the
# fastest B at the ETTh1 shape (timings in README).
_CORR_ROWS = 1024


# Elements, 16 bytes each, that a group of columns makes in ``_lag_sums``;
# a chunk of u's block spectra takes at most half of it. The fastest budget at
# K = 32 and within 10% of the fastest at K = 320 (timings in README).
_GROUP_ELEMS = 2**18


def _block_spectra(x: np.ndarray, first: int, stop: int, rows: int, width: int, fft_len: int, out):
    """Into out[b - first], for each block b from ``first`` to ``stop``, the
    rfft of the ``width`` rows of x from row b * rows on, zero-padded to F:
    one transform per block, so no padded copy of x is made."""
    for b in range(first, stop):
        np.fft.rfft(x[b * rows : b * rows + width], fft_len, axis=0, out=out[b - first])


def _lag_sums(A: np.ndarray, u: np.ndarray, lags: int, less=None, elems=None) -> np.ndarray:
    """K x lags x D: [k, p, d] = sum_i A[i, k] u[i + p, d], with u read as
    zero past its last row; given a K x lags x D array ``less``, it is
    returned less these sums, subtracted in place.

    An overlap-add correlation: block b of B rows, A[bB : bB + B], is
    correlated with the F values of u from row bB on. At the FFT length F
    >= B + lags - 1 no lag below ``lags`` wraps around, so the per-bin
    products of all blocks add up to the spectrum of the lag sums, and one
    irfft of length F gives them. F follows ``lags`` and ``_CORR_ROWS``, not
    len(A); at most B rows are one block.

    The feature columns go through in groups of at least two whose arrays
    take at most ``elems`` elements (``_GROUP_ELEMS`` unless given): a
    group's block spectra, one product per bin over the blocks, written in
    the layout the irfft reads, and one irfft give its columns of the lag
    sums. Every block of A and of u is one transform (``_block_spectra``).
    u's block spectra come in chunks sized by ``_GROUP_ELEMS`` and the
    shapes alone: a split of one chunk makes them once, a longer one makes
    them a chunk at a time in each group and adds up the chunks' products.
    So no array grows with len(A).

    A univariate u gets a zero second column, so every D takes the one
    matmul, on numpy's own loop: it sums each bin's products over a chunk's
    blocks in order, the same for any group of two or more columns. Only
    the real columns reach the irfft. So the sums depend on (A, u, lags)
    alone, not on ``elems``, and match a dense sum within ~1e-15 relative."""
    (m, K), D = A.shape, u.shape[1]
    width = max(D, 2)  # a univariate u gets a zero second column
    elems = _GROUP_ELEMS if elems is None else elems
    fft_len = _smooth_length(min(_CORR_ROWS, m) + lags - 1)
    rows = min(fft_len - lags + 1, m)  # B, widened to fill F
    blocks, bins = -(-m // rows), fft_len // 2 + 1
    chunk = min(blocks, max(1, _GROUP_ELEMS // (2 * width * bins)))

    def u_spectra(first, stop):  # chunk x width x bins
        fu = np.zeros((stop - first, width, bins), dtype=complex)
        _block_spectra(u, first, stop, rows, fft_len, fft_len, fu[:, :D].transpose(0, 2, 1))
        return fu

    if chunk == blocks:
        fu = u_spectra(0, blocks)
        cols = elems // ((blocks + width) * bins + D * fft_len)
    else:
        fu = None
        cols = (elems - width * chunk * bins) // ((chunk + 2 * width) * bins + D * fft_len)
    cols = min(K, max(2, cols))
    bounds = [*range(0, K, cols), K]
    if len(bounds) > 2 and K - bounds[-2] == 1:
        del bounds[-2]  # a last single column joins the group before it
    sums = np.empty((K, lags, D)) if less is None else less
    for lo, hi in zip(bounds, bounds[1:]):
        spectrum = np.empty((hi - lo, width, bins), dtype=complex)  # columns x width x bins
        for first in range(0, blocks, chunk):
            stop = min(first + chunk, blocks)
            fa = np.empty((stop - first, bins, hi - lo), dtype=complex)
            _block_spectra(A[:, lo:hi], first, stop, rows, rows, fft_len, fa)
            np.conj(fa, out=fa)
            fub = u_spectra(first, stop) if fu is None else fu
            # the products of every block in the chunk summed, per bin,
            # contiguous along the bins so the irfft copies nothing
            part = spectrum if first == 0 else np.empty_like(spectrum)
            np.matmul(fa.transpose(1, 2, 0), fub.transpose(2, 0, 1), out=part.transpose(2, 0, 1))
            del fa, fub  # or the next chunk's, or the irfft's output, is made beside them
            if first:
                spectrum += part
            del part
        lagged = np.fft.irfft(spectrum[:, :D], fft_len)  # columns x D x F
        if less is None:
            sums[lo:hi] = lagged[..., :lags].transpose(0, 2, 1)
        else:
            sums[lo:hi] -= lagged[..., :lags].transpose(0, 2, 1)
        del spectrum, lagged  # or they stay alive beside the next group's
    return sums


def _running_ends(u: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the first and the last ``keep`` rows of the running sums of
    u and u^2, (n + 1) x 2 x D with a leading row of zeros: one sequential
    cumsum in place over [0; u], [0; u^2]. That array is the probe's one
    split-length transient; numpy's axis-0 ``sum`` would add pairwise for
    D = 1 and move the univariate bits."""
    run = np.zeros((len(u) + 1, 2, u.shape[1]))
    run[1:, 0] = u
    np.multiply(u, u, out=run[1:, 1])
    np.cumsum(run, axis=0, out=run)
    return run[:keep].copy(), run[-keep:].copy()


class _TargetSeries:
    """One split's feature rows X (m0 of them, encoded at the shortest
    horizon P0) against its post-lookback values u (n = m0 + P0 - 1 rows),
    correlated once for every horizon in ``horizons``.

    The series takes ownership of X: it centres X in place, so the caller
    must not use it afterwards. u is only read.

    Target row i of horizon P is u[i : i + P] flattened, so the cross
    moment sum_i a_i y_i^T is, per lag p < P, the cross-correlation of the
    feature columns with u at lag p: one ``_lag_sums`` of the features
    centred on the mean c of all m0 rows, A = X - c, serves every horizon.
    Horizon P keeps the first m = n - P + 1 rows: it subtracts the lag sums
    and the Gram of the tail rows A[m:m0] and moves the centre from c to
    its x0 exactly; with s the sum of the kept A rows and d = c - x0,
    sum_i (A_i + d)(A_i + d)^T = S + s d^T + d s^T + m d d^T. The running
    sums of u and u^2 give the target sums and Syy.

    The series keeps of A only the rows past the longest horizon's cut and
    each horizon's s, and of the running sums only their ends. An s summed
    over the kept rows, not the total less the tail's sum, leaves the
    metrics' bits as they were. So once the caller drops X, what the series
    keeps does not grow with the split, and the one split-length array it
    makes is the running sums' (``_running_ends``); README's probe
    paragraph gives the budgets."""

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
        # horizon P reads the first and the last P rows of the running sums
        self.head, self.last = _running_ends(u, max(horizons))

    def _target_sums(self, P: int) -> np.ndarray:
        """P x 2 x D_out: the sums of the horizon-P targets and their squares."""
        return self.last[-P:] - self.head[:P]

    def centre(self, P: int) -> tuple[np.ndarray, np.ndarray]:
        """(x0, y0): the means of the first ``n - P + 1`` feature rows and of
        their horizon-P targets, the centre ``moments(P)`` takes by default."""
        return self.means[P], self._target_sums(P)[:, 0].ravel() / (len(self.u) - P + 1)

    def moments(self, P: int, centre: tuple[np.ndarray, np.ndarray] | None = None) -> Moments:
        """Moments of the first ``n - P + 1`` feature rows against their
        horizon-P targets, about the ``centre`` (x0, y0) or, without one,
        about their own means. The only K x P * D_out array it makes is the
        cross moment it returns."""
        m = len(self.u) - P + 1
        sums = self._target_sums(P)
        ysum, ysq = sums[:, 0], sums[:, 1].ravel()  # P x D_out each
        x0, y0 = self.centre(P) if centre is None else centre
        d = self.c - x0
        tail = self.tail[m - self.cut :]
        lags = np.multiply.outer(d, ysum)  # K x P x D_out, then the lag sums
        lags += self.lags[:, :P]
        if len(tail):  # at the probe's peak, beside two cross moments: half the budget
            _lag_sums(tail, self.u[m:], P, less=lags, elems=_GROUP_ELEMS // 2)
        s = self.row_sums[P]
        gram = self.gram - tail.T @ tail + np.outer(s, d) + np.outer(d, s) + m * np.outer(d, d)
        cross = lags.reshape(len(x0), -1)
        shift = s + m * d  # cross -= outer(shift, y0), a row at a time
        for k, row in enumerate(cross):
            row -= shift[k] * y0
        ysum = ysum.ravel()
        syy = float(np.sum(ysq - 2 * y0 * ysum + m * y0 * y0))
        return Moments(rows=m, x0=x0, y0=y0, gram=gram, cross=cross, syy=syy)


# Errors per ``score`` block (1 MB), or one row's P * D_out when it is wider.
_SCORE_ELEMS = 2**17


def _error_blocks(probe: RidgeProbe, X: np.ndarray, Y: np.ndarray):
    """Yield the errors of the predictions for X against the M x P x D_out
    targets Y, a block of whole rows at a time, as (row, errors):
    errors[i, p * D_out + d] is the error of row ``row + i`` at step p,
    value d. A block's rows are copied once beside a ones column, so one
    GEMM against ``probe.coef`` adds the intercept too, and every block is
    written into one buffer: a caller that keeps a block must copy it."""
    (M, P, D), K = Y.shape, X.shape[1]
    rows = min(M, max(1, _SCORE_ELEMS // max(P * D, K + 1)))
    xb, buf = np.ones((rows, K + 1)), np.empty((rows, P * D))
    for lo in range(0, M, rows):
        hi = min(lo + rows, M)
        xb[: hi - lo, :K] = X[lo:hi]
        err = np.matmul(xb[: hi - lo], probe.coef, out=buf[: hi - lo])
        windows = err.reshape(hi - lo, P, D)
        windows -= Y[lo:hi]
        yield lo, err


def score(probe: RidgeProbe, X: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) of the predictions for X against the M x P x D_out target
    windows Y. The errors come in blocks of whole rows (``_error_blocks``),
    and the sums of err^2 and |err| accumulate over them, so no array holds
    more than one block's errors. Both are numpy's own sums: a BLAS dot
    product splits by thread count."""
    sq, ab = 0.0, 0.0
    for _, err in _error_blocks(probe, X, Y):
        err = err.ravel()
        ab += float(np.abs(err, out=err).sum())
        sq += float(np.square(err, out=err).sum())
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
    for every alpha the grid may hold; but on a rank-deficient Gram an alpha
    that small makes d infinite and the SSE NaN, and when no alpha's SSE is
    finite it raises ``NumericError``. On a well-conditioned Gram W matches
    ``np.linalg.solve(G + alpha I, C)`` within 1e-10 relative.

    The weights and the intercept are written into one (K + 1) x (P * D_out)
    array, the probe's ``coef``. Neither argument is changed, but each is
    let go once its cross moment has been read, so when the caller keeps no
    reference to the moments (``evaluate_horizons`` keeps none) at most
    three K x (P * D_out) arrays are alive at once on CPython 3.11 and
    later (README's probe paragraph)."""
    _check_alphas(alpha_grid)
    if train.rows < 2:
        raise ConfigurationError("ridge probe needs at least 2 training rows")
    lam, Q = np.linalg.eigh(train.gram)
    lam = np.maximum(lam, 0.0)
    ct = Q.T @ train.cross
    x0, y0 = train.x0, train.y0
    del train
    S = (Q.T @ valid.gram @ Q) * (ct @ ct.T)
    t = np.einsum("ij,ij->i", Q.T @ valid.cross, ct)
    syy = valid.syy
    del valid
    best, best_sse = None, np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN SSE never wins
        for alpha in alpha_grid:
            d = 1.0 / (lam + alpha)
            sse = d @ S @ d - 2 * d @ t + syy
            if sse < best_sse:
                best, best_sse = (alpha, d), sse
    if best is None:
        grid = ", ".join(str(float(a)) for a in alpha_grid)
        raise NumericError(f"no ridge alpha in [{grid}] gives a finite validation error")
    alpha, d = best
    ct *= d[:, None]
    coef = np.empty((len(ct) + 1, ct.shape[1]))
    W = np.matmul(Q, ct, out=coef[:-1])
    del ct
    np.subtract(y0, x0 @ W, out=coef[-1])
    return RidgeProbe(coef, alpha)


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

    No target matrix is formed: the train and validation splits reach the
    fit through their moments (``_TargetSeries``, ``fit_ridge``), and the
    test split is scored in row blocks (``score``); README's probe
    paragraph gives how and at what memory. Against dense target matrices
    and one solve per alpha the metrics agree within 1e-10 relative.

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
        # no name holds the moments, so fit_ridge frees each split's once
        # it has read its cross moment
        try:
            probe = fit_ridge(train.moments(P), valid.moments(P, train.centre(P)), alpha_grid)
        except NumericError as exc:
            raise NumericError(f"{exc} at horizon {P}") from None
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
