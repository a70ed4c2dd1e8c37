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
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import SeriesTable, SplitSpec
from .errors import ConfigurationError
from .model import Model
from .tensor import Tensor, no_grad

DEFAULT_ALPHA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass
class RidgeProbe:
    """Predictions x @ weights + intercept. ``coef`` stacks the weights over
    the intercept, (K + 1) x (P * D_out), so that ``score`` multiplies [x, 1]
    by it in one GEMM; ``weights`` and ``intercept`` are views of it. A
    probe given the two apart stacks them once."""

    weights: np.ndarray  # K x (P * D_out)
    intercept: np.ndarray  # P * D_out
    ridge_alpha: float
    coef: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.coef is None:
            self.coef = np.vstack([self.weights, self.intercept])
            self.weights, self.intercept = self.coef[:-1], self.coef[-1]


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


# Array elements a group of columns makes in ``_lag_sums``. A column takes
# its block spectra (blocks x bins complex), its per-bin products (D x bins
# complex) and its lag output (D x F real), with bins = F // 2 + 1. u's
# block spectra (blocks x D x bins) are made once, outside the groups, when
# they take at most half of this; past that, each group makes them a chunk
# of blocks at a time, the chunk and a second D x bins product per column
# are counted too, and a group sums its chunks' products. A group takes as
# many whole columns as fit, so its arrays never hold more than 16 bytes
# times this budget, but at least one (two for D > 1, where a last single
# column joins the group before it). One ETTh1-shaped probe's correlations
# (both splits' series and every horizon's moments; D=7, horizons 24-720,
# random features; 2 cores, numpy 2.4; medians of 21 interleaved runs at
# K=32 and 7 at K=320, the tails at the same budget; in brackets the
# traced excess of the train split's correlation over its output) took 94
# and 850 ms at 2^16 (0.7 MB), where u's spectra take more than half the
# budget and are made in every group, 62 and 606 ms at 2^17 (1.9 MB), 57
# and 523 ms at 2^18 (3.0 MB) and 60 and 483 ms at 2^19 (5.1 MB). 2^18
# is the fastest at the benchmark's width, K=32, and the smallest within
# 10% of the fastest at K=320. The tail rows' correlations in ``moments``
# run at the probe's peak, beside two cross moments, so they take half of
# it: one desk probe on the ETTh1-shaped corpus then traces 8.2 MB,
# against 9.5 MB at the full budget, and takes 139 against 134 ms; the
# K=320 series, moments and fits took 487 against 503 ms (medians of 15
# alternating runs, each within the other's quartiles).
_GROUP_ELEMS = 2**18


def _block_spectra(u: np.ndarray, first: int, stop: int, rows: int, fft_len: int) -> np.ndarray:
    """(stop - first) x D x bins: for each block b from ``first`` to
    ``stop``, the rfft of the F values of u from row b * rows on, read as
    zero past u's last row. Blocks that lie inside u are windows of a view;
    each other block is one transform that pads, so no padded copy of u is
    made."""
    out = np.empty((stop - first, u.shape[1], fft_len // 2 + 1), dtype=complex)
    inside = min(stop, max(first, (len(u) - fft_len) // rows + 1))
    if inside > first:
        windows = sliding_window_view(u[first * rows :], fft_len, axis=0)[::rows][: inside - first]
        np.fft.rfft(windows, fft_len, out=out[: inside - first])
    for b in range(inside, stop):
        np.fft.rfft(u[b * rows : b * rows + fft_len], fft_len, axis=0, out=out[b - first].T)
    return out


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

    The feature columns go through in groups whose arrays take at most
    ``elems`` elements (``_GROUP_ELEMS`` unless given): a group's block
    spectra, one product per bin over all blocks, written in the layout the
    irfft reads, and one irfft give its columns of the lag sums. Full
    blocks are a reshaped view of A, and rfft's length argument pads the
    last, partial one; u's block spectra come from a view of u too
    (``_block_spectra``). On a split of one chunk of blocks (see
    ``_GROUP_ELEMS``) they are made once; on a longer one each group makes
    them a chunk at a time. So no array grows with len(A).

    For D > 1 numpy's own matmul loop sums each bin's products over the
    blocks in order, the same for any group of two or more columns; a
    one-column group would take its matrix-vector path, so no group holds
    one. For D = 1 numpy would
    hand every group to BLAS's matrix-vector kernel, whose rounding follows
    the group's width, and its complex multiply rounds by the layout too;
    so there the products are taken in real arithmetic and added up a block
    at a time, and univariate lag sums are the same bits for any grouping.
    The sums match a dense sum within ~1e-15 relative."""
    (m, K), D = A.shape, u.shape[1]
    elems = _GROUP_ELEMS if elems is None else elems
    fft_len = _smooth_length(min(_CORR_ROWS, m) + lags - 1)
    rows = min(fft_len - lags + 1, m)  # B, widened to fill F
    blocks, bins, full = -(-m // rows), fft_len // 2 + 1, m // rows
    chunk = min(blocks, max(1, elems // (2 * D * bins)))
    if chunk == blocks:
        fu = _block_spectra(u, 0, blocks, rows, fft_len)
        cols = elems // ((blocks + D) * bins + D * fft_len)
    else:
        fu = None
        cols = (elems - D * chunk * bins) // ((chunk + 2 * D) * bins + D * fft_len)
    cols = min(K, max(1 if D == 1 else 2, cols))
    bounds = [*range(0, K, cols), K]
    if D > 1 and len(bounds) > 2 and K - bounds[-2] == 1:
        del bounds[-2]  # a last single column joins the group before it
    sums = np.empty((K, lags, D)) if less is None else less
    for lo, hi in zip(bounds, bounds[1:]):
        spectrum = np.empty((hi - lo, D, bins), dtype=complex)  # columns x D x bins
        for first in range(0, blocks, chunk):
            stop = min(first + chunk, blocks)
            fa = np.empty((stop - first, bins, hi - lo), dtype=complex)
            whole = min(stop, full) - first  # full blocks of A in this chunk
            if whole > 0:
                blocked = A[first * rows : (first + whole) * rows].reshape(whole, rows, K)
                np.fft.rfft(blocked[..., lo:hi], fft_len, axis=1, out=fa[:whole])
            if stop > full:
                np.fft.rfft(A[full * rows :, lo:hi], fft_len, axis=0, out=fa[full - first])
            np.conj(fa, out=fa)
            fub = _block_spectra(u, first, stop, rows, fft_len) if fu is None else fu
            # the products of every block in the chunk summed, per bin,
            # contiguous along the bins so the irfft copies nothing
            part = spectrum if first == 0 else np.empty_like(spectrum)
            if D == 1:  # real arithmetic, a block at a time
                ur, ui = fub[:, 0, :, None].real, fub[:, 0, :, None].imag
                re, im = np.zeros((bins, hi - lo)), np.zeros((bins, hi - lo))
                for b, block in enumerate(fa):
                    re += block.real * ur[b] - block.imag * ui[b]
                    im += block.real * ui[b] + block.imag * ur[b]
                part[:, 0].real, part[:, 0].imag = re.T, im.T
            else:
                out = part.transpose(2, 0, 1)
                np.matmul(fa.transpose(1, 2, 0), fub.transpose(2, 0, 1), out=out)
            del fa, fub  # or the next chunk's, or the irfft's output, is made beside them
            if first:
                spectrum += part
            del part
        lagged = np.fft.irfft(spectrum, fft_len)  # columns x D x F
        if less is None:
            sums[lo:hi] = lagged[..., :lags].transpose(0, 2, 1)
        else:
            sums[lo:hi] -= lagged[..., :lags].transpose(0, 2, 1)
        del spectrum, lagged  # or they stay alive beside the next group's
    return sums


def _running_ends(u: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last ``keep`` rows of the running sums of u and
    u^2, (n + 1) x 2 x D with a leading row of zeros. They are made
    ``_CORR_ROWS`` rows at a time: each chunk's cumsum starts from the last
    row of the one before, which adds the same numbers in the same order as
    one cumsum over all of u, so the rows are the same bits."""
    n, D = u.shape
    first = n + 1 - keep  # the running row ``last`` starts at
    head, last = np.zeros((keep, 2, D)), np.empty((keep, 2, D))
    run = np.zeros((min(_CORR_ROWS, n) + 1, 2, D))  # run[j] is running row lo + j
    for lo in range(0, n, _CORR_ROWS):
        block = u[lo : lo + _CORR_ROWS]
        hi = lo + len(block)
        run[1 : len(block) + 1, 0] = block
        np.multiply(block, block, out=run[1 : len(block) + 1, 1])
        seeded = run[1 if lo == 0 else 0 : len(block) + 1]  # no zero row to add first
        np.cumsum(seeded, axis=0, out=seeded)
        top = min(hi, keep - 1)
        if top > lo:
            head[lo + 1 : top + 1] = run[1 : top - lo + 1]
        if hi >= first:
            start = max(lo, first)
            last[start - first : hi + 1 - first] = run[start - lo : len(block) + 1]
        run[0] = run[len(block)]
    return head, last


class Centre(NamedTuple):
    """The point (x0, y0) that moments are taken about."""

    x0: np.ndarray  # K
    y0: np.ndarray  # P * D_out


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
    longest-horizon rows, made in row chunks (``_running_ends``). So once
    the caller drops X, no array the series holds or makes grows with the
    split."""

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

    def centre(self, P: int) -> Centre:
        """The means of the first ``n - P + 1`` feature rows and of their
        horizon-P targets: the centre ``moments(P)`` takes by default."""
        return Centre(self.means[P], self._target_sums(P)[:, 0].ravel() / (len(self.u) - P + 1))

    def moments(self, P: int, centre: Moments | Centre | None = None) -> Moments:
        """Moments of the first ``n - P + 1`` feature rows against their
        horizon-P targets, about ``centre``'s (x0, y0) or, without one,
        about their own means. The only K x P * D_out array it makes is the
        cross moment it returns."""
        m = len(self.u) - P + 1
        sums = self._target_sums(P)
        ysum, ysq = sums[:, 0], sums[:, 1].ravel()  # P x D_out each
        x0, y0 = self.centre(P) if centre is None else (centre.x0, centre.y0)
        d = self.c - x0
        tail = self.tail[m - self.cut :]
        lags = np.multiply.outer(d, ysum)  # K x P x D_out, then the lag sums
        lags += self.lags[:, :P]
        if len(tail):  # at the probe's peak, beside two cross moments: half the budget
            _lag_sums(tail, self.u[m:], P, less=lags, elems=_GROUP_ELEMS // 2)
        s = self.row_sums[P]
        gram = self.gram - tail.T @ tail + np.outer(s, d) + np.outer(d, s) + m * np.outer(d, d)
        cross = lags.reshape(len(x0), -1)
        shift = s + m * d  # cross -= outer(shift, y0), a block of rows at a time
        step = max(1, _SCORE_ELEMS // cross.shape[1])
        for lo in range(0, len(shift), step):
            cross[lo : lo + step] -= np.outer(shift[lo : lo + step], y0)
        ysum = ysum.ravel()
        syy = float(np.sum(ysq - 2 * y0 * ysum + m * y0 * y0))
        return Moments(rows=m, x0=x0, y0=y0, gram=gram, cross=cross, syy=syy)


# Errors per block in ``score``, and rows x columns per block of the
# moments' rank-one update: 2^17 elements (1 MB). A score block takes whole
# steps, a multiple of 16 of them and at most ``_SCORE_COLS`` columns (at
# least one step), and as many rows as keep both its errors and its copy
# of the feature rows within the budget: at D_out = 7 and P past 144, 130
# rows of 1008 columns. Blocks whose columns start at multiples of 16
# give the same predictions, bit for bit, as one GEMM over the whole split
# does with OpenBLAS (1022-column blocks did not). Scoring an ETTh1-shaped
# test split (horizons 24-720, D_out=7; 2 cores; medians of 21 interleaved
# runs at K=32 and 9 at K=320) took 83 and 235 ms in these blocks, 80 and
# 260 ms in full-width blocks of 2^17 errors, and 83 and 203 ms in the
# full-width blocks of 2^19 errors (4 MB) scored before, with the intercept
# added in a pass of its own. Each GEMM repacks the weights it reads: at
# K=320 and P=720, 26-row full-width blocks repack all of them 76 times,
# 130-row blocks 16 times. At P=720 scoring traces 1.2 MB above its inputs
# at K=32 and 1.5 MB at K=320, against 4.2 MB before.
_SCORE_ELEMS = 2**17
_SCORE_COLS = 2**10


def _error_blocks(probe: RidgeProbe, X: np.ndarray, Y: np.ndarray):
    """Yield the errors of the predictions for X against the M x P x D_out
    targets Y, a block at a time, as (row, step, errors): errors[i, j * D_out
    + d] is the error of row ``row + i`` at step ``step + j``, value d. A
    block's rows are copied once beside a ones column, so one GEMM against
    ``probe.coef`` adds the intercept too, and every block is written into
    one buffer: a caller that keeps a block must copy it."""
    (M, P, D), K = Y.shape, X.shape[1]
    steps = min(P, max(1, _SCORE_COLS // D // 16 * 16))
    rows = min(M, max(1, _SCORE_ELEMS // max(steps * D, K + 1)))
    xb, buf = np.ones((rows, K + 1)), np.empty(rows * steps * D)
    for lo in range(0, M, rows):
        hi = min(lo + rows, M)
        xb[: hi - lo, :K] = X[lo:hi]
        for p in range(0, P, steps):
            q = min(p + steps, P)
            err = buf[: (hi - lo) * (q - p) * D].reshape(hi - lo, (q - p) * D)
            np.matmul(xb[: hi - lo], probe.coef[:, p * D : q * D], out=err)
            windows = err.reshape(hi - lo, q - p, D)
            windows -= Y[lo:hi, p:q]
            yield lo, p, err


def score(probe: RidgeProbe, X: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) of the predictions for X; Y is M x (P*D_out) or the
    M x P x D_out target windows. The errors come in blocks of at most
    ``_SCORE_ELEMS`` (``_error_blocks``), and the sums of err^2 and |err|
    accumulate over them, so no array holds more than one block's errors.
    Both are numpy's own sums: a BLAS dot product splits by thread count."""
    sq, ab = 0.0, 0.0
    for _, _, err in _error_blocks(probe, X, Y if Y.ndim == 3 else Y[..., None]):
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
    for every alpha the grid may hold. On a well-conditioned Gram W matches
    ``np.linalg.solve(G + alpha I, C)`` within 1e-10 relative.

    The weights and the intercept are written into one (K + 1) x (P * D_out)
    array, the probe's ``coef``. Neither argument is changed, but each is
    let go once its cross moment has been read, so when the caller keeps no
    reference to the moments (``evaluate_horizons`` keeps none) at most
    three K x (P * D_out) arrays are alive at once: the train cross moment,
    the validation one and Ct, then the validation one, Ct and Q^T C_v,
    then Ct and ``coef``. This needs CPython 3.11 or later: before, a call
    keeps its caller's reference to each argument until it returns."""
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
    for alpha in alpha_grid:
        d = 1.0 / (lam + alpha)
        sse = d @ S @ d - 2 * d @ t + syy
        if sse < best_sse:
            best, best_sse = (alpha, d), sse
    alpha, d = best
    ct *= d[:, None]
    coef = np.empty((len(ct) + 1, ct.shape[1]))
    W = np.matmul(Q, ct, out=coef[:-1])
    del ct
    np.subtract(y0, x0 @ W, out=coef[-1])
    return RidgeProbe(weights=W, intercept=coef[-1], ridge_alpha=alpha, coef=coef)


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
        # no name holds the moments, so fit_ridge frees each split's once
        # it has read its cross moment
        probe = fit_ridge(train.moments(P), valid.moments(P, train.centre(P)), alpha_grid)
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
