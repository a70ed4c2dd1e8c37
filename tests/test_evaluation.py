"""Ridge forecasting probe: closed-form solve, alpha selection, feature
extraction geometry, and report serialization."""

import sys
import tracemalloc

import numpy as np
import pytest

from mffftnet import evaluation
from mffftnet.data import SeriesTable, split, standardize
from mffftnet.errors import ConfigurationError
from mffftnet.evaluation import (
    DEFAULT_ALPHA_GRID,
    ForecastReport,
    Moments,
    RidgeProbe,
    _after_lookback,
    _CORR_ROWS,
    _error_blocks,
    _lag_sums,
    _running_ends,
    _SCORE_ELEMS,
    _smooth_length,
    _target_windows,
    _TargetSeries,
    evaluate_horizons,
    extract_features,
    fit_ridge,
    score,
    train_mean_baseline,
)
from mffftnet.tensor import Tensor, no_grad
from tests.test_training import tiny_model


# -- scoring -----------------------------------------------------------------


def test_score_perfect_fit():
    probe = RidgeProbe(weights=np.eye(2), intercept=np.zeros(2), ridge_alpha=1.0)
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    mse, mae = score(probe, X, X)
    assert mse == 0.0 and mae == 0.0


def test_score_hand_case():
    probe = RidgeProbe(weights=np.zeros((1, 2)), intercept=np.zeros(2), ridge_alpha=1.0)
    Y = np.array([[1.0, -2.0], [3.0, 4.0]])
    mse, mae = score(probe, np.zeros((2, 1)), Y)
    assert mse == (1 + 4 + 9 + 16) / 4  # 7.5
    assert mae == (1 + 2 + 3 + 4) / 4  # 2.5


SCORE_WIDTH = 2048  # errors a row: P = 512 steps of D = 4 values
SCORE_BLOCK = _SCORE_ELEMS // SCORE_WIDTH  # rows a block


@pytest.mark.parametrize("rows", [SCORE_BLOCK - 3, 2 * SCORE_BLOCK, 2 * SCORE_BLOCK + 1])
def test_score_blocks_match_dense(rng, rows):
    # below one block, at a block multiple, and one row past it
    probe = RidgeProbe(
        weights=rng.normal(size=(4, SCORE_WIDTH)),
        intercept=rng.normal(size=SCORE_WIDTH),
        ridge_alpha=1.0,
    )
    X = rng.normal(size=(rows, 4))
    values = rng.normal(size=(rows + 511, 4))
    Y = _target_windows(values, 0, 512, 0, "multivariate")  # rows x 512 x 4 view
    err = X @ probe.weights + probe.intercept - Y.reshape(rows, -1)
    mse, mae = score(probe, X, Y)
    assert abs(mse - np.mean(err**2)) <= 1e-12 * np.mean(err**2)
    assert abs(mae - np.mean(np.abs(err))) <= 1e-12 * np.mean(np.abs(err))


@pytest.mark.parametrize("K, rtol", [(32, 0.0), (320, 1e-14)])
def test_score_predictions_equal_x_w_plus_b(rng, K, rtol):
    # blocks of rows x steps, the intercept added by the GEMM through a ones
    # column: against zero targets each block's errors are its predictions
    rows, P, D = 300, 192, 7  # 1344 columns: two column blocks, three row blocks
    probe = RidgeProbe(
        weights=rng.normal(size=(K, P * D)), intercept=rng.normal(size=P * D), ridge_alpha=1.0
    )
    X = rng.normal(size=(rows, K))
    want = (X @ probe.weights + probe.intercept).reshape(rows, P, D)
    got = np.full((rows, P, D), np.nan)
    for lo, p, err in _error_blocks(probe, X, np.zeros((rows, P, D))):
        got[lo : lo + len(err), p : p + err.shape[1] // D] = err.reshape(len(err), -1, D)
        assert err.size <= _SCORE_ELEMS
    if rtol == 0.0:
        assert got.tobytes() == want.tobytes()
    else:  # every block is filled: a NaN left in ``got`` fails this too
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()


# -- ridge solver ------------------------------------------------------------


def dense_moments(X, Y, centre=None):
    """The probe's moments straight from dense rows: the oracle for the FFT
    path and the input the solver tests hand to ``fit_ridge``."""
    if centre is None:
        x0, y0 = X.mean(axis=0), Y.mean(axis=0)
    else:
        x0, y0 = centre.x0, centre.y0
    a, z = X - x0, Y - y0
    return Moments(
        rows=len(X), x0=x0, y0=y0, gram=a.T @ a, cross=a.T @ z, syy=float(np.sum(z * z))
    )


def dense_fit(train, valid, alpha_grid=DEFAULT_ALPHA_GRID):
    fit = dense_moments(*train)
    return fit_ridge(fit, dense_moments(*valid, centre=fit), alpha_grid)


def _solve_ridge(X, Y, alpha):
    return dense_fit((X, Y), (X, Y), (alpha,))


def test_ridge_recovers_linear_map(rng):
    W = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    X = rng.normal(size=(200, 4))
    Y = X @ W + b
    probe = _solve_ridge(X, Y, alpha=1e-8)
    np.testing.assert_allclose(probe.weights, W, atol=1e-4)
    np.testing.assert_allclose(probe.intercept, b, atol=1e-4)


def test_ridge_normal_equation_residual(rng):
    X = rng.normal(size=(50, 6))
    Y = rng.normal(size=(50, 3))
    alpha = 0.7
    probe = _solve_ridge(X, Y, alpha)
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    residual = (Xc.T @ Xc + alpha * np.eye(6)) @ probe.weights - Xc.T @ Yc
    assert np.abs(residual).max() < 1e-8


def test_ridge_huge_alpha_predicts_column_means(rng):
    X = rng.normal(size=(60, 3))
    Y = rng.normal(size=(60, 2))
    probe = _solve_ridge(X, Y, alpha=1e12)
    predictions = X @ probe.weights + probe.intercept
    np.testing.assert_allclose(predictions, np.tile(Y.mean(axis=0), (60, 1)), atol=1e-6)


def test_fit_ridge_selects_validation_winner(rng):
    W = rng.normal(size=(4, 2))
    X = rng.normal(size=(100, 4))
    Y = X @ W
    Xv = rng.normal(size=(50, 4))
    Yv = Xv @ W
    probe = dense_fit((X, Y), (Xv, Yv))
    # a clean linear relation favors the weakest regularizer on the grid
    assert probe.ridge_alpha == min(DEFAULT_ALPHA_GRID)


def test_fit_ridge_alpha_ignores_test_data(rng):
    # alpha selection must touch only train and valid
    X, Y = rng.normal(size=(80, 4)), rng.normal(size=(80, 2))
    Xv, Yv = rng.normal(size=(30, 4)), rng.normal(size=(30, 2))
    a = dense_fit((X, Y), (Xv, Yv)).ridge_alpha
    b = dense_fit((X, Y), (Xv, Yv)).ridge_alpha
    assert a == b


def test_fit_ridge_too_few_rows(rng):
    with pytest.raises(ConfigurationError):
        dense_fit((np.zeros((1, 2)), np.zeros((1, 2))), (np.zeros((2, 2)), np.zeros((2, 2))))


@pytest.mark.parametrize("grid", [(10.0, 0.1, 1.0), (0.1, 1.0, 10.0)])
def test_fit_ridge_exact_tie_picks_first_alpha(rng, grid):
    # constant train features leave W = 0 at every alpha, so every alpha has
    # the same validation SSE bit for bit; the first on the grid must win
    X, Y = np.ones((40, 3)), rng.normal(size=(40, 2))
    Xv, Yv = rng.normal(size=(20, 3)), rng.normal(size=(20, 2))
    assert dense_fit((X, Y), (Xv, Yv), grid).ridge_alpha == grid[0]


def test_fit_ridge_sse_ranks_alphas_like_dense_mse(rng):
    X, Y = rng.normal(size=(60, 5)), rng.normal(size=(60, 3))
    Xv, Yv = rng.normal(size=(30, 5)), rng.normal(size=(30, 3))
    mses = {a: score(_solve_ridge(X, Y, a), Xv, Yv)[0] for a in DEFAULT_ALPHA_GRID}
    assert dense_fit((X, Y), (Xv, Yv)).ridge_alpha == min(mses, key=mses.get)


@pytest.mark.parametrize(
    "rows, K, Q, noise",
    # the validation winner is 0.01, 10 and 100 here; 8 rows of 12 features
    # leave the train Gram rank 7, so its clipped zero eigenvalues are used
    [(80, 5, 3, 0.5), (30, 12, 40, 3.0), (8, 12, 6, 1.0), (200, 6, 4, 20.0)],
)
def test_fit_ridge_matches_one_solve_per_alpha(rng, rows, K, Q, noise):
    # an oracle that shares no code with fit_ridge: one dense solve and one
    # dense validation MSE per alpha
    W0 = rng.normal(size=(K, Q))
    X, Xv = rng.normal(size=(rows, K)) + 0.3, rng.normal(size=(40, K)) + 0.3
    Y = X @ W0 + noise * rng.normal(size=(rows, Q))
    Yv = Xv @ W0 + noise * rng.normal(size=(40, Q))
    fit = dense_moments(X, Y)
    valid = dense_moments(Xv, Yv, centre=fit)
    xm, ym = X.mean(axis=0), Y.mean(axis=0)
    Xc = X - xm
    mses = {}
    for alpha in DEFAULT_ALPHA_GRID:
        W = np.linalg.solve(Xc.T @ Xc + alpha * np.eye(K), Xc.T @ (Y - ym))
        probe = fit_ridge(fit, valid, (alpha,))
        assert np.abs(probe.weights - W).max() <= 1e-10 * np.abs(W).max()
        mses[alpha] = float(np.mean((Xv @ W + (ym - xm @ W) - Yv) ** 2))
    assert fit_ridge(fit, valid).ridge_alpha == min(mses, key=mses.get)


@pytest.mark.parametrize("grid", [(), (float("nan"),), (0.1, float("inf")), (1.0, -1.0), (0.0,)])
def test_fit_ridge_rejects_bad_alpha_grid(rng, grid):
    fit = dense_moments(rng.normal(size=(20, 3)), rng.normal(size=(20, 2)))
    with pytest.raises(ConfigurationError, match="alpha"):
        fit_ridge(fit, fit, grid)


@pytest.mark.parametrize("horizons", [[0], [4, -5], [2.5], [True], [], [500]])
def test_evaluate_horizons_rejects_bad_horizon(rng, horizons):
    table = make_table(rng)
    spec = split(table)
    with pytest.raises(ConfigurationError, match="horizons"):
        evaluate_horizons(tiny_model(), table, spec, T=16, horizons=horizons)


# -- moments by FFT correlation ------------------------------------------------


def test_smooth_length():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 300):
        got = _smooth_length(n)
        assert got >= n and smooth(got)
        assert not any(smooth(k) for k in range(n, got))
    assert _smooth_length(8576) == 8640  # 8576 = 2^7 * 67


SERIES_K = 5  # feature columns in ``check_series_moments``


def check_series_moments(rng, mode, n_after, P0, P_max):
    """Every horizon's moments from one ``_TargetSeries`` against dense
    rows, about their own means and about an off-split centre."""
    T, K = 8, SERIES_K
    values = rng.normal(size=(T + n_after, 3)) + 0.5
    feats = rng.normal(size=(n_after - P0 + 1, K)) + 1.0
    # the series centres its features in place: hand it a copy
    horizons = list(range(P0, P_max + 1))
    series = _TargetSeries(feats.copy(), _after_lookback(values, T, 1, mode), horizons)
    for P in horizons:
        m = n_after - P + 1
        Y = _target_windows(values, T, P, 1, mode).reshape(m, -1)
        # an off-split centre, as the validation moments use the train means
        centre = dense_moments(rng.normal(size=(9, K)), rng.normal(size=(9, Y.shape[1])))
        for got, want in (
            (series.moments(P), dense_moments(feats[:m], Y)),
            (series.moments(P, centre), dense_moments(feats[:m], Y, centre)),
        ):
            assert got.rows == want.rows == m
            for name in ("x0", "y0", "gram", "cross"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.shape == w.shape
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())
            assert abs(got.syy - want.syy) <= 1e-12 * want.syy


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
@pytest.mark.parametrize("n_after", [97, 134, 211])  # prime, 2*67, prime
def test_target_series_moments_match_dense(rng, mode, n_after):
    # one series per split serves every horizon from P0 up to its P_max
    check_series_moments(rng, mode, n_after, 2, n_after // 2)


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
@pytest.mark.parametrize(
    "block, n_after, P0, P_max",
    [
        # B = 16 -> F = 24 -> B = 17: 210 rows in 12 full blocks and 6 more
        (16, 211, 2, 8),
        # P_max = 1: F = 16 and 15 blocks of 16 rows and 9 more
        (16, 249, 1, 1),
        # B = 4 -> F = 45 -> B = 6: 99 rows in 16 full blocks and 3 more,
        # and the dropped tail rows of a long horizon span blocks too
        (4, 100, 2, 40),
        # the shipped block length: F = 1080 -> B = 1057, 2599 rows in 2
        # full blocks and 485 more
        (_CORR_ROWS, 2600, 2, 24),
    ],
)
def test_target_series_moments_span_blocks(rng, monkeypatch, mode, block, n_after, P0, P_max):
    # splits much longer than the longest horizon: the correlation runs
    # over several row blocks, the last one partial. It takes the feature
    # columns one per group, two per group with a last group of one, and
    # all in one group (multivariate: two, two then three, and all).
    monkeypatch.setattr(evaluation, "_CORR_ROWS", block)
    m0, D = n_after - P0 + 1, 3 if mode == "multivariate" else 1
    fft_len = _smooth_length(min(block, m0) + P_max - 1)
    blocks = -(-m0 // min(fft_len - P_max + 1, m0))
    assert blocks >= 3
    for cols in (1, 2, SERIES_K):
        monkeypatch.setattr(evaluation, "_GROUP_ELEMS", cols * (blocks + D) * (fft_len // 2 + 1))
        check_series_moments(rng, mode, n_after, P0, P_max)


def test_lag_sums_group_stays_within_its_budget(rng, monkeypatch):
    # one block of 300 rows at F = 400, and a budget of 8 columns counted
    # by their block spectra and per-bin products alone: a group's arrays,
    # its lag output too, must stay within 16 bytes an element of it
    K, m, lags, D = 64, 300, 100, 7
    fft_len = _smooth_length(m + lags - 1)
    budget = 8 * (1 + D) * (fft_len // 2 + 1)
    monkeypatch.setattr(evaluation, "_GROUP_ELEMS", budget)
    A, u = rng.normal(size=(m, K)), rng.normal(size=(m + lags, D))
    _lag_sums(A, u, lags)  # so the FFT plans are cached before the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sums = _lag_sums(A, u, lags)
        peak = tracemalloc.get_traced_memory()[1] - base - sums.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 16 * budget, f"{peak / (16 * budget):.2f}x the budget"


def test_univariate_lag_sums_do_not_depend_on_the_group_width(rng, monkeypatch):
    # D = 1 over 30 blocks (B = 16 -> F = 90 -> B = 67): the per-bin
    # products summed over the blocks give the same bits in groups of 1, 5
    # and all K columns
    monkeypatch.setattr(evaluation, "_CORR_ROWS", 16)
    K, m, lags = 12, 2000, 24
    fft_len = _smooth_length(16 + lags - 1)
    blocks, bins = -(-m // (fft_len - lags + 1)), fft_len // 2 + 1
    A, u = rng.normal(size=(m, K)), rng.normal(size=(m + lags, 1))
    irfft, groups = np.fft.irfft, []

    def counted(a, *args, **kw):  # one call per group, a row per column
        groups.append(len(a))
        return irfft(a, *args, **kw)

    monkeypatch.setattr(np.fft, "irfft", counted)
    sums = []
    for cols in (1, 5, K):
        # at least twice u's block spectra, so that they are made once
        budget = max(cols * ((blocks + 1) * bins + fft_len), 2 * blocks * bins)
        monkeypatch.setattr(evaluation, "_GROUP_ELEMS", budget)
        groups.clear()
        sums.append(_lag_sums(A, u, lags))
        assert max(groups) == cols
    assert sums[0].tobytes() == sums[1].tobytes() == sums[2].tobytes()


@pytest.mark.parametrize("D", [2, 3, 7])
def test_multivariate_lag_sums_do_not_depend_on_the_budget(rng, monkeypatch, D):
    # K = 6 columns over 4 blocks (B = 16 -> F = 40 -> B = 17): a budget of
    # 5 columns a group, with u's block spectra made once, would leave the
    # groups (5, 1), and numpy takes a single column's per-bin products
    # through its matrix-vector path; the lag sums must not follow it
    monkeypatch.setattr(evaluation, "_CORR_ROWS", 16)
    K, m, lags = 6, 60, 24
    fft_len = _smooth_length(16 + lags - 1)
    blocks, bins = -(-m // (fft_len - lags + 1)), fft_len // 2 + 1
    A, u = rng.normal(size=(m, K)), rng.normal(size=(m + lags, D))
    elems = 5 * ((blocks + D) * bins + D * fft_len)
    assert _lag_sums(A, u, lags, elems=elems).tobytes() == _lag_sums(A, u, lags).tobytes()


def test_running_sums_in_chunks_equal_one_cumsum(rng):
    # 5000 rows take five chunks; the kept rows straddle chunk borders
    n, keep = 5000, 1500
    u = rng.normal(size=(n, 3))
    running = np.zeros((n + 1, 2, 3))
    np.cumsum(u, axis=0, out=running[1:, 0])
    np.cumsum(u * u, axis=0, out=running[1:, 1])
    assert n > 4 * _CORR_ROWS
    head, last = _running_ends(u, keep)
    assert head.tobytes() == running[:keep].tobytes()
    assert last.tobytes() == running[-keep:].tobytes()


def test_ridge_half_at_the_paper_width_stays_within_its_stage_budgets(rng):
    # K = 320 random features at the ETTh1 split shapes (T = 201, horizons
    # 24-720, D = 7), run as evaluate_horizons runs them. Above the two
    # series (30 MiB), each horizon's moments take at most the two cross
    # moments and the correlation's buffers, fit_ridge at most three K x
    # P * D arrays and score the probe and its blocks: 12.3 MiB each at P =
    # 720. Before CPython 3.11 a call keeps its caller's reference to each
    # argument, so fit_ridge cannot let the train cross moment go early.
    K, D, T, horizons = 320, 7, 201, [24, 48, 168, 336, 720]
    values = [rng.normal(size=(n, D)) for n in (8640, 2880, 2880)]
    test_x = rng.normal(size=(2880 - T - 23, K))
    budget = {"moments": 30, "fit": 41 if sys.version_info >= (3, 11) else 54, "score": 14}
    peaks = dict.fromkeys(budget, 0)
    tracemalloc.start()
    try:
        train, valid = (
            _TargetSeries(rng.normal(size=(len(v) - T - 23, K)), v[T:], horizons)
            for v in values[:2]
        )
        base = tracemalloc.get_traced_memory()[0]

        def stage(name):
            peak = tracemalloc.get_traced_memory()[1] - base
            peaks[name] = max(peaks[name], peak / 2**20)
            tracemalloc.reset_peak()

        for P in horizons:
            tracemalloc.reset_peak()
            fit, held = train.moments(P), valid.moments(P, train.centre(P))
            stage("moments")
            del fit, held
            tracemalloc.reset_peak()
            probe = fit_ridge(train.moments(P), valid.moments(P, train.centre(P)))
            stage("fit")
            Y = _target_windows(values[2], T, P, 0, "multivariate")
            score(probe, test_x[: len(Y)], Y)
            stage("score")
            del probe
    finally:
        tracemalloc.stop()
    assert all(peaks[k] <= budget[k] for k in budget), {k: round(v, 2) for k, v in peaks.items()}


def traced_series_and_score(rng, m0, K=64, D=7, horizons=(24, 48, 96, 192)):
    """The traced peak above its inputs of one split's ``_TargetSeries``,
    every horizon's moments and then ``score`` at the longest horizon; the
    bytes the series keeps: lag sums, tail rows and running sums; and the
    bytes of the values it is handed."""
    feats = rng.normal(size=(m0, K))
    u = rng.normal(size=(m0 + min(horizons) - 1, D))
    P = max(horizons)
    test_x, test_values = rng.normal(size=(m0, K)), rng.normal(size=(m0 + P - 1, D))
    probe = RidgeProbe(
        weights=rng.normal(size=(K, P * D)), intercept=rng.normal(size=P * D), ridge_alpha=1.0
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series = _TargetSeries(feats, u, list(horizons))
        for P in horizons:
            series.moments(P)
        score(probe, test_x, _target_windows(test_values, 0, P, 0, "multivariate"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (series.lags, series.tail, series.head, series.last))
    return peak, kept, u.nbytes


def test_probe_working_memory_does_not_grow_with_the_split(rng):
    # a split 4x longer, with the same K, D and horizons, leaves what the
    # series keeps as it was and may raise the peak by no more than the
    # bytes of its D = 7 value columns: the correlation and the scoring work
    # in buffers of a fixed number of elements, and no array K = 64 columns
    # wide grows with the split. At 8000 rows the feature columns already
    # take several groups.
    peak, kept, values = traced_series_and_score(rng, 8_000)
    peak4, kept4, values4 = traced_series_and_score(rng, 32_000)
    assert kept4 == kept
    assert peak4 - peak <= values4 - values, (
        f"peak grew {(peak4 - peak) / 1e6:.2f} MB, values {(values4 - values) / 1e6:.2f} MB"
    )


# -- feature extraction ------------------------------------------------------


def probe_targets(values, T, P, target_index, mode="multivariate"):
    """Dense M x (P*D_out) targets: row i is the P rows after lookback i,
    flattened."""
    windows = _target_windows(values, T, P, target_index, mode)
    return windows.reshape(len(windows), -1)


def per_window_features(model, values, T, P, chunk):
    """The reference for ``extract_features``: every lookback stacked one
    by one, ``chunk`` to an encoder call, keeping the last step."""
    m = len(values) - T - P + 1
    feats = []
    with no_grad():
        for lo in range(0, m, chunk):
            batch = np.stack([values[i : i + T] for i in range(lo, min(lo + chunk, m))])
            feats.append(model.encode(Tensor(batch)).data[:, -1, :])
    return np.concatenate(feats)


def test_extract_features_count_and_widths(rng):
    model = tiny_model()
    values = rng.normal(size=(40, 2))
    T, P = 16, 4
    X = extract_features(model, values, T, P)
    Y = probe_targets(values, T, P, target_index=1)
    assert X.shape == (40 - T - P + 1, 8)  # M x K
    assert Y.shape == (21, P * 2)
    Yu = probe_targets(values, T, P, target_index=1, mode="univariate")
    assert Yu.shape == (21, P)
    np.testing.assert_array_equal(Yu[0], values[T : T + P, 1])


def test_extract_features_targets_follow_window(rng):
    model = tiny_model()
    values = rng.normal(size=(30, 2))
    X = extract_features(model, values, 16, 3)
    Y = probe_targets(values, 16, 3, target_index=0)
    assert len(Y) == len(X)
    np.testing.assert_array_equal(Y[2], values[18:21].ravel())


def test_extract_features_deterministic_and_chunk_invariant(rng, monkeypatch):
    model = tiny_model()
    values = rng.normal(size=(60, 2))
    X1 = extract_features(model, values, 16, 4)
    monkeypatch.setattr(evaluation, "_ENCODE_LOOKBACKS", 5)
    X2 = extract_features(model, values, 16, 4)
    np.testing.assert_allclose(X1, X2, atol=1e-12)


def test_extract_features_equals_per_window_stack(rng, monkeypatch):
    # lookbacks come from a strided view; each chunk must reach the encoder
    # with the same bytes as stacking the windows one by one
    model = tiny_model()
    values = rng.normal(size=(100, 2))
    T, P, chunk = 16, 4, 32
    monkeypatch.setattr(evaluation, "_ENCODE_LOOKBACKS", chunk)
    X = extract_features(model, values, T, P)
    Y = probe_targets(values, T, P, 1)
    m = len(values) - T - P + 1
    assert X.tobytes() == per_window_features(model, values, T, P, chunk).tobytes()
    assert Y.tobytes() == np.stack([values[i + T : i + T + P].ravel() for i in range(m)]).tobytes()


def record_encoder_calls(model, monkeypatch):
    """Shapes (batch, rows) of every later ``model.encode`` input."""
    calls = []
    encode = model.encode

    def spy(x, *args, **kwargs):
        calls.append(x.shape[:-1])
        return encode(x, *args, **kwargs)

    monkeypatch.setattr(model, "encode", spy)
    return calls


@pytest.mark.parametrize("T, segmented", [(13, True), (12, False), (8, False)])
def test_extract_features_segments_equal_per_window_stack(rng, monkeypatch, T, segmented):
    # tiny_model's receptive field is 13 rows. At T = 13 the last step of a
    # lookback reads no zero padding, so causal segments of many rows give
    # the same bytes; at T = 12 it reads one padded row, and at T = 8 more,
    # so each lookback must be encoded on its own
    model = tiny_model(T=T)
    assert model.config.backbone.receptive_field == 13
    values = rng.normal(size=(300, 2))
    P, chunk = 4, 5
    monkeypatch.setattr(evaluation, "_ENCODE_LOOKBACKS", chunk)
    calls = record_encoder_calls(model, monkeypatch)
    X = extract_features(model, values, T, P)
    calls = list(calls)  # before the reference below adds its own calls
    assert all(batch * rows <= chunk * T for batch, rows in calls)
    if segmented:
        assert calls[0] == (1, chunk * T) and len(calls) > 2
    else:
        assert all(rows == T for _, rows in calls)
    assert X.tobytes() == per_window_features(model, values, T, P, chunk).tobytes()


def test_extract_features_split_too_short(rng):
    model = tiny_model()
    with pytest.raises(ConfigurationError):
        extract_features(model, rng.normal(size=(18, 2)), 16, 4)


# -- end-to-end horizon evaluation -------------------------------------------


def make_table(rng, n=260, D=2):
    t = np.arange(n)
    values = np.stack(
        [np.sin(2 * np.pi * t / 24) + 0.05 * rng.normal(size=n) for _ in range(D)],
        axis=1,
    )
    stamps = [f"2020-01-01 {0:02d}:00:00"] * 0
    from datetime import datetime, timedelta

    origin = datetime(2020, 1, 1)
    stamps = [(origin + timedelta(hours=int(i))).isoformat(sep=" ") for i in range(n)]
    return SeriesTable(stamps, values, [f"f{d}" for d in range(D)])


def test_evaluate_horizons_report(rng):
    table = make_table(rng)
    spec = split(table)
    table = standardize(table, spec)
    model = tiny_model()
    # a repeated horizon is scored, and a repeated misfit warned of, once
    report = evaluate_horizons(model, table, spec, T=16, horizons=[4, 8, 4, 500, 500])
    assert report.dataset == "unnamed" and report.config == {} and report.timestamp == ""
    assert [e["horizon"] for e in report.entries] == [4, 8]
    assert len(report.warnings) == 1 and "500" in report.warnings[0]
    assert abs(report.avg_mse - np.mean([e["mse"] for e in report.entries])) < 1e-12
    assert abs(report.avg_mae - np.mean([e["mae"] for e in report.entries])) < 1e-12
    assert all(np.isfinite(e["mse"]) and e["mse"] >= 0 for e in report.entries)


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
def test_evaluate_horizons_leaves_values_untouched(rng, mode):
    # the series centre their features in place; never the caller's values
    table = make_table(rng)
    spec = split(table)
    table = standardize(table, spec)
    before = table.values.tobytes()
    evaluate_horizons(tiny_model(), table, spec, T=16, horizons=[4, 8], mode=mode)
    assert table.values.tobytes() == before


@pytest.mark.parametrize("mode", ["multivariate", "univariate"])
def test_evaluate_horizons_equals_per_horizon_reference(rng, mode):
    # shared features and the moment-based fit and alpha choice must agree
    # with an extraction per horizon and a dense solve and validation score
    # per alpha: the same alphas, and metrics within 1e-10 relative (the FFT
    # correlation sums in another order than a GEMM over the target matrix)
    table = make_table(rng)
    spec = split(table)
    table = standardize(table, spec)
    model = tiny_model()
    T = 16
    report = evaluate_horizons(model, table, spec, T=T, horizons=[4, 8, 500], mode=mode)
    assert [e["horizon"] for e in report.entries] == [4, 8]
    for P, entry in zip((4, 8), report.entries):
        (X, Y), (Xv, Yv), (Xt, Yt) = [
            (
                extract_features(model, table.values[a:b], T, P),
                probe_targets(table.values[a:b], T, P, table.target_index, mode),
            )
            for a, b in (spec.train_range, spec.valid_range, spec.test_range)
        ]
        xm, ym = X.mean(axis=0), Y.mean(axis=0)
        Xc = X - xm
        best, best_mse = None, np.inf
        for alpha in DEFAULT_ALPHA_GRID:
            W = np.linalg.solve(Xc.T @ Xc + alpha * np.eye(X.shape[1]), Xc.T @ (Y - ym))
            probe = RidgeProbe(weights=W, intercept=ym - xm @ W, ridge_alpha=alpha)
            mse = float(np.mean((Xv @ W + probe.intercept - Yv) ** 2))
            if mse < best_mse:
                best, best_mse = probe, mse
        assert entry["ridge_alpha"] == best.ridge_alpha
        err = Xt @ best.weights + best.intercept - Yt
        for key, want in (("mse", np.mean(err**2)), ("mae", np.mean(np.abs(err)))):
            assert abs(entry[key] - want) <= 1e-10 * want
    assert report.warnings == [
        "horizon 500 skipped: split of 156 rows too short for lookback 16 + horizon 500"
    ]


def test_probe_beats_baseline_on_periodic_signal(rng):
    table = make_table(rng, n=400)
    spec = split(table)
    table = standardize(table, spec)
    model = tiny_model()
    T, P = 16, 4
    report = evaluate_horizons(model, table, spec, T=T, horizons=[P])
    a, b = spec.train_range
    train_y = probe_targets(table.values[a:b], T, P, table.target_index)
    a, b = spec.test_range
    test_y = probe_targets(table.values[a:b], T, P, table.target_index)
    base_mse, _ = train_mean_baseline(train_y, test_y)
    # even an untrained encoder's final-step features carry enough phase
    # information to beat the constant predictor on a clean sinusoid
    assert report.entries[0]["mse"] < base_mse


# -- reports -----------------------------------------------------------------


def test_report_json_round_trip():
    report = ForecastReport(
        dataset="toy",
        mode="multivariate",
        entries=[{"horizon": 4, "mse": 1.5, "mae": 0.9, "ridge_alpha": 0.1}],
        warnings=["horizon 999 skipped: too long"],
        config={"train.epochs": 2},
        timestamp="2020-01-01T00:00:00",
    )
    report.finalize()
    again = ForecastReport.from_json(report.to_json())
    assert again == report
    assert report.to_json() == again.to_json()  # canonical form is stable


def test_report_console_table():
    report = ForecastReport(dataset="toy", mode="univariate")
    report.entries = [{"horizon": 24, "mse": 0.5, "mae": 0.25}]
    report.finalize()
    text = report.console_table()
    assert "toy" in text and "24" in text and "0.5000" in text and "avg" in text


def test_train_mean_baseline_hand_case():
    train_y = np.array([[0.0], [2.0]])  # mean 1
    test_y = np.array([[4.0], [-2.0]])
    mse, mae = train_mean_baseline(train_y, test_y)
    assert mse == (9 + 9) / 2 and mae == 3.0
