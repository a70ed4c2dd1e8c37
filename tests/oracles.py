"""Reference implementations the tests compare the program against.

- ``load_csv``: the per-row CSV loader that ``mffftnet.data.load_csv``
  replaced (``csv`` records, one ``float()`` per cell, each row checked as
  it is read). ``data.load_csv`` must agree with it on every file, except
  that a cell ``np.loadtxt`` does not read as a number (digit-grouping
  underscores, non-ASCII digits) is a non-numeric cell there.
- ``naive_dft``: the direct-summation DFT, the oracle of ``fourier.rfft``.
- ``finite_diff_check``: central finite differences against an op's
  analytic gradient.
- ``silu``, ``gelu``, ``dropout`` and ``info_nce``: the stored-activation
  forms of the ops whose backward rules in ``mffftnet.tensor`` recompute
  what these save (the logistic, the tanh, the mask, the logits and
  softmax as ``matmul``/``transpose``/``logsumexp``/``diagonal`` nodes).
  Outputs and gradients must agree with them bit for bit. ``transpose``,
  ``logsumexp`` and ``diagonal`` are tape ops of their own, kept here for
  ``info_nce`` alone.
- ``multiscale_conv`` and ``msff``: the unfused CTCM pair, the scale stack
  and MSFF, that ``mffftnet.ctcm.composite_conv`` and ``_msff_tail`` fold.
"""

from __future__ import annotations

import csv
from datetime import datetime
from typing import Callable

import numpy as np

from mffftnet import tensor as tn
from mffftnet.ctcm import _check_kernels, _msff_tail
from mffftnet.data import SeriesTable
from mffftnet.errors import ContractError, DataError, DimensionError, ParameterError
from mffftnet.tensor import Parameter, Tensor, no_grad


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
    """The per-row loader: an ETT-style CSV (date column + numeric
    features) read record by record."""
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


def naive_dft(x) -> Tensor:
    """Direct-summation DFT with the same convention and the same
    (..., c, 2F) ``[re ‖ im]`` layout as rfft."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    T = data.shape[-2]
    c = T // 2 + 1
    j = np.arange(c)[:, None]
    t = np.arange(T)[None, :]
    E = np.exp(-2j * np.pi * j * t / T)
    bins = np.einsum("jt,...tf->...jf", E, data)
    return Tensor(np.concatenate([bins.real, bins.imag], axis=-1))


def finite_diff_check(
    f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5
) -> float:
    """Max relative error between the analytic gradient of f at x and
    central finite differences; f must be deterministic."""
    probe = Tensor(x.data.copy(), requires_grad=True)
    loss = f(probe)
    loss.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.copy().ravel()
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(Tensor(flat.reshape(x.shape))).item()
            flat[i] = orig - step
            lo = f(Tensor(flat.reshape(x.shape))).item()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * step)
    err = np.abs(analytic.ravel() - numeric) / (np.abs(analytic.ravel()) + 1e-8)
    return float(err.max()) if err.size else 0.0


def silu(a: Tensor) -> Tensor:
    """SiLU whose backward rule keeps the logistic it computed."""
    na, x = a._node, a.data
    s = tn._logistic(x)

    def bw(g):
        tn._accum(na, g * s * (1.0 + x * (1.0 - s)), owned=True)

    return tn._make(x * s, (a,), bw)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU whose backward rule keeps the tanh."""
    na, x = a._node, a.data
    t = np.tanh(tn._GELU_C * (x + 0.044715 * x**3))

    def bw(g):
        dinner = tn._GELU_C * (1.0 + 3 * 0.044715 * x**2)
        tn._accum(na, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner), owned=True)

    return tn._make(0.5 * x * (1.0 + t), (a,), bw)


def dropout(x: Tensor, rate: float, rng_seed, training: bool) -> Tensor:
    """Inverted dropout whose backward rule keeps the mask."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    rng = np.random.default_rng(rng_seed)
    nx, mask = x._node, (rng.random(x.shape) >= rate) / (1.0 - rate)
    return tn._make(x.data * mask, (x,), lambda g: tn._accum(nx, g * mask, owned=True))


def transpose(a: Tensor, axes) -> Tensor:
    na, axes = a._node, tuple(axes)
    inv = tuple(np.argsort(axes))
    return tn._make(
        a.data.transpose(axes), (a,), lambda g: tn._accum(na, g.transpose(inv))
    )


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    na = a._node
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)

    def bw(g):
        tn._accum(na, np.expand_dims(g, axis) * (e / s), owned=True)

    return tn._make(out_data, (a,), bw)


def diagonal(a: Tensor) -> Tensor:
    """Diagonal of the last two axes."""
    if a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"diagonal needs a square trailing block, got {a.shape}")

    na = a._node

    def bw(g):
        gg = np.zeros(na.shape)
        idx = np.arange(na.shape[-1])
        gg[..., idx, idx] = g
        tn._accum(na, gg, owned=True)

    return tn._make(np.diagonal(a.data, axis1=-2, axis2=-1).copy(), (a,), bw)


def info_nce(a: Tensor, b: Tensor) -> Tensor:
    """Per-row InfoNCE built from tape primitives, which keep the logits'
    softmax on the tape."""
    if a.shape != b.shape:
        raise ContractError(f"InfoNCE operand shapes differ: {a.shape} vs {b.shape}")
    logits = tn.matmul(a, transpose(b, (*range(b.ndim - 2), b.ndim - 1, b.ndim - 2)))
    return logsumexp(logits, axis=-1) + -diagonal(logits)


def multiscale_conv(
    r: Tensor, params: dict[str, Parameter], kernels: tuple[int, ...]
) -> Tensor:
    """Stack causal depth-preserving convolutions: (..., T, K) -> (..., n, T, K).
    Each scale is one ``tn.causal_conv1d`` plus its bias; one concat stacks
    them."""
    T, K = r.shape[-2:]
    _check_kernels(kernels, T)
    scales = []
    for kj in kernels:
        y = tn.causal_conv1d(r, params[f"ctcm.scale{kj}.w"]) + params[f"ctcm.scale{kj}.b"]
        scales.append(tn.reshape(y, y.shape[:-2] + (1, T, K)))
    return tn.concat(scales, axis=-3)


def msff(h_d: Tensor, params: dict[str, Parameter]) -> Tensor:
    """(..., n, T, K) -> (..., T, K/2) via 3x3 conv / SiLU / scale mean / linear."""
    z = tn.conv2d(h_d, params["ctcm.msff.conv1.w"]) + params["ctcm.msff.conv1.b"]
    return _msff_tail(z, params)
