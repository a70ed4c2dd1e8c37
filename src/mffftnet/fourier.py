"""Real-input FFT / inverse FFT over the time axis, with autodiff support.

Convention: unnormalized forward transform X[j] = sum_t x[t] e^{-2 pi i j t / T},
inverse with 1/T, which is numpy's ``np.fft`` default. Any window length is
exact (no padding).

Transforms act along axis -2 of a (..., T, F) array: one DFT per feature
column, batched over leading axes. A spectrum is one real (..., c, 2F)
tensor of c = floor(T/2)+1 bins holding ``[re ‖ im]`` on its last axis.
Both maps are linear, and each one's backward rule is the other real FFT.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ParameterError
from .tensor import Tensor, _accum, _make, atan2, reshape, tsqrt, unstack


def as_complex(z: np.ndarray) -> np.ndarray:
    """The complex (..., c, F) bins of a (..., c, 2F) spectrum array."""
    F = z.shape[-1] // 2
    return z[..., :F] + 1j * z[..., F:]


def rfft(x: Tensor) -> Tensor:
    """Half-spectrum DFT of a real (..., T, F) tensor along the time axis,
    as the (..., c, 2F) spectrum ``[re ‖ im]``."""
    T = x.shape[-2]
    if T < 2:
        raise ParameterError(f"rfft needs T >= 2, got T={T}")
    c, nx = T // 2 + 1, x._node
    bins = np.fft.rfft(x.data, axis=-2)

    def bw(g):
        # irfft counts bins 1 .. T-c twice, once more as their conjugate mirror
        gs = as_complex(g)
        gs[..., 1 : T - c + 1, :] *= 0.5
        _accum(nx, T * np.fft.irfft(gs, n=T, axis=-2), owned=True)

    return _make(np.concatenate([bins.real, bins.imag], axis=-1), (x,), bw)


def irfft(z: Tensor, T: int) -> Tensor:
    """Inverse transform of a (..., c, 2F) spectrum back to a real (..., T, F)
    tensor; irfft(rfft(x), T) == x."""
    c = T // 2 + 1
    if z.shape[-2] != c or z.shape[-1] % 2:
        raise ContractError(f"spectrum shape {z.shape} inconsistent with origin length {T}")
    nz = z._node

    def bw(g):
        # bins 1 .. T-c also stand for their conjugate mirror bins T-1 .. c
        gs = np.fft.rfft(g, axis=-2) / T
        gs[..., 1 : T - c + 1, :] *= 2.0
        _accum(nz, np.concatenate([gs.real, gs.imag], axis=-1), owned=True)

    return _make(np.fft.irfft(as_complex(z.data), n=T, axis=-2), (z,), bw)


def amp_phase(z: Tensor) -> tuple[Tensor, Tensor]:
    """Polar decomposition per bin and channel of a (..., c, 2F) spectrum,
    ``(amplitude, phase)``, each (..., c, F); the phase of an exactly-zero
    bin is 0."""
    re, im = unstack(reshape(z, z.shape[:-1] + (2, z.shape[-1] // 2)), axis=-2)
    return tsqrt(re * re + im * im), atan2(im, re)
