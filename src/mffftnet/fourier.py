"""Real-input FFT / inverse FFT over the time axis, with autodiff support.

Convention: unnormalized forward transform X[j] = sum_t x[t] e^{-2 pi i j t / T},
inverse with 1/T, which is numpy's ``np.fft`` default. Any window length is
exact (no padding).

Transforms act along axis -2 of a (..., T, F) array: one DFT per feature
column, batched over leading axes. The forward/inverse maps are linear, so
their backward rules are the corresponding adjoint transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .tensor import Tensor, _accum, _make, atan2, tsqrt, unstack

# -- spectrum containers ---------------------------------------------------


@dataclass
class ComplexSpectrum:
    """Non-redundant half spectrum of a real signal: c = floor(T/2)+1 bins."""

    re: Tensor
    im: Tensor
    origin_length: int

    @property
    def values(self) -> np.ndarray:
        return self.re.data + 1j * self.im.data

    def validate(self) -> None:
        T = self.origin_length
        c = T // 2 + 1
        if self.re.shape != self.im.shape or self.re.shape[-2] != c:
            raise ContractError(
                f"spectrum shape {self.re.shape} inconsistent with origin length {T}"
            )


# -- autodiff transforms ---------------------------------------------------


def rfft(x: Tensor) -> ComplexSpectrum:
    """Half-spectrum DFT of a real (..., T, F) tensor along the time axis."""
    T = x.shape[-2]
    if T < 2:
        raise ParameterError(f"rfft needs T >= 2, got T={T}")
    c = T // 2 + 1
    bins = np.fft.rfft(x.data, axis=-2)

    def bw(g):
        # one adjoint for both parts: it is linear, and g[1] enters as i·g_im
        gpad = np.zeros(x.shape[:-2] + (T,) + x.shape[-1:], dtype=np.complex128)
        gpad[..., :c, :] = g[0] + 1j * g[1]
        _accum(x, np.real(T * np.fft.ifft(gpad, axis=-2)))

    re, im = unstack(_make(np.stack([bins.real, bins.imag]), (x,), bw))
    return ComplexSpectrum(re=re, im=im, origin_length=T)


def irfft(s: ComplexSpectrum) -> Tensor:
    """Inverse transform back to a real (..., T, F) tensor; irfft(rfft(x)) == x."""
    s.validate()
    T = s.origin_length
    c = T // 2 + 1
    out_data = np.fft.irfft(s.re.data + 1j * s.im.data, n=T, axis=-2)

    def bw(g):
        # bins 1 .. T-c also stand for their conjugate mirror bins T-1 .. c
        gs = np.fft.rfft(g, axis=-2) / T
        gs[..., 1 : T - c + 1, :] *= 2.0
        _accum(s.re, gs.real)
        _accum(s.im, gs.imag)

    return _make(out_data, (s.re, s.im), bw)


def amp_phase(s: ComplexSpectrum) -> tuple[Tensor, Tensor]:
    """Polar decomposition per bin, ``(amplitude, phase)``; the phase of an
    exactly-zero bin is 0."""
    return tsqrt(s.re * s.re + s.im * s.im), atan2(s.im, s.re)
