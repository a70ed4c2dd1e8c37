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
from .tensor import Tensor, _accum, _make, atan2, tsqrt

# -- spectrum containers ---------------------------------------------------


@dataclass
class ComplexSpectrum:
    """Non-redundant half spectrum of a real signal: c = floor(T/2)+1 bins."""

    re: Tensor
    im: Tensor
    origin_length: int

    @property
    def num_bins(self) -> int:
        return self.re.shape[-2]

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

    def check_real_signal(self, tol: float = 1e-9) -> None:
        """Assert the endpoint bins are real, as they must be for the
        transform of a real signal. Reweighted spectra need not satisfy
        this; the inverse transform takes the real part either way."""
        self.validate()
        scale = max(1.0, float(np.abs(self.values).max(initial=0.0)))
        if np.abs(self.im.data[..., 0, :]).max(initial=0.0) > tol * scale:
            raise ContractError("DC bin of a real-signal spectrum must be real")
        if self.origin_length % 2 == 0 and np.abs(
            self.im.data[..., -1, :]
        ).max(initial=0.0) > tol * scale:
            raise ContractError("Nyquist bin of an even-length spectrum must be real")


@dataclass
class AmpPhase:
    amplitude: Tensor
    phase: Tensor


# -- autodiff transforms ---------------------------------------------------


def rfft(x: Tensor) -> ComplexSpectrum:
    """Half-spectrum DFT of a real (..., T, F) tensor along the time axis."""
    T = x.shape[-2]
    if T < 2:
        raise ParameterError(f"rfft needs T >= 2, got T={T}")
    c = T // 2 + 1
    bins = np.fft.rfft(x.data, axis=-2)

    def _adjoint_into_x(g_complex: np.ndarray) -> np.ndarray:
        gpad = np.zeros(x.shape[:-2] + (T,) + x.shape[-1:], dtype=np.complex128)
        gpad[..., :c, :] = g_complex
        return np.real(T * np.fft.ifft(gpad, axis=-2))

    def bw_re(g):
        _accum(x, _adjoint_into_x(g))

    def bw_im(g):
        _accum(x, _adjoint_into_x(1j * g))

    re = _make(np.ascontiguousarray(bins.real), (x,), bw_re)
    im = _make(np.ascontiguousarray(bins.imag), (x,), bw_im)
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


def amp_phase(s: ComplexSpectrum) -> AmpPhase:
    """Polar decomposition per bin; the phase of an exactly-zero bin is 0."""
    amplitude = tsqrt(s.re * s.re + s.im * s.im)
    phase = atan2(s.im, s.re)
    return AmpPhase(amplitude=amplitude, phase=phase)


# -- O(T^2) oracle ---------------------------------------------------------


def naive_dft(x) -> ComplexSpectrum:
    """Direct-summation DFT with the same convention as rfft; test oracle."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    T = data.shape[-2]
    c = T // 2 + 1
    j = np.arange(c)[:, None]
    t = np.arange(T)[None, :]
    E = np.exp(-2j * np.pi * j * t / T)
    bins = np.einsum("jt,...tf->...jf", E, data)
    return ComplexSpectrum(
        re=Tensor(bins.real), im=Tensor(bins.imag), origin_length=T
    )
