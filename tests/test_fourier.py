"""Spectral transforms: forward/inverse against the naive O(T^2) oracle,
polar decomposition, Parseval/linearity invariants, adjoint gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mffftnet import fourier as fr
from mffftnet import tensor as tn
from mffftnet.errors import ContractError, ParameterError
from mffftnet.fourier import ComplexSpectrum, amp_phase, irfft, naive_dft, rfft
from mffftnet.tensor import Tensor, finite_diff_check


def spectrum_of(values: np.ndarray, T: int) -> ComplexSpectrum:
    return ComplexSpectrum(
        re=Tensor(values.real.copy()), im=Tensor(values.imag.copy()), origin_length=T
    )


# -- rfft --------------------------------------------------------------------


def test_rfft_constant_signal():
    s = rfft(Tensor(np.ones((4, 1))))
    np.testing.assert_allclose(s.values.ravel(), [4.0, 0.0, 0.0], atol=1e-12)


def test_rfft_cosine_single_bin():
    t = np.arange(8)
    x = np.cos(2 * np.pi * t / 8)[:, None]
    s = rfft(Tensor(x))
    expect = np.zeros(5, dtype=complex)
    expect[1] = 4.0
    np.testing.assert_allclose(s.values.ravel(), expect, atol=1e-9)


def test_rfft_non_power_of_two_vs_oracle(rng):
    x = rng.normal(size=(100, 3))
    np.testing.assert_allclose(
        rfft(Tensor(x)).values, naive_dft(Tensor(x)).values, atol=1e-9
    )


def test_rfft_rejects_short_input():
    with pytest.raises(ParameterError):
        rfft(Tensor(np.ones((1, 1))))


def test_rfft_real_signal_endpoints(rng):
    rfft(Tensor(rng.normal(size=(12, 2)))).check_real_signal()


# -- irfft -------------------------------------------------------------------


def test_round_trip_identity(rng):
    x = rng.normal(size=(64, 5))
    np.testing.assert_allclose(irfft(rfft(Tensor(x))).data, x, atol=1e-9)


def test_irfft_dc_only_gives_constant():
    T = 6
    vals = np.zeros((T // 2 + 1, 1), dtype=complex)
    vals[0] = T
    out = irfft(spectrum_of(vals, T))
    np.testing.assert_allclose(out.data, np.ones((T, 1)), atol=1e-12)


def test_irfft_matches_naive_inverse(rng):
    # random spectrum with real endpoints, T=10: invert by the O(T^2) formula
    T, c = 10, 6
    vals = rng.normal(size=(c, 2)) + 1j * rng.normal(size=(c, 2))
    vals[0] = vals[0].real
    vals[-1] = vals[-1].real
    full = np.zeros((T, 2), dtype=complex)
    full[:c] = vals
    full[c:] = np.conj(vals[1:-1][::-1])
    j = np.arange(T)[:, None]
    t = np.arange(T)[None, :]
    expect = np.real(np.einsum("tj,jf->tf", np.exp(2j * np.pi * j * t / T), full)) / T
    out = irfft(spectrum_of(vals, T))
    np.testing.assert_allclose(out.data, expect, atol=1e-9)


def test_irfft_rejects_malformed_spectrum():
    bad = ComplexSpectrum(
        re=Tensor(np.zeros((4, 1))), im=Tensor(np.zeros((4, 1))), origin_length=4
    )
    with pytest.raises(ContractError):
        irfft(bad)


def test_check_real_signal_rejects_complex_dc():
    vals = np.zeros((3, 1), dtype=complex)
    vals[0] = 1j
    with pytest.raises(ContractError):
        spectrum_of(vals, 4).check_real_signal()


# -- amp_phase ---------------------------------------------------------------


def test_amp_phase_345_triangle():
    s = spectrum_of(np.array([[3.0 + 4.0j]]), 2)
    ap = amp_phase(s)
    np.testing.assert_allclose(ap.amplitude.data, [[5.0]], atol=1e-12)
    np.testing.assert_allclose(ap.phase.data, [[0.927295]], atol=1e-6)


def test_amp_phase_zero_bin():
    ap = amp_phase(spectrum_of(np.array([[0.0 + 0.0j]]), 2))
    assert ap.amplitude.data[0, 0] == 0.0
    assert ap.phase.data[0, 0] == 0.0


def test_amp_phase_reconstruction(rng):
    vals = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    ap = amp_phase(spectrum_of(vals, 8))
    recon = ap.amplitude.data * (
        np.cos(ap.phase.data) + 1j * np.sin(ap.phase.data)
    )
    np.testing.assert_allclose(recon, vals, atol=1e-12)


# -- naive_dft ---------------------------------------------------------------


def test_naive_dft_constant_is_dc_only():
    s = naive_dft(Tensor(np.full((6, 1), 2.0)))
    expect = np.zeros(4, dtype=complex)
    expect[0] = 12.0
    np.testing.assert_allclose(s.values.ravel(), expect, atol=1e-9)


def test_naive_dft_impulse():
    x = np.zeros((8, 1))
    x[0] = 1.0
    np.testing.assert_allclose(
        naive_dft(Tensor(x)).values.ravel(), np.ones(5, dtype=complex), atol=1e-12
    )


def test_rfft_naive_agree_sampled_lengths(rng):
    for T in (2, 3, 7, 16, 33, 100, 128):
        x = rng.normal(size=(T, 2))
        np.testing.assert_allclose(
            rfft(Tensor(x)).values, naive_dft(Tensor(x)).values, atol=1e-9
        )


# -- invariants --------------------------------------------------------------


def parseval_gap(x: np.ndarray) -> float:
    T = x.shape[0]
    c = T // 2 + 1
    s = rfft(Tensor(x)).values
    power = np.abs(s[0]) ** 2 + 2 * (np.abs(s[1 : c - 1]) ** 2).sum(axis=0)
    if T % 2 == 0:
        power = power + np.abs(s[-1]) ** 2
    else:
        power = power + 2 * np.abs(s[-1]) ** 2
    lhs = (x**2).sum(axis=0)
    return float(np.abs(lhs - power / T).max() / np.abs(lhs).max())


def test_parseval(rng):
    for T in (8, 10, 33, 64):
        assert parseval_gap(rng.normal(size=(T, 3))) < 1e-9


def test_linearity(rng):
    x, y = rng.normal(size=(24, 2)), rng.normal(size=(24, 2))
    lhs = rfft(Tensor(2.5 * x - 1.25 * y)).values
    rhs = 2.5 * rfft(Tensor(x)).values - 1.25 * rfft(Tensor(y)).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_property_round_trip(T, seed):
    x = np.random.default_rng(seed).normal(size=(T, 2))
    np.testing.assert_allclose(irfft(rfft(Tensor(x))).data, x, atol=1e-9)


# -- autodiff through the transforms ----------------------------------------


@pytest.mark.parametrize("T", [8, 9])
def test_rfft_gradient(rng, T):
    c = T // 2 + 1
    c_re = rng.normal(size=(c, 2))
    c_im = rng.normal(size=(c, 2))

    def f(x):
        s = rfft(x)
        return tn.tsum(s.re * Tensor(c_re)) + tn.tsum(s.im * Tensor(c_im))

    err = finite_diff_check(f, Tensor(rng.normal(size=(T, 2))))
    assert err < 1e-6


@pytest.mark.parametrize("T", [10, 9])
def test_irfft_gradient(rng, T):
    c = T // 2 + 1
    base_im = rng.normal(size=(c, 1))
    weight = Tensor(rng.normal(size=(T, 1)))

    def f_re(re):
        s = ComplexSpectrum(re=re, im=Tensor(base_im), origin_length=T)
        return tn.tsum(irfft(s) * weight)

    err = finite_diff_check(f_re, Tensor(rng.normal(size=(c, 1))))
    assert err < 1e-6

    base_re = rng.normal(size=(c, 1))

    def f_im(im):
        s = ComplexSpectrum(re=Tensor(base_re), im=im, origin_length=T)
        return tn.tsum(irfft(s) * weight)

    # DC/Nyquist imaginary parts have exactly zero effect on the real
    # inverse, so their relative error is finite-difference noise over a
    # zero gradient; the check only needs the looser tolerance for them.
    err = finite_diff_check(f_im, Tensor(rng.normal(size=(c, 1))))
    assert err < 5e-3
    probe = Tensor(rng.normal(size=(c, 1)), requires_grad=True)
    f_im(probe).backward()
    assert abs(probe.grad[0, 0]) < 1e-12
    if T % 2 == 0:  # an odd length has no Nyquist bin
        assert abs(probe.grad[-1, 0]) < 1e-12


def test_batched_transform_matches_loop(rng):
    x = rng.normal(size=(3, 16, 2))
    batched = rfft(Tensor(x)).values
    for b in range(3):
        np.testing.assert_allclose(batched[b], rfft(Tensor(x[b])).values, atol=1e-12)
