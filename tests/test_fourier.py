"""Spectral transforms: forward/inverse against the naive O(T^2) oracle,
polar decomposition, Parseval/linearity invariants, adjoint gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mffftnet import fourier as fr
from mffftnet import tensor as tn
from mffftnet.errors import ContractError, ParameterError
from mffftnet.fourier import amp_phase, as_complex, irfft, rfft
from mffftnet.tensor import Tensor
from tests.oracles import finite_diff_check, naive_dft


def spectrum_of(values: np.ndarray) -> Tensor:
    return Tensor(np.concatenate([values.real, values.imag], axis=-1))


def bins(z: Tensor) -> np.ndarray:
    return as_complex(z.data)


# -- rfft --------------------------------------------------------------------


def test_rfft_constant_signal():
    s = rfft(Tensor(np.ones((4, 1))))
    np.testing.assert_allclose(bins(s).ravel(), [4.0, 0.0, 0.0], atol=1e-12)


def test_rfft_cosine_single_bin():
    t = np.arange(8)
    x = np.cos(2 * np.pi * t / 8)[:, None]
    s = rfft(Tensor(x))
    expect = np.zeros(5, dtype=complex)
    expect[1] = 4.0
    np.testing.assert_allclose(bins(s).ravel(), expect, atol=1e-9)


def test_rfft_non_power_of_two_vs_oracle(rng):
    x = rng.normal(size=(100, 3))
    np.testing.assert_allclose(
        rfft(Tensor(x)).data, naive_dft(Tensor(x)).data, atol=1e-9
    )


def test_rfft_rejects_short_input():
    with pytest.raises(ParameterError):
        rfft(Tensor(np.ones((1, 1))))


def test_rfft_real_signal_endpoints(rng):
    # the DC and (even-length) Nyquist bins of a real signal are real
    im = bins(rfft(Tensor(rng.normal(size=(12, 2))))).imag
    np.testing.assert_array_equal(im[[0, -1]], 0.0)


# -- irfft -------------------------------------------------------------------


def test_round_trip_identity(rng):
    x = rng.normal(size=(64, 5))
    np.testing.assert_allclose(irfft(rfft(Tensor(x)), 64).data, x, atol=1e-9)


def test_irfft_dc_only_gives_constant():
    T = 6
    vals = np.zeros((T // 2 + 1, 1), dtype=complex)
    vals[0] = T
    out = irfft(spectrum_of(vals), T)
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
    out = irfft(spectrum_of(vals), T)
    np.testing.assert_allclose(out.data, expect, atol=1e-9)


def test_irfft_rejects_malformed_spectrum():
    # T=4 has 3 bins; and a spectrum's last axis holds [re ‖ im], so it is even
    for shape in [(4, 2), (3, 3)]:
        with pytest.raises(ContractError):
            irfft(Tensor(np.zeros(shape)), 4)


# -- amp_phase ---------------------------------------------------------------


def test_amp_phase_345_triangle():
    s = spectrum_of(np.array([[3.0 + 4.0j]]))
    amplitude, phase = amp_phase(s)
    np.testing.assert_allclose(amplitude.data, [[5.0]], atol=1e-12)
    np.testing.assert_allclose(phase.data, [[0.927295]], atol=1e-6)


def test_amp_phase_zero_bin():
    amplitude, phase = amp_phase(spectrum_of(np.array([[0.0 + 0.0j]])))
    assert amplitude.data[0, 0] == 0.0
    assert phase.data[0, 0] == 0.0


def test_amp_phase_reconstruction(rng):
    vals = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    amplitude, phase = amp_phase(spectrum_of(vals))
    recon = amplitude.data * (np.cos(phase.data) + 1j * np.sin(phase.data))
    np.testing.assert_allclose(recon, vals, atol=1e-12)


# -- naive_dft ---------------------------------------------------------------


def test_naive_dft_constant_is_dc_only():
    s = naive_dft(Tensor(np.full((6, 1), 2.0)))
    expect = np.zeros(4, dtype=complex)
    expect[0] = 12.0
    np.testing.assert_allclose(bins(s).ravel(), expect, atol=1e-9)


def test_naive_dft_impulse():
    x = np.zeros((8, 1))
    x[0] = 1.0
    np.testing.assert_allclose(
        bins(naive_dft(Tensor(x))).ravel(), np.ones(5, dtype=complex), atol=1e-12
    )


def test_rfft_naive_agree_sampled_lengths(rng):
    for T in (2, 3, 7, 16, 33, 100, 128):
        x = rng.normal(size=(T, 2))
        np.testing.assert_allclose(
            rfft(Tensor(x)).data, naive_dft(Tensor(x)).data, atol=1e-9
        )


# -- invariants --------------------------------------------------------------


def parseval_gap(x: np.ndarray) -> float:
    T = x.shape[0]
    c = T // 2 + 1
    s = bins(rfft(Tensor(x)))
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
    lhs = rfft(Tensor(2.5 * x - 1.25 * y)).data
    rhs = 2.5 * rfft(Tensor(x)).data - 1.25 * rfft(Tensor(y)).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_property_round_trip(T, seed):
    x = np.random.default_rng(seed).normal(size=(T, 2))
    np.testing.assert_allclose(irfft(rfft(Tensor(x)), T).data, x, atol=1e-9)


# -- autodiff through the transforms ----------------------------------------


@pytest.mark.parametrize("T", [8, 9, 2, 3])
def test_rfft_gradient(rng, T):
    c = T // 2 + 1
    c_re = rng.normal(size=(c, 2))
    c_im = rng.normal(size=(c, 2))

    def f(x):
        return tn.tsum(rfft(x) * Tensor(np.concatenate([c_re, c_im], axis=-1)))

    err = finite_diff_check(f, Tensor(rng.normal(size=(T, 2))))
    assert err < 1e-6


@pytest.mark.parametrize("T", [10, 9, 2, 3])
def test_irfft_gradient(rng, T):
    c = T // 2 + 1
    base_im = rng.normal(size=(c, 1))
    weight = Tensor(rng.normal(size=(T, 1)))

    def f_re(re):
        return tn.tsum(irfft(tn.concat([re, Tensor(base_im)], axis=-1), T) * weight)

    err = finite_diff_check(f_re, Tensor(rng.normal(size=(c, 1))))
    assert err < 1e-6

    base_re = rng.normal(size=(c, 1))

    def f_im(im):
        return tn.tsum(irfft(tn.concat([Tensor(base_re), im], axis=-1), T) * weight)

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


@pytest.mark.parametrize("T", [2, 3, 64, 65, 201])
def test_backward_rules_are_adjoint(rng, T):
    # <f(x), g> = <x, f-backward(g)> for both transforms; a wrong halving
    # window at DC or Nyquist breaks it
    def check(f, x, g):
        y = f(x)
        tn.tsum(y * Tensor(g)).backward()
        gap = np.vdot(y.data, g) - np.vdot(x.data, x.grad)
        assert abs(gap) <= 1e-12 * np.linalg.norm(y.data) * np.linalg.norm(g)

    c = T // 2 + 1
    check(rfft, Tensor(rng.normal(size=(2, T, 3)), requires_grad=True), rng.normal(size=(2, c, 6)))
    x = Tensor(rng.normal(size=(2, c, 6)), requires_grad=True)
    check(lambda z: irfft(z, T), x, rng.normal(size=(2, T, 3)))


def test_batched_transform_matches_loop(rng):
    x = rng.normal(size=(3, 16, 2))
    batched = rfft(Tensor(x)).data
    for b in range(3):
        np.testing.assert_allclose(batched[b], rfft(Tensor(x[b])).data, atol=1e-12)
