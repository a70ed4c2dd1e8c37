"""Frequency-aware module: amplitude ranking, hard masking, complex
reweighting, and the dual amplitude/phase contrastive loss."""

import numpy as np
import pytest

from mffftnet import facm
from mffftnet import tensor as tn
from mffftnet.errors import ContractError
from mffftnet.facm import (
    FacmConfig,
    facm_apply,
    freq_contrastive_loss,
    make_facm_params,
)
from mffftnet.fourier import as_complex, irfft, rfft
from mffftnet.tensor import Tensor
from tests.oracles import finite_diff_check, naive_dft


def spectrum_of(values):
    values = np.asarray(values, dtype=complex)
    return Tensor(np.concatenate([values.real, values.imag], axis=-1))


def stacked(s1, s2):
    """The two views' spectra on a leading axis of 2, as ``facm_apply``
    returns them for a stacked batch; reshape and concat keep the stack
    differentiable."""
    return tn.concat([tn.reshape(t, (1, *t.shape)) for t in (s1, s2)], axis=0)


def identity_style_params(K, T):
    """Left K/2 x K/2 block of omega = I, rest zero; beta = 0."""
    params = make_facm_params(K, T, 0)
    half = K // 2
    w = np.zeros((K, half))
    w[:half, :half] = np.eye(half)
    params["facm.omega.re"].data = w
    params["facm.omega.im"].data = np.zeros((K, half))
    params["facm.beta.re"].data[:] = 0.0
    params["facm.beta.im"].data[:] = 0.0
    return params


# -- amplitude ranking -------------------------------------------------------


def kept_bins(z, mask_ratio):
    """The bins ``facm._topk_mask`` keeps of a (c, 2K) spectrum array."""
    mask = facm._topk_mask(z, mask_ratio)
    assert mask.shape == (*z.shape[:-1], 1) and set(np.unique(mask)) <= {0.0, 1.0}
    return list(np.flatnonzero(mask))


def test_mean_amplitude_zero_spectrum():
    # every bin ties at 0, so the lowest two are kept
    assert kept_bins(spectrum_of(np.zeros((3, 2))).data, 2 / 3) == [0, 1]


def test_mean_amplitude_single_channel():
    # |3 + 4i| = 5 outranks |0|, and a larger real part alone would not
    s = spectrum_of(np.array([[3 + 4j], [4.5 + 0j]]))
    assert kept_bins(s.data, 1 / 2) == [0]


def test_mean_amplitude_oracle(rng):
    vals = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    expect = np.argsort(-np.abs(vals).mean(axis=1), kind="stable")[:3]
    assert kept_bins(spectrum_of(vals).data, 1 / 3) == sorted(expect)


def test_select_topk_full_retention():
    assert kept_bins(spectrum_of(np.array([[3.0], [1.0], [2.0]])).data, 1.0) == [0, 1, 2]


def test_select_topk_argmax():
    assert kept_bins(spectrum_of(np.array([[0.1], [9.0], [0.2]])).data, 1 / 3) == [1]


def test_select_topk_tie_prefers_lower_index():
    assert kept_bins(spectrum_of(np.array([[5.0], [5.0], [1.0]])).data, 1 / 3) == [0]


def test_select_topk_sinusoid_period_16():
    t = np.arange(64)
    x = np.sin(2 * np.pi * t / 16)[:, None]
    assert kept_bins(naive_dft(Tensor(x)).data, 1 / 33) == [4]  # 64 / 16


def test_topk_count_floor_and_clamp():
    assert len(kept_bins(spectrum_of(np.ones((33, 1))).data, 0.4)) == 13
    assert len(kept_bins(spectrum_of(np.ones((5, 1))).data, 0.01)) == 1


# -- forward path ------------------------------------------------------------


def test_identity_weights_round_trip(rng):
    K, T = 8, 16
    params = identity_style_params(K, T)
    cfg = FacmConfig(mask_ratio=1.0, dropout_rate=0.0)
    r = rng.normal(size=(T, K))
    out = facm_apply(Tensor(r), params, cfg, training=False)[0]
    np.testing.assert_allclose(out.data, r[:, : K // 2], atol=1e-9)


def test_pure_tone_energy_concentration():
    K, T = 8, 64
    params = identity_style_params(K, T)
    c = T // 2 + 1
    cfg = FacmConfig(mask_ratio=1.0 / c, dropout_rate=0.0)  # k = 1
    t = np.arange(T)
    r = np.tile(np.sin(2 * np.pi * t / 8)[:, None], (1, K))
    out = facm_apply(Tensor(r), params, cfg, training=False)[0]
    spec = naive_dft(out)
    energy = np.abs(as_complex(spec.data)) ** 2
    target_bin = T // 8
    assert energy[target_bin].sum() / energy.sum() > 1 - 1e-9


def test_hard_masking_drops_masked_bins(rng):
    K, T = 6, 16
    params = make_facm_params(K, T, 3)
    cfg = FacmConfig(mask_ratio=0.3, dropout_rate=0.0)
    r = rng.normal(size=(T, K))
    spec = rfft(Tensor(r))
    keep = kept_bins(spec.data, cfg.mask_ratio)
    # zero the masked input bins externally; output must be identical
    full = as_complex(spec.data)
    masked = np.zeros_like(full)
    masked[keep] = full[keep]
    r_masked = irfft(spectrum_of(masked), T).data
    out1 = facm_apply(Tensor(r), params, cfg, training=False)[0].data
    out2 = facm_apply(Tensor(r_masked), params, cfg, training=False)[0].data
    np.testing.assert_allclose(out1, out2, atol=1e-9)


def test_facm_output_shape(rng):
    K, T = 8, 20
    params = make_facm_params(K, T, 0)
    out = facm_apply(
        Tensor(rng.normal(size=(T, K))), params, FacmConfig(dropout_rate=0.0)
    )[0]
    assert out.shape == (T, K // 2)


def test_reweighted_spectrum_is_the_complex_product(rng):
    # one real matmul by [[W_re, W_im], [-W_im, W_re]] plus [b_re ‖ b_im]
    # is (mask·(re + i·im)) @ (W_re + i·W_im) + (b_re + i·b_im) in complex128
    K, T, B = 8, 21, 3
    params = make_facm_params(K, T, 4)
    for name in ("facm.beta.re", "facm.beta.im"):
        params[name].data = rng.normal(size=params[name].shape)
    cfg = FacmConfig(mask_ratio=0.4, dropout_rate=0.0)
    r = rng.normal(size=(B, T, K))
    spec = np.fft.rfft(r, axis=-2)
    amp = np.abs(spec).mean(axis=-1)
    mask = np.zeros(spec.shape[:-1])
    k = int(np.floor((T // 2 + 1) * cfg.mask_ratio))
    np.put_along_axis(mask, np.argsort(-amp, axis=-1, kind="stable")[:, :k], 1.0, axis=-1)
    w = params["facm.omega.re"].data + 1j * params["facm.omega.im"].data
    beta = params["facm.beta.re"].data + 1j * params["facm.beta.im"].data
    expect = (mask[..., None] * spec) @ w + beta
    _, z = facm_apply(Tensor(r), params, cfg)
    assert z.shape == (B, T // 2 + 1, K)
    np.testing.assert_allclose(as_complex(z.data), expect, rtol=0, atol=1e-12)


def test_facm_k_mismatch(rng):
    params = make_facm_params(8, 16, 0)
    with pytest.raises(ContractError):
        facm_apply(Tensor(rng.normal(size=(16, 6))), params, FacmConfig())


def test_facm_dropout_active_in_training(rng):
    K, T = 8, 16
    params = make_facm_params(K, T, 0)
    cfg = FacmConfig(dropout_rate=0.5)
    r = Tensor(rng.normal(size=(T, K)))
    train = facm_apply(r, params, cfg, training=True, rng_seed=1)[0].data
    eval_ = facm_apply(r, params, cfg, training=False, rng_seed=1)[0].data
    assert not np.allclose(train, eval_)


def test_omega_gradient_matches_finite_differences(rng):
    K, T = 6, 10
    params = make_facm_params(K, T, 1)
    cfg = FacmConfig(mask_ratio=1.0, dropout_rate=0.0)
    r = rng.normal(size=(T, K))
    # a plain sum only probes the DC bin (omega.im would have a zero
    # gradient there); random weights engage every frequency
    weight = Tensor(rng.normal(size=(T, K // 2)))

    def objective():
        return tn.tsum(facm_apply(Tensor(r), params, cfg, training=False)[0] * weight)

    def loss() -> float:
        with tn.no_grad():
            return objective().item()

    for pname in ("facm.omega.re", "facm.omega.im"):
        param = params[pname]
        param.zero_grad()
        objective().backward()
        analytic = param.grad.copy()
        step = 1e-5
        numeric = np.zeros_like(analytic)
        it = np.nditer(analytic, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param.data[idx]
            param.data[idx] = orig + step
            hi = loss()
            param.data[idx] = orig - step
            lo = loss()
            param.data[idx] = orig
            numeric[idx] = (hi - lo) / (2 * step)
        err = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)
        assert err.max() < 1e-4, f"{pname}: {err.max()}"


# -- dual contrastive loss ---------------------------------------------------


def brute_force_info_nce(f1: np.ndarray, f2: np.ndarray) -> float:
    c = f1.shape[0]
    total = 0.0
    for j in range(c):
        pos = np.exp(f1[j] @ f2[j])
        denom = sum(np.exp(f1[j] @ f2[k]) for k in range(c))
        total += -np.log(pos / denom)
    return total / c


def test_freq_loss_single_row_is_zero(rng):
    vals = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    s1, s2 = spectrum_of(vals), spectrum_of(2 * vals)
    _, _, l_freq = freq_contrastive_loss(stacked(s1, s2), 0.5)
    assert abs(l_freq.item()) < 1e-12


def test_freq_loss_matches_brute_force(rng):
    v1 = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    v2 = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    s1, s2 = spectrum_of(v1), spectrum_of(v2)
    l_amp, l_phase, l_freq = freq_contrastive_loss(stacked(s1, s2), 0.5)
    a1, p1 = np.abs(v1), np.angle(v1)
    a2, p2 = np.abs(v2), np.angle(v2)
    assert abs(l_amp.item() - brute_force_info_nce(a1, a2)) < 1e-12
    assert abs(l_phase.item() - brute_force_info_nce(p1, p2)) < 1e-12
    assert abs(l_freq.item() - 0.5 * (l_amp.item() + l_phase.item())) < 1e-12


def test_freq_loss_lambda_endpoints(rng):
    v1 = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    v2 = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    s1, s2 = spectrum_of(v1), spectrum_of(v2)
    l_amp, l_phase, l_freq_1 = freq_contrastive_loss(stacked(s1, s2), 1.0)
    assert l_freq_1.item() == l_amp.item()
    _, _, l_freq_0 = freq_contrastive_loss(stacked(s1, s2), 0.0)
    assert l_freq_0.item() == l_phase.item()


def test_freq_loss_nonnegative(rng):
    for _ in range(5):
        v1 = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        v2 = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        _, _, l = freq_contrastive_loss(stacked(spectrum_of(v1), spectrum_of(v2)), 0.5)
        assert l.item() >= 0.0


def test_freq_loss_batch_permutation_invariance(rng):
    v1 = rng.normal(size=(3, 5, 2)) + 1j * rng.normal(size=(3, 5, 2))
    v2 = rng.normal(size=(3, 5, 2)) + 1j * rng.normal(size=(3, 5, 2))
    _, _, a = freq_contrastive_loss(stacked(spectrum_of(v1), spectrum_of(v2)), 0.5)
    perm = [2, 0, 1]
    _, _, b = freq_contrastive_loss(
        stacked(spectrum_of(v1[perm]), spectrum_of(v2[perm])), 0.5
    )
    assert abs(a.item() - b.item()) < 1e-12


def test_freq_loss_shape_mismatch(rng):
    # the views sit on a leading axis of exactly 2: three views, or one
    # view's (c, 2d) spectrum on its own, are rejected
    for shape in [(3, 4, 2), (2, 3)]:
        with pytest.raises(ContractError):
            freq_contrastive_loss(spectrum_of(rng.normal(size=shape) + 0j), 0.5)


def test_freq_loss_gradient_through_upstream(rng):
    K, T = 6, 10
    params = make_facm_params(K, T, 2)
    cfg = FacmConfig(mask_ratio=1.0, dropout_rate=0.0)
    r2 = rng.normal(size=(T, K))

    def f(r1):
        _, s1 = facm_apply(r1, params, cfg, training=False)
        _, s2 = facm_apply(Tensor(r2), params, cfg, training=False)
        _, _, l_freq = freq_contrastive_loss(stacked(s1, s2), 0.4)
        return l_freq

    err = finite_diff_check(f, Tensor(rng.normal(size=(T, K))))
    assert err < 1e-3


def test_config_validation():
    with pytest.raises(Exception):
        FacmConfig(mask_ratio=0.0)
    with pytest.raises(Exception):
        FacmConfig(lam=1.5)
