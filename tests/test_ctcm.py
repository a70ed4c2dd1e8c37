"""Time-domain module: multi-scale causal stack, MSFF collapse, fusion,
and the per-timestep contrastive loss."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from mffftnet import ctcm as ctcm_mod
from mffftnet import tensor as tn
from mffftnet.config import RunConfig
from mffftnet.ctcm import (
    CtcmConfig,
    composite_conv,
    ctcm_forward,
    fuse,
    make_ctcm_params,
    time_contrastive_loss,
)
from mffftnet.errors import ConfigurationError, ContractError, ParameterError
from mffftnet.model import Model
from mffftnet.tensor import Tensor
from mffftnet.training import total_loss
from tests.oracles import finite_diff_check, msff, multiscale_conv


def small_setup(K=8, kernels=(1, 2, 4), msff_hidden=4, seed=0):
    cfg = CtcmConfig(kernels=kernels, msff_hidden=msff_hidden)
    return cfg, make_ctcm_params(K, cfg, seed)


# -- multiscale_conv ---------------------------------------------------------


def test_kernel1_identity_weights(rng):
    K = 4
    cfg, params = small_setup(K=K, kernels=(1,))
    params["ctcm.scale1.w"].data = np.eye(K)[None]
    params["ctcm.scale1.b"].data[:] = 0.0
    r = rng.normal(size=(10, K))
    h_d = multiscale_conv(Tensor(r), params, cfg.kernels)
    np.testing.assert_allclose(h_d.data[0], r, atol=1e-12)


def test_default_kernel_list_has_eight_scales(rng):
    K = 4
    cfg = CtcmConfig()
    assert cfg.kernels == (1, 2, 4, 8, 16, 32, 64, 128)
    params = make_ctcm_params(K, cfg, 0)
    h_d = multiscale_conv(Tensor(rng.normal(size=(128, K))), params, cfg.kernels)
    assert h_d.shape == (8, 128, K)


def test_multiscale_causality(rng):
    K = 4
    cfg, params = small_setup(K=K)
    r = rng.normal(size=(12, K))
    base = multiscale_conv(Tensor(r), params, cfg.kernels).data
    t = 5
    r2 = r.copy()
    r2[t] += 1.0
    out = multiscale_conv(Tensor(r2), params, cfg.kernels).data
    assert np.allclose(out[..., :t, :], base[..., :t, :], atol=1e-12)
    assert not np.allclose(out[..., t:, :], base[..., t:, :])


def test_multiscale_finite_differences(rng):
    kernels = (1, 2, 4)
    cfg, params = small_setup(K=3, kernels=kernels)
    r = rng.normal(size=(2, 6, 3))
    g = Tensor(rng.normal(size=(2, 3, 6, 3)))

    def f_r(t):
        return tn.tsum(multiscale_conv(t, params, kernels) * g)

    def f_w(t):
        return tn.tsum(multiscale_conv(Tensor(r), {**params, "ctcm.scale4.w": t}, kernels) * g)

    for f, x in ((f_r, r), (f_w, params["ctcm.scale4.w"].data)):
        err = finite_diff_check(f, Tensor(x.copy()))
        assert err < 1e-6, f"finite-difference rel. error {err}"


def test_kernel_longer_than_window(rng):
    cfg, params = small_setup(kernels=(1, 16))
    with pytest.raises(ParameterError, match="16"):
        multiscale_conv(Tensor(rng.normal(size=(8, 8))), params, cfg.kernels)


# -- msff --------------------------------------------------------------------


def test_msff_zero_input_zero_output():
    cfg, params = small_setup()
    h_d = Tensor(np.zeros((3, 10, 8)))
    out = msff(h_d, params)
    np.testing.assert_array_equal(out.data, np.zeros((10, 4)))


def test_msff_full_scale_shape(rng):
    cfg = CtcmConfig(msff_hidden=96)
    params = make_ctcm_params(320, cfg, 0)
    out = msff(Tensor(rng.normal(size=(8, 48, 320)) * 0.1), params)
    assert out.shape == (48, 160)


def test_msff_gradient(rng):
    cfg, params = small_setup(K=4, msff_hidden=3)
    weight = Tensor(rng.normal(size=(6, 2)))

    def f(h_d):
        return tn.tsum(msff(h_d, params) * weight)

    err = finite_diff_check(f, Tensor(rng.normal(size=(3, 6, 4))))
    assert err < 1e-4


# -- composite_conv ----------------------------------------------------------


def unfused_front_end(r, params, kernels):
    """The scale stack, then MSFF's 3x3 conv and bias: what composite_conv folds."""
    z = tn.conv2d(multiscale_conv(r, params, kernels), params["ctcm.msff.conv1.w"])
    return z + params["ctcm.msff.conv1.b"]


def random_biases(rng, params, kernels, K, H):
    for kj in kernels:
        params[f"ctcm.scale{kj}.b"].data = rng.normal(size=K)
    params["ctcm.msff.conv1.b"].data = rng.normal(size=H)


def composite_param_names(kernels):
    """The parameters composite_conv reads."""
    names = [f"ctcm.scale{kj}.{part}" for kj in kernels for part in "wb"]
    return names + ["ctcm.msff.conv1.w", "ctcm.msff.conv1.b"]


@pytest.mark.parametrize(
    "kernels,T,K,H",
    [
        ((1, 2, 4, 8, 16), 64, 32, 16),
        ((1, 2, 4, 8, 16, 32, 64, 128), 130, 3, 4),
        ((4,), 9, 4, 3),
        ((1,), 1, 4, 3),
        ((1, 2), 2, 4, 3),
        ((3, 5), 5, 4, 3),
    ],
    ids=["desk", "paper-kernels", "one-scale", "T1", "T2", "kernel-equals-T"],
)
def test_composite_conv_matches_unfused(rng, kernels, T, K, H):
    cfg, params = small_setup(K=K, kernels=kernels, msff_hidden=H)
    random_biases(rng, params, kernels, K, H)
    r = rng.normal(size=(2, 3, T, K))
    g = rng.normal(size=(2, 3, len(kernels), T, H))
    names = composite_param_names(kernels)
    results = []
    for front_end in (composite_conv, unfused_front_end):
        rt = Tensor(r, requires_grad=True)
        for p in params.values():
            p.zero_grad()
        out = front_end(rt, params, cfg.kernels)
        tn.tsum(out * Tensor(g)).backward()
        results.append([out.data, rt.grad] + [params[n].grad for n in names])
    for got, want in zip(*results):
        scale = max(1.0, np.abs(want).max())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_composite_conv_finite_differences(rng):
    kernels, K, H = (1, 2, 4), 3, 2
    cfg, params = small_setup(K=K, kernels=kernels, msff_hidden=H)
    random_biases(rng, params, kernels, K, H)
    r = rng.normal(size=(2, 6, K))
    g = Tensor(rng.normal(size=(2, 3, 6, H)))

    def loss(x, name=None):
        if name is None:
            return tn.tsum(composite_conv(x, params, kernels) * g)
        return tn.tsum(composite_conv(Tensor(r), {**params, name: x}, kernels) * g)

    err = finite_diff_check(loss, Tensor(r.copy()))
    assert err < 1e-6, f"r: finite-difference rel. error {err}"
    for name in ("ctcm.scale4.w", "ctcm.scale2.b", "ctcm.msff.conv1.w", "ctcm.msff.conv1.b"):
        err = finite_diff_check(partial(loss, name=name), Tensor(params[name].data.copy()))
        assert err < 1e-6, f"{name}: finite-difference rel. error {err}"


# -- kn2row blocking -----------------------------------------------------------


def _composite_case(kernels, T, K, H):
    def make(rng):
        _, params = small_setup(K=K, kernels=kernels, msff_hidden=H)
        random_biases(rng, params, kernels, K, H)
        r = Tensor(rng.normal(size=(2, 3, T, K)), requires_grad=True)
        leaves = [r] + [params[name] for name in composite_param_names(kernels)]
        return leaves, lambda: composite_conv(r, params, kernels), H
    return make


def _tap_op_case(op, x_shape, w_shape, **kw):
    def make(rng):
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        return [x, w], lambda: op(x, w, **kw), w_shape[-1]
    return make


# each case builds (gradient leaves, forward, Cout)
KN2ROW_CASES = {
    "composite-desk": _composite_case((1, 2, 4, 8, 16), 64, 32, 16),
    "composite-kernel-equals-T": _composite_case((3, 5), 5, 4, 3),
    "conv1d-dilation-2": _tap_op_case(tn.causal_conv1d, (2, 3, 20, 4), (3, 4, 5), dilation=2),
    "conv2d": _tap_op_case(tn.conv2d, (2, 3, 5, 6, 4), (3, 3, 4, 5)),
}


@pytest.mark.parametrize("case", list(KN2ROW_CASES))
def test_kn2row_one_window_one_tap_matches_default_blocking(monkeypatch, rng, case):
    leaves, forward, cout = KN2ROW_CASES[case](rng)
    g = Tensor(rng.normal(size=forward().shape))

    def grads():
        for leaf in leaves:
            leaf.grad = None
        tn.tsum(forward() * g).backward()
        return [leaf.grad for leaf in leaves]

    want = grads()
    monkeypatch.setattr(tn, "_BLOCK_ELEMS", 1)  # one window per chunk
    monkeypatch.setattr(tn, "_BLOCK_COLS", cout)  # one tap per block
    for got, ref in zip(grads(), want):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_kn2row_taps_sharing_an_index_add_their_gradients(rng):
    # taps 0 and 1 both read W[0], at shifts 0 and 2; W[1] has one tap. gW
    # starts from G0, and each index receives G0 plus all its taps' sums
    x, g, W = rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 6, 5)), rng.normal(size=(2, 4, 5))
    whole = slice(None)
    taps = [(0, (..., slice(0, 6)), (..., slice(0, 6), whole)),
            (0, (..., slice(0, 4)), (..., slice(2, 6), whole)),
            (1, (..., slice(1, 6)), (..., slice(0, 5), whole))]
    G0 = rng.normal(size=W.shape)
    gW, gx = G0.copy(), np.zeros(x.shape)
    tn._kn2row(x, g, W, gW, taps, gx)
    want_gW, want_gx = G0.copy(), np.zeros(x.shape)
    for i, src, dst in taps:
        want_gW[i] += np.einsum("nsc,nso->co", x[src + (whole,)], g[dst])
        want_gx[src + (whole,)] += g[dst] @ W[i].T
    np.testing.assert_allclose(gW, want_gW, rtol=0, atol=1e-12 * np.abs(want_gW).max())
    np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12 * np.abs(want_gx).max())


def test_one_row_composition_blocks_match_default_blocking(monkeypatch, rng):
    # at desk shape each scale's weights are one composition block; one-row
    # blocks give every scale several. A V row adds its taps in tap order
    # whatever the blocks, so V matches bit for bit; w1's gradient sums per
    # row block, so the gradients match within rounding
    leaves, forward, _ = KN2ROW_CASES["composite-desk"](rng)
    g = Tensor(rng.normal(size=forward().shape))
    composed, compose = [], ctcm_mod._compose
    monkeypatch.setattr(ctcm_mod, "_compose", lambda *a: composed.append(compose(*a)) or composed[-1])

    def run():
        for leaf in leaves:
            leaf.grad = None
        tn.tsum(forward() * g).backward()
        return composed[-1].data, [leaf.grad for leaf in leaves]

    want_V, want = run()
    monkeypatch.setattr(ctcm_mod, "_COMPOSE_ELEMS", 1)
    V, got = run()
    assert V.tobytes() == want_V.tobytes()
    for value, ref in zip(got, want):
        np.testing.assert_allclose(value, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def composite_backward_memory(lead):
    """Traced peak of the backward pass through composite_conv's subgraph,
    above the memory held after the forward pass, and the bytes of the
    gradients it leaves (the output's included), at desk shape."""
    kernels, T, K, H = (1, 2, 4, 8, 16), 64, 32, 16
    _, params = small_setup(K=K, kernels=kernels, msff_hidden=H)
    rng = np.random.default_rng(0)
    r = Tensor(rng.normal(size=lead + (T, K)), requires_grad=True)
    out = composite_conv(r, params, kernels)
    loss = tn.tsum(out)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = out.grad.nbytes + r.grad.nbytes
    kept += sum(params[n].grad.nbytes for n in composite_param_names(kernels))
    return peak - base, kept


def test_composite_backward_working_memory_does_not_grow_with_batch():
    # unchunked, the kn2row block alone went 7.3 -> 29.4 MB here
    peak_8, kept_8 = composite_backward_memory((2, 8))
    peak_32, kept_32 = composite_backward_memory((2, 32))
    assert peak_32 - peak_8 <= kept_32 - kept_8 + 0.5e6, (peak_8, peak_32, kept_8, kept_32)


def test_composite_taps_read_parameters_only(rng, monkeypatch):
    # the output's first parent is the taps' node, whose parents are the
    # nodes of r and of V; the tape holds nodes, so V's data is caught as
    # _compose returns it
    kernels, K, H = (1, 2, 4), 4, 3
    _, params = small_setup(K=K, kernels=kernels, msff_hidden=H)
    random_biases(rng, params, kernels, K, H)
    names = [f"ctcm.scale{kj}.w" for kj in kernels] + ["ctcm.msff.conv1.w"]
    composed = []
    compose = ctcm_mod._compose
    monkeypatch.setattr(ctcm_mod, "_compose", lambda *a: composed.append(compose(*a)) or composed[-1])
    taps = []
    for lead in ((2, 3), (2, 7)):
        r = Tensor(rng.normal(size=lead + (9, K)), requires_grad=True)
        x, V = composite_conv(r, params, kernels)._node.parents[0].parents
        assert x is r._node and V is composed[-1]._node
        assert len(V.parents) == len(names)
        assert all(p is params[name]._node for p, name in zip(V.parents, names))
        taps.append(composed[-1].data.tobytes())
    assert taps[0] == taps[1]


def training_step(profile, B, seed):
    """Loss and every parameter gradient of one training step of ``profile``."""
    cfg = RunConfig.resolve(profile, flag_overrides={"train.batch_size": B})
    T = int(cfg["window.length"])
    model = Model.build(cfg.model_config(3), init_seed=seed)
    batch = np.random.default_rng(seed).normal(size=(B, T, 3))
    loss, _, _ = total_loss(batch, model, cfg.train_config(), cfg.augment_config())
    loss.backward()
    return loss.item(), {p.name: p.grad for p in model.parameters()}


@pytest.mark.parametrize("profile,B", [("desk", 8), ("paper", 2)])
def test_training_step_matches_unfused(monkeypatch, profile, B):
    loss, grads = training_step(profile, B, seed=1)
    monkeypatch.setattr(ctcm_mod, "composite_conv", unfused_front_end)
    ref_loss, ref_grads = training_step(profile, B, seed=1)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    floor = 1e-3 * max(np.abs(g).max() for g in ref_grads.values())
    for name, ref in ref_grads.items():
        err = np.abs(grads[name] - ref).max() / max(np.abs(ref).max(), floor)
        assert err <= 1e-12, f"{name}: {err}"


# -- ctcm_forward ------------------------------------------------------------


def test_forward_shape(rng):
    cfg, params = small_setup(K=8)
    out = ctcm_forward(Tensor(rng.normal(size=(16, 8))), cfg, params)
    assert out.shape == (16, 4)


def test_kernel_removal_is_pure_config_change(rng):
    K = 8
    r = Tensor(rng.normal(size=(16, K)))
    for kernels in ((1, 2, 4), (1, 2), (1, 4)):
        cfg, params = small_setup(K=K, kernels=kernels)
        out = ctcm_forward(r, cfg, params)
        assert out.shape == (16, K // 2)


def test_forward_kernel_longer_than_window(rng):
    cfg, params = small_setup(kernels=(1, 16))
    with pytest.raises(ParameterError, match="16"):
        ctcm_forward(Tensor(rng.normal(size=(8, 8))), cfg, params)


def test_forward_deterministic(rng):
    cfg, params = small_setup()
    r = Tensor(rng.normal(size=(12, 8)))
    a = ctcm_forward(r, cfg, params).data
    b = ctcm_forward(r, cfg, params).data
    np.testing.assert_array_equal(a, b)


# -- fuse --------------------------------------------------------------------


def test_fuse_identity_weights(rng):
    K = 8
    cfg, params = small_setup(K=K)
    params["fuse.w"].data = np.eye(K)
    params["fuse.b"].data[:] = 0.0
    a = rng.normal(size=(6, K // 2))
    b = rng.normal(size=(6, K // 2))
    out = fuse(Tensor(a), Tensor(b), params)
    np.testing.assert_allclose(out.data, np.concatenate([a, b], axis=-1), atol=1e-12)


def test_fuse_full_scale_shape(rng):
    cfg = CtcmConfig(msff_hidden=96)
    params = make_ctcm_params(320, cfg, 0)
    out = fuse(
        Tensor(rng.normal(size=(48, 160))), Tensor(rng.normal(size=(48, 160))), params
    )
    assert out.shape == (48, 320)


def test_fuse_gradient_reaches_both_inputs(rng):
    cfg, params = small_setup()
    a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    tn.tsum(fuse(a, b, params)).backward()
    assert np.linalg.norm(a.grad) > 0 and np.linalg.norm(b.grad) > 0


def test_fuse_length_mismatch(rng):
    cfg, params = small_setup()
    with pytest.raises(ContractError):
        fuse(Tensor(np.zeros((6, 4))), Tensor(np.zeros((5, 4))), params)


# -- time contrastive loss ---------------------------------------------------


def brute_force_time_loss(r: np.ndarray, h: np.ndarray) -> float:
    T = r.shape[0]
    total = 0.0
    for t in range(T):
        pos = np.exp(r[t] @ h[t])
        denom = sum(np.exp(r[t] @ h[u]) for u in range(T))
        total += -np.log(pos / denom)
    return total


def test_time_loss_single_timestep_is_zero(rng):
    r = Tensor(rng.normal(size=(1, 4)))
    h = Tensor(rng.normal(size=(1, 4)))
    assert abs(time_contrastive_loss(r, h).item()) < 1e-12


def test_time_loss_matches_brute_force(rng):
    r = rng.normal(size=(3, 4))
    h = rng.normal(size=(3, 4))
    got = time_contrastive_loss(Tensor(r), Tensor(h)).item()
    assert abs(got - brute_force_time_loss(r, h)) < 1e-12


def test_time_loss_time_swap_invariance(rng):
    r = rng.normal(size=(5, 4))
    h = rng.normal(size=(5, 4))
    a = time_contrastive_loss(Tensor(r), Tensor(h)).item()
    perm = [1, 0, 2, 4, 3]
    b = time_contrastive_loss(Tensor(r[perm]), Tensor(h[perm])).item()
    assert abs(a - b) < 1e-12


def test_time_loss_nonnegative(rng):
    for _ in range(5):
        r = Tensor(rng.normal(size=(6, 3)))
        h = Tensor(rng.normal(size=(6, 3)))
        assert time_contrastive_loss(r, h).item() >= 0.0


def test_time_loss_batch_mean(rng):
    r = rng.normal(size=(2, 4, 3))
    h = rng.normal(size=(2, 4, 3))
    batched = time_contrastive_loss(Tensor(r), Tensor(h)).item()
    singles = [brute_force_time_loss(r[b], h[b]) for b in range(2)]
    assert abs(batched - np.mean(singles)) < 1e-12


def test_time_loss_shape_mismatch(rng):
    with pytest.raises(ContractError):
        time_contrastive_loss(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))))


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CtcmConfig(kernels=())
    with pytest.raises(ConfigurationError):
        CtcmConfig(kernels=(2, 2))
    with pytest.raises(ConfigurationError):
        CtcmConfig(kernels=(0, 1))
