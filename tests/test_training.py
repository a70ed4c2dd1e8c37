"""Joint loss composition, SGD with momentum and decay, the epoch loop,
and checkpoint round-trips."""

import io
import tracemalloc
import zipfile
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mffftnet import ctcm as ctcm_mod
from mffftnet import facm as facm_mod
from mffftnet.augment import AugmentConfig, augment_view, draw_factors, series_stats
from mffftnet.cli import ABLATION_VARIANTS
from mffftnet.config import RunConfig
from mffftnet.ctcm import CtcmConfig
from mffftnet.encoder import BackboneConfig
from mffftnet.errors import ConfigurationError, NumericError
from mffftnet.facm import FacmConfig
from mffftnet.model import Model, ModelConfig
from mffftnet.tensor import Parameter, Tensor
from mffftnet.training import (
    Checkpoint,
    TrainConfig,
    fit,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    total_loss,
)
from tests.test_facm import stacked


def tiny_model(D=2, T=16, K=8, seed=0, gelu=False, dropout=0.0, drop=()):
    """A small model; ``drop`` names the branches (``facm``, ``ctcm``) it is
    built without."""
    cfg = ModelConfig(
        window_length=T,
        backbone=BackboneConfig(
            input_dim=D,
            hidden_dim=4,
            output_dim=K,
            num_blocks=2,
            dropout_rate=dropout,
            activation="gelu" if gelu else "silu",
        ),
        facm=FacmConfig(dropout_rate=dropout),
        ctcm=CtcmConfig(kernels=(1, 2, 4), msff_hidden=4),
    )
    return Model.build(replace(cfg, **dict.fromkeys(drop)), init_seed=seed)


def tiny_batch(rng, B=2, T=16, D=2):
    return rng.normal(size=(B, T, D))


AUG = AugmentConfig(seed=3)


# -- loss composition --------------------------------------------------------


def test_loss_recomposition(rng):
    model = tiny_model()
    batch = tiny_batch(rng)
    cfg = TrainConfig(gamma1=0.7, gamma2=1.3)
    l_total, l_time, l_freq = total_loss(batch, model, cfg, AUG, training=False)
    assert abs(l_total.item() - (0.7 * l_time.item() + 1.3 * l_freq.item())) < 1e-9


def test_disable_facm_leaves_only_time_term(rng):
    model = tiny_model(drop=("facm",))
    batch = tiny_batch(rng)
    cfg = TrainConfig(gamma1=2.0)
    l_total, l_time, l_freq = total_loss(batch, model, cfg, AUG, training=False)
    assert l_freq.item() == 0.0
    assert abs(l_total.item() - 2.0 * l_time.item()) < 1e-12


def test_disable_ctcm_leaves_only_freq_term(rng):
    model = tiny_model(drop=("ctcm",))
    batch = tiny_batch(rng)
    cfg = TrainConfig(gamma2=3.0)
    l_total, l_time, l_freq = total_loss(batch, model, cfg, AUG, training=False)
    assert l_time.item() == 0.0
    assert abs(l_total.item() - 3.0 * l_freq.item()) < 1e-12


def test_gamma2_zero_matches_time_only(rng):
    model = tiny_model()
    batch = tiny_batch(rng)
    cfg = TrainConfig(gamma2=0.0)
    l_total, l_time, _ = total_loss(batch, model, cfg, AUG, training=False)
    assert abs(l_total.item() - l_time.item()) < 1e-12


def test_disable_augmentation_views_identical(rng):
    model = tiny_model()
    batch = tiny_batch(rng)
    no_aug = AugmentConfig(alpha=0.0, beta=0.0, seed=3)
    # identical views: every positive logit dominates the same way for both
    # view terms, so the two view losses coincide
    _, l_time_a, _ = total_loss(batch, model, TrainConfig(), no_aug, step=0, training=False)
    _, l_time_b, _ = total_loss(batch, model, TrainConfig(), no_aug, step=7, training=False)
    assert l_time_a.item() == l_time_b.item()  # step only seeds the views


def test_total_loss_views_equal_per_window_draws(rng, monkeypatch):
    # one augment_view call on the stacked views gives each window the bytes
    # of its own draw, keyed 2 * step * B + 2i + v
    model, batch, step = tiny_model(), tiny_batch(rng, B=4), 3
    seen = []
    encode = Model.encode
    monkeypatch.setattr(
        Model, "encode", lambda self, x, *a, **k: seen.append(x.data) or encode(self, x, *a, **k)
    )
    total_loss(batch, model, TrainConfig(), AUG, step=step)
    want = []
    for v in (0, 1):
        for i, w in enumerate(batch):
            _, sigma = series_stats(w)
            eps_s, eps_b = draw_factors(AUG, sigma, 2 * step * len(batch) + 2 * i + v)
            want.append(eps_s * w + eps_b)
    assert seen[0].tobytes() == np.stack(want).reshape(seen[0].shape).tobytes()


def two_pass_loss(batch, model, cfg, aug_cfg, step):
    """``total_loss`` in eval mode, one graph per view: the reference for
    the stacked single-graph path."""
    base = 2 * step * len(batch)
    views = [
        np.stack([augment_view(w, aug_cfg, base + 2 * i + v) for i, w in enumerate(batch)])
        for v in (0, 1)
    ]
    rs = [model.encode(Tensor(v)) for v in views]
    if model.config.facm is None:
        l_freq = Tensor(0.0)
        h_hats = [Tensor(np.zeros(r.shape[:-1] + (r.shape[-1] // 2,))) for r in rs]
    else:
        (h1, s1), (h2, s2) = (model.facm(r) for r in rs)
        h_hats = [h1, h2]
        _, _, l_freq = facm_mod.freq_contrastive_loss(stacked(s1, s2), model.config.facm.lam)
    if model.config.ctcm is None:
        l_time = Tensor(0.0)
    else:
        l_time = (
            ctcm_mod.time_contrastive_loss(rs[0], model.fuse(model.ctcm(rs[0]), h_hats[0]))
            + ctcm_mod.time_contrastive_loss(rs[1], model.fuse(model.ctcm(rs[1]), h_hats[1]))
        ) * 0.5
    return l_time * cfg.gamma1 + l_freq * cfg.gamma2, l_time, l_freq


@pytest.mark.parametrize("variant", ["full", "wo-fm", "wo-cm", "wo-da"])
def test_stacked_views_match_two_pass_reference(rng, variant):
    drop, overrides = ABLATION_VARIANTS[variant]
    model = tiny_model(drop=drop)
    for name in ("facm.beta.re", "facm.beta.im"):
        if name in model.params:
            model.params[name].data += 0.05 * rng.normal(size=model.params[name].shape)
    batch = tiny_batch(rng, B=3)
    cfg = TrainConfig(gamma1=0.7, gamma2=1.3)
    aug = AugmentConfig(
        alpha=overrides.get("augment.alpha", AUG.alpha),
        beta=overrides.get("augment.beta", AUG.beta),
        seed=AUG.seed,
    )

    def run(loss_fn):
        losses = loss_fn(batch, model, cfg, aug, step=5)
        model.zero_grad()
        losses[0].backward()
        grads = {n: p.grad for n, p in model.params.items()}
        return [l.item() for l in losses], grads

    stacked, stacked_grads = run(partial(total_loss, training=False))
    reference, reference_grads = run(two_pass_loss)
    for got, want in zip(stacked, reference):
        assert abs(got - want) <= 1e-12 * abs(want)
    # a bias whose shift cancels in the softmax (fuse.b, ctcm.proj.b, ...)
    # has a gradient that is zero up to rounding, so each parameter's scale
    # is floored at a thousandth of the largest gradient
    top = max(np.abs(g).max() for g in reference_grads.values() if g is not None)
    for name, want in reference_grads.items():
        got = stacked_grads[name]
        if want is None:
            assert got is None, name
            continue
        scale = max(np.abs(want).max(), 1e-3 * top)
        assert np.abs(got - want).max() <= 1e-12 * scale, name


def test_full_path_gradient_matches_finite_differences(rng):
    model = tiny_model()
    # beta starts at zero, which leaves masked spectrum bins exactly at the
    # origin where amplitude and phase are not differentiable; nudge it off
    # zero so every probe point is smooth
    for name in ("facm.beta.re", "facm.beta.im"):
        model.params[name].data += 0.05 * rng.normal(size=model.params[name].shape)
    batch = tiny_batch(rng)
    cfg = TrainConfig()

    def loss_value() -> float:
        from mffftnet import tensor as tn

        with tn.no_grad():
            l_total, _, _ = total_loss(batch, model, cfg, AUG, training=False)
            return l_total.item()

    l_total, _, _ = total_loss(batch, model, cfg, AUG, training=False)
    model.zero_grad()
    l_total.backward()
    step = 1e-5
    worst = 0.0
    check_rng = np.random.default_rng(0)
    for name, p in sorted(model.params.items()):
        if p.grad is None:
            continue
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        # spot-check a handful of coordinates per parameter
        for idx in check_rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = loss_value()
            flat[idx] = orig - step
            lo = loss_value()
            flat[idx] = orig
            numeric = (hi - lo) / (2 * step)
            if abs(grad[idx]) < 1e-6 and abs(numeric) < 1e-6:
                # the loss is ~1e4 here, so central differences carry ~1e-7
                # of cancellation noise; both values sitting under that
                # floor means "zero gradient", not a mismatch
                continue
            rel = abs(grad[idx] - numeric) / (abs(grad[idx]) + 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-3, worst


def test_paper_shaped_step_is_finite():
    # default dimensions (T=201, K=320, kernels 1..128, MSFF hidden 96) at
    # B=2; numpy overflow, invalid values and division by zero all raise
    cfg = RunConfig.resolve("paper")
    model = Model.build(cfg.model_config(input_dim=7))
    batch = np.random.default_rng(0).normal(size=(2, int(cfg["window.length"]), 7))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        losses = total_loss(batch, model, cfg.train_config(), cfg.augment_config())
        losses[0].backward()
    assert all(np.isfinite(loss.item()) for loss in losses)
    for name, p in model.params.items():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name


def test_backward_leaves_no_graph_behind():
    # one desk-profile step: the forward pass builds ~11 MB of graph, and
    # once backward has run, only the parameter gradients stay alive
    cfg = RunConfig.resolve("desk")
    model = Model.build(cfg.model_config(input_dim=2))
    train_cfg = cfg.train_config()
    batch = np.random.default_rng(0).normal(
        size=(train_cfg.batch_size, int(cfg["window.length"]), 2)
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = total_loss(batch, model, train_cfg, cfg.augment_config())[0]
        loss.backward()
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item())
    assert live < 1e6, f"{live / 1e6:.2f} MB alive after backward"


# -- optimizer ---------------------------------------------------------------


def test_sgd_vanilla_step():
    p = Parameter(np.array([1.0, 2.0]), name="w")
    p.grad = np.array([0.5, -0.5])
    sgd_step([p], {}, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [0.95, 2.05])


def test_sgd_momentum_accumulates():
    p = Parameter(np.array([0.0]), name="w")
    vel = {}
    for _ in range(2):
        p.grad = np.array([1.0])
        sgd_step([p], vel, lr=1.0, momentum=0.5, weight_decay=0.0)
    # v1 = 1 -> p = -1; v2 = 0.5 + 1 = 1.5 -> p = -2.5
    np.testing.assert_allclose(p.data, [-2.5])


def test_sgd_weight_decay_factor():
    p = Parameter(np.array([10.0]), name="w")
    p.grad = np.array([0.0])
    sgd_step([p], {}, lr=0.1, momentum=0.0, weight_decay=0.01)
    np.testing.assert_allclose(p.data, [10.0 * (1 - 0.1 * 0.01)])


def test_sgd_exempt_parameter_skips_decay():
    p = Parameter(np.array([10.0]), name="b", weight_decay_exempt=True)
    p.grad = np.array([0.0])
    sgd_step([p], {}, lr=0.1, momentum=0.0, weight_decay=0.01)
    np.testing.assert_allclose(p.data, [10.0])


def test_sgd_none_grad_treated_as_zero():
    p = Parameter(np.array([3.0]), name="b", weight_decay_exempt=True)
    p.grad = None
    sgd_step([p], {}, lr=0.1, momentum=0.9, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [3.0])


def test_sgd_quadratic_bowl_converges():
    p = Parameter(np.array([5.0]), name="w")
    vel = {}
    values = []
    for _ in range(200):
        p.grad = 2 * p.data  # d/dp p^2
        sgd_step([p], vel, lr=0.05, momentum=0.9, weight_decay=0.0)
        values.append(abs(p.data[0]))
    assert values[-1] < 1e-3


# -- epoch loop --------------------------------------------------------------


def test_fit_zero_epochs(rng):
    model = tiny_model()
    wins = tiny_batch(rng, B=4)
    assert fit(wins, model, TrainConfig(epochs=0, batch_size=2), AUG) == []


def test_fit_insufficient_windows(rng):
    model = tiny_model()
    with pytest.raises(ConfigurationError):
        fit(tiny_batch(rng, B=1), model, TrainConfig(batch_size=2), AUG)


def test_fit_divergence_names_op_and_step(rng):
    wins = tiny_batch(rng, B=4)
    cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=1e100)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match=r"output of shape \(.*\) at epoch 0, step 1$"
    ):
        fit(wins, tiny_model(), cfg, AUG)


def test_batch_size_below_one_rejected():
    with pytest.raises(ConfigurationError, match="inside one window"):
        TrainConfig(batch_size=0)


def test_batch_loss_is_mean_of_one_window_losses(rng):
    # each InfoNCE draws its negatives from inside one window, so with the
    # views equal to the window and no dropout, windows do not interact
    model, batch = tiny_model(), tiny_batch(rng, B=2)
    no_aug = AugmentConfig(alpha=0.0, beta=0.0, seed=3)
    pair = total_loss(batch, model, TrainConfig(), no_aug)
    singles = [total_loss(batch[i : i + 1], model, TrainConfig(), no_aug) for i in (0, 1)]
    for k, got in enumerate(pair):
        want = (singles[0][k].item() + singles[1][k].item()) / 2
        assert abs(got.item() - want) <= 1e-12 * abs(want), k


def test_fit_deterministic(rng):
    wins = tiny_batch(rng, B=4)
    cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=1e-7, seed=5)
    m1 = tiny_model(seed=1)
    h1 = fit(wins, m1, cfg, AUG)
    m2 = tiny_model(seed=1)
    h2 = fit(wins, m2, cfg, AUG)
    assert h1 == h2
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)


def test_fit_history_schema(rng):
    wins = tiny_batch(rng, B=4)
    hist = fit(
        wins,
        tiny_model(),
        TrainConfig(epochs=3, batch_size=2, learning_rate=1e-7),
        AUG,
    )
    assert [h["epoch"] for h in hist] == [0, 1, 2]
    assert all(
        set(h) == {"epoch", "loss_total", "loss_time", "loss_freq"} for h in hist
    )
    assert all(np.isfinite(h["loss_total"]) for h in hist)


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    model = tiny_model(seed=4)
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, "cfg-text", epoch=7, step=99)
    ck = load_checkpoint(path)
    assert ck.config_text == "cfg-text" and ck.epoch == 7 and ck.step == 99
    assert set(ck.params) == set(model.params)
    for name, arr in ck.params.items():
        np.testing.assert_array_equal(arr, model.params[name].data)
    assert ck.exempt == {
        n for n, p in model.params.items() if p.weight_decay_exempt
    }


def test_checkpoint_save_load_save_bitwise(tmp_path):
    model = tiny_model(seed=4)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, model, "t", epoch=1, step=2)
    ck = load_checkpoint(a)
    model2 = tiny_model(seed=9)
    model2.load_state(ck.params)
    save_checkpoint(b, model2, ck.config_text, ck.epoch, ck.step)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_checkpoint_corruption_raises_configuration_error(tmp_path):
    # truncations, a seeded sample of bit flips, and trailing junk
    # either load or raise ConfigurationError, never another exception
    path = tmp_path / "m.bin"
    save_checkpoint(path, tiny_model(seed=4), "cfg-text", epoch=1, step=2)
    raw = path.read_bytes()
    rng = np.random.default_rng(0)
    flips = []
    for i in rng.integers(0, len(raw), size=1000):
        b = bytearray(raw)
        b[i] ^= 1 << int(rng.integers(0, 8))
        flips.append(bytes(b))
    cases = [raw[:n] for n in range(0, len(raw), 5)] + flips + [raw + b"junk"]
    for case in cases:
        path.write_bytes(case)
        try:
            load_checkpoint(path)
        except ConfigurationError:
            pass
    for case in (raw[: len(raw) // 2], raw + b"junk"):
        path.write_bytes(case)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    cut=st.integers(0, 2**20),
    flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 7)), max_size=6),
    tail=st.binary(max_size=12),
)
def test_checkpoint_fuzz_raises_only_configuration_error(tmp_path, cut, flips, tail):
    # any truncation, then bit flips, then trailing bytes: the file either
    # loads or raises ConfigurationError
    path = tmp_path / "m.bin"
    save_checkpoint(path, tiny_model(seed=4), "cfg-text", epoch=1, step=2)
    raw = path.read_bytes()
    case = bytearray(raw[: cut % (len(raw) + 1)])
    for at, bit in flips:
        if case:
            case[at % len(case)] ^= 1 << bit
    path.write_bytes(bytes(case) + tail)
    try:
        load_checkpoint(path)
    except ConfigurationError:
        pass


def test_checkpoint_rank_past_numpy_limit_raises_configuration_error(tmp_path):
    # a parameter member whose npy header declares 65 unit axes: its 8-byte
    # blob is all there, but numpy makes no array of that rank
    path = tmp_path / "m.bin"
    save_checkpoint(path, tiny_model(seed=4), "cfg-text")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (1,) * 65}
    )
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("w.npy", header.getvalue() + bytes(8))
    with pytest.raises(ConfigurationError, match="corrupt checkpoint"):
        load_checkpoint(path)


def test_checkpoint_is_a_plain_npz(tmp_path):
    # numpy alone reads it: the fixed members, then one <f8 array per
    # parameter in name order, stored uncompressed
    model = tiny_model(seed=4)
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, "cfg-text\nsecond line", epoch=7, step=99)
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["version", "config", "counters", "exempt", *sorted(model.params)]
        members = {name: npz[name] for name in npz.files}
    assert members["version"].dtype == "<u8" and members["version"] == 2
    assert members["config"].item() == "cfg-text\nsecond line"
    assert members["counters"].dtype == "<u8" and members["counters"].tolist() == [7, 99]
    assert members["exempt"].tolist() == sorted(
        n for n, p in model.params.items() if p.weight_decay_exempt
    )
    for name, p in model.params.items():
        assert members[name].dtype == "<f8"
        np.testing.assert_array_equal(members[name], p.data)
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}


def rewrite_checkpoint(path, drop=(), **members):
    """Write the checkpoint at ``path`` again with ``members`` set and the
    ``drop`` members left out."""
    with np.load(path, allow_pickle=False) as npz:
        kept = {name: npz[name] for name in npz.files if name not in drop}
    with open(path, "wb") as fh:
        np.savez(fh, **{**kept, **members})


@pytest.mark.parametrize(
    "drop, members, needle",
    [
        ((), {"version": np.array(3, "<u8")}, "unsupported checkpoint version 3"),
        ((), {"version": np.array(2, "<i8")}, "member 'version' is not <u8 data"),
        (("config",), {}, "member 'config' is not <U data"),
        ((), {"counters": np.array([1, 2, 3], "<u8")}, "counters"),
        ((), {"exempt": np.array(["no.such"])}, "exempt names"),
        ((), {"notes": np.array("text")}, "member 'notes' is not <f8 data"),
        ((), {"fuse.w": np.zeros((2, 2), "<f4")}, "member 'fuse.w' is not <f8 data"),
        ((), {"fuse.w": np.zeros((2, 2), ">f8")}, "member 'fuse.w' is not <f8 data"),
        # a pickled member is refused, not unpickled
        ((), {"notes": np.array([{"a": 1}], dtype=object)}, "corrupt checkpoint"),
    ],
    ids=["version-3", "version-int64", "no-config", "three-counters", "unknown-exempt",
         "text-parameter", "float32-parameter", "big-endian-parameter", "object-member"],
)
def test_checkpoint_bad_member_raises_configuration_error(tmp_path, drop, members, needle):
    path = tmp_path / "m.bin"
    save_checkpoint(path, tiny_model(seed=4), "cfg-text", epoch=1, step=2)
    rewrite_checkpoint(path, drop, **members)
    with pytest.raises(ConfigurationError, match=needle):
        load_checkpoint(path)


def test_checkpoint_load_peak_is_the_arrays_and_one_read_buffer(tmp_path):
    # no copy of the file is held while the arrays are read: a desk
    # checkpoint traces its parameter bytes plus numpy's 256 KiB read buffer
    cfg = RunConfig.resolve("desk")
    model = Model.build(cfg.model_config(2), init_seed=0)
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, cfg.to_canonical_text())
    tracemalloc.start()
    try:
        ckpt = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(arr.nbytes for arr in ckpt.params.values())
    assert peak < nbytes + 2**18 + 2**16, f"{peak / 1e6:.3f} MB traced for {nbytes / 1e6:.3f} MB"


def test_load_state_mismatch_raises_configuration_error():
    model = tiny_model(seed=4)
    state = model.state_arrays()
    with pytest.raises(ConfigurationError, match="shape"):
        tiny_model(D=3, seed=4).load_state(state)
    del state["backbone.lin.w"]
    with pytest.raises(ConfigurationError, match="missing"):
        model.load_state(state)


def test_config_rejects_negative_weights():
    with pytest.raises(ConfigurationError):
        TrainConfig(gamma1=-0.1)
