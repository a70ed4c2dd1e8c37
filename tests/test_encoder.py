"""Backbone encoder: shape and causality contracts, initialization, and
the activation ablation switch."""

import numpy as np
import pytest

from mffftnet import encoder as enc
from mffftnet.config import RunConfig
from mffftnet.encoder import BackboneConfig, encode, make_backbone
from mffftnet.errors import ConfigurationError, DimensionError
from mffftnet.tensor import Tensor


def small_cfg(**kw):
    base = dict(input_dim=2, hidden_dim=4, output_dim=8, num_blocks=3, kernel_size=3)
    base.update(kw)
    return BackboneConfig(**base)


def test_zero_parameters_give_zero_output(rng):
    cfg = small_cfg()
    params = make_backbone(cfg, 0)
    for p in params.values():
        p.data = np.zeros_like(p.data)
    out = encode(Tensor(rng.normal(size=(10, 2))), params, cfg)
    np.testing.assert_array_equal(out.data, np.zeros((10, 8)))


def test_full_scale_shape(rng):
    cfg = BackboneConfig(input_dim=7, hidden_dim=32, output_dim=320, num_blocks=8)
    params = make_backbone(cfg, 0)
    out = encode(Tensor(rng.normal(size=(48, 7))), params, cfg)
    assert out.shape == (48, 320)


def test_length_preserved_for_many_lengths(rng):
    cfg = small_cfg()
    params = make_backbone(cfg, 0)
    for T in (1, 2, 5, 17, 33):
        out = encode(Tensor(rng.normal(size=(T, 2))), params, cfg)
        assert out.shape == (T, 8)


def test_causality(rng):
    cfg = small_cfg()
    params = make_backbone(cfg, 0)
    x = rng.normal(size=(20, 2))
    base = encode(Tensor(x), params, cfg).data
    x2 = x.copy()
    x2[12:] += 5.0
    out = encode(Tensor(x2), params, cfg).data
    np.testing.assert_allclose(out[:12], base[:12], atol=1e-12)
    assert not np.allclose(out[12:], base[12:])


def test_receptive_field(rng):
    # kernel 3, n blocks with two convolutions each at dilation 2^i:
    # field = 1 + 2 * 2 * (2^n - 1): 29 for 3 blocks, 61 for the desk's 4
    desk = RunConfig.resolve("desk").model_config(2).backbone
    for cfg, field in ((small_cfg(), 29), (desk, 61)):
        assert cfg.receptive_field == field
        params = make_backbone(cfg, 0)
        T = 80
        x = rng.normal(size=(T, 2))
        base = encode(Tensor(x), params, cfg).data
        x2 = x.copy()
        x2[0] += 1.0
        delta = np.abs(encode(Tensor(x2), params, cfg).data - base).sum(axis=1)
        affected = np.nonzero(delta > 1e-12)[0]
        assert affected[0] == 0 and affected[-1] == field - 1


def test_parameter_count_formula():
    D, H, K, L, k = 7, 32, 320, 8, 3
    cfg = BackboneConfig(D, H, K, L, k)
    params = make_backbone(cfg, 0)
    expected = (D * H + H) + L * 2 * (k * H * H + H) + (H * K + K)
    assert sum(p.data.size for p in params.values()) == expected


def test_init_determinism():
    cfg = small_cfg()
    a = make_backbone(cfg, 1)
    b = make_backbone(cfg, 1)
    c = make_backbone(cfg, 2)
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_bias_parameters_are_decay_exempt():
    params = make_backbone(small_cfg(), 0)
    for name, p in params.items():
        assert p.weight_decay_exempt == name.endswith(".b")


def test_gelu_switch_changes_output(rng):
    x = rng.normal(size=(12, 2))
    cfg_s = small_cfg(activation="silu")
    cfg_g = small_cfg(activation="gelu")
    params = make_backbone(cfg_s, 0)
    out_s = encode(Tensor(x), params, cfg_s).data
    out_g = encode(Tensor(x), params, cfg_g).data
    assert not np.allclose(out_s, out_g)


def test_gradient_reaches_input(rng):
    cfg = small_cfg()
    params = make_backbone(cfg, 0)
    x = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    from mffftnet import tensor as tn

    tn.tsum(encode(x, params, cfg)).backward()
    assert np.linalg.norm(x.grad) > 0
    assert np.all(np.abs(x.grad).sum(axis=1) > 0)  # all positions in field


def test_feature_mismatch_error(rng):
    cfg = small_cfg()
    params = make_backbone(cfg, 0)
    with pytest.raises(DimensionError):
        encode(Tensor(rng.normal(size=(8, 3))), params, cfg)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        BackboneConfig(input_dim=2, output_dim=7)  # odd K
    with pytest.raises(ConfigurationError):
        BackboneConfig(input_dim=2, num_blocks=0)
    with pytest.raises(ConfigurationError):
        BackboneConfig(input_dim=2, activation="relu")


def test_batched_encode_matches_loop(rng):
    cfg = small_cfg()
    params = make_backbone(cfg, 0)
    x = rng.normal(size=(3, 10, 2))
    batched = encode(Tensor(x), params, cfg).data
    for b in range(3):
        single = encode(Tensor(x[b]), params, cfg).data
        np.testing.assert_allclose(batched[b], single, atol=1e-12)
