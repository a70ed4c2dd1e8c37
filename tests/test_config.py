"""Layered configuration resolution and the canonical text form."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mffftnet.augment import AugmentConfig
from mffftnet.config import DEFAULTS, PROFILES, RunConfig, parse_config_file
from mffftnet.ctcm import CtcmConfig
from mffftnet.encoder import BackboneConfig
from mffftnet.errors import ConfigurationError
from mffftnet.facm import FacmConfig
from mffftnet.training import TrainConfig


def test_defaults_resolve():
    cfg = RunConfig.resolve("paper")
    assert cfg["window.length"] == 201
    assert cfg["train.epochs"] == 600
    assert cfg["train.batch_size"] == 128
    assert cfg["profile"] == "paper"


def test_dataclass_defaults_are_the_configuration_defaults():
    # each config dataclass built from DEFAULTS alone is its default construction
    cfg = RunConfig(dict(DEFAULTS))
    model = cfg.model_config(input_dim=7)
    assert model.backbone == BackboneConfig(input_dim=7)
    assert model.facm == FacmConfig()
    assert model.ctcm == CtcmConfig()
    assert cfg.train_config() == TrainConfig()
    assert cfg.augment_config() == AugmentConfig()


def test_profile_overrides_defaults():
    cfg = RunConfig.resolve("desk")
    assert cfg["window.length"] == 64
    assert cfg["backbone.output_dim"] == 32
    assert cfg["train.epochs"] == 50
    # keys untouched by the profile keep their defaults
    assert cfg["facm.mask_ratio"] == 0.4


def test_file_overrides_profile(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment\n\ntrain.epochs = 7\nwindow.length = 32\n")
    cfg = RunConfig.resolve("desk", parse_config_file(f))
    assert cfg["train.epochs"] == 7
    assert cfg["window.length"] == 32


def test_flags_override_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("train.epochs = 7\n")
    cfg = RunConfig.resolve("desk", parse_config_file(f), {"train.epochs": "9"})
    assert cfg["train.epochs"] == 9


def test_values_coerced_to_declared_types():
    cfg = RunConfig.resolve("desk", None, {"train.learning_rate": "0.25", "seed": "3"})
    assert cfg["train.learning_rate"] == 0.25
    assert cfg["seed"] == 3


def test_override_coerces_into_a_copy():
    base = RunConfig.resolve("desk")
    cfg = base.override({"train.epochs": "3", "augment.alpha": 0})
    assert cfg["train.epochs"] == 3 and type(cfg["augment.alpha"]) is float
    assert base["train.epochs"] == 50 and base["augment.alpha"] == 0.5
    with pytest.raises(ConfigurationError, match="unknown configuration key"):
        base.override({"profile": "paper"})


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown configuration key"):
        RunConfig.resolve("desk", {"not.a.key": 1})


def test_bad_value_rejected():
    with pytest.raises(ConfigurationError, match="bad value"):
        RunConfig.resolve("desk", {"train.epochs": "soon"})


def test_unknown_profile_rejected():
    with pytest.raises(ConfigurationError, match="unknown profile"):
        RunConfig.resolve("nope")


def test_profile_env_default(monkeypatch):
    # --profile is the one way to pick a profile: the environment does not
    # change the default
    monkeypatch.setenv("MFF_PROFILE", "paper")
    assert RunConfig.resolve()["profile"] == "desk"


def test_malformed_config_file(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("train.epochs 7\n")
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config_file(f)


def test_config_file_not_utf8(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        parse_config_file(f)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=120) | st.text(max_size=120).map(str.encode))
def test_fuzz_parse_config_file_raises_only_configuration_error(tmp_path, raw):
    f = tmp_path / "fuzz.cfg"
    f.write_bytes(raw)
    try:
        parse_config_file(f)
    except ConfigurationError:
        pass


def test_canonical_text_sorted_and_stable():
    cfg = RunConfig.resolve("desk")
    text = cfg.to_canonical_text()
    lines = [ln for ln in text.splitlines() if ln]
    assert lines == sorted(lines)
    assert text == RunConfig.resolve("desk").to_canonical_text()


def test_every_profile_builds_valid_model_config():
    for name in PROFILES:
        cfg = RunConfig.resolve(name)
        mc = cfg.model_config(input_dim=7)
        assert mc.backbone.output_dim % 2 == 0
        cfg.train_config()
        cfg.augment_config()


def test_paper_alias_matches_ett_multivariate():
    a = RunConfig.resolve("paper").values
    b = RunConfig.resolve("paper-ett-multivariate").values
    assert {k: v for k, v in a.items() if k != "profile"} == {
        k: v for k, v in b.items() if k != "profile"
    }


def test_snapshot_contains_all_keys():
    snap = RunConfig.resolve("desk").snapshot()
    assert set(DEFAULTS) <= set(snap)
    assert list(snap) == sorted(snap)
