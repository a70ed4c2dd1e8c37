"""Layered configuration resolution and the canonical text form."""

import hashlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mffftnet.config import DEFAULTS, PROFILES, RunConfig, parse_config_file
from mffftnet.encoder import BackboneConfig
from mffftnet.errors import ConfigurationError
from mffftnet.facm import FacmConfig
from mffftnet.model import ModelConfig
from mffftnet.training import TrainConfig


def test_defaults_resolve():
    cfg = RunConfig.resolve("paper")
    assert cfg["window.length"] == 201
    assert cfg["train.epochs"] == 600
    assert cfg["train.batch_size"] == 128
    assert cfg["profile"] == "paper"


# sha256 of each profile's canonical text, which every checkpoint and
# report carries
PROFILE_DIGESTS = {
    "desk": "d0b0665530d3c2a4466fd6fe0ebfb01f0f0028a8d13b2e05d920543679898155",
    "paper-ett-multivariate": "7dcc963d530134aac6127cd0126c38d72448a2b6e6f249a4d6f4cdd5a1433431",
    "paper-ett-univariate": "53041a00fec8191c59350c6f6f9ba9a040ec5171e8f72379a419637a5c2f37a4",
    "paper-wth-multivariate": "a293fa4a4b446020c992afe0bfbecfd7f4e8af7e67593e39959bfb9aad3614b3",
    "paper-wth-univariate": "4f8a7b9ba0153546388f08b0322274d04b96c32ad9a2809eec746beb59f90431",
    "paper": "f662b127c34b6f4b1a681bf492f4433d6b0d2bbb3280838ba55f753ccc9b2cfa",
}


@pytest.mark.parametrize("profile", list(PROFILES))
def test_profile_canonical_text_is_pinned(profile):
    text = RunConfig.resolve(profile).to_canonical_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PROFILE_DIGESTS[profile]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TrainConfig(learning_rate=0), "train.learning_rate must be > 0, got 0"),
        (lambda: TrainConfig(momentum=1.5), "train.momentum must be in [0, 1), got 1.5"),
        (lambda: TrainConfig(weight_decay=-1), "train.weight_decay must be >= 0, got -1"),
        (lambda: FacmConfig(dropout_rate=1.5),
         "facm.dropout: dropout rate must be in [0, 1), got 1.5"),
        (lambda: BackboneConfig(input_dim=2, dropout_rate=2.0),
         "backbone.dropout: dropout rate must be in [0, 1), got 2.0"),
        (lambda: ModelConfig(1, BackboneConfig(input_dim=2)), "window.length must be >= 2, got 1"),
        (lambda: ModelConfig(64, BackboneConfig(input_dim=2)),
         "ctcm.kernels: kernel 128 exceeds window.length 64"),
    ],
)
def test_config_dataclass_rejects_a_bad_value(build, message):
    # each rule lives in the dataclass whose field it checks
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        build()


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


# a flag value: any text, or one that the key's type parses
FLAG_TEXT = (
    st.text(max_size=20)
    | st.integers(-3, 400).map(str)
    | st.floats(-2.0, 3.0).map(str)
    | st.lists(st.integers(-2, 40), max_size=4).map(lambda xs: ",".join(map(str, xs)))
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(list(DEFAULTS)), text=FLAG_TEXT)
def test_property_a_resolved_config_builds(key, text):
    # every value rule fires when the configuration resolves, not at build
    try:
        cfg = RunConfig.resolve("desk", flag_overrides={key: text})
    except ConfigurationError:
        return
    cfg.model_config(input_dim=3)
    cfg.train_config()
    cfg.augment_config()


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
