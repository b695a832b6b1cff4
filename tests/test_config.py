"""Layered configuration resolution and provenance."""

import pytest

from skillsim.config import REGISTRY, ConfigError, load_run_config


def test_defaults_resolve():
    cfg = load_run_config()
    assert cfg["perception.leaf"] == 0.01
    assert cfg["learner.epochs"] == 1000
    assert all(src == "default" for src in cfg.provenance.values())


def test_file_then_flag_layering(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nperception.leaf = 0.02\nlearner.epochs = 50\n")
    cfg = load_run_config(path, overrides=["learner.epochs=7"])
    assert cfg["perception.leaf"] == 0.02
    assert cfg.provenance["perception.leaf"] == "file"
    assert cfg["learner.epochs"] == 7
    assert cfg.provenance["learner.epochs"] == "flag"
    assert cfg.provenance["learner.lr"] == "default"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense.key = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(path)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(overrides=["nope=1"])


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        load_run_config(overrides=["learner.epochs=zero"])
    with pytest.raises(ConfigError, match="bad value"):
        load_run_config(overrides=["learner.epochs=0"])
    with pytest.raises(ConfigError, match="bad value"):
        load_run_config(overrides=["expert.yaw_jitter_rad=wide"])


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "absent.cfg")


def test_derived_param_objects():
    cfg = load_run_config(overrides=["perception.k_neighbors=5",
                                     "expert.standoff_m=0.6",
                                     "learner.latent=16"])
    assert cfg.perception_params().k_neighbors == 5
    expert = cfg.expert_params()
    assert expert.standoff_m == 0.6
    assert expert.perception.k_neighbors == 5
    train = cfg.train_config(seed=4)
    assert train.latent == 16
    assert train.seed == 4


def test_expert_params_are_validated():
    cfg = load_run_config(overrides=["expert.yaw_jitter_rad=-0.2"])
    with pytest.raises(ValueError, match="^yaw_jitter_rad must be non-negative"):
        cfg.expert_params()


def test_distractor_count_must_not_be_negative():
    with pytest.raises(ConfigError, match="bad value for scene.distractors"):
        load_run_config(overrides=["scene.distractors=-3"])
    assert load_run_config(overrides=["scene.distractors=0"])["scene.distractors"] == 0


def test_describe_carries_provenance():
    cfg = load_run_config(overrides=["eval.max_steps=50"])
    desc = cfg.describe()
    assert desc["eval.max_steps"] == {"value": 50, "source": "flag"}


def test_registry_keys_and_defaults_pinned():
    """The user-facing config surface: every key and its default, type included."""
    expected = {
        "scene.distractors": 2,
        "scene.short_object_half_extent": 0.03,
        "scene.long_object_half_extent": 0.05,
        "sim.depth_noise_sigma": 0.002,
        "perception.leaf": 0.01,
        "perception.k_neighbors": 8,
        "perception.alpha": 1.0,
        "perception.color_threshold": 0.25,
        "expert.standoff_m": 0.55,
        "expert.pregrasp_offset_m": 0.10,
        "expert.lift_height_m": 0.15,
        "expert.locate_noise_sigma": 0.005,
        "expert.yaw_jitter_rad": 0.2,
        "expert.max_ticks": 3000,
        "learner.epochs": 1000,
        "learner.ae_epochs": 120,
        "learner.batch": 64,
        "learner.lr": 1e-3,
        "learner.grad_clip": 5.0,
        "learner.tbptt": 32,
        "learner.downscale": 2,
        "learner.latent": 32,
        "learner.hidden": 64,
        "learner.frame_stride": 1,
        "eval.max_steps": 300,
    }
    defaults = {key: default for key, (default, _, _) in REGISTRY.items()}
    assert defaults == expected
    assert {k: type(v) for k, v in defaults.items()} == {k: type(v) for k, v in expected.items()}
