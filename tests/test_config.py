"""Layered configuration resolution and provenance."""

import dataclasses
import math
import re
import typing

import numpy as np
import pytest

from skillsim import CameraIntrinsics, ExpertParams, PerceptionParams, WorldConfig, make_short_scene
from skillsim.config import REGISTRY, ConfigError, load_run_config
from skillsim.sim import Box, ObjectSpec
from skillsim.training import TrainConfig

# config section -> a builder of its dataclass holding one field's value
BUILD = {
    "sim": lambda name, v: dataclasses.replace(make_short_scene(0), **{name: v}),
    "perception": lambda name, v: PerceptionParams(**{name: v}),
    "expert": lambda name, v: ExpertParams(**{name: v}),
    "learner": lambda name, v: TrainConfig(**{name: v}),
}


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
    with pytest.raises(ConfigError, match="bad value for expert.yaw_jitter_rad: must be >= 0.0"):
        load_run_config(overrides=["expert.yaw_jitter_rad=-0.2"])


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


def declared(cls) -> dict:
    """{field name: (default, parser)} of each field of `cls` that declares a parser."""
    return {f.name: (f.default, f.metadata["parse"])
            for f in dataclasses.fields(cls) if "parse" in f.metadata}


def test_each_scalar_field_declares_the_one_parser_its_config_key_uses():
    for cls in (CameraIntrinsics, PerceptionParams, ExpertParams, TrainConfig, WorldConfig):
        scalars = {f.name for f in dataclasses.fields(cls) if type(f.default) in (int, float)}
        assert scalars <= set(declared(cls)), cls.__name__
    for section, cls in (("perception", PerceptionParams), ("expert", ExpertParams),
                         ("learner", TrainConfig)):
        keys = {k[len(section) + 1:]: (default, parse)
                for k, (default, parse, _) in REGISTRY.items() if k.startswith(section + ".")}
        fields = declared(cls)
        fields.pop("seed", None)  # TrainConfig.seed is each command's --seed flag
        assert keys == fields, section
    assert REGISTRY["sim.depth_noise_sigma"][:2] == declared(WorldConfig)["depth_noise_sigma"]


def test_each_vector_field_declares_its_one_parser():
    """WorldConfig.validate and the scene decoder read these, so neither keeps a copy."""
    for cls, n in ((WorldConfig, 4), (ObjectSpec, 3), (Box, 2)):
        vectors = {name for name, hint in typing.get_type_hints(cls).items() if hint is np.ndarray}
        assert len(vectors) == n and vectors <= set(declared(cls)), cls.__name__


def agreement_probes():
    for key, (default, _, _) in REGISTRY.items():
        if key.split(".")[0] in BUILD:
            values = [0, -1, math.nan, math.inf, True] + ([2.5] if type(default) is int else [])
            if key == "perception.color_threshold":
                values.append(math.sqrt(3.0) + 0.01)
            yield from (pytest.param(key, v, id=f"{key}={v}") for v in values)


@pytest.mark.parametrize("key,value", agreement_probes())
def test_cli_and_api_reject_the_same_values(key, value):
    """--set and the dataclass's validate() read one declaration, so they agree."""
    section, name = key.split(".")
    try:
        load_run_config(overrides=[f"{key}={value}"])
        cli_rejects = False
    except ConfigError as exc:
        assert str(exc).split(f"bad value for {key}: ", 1)[1].startswith("must "), exc
        cli_rejects = True
    try:
        BUILD[section](name, value).validate()
        api_rejects = False
    except ValueError as exc:
        assert re.match(f"^{name} must ", str(exc)), exc
        api_rejects = True
    assert cli_rejects == api_rejects
