"""Layered run configuration: built-in defaults, then a flat key=value config
file, then command-line overrides. Every key's provenance is tracked and
unknown keys are rejected so manifests describe runs completely."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path as FsPath

from .checks import count, positive, positive_int
from .evaluate import MAX_STEPS
from .expert import ExpertParams
from .perception import PerceptionParams
from .scene import DISTRACTORS, LONG_OBJECT_HALF_EXTENT, SHORT_OBJECT_HALF_EXTENT
from .sim import WorldConfig
from .training import TrainConfig


def _from_fields(section: str, cls, help_text: dict) -> dict:
    """A `section.<name>` entry per `help_text` name, with the default and parser of cls's field."""
    declared = {f.name: f for f in fields(cls)}
    return {f"{section}.{name}": (declared[name].default, declared[name].metadata["parse"], text)
            for name, text in help_text.items()}


# key -> (default, parser, help); every default lives in the module that uses it
REGISTRY = {
    "scene.distractors": (DISTRACTORS, count, "extra boxes per scene"),
    "scene.short_object_half_extent": (SHORT_OBJECT_HALF_EXTENT, positive, "short-variant object half extent (m)"),
    "scene.long_object_half_extent": (LONG_OBJECT_HALF_EXTENT, positive, "long-variant object half extent (m)"),
    **_from_fields("sim", WorldConfig, {"depth_noise_sigma": "depth noise std (m), 0 disables"}),
    **_from_fields("perception", PerceptionParams, {
        "leaf": "voxel edge length (m)",
        "k_neighbors": "outlier filter neighbor count",
        "alpha": "outlier filter stddev multiplier",
        "color_threshold": "RGB segmentation distance",
    }),
    **_from_fields("expert", ExpertParams, {
        "standoff_m": "navigation standoff from the object (m)",
        "pregrasp_offset_m": "pre-grasp height above the object (m)",
        "lift_height_m": "lift height after grasping (m)",
        "locate_noise_sigma": "short-variant localization noise std (m)",
        "yaw_jitter_rad": "approach bearing jitter amplitude (rad), 0 disables",
        "max_ticks": "expert tick budget",
    }),
    # TrainConfig.seed is each command's --seed flag, not a config key
    **_from_fields("learner", TrainConfig, {
        "epochs": "predictor training epochs",
        "ae_epochs": "autoencoder training epochs",
        "batch": "autoencoder minibatch size",
        "lr": "Adam learning rate",
        "grad_clip": "gradient L2 clip",
        "tbptt": "truncated BPTT window",
        "downscale": "image downscale factor at the learner",
        "latent": "autoencoder latent size",
        "hidden": "recurrent hidden size",
        "frame_stride": "autoencoder frame subsampling stride",
    }),
    "eval.max_steps": (MAX_STEPS, positive_int, "rollout step budget"),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    values: dict
    provenance: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def describe(self) -> dict:
        return {k: {"value": self.values[k], "source": self.provenance[k]}
                for k in sorted(self.values)}

    def _section(self, section: str) -> dict:
        """Values of `section.*` keys, keyed by the dataclass field they set."""
        prefix = section + "."
        return {k[len(prefix):]: v for k, v in self.values.items() if k.startswith(prefix)}

    # each value was parsed by its field's parser, and each consumer validates again
    def perception_params(self) -> PerceptionParams:
        return PerceptionParams(**self._section("perception"))

    def expert_params(self) -> ExpertParams:
        return ExpertParams(**self._section("expert"), perception=self.perception_params())

    def train_config(self, seed: int = 0) -> TrainConfig:
        return TrainConfig(**self._section("learner"), seed=seed)

    def scene_kwargs(self, variant: str) -> dict:
        half = (self["scene.short_object_half_extent"] if variant == "short"
                else self["scene.long_object_half_extent"])
        return {
            "distractors": self["scene.distractors"],
            "object_half_extent": half,
            "depth_noise_sigma": self["sim.depth_noise_sigma"],
        }


def _parse_assignment(line: str, where: str):
    if "=" not in line:
        raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
    key, text = (part.strip() for part in line.split("=", 1))
    if key not in REGISTRY:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    _, parser, _ = REGISTRY[key]
    try:
        return key, parser(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def load_run_config(config_file=None, overrides=()) -> RunConfig:
    """Resolve defaults < file < flag overrides; rejects unknown keys."""
    values = {k: default for k, (default, _, _) in REGISTRY.items()}
    provenance = {k: "default" for k in REGISTRY}
    if config_file is not None:
        path = FsPath(config_file)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, value = _parse_assignment(line, f"{path}:{lineno}")
            values[key] = value
            provenance[key] = "file"
    for item in overrides:
        key, value = _parse_assignment(item, f"--set {item!r}")
        values[key] = value
        provenance[key] = "flag"
    return RunConfig(values, provenance)
