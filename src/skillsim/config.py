"""Layered run configuration: built-in defaults, then a flat key=value config
file, then command-line overrides. Every key's provenance is tracked and
unknown keys are rejected so manifests describe runs completely."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path as FsPath

from .evaluate import MAX_STEPS
from .expert import ExpertParams
from .perception import PerceptionParams
from .scene import (DISTRACTORS, LONG_OBJECT_HALF_EXTENT, SHORT_OBJECT_HALF_EXTENT, bounded,
                    finite_float)
from .sim import DEPTH_NOISE_SIGMA
from .training import TrainConfig


# every default lives in the module that uses it; REGISTRY only reads it
_E, _P, _T = ExpertParams(), PerceptionParams(), TrainConfig()

# key -> (default, parser, help)
REGISTRY = {
    "scene.distractors": (DISTRACTORS, bounded(int, -1), "extra boxes per scene"),
    "scene.short_object_half_extent": (SHORT_OBJECT_HALF_EXTENT, bounded(finite_float, 0.0), "short-variant object half extent (m)"),
    "scene.long_object_half_extent": (LONG_OBJECT_HALF_EXTENT, bounded(finite_float, 0.0), "long-variant object half extent (m)"),
    "sim.depth_noise_sigma": (DEPTH_NOISE_SIGMA, finite_float, "depth noise std (m), 0 disables"),
    "perception.leaf": (_P.leaf, bounded(finite_float, 0.0), "voxel edge length (m)"),
    "perception.k_neighbors": (_P.k_neighbors, bounded(int, 0), "outlier filter neighbor count"),
    "perception.alpha": (_P.alpha, finite_float, "outlier filter stddev multiplier"),
    "perception.color_threshold": (_P.color_threshold, bounded(finite_float, 0.0), "RGB segmentation distance"),
    "expert.standoff_m": (_E.standoff_m, bounded(finite_float, 0.0), "navigation standoff from the object (m)"),
    "expert.pregrasp_offset_m": (_E.pregrasp_offset_m, bounded(finite_float, 0.0), "pre-grasp height above the object (m)"),
    "expert.lift_height_m": (_E.lift_height_m, bounded(finite_float, 0.0), "lift height after grasping (m)"),
    "expert.locate_noise_sigma": (_E.locate_noise_sigma, finite_float, "short-variant localization noise std (m)"),
    "expert.yaw_jitter_rad": (_E.yaw_jitter_rad, finite_float, "approach bearing jitter amplitude (rad), 0 disables"),
    "expert.max_ticks": (_E.max_ticks, bounded(int, -1), "expert tick budget"),
    "learner.epochs": (_T.epochs, bounded(int, 0), "predictor training epochs"),
    "learner.ae_epochs": (_T.ae_epochs, bounded(int, 0), "autoencoder training epochs"),
    "learner.batch": (_T.batch, bounded(int, 0), "autoencoder minibatch size"),
    "learner.lr": (_T.lr, bounded(finite_float, 0.0), "Adam learning rate"),
    "learner.grad_clip": (_T.grad_clip, bounded(finite_float, 0.0), "gradient L2 clip"),
    "learner.tbptt": (_T.tbptt, bounded(int, 0), "truncated BPTT window"),
    "learner.downscale": (_T.downscale, bounded(int, 0), "image downscale factor at the learner"),
    "learner.latent": (_T.latent, bounded(int, 0), "autoencoder latent size"),
    "learner.hidden": (_T.hidden, bounded(int, 0), "recurrent hidden size"),
    "learner.frame_stride": (_T.frame_stride, bounded(int, 0), "autoencoder frame subsampling stride"),
    "eval.max_steps": (MAX_STEPS, bounded(int, 0), "rollout step budget"),
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

    def perception_params(self) -> PerceptionParams:
        p = PerceptionParams(**self._section("perception"))
        p.validate()
        return p

    def expert_params(self) -> ExpertParams:
        p = ExpertParams(**self._section("expert"), perception=self.perception_params())
        p.validate()
        return p

    def train_config(self, seed: int = 0) -> TrainConfig:
        cfg = TrainConfig(**self._section("learner"), seed=seed)
        cfg.validate()
        return cfg

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
