"""Episode recording, binary persistence, and normalization statistics.

An episode directory holds `manifest.json` (schema version, variant, dims,
seed, outcome, scene snapshot) and `steps.bin`: magic "SKLDSET1", a u32
little-endian step count, then per step the f32 learner state (see
`state_dim`), raw RGB bytes, and the f32 disparity image. Round trips are
bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .expert import ExpertTranscript
from .checks import bound, finite_float, one_of, positive, vec
from .scene import config_from_dict, config_to_dict, reader
from .sim import BaseCommand, World

SCHEMA_VERSION = 1
STEPS_MAGIC = b"SKLDSET1"
JOINTS = 5  # the arm joints incl. gripper: the learner state of a short episode


class DatasetError(ValueError):
    """Unreadable or inconsistent episode data."""


def state_dim(variant: str) -> int:
    """Length of the learner state: the joints, then the base command (v, omega)
    for long episodes."""
    return JOINTS + 2 if variant == "long" else JOINTS


def dataset_state_dim(episodes) -> int:
    """The state length a set of episodes is learned with: the joints alone
    unless every episode is long."""
    return state_dim("long" if all(e.variant == "long" for e in episodes) else "short")


def steps_dtype(h: int, w: int, variant: str) -> np.dtype:
    """The packed little-endian `steps.bin` record of one step."""
    return np.dtype([("state", "<f4", (state_dim(variant),)),
                     ("rgb", "u1", (h, w, 3)), ("disparity", "<f4", (h, w))])


@dataclass
class Episode:
    """One recorded episode as per-step columns; row t is step t."""

    states: np.ndarray                # (T, state_dim(variant)) float32
    rgb: np.ndarray                   # (T, H, W, 3) uint8
    disparity: np.ndarray             # (T, H, W) float32
    variant: str
    scene: object                     # WorldConfig snapshot
    outcome: str

    @property
    def seed(self) -> int:
        return int(self.scene.rng_seed)

    def __len__(self) -> int:
        return self.states.shape[0]


def record(transcript: ExpertTranscript) -> Episode:
    """Replay a transcript on a fresh world, rendering a frame every tick.

    Step t carries the state and sensor frame observed before the t-th
    recorded command is applied, so consecutive steps form one-step
    prediction pairs. The replayed base and joints must equal each tick's
    recorded ones exactly; a divergence raises DatasetError naming the tick.
    """
    world = World(transcript.config)
    cam = transcript.config.camera
    n = len(transcript.ticks)
    states = np.empty((n, state_dim(transcript.variant)), dtype=np.float32)
    rgb = np.empty((n, cam.height, cam.width, 3), dtype=np.uint8)
    disparity = np.empty((n, cam.height, cam.width), dtype=np.float32)
    for t, rec in enumerate(transcript.ticks):
        if not (np.array_equal(world.state.base, rec.base)
                and np.array_equal(world.state.joints, rec.joints)):
            raise DatasetError(f"replay diverged from the transcript at tick {t}")
        frame = world.render()
        states[t, :JOINTS] = world.state.joints
        rgb[t] = frame.rgb
        disparity[t] = frame.disparity
        world.step(BaseCommand(rec.v, rec.omega), rec.joint_target)
    if transcript.variant == "long":
        states[:, JOINTS:] = np.reshape([(rec.v, rec.omega) for rec in transcript.ticks], (n, 2))
    return Episode(
        states=states,
        rgb=rgb,
        disparity=disparity,
        variant=transcript.variant,
        scene=transcript.config,
        outcome=transcript.outcome,
    )


def save_episode(episode: Episode, dirpath) -> None:
    d = FsPath(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    n = len(episode)
    h, w = episode.rgb.shape[1:3] if n else (0, 0)
    cmd = state_dim(episode.variant) - JOINTS
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "variant": episode.variant,
        "steps": n,
        "dims": {"state": JOINTS, "cmd": cmd, "height": h, "width": w},
        "dt": episode.scene.dt,
        "seed": episode.seed,
        "outcome": episode.outcome,
        "scene": config_to_dict(episode.scene),
    }
    (d / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    records = np.empty(n, dtype=steps_dtype(h, w, episode.variant))
    if n:
        records["state"] = episode.states
        records["rgb"] = episode.rgb
        records["disparity"] = episode.disparity
    with open(d / "steps.bin", "wb") as fh:
        fh.write(STEPS_MAGIC)
        fh.write(struct.pack("<I", n))
        fh.write(records.tobytes())


def _count(value) -> int:
    if type(value) is not int or value < 0:  # bool is not a count
        raise ValueError(f"{value!r} is not a non-negative integer")
    return value


def load_episode(dirpath) -> Episode:
    d = FsPath(dirpath)
    mpath = d / "manifest.json"
    if not mpath.exists():
        raise DatasetError(f"{mpath}: missing manifest")
    try:
        manifest = json.loads(mpath.read_text())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a bad byte
        raise DatasetError(f"{mpath}: not valid JSON: {exc}") from None
    try:
        read = reader(manifest, ("schema_version", "variant", "steps", "dims", "dt", "seed",
                                 "outcome", "scene"), "")
        version = read("schema_version", _count)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        variant = read("variant", one_of("short", "long"))
        n = read("steps", _count)
        dims = reader(read("dims"), ("state", "cmd", "height", "width"), "dims.")
        dims("state", one_of(JOINTS))
        dims("cmd", one_of(state_dim(variant) - JOINTS))
        dtype = steps_dtype(dims("height", _count), dims("width", _count), variant)
        outcome = read("outcome", one_of("DONE", "FAILED"))
        scene = read("scene", config_from_dict)
        scene.validate()
        # dt and seed repeat the scene's; a float equal to the (positive) dt has its bits
        read("dt", one_of(scene.dt))
        seed = read("seed", _count)
        if seed != scene.rng_seed:
            raise ValueError(f"seed {seed} is not the scene's rng_seed {scene.rng_seed}")
    except ValueError as exc:
        raise DatasetError(f"{mpath}: {exc}") from None

    spath = d / "steps.bin"
    blob = spath.read_bytes()
    if blob[:8] != STEPS_MAGIC:
        raise DatasetError(f"{spath}: bad magic at offset 0")
    expected = 12 + n * dtype.itemsize
    if len(blob) != expected:
        raise DatasetError(f"{spath}: expected {expected} bytes, got {len(blob)}")
    (count,) = struct.unpack_from("<I", blob, 8)
    if count != n:
        raise DatasetError(f"{spath}: step count {count} does not match manifest {n}")
    records = np.frombuffer(blob, dtype, count=n, offset=12)
    return Episode(
        states=records["state"].copy(),
        rgb=records["rgb"].copy(),
        disparity=records["disparity"].copy(),
        variant=variant,
        scene=scene,
        outcome=outcome,
    )


def episode_dirs(root) -> list:
    return sorted(p for p in FsPath(root).iterdir()
                  if p.is_dir() and (p / "manifest.json").exists())


def load_dataset(root, include_failed: bool = False) -> list:
    """Load every episode directory under root, skipping FAILED ones by default."""
    episodes = [load_episode(p) for p in episode_dirs(root)]
    if not include_failed:
        episodes = [e for e in episodes if e.outcome == "DONE"]
    return episodes


# ----------------------------------------------------------------------
# normalization statistics


@dataclass
class NormStats:
    state_min: np.ndarray             # per learner-state dimension (see dataset_state_dim)
    state_max: np.ndarray
    state_flags: np.ndarray           # True where the dimension is degenerate
    image_mean: np.ndarray            # per RGB channel, on [0, 1] values
    image_std: np.ndarray
    disp_mean: float                  # zeros (no-hit pixels) excluded
    disp_std: float

    def to_dict(self) -> dict:
        """The JSON form: the joints' bounds under state_*, (v, omega)'s under cmd_*
        (null when the stats have none)."""
        d = {"image_mean": self.image_mean.tolist(), "image_std": self.image_std.tolist(),
             "disp_mean": self.disp_mean, "disp_std": self.disp_std}
        for suffix, values in (("min", self.state_min), ("max", self.state_max),
                               ("flags", self.state_flags.astype(int))):
            d[f"state_{suffix}"] = values[:JOINTS].tolist()
            d[f"cmd_{suffix}"] = values[JOINTS:].tolist() or None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        """Decode to_dict's output; a bad key raises ValueError naming it."""
        read = reader(d, ("state_min", "state_max", "state_flags", "cmd_min", "cmd_max",
                          "cmd_flags", "image_mean", "image_std", "disp_mean", "disp_std"), "")
        cmd = one_of(None) if read("cmd_min") is None else vec(2)  # all three keys alike

        def joined(suffix):
            joints, tail = read(f"state_{suffix}", vec(JOINTS)), read(f"cmd_{suffix}", cmd)
            return joints if tail is None else np.concatenate([joints, tail])

        return cls(
            state_min=joined("min"),
            state_max=joined("max"),
            state_flags=joined("flags") != 0,
            image_mean=read("image_mean", vec(3)),
            image_std=read("image_std", bound(vec(3), ">", 0.0)),
            disp_mean=read("disp_mean", finite_float),
            disp_std=read("disp_std", positive),
        )


def save_stats(path, stats: NormStats) -> None:
    FsPath(path).write_text(json.dumps(stats.to_dict(), sort_keys=True, indent=1))


def load_stats(path) -> NormStats:
    try:
        return NormStats.from_dict(json.loads(FsPath(path).read_text()))
    except FileNotFoundError:
        raise DatasetError(f"missing {path}; run train-autoencoder first") from None
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise DatasetError(f"{path}: {exc}") from None


def compute_norm_stats(episodes) -> NormStats:
    """Single pass over every step of the given episodes.

    State bounds are per-dimension min/max over the first
    `dataset_state_dim(episodes)` dimensions; image statistics are
    per-channel mean/std of the RGB values mapped to [0, 1]; disparity
    statistics are scalar with zero (no-hit) pixels excluded. Degenerate
    dimensions are flagged; degenerate stds are forced to 1.
    """
    if not episodes:
        raise DatasetError("no episodes to compute statistics from")
    d = dataset_state_dim(episodes)
    states = np.concatenate([e.states[:, :d] for e in episodes], axis=0)
    state_min = states.min(axis=0).astype(float)
    state_max = states.max(axis=0).astype(float)

    px_sum = np.zeros(3)
    px_sq = np.zeros(3)
    px_n = 0
    d_sum = d_sq = 0.0
    d_n = 0
    for ep in episodes:
        # frame by frame: summing a whole stack at once reorders the float
        # additions and changes the statistics' last bits
        for rgb, disparity in zip(ep.rgb, ep.disparity):
            img = rgb.astype(np.float64) / 255.0
            px_sum += img.sum(axis=(0, 1))
            px_sq += (img * img).sum(axis=(0, 1))
            px_n += img.shape[0] * img.shape[1]
            disp = disparity.astype(np.float64)
            nz = disp[disp > 0.0]
            d_sum += nz.sum()
            d_sq += (nz * nz).sum()
            d_n += nz.size

    image_mean = px_sum / px_n
    image_var = np.maximum(px_sq / px_n - image_mean**2, 0.0)
    image_std = np.sqrt(image_var)
    image_std[image_std <= 0.0] = 1.0
    if d_n > 0:
        disp_mean = d_sum / d_n
        disp_var = max(d_sq / d_n - disp_mean**2, 0.0)
        disp_std = float(np.sqrt(disp_var)) or 1.0
    else:
        disp_mean, disp_std = 0.0, 1.0

    return NormStats(
        state_min=state_min, state_max=state_max, state_flags=state_max <= state_min,
        image_mean=image_mean, image_std=image_std,
        disp_mean=float(disp_mean), disp_std=float(disp_std),
    )


def _bounds(x: np.ndarray, stats: NormStats):
    """(min, max, degenerate flags) for x's state length: all of the stats', or
    the joints' alone (a joints-only vector against long stats)."""
    d = x.shape[-1]
    if d not in (JOINTS, stats.state_min.size):
        raise DatasetError(f"state dimension {d} does not match stats {stats.state_min.size}")
    return stats.state_min[:d], stats.state_max[:d], stats.state_flags[:d]


def normalize_state(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Map to [0, 1] per dimension; degenerate dimensions map to 0.5.

    Works on a single vector or a batch with the dimension last.
    """
    x = np.asarray(x, dtype=float)
    mn, mx, flags = _bounds(x, stats)
    span = np.where(flags, 1.0, mx - mn)
    out = (x - mn) / span
    return np.where(flags, 0.5, out)


def denormalize_state(y: np.ndarray, stats: NormStats) -> np.ndarray:
    """Inverse of normalize_state; degenerate dimensions return their min."""
    y = np.asarray(y, dtype=float)
    mn, mx, flags = _bounds(y, stats)
    out = y * (mx - mn) + mn
    return np.where(flags, mn, out)
