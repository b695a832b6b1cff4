"""Scene construction and persistence.

Two seeded scene families mirror the two collection settings: "short"
scenes start the robot within arm's reach facing the target; "long" scenes
start it a few meters out with an obstacle between, so it has to navigate.
Scene files are flat `key = value` text: config_to_dict's nesting, flattened.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path as FsPath

import numpy as np

from .checks import check, count, parsers
from .sim import (DEPTH_NOISE_SIGMA, TABLE_CENTER, TABLE_SIZE, Box, CameraIntrinsics,
                  ObjectSpec, WorldConfig)

# object palette; pairwise RGB distances all exceed the 0.3 separation floor
PALETTE = {
    "red": (0.85, 0.10, 0.10),
    "green": (0.10, 0.75, 0.15),
    "blue": (0.15, 0.20, 0.85),
    "yellow": (0.85, 0.80, 0.10),
    "magenta": (0.80, 0.10, 0.80),
}

TABLE_TOP = TABLE_CENTER[2] + TABLE_SIZE[2] / 2.0

DISTRACTORS = 2                  # extra boxes per scene
SHORT_OBJECT_HALF_EXTENT = 0.03  # m
LONG_OBJECT_HALF_EXTENT = 0.05   # m


def _place_objects(rng, target_xy, distractors, half_extent):
    """The red target box0 at target_xy, then distractors box1, box2, ...
    elsewhere on the table, clear of the target and the grasp lane."""
    check("distractors", distractors, count)
    names = list(PALETTE)[1:]
    placed = [("box0", *target_xy, PALETTE["red"])]
    for i in range(distractors):
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        dy = side * rng.uniform(0.20, 0.34)
        y = float(np.clip(target_xy[1] + dy, -0.48, 0.48))
        x = float(rng.uniform(1.15, 1.38))
        placed.append((f"box{1 + i}", x, y, PALETTE[names[i % len(names)]]))
    return [ObjectSpec(id=name, center=np.array([x, y, TABLE_TOP + half_extent]),
                       half_extents=np.full(3, half_extent), color=np.array(color))
            for name, x, y, color in placed]


def make_short_scene(
    seed: int,
    distractors: int = DISTRACTORS,
    object_half_extent: float = SHORT_OBJECT_HALF_EXTENT,
    depth_noise_sigma: float = DEPTH_NOISE_SIGMA,
) -> WorldConfig:
    """Grasp-only scene: the base starts 0.54-0.62 m out, heading at the target."""
    rng = np.random.default_rng([seed, 101])
    target_xy = np.array([rng.uniform(0.95, 1.03), rng.uniform(-0.30, 0.30)])
    bearing = rng.uniform(-0.25, 0.25)
    dist = rng.uniform(0.54, 0.62)
    start_xy = target_xy - dist * np.array([np.cos(bearing), np.sin(bearing)])
    return WorldConfig(
        objects=_place_objects(rng, target_xy, distractors, object_half_extent),
        rng_seed=seed,
        depth_noise_sigma=depth_noise_sigma,
        robot_start=np.array([start_xy[0], start_xy[1], bearing]),
        target_id="box0",
    )


def make_long_scene(
    seed: int,
    distractors: int = DISTRACTORS,
    object_half_extent: float = LONG_OBJECT_HALF_EXTENT,
    depth_noise_sigma: float = DEPTH_NOISE_SIGMA,
    start_distance: tuple = (2.7, 3.3),
) -> WorldConfig:
    """Navigate-then-grasp scene with staggered obstacle boxes on the route.

    Two boxes, one near each end and on opposite sides of the line, force an
    S-shaped detour so navigation trajectories differ meaningfully between
    seeds. The boxes are short enough that the camera still sees the table
    over them from the start pose.
    """
    rng = np.random.default_rng([seed, 202])
    target_xy = np.array([rng.uniform(0.95, 1.05), rng.uniform(-0.25, 0.25)])
    bearing = rng.uniform(-0.4, 0.4)
    dist = rng.uniform(*start_distance)
    start_xy = target_xy - dist * np.array([np.cos(bearing), np.sin(bearing)])
    start_yaw = bearing + rng.uniform(-0.2, 0.2)
    objects = _place_objects(rng, target_xy, distractors, object_half_extent)

    u = (target_xy - start_xy) / dist
    perp = np.array([-u[1], u[0]])
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    obstacles = []
    for d_from_start, s in ((rng.uniform(0.9, 1.3), side),
                            (dist - rng.uniform(1.4, 1.8), -side)):
        lateral = s * rng.uniform(0.0, 0.15)
        c = start_xy + d_from_start * u + lateral * perp
        obstacles.append(Box(
            center=np.array([c[0], c[1], 0.25]),
            half_extents=np.array([0.18, 0.18, 0.25]),
        ))

    return WorldConfig(
        objects=objects,
        obstacle_boxes=obstacles,
        rng_seed=seed,
        depth_noise_sigma=depth_noise_sigma,
        robot_start=np.array([start_xy[0], start_xy[1], start_yaw]),
        target_id="box0",
    )


def make_scene(seed: int, variant: str, **kwargs) -> WorldConfig:
    if variant == "short":
        return make_short_scene(seed, **kwargs)
    if variant == "long":
        return make_long_scene(seed, **kwargs)
    raise ValueError(f"unknown variant {variant!r}")


# ----------------------------------------------------------------------
# dict and text serialization
#
# config_to_dict is the one encoder and config_from_dict the one decoder. A
# scene file is that dict flattened to `key = value` lines: the keys in
# _TEXT_KEYS are renamed, and the camera, the objects and the obstacle boxes
# become `camera.<field>`, `object.<id>.<attr>` and `obstacle.<i>.<attr>`.

_TEXT_KEYS = {"table_center": "table.center", "table_size": "table.size",
              "robot_start": "robot.start", "robot_joints": "robot.joints",
              "target_id": "target"}
_DICT_KEYS = {text: key for key, text in _TEXT_KEYS.items()}


def config_to_dict(config: WorldConfig) -> dict:
    return {
        "dt": config.dt,
        "rng_seed": int(config.rng_seed),
        "depth_noise_sigma": config.depth_noise_sigma,
        "table_center": config.table_center.tolist(),
        "table_size": config.table_size.tolist(),
        "camera": asdict(config.camera),
        "robot_start": config.robot_start.tolist(),
        "robot_joints": config.robot_joints.tolist(),
        "target_id": config.target_id,
        "objects": [
            {"id": o.id, "center": o.center.tolist(),
             "half_extents": o.half_extents.tolist(), "color": o.color.tolist()}
            for o in config.objects
        ],
        "obstacle_boxes": [
            {"center": b.center.tolist(), "half_extents": b.half_extents.tolist()}
            for b in config.obstacle_boxes
        ],
    }


def reader(mapping, names, prefix: str):
    """A function reading one key of `mapping`, which may hold only `names`. A missing,
    unknown or unconvertible key raises ValueError naming it: `prefix` + its scene-file key."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{prefix[:-1]!r} is not a mapping" if prefix else "not a mapping")
    unknown = sorted(prefix + _TEXT_KEYS.get(k, k) for k in set(mapping) - set(names))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")

    def read(key, convert=lambda v: v, default=...):
        name = prefix + _TEXT_KEYS.get(key, key)
        if key not in mapping:
            if default is ...:
                raise ValueError(f"missing key {name!r}")
            return default
        try:
            return convert(mapping[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad value for {name!r}: {exc}") from None

    return read


def _decode(cls, read, **given):
    """A `cls` of `given` and, for each field that declares a parser, read(name, parser)."""
    return cls(**given, **{name: read(name, parse) for name, parse in parsers(cls).items()})


def config_from_dict(d: dict) -> WorldConfig:
    """Decode config_to_dict's output; any leaf may also be its scene-file text.
    Each field is read with its own parser; `reader` names a bad key (`object.box0.color`)."""
    read = reader(d, [f.name for f in fields(WorldConfig)], "")
    objects = []
    for i, o in enumerate(read("objects", list)):
        name = o.get("id", i) if isinstance(o, dict) else i
        obj = reader(o, [f.name for f in fields(ObjectSpec)], f"object.{name}.")
        objects.append(_decode(ObjectSpec, obj, id=obj("id", str)))
    boxes = [_decode(Box, reader(b, [f.name for f in fields(Box)], f"obstacle.{i}."))
             for i, b in enumerate(read("obstacle_boxes", list))]
    camera = _decode(CameraIntrinsics,
                     reader(read("camera"), [f.name for f in fields(CameraIntrinsics)], "camera."))
    return _decode(WorldConfig, read, objects=objects, obstacle_boxes=boxes, camera=camera,
                   target_id=read("target_id", lambda v: None if v is None else str(v), None))


def _fmt(value) -> str:
    if isinstance(value, list):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(config: WorldConfig) -> str:
    """config_to_dict flattened to `key = value` lines; a None target is left out."""
    lines = ["# skillsim scene"]
    for key, value in config_to_dict(config).items():
        if key == "camera":
            lines += [f"camera.{k} = {_fmt(v)}" for k, v in value.items()]
        elif key == "objects":
            lines += [f"object.{o['id']}.{k} = {_fmt(v)}"
                      for o in value for k, v in o.items() if k != "id"]
        elif key == "obstacle_boxes":
            lines += [f"obstacle.{i}.{k} = {_fmt(v)}"
                      for i, b in enumerate(value) for k, v in b.items()]
        elif value is not None:
            lines.append(f"{_TEXT_KEYS.get(key, key)} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> WorldConfig:
    """Nest the `key = value` lines back into config_to_dict's shape, then decode."""
    d: dict = {"camera": {}}
    groups: dict = {"object": {}, "obstacle": {}}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"scene line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        head, _, rest = key.partition(".")
        name, _, attr = rest.partition(".")
        if head == "camera" and rest:
            d["camera"][rest] = value
        elif head in groups and attr not in ("", "id") and (head == "object" or name.isdigit()):
            groups[head].setdefault(name, {})[attr] = value
        elif key in _TEXT_KEYS or key in ("camera", "objects", "obstacle_boxes"):
            # manifest spellings, never a scene-file key
            raise ValueError(f"unknown keys {[key]}")
        else:
            d[_DICT_KEYS.get(key, key)] = value
    d["objects"] = [{"id": oid, **attrs} for oid, attrs in groups["object"].items()]
    d["obstacle_boxes"] = [groups["obstacle"][i] for i in sorted(groups["obstacle"], key=int)]
    return config_from_dict(d)


def save_scene(path, config: WorldConfig) -> None:
    FsPath(path).write_text(config_to_text(config))


def load_scene(path) -> WorldConfig:
    try:
        config = config_from_text(FsPath(path).read_text())
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config
