"""Scene families and the text scene-file format."""

import re

import numpy as np
import pytest

from skillsim.config import load_run_config
from skillsim.kinematics import JOINT_HIGH
from skillsim.scene import (
    PALETTE,
    config_from_text,
    config_to_text,
    load_scene,
    make_long_scene,
    make_scene,
    make_short_scene,
    save_scene,
)


def test_palette_pairwise_separation():
    colors = [np.array(c) for c in PALETTE.values()]
    for i, a in enumerate(colors):
        for b in colors[i + 1:]:
            assert np.linalg.norm(a - b) >= 0.3


def test_short_scene_valid_and_deterministic():
    a = make_short_scene(11)
    b = make_short_scene(11)
    a.validate()
    assert np.array_equal(a.robot_start, b.robot_start)
    assert np.array_equal(a.objects[0].center, b.objects[0].center)
    c = make_short_scene(12)
    assert not np.array_equal(a.robot_start, c.robot_start)


def test_short_scene_geometry():
    for seed in range(20):
        cfg = make_short_scene(seed)
        cfg.validate()
        obj = cfg.object("box0").center
        start = cfg.robot_start
        dist = np.linalg.norm(obj[:2] - start[:2])
        assert 0.5 < dist < 0.65
        # heading points exactly at the target
        bearing = np.arctan2(obj[1] - start[1], obj[0] - start[0])
        assert abs(bearing - start[2]) < 1e-9
        # objects rest on the tabletop
        for o in cfg.objects:
            assert o.center[2] == pytest.approx(0.4 + o.half_extents[2])


def test_long_scene_geometry():
    for seed in range(20):
        cfg = make_long_scene(seed)
        cfg.validate()
        obj = cfg.object("box0").center
        dist = np.linalg.norm(obj[:2] - cfg.robot_start[:2])
        assert 2.6 < dist < 3.5
        assert len(cfg.obstacle_boxes) == 2


def test_make_scene_dispatch():
    assert make_scene(0, "short").target_id == "box0"
    assert len(make_scene(0, "long").obstacle_boxes) > 0
    with pytest.raises(ValueError):
        make_scene(0, "medium")


@pytest.mark.parametrize("make", [make_short_scene, make_long_scene], ids=lambda f: f.__name__)
@pytest.mark.parametrize("distractors", [-3, 1.5, True], ids=repr)
def test_scene_rejects_a_bad_distractor_count_naming_it(make, distractors):
    with pytest.raises(ValueError, match=r"^distractors must be (an integer|>= 0),"):
        make(0, distractors=distractors)
    assert [o.id for o in make(0, distractors=0).objects] == ["box0"]


def test_scene_text_round_trip(tmp_path):
    cfg = make_long_scene(5)
    path = tmp_path / "scene.txt"
    save_scene(path, cfg)
    back = load_scene(path)
    assert np.array_equal(back.robot_start, cfg.robot_start)
    assert np.array_equal(back.table_center, cfg.table_center)
    assert back.rng_seed == cfg.rng_seed
    assert back.dt == cfg.dt
    assert back.target_id == cfg.target_id
    assert len(back.objects) == len(cfg.objects)
    for a, b in zip(cfg.objects, back.objects):
        assert a.id == b.id
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.color, b.color)
    assert len(back.obstacle_boxes) == len(cfg.obstacle_boxes)
    # serialization is exact: a second dump is byte-identical
    assert config_to_text(back) == config_to_text(cfg)


def test_scene_defaults_match_run_config():
    """The scene makers' defaults are the registry's: the API and the CLI build one scene."""
    kwargs = load_run_config().scene_kwargs
    for variant in ("short", "long"):
        assert config_to_text(make_scene(3, variant)) == \
            config_to_text(make_scene(3, variant, **kwargs(variant)))


GOLDEN_LONG_SCENE = """\
# skillsim scene
dt = 0.1
rng_seed = 0
depth_noise_sigma = 0.002
table.center = 1.2 0.0 0.2
table.size = 0.6 1.2 0.4
camera.width = 64
camera.height = 64
camera.focal_px = 60.0
camera.baseline_m = 0.08
camera.height_m = 1.1
camera.pitch_rad = 0.6
robot.start = -2.0850093743518716 -0.9096884096284152 0.17024185960954785
robot.joints = 0.0 0.9 -1.4 0.0 1.0
target = box0
object.box0.center = 1.0241928879853226 0.024205530272281672 0.45
object.box0.half_extents = 0.05 0.05 0.05
object.box0.color = 0.85 0.1 0.1
object.box1.center = 1.26643646067426 -0.25640610000682457 0.45
object.box1.half_extents = 0.05 0.05 0.05
object.box1.color = 0.1 0.75 0.15
object.box2.center = 1.2391859890447823 -0.30232336122989617 0.45
object.box2.half_extents = 0.05 0.05 0.05
object.box2.color = 0.15 0.2 0.85
obstacle.0.center = -1.1541590804599995 -0.4897677111646995 0.25
obstacle.0.half_extents = 0.18 0.18 0.25
obstacle.1.center = -0.4224315478306616 -0.5540633219420152 0.25
obstacle.1.half_extents = 0.18 0.18 0.25
"""


def test_scene_file_golden_text(tmp_path):
    path = tmp_path / "scene.txt"
    save_scene(path, make_long_scene(0, distractors=2))
    assert path.read_text() == GOLDEN_LONG_SCENE
    assert config_to_text(load_scene(path)) == GOLDEN_LONG_SCENE


def without(text, prefix):
    return "".join(l for l in text.splitlines(True) if not l.startswith(prefix))


def test_scene_text_unknown_key_rejected():
    for extra in ("bogus.key = 1",
                  "object.box0.colour = 0.1 0.2 0.3",   # next to a valid color line
                  "camera.focal = 60.0",
                  "obstacle.0.radius = 0.2",
                  "table_center = 1.2 0.0 0.2"):        # the manifest spelling
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_text(GOLDEN_LONG_SCENE + extra + "\n")


def test_scene_text_missing_object_field():
    for key in ("object.box0.color", "obstacle.0.half_extents", "table.center",
                "camera.focal_px", "robot.joints"):
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            config_from_text(without(GOLDEN_LONG_SCENE, key + " "))


def test_scene_text_bad_value_named():
    text = GOLDEN_LONG_SCENE.replace("dt = 0.1", "dt = fast")
    with pytest.raises(ValueError, match="bad value for 'dt'"):
        config_from_text(text)


@pytest.mark.parametrize("key,value", [
    ("robot.start", "nan 0.0 0.0"),
    ("dt", "inf"),
    ("camera.focal_px", "-inf"),
    ("object.box0.color", "0.85 nan 0.1"),
])
def test_scene_text_non_finite_value_named(key, value):
    lines = [l for l in GOLDEN_LONG_SCENE.splitlines() if not l.startswith(key + " =")]
    with pytest.raises(ValueError, match=rf"bad value for '{key}': must be finite"):
        config_from_text("\n".join(lines + [f"{key} = {value}"]) + "\n")


def test_load_scene_rejects_a_negative_seed_naming_key_and_path(tmp_path):
    """World() used to fail on it with numpy's "expected non-negative integer"."""
    path = tmp_path / "scene.txt"
    path.write_text(GOLDEN_LONG_SCENE.replace("rng_seed = 0", "rng_seed = -1"))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: bad value for 'rng_seed': "
                                         r"must be >= 0, got -1$"):
        load_scene(path)


VECTOR_KEYS = ("table.center", "table.size", "robot.start", "robot.joints", "object.box0.center",
               "object.box0.half_extents", "object.box0.color", "obstacle.0.center",
               "obstacle.0.half_extents")
EXTENT_KEYS = ("table.size", "object.box0.half_extents", "obstacle.0.half_extents")


def bad_vectors():
    """(key, value, what the error says it must be) for each bad vector probe."""
    for key in VECTOR_KEYS:
        n = 5 if key == "robot.joints" else 3
        probes = {"nan": (["0.1"] * (n - 1) + ["nan"], "finite"),
                  "short": (["0.1"] * (n - 1), f"{n} values")}
        if key in EXTENT_KEYS:
            probes.update(zero=(["0.1", "0.0", "0.1"], "> 0.0"),
                          negative=(["-0.05", "0.1", "0.1"], "> 0.0"))
        if key == "robot.joints":  # the gripper past its upper limit
            probes["past high"] = (["0.0", "0.9", "-1.4", "0.0", repr(float(JOINT_HIGH[4]) + 0.5)],
                                   "<= ")
        yield from (pytest.param(key, " ".join(v), must, id=f"{key}-{what}")
                    for what, (v, must) in probes.items())


@pytest.mark.parametrize("key,value,must", bad_vectors())
def test_load_scene_names_the_key_of_every_bad_vector(tmp_path, key, value, must):
    """The decoder reads each vector with its field's parser, so a bad extent or
    joint is named like a bad number, by its key and what it must be."""
    path = tmp_path / "scene.txt"
    lines = [l for l in GOLDEN_LONG_SCENE.splitlines() if not l.startswith(key + " =")]
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: bad value for '{key}': "
                                         rf"must be {re.escape(must)}"):
        load_scene(path)


def test_scene_text_bad_line():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        config_from_text("dt 0.1\n")
