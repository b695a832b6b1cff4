"""World dynamics, predicates, and renderer invariants."""

import hashlib

import numpy as np
import pytest

from skillsim import BaseCommand, ObjectSpec, World, WorldConfig
from skillsim.kinematics import JOINT_HIGH, JOINT_LOW, fk
from skillsim.scene import make_scene, make_short_scene


def single_object_config(center, half=0.03, **kwargs):
    return WorldConfig(
        objects=[ObjectSpec("box0", np.asarray(center), np.full(3, half),
                            np.array([0.85, 0.10, 0.10]))],
        target_id="box0",
        depth_noise_sigma=kwargs.pop("depth_noise_sigma", 0.0),
        **kwargs,
    )


def test_step_fixed_point():
    world = World(single_object_config([1.2, 0.0, 0.43]))
    before = world.state.copy()
    world.step(BaseCommand(0.0, 0.0), before.joints)
    assert np.array_equal(world.state.base, before.base)
    assert np.array_equal(world.state.joints, before.joints)


def test_step_unicycle_integration():
    world = World(single_object_config([1.2, 0.0, 0.43]))
    world.step(BaseCommand(0.5, 0.0), world.state.joints)
    assert world.state.base[0] == pytest.approx(0.05, abs=1e-15)
    assert world.state.base[1] == 0.0


def test_step_joint_rate_limit():
    world = World(single_object_config([1.2, 0.0, 0.43]))
    target = world.state.joints.copy()
    q1_before = target[1]
    target[1] += 1.0
    world.step(BaseCommand(), target)
    assert world.state.joints[1] == pytest.approx(q1_before + 0.05, abs=1e-12)


def test_joint_limits_hold_under_random_commands():
    world = World(single_object_config([1.2, 0.0, 0.43]))
    rng = np.random.default_rng(3)
    for _ in range(200):
        target = rng.uniform(JOINT_LOW - 1.0, JOINT_HIGH + 1.0)
        world.step(BaseCommand(rng.uniform(-1, 1), rng.uniform(-2, 2)), target)
        assert np.all(world.state.joints >= JOINT_LOW)
        assert np.all(world.state.joints <= JOINT_HIGH)
        assert -np.pi < world.state.base[2] <= np.pi


@pytest.mark.parametrize("v, omega, joint", [
    (np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, np.nan), (np.nan, 0.0, np.nan),
])
def test_step_rejects_non_finite_command(v, omega, joint):
    world = World(make_short_scene(0))
    before = world.state.copy()
    target = world.state.joints.copy()
    target[2] += joint
    with pytest.raises(ValueError, match="non-finite command"):
        world.step(BaseCommand(v, omega), target)
    assert np.array_equal(world.state.base, before.base)
    assert np.array_equal(world.state.joints, before.joints)


def test_energy_free_kinematics():
    world = World(single_object_config([1.2, 0.0, 0.43]))
    base0 = world.state.base.copy()
    joints0 = world.state.joints.copy()
    for _ in range(50):
        world.step(BaseCommand(0.0, 0.0), joints0)
    assert np.array_equal(world.state.base, base0)
    assert np.array_equal(world.state.joints, joints0)


def test_base_collision_freezes_motion():
    cfg = single_object_config([1.2, 0.0, 0.43])
    world = World(cfg)  # table front edge at x = 0.9, robot radius 0.3
    for _ in range(100):
        world.step(BaseCommand(0.5, 0.0), world.state.joints)
    assert world.state.base[0] <= 0.9 - 0.3 + 1e-9


def test_determinism_states_and_frames():
    cfg = make_short_scene(5)
    rng = np.random.default_rng(11)
    cmds = [(BaseCommand(rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)),
             rng.uniform(JOINT_LOW, JOINT_HIGH)) for _ in range(15)]
    runs = []
    for _ in range(2):
        world = World(make_short_scene(5))
        states, frames = [], []
        for cmd, target in cmds:
            frames.append(world.render())
            states.append(world.step(cmd, target))
        runs.append((states, frames))
    for s1, s2 in zip(*[r[0] for r in runs]):
        assert np.array_equal(s1.base, s2.base)
        assert np.array_equal(s1.joints, s2.joints)
    for f1, f2 in zip(*[r[1] for r in runs]):
        assert np.array_equal(f1.rgb, f2.rgb)
        assert np.array_equal(f1.depth, f2.depth)
        assert np.array_equal(f1.disparity, f2.disparity)
    assert cfg.rng_seed == 5


# ----------------------------------------------------------------------
# rendering


def test_render_floor_only():
    # table and object behind the camera: every visible pixel is floor
    cfg = single_object_config([-5.0, 0.0, 0.03])
    cfg.table_center = np.array([-5.0, 0.0, 0.2])
    world = World(cfg)
    frame = world.render()
    assert np.all(frame.hit_ids == 0)
    assert np.all(frame.depth > 0)


def test_disparity_depth_identity():
    world = World(make_short_scene(0))
    frame = world.render()
    cam = world.config.camera
    fb = np.float32(cam.focal_px * cam.baseline_m)
    mask = frame.depth > 0
    assert np.array_equal(frame.disparity[mask], fb / frame.depth[mask])
    assert np.all(frame.disparity[~mask] == 0)


def test_disparity_value_at_one_meter():
    assert np.float32(60.0 * 0.08) / np.float32(1.0) == np.float32(4.8)


def test_cloud_one_point_per_finite_pixel():
    world = World(make_short_scene(1))
    frame = world.render()
    assert len(frame.cloud) == int(np.count_nonzero(frame.depth > 0))


def test_back_projection_reprojects_to_source_pixel():
    cfg = make_short_scene(2)
    cfg.depth_noise_sigma = 0.0
    world = World(cfg)
    frame = world.render()
    origin, rot = world.camera_pose()
    cam = cfg.camera
    pts_cam = (frame.cloud.positions - origin) @ rot
    u = pts_cam[:, 0] / pts_cam[:, 2] * cam.focal_px + cam.width / 2.0
    v = pts_cam[:, 1] / pts_cam[:, 2] * cam.focal_px + cam.height / 2.0
    src_v, src_u = np.nonzero(frame.depth > 0)
    assert np.all(np.floor(u).astype(int) == src_u)
    assert np.all(np.floor(v).astype(int) == src_v)


def test_render_cube_blob_centroid():
    # small cube straight ahead; blob centroid within 2 cm of the cube center
    cfg = single_object_config([0.8, 0.0, 0.35], half=0.015)
    world = World(cfg)
    frame = world.render()
    mask = (frame.hit_ids == world.hit_id("box0")).ravel()
    assert mask.any()
    cloud_mask = mask[frame.depth.ravel() > 0]
    blob = frame.cloud.positions[cloud_mask]
    centroid = blob.mean(axis=0)
    assert np.linalg.norm(centroid - np.array([0.8, 0.0, 0.35])) < 0.02


def test_render_rgb_matches_object_color():
    cfg = make_short_scene(3)
    world = World(cfg)
    frame = world.render()
    mask = frame.hit_ids == world.hit_id("box0")
    expected = np.rint(cfg.object("box0").color * 255).astype(np.uint8)
    assert np.array_equal(frame.rgb[mask][0], expected)


# ----------------------------------------------------------------------
# touch and attach predicates


def tip_config(offset=np.zeros(3), half=0.03):
    """Scene whose object center sits at the gripper tip plus offset."""
    cfg = single_object_config([1.2, 0.0, 0.43], half=half)
    tip = fk(cfg.robot_joints, cfg.robot_start)
    cfg.objects[0].center = tip + offset
    return cfg


def test_touching_at_center_and_far():
    world = World(tip_config())
    assert world.touching()
    far = World(single_object_config([5.0, 0.0, 0.43]))
    assert not far.touching()


def test_touching_inflation_boundary():
    half = 0.03
    near = World(tip_config(offset=np.array([half + 0.019, 0.0, 0.0]), half=half))
    assert near.touching()
    out = World(tip_config(offset=np.array([half + 0.021, 0.0, 0.0]), half=half))
    assert not out.touching()


def test_attach_requires_touch_and_closed_gripper():
    cfg = tip_config()
    cfg.robot_joints = cfg.robot_joints.copy()
    cfg.robot_joints[4] = 0.1
    world = World(cfg)
    assert world.attach_if_grasping()
    assert world.state.attached_object == "box0"

    cfg2 = tip_config()
    cfg2.robot_joints = cfg2.robot_joints.copy()
    cfg2.robot_joints[4] = 0.9
    world2 = World(cfg2)
    assert not world2.attach_if_grasping()

    cfg3 = single_object_config([5.0, 0.0, 0.43])
    cfg3.robot_joints = cfg3.robot_joints.copy()
    cfg3.robot_joints[4] = 0.1
    world3 = World(cfg3)
    assert not world3.attach_if_grasping()


def test_attached_object_follows_tip():
    cfg = tip_config()
    cfg.robot_joints = cfg.robot_joints.copy()
    cfg.robot_joints[4] = 0.1
    world = World(cfg)
    world.attach_if_grasping()
    target = world.state.joints.copy()
    target[0] = 0.2  # raise the torso
    for _ in range(30):
        world.step(BaseCommand(), target)
    tip = world.gripper_tip()
    assert np.linalg.norm(world.object_centers["box0"] - tip) < 0.06
    assert world.object_centers["box0"][2] > cfg.objects[0].center[2] + 0.15


def test_config_validation_rejects_close_colors():
    with pytest.raises(ValueError, match="colors closer"):
        WorldConfig(
            objects=[
                ObjectSpec("a", np.array([1.2, 0.0, 0.43]), np.full(3, 0.03),
                           np.array([0.8, 0.1, 0.1])),
                ObjectSpec("b", np.array([1.2, 0.2, 0.43]), np.full(3, 0.03),
                           np.array([0.75, 0.1, 0.1])),
            ],
            target_id="a",
        ).validate()


# ----------------------------------------------------------------------
# golden frames


GOLDEN_POSES = ((0.0, 0.0, 0.0), (0.3, -0.2, 0.4), (-0.5, 0.4, -0.7))


def frame_digest(variant, seed):
    """sha256 over every array of the frames rendered at GOLDEN_POSES.

    The poses are offsets from the scene's start pose, plus one pose 0.7 m
    in front of the target; each frame draws fresh depth noise.
    """
    cfg = make_scene(seed, variant)
    world = World(cfg)
    start = cfg.robot_start
    target = cfg.object(cfg.target_id).center
    poses = [start + np.array(p) for p in GOLDEN_POSES]
    poses.append(np.array([target[0] - 0.7, target[1], 0.0]))
    h = hashlib.sha256()
    for pose in poses:
        world.state.base = pose
        f = world.render()
        for a in (f.rgb, f.depth, f.disparity, f.hit_ids, f.cloud.positions, f.cloud.colors):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("variant,seed,digest", [
    ("short", 0,
     "ac93b388007eca227905827caa0e18d9b43fb952607dd3fc38574afcced3b7a2"),
    ("short", 7,
     "c3dda9d835258c4cc4ab7eb37b53d156940ddfebcedb055964c55202b188fe93"),
    ("long", 0,
     "527ae6a35256cc503b72bc1bf397f140fea00f3e3dd35714f775f8e43a070c8b"),
    ("long", 3,
     "f3af6df897105cdb0451fcf707fb915fc4c8e771975013663cb2c869307b2cba"),
])
def test_render_golden_frames(variant, seed, digest):
    # Any change to ray casting, noise, disparity or back-projection shows
    # here; the digests pin the renderer's exact output on numpy 2.4 with
    # OpenBLAS on x86-64.
    assert frame_digest(variant, seed) == digest
