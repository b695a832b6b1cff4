"""World dynamics, predicates, and renderer invariants."""

import hashlib
import re

import numpy as np
import pytest

from skillsim import BaseCommand, ObjectSpec, World, WorldConfig, sim
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


CLAMP_INPUTS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -0.5, 1.0, -1.0,
                np.nextafter(0.5, 1.0), np.nextafter(-0.5, -1.0), np.nextafter(1.0, 0.0),
                5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                np.float64(0.7), np.float64(-0.0), np.float64(np.nan),
                np.float32(0.3), np.float32(0.7), np.float32(-0.0), np.float32(np.nan),
                np.float32(-np.inf), np.float32(0.5), np.float32(1e-45)]


@pytest.mark.parametrize("value", CLAMP_INPUTS, ids=repr)
def test_base_command_clamped_has_np_clip_bits(value):
    cmd = BaseCommand(value, value).clamped()
    for got, limit in ((cmd.v, BaseCommand.V_MAX), (cmd.omega, BaseCommand.OMEGA_MAX)):
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(np.clip(value, -limit, limit)).tobytes()


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


def test_camera_pose_down_axis_is_np_cross_bytes():
    world = World(make_short_scene(2))
    angles = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 0.3, -2.9, 7.0, 5e-324]
    for yaw in angles:
        for pitch in angles + [sim.CameraIntrinsics().pitch_rad]:
            world.state.base[2] = yaw
            world.config.camera.pitch_rad = pitch
            _, rot = world.camera_pose()
            right, down, optical = rot.T
            assert down.tobytes() == np.cross(optical, right).tobytes(), (yaw, pitch)


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


# field as the error names it -> a setter of one of its floats, on a long scene
NON_FINITE_FIELDS = {
    "camera.focal_px": lambda c, x: setattr(c.camera, "focal_px", x),
    "camera.baseline_m": lambda c, x: setattr(c.camera, "baseline_m", x),
    "camera.height_m": lambda c, x: setattr(c.camera, "height_m", x),
    "camera.pitch_rad": lambda c, x: setattr(c.camera, "pitch_rad", x),
    "dt": lambda c, x: setattr(c, "dt", x),
    "depth_noise_sigma": lambda c, x: setattr(c, "depth_noise_sigma", x),
    "robot_start": lambda c, x: c.robot_start.__setitem__(0, x),
    "robot_joints": lambda c, x: c.robot_joints.__setitem__(4, x),
    "table_center": lambda c, x: c.table_center.__setitem__(2, x),
    "table_size": lambda c, x: c.table_size.__setitem__(1, x),
    "object 'box1' center": lambda c, x: c.objects[1].center.__setitem__(0, x),
    "object 'box1' half_extents": lambda c, x: c.objects[1].half_extents.__setitem__(2, x),
    "object 'box1' color": lambda c, x: c.objects[1].color.__setitem__(1, x),
    "obstacle 1 center": lambda c, x: c.obstacle_boxes[1].center.__setitem__(1, x),
    "obstacle 1 half_extents": lambda c, x: c.obstacle_boxes[1].half_extents.__setitem__(0, x),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("name", sorted(NON_FINITE_FIELDS))
def test_world_rejects_a_non_finite_config_float_naming_it(name, value):
    cfg = make_scene(0, "long")
    NON_FINITE_FIELDS[name](cfg, value)
    with pytest.raises(ValueError, match="^" + re.escape(name) + " must be finite"):
        World(cfg)


def test_world_rejects_a_negative_depth_noise_sigma_naming_it():
    """render draws noise only for a positive sigma, so a negative one would
    silently turn the noise off."""
    cfg = make_scene(0, "short")
    cfg.depth_noise_sigma = -0.01
    with pytest.raises(ValueError, match="^depth_noise_sigma must be >= 0.0, got -0.01$"):
        World(cfg)
    cfg.depth_noise_sigma = 0.0
    World(cfg)


@pytest.mark.parametrize("sigma", [-0.01, np.nan, np.inf], ids=repr)
def test_render_rejects_a_bad_depth_noise_sigma_naming_it(sigma):
    """The argument passes WorldConfig.validate's check, before any noise is drawn."""
    world = World(make_short_scene(0))
    with pytest.raises(ValueError, match="^depth_noise_sigma must be (>= 0.0|finite),"):
        world.render(depth_noise_sigma=sigma)
    assert world.render().depth.tobytes() == World(make_short_scene(0)).render().depth.tobytes()


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


# ----------------------------------------------------------------------
# frozen reference renderer: World.render as it was before the noiseless
# cast was kept between frames. render() must match it bit for bit.


def ray_aabb_reference(origin, dirs, lo, hi):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        ta = (lo[None, :] - origin[None, :]) * inv
        tb = (hi[None, :] - origin[None, :]) * inv
    tlo = np.nan_to_num(np.fmin(ta, tb), nan=-np.inf)
    thi = np.nan_to_num(np.fmax(ta, tb), nan=np.inf)
    tmin = np.maximum(np.maximum(tlo[:, 0], tlo[:, 1]), tlo[:, 2])
    tmax = np.minimum(np.minimum(thi[:, 0], thi[:, 1]), thi[:, 2])
    hit = (tmax >= tmin) & (tmax > 0.0)
    return np.where(hit, np.maximum(tmin, 0.0), np.inf)


BOX_LO, BOX_HI = np.array([-0.5, 0.25, 1.0]), np.array([0.75, 1.5, 2.0])
ORIGINS = {
    "outside": np.array([-2.0, 0.5, 0.0]),
    "inside": np.array([0.0, 1.0, 1.5]),
    "on the lo x face": np.array([-0.5, 0.5, 1.25]),
    "on the hi z face": np.array([0.1, 0.3, 2.0]),
    "on the plane of a face, outside": np.array([-0.5, 3.0, -1.0]),
    "on an edge": np.array([0.75, 0.25, 1.2]),
}


@pytest.mark.parametrize("where", sorted(ORIGINS))
def test_ray_aabb_on_planes_bit_equal_to_reference(where):
    """Direction components of +0.0 and -0.0 and origins on a face plane give
    0 * inf slab products and signed-zero bounds; the plane layout, on the
    whole grid and on a window of it, still returns the reference's bits.
    A ray has a direction, so no ray is zero on all three axes (the
    reference's clamp would turn such a ray's inf bounds into a hit)."""
    origin = ORIGINS[where]
    rng = np.random.default_rng(sorted(ORIGINS).index(where))
    dirs = rng.uniform(-1.0, 1.0, (9, 11, 3))
    zero = rng.random(dirs.shape) < 0.3
    dirs[zero] = rng.choice([0.0, -0.0], zero.sum())
    dirs[(dirs == 0.0).all(axis=-1), 2] = 1.0
    assert np.any((dirs == 0.0) & np.signbit(dirs)) and np.any((dirs == 0.0) & ~np.signbit(dirs))
    expected = ray_aabb_reference(origin, dirs.reshape(-1, 3), BOX_LO, BOX_HI).reshape(9, 11)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.ascontiguousarray((1.0 / dirs).transpose(2, 0, 1))
        whole = sim._ray_aabb(origin, inv, BOX_LO, BOX_HI)
        window = sim._ray_aabb(origin, inv[:, 2:7, 3:10], BOX_LO, BOX_HI)
    assert whole.shape == (9, 11) and whole.tobytes() == expected.tobytes()
    assert window.tobytes() == expected[2:7, 3:10].tobytes()


def pixel_rays_reference(cam):
    """Camera-frame ray directions (z normalized to 1), one per pixel, row by row."""
    us = (np.arange(cam.width) + 0.5 - cam.width / 2.0) / cam.focal_px
    vs = (np.arange(cam.height) + 0.5 - cam.height / 2.0) / cam.focal_px
    uu, vv = np.meshgrid(us, vs)
    return np.stack([uu, vv, np.ones_like(uu)], axis=-1).reshape(-1, 3)


def render_reference(world, depth_noise_sigma=None):
    """(rgb, depth, disparity, hit_ids, cloud positions, cloud colors) of one
    frame, with the camera as it is at the call."""
    cam = world.config.camera
    sigma = world.config.depth_noise_sigma if depth_noise_sigma is None else depth_noise_sigma
    origin, rot = world.camera_pose()
    dirs = pixel_rays_reference(cam) @ rot.T
    n = dirs.shape[0]
    t_best = np.full(n, np.inf)
    id_best = np.full(n, sim.HIT_NONE, dtype=np.int32)
    rgb_f = np.tile(np.array(sim.SKY_COLOR), (n, 1))
    for lo, hi, color, hid in world._render_boxes():
        t = ray_aabb_reference(origin, dirs, lo, hi)
        closer = t < t_best
        t_best = np.where(closer, t, t_best)
        id_best[closer] = hid
        rgb_f[closer] = color
    depth = np.where(np.isfinite(t_best), t_best, 0.0)
    if sigma > 0.0:
        noise = world._rng.normal(0.0, sigma, size=n)
        depth = np.where(depth > 0.0, depth + noise, 0.0)
    depth32 = depth.astype(np.float32)
    fb = np.float32(cam.focal_px * cam.baseline_m)
    with np.errstate(divide="ignore"):
        disparity = np.where(depth32 > 0.0, fb / depth32, np.float32(0.0))
    rgb = np.rint(rgb_f * 255.0).astype(np.uint8)
    mask = depth32 > 0.0
    pts = origin[None, :] + depth32[mask, None].astype(float) * dirs[mask]
    h, w = cam.height, cam.width
    return (rgb.reshape(h, w, 3), depth32.reshape(h, w),
            disparity.astype(np.float32).reshape(h, w), id_best.reshape(h, w),
            pts, rgb_f[mask].copy())


class Lockstep:
    """A world under test and a reference world, given the same changes."""

    def __init__(self, config):
        self.world, self.ref = World(config), World(config)  # one shared config

    def set_base(self, base):
        for w in (self.world, self.ref):
            w.state.base = np.array(base, dtype=float)

    def move_object(self, object_id, center):
        for w in (self.world, self.ref):
            w.object_centers[object_id] = np.array(center, dtype=float)

    def step(self, cmd, target):
        for w in (self.world, self.ref):
            w.step(cmd, target)
        assert np.array_equal(self.world.object_centers[self.world.config.target_id],
                              self.ref.object_centers[self.ref.config.target_id])

    def render(self, sigma=None, scribble=False):
        """Renders both; with scribble, writes into the frame before reading its cloud."""
        frame = self.world.render(sigma)
        expected = render_reference(self.ref, sigma)
        planes = (frame.rgb, frame.depth, frame.disparity, frame.hit_ids)
        for a, e in zip(planes, expected):
            assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes()
        if scribble:
            frame.rgb[...] = 7
            frame.hit_ids[...] = 99
            frame.depth[...] = 5.0
        cloud = (frame.cloud.positions, frame.cloud.colors)
        for a, e in zip(cloud, expected[4:]):
            assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes()
        return frame


@pytest.mark.parametrize("variant, seed", [("short", 0), ("long", 3)])
def test_render_sequence_bit_equal_to_reference(variant, seed):
    cfg = make_scene(seed, variant)
    run = Lockstep(cfg)
    for _ in range(3):
        run.render()                    # unchanged pose: the cast is reused
    run.render(0.0)                     # noiseless between noisy frames
    run.render()
    run.render(0.0)
    run.render(0.0)
    for base in ((0.4, 0.0, 0.0), (0.4, -0.0, -0.0), (0.4, 0.0, 0.0), (-0.0, 0.0, -0.0)):
        run.render()                    # signed zeros: same values, other bits
        run.set_base(base)
        run.render()
    run.set_base(cfg.robot_start)
    for _ in range(2):
        run.render(scribble=True)       # caller writes into rgb, hit_ids, depth
    run.render()
    cfg.objects[0].color = np.array([0.1, 0.2, 0.9])  # a new color array
    run.render()
    cfg.objects[1].color[2] = 0.95      # a color written in place
    run.render()
    cfg.table_center[2] -= 0.01         # a solid box moved in place
    run.render()
    if cfg.obstacle_boxes:
        cfg.obstacle_boxes[0].center = cfg.obstacle_boxes[0].center + 0.05
        run.render()
    for _ in range(3):
        run.step(BaseCommand(0.3, 0.4), run.world.state.joints)
        run.render()
        run.render()


def test_render_bit_equal_to_reference_while_carrying_the_target():
    cfg = tip_config()
    cfg.depth_noise_sigma = sim.DEPTH_NOISE_SIGMA
    cfg.robot_joints = cfg.robot_joints.copy()
    cfg.robot_joints[4] = 0.1
    run = Lockstep(cfg)
    run.render()
    run.step(BaseCommand(), cfg.robot_joints)    # attaches, holds still
    assert run.world.state.attached_object == "box0"
    run.render()
    target = cfg.robot_joints.copy()
    target[0] = 0.2                              # raise the torso: the box moves
    for _ in range(6):
        run.step(BaseCommand(), target)
        run.render()
        run.render(0.0)
    for _ in range(2):
        run.step(BaseCommand(0.2, -0.3), target)  # carried by a moving base
        run.render()
    for _ in range(3):                           # lift at its target: nothing moves
        run.step(BaseCommand(), target)
        run.render()


def view_point(world, px, py, depth):
    """The world point `depth` along the ray through image point (px, py), where
    pixel column c spans [c, c + 1); a negative depth lies behind the camera."""
    cam = world.config.camera
    origin, rot = world.camera_pose()
    ray = np.array([(px - cam.width / 2.0) / cam.focal_px,
                    (py - cam.height / 2.0) / cam.focal_px, 1.0])
    return origin + rot @ (depth * ray)


def corner_depths(world, center, half):
    """Camera-frame z of the 8 corners of the cube at center with half extent half."""
    origin, rot = world.camera_pose()
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return ((center + half * signs - origin) @ rot)[:, 2]


# (case, pitch, (px, py, depth) of box0's center, half extent, where its
# corners lie, the image edge its pixels must reach or "off" for no pixel)
VIEW_CASES = [
    ("behind the camera", 0.6, (32, 32, -0.5), 0.05, "behind", "off"),
    ("across the image plane", 0.6, (100, 32, 0.2), 0.15, "across", None),
    ("around the camera", 0.6, (32, 32, 0.0), 0.2, "across", None),
    ("clipped at the left edge", 0.6, (0.3, 32, 1.0), 0.03, "front", "left"),
    ("clipped at the right edge", 0.6, (63.7, 32, 1.0), 0.03, "front", "right"),
    ("clipped at the top edge", 0.6, (32, 0.3, 1.0), 0.03, "front", "top"),
    ("clipped at the bottom edge", 0.6, (32, 63.7, 1.0), 0.03, "front", "bottom"),
    ("wholly left of the image", 0.6, (-6, 32, 1.0), 0.03, "front", "off"),
    ("wholly below the image", 0.6, (32, 75, 1.0), 0.03, "front", "off"),
    ("ahead at pitch 0", 0.0, (32, 32, 1.0), 0.03, "front", None),
    ("ahead at pitch pi/2", np.pi / 2, (32, 32, 0.8), 0.03, "front", None),
    ("off-image at pitch pi/2", np.pi / 2, (-9, 20, 0.8), 0.03, "front", "off"),
]
EDGES = {"left": (slice(None), 0), "right": (slice(None), -1),
         "top": (0, slice(None)), "bottom": (-1, slice(None))}


@pytest.mark.parametrize("case, pitch, pixel, half, corners, edge", VIEW_CASES,
                         ids=[c[0] for c in VIEW_CASES])
def test_render_bit_equal_to_reference_for_a_box_placed_in_view(case, pitch, pixel, half,
                                                                corners, edge):
    cfg = single_object_config([1.2, 0.0, 0.43], half=half,
                               depth_noise_sigma=sim.DEPTH_NOISE_SIGMA)
    cfg.camera.pitch_rad = pitch
    run = Lockstep(cfg)
    center = view_point(run.world, *pixel)
    run.move_object("box0", center)
    z = corner_depths(run.world, center, half)
    assert {"behind": np.all(z < 0), "across": z.min() < 0 < z.max(),
            "front": np.all(z > 0)}[corners], z
    frame = run.render()
    run.render(0.0)
    box_pixels = frame.hit_ids == run.world.hit_id("box0")
    if edge == "off":
        assert not box_pixels.any()
    elif edge is not None:
        assert box_pixels[EDGES[edge]].any() and not box_pixels.all()


def test_render_bit_equal_to_reference_with_axis_parallel_rays():
    """Odd width and height at yaw 0, pitch 0: the middle column's rays have a
    y component of zero, and box0's lower y face lies at the camera's y, so the
    slab products there are 0 * inf = NaN."""
    cfg = single_object_config([1.0, 0.03125, 1.1], half=0.03125,
                               camera=sim.CameraIntrinsics(width=63, height=63, pitch_rad=0.0))
    run = Lockstep(cfg)
    origin, rot = run.world.camera_pose()
    assert np.any((pixel_rays_reference(cfg.camera) @ rot.T)[:, 1] == 0.0)
    assert cfg.objects[0].center[1] - cfg.objects[0].half_extents[1] == origin[1]
    frame = run.render()
    assert np.any(frame.hit_ids[:, 30:33] == run.world.hit_id("box0"))
    run.render(sim.DEPTH_NOISE_SIGMA)


@pytest.mark.parametrize("case", ["pose", "box"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
def test_render_rejects_a_non_finite_pose_or_box(case, value):
    world = World(single_object_config([1.2, 0.0, 0.43]))
    world.render()
    if case == "pose":
        world.state.base = np.array([0.0, value, 0.0])
    else:
        world.object_centers["box0"] = np.array([1.2, 0.0, value])
    with pytest.raises(ValueError, match="must be finite to render"):
        world.render()


def test_frames_do_not_share_writable_arrays():
    world = World(make_short_scene(0))
    a, b = world.render(), world.render()
    for name in ("rgb", "depth", "disparity", "hit_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.flags.writeable and y.flags.writeable
        assert not np.shares_memory(x, y)
    assert a.cloud is a.cloud
    assert not np.shares_memory(a.cloud.positions, b.cloud.positions)
    assert not np.shares_memory(a.cloud.colors, b.cloud.colors)


def test_render_casts_only_the_boxes_that_moved(monkeypatch):
    """At a held pose a carry frame casts the carried box alone and an unchanged
    frame casts nothing; a new pose casts each box whose window has a pixel."""
    calls = []
    cast = sim._ray_aabb

    def spy(origin, inv, lo, hi):
        calls.append((lo.copy(), hi.copy()))
        return cast(origin, inv, lo, hi)

    monkeypatch.setattr(sim, "_ray_aabb", spy)
    cfg = tip_config()
    cfg.objects.append(ObjectSpec("box1", [1.1, 0.25, 0.43], np.full(3, 0.04),
                                  np.array([0.1, 0.8, 0.1])))
    cfg.obstacle_boxes += [sim.Box([1.0, -0.6, 0.3], [0.1, 0.1, 0.3]),
                           sim.Box([1.0, 3.0, 0.3], [0.1, 0.1, 0.3])]  # off to the left
    cfg.robot_joints = cfg.robot_joints.copy()
    cfg.robot_joints[4] = 0.1
    run = Lockstep(cfg)

    def cast_boxes():
        origin, rot = run.world.camera_pose()
        lohi = np.array([(lo, hi) for lo, hi, _, _ in run.world._render_boxes()])
        windows = sim.World._windows(origin, rot, lohi, cfg.camera.focal_px,
                                     (cfg.camera.width, cfg.camera.height))
        return [box for box, (r0, r1, c0, c1) in zip(lohi, windows) if r0 < r1 and c0 < c1]

    expected = cast_boxes()
    assert len(expected) == 5       # the obstacle off to the left has an empty window
    run.render()
    assert len(calls) == 5
    run.step(BaseCommand(), cfg.robot_joints)   # attaches, holds still
    assert run.world.state.attached_object == "box0"
    target = cfg.robot_joints.copy()
    target[0] = 0.2                             # raise the torso: the box moves
    for _ in range(4):
        calls.clear()
        run.step(BaseCommand(), target)
        run.render()
        center, half = run.world.object_centers["box0"], cfg.objects[0].half_extents
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], center - half)
        assert np.array_equal(calls[0][1], center + half)
        calls.clear()
        run.render()
        assert calls == []
    run.set_base((0.1, 0.05, 0.1))
    calls.clear()
    run.render()
    expected = cast_boxes()
    assert len(calls) == len(expected) == 5
    for (lo, hi), box in zip(calls, expected):
        assert np.array_equal(lo, box[0]) and np.array_equal(hi, box[1])


# ----------------------------------------------------------------------
# the render cache's key: the raw inputs of a frame, as bytes


def scene_with_obstacle_in_view():
    """Short scene 0 in lockstep, with an obstacle box appended in view."""
    cfg = make_short_scene(0)
    run = Lockstep(cfg)
    cfg.obstacle_boxes.append(sim.Box(view_point(run.world, 12, 44, 1.0), np.full(3, 0.06)))
    return cfg, run


def write_in_place(run, name):
    """Writes one raw input of the frame in place, in both worlds of `run`."""
    cfg, worlds = run.world.config, (run.world, run.ref)
    obj = cfg.object(cfg.target_id)
    if name == "state.base":
        for w in worlds:
            w.state.base[2] += 0.05
    elif name == "object center":
        for w in worlds:
            w.object_centers[obj.id][1] += 0.02
    elif name == "object half_extents":
        obj.half_extents[2] += 0.02
    elif name == "object color":
        obj.color[1] = 1.0 - obj.color[1]
    elif name == "table_size":
        cfg.table_size[0] += 0.2
    elif name == "obstacle half_extents":
        cfg.obstacle_boxes[0].half_extents[0] += 0.04
    elif name == "camera.height_m":
        cfg.camera.height_m += 0.05
    elif name == "camera.pitch_rad":
        cfg.camera.pitch_rad += 0.03
    elif name == "camera.focal_px":
        cfg.camera.focal_px = 40.0
    elif name == "camera.width":
        cfg.camera.width = 32
    elif name == "camera.height":
        cfg.camera.height = 48
    else:
        assert name == "camera.baseline_m"
        cfg.camera.baseline_m *= 1.5


RAW_INPUTS = ["state.base", "object center", "object half_extents", "object color",
              "table_size", "obstacle half_extents", "camera.height_m", "camera.pitch_rad",
              "camera.focal_px", "camera.width", "camera.height", "camera.baseline_m"]


def noiseless_bytes(frame):
    return frame.rgb.tobytes() + frame.depth.tobytes() + frame.hit_ids.tobytes()


def changed_bytes(frame, name):
    """The bytes a write of `name` changes: the baseline enters the disparity alone."""
    return frame.disparity.tobytes() if name == "camera.baseline_m" else noiseless_bytes(frame)


def test_render_key_sees_every_raw_input_written_in_place():
    """Each write changes the noiseless frame, so a key that missed any input
    would hand back the kept cast and differ from the reference."""
    cfg, run = scene_with_obstacle_in_view()
    before = run.render(0.0)
    assert np.any(before.hit_ids == sim.HIT_OBSTACLE_BASE)
    assert np.any(before.hit_ids == run.world.hit_id(cfg.target_id))
    for name in RAW_INPUTS:
        run.render()
        write_in_place(run, name)
        frame = run.render(0.0)
        assert changed_bytes(frame, name) != changed_bytes(before, name), name
        run.render()                        # unchanged inputs: the cast is kept
        before = frame


@pytest.mark.parametrize("name", [n for n in RAW_INPUTS
                                  if n not in ("camera.width", "camera.height")])
def test_render_raises_on_a_nan_written_after_a_kept_frame(name):
    cfg, run = scene_with_obstacle_in_view()
    world = run.world
    world.render()
    world.render()
    target = {"state.base": world.state.base,
              "object center": world.object_centers[cfg.target_id],
              "object half_extents": cfg.object(cfg.target_id).half_extents,
              "object color": cfg.object(cfg.target_id).color,
              "table_size": cfg.table_size,
              "obstacle half_extents": cfg.obstacle_boxes[0].half_extents}
    if name.startswith("camera."):
        setattr(cfg.camera, name[len("camera."):], np.nan)
    else:
        target[name][0] = np.nan
    message = (f"^{re.escape(name)} must be finite" if name.startswith("camera.")
               else "must be finite to render")
    for _ in range(2):                      # a failed frame keeps no key
        with pytest.raises(ValueError, match=message):
            world.render()


@pytest.mark.parametrize("name,value", [("camera.width", 64.0), ("camera.height", True),
                                        ("camera.focal_px", "60.0")], ids=repr)
def test_render_rejects_a_camera_field_world_would_reject(name, value):
    """64.0 packs to the bytes of the kept width 64, and text packs to none: the
    view key also holds each intrinsic's type, and never raises itself."""
    world = World(make_short_scene(0))
    world.render()
    setattr(world.config.camera, name[len("camera."):], value)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
            world.render()


@pytest.mark.parametrize("change", ["append an object", "drop an obstacle",
                                    "an object in the dropped obstacle's place"])
def test_render_misses_when_the_box_count_changes(change):
    cfg, run = scene_with_obstacle_in_view()
    before = run.render(0.0)
    run.render()
    if change != "append an object":
        dropped = cfg.obstacle_boxes.pop()
    if change != "drop an obstacle":
        center, half = ((dropped.center, dropped.half_extents) if change.startswith("an object")
                        else (view_point(run.world, 50, 40, 1.0), np.full(3, 0.05)))
        cfg.objects.append(ObjectSpec("added", center.copy(), half.copy(),
                                      np.array([0.2, 0.9, 0.9])))
        for w in (run.world, run.ref):
            w.object_centers["added"] = center.copy()
    frame = run.render(0.0)
    assert noiseless_bytes(frame) != noiseless_bytes(before)
    run.render()


# ----------------------------------------------------------------------
# the gripper tip's key: the bytes of the joints and the base


def test_gripper_tip_equals_fk_after_in_place_writes():
    world = World(make_short_scene(0))
    for name, i, value in (("joints", 1, 0.3), ("joints", 0, 0.2), ("base", 2, -0.3),
                           ("base", 0, 0.5), ("base", 1, -0.0)):
        world.gripper_tip()
        getattr(world.state, name)[i] = value
        expected = fk(world.state.joints, world.state.base)
        assert world.gripper_tip().tobytes() == expected.tobytes()
        assert world.gripper_tip().tobytes() == expected.tobytes()


def test_writing_into_a_returned_tip_leaves_the_next_one_unchanged():
    world = World(make_short_scene(0))
    tip = world.gripper_tip()
    expected = tip.copy()
    tip[:] = np.nan
    assert world.gripper_tip().tobytes() == expected.tobytes()
    assert world.touching() == World(make_short_scene(0)).touching()
