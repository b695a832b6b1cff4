"""Deterministic kinematic tabletop world.

A differential-drive base carries a lift-plus-three-pitch arm and a gripper.
Colored box objects sit on a table; a down-pitched pinhole camera on the base
renders RGB, depth, disparity and a world-frame point cloud by ray casting
against axis-aligned boxes. Everything is kinematic and seed-deterministic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import checks, kinematics
from .checks import (bound, check, count, finite_float, non_negative, param, positive, positive_int,
                     vec)
from .perception import PointCloud

ROBOT_RADIUS = 0.3
BASE_HEIGHT = 0.3           # z-slab the base occupies for collision purposes
TOUCH_MARGIN = 0.02         # AABB inflation for the touch predicate
GRASP_APERTURE = 0.3        # gripper aperture threshold for attaching
MIN_COLOR_SEPARATION = 0.3
TABLE_CENTER = (1.2, 0.0, 0.2)
TABLE_SIZE = (0.6, 1.2, 0.4)
DEPTH_NOISE_SIGMA = 0.002   # depth noise std (m)
_VEC3 = vec(3)
_EXTENTS = bound(_VEC3, ">", 0.0)  # sizes and half extents of boxes
_JOINTS = bound(bound(vec(5), ">=", kinematics.JOINT_LOW.tolist()),
                "<=", kinematics.JOINT_HIGH.tolist())

FLOOR_COLOR = (0.45, 0.45, 0.45)
TABLE_COLOR = (0.55, 0.36, 0.20)
OBSTACLE_COLOR = (0.25, 0.25, 0.30)
SKY_COLOR = (0.08, 0.08, 0.10)

HIT_NONE = -1
HIT_FLOOR = 0
HIT_TABLE = 1
HIT_OBJECT_BASE = 10
HIT_OBSTACLE_BASE = 1000

_FLOOR_LO = np.array([-50.0, -50.0, -1.0])
_FLOOR_HI = np.array([50.0, 50.0, 0.0])
# (lo, hi) choice per axis for each of a box's 8 corners
_CORNER_PICK = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))


@dataclass
class ObjectSpec:
    """A colored axis-aligned box resting in the scene."""

    id: str
    center: np.ndarray = param(parse=_VEC3)
    half_extents: np.ndarray = param(parse=_EXTENTS)
    color: np.ndarray = param(parse=_VEC3)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.half_extents = np.asarray(self.half_extents, dtype=float)
        self.color = np.asarray(self.color, dtype=float)


@dataclass
class Box:
    """Plain axis-aligned obstacle box."""

    center: np.ndarray = param(parse=_VEC3)
    half_extents: np.ndarray = param(parse=_EXTENTS)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.half_extents = np.asarray(self.half_extents, dtype=float)


@dataclass
class CameraIntrinsics:
    width: int = param(64, positive_int)
    height: int = param(64, positive_int)
    focal_px: float = param(60.0, positive)
    baseline_m: float = param(0.08, positive)
    height_m: float = param(1.1, finite_float)   # camera center above the base origin
    pitch_rad: float = param(0.6, finite_float)  # downward pitch of the optical axis


@dataclass
class BaseCommand:
    """Differential-drive command; clamped to bounds when applied."""

    v: float = 0.0
    omega: float = 0.0

    V_MAX = 0.5
    OMEGA_MAX = 1.0

    def clamped(self) -> "BaseCommand":
        # min/max with the value first give np.clip's bits, NaN included, at a
        # fraction of its cost on Python floats
        return BaseCommand(
            float(min(max(self.v, -self.V_MAX), self.V_MAX)),
            float(min(max(self.omega, -self.OMEGA_MAX), self.OMEGA_MAX)),
        )


@dataclass
class RobotState:
    base: np.ndarray                   # (x, y, yaw)
    joints: np.ndarray                 # (lift, q1, q2, q3, gripper)
    attached_object: str | None = None

    def copy(self) -> "RobotState":
        return RobotState(self.base.copy(), self.joints.copy(), self.attached_object)


@dataclass
class WorldConfig:
    table_center: np.ndarray = param(parse=_VEC3, factory=lambda: np.array(TABLE_CENTER))
    table_size: np.ndarray = param(parse=_EXTENTS, factory=lambda: np.array(TABLE_SIZE))
    objects: list = field(default_factory=list)
    obstacle_boxes: list = field(default_factory=list)
    camera: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    rng_seed: int = param(0, count)
    dt: float = param(0.1, positive)
    # render draws noise only for a positive sigma, so a negative one would
    # silently turn the noise off
    depth_noise_sigma: float = param(DEPTH_NOISE_SIGMA, non_negative)
    robot_start: np.ndarray = param(parse=_VEC3, factory=lambda: np.zeros(3))
    robot_joints: np.ndarray = param(parse=_JOINTS,
                                     factory=lambda: np.array([0.0, 0.9, -1.4, 0.0, 1.0]))
    target_id: str | None = None

    def __post_init__(self):
        self.table_center = np.asarray(self.table_center, dtype=float)
        self.table_size = np.asarray(self.table_size, dtype=float)
        self.robot_start = np.asarray(self.robot_start, dtype=float)
        self.robot_joints = np.asarray(self.robot_joints, dtype=float)
        self.dt = float(self.dt)

    def validate(self):
        checks.validate(self)
        checks.validate(self.camera, "camera.")
        for obj in self.objects:
            checks.validate(obj, f"object {obj.id!r} ")
        for i, box in enumerate(self.obstacle_boxes):
            checks.validate(box, f"obstacle {i} ")
        if not self.objects:
            raise ValueError("at least one object is required")
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("object ids must be unique")
        for i, a in enumerate(self.objects):
            for b in self.objects[i + 1:]:
                if np.linalg.norm(a.color - b.color) < MIN_COLOR_SEPARATION:
                    raise ValueError(
                        f"objects {a.id!r} and {b.id!r} have colors closer than "
                        f"{MIN_COLOR_SEPARATION}"
                    )
        if self.target_id is not None and self.target_id not in ids:
            raise ValueError(f"target object {self.target_id!r} not in scene")

    def solid_boxes(self) -> list:
        """(lo, hi) corners of the table, then of each obstacle box."""
        half = self.table_size / 2.0
        return [(self.table_center - half, self.table_center + half)] + [
            (box.center - box.half_extents, box.center + box.half_extents)
            for box in self.obstacle_boxes
        ]

    def object(self, object_id: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)


class SensorFrame:
    """One rendered observation.

    depth is the hit distance along the optical axis in meters with 0
    encoding "no hit"; disparity = focal_px * baseline_m / depth on the
    same pixels (0 elsewhere); hit_ids labels each pixel with the id of the
    surface it hit (see HIT_* constants), -1 for no hit. cloud holds one
    world-frame point per finite-depth pixel. It is built by `make_cloud` on
    first access and then kept, so a caller that never reads it (dataset
    recording, closed-loop rollouts) never pays for it.
    """

    def __init__(self, rgb, depth, disparity, hit_ids, make_cloud):
        self.rgb = rgb                # (H, W, 3) uint8
        self.depth = depth            # (H, W) float32, 0 = no hit
        self.disparity = disparity    # (H, W) float32
        self.hit_ids = hit_ids        # (H, W) int32
        self._make_cloud = make_cloud
        self._cloud = None

    @property
    def cloud(self) -> PointCloud:
        if self._cloud is None:
            self._cloud = self._make_cloud()
        return self._cloud


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]; values already in range pass through unchanged."""
    if a > np.pi:
        a -= 2.0 * np.pi
    elif a <= -np.pi:
        a += 2.0 * np.pi
    return a


def in_base_slab(lo: np.ndarray, hi: np.ndarray) -> bool:
    """True when a box's z-extent meets the slab [0, BASE_HEIGHT] the base moves in."""
    return not (hi[2] <= 0.0 or lo[2] >= BASE_HEIGHT)


def _ray_aabb(origin: np.ndarray, inv: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Entry distance of each ray into an AABB, +inf where the ray misses.

    `inv` holds 1.0 / dirs as one plane per axis, shape (3, rows, cols), and
    distances are in units of those (unnormalized) directions. Each axis's
    plane is scaled by that axis's box bounds minus origin, and the slab
    bounds are reduced plane by plane as max(max(x, y), z) and
    min(min(x, y), z). Per ray these are the products, fmin/fmax and
    max/min of a reduction over an (N, 3) layout, in the same order and with
    the same arguments, so they have the same bits, signed zeros included.
    With finite inputs a slab product is NaN only as 0 * inf, where a ray
    parallel to an axis starts on the plane of a face; fmin/fmax then return
    the other face's product, so a NaN bound would need lo == hi == origin on
    that axis, a box of no width. No NaN reaches the bounds, and no clamp is
    needed. The caller silences numpy's warnings for 0 * inf.
    """
    ta = (lo - origin)[:, None, None] * inv
    tb = (hi - origin)[:, None, None] * inv
    tlo = np.fmin(ta, tb)
    thi = np.fmax(ta, tb, out=tb)
    tmin = np.maximum(tlo[0], tlo[1])
    np.maximum(tmin, tlo[2], out=tmin)
    tmax = np.minimum(thi[0], thi[1])
    np.minimum(tmax, thi[2], out=tmax)
    hit = (tmax >= tmin) & (tmax > 0.0)
    return np.where(hit, np.maximum(tmin, 0.0), np.inf)


class World:
    """Mutable simulation state for one scene; owns its RNG stream."""

    def __init__(self, config: WorldConfig):
        config.validate()
        self.config = config
        self.state = RobotState(
            base=config.robot_start.astype(float).copy(),
            joints=config.robot_joints.astype(float).copy(),
        )
        self.object_centers = {o.id: o.center.copy() for o in config.objects}
        self._attach_offset = None
        self._rng = np.random.default_rng(config.rng_seed)
        # the render cache of `_cast`, keyed on raw inputs: (camera key, rays,
        # focal_px, (width, height), fb), (view key, origin, rotation, dirs,
        # 1 / dirs planes), one (box key, window, t or None) per box, and (frame key, cast)
        self._camera = None
        self._view = None
        self._hits = []
        self._frame = None
        self._tip = None   # (joints and base bytes, tip) of the last fk

    # ------------------------------------------------------------------
    # kinematics helpers

    def gripper_tip(self) -> np.ndarray:
        """The gripper tip in world coordinates, as a new array.

        The last `kinematics.fk` result is kept, keyed on the bytes of
        `state.joints` and `state.base`. fk reads nothing else, so at equal
        bytes the kept tip has the bits a new call would give, and the
        attach check, `touching()` and a caller share one fk per state. An
        in-place write to either array changes its bytes and misses.
        """
        joints, base = self.state.joints, self.state.base
        key = (joints.tobytes(), base.tobytes())
        if self._tip is None or self._tip[0] != key:
            self._tip = (key, kinematics.fk(joints, base))
        return self._tip[1].copy()

    def target_object(self) -> ObjectSpec:
        if self.config.target_id is None:
            raise ValueError("no target object designated")
        return self.config.object(self.config.target_id)

    # ------------------------------------------------------------------
    # dynamics

    def step(self, base_cmd: BaseCommand, joint_target: np.ndarray) -> RobotState:
        """Advance one tick of duration config.dt.

        The base integrates a unicycle model unless the motion would put it
        in collision, in which case base motion freezes for the tick. Joints
        move toward joint_target under per-joint rate limits. An attached
        object follows the gripper tip; closing the gripper while touching
        the target attaches it. A non-finite command raises ValueError and
        leaves the state unchanged.
        """
        joint_target = np.asarray(joint_target, dtype=float)
        if not (math.isfinite(base_cmd.v) and math.isfinite(base_cmd.omega)
                and np.isfinite(joint_target).all()):
            raise ValueError(f"non-finite command: base ({base_cmd.v}, {base_cmd.omega}), "
                             f"joints {joint_target}")
        cmd = base_cmd.clamped()
        dt = self.config.dt
        x, y, yaw = self.state.base
        nx = x + cmd.v * np.cos(yaw) * dt
        ny = y + cmd.v * np.sin(yaw) * dt
        nyaw = wrap_angle(yaw + cmd.omega * dt)
        if not self._base_collides(nx, ny):
            self.state.base = np.array([nx, ny, nyaw])

        target = kinematics.clamp_joints(joint_target)
        max_delta = kinematics.JOINT_RATES * dt
        delta = np.clip(target - self.state.joints, -max_delta, max_delta)
        self.state.joints = kinematics.clamp_joints(self.state.joints + delta)

        if self.state.attached_object is not None:
            self.object_centers[self.state.attached_object] = (
                self.gripper_tip() + self._attach_offset
            )
        elif self.config.target_id is not None:
            self.attach_if_grasping()
        return self.state.copy()

    def _base_collides(self, x: float, y: float) -> bool:
        """Disc-vs-box test against the table and obstacle boxes."""
        p = np.array([x, y])
        for lo, hi in self.config.solid_boxes():
            if not in_base_slab(lo, hi):
                continue
            closest = np.clip(p, lo[:2], hi[:2])
            if np.hypot(*(p - closest)) < ROBOT_RADIUS:
                return True
        return False

    # ------------------------------------------------------------------
    # predicates

    def touching(self) -> bool:
        """True iff the gripper tip is inside the target's AABB inflated by TOUCH_MARGIN."""
        obj = self.target_object()
        tip = self.gripper_tip()
        center = self.object_centers[obj.id]
        return bool(np.all(np.abs(tip - center) <= obj.half_extents + TOUCH_MARGIN))

    def attach_if_grasping(self) -> bool:
        """Attach the target to the gripper tip if closed enough while touching."""
        if self.state.attached_object is not None:
            return True
        if self.state.joints[4] < GRASP_APERTURE and self.touching():
            obj_id = self.target_object().id
            self.state.attached_object = obj_id
            self._attach_offset = self.object_centers[obj_id] - self.gripper_tip()
            return True
        return False

    # ------------------------------------------------------------------
    # rendering

    def camera_pose(self):
        """Camera origin and world-from-camera rotation (x right, y down, z forward)."""
        cam = self.config.camera
        x, y, yaw = self.state.base
        origin = np.array([x, y, cam.height_m])
        fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
        optical = np.cos(cam.pitch_rad) * fwd + np.sin(cam.pitch_rad) * np.array([0.0, 0.0, -1.0])
        (o0, o1, o2), (r0, r1, r2) = optical.tolist(), right.tolist()
        # optical x right, spelled out: the same products and differences as np.cross
        down = np.array([o1 * r2 - o2 * r1, o2 * r0 - o0 * r2, o0 * r1 - o1 * r0])
        return origin, np.stack([right, down, optical], axis=1)

    def _render_boxes(self):
        (table_lo, table_hi), *obstacles = self.config.solid_boxes()
        boxes = [(_FLOOR_LO, _FLOOR_HI, np.array(FLOOR_COLOR), HIT_FLOOR),
                 (table_lo, table_hi, np.array(TABLE_COLOR), HIT_TABLE)]
        for i, obj in enumerate(self.config.objects):
            c = self.object_centers[obj.id]
            boxes.append((c - obj.half_extents, c + obj.half_extents, obj.color,
                          HIT_OBJECT_BASE + i))
        for i, (lo, hi) in enumerate(obstacles):
            boxes.append((lo, hi, np.array(OBSTACLE_COLOR), HIT_OBSTACLE_BASE + i))
        return boxes

    def hit_id(self, object_id: str) -> int:
        for i, obj in enumerate(self.config.objects):
            if obj.id == object_id:
                return HIT_OBJECT_BASE + i
        raise KeyError(object_id)

    def _cast(self) -> tuple:
        """The noiseless part of a frame: (origin, dirs, depth, idx, table, rgb,
        hit_ids, (height, width), float32 focal_px * baseline_m), for the
        current state and config.

        From the boxes of `_render_boxes`, a [sky] + boxes color table gives
        each pixel its color and hit id. `table` is the float color table;
        the other arrays but `origin` are flat, one entry per pixel, and idx
        is the pixel's row of `table`, from which the cloud gathers the
        colors it keeps.

        Everything is keyed on the raw inputs the frame is derived from, as
        bytes (-0.0 and 0.0 differ): the view on `state.base` and the six
        camera intrinsics, with their types (64 and 64.0 differ); each box on
        its center and half extents (each object's center from
        `object_centers`, the table's center and size); the frame on the
        view, the number of objects, every box and every object color. The
        frame is a deterministic function of these, so a kept value is exact
        where its key matches. At an unchanged frame key the last cast is
        returned and nothing is derived. Its arrays are read-only, since
        render() hands them to every frame of the same inputs.

        Otherwise a new camera key is checked with the camera fields' parsers,
        and the camera pose, box corners and colors must be finite, before
        anything is cast. Only keys that passed are kept, so a value either
        check rejects never matches them and always raises ValueError. From the
        intrinsics read for its key, the camera gives the camera-frame rays and
        what `_windows` and the disparity take; the view adds the origin,
        rotation, ray directions `dirs` (N, 3) and their reciprocals as
        (3, H, W) planes, one per axis. Each box is cast only over its pixel window
        (see `_windows`), on the window's slice of those planes, and its window
        and the entry distance t of each ray in it are kept under its box key.
        At the view of the last cast only a stale box is cast again: one whose
        key changed, or one past the boxes that cast had. A new view casts
        every box. The kept t are then composited on (H, W) planes in box order
        with a strict `t < best`, which picks the nearest box, ties going to
        the first, exactly as one cast of every box would; pixels outside every
        window keep t = inf. Each pixel's color and hit id are gathered from
        the tables, which copies their values bit for bit, so a recolor casts
        nothing.
        """
        cfg, cam = self.config, self.config.camera
        intrinsics = (cam.width, cam.height, cam.focal_px, cam.baseline_m, cam.height_m,
                      cam.pitch_rad)
        try:
            camera_key = (struct.pack("<6d", *intrinsics), tuple(map(type, intrinsics)))
        except struct.error:  # not a number: a key equal to no other
            camera_key = object()
        view_key = (self.state.base.tobytes(), camera_key)
        keys = [b"", cfg.table_center.tobytes() + cfg.table_size.tobytes()]
        keys += [self.object_centers[obj.id].tobytes() + obj.half_extents.tobytes()
                 for obj in cfg.objects]
        keys += [box.center.tobytes() + box.half_extents.tobytes()
                 for box in cfg.obstacle_boxes]
        frame_key = (view_key, len(cfg.objects), keys,
                     b"".join(obj.color.tobytes() for obj in cfg.objects))
        if self._frame is not None and self._frame[0] == frame_key:
            return self._frame[1]
        if self._camera is None or self._camera[0] != camera_key:
            checks.validate(cam, "camera.")
            w, h, focal_px, baseline_m = intrinsics[:4]
            rays = np.ones((h, w, 3))  # camera frame, z = 1
            rays[:, :, 0] = (np.arange(w) + 0.5 - w / 2.0) / focal_px
            rays[:, :, 1] = ((np.arange(h) + 0.5 - h / 2.0) / focal_px)[:, None]
            self._camera = (camera_key, rays.reshape(-1, 3), focal_px, (w, h),
                            np.float32(focal_px * baseline_m))
        _, rays, focal_px, (w, h), fb = self._camera
        same_view = self._view is not None and self._view[0] == view_key
        origin, rot = self._view[1:3] if same_view else self.camera_pose()
        boxes = self._render_boxes()
        lohi = np.array([(lo, hi) for lo, hi, _, _ in boxes])
        colors = np.array([color for _, _, color, _ in boxes], dtype=float)
        if not np.isfinite(np.concatenate([origin, rot.ravel(), lohi.ravel(),
                                           colors.ravel()])).all():
            raise ValueError("camera pose and box corners must be finite to render")
        if not same_view:
            dirs = rays @ rot.T
            inv = np.empty((3, h, w))
            with np.errstate(divide="ignore"):
                np.divide(1.0, dirs.T.reshape(3, h, w), out=inv)
            self._view = (view_key, origin, rot, dirs, inv)
        _, _, _, dirs, inv = self._view
        kept = self._hits if same_view else []
        hits = kept[:len(keys)] + [None] * (len(keys) - len(kept))
        stale = [j for j, key in enumerate(keys) if hits[j] is None or hits[j][0] != key]
        with np.errstate(invalid="ignore"):
            for j, window in zip(stale, self._windows(origin, rot, lohi[stale], focal_px, (w, h))):
                r0, r1, c0, c1 = window
                t = (_ray_aabb(origin, inv[:, r0:r1, c0:c1], lohi[j, 0], lohi[j, 1])
                     if r0 < r1 and c0 < c1 else None)
                hits[j] = (keys[j], window, t)
        self._hits = hits
        t_best = np.full((h, w), np.inf)
        idx = np.zeros((h, w), dtype=np.intp)
        for j, (_, (r0, r1, c0, c1), t) in enumerate(hits):
            if t is None:
                continue
            best = t_best[r0:r1, c0:c1]
            closer = t < best
            np.copyto(best, t, where=closer)
            np.copyto(idx[r0:r1, c0:c1], j + 1, where=closer)
        idx, t_best = idx.ravel(), t_best.ravel()
        # take() copies the same table rows as fancy indexing, in a third of the time
        table = np.concatenate([[SKY_COLOR], colors])
        rgb = np.rint(table * 255.0).astype(np.uint8).take(idx, axis=0)
        hids = (HIT_NONE,) + tuple(hid for *_, hid in boxes)
        hit_ids = np.array(hids, dtype=np.int32).take(idx)
        depth = np.where(np.isfinite(t_best), t_best, 0.0)
        arrays = (origin, dirs, depth, idx, table, rgb, hit_ids)
        for a in arrays:
            a.flags.writeable = False
        self._frame = (frame_key, arrays + ((h, w), fb))
        return self._frame[1]

    @staticmethod
    def _windows(origin: np.ndarray, rot: np.ndarray, lohi: np.ndarray, focal_px, size) -> list:
        """(r0, r1, c0, c1) per box of `lohi` (B, 2, 3): the pixel rows r0:r1 and
        columns c0:c1 that can see it, in an image of `size` (width, height).

        With every corner in front of the camera, a box's image lies inside the
        hull of its corners' images (a box is convex), so the window spans
        the pixels whose centers lie between the corners' extreme image
        coordinates, widened by one pixel against rounding and clipped to the
        image. Pixel i's center is at (i + 0.5 - W/2) / f, as in the rays of
        `_cast`. A box with a corner not in front of the camera (the floor, a
        box across the image plane) gets the whole image.
        """
        corners = lohi[:, _CORNER_PICK, (0, 1, 2)].reshape(-1, 3)  # (B * 8, 3)
        xyz = ((corners - origin) @ rot).reshape(-1, 8, 3)
        ahead = (xyz[:, :, 2] > 0.0).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            img = xyz[:, :, :2] / xyz[:, :, 2:] * focal_px
        size = np.array(size)
        first = np.ceil(img.min(axis=1) + (size / 2.0 - 0.5)) - 1.0
        stop = np.floor(img.max(axis=1) + (size / 2.0 - 0.5)) + 2.0
        first = np.where(ahead[:, None], np.clip(first, 0, size), 0).astype(int)
        stop = np.where(ahead[:, None], np.clip(stop, 0, size), size).astype(int)
        return [(r0, r1, c0, c1) for (c0, r0), (c1, r1) in zip(first.tolist(), stop.tolist())]

    def render(self, depth_noise_sigma: float | None = None) -> SensorFrame:
        """Ray-cast one sensor frame from the current base pose.

        Gaussian depth noise (std depth_noise_sigma, default from config) is
        applied before disparity and cloud derivation so the disparity-depth
        identity holds on the values actually reported; the noise is drawn on
        every frame, so the RNG stream does not depend on what was reused.
        The noiseless cast is kept, keyed on the raw inputs it is derived
        from (see `_cast`): at unchanged inputs only the noise is drawn, and
        only the boxes that moved since the last frame at the same camera
        view are cast again. A pose or box that is not finite, or a camera
        field or depth_noise_sigma argument that WorldConfig.validate would
        reject, raises ValueError instead of a cast.
        The frame's arrays are its own, and the cloud is built on first access.
        """
        if depth_noise_sigma is not None:
            check("depth_noise_sigma", depth_noise_sigma, non_negative)
        sigma = self.config.depth_noise_sigma if depth_noise_sigma is None else depth_noise_sigma
        origin, dirs, depth, idx, table, rgb, hit_ids, (h, w), fb = self._cast()

        # where= leaves masked-out lanes at out's +0.0, as np.where(..., 0.0)
        # did, and forms no quotient of a zero depth
        if sigma > 0.0:
            noise = self._rng.normal(0.0, sigma, size=dirs.shape[0])
            depth = np.add(depth, noise, out=np.zeros_like(depth), where=depth > 0.0)
        depth32 = depth.astype(np.float32)
        disparity = np.divide(fb, depth32, out=np.zeros_like(depth32), where=depth32 > 0.0)

        def make_cloud() -> PointCloud:
            # from `depth`, never written by a caller, not from the frame's depth32
            d32 = depth.astype(np.float32)
            mask = d32 > 0.0
            pts = origin[None, :] + d32[mask, None].astype(float) * dirs[mask]
            return PointCloud(pts, table.take(idx[mask], axis=0))

        return SensorFrame(
            rgb=rgb.reshape(h, w, 3).copy(),
            depth=depth32.reshape(h, w),
            disparity=disparity.reshape(h, w),
            hit_ids=hit_ids.reshape(h, w).copy(),
            make_cloud=make_cloud,
        )
