"""Scripted grasping expert.

Composes the classical pieces into a phase machine: localize the target
(point-cloud pipeline or noisy ground truth), optionally navigate to a
standoff pose with A* plus pure pursuit, then reach with collision-checked
joint-space plans from damped-least-squares IK, close the gripper, and lift.
Every tick's command is recorded in a transcript so episodes can be replayed.
"""

from __future__ import annotations

import copy
import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from . import checks, kinematics
from .checks import count, non_negative, param, positive
from .kinematics import IkError
from .nav import OccupancyGrid, PlanningError, astar, follow_path
from .perception import PerceptionError, PerceptionParams, locate_object
from .sim import ROBOT_RADIUS, BaseCommand, World, WorldConfig, wrap_angle

log = logging.getLogger(__name__)

ARM_CLEARANCE = 0.03
NAV_CLEARANCE = 0.10  # planning inflation beyond the robot radius (m)
PLAN_STEPS = np.array([0.01, 0.05, 0.05, 0.05, 0.05])  # max per-waypoint joint deltas


class ExpertPhase(enum.Enum):
    LOCATE = "LOCATE"
    NAVIGATE = "NAVIGATE"
    REACH = "REACH"
    GRASP = "GRASP"
    LIFT = "LIFT"
    DONE = "DONE"
    FAILED = "FAILED"


class ArmPlanError(ValueError):
    """Joint-space plan intersects an obstacle."""


@dataclass
class ArmPlan:
    joint_waypoints: np.ndarray  # (M, 5)

    def __len__(self) -> int:
        return self.joint_waypoints.shape[0]


@dataclass
class ExpertParams:
    standoff_m: float = param(0.55, positive)
    pregrasp_offset_m: float = param(0.10, positive)
    lift_height_m: float = param(0.15, positive)
    locate_noise_sigma: float = param(0.005, non_negative)
    yaw_jitter_rad: float = param(0.2, non_negative)
    max_ticks: int = param(3000, count)  # a run that needs more ticks ends FAILED with this many
    perception: PerceptionParams = field(default_factory=PerceptionParams)

    def validate(self):
        checks.validate(self)
        self.perception.validate()


@dataclass
class TickRecord:
    phase: str
    v: float
    omega: float
    joint_target: np.ndarray
    base: np.ndarray
    joints: np.ndarray


@dataclass
class ExpertTranscript:
    variant: str
    config: WorldConfig
    phases: list = field(default_factory=list)     # (tick, ExpertPhase)
    ticks: list = field(default_factory=list)      # TickRecord per simulator tick
    outcome: str = "FAILED"
    failure: str | None = None


def plan_arm(q_start: np.ndarray, q_goal: np.ndarray, world: World) -> ArmPlan:
    """Joint-space linear interpolation with per-waypoint collision checks.

    Elbow, wrist and tip are tested against obstacle boxes inflated by
    ARM_CLEARANCE; the table is tested the same way except that points above
    its top surface are always allowed, so approaches over the tabletop work.
    """
    q_start = kinematics.clamp_joints(np.asarray(q_start, dtype=float))
    q_goal = kinematics.clamp_joints(np.asarray(q_goal, dtype=float))
    steps = int(np.max(np.ceil(np.abs(q_goal - q_start) / PLAN_STEPS - 1e-12)))
    fractions = np.linspace(0.0, 1.0, steps + 1)
    waypoints = q_start[None, :] + fractions[:, None] * (q_goal - q_start)[None, :]

    (table_lo, table_hi), *obstacles = world.config.solid_boxes()
    base = world.state.base
    for q in waypoints:
        check_pts = kinematics.arm_points(q, base)[1:]  # elbow, wrist, tip
        for p in check_pts:
            if p[2] <= table_hi[2] and np.all(
                (p >= table_lo - ARM_CLEARANCE) & (p <= table_hi + ARM_CLEARANCE)
            ):
                raise ArmPlanError("arm plan in collision")
            for lo, hi in obstacles:
                if np.all((p >= lo - ARM_CLEARANCE) & (p <= hi + ARM_CLEARANCE)):
                    raise ArmPlanError("arm plan in collision")
    return ArmPlan(waypoints)


class _Run:
    """One expert execution against a world it exclusively owns."""

    def __init__(self, world: World, variant: str, params: ExpertParams):
        self.world = world
        self.target = world.target_object()
        self.variant = variant
        self.params = params
        self.rng = np.random.default_rng([world.config.rng_seed, 17])
        self.transcript = ExpertTranscript(variant=variant, config=copy.deepcopy(world.config))
        self.tick = 0
        self.phase: ExpertPhase | None = None

    class _Abort(Exception):
        pass

    def enter(self, phase: ExpertPhase):
        self.phase = phase
        self.transcript.phases.append((self.tick, phase))

    def fail(self, reason: str):
        self.transcript.failure = reason
        self.enter(ExpertPhase.FAILED)
        raise self._Abort()

    def drive(self, cmd: BaseCommand, joint_target: np.ndarray):
        if self.tick >= self.params.max_ticks:
            self.fail("tick budget exceeded")
        state = self.world.state
        self.transcript.ticks.append(TickRecord(
            phase=self.phase.value,
            v=float(cmd.v),
            omega=float(cmd.omega),
            joint_target=np.asarray(joint_target, dtype=float).copy(),
            base=state.base.copy(),
            joints=state.joints.copy(),
        ))
        self.world.step(cmd, joint_target)
        self.tick += 1

    # ------------------------------------------------------------------

    def locate(self) -> np.ndarray:
        self.enter(ExpertPhase.LOCATE)
        if self.variant == "short":
            true_center = self.world.object_centers[self.target.id]
            noise = self.rng.normal(0.0, self.params.locate_noise_sigma, size=3)
            return true_center + noise
        return self.locate_with_camera()

    def locate_with_camera(self) -> np.ndarray:
        return locate_object(self.world.render(), self.target.color, self.params.perception)

    def align_to(self, point_xy: np.ndarray):
        """Rotate in place until the base heading points exactly at point_xy."""
        dt = self.world.config.dt
        for _ in range(64):
            x, y, yaw = self.world.state.base
            err = wrap_angle(float(np.arctan2(point_xy[1] - y, point_xy[0] - x)) - yaw)
            if abs(err) < 1e-9:
                return
            cmd = BaseCommand(0.0, err / dt).clamped()
            self.drive(cmd, self.world.state.joints)
        self.fail("alignment did not converge")

    def navigate(self, estimate: np.ndarray) -> np.ndarray:
        self.enter(ExpertPhase.NAVIGATE)
        start_xy = self.world.state.base[:2]
        away = start_xy - estimate[:2]
        bearing = float(np.arctan2(away[1], away[0]))
        bearing += float(self.rng.uniform(-self.params.yaw_jitter_rad,
                                          self.params.yaw_jitter_rad))
        # plan with extra clearance so pure-pursuit corner cutting never
        # brings the base into contact; slide the standoff outward if the
        # padded inflation swallows it
        grid = OccupancyGrid.from_world(self.world.config, ROBOT_RADIUS + NAV_CLEARANCE)
        u = np.array([np.cos(bearing), np.sin(bearing)])
        standoff = None
        for extra in np.arange(0.0, 0.16, grid.resolution):
            candidate = estimate[:2] + (self.params.standoff_m + extra) * u
            if grid.free(*grid.to_cell(candidate)):
                standoff = candidate
                break
        if standoff is None:
            self.fail("pose in collision")
        path = astar(grid, start_xy, standoff)
        home = self.world.state.joints.copy()
        last_pos = self.world.state.base[:2].copy()
        stalled = 0
        for _ in range(self.params.max_ticks):
            cmd = follow_path(self.world.state.base, path)
            if cmd is None:
                break
            self.drive(cmd, home)
            pos = self.world.state.base[:2]
            stalled = stalled + 1 if np.array_equal(pos, last_pos) else 0
            last_pos = pos.copy()
            if stalled >= 50:
                self.fail("navigation stalled")
        else:
            self.fail("navigation timeout")
        # face the coarse estimate, refine it from the standoff vantage,
        # then face the refined point so it lies in the arm plane
        self.align_to(estimate[:2])
        refined = self.locate_with_camera()
        self.align_to(refined[:2])
        return refined

    def in_plane_target(self, point: np.ndarray) -> np.ndarray:
        """Project a world point onto the vertical plane of the base heading."""
        x, y, yaw = self.world.state.base
        u = np.array([np.cos(yaw), np.sin(yaw)])
        forward = float((point[:2] - np.array([x, y])) @ u)
        if forward <= 0.0:
            self.fail("target behind the robot")
        return np.array([x + forward * u[0], y + forward * u[1], point[2]])

    def move_arm_to(self, tip_target: np.ndarray) -> np.ndarray:
        goal = kinematics.ik(tip_target, self.world.state.joints, self.world.state.base)
        plan = plan_arm(self.world.state.joints, goal, self.world)
        for q in plan.joint_waypoints[1:]:
            self.drive(BaseCommand(), q)
        return goal

    def reach(self, estimate: np.ndarray) -> np.ndarray:
        self.enter(ExpertPhase.REACH)
        grasp_point = self.in_plane_target(estimate)
        pregrasp = grasp_point + np.array([0.0, 0.0, self.params.pregrasp_offset_m])
        self.move_arm_to(pregrasp)
        self.move_arm_to(grasp_point)
        return grasp_point

    def grasp(self):
        self.enter(ExpertPhase.GRASP)
        for _ in range(64):
            target = self.world.state.joints.copy()
            target[4] = 0.0
            self.drive(BaseCommand(), target)
            if self.world.state.attached_object == self.target.id:
                return
            if self.world.state.joints[4] <= 0.0:
                self.fail("grasp failed")
        self.fail("grasp failed")

    def lift(self):
        self.enter(ExpertPhase.LIFT)
        tip = self.world.gripper_tip()
        self.move_arm_to(tip + np.array([0.0, 0.0, self.params.lift_height_m]))

    def run(self) -> ExpertTranscript:
        try:
            estimate = self.locate()
            if self.variant == "long":
                estimate = self.navigate(estimate)
            self.reach(estimate)
            self.grasp()
            self.lift()
            self.enter(ExpertPhase.DONE)
            self.transcript.outcome = "DONE"
        except self._Abort:
            log.debug("expert failed: %s", self.transcript.failure)
        except (IkError, ArmPlanError, PlanningError, PerceptionError) as exc:
            self.transcript.failure = str(exc)
            self.enter(ExpertPhase.FAILED)
        return self.transcript


def run_expert(
    world: World,
    variant: str = "short",
    params: ExpertParams | None = None,
) -> ExpertTranscript:
    """Execute the grasp routine on `world`, which the expert exclusively owns.

    The target is the world's: `world.target_object()`, the object its
    config's `target_id` names. variant "long" localizes with the camera
    pipeline and navigates to a standoff pose first; "short" starts within
    reach and localizes from ground truth corrupted by Gaussian noise.
    Failures of any sub-step end the run with outcome FAILED and the cause
    recorded; nothing propagates. Before the first tick, an unknown variant,
    invalid `params` (a NaN or infinite float, say) or a config without a
    target raise ValueError.
    """
    if variant not in ("short", "long"):
        raise ValueError(f"unknown variant {variant!r}")
    params = params or ExpertParams()
    params.validate()
    return _Run(world, variant, params).run()
