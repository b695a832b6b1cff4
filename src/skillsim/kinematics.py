"""Closed-form arm geometry and damped-least-squares inverse kinematics.

The arm is a planar chain living in the vertical plane of the base heading:
a prismatic torso lift, then three pitch joints with fixed link lengths.
Joint vector layout (5 entries): [torso_lift, q1, q2, q3, gripper].
The gripper aperture is carried in the joint vector but moves no geometry.
"""

from __future__ import annotations

import numpy as np

SHOULDER_FORWARD = 0.10   # meters ahead of the base origin
SHOULDER_HEIGHT = 0.60    # meters above the floor at zero lift
LINK_LENGTHS = np.array([0.30, 0.30, 0.15])
ARM_REACH = float(LINK_LENGTHS.sum())

JOINT_LOW = np.array([0.0, -2.0, -2.0, -2.0, 0.0])
JOINT_HIGH = np.array([0.35, 2.0, 2.0, 2.0, 1.0])
JOINT_RATES = np.array([0.1, 0.5, 0.5, 0.5, 2.0])  # per-second limits

REACH_SLACK = 0.01
ERROR_CLAMP = 0.2   # per-iteration cap on the task-space error magnitude
IK_TOL = 1e-3       # tip residual (m) that counts as solved
IK_MAX_ITER = 100   # iterations per attempt
IK_DAMPING = 0.1    # lambda of the damped least-squares step

# fallback start poses tried in order when the caller's seed stalls in a
# fold-over basin; together with a front-facing seed these cover the
# reachable workspace
RESTART_SEEDS = (
    (0.0, 0.0, -0.9, -0.9, 1.0),
    (0.0, -0.7, 0.9, 0.9, 1.0),
    (0.0, 0.0, 0.0, 0.0, 1.0),
)


class IkError(ValueError):
    """Raised when inverse kinematics cannot produce a solution."""


def clamp_joints(joints: np.ndarray) -> np.ndarray:
    return np.clip(joints, JOINT_LOW, JOINT_HIGH)


def arm_points(joints: np.ndarray, base) -> np.ndarray:
    """World positions of shoulder, elbow, wrist and gripper tip, shape (4, 3)."""
    x, y, yaw = float(base[0]), float(base[1]), float(base[2])
    u = np.array([np.cos(yaw), np.sin(yaw)])
    shoulder = np.array([
        x + SHOULDER_FORWARD * u[0],
        y + SHOULDER_FORWARD * u[1],
        SHOULDER_HEIGHT + float(joints[0]),
    ])
    pts = np.empty((4, 3))
    pts[0] = shoulder
    cum = 0.0
    p = shoulder
    for i, length in enumerate(LINK_LENGTHS):
        cum += float(joints[1 + i])
        step = np.array([
            length * np.cos(cum) * u[0],
            length * np.cos(cum) * u[1],
            length * np.sin(cum),
        ])
        p = p + step
        pts[1 + i] = p
    return pts


def fk(joints: np.ndarray, base) -> np.ndarray:
    """Gripper tip position in world coordinates."""
    return arm_points(joints, base)[3]


def jacobian(joints: np.ndarray, base) -> np.ndarray:
    """Analytic 3x4 tip Jacobian over (torso_lift, q1, q2, q3)."""
    yaw = float(base[2])
    u = np.array([np.cos(yaw), np.sin(yaw)])
    cums = np.cumsum(np.asarray(joints[1:4], dtype=float))
    J = np.zeros((3, 4))
    J[2, 0] = 1.0
    for j in range(3):
        # joint q_{j+1} moves links j..2
        dh = -np.sum(LINK_LENGTHS[j:] * np.sin(cums[j:]))
        dv = np.sum(LINK_LENGTHS[j:] * np.cos(cums[j:]))
        J[0, 1 + j] = dh * u[0]
        J[1, 1 + j] = dh * u[1]
        J[2, 1 + j] = dv
    return J


def _reach_distance(target: np.ndarray, base) -> float:
    """Distance from the target to the closest attainable shoulder position."""
    x, y, yaw = float(base[0]), float(base[1]), float(base[2])
    sx = x + SHOULDER_FORWARD * np.cos(yaw)
    sy = y + SHOULDER_FORWARD * np.sin(yaw)
    z_lo = SHOULDER_HEIGHT + JOINT_LOW[0]
    z_hi = SHOULDER_HEIGHT + JOINT_HIGH[0]
    dz = float(target[2]) - float(np.clip(target[2], z_lo, z_hi))
    dxy = np.hypot(float(target[0]) - sx, float(target[1]) - sy)
    return float(np.hypot(dxy, dz))


def _dls_attempt(target, seed, base, gripper):
    lam2 = IK_DAMPING * IK_DAMPING
    q = clamp_joints(np.asarray(seed, dtype=float).copy())
    q[4] = gripper
    for _ in range(IK_MAX_ITER):
        err = target - fk(q, base)
        norm = float(np.linalg.norm(err))
        if norm < IK_TOL:
            return q
        if norm > ERROR_CLAMP:
            err = err * (ERROR_CLAMP / norm)
        J = jacobian(q, base)
        delta = J.T @ np.linalg.solve(J @ J.T + lam2 * np.eye(3), err)
        q[:4] = q[:4] + delta
        q = clamp_joints(q)
    if float(np.linalg.norm(target - fk(q, base))) < IK_TOL:
        return q
    return None


def ik(target: np.ndarray, seed_joints: np.ndarray, base) -> np.ndarray:
    """Damped-least-squares IK for the gripper tip.

    Iterates q <- clamp(q + J^T (J J^T + lambda^2 I)^-1 e) over
    (torso_lift, q1, q2, q3) with lambda = IK_DAMPING; the gripper entry of
    the seed is kept as is. The error e is magnitude-capped at ERROR_CLAMP
    per iteration so early steps cannot overshoot, and when the caller's
    seed stalls the solve restarts from the fixed RESTART_SEEDS ladder
    (IK_MAX_ITER iterations per attempt, everything deterministic).

    Raises IkError("unreachable target") when the target lies outside the
    reach annulus or below the floor, and IkError("ik failed") when no
    attempt brings the residual under IK_TOL.
    """
    target = np.asarray(target, dtype=float)
    if target[2] < 0.0 or _reach_distance(target, base) > ARM_REACH + REACH_SLACK:
        raise IkError("unreachable target")
    gripper = float(np.clip(seed_joints[4], JOINT_LOW[4], JOINT_HIGH[4]))
    for seed in (seed_joints, *RESTART_SEEDS):
        q = _dls_attempt(target, seed, base, gripper)
        if q is not None:
            return q
    raise IkError("ik failed")
