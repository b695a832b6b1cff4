"""Closed-loop policy rollouts in the simulator and aggregate metrics.

Each tick renders a frame, encodes it, runs the recurrent predictor one step,
denormalizes the predicted next state, and applies it as the joint position
target (plus the base command for the long variant). Reports per scenario:
whether the target was touched/grasped, ticks to first touch, final distance
from the gripper tip to the object, the steps executed and why the rollout
stopped (see `rollout`; the CSV has no column for it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import JOINTS, DatasetError, denormalize_state, normalize_state
from .models import PolicyBundle, predict_next
from .sim import BaseCommand, World

MAX_STEPS = 300   # rollout step budget
WORKSPACE_XY = 6.0
WORKSPACE_Z = (-0.5, 3.0)

CSV_HEADER = "scenario,seed,touched,grasped,ticks_to_touch,final_tip_distance_m,steps"


@dataclass
class Scenario:
    label: str
    config: object            # WorldConfig
    variant: str

    @property
    def seed(self) -> int:
        return int(self.config.rng_seed)


@dataclass
class RolloutReport:
    scenario: str
    seed: int
    touched: bool
    grasped: bool
    ticks_to_touch: int | None
    final_tip_distance: float
    steps_executed: int
    stop_reason: str

    def csv_row(self) -> str:
        ticks = "" if self.ticks_to_touch is None else str(self.ticks_to_touch)
        return (f"{self.scenario},{self.seed},{str(self.touched).lower()},"
                f"{str(self.grasped).lower()},{ticks},"
                f"{self.final_tip_distance:.6f},{self.steps_executed}")


def rollout(bundle: PolicyBundle, scenario: Scenario, max_steps: int = MAX_STEPS,
            frame_sink=None) -> RolloutReport:
    """Run the policy closed loop on one scenario until grasp, divergence, or max_steps.

    A non-finite prediction ends the scenario before it is applied. The
    report's stop_reason says which of these ended it: "grasped",
    "non_finite_prediction", "workspace_exit" (the tip left the workspace)
    or "step_budget" (max_steps ran out). A scenario whose config has no
    target raises ValueError naming its label before the first tick.
    frame_sink, when given, receives (tick, SensorFrame) for every rendered
    frame; useful for dumping rollouts to disk.
    """
    if scenario.variant != bundle.variant:
        raise DatasetError(
            f"state dimension mismatch: model is {bundle.variant}-variant "
            f"(d={bundle.d_state}), scenario is {scenario.variant}-variant")
    world = World(scenario.config)
    try:
        target = world.target_object()
    except ValueError as exc:
        raise ValueError(f"scenario {scenario.label}: {exc}") from None
    hidden = bundle.predictor.zero_state(1)
    state = np.zeros(bundle.d_state)  # the joints, then the last (v, omega) when long

    touched_tick = None
    grasped = False
    steps = 0
    reason = "step_budget"
    for t in range(max_steps):
        frame = world.render()
        if frame_sink is not None:
            frame_sink(t, frame)
        state[:JOINTS] = world.state.joints
        pred_norm, hidden = predict_next(bundle, frame, normalize_state(state, bundle.stats),
                                         hidden)
        pred = denormalize_state(pred_norm, bundle.stats)
        if not np.isfinite(pred).all():
            reason = "non_finite_prediction"
            break
        state[JOINTS:] = pred[JOINTS:]
        world.step(BaseCommand(*state[JOINTS:].tolist()), pred[:JOINTS])
        steps = t + 1
        if touched_tick is None and world.touching():
            touched_tick = t
        if world.state.attached_object is not None:
            grasped = True
        tip = world.gripper_tip()
        if touched_tick is not None and grasped:
            reason = "grasped"
            break
        if (abs(tip[0]) > WORKSPACE_XY or abs(tip[1]) > WORKSPACE_XY
                or not WORKSPACE_Z[0] <= tip[2] <= WORKSPACE_Z[1]):
            reason = "workspace_exit"
            break

    tip = world.gripper_tip()
    target_center = world.object_centers[target.id]
    return RolloutReport(
        scenario=scenario.label,
        seed=scenario.seed,
        touched=touched_tick is not None,
        grasped=grasped,
        ticks_to_touch=touched_tick,
        final_tip_distance=float(np.linalg.norm(tip - target_center)),
        steps_executed=steps,
        stop_reason=reason,
    )


def evaluate_suite(bundle: PolicyBundle, scenarios: list, max_steps: int = MAX_STEPS,
                   frame_sink_for=None):
    """Roll out every scenario; returns (reports, aggregates).

    frame_sink_for, when given, maps a scenario label to a per-frame sink
    (or None) so individual rollouts can be dumped.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    reports = [rollout(bundle, sc, max_steps,
                       frame_sink_for(sc.label) if frame_sink_for else None)
               for sc in scenarios]
    aggregates = {
        "touch_rate": sum(r.touched for r in reports) / len(reports),
        "grasp_rate": sum(r.grasped for r in reports) / len(reports),
        "mean_final_tip_distance_m": float(np.mean([r.final_tip_distance for r in reports])),
    }
    return reports, aggregates


def reports_to_csv(reports: list) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"
