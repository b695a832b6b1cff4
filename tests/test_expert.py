"""Expert phase machine, arm planning, and end-to-end runs."""

import numpy as np
import pytest

from skillsim import (
    ArmPlanError,
    ExpertParams,
    ExpertPhase,
    World,
    plan_arm,
    run_expert,
)
from skillsim.kinematics import fk
from skillsim.scene import make_long_scene, make_scene, make_short_scene
from skillsim.sim import ObjectSpec, WorldConfig

CANONICAL = [ExpertPhase.LOCATE, ExpertPhase.NAVIGATE, ExpertPhase.REACH,
             ExpertPhase.GRASP, ExpertPhase.LIFT, ExpertPhase.DONE]


def assert_phase_prefix(transcript):
    phases = [p for _, p in transcript.phases]
    if phases and phases[-1] == ExpertPhase.FAILED:
        phases = phases[:-1]
    indices = [CANONICAL.index(p) for p in phases]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


# ----------------------------------------------------------------------
# plan_arm


def test_plan_arm_identity():
    world = World(make_short_scene(0))
    q = world.state.joints
    plan = plan_arm(q, q, world)
    assert len(plan) == 1
    assert np.array_equal(plan.joint_waypoints[0], q)


def test_plan_arm_interpolation_count_and_monotonicity():
    world = World(make_short_scene(0))
    q0 = world.state.joints.copy()
    q1 = q0.copy()
    q1[1] += 1.0
    plan = plan_arm(q0, q1, world)
    assert len(plan) == 21  # ceil(1.0 / 0.05) + 1
    diffs = np.diff(plan.joint_waypoints[:, 1])
    assert np.all(diffs > 0)
    assert np.all(np.abs(np.diff(plan.joint_waypoints, axis=0)) <= 0.05 + 1e-12)


def test_plan_arm_through_table_collides():
    world = World(make_short_scene(0))
    q0 = world.state.joints.copy()
    # a goal that pitches the arm down so the tip sweeps below the tabletop
    q1 = np.array([0.0, -0.9, 0.0, 0.0, 1.0])
    with pytest.raises(ArmPlanError, match="arm plan in collision"):
        plan_arm(q0, q1, world)


def test_plan_arm_step_limits_per_joint():
    world = World(make_short_scene(0))
    q0 = world.state.joints.copy()
    q1 = q0.copy()
    q1[0] = q0[0] + 0.1  # lift moves at most 0.01 per waypoint
    plan = plan_arm(q0, q1, world)
    assert len(plan) == 11
    assert np.all(np.abs(np.diff(plan.joint_waypoints[:, 0])) <= 0.01 + 1e-12)


# ----------------------------------------------------------------------
# run_expert


def test_short_expert_reaches_done_with_attachment():
    cfg = make_short_scene(0)
    world = World(cfg)
    transcript = run_expert(world, "short")
    assert transcript.outcome == "DONE"
    assert world.state.attached_object == cfg.target_id
    assert [p for _, p in transcript.phases] == [
        ExpertPhase.LOCATE, ExpertPhase.REACH, ExpertPhase.GRASP,
        ExpertPhase.LIFT, ExpertPhase.DONE]
    assert world.touching()


def test_short_expert_gate_ten_scenes():
    for seed in range(10):
        cfg = make_short_scene(seed)
        transcript = run_expert(World(cfg), "short")
        assert transcript.outcome == "DONE", (seed, transcript.failure)


def test_short_expert_records_zero_base_motion():
    cfg = make_short_scene(1)
    transcript = run_expert(World(cfg), "short")
    assert all(rec.v == 0.0 and rec.omega == 0.0 for rec in transcript.ticks)


def test_short_expert_out_of_reach_fails_unreachable():
    cfg = WorldConfig(
        objects=[ObjectSpec("far", np.array([11.2, 0.0, 0.43]), np.full(3, 0.03),
                            np.array([0.85, 0.1, 0.1]))],
        table_center=np.array([11.2, 0.0, 0.2]),
        target_id="far",
    )
    transcript = run_expert(World(cfg), "short")
    assert transcript.outcome == "FAILED"
    assert transcript.failure == "unreachable target"
    assert_phase_prefix(transcript)


def test_long_expert_navigates_before_arm_motion():
    cfg = make_long_scene(0)
    transcript = run_expert(World(cfg), "long")
    assert transcript.outcome == "DONE"
    nav_ticks = [r for r in transcript.ticks if r.phase == "NAVIGATE"]
    assert any(r.v != 0.0 or r.omega != 0.0 for r in nav_ticks)
    first_reach = next(i for i, r in enumerate(transcript.ticks) if r.phase == "REACH")
    moved = [i for i, r in enumerate(transcript.ticks)
             if not np.allclose(r.joint_target, transcript.ticks[0].joints)]
    assert min(moved) >= min(i for i, r in enumerate(transcript.ticks)
                             if r.phase == "NAVIGATE")
    assert first_reach > 0
    assert_phase_prefix(transcript)


def test_long_expert_target_out_of_view_fails_not_found():
    """The camera faces away from the table, so the color segment is empty."""
    cfg = make_long_scene(0)
    cfg.robot_start = cfg.robot_start + np.array([0.0, 0.0, np.pi])
    transcript = run_expert(World(cfg), "long")
    assert transcript.outcome == "FAILED"
    assert transcript.failure == "object not found"
    assert transcript.phases == [(0, ExpertPhase.LOCATE), (0, ExpertPhase.FAILED)]
    assert transcript.ticks == []


def test_long_expert_start_three_meters_away():
    cfg = make_long_scene(3, start_distance=(3.0, 3.0))
    start = cfg.robot_start[:2]
    obj = cfg.object(cfg.target_id).center[:2]
    assert np.linalg.norm(start - obj) == pytest.approx(3.0)
    transcript = run_expert(World(cfg), "long")
    assert transcript.outcome == "DONE"
    assert any(p == ExpertPhase.NAVIGATE for _, p in transcript.phases)


def test_expert_determinism():
    cfg = make_short_scene(2)
    t1 = run_expert(World(cfg), "short")
    t2 = run_expert(World(make_short_scene(2)), "short")
    assert len(t1.ticks) == len(t2.ticks)
    for a, b in zip(t1.ticks, t2.ticks):
        assert np.array_equal(a.joints, b.joints)
        assert np.array_equal(a.base, b.base)
        assert a.v == b.v and a.omega == b.omega
    assert [p for _, p in t1.phases] == [p for _, p in t2.phases]


def test_phase_prefix_property_across_seeds():
    for seed in range(6):
        cfg = make_short_scene(seed)
        assert_phase_prefix(run_expert(World(cfg), "short"))
        cfg = make_long_scene(seed)
        assert_phase_prefix(run_expert(World(cfg), "long"))


@pytest.mark.parametrize("variant", ["short", "long"])
def test_config_without_target_raises_before_the_first_tick(variant):
    cfg = make_scene(0, variant)
    cfg.target_id = None
    world = World(cfg)
    with pytest.raises(ValueError, match="^no target object designated$"):
        run_expert(world, variant)
    assert np.array_equal(world.state.base, cfg.robot_start)
    assert np.array_equal(world.state.joints, cfg.robot_joints)
    assert world.state.attached_object is None


@pytest.mark.parametrize("name", ["locate_noise_sigma", "yaw_jitter_rad"])
def test_negative_noise_or_jitter_rejected_naming_the_field(name):
    """A negative sigma would stop numpy's normal draw mid-run with an error
    that names nothing; a negative jitter amplitude means nothing."""
    params = ExpertParams(**{name: -0.01})
    world = World(make_long_scene(0))
    with pytest.raises(ValueError, match=f"^{name} must be >= 0.0, got -0.01$"):
        run_expert(world, "long", params)
    assert np.array_equal(world.state.base, world.config.robot_start)
    ExpertParams(**{name: 0.0}).validate()


def test_unknown_variant_rejected():
    cfg = make_short_scene(0)
    with pytest.raises(ValueError, match="unknown variant"):
        run_expert(World(cfg), "medium")


@pytest.mark.parametrize("max_ticks", [0, 5])
def test_tick_budget_records_at_most_max_ticks(max_ticks):
    cfg = make_short_scene(0)
    transcript = run_expert(World(cfg), "short", ExpertParams(max_ticks=max_ticks))
    assert transcript.outcome == "FAILED"
    assert transcript.failure == "tick budget exceeded"
    assert len(transcript.ticks) == max_ticks


def test_tick_budget_boundary():
    """A run that needs n ticks completes under a budget of n and fails with
    n - 1 ticks recorded under a budget of n - 1."""
    cfg = make_short_scene(0)
    n = len(run_expert(World(cfg), "short").ticks)
    done = run_expert(World(cfg), "short", ExpertParams(max_ticks=n))
    assert done.outcome == "DONE" and len(done.ticks) == n
    cut = run_expert(World(cfg), "short", ExpertParams(max_ticks=n - 1))
    assert cut.failure == "tick budget exceeded" and len(cut.ticks) == n - 1


@pytest.mark.parametrize("max_ticks", [float("nan"), 2.5, True, -1])
def test_max_ticks_must_be_a_non_negative_int(max_ticks):
    """NaN would turn the budget off and 2.5 would record 3 ticks; a bool is
    not a count. Each is rejected, naming the field, before any tick."""
    cfg = make_short_scene(0)
    params = ExpertParams(max_ticks=max_ticks)
    with pytest.raises(ValueError, match=r"^max_ticks must be (an integer|>= 0),"):
        params.validate()
    world = World(cfg)
    with pytest.raises(ValueError, match=r"^max_ticks must be (an integer|>= 0),"):
        run_expert(world, "long", params)
    assert np.array_equal(world.state.base, cfg.robot_start)
