"""Rollout report contracts, determinism, and policy immutability."""

import hashlib

import numpy as np
import pytest

from skillsim import kinematics, sim
from skillsim.dataset import DatasetError, NormStats, normalize_state
from skillsim.evaluate import Scenario, evaluate_suite, reports_to_csv, rollout
from skillsim.models import Autoencoder, PolicyBundle, Predictor
from skillsim.scene import make_long_scene, make_scene, make_short_scene


def untrained_bundle(d_state=5, seed=0):
    rng = np.random.default_rng(seed)
    stats = NormStats(
        state_min=np.array([0.0, 0, 0, 0, 0, -0.5, -1.0])[:d_state],
        state_max=np.array([0.35, 2, 2, 2, 1.0, 0.5, 1.0])[:d_state],
        state_flags=np.zeros(d_state, bool),
        image_mean=np.full(3, 0.5), image_std=np.full(3, 0.25),
        disp_mean=4.0, disp_std=2.0,
    )
    return PolicyBundle(
        enc_rgb=Autoencoder(3, 32, 32, rng=rng),
        enc_disp=Autoencoder(1, 32, 32, rng=rng),
        predictor=Predictor(32, d_state, 64, rng=rng),
        stats=stats,
    )


def test_untrained_policy_rollout_well_formed():
    bundle = untrained_bundle()
    cfg = make_short_scene(0)
    report = rollout(bundle, Scenario("s0", cfg, "short"), max_steps=40)
    assert report.steps_executed <= 40
    assert report.final_tip_distance >= 0.0
    assert not report.touched
    assert report.ticks_to_touch is None
    assert (report.ticks_to_touch is not None) == report.touched


def test_rollout_never_builds_a_point_cloud(monkeypatch):
    bundle = untrained_bundle()
    scenario = Scenario("s0", make_short_scene(0), "short")
    expected = rollout(bundle, scenario, max_steps=5)

    def no_cloud(*args, **kwargs):
        raise AssertionError("rollout() built a point cloud")

    monkeypatch.setattr(sim, "PointCloud", no_cloud)
    assert rollout(bundle, scenario, max_steps=5) == expected


def test_variant_mismatch_rejected():
    bundle = untrained_bundle(d_state=5)
    cfg = make_long_scene(0)
    with pytest.raises(DatasetError, match="mismatch"):
        rollout(bundle, Scenario("long0", cfg, "long"))


def test_scenario_without_target_raises_naming_it_before_the_first_tick():
    cfg = make_short_scene(0)
    cfg.target_id = None
    ticks = []
    with pytest.raises(ValueError, match="^scenario untargeted: no target object designated$"):
        rollout(untrained_bundle(), Scenario("untargeted", cfg, "short"),
                frame_sink=lambda t, frame: ticks.append(t))
    assert ticks == []


@pytest.mark.parametrize("d_state, variant", [(5, "short"), (7, "long")])
def test_non_finite_prediction_ends_rollout_before_stepping(d_state, variant):
    bundle = untrained_bundle(d_state=d_state)
    bundle.predictor.readout.b.value[-1] = np.nan  # the last joint, or omega
    report = rollout(bundle, Scenario("nan", make_scene(0, variant), variant), max_steps=10)
    assert report.steps_executed == 0
    assert np.isfinite(report.final_tip_distance)
    assert report.csv_row().endswith(",0")


def test_long_variant_bundle_accepts_long_scenario():
    bundle = untrained_bundle(d_state=7)
    cfg = make_long_scene(1)
    report = rollout(bundle, Scenario("long1", cfg, "long"), max_steps=10)
    assert report.steps_executed <= 10


def test_suite_deterministic_csv():
    bundle = untrained_bundle()
    scenarios = [Scenario(f"s{i}", make_short_scene(i), "short") for i in range(3)]
    r1, agg1 = evaluate_suite(bundle, scenarios, max_steps=25)
    r2, agg2 = evaluate_suite(bundle, scenarios, max_steps=25)
    assert reports_to_csv(r1) == reports_to_csv(r2)
    assert agg1 == agg2


def test_suite_requires_scenarios():
    with pytest.raises(ValueError):
        evaluate_suite(untrained_bundle(), [])


def test_rollout_does_not_mutate_policy():
    bundle = untrained_bundle()
    before = [p.value.copy() for _, p in bundle.predictor.named_params()]
    before += [p.value.copy() for _, p in bundle.enc_rgb.named_params()]
    rollout(bundle, Scenario("s0", make_short_scene(2), "short"), max_steps=20)
    after = [p.value for _, p in bundle.predictor.named_params()]
    after += [p.value for _, p in bundle.enc_rgb.named_params()]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_csv_header_and_row_shape():
    bundle = untrained_bundle()
    reports, _ = evaluate_suite(
        bundle, [Scenario("sc", make_short_scene(3), "short")], max_steps=10)
    csv = reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == "scenario,seed,touched,grasped,ticks_to_touch,final_tip_distance_m,steps"
    fields = lines[1].split(",")
    assert fields[0] == "sc"
    assert fields[2] in ("true", "false")
    assert len(fields) == 7


def test_suite_sharing_one_bundle_writes_the_csv_of_fresh_bundles():
    a, b = (Scenario(f"s{i}", make_short_scene(i), "short") for i in (4, 5))
    shared, _ = evaluate_suite(untrained_bundle(), [a, b, a], max_steps=15)
    fresh = [evaluate_suite(untrained_bundle(), [sc], max_steps=15)[0][0] for sc in (a, b, a)]
    assert reports_to_csv(shared) == reports_to_csv(fresh)


def test_frame_sink_that_overwrites_rgb_gives_the_reports_of_a_fresh_bundle():
    scenario = Scenario("s6", make_short_scene(6), "short")

    def overwrite_odd(t, frame):
        if t % 2:
            frame.rgb[...] = 255 - frame.rgb

    used = untrained_bundle()
    plain = rollout(used, scenario, max_steps=12)  # leaves frame 0's latent kept
    overwritten = rollout(used, scenario, max_steps=12, frame_sink=overwrite_odd)
    assert overwritten == rollout(untrained_bundle(), scenario, max_steps=12,
                                  frame_sink=overwrite_odd)
    assert overwritten != plain


# ----------------------------------------------------------------------
# why a rollout stopped


def test_rollout_that_runs_out_of_steps_stops_on_the_step_budget():
    report = rollout(untrained_bundle(), Scenario("s0", make_short_scene(0), "short"),
                     max_steps=6)
    assert (report.steps_executed, report.stop_reason) == (6, "step_budget")


def test_rollout_stops_on_a_non_finite_prediction():
    bundle = untrained_bundle()
    bundle.predictor.readout.b.value[0] = np.nan
    report = rollout(bundle, Scenario("nan", make_short_scene(0), "short"), max_steps=6)
    assert (report.steps_executed, report.stop_reason) == (0, "non_finite_prediction")


def test_rollout_stops_when_the_tip_leaves_the_workspace():
    cfg = make_short_scene(0)
    cfg.robot_start = np.array([6.5, 0.0, 0.0])   # the tip starts past WORKSPACE_XY
    report = rollout(untrained_bundle(), Scenario("far", cfg, "short"), max_steps=6)
    assert (report.steps_executed, report.stop_reason) == (1, "workspace_exit")


def test_rollout_stops_once_the_target_is_grasped():
    """A policy that always predicts the start joints with the gripper shut, on
    a scene whose target sits at the start tip, closes on it and grasps it."""
    cfg = make_short_scene(0)
    cfg.object(cfg.target_id).center = kinematics.fk(cfg.robot_joints, cfg.robot_start)
    bundle = untrained_bundle()
    shut = cfg.robot_joints.copy()
    shut[4] = 0.0
    bundle.predictor.readout.W.value[...] = 0.0
    bundle.predictor.readout.b.value[...] = normalize_state(shut, bundle.stats)
    report = rollout(bundle, Scenario("grasp", cfg, "short"), max_steps=20)
    assert report.touched and report.grasped
    assert report.stop_reason == "grasped" and report.steps_executed < 20


def test_rollout_runs_forward_kinematics_once_per_tick(monkeypatch):
    calls = []
    fk = kinematics.fk

    def spy(joints, base):
        calls.append(1)
        return fk(joints, base)

    monkeypatch.setattr(kinematics, "fk", spy)
    report = rollout(untrained_bundle(), Scenario("s0", make_short_scene(0), "short"),
                     max_steps=12)
    assert report.steps_executed == 12
    assert len(calls) == 12


# ----------------------------------------------------------------------
# golden closed-loop rollouts


def golden_rollouts(variant, d_state, seeds, max_steps):
    """sha256 of reports_to_csv, and sha256 over every frame's rgb and disparity
    bytes, for untrained policies rolled out on held-out scenes."""
    frames = hashlib.sha256()

    def sink_for(label):
        def sink(t, frame):
            frames.update(frame.rgb.tobytes())
            frames.update(frame.disparity.tobytes())
        return sink

    scenarios = [Scenario(f"heldout_{s}", make_scene(s, variant), variant) for s in seeds]
    reports, _ = evaluate_suite(untrained_bundle(d_state=d_state), scenarios, max_steps,
                                sink_for)
    return hashlib.sha256(reports_to_csv(reports).encode()).hexdigest(), frames.hexdigest()


@pytest.mark.parametrize("variant, d_state, seeds, max_steps, digests", [
    ("short", 5, (5000, 5001, 5002), 60,
     ("4092d044dda905f35d2aa22dcd351ba3b6a61dd8a9d0876b695adc8be00d1469",
      "590b12e3251f8a9739177d00d38b76284808b11576d5ccdda5e52300e5756b84")),
    ("long", 7, (5003,), 40,
     ("a5198d225eb410d224c2f79c375f69ae7df2d76e31a3cbbcc6d31422f3625585",
      "c135042b1a5dd95a4fb149854b1880e8ec652070a31e7d68faae40de3dd3202c")),
])
def test_closed_loop_rollouts_golden(variant, d_state, seeds, max_steps, digests):
    """Pins the CSV and every frame of closed-loop rollouts across commits: any
    change to rendering, depth noise, the policy step or the rollout loop
    shows here. The short scenes hold the camera still; the long one drives
    the base, so its frames come from new poses. Digests are for numpy 2.4
    with OpenBLAS on x86-64."""
    assert golden_rollouts(variant, d_state, seeds, max_steps) == digests
