"""Rollout report contracts, determinism, and policy immutability."""

import numpy as np
import pytest

from skillsim import sim
from skillsim.dataset import DatasetError, NormStats
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
