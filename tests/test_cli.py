"""Command-line behavior: exit codes, manifests, reruns, and a mini pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

from skillsim.cli import main
from skillsim.imaging import read_pgm16, read_ppm
from skillsim.scene import config_to_text, make_long_scene, make_short_scene, save_scene


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_collect_writes_episodes_and_manifest(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(["collect", "--variant", "short", "--episodes", "2",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ep_00000 seed=3 outcome=DONE" in printed
    assert "ep_00001 seed=4 outcome=DONE" in printed
    assert (out / "ep_00000" / "steps.bin").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "collect"
    assert manifest["tool"] == "skillsim"
    assert manifest["args"]["episodes"] == 2
    assert manifest["config"]["perception.leaf"]["source"] == "default"


def test_collect_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["collect", "--variant", "short", "--episodes", "2",
                 "--seed", "5", "--out", str(a)]) == 0
    assert main(["collect", "--variant", "short", "--episodes", "2",
                 "--seed", "5", "--out", str(b)]) == 0
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert list(ta) == list(tb)
    for name in ta:
        assert ta[name] == tb[name], name


def test_collect_jobs_parallel_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["collect", "--variant", "short", "--episodes", "2",
                 "--seed", "2", "--out", str(a), "--jobs", "1"]) == 0
    assert main(["collect", "--variant", "short", "--episodes", "2",
                 "--seed", "2", "--out", str(b), "--jobs", "2"]) == 0
    ta, tb = tree_bytes(a), tree_bytes(b)
    # run manifests record the jobs flag; everything else matches exactly
    for name in ta:
        if name != "run_manifest.json":
            assert ta[name] == tb[name], name


def test_collect_zero_episodes_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["collect", "--variant", "short", "--episodes", "0",
              "--out", str(tmp_path / "d")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["collect", "--variant", "short", "--episodes", "1", "--out"],
    ["train-autoencoder", "--dataset", "data", "--modality", "rgb", "--out"],
    ["train", "--dataset", "data", "--models"],
    ["gradcheck", "--config"],
], ids=lambda argv: argv[0])
def test_negative_seed_usage_error_names_the_flag(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path / "x"), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_collect_invalid_variant_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["collect", "--variant", "medium", "--episodes", "1",
              "--out", str(tmp_path / "d")])
    assert exc.value.code == 2


def test_collect_unwritable_out_errors(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file where the dataset directory should go")
    code = main(["collect", "--variant", "short", "--episodes", "1",
                 "--out", str(blocker)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_fails(tmp_path, capsys):
    code = main(["collect", "--variant", "short", "--episodes", "1",
                 "--out", str(tmp_path / "d"), "--set", "bogus=1"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_render_writes_images(tmp_path, capsys):
    scene_path = tmp_path / "scene.txt"
    save_scene(scene_path, make_short_scene(4))
    out_prefix = tmp_path / "frame"
    assert main(["render", "--scene", str(scene_path), "--out", str(out_prefix)]) == 0
    rgb = read_ppm(tmp_path / "frame.ppm")
    assert rgb.shape == (64, 64, 3)
    disp = read_pgm16(tmp_path / "frame.pgm")
    assert disp.shape == (64, 64)
    assert "depth range" in capsys.readouterr().out


def test_render_scene_where_no_ray_hits_reports_zero_pixels(tmp_path, capsys):
    cfg = make_short_scene(4)
    cfg.camera.pitch_rad = -1.2   # looking up, above the horizon
    scene_path = tmp_path / "scene.txt"
    save_scene(scene_path, cfg)
    assert main(["render", "--scene", str(scene_path), "--out", str(tmp_path / "frame")]) == 0
    out = capsys.readouterr().out
    assert "no depth: 0/4096 pixels hit" in out
    assert "depth range" not in out
    assert not read_pgm16(tmp_path / "frame.pgm").any()


def test_gradcheck_cli(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out
    assert "FAIL" not in out


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """collect -> train-autoencoder x2 -> train, tiny budgets, via the CLI."""
    root = tmp_path_factory.mktemp("mini")
    data = root / "data"
    models = root / "models"
    fast = ["--set", "learner.ae_epochs=8", "--set", "learner.epochs=30",
            "--set", "learner.latent=8", "--set", "learner.hidden=16"]
    assert main(["collect", "--variant", "short", "--episodes", "4",
                 "--seed", "0", "--out", str(data)]) == 0
    assert main(["train-autoencoder", "--dataset", str(data), "--modality", "rgb",
                 "--out", str(models), *fast]) == 0
    assert main(["train-autoencoder", "--dataset", str(data),
                 "--modality", "disparity", "--out", str(models), *fast]) == 0
    assert main(["train", "--dataset", str(data), "--models", str(models),
                 *fast]) == 0
    return root, data, models


def test_pipeline_artifacts(mini_pipeline):
    root, data, models = mini_pipeline
    for name in ("autoencoder_rgb.sklm", "autoencoder_disparity.sklm",
                 "predictor.sklm", "norm_stats.json", "loss_predictor.csv",
                 "loss_autoencoder_rgb.csv", "train_manifest.json"):
        assert (models / name).exists(), name
    csv = (models / "loss_predictor.csv").read_text().splitlines()
    assert csv[0] == "epoch,loss"
    assert len(csv) == 31
    manifest = json.loads((models / "train_manifest.json").read_text())
    assert any(k.endswith("steps.bin") for k in manifest["inputs"])


def test_eval_cli(mini_pipeline, capsys):
    root, data, models = mini_pipeline
    out_csv = root / "eval.csv"
    assert main(["eval", "--models", str(models), "--dataset", str(data),
                 "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,seed,touched")
    assert len(lines) == 5  # header + 4 scenarios
    assert "touch_rate=" in capsys.readouterr().out
    assert (root / "eval.manifest.json").exists()


def test_eval_csv_rerun_identical(mini_pipeline):
    root, data, models = mini_pipeline
    a, b = root / "eval_a.csv", root / "eval_b.csv"
    assert main(["eval", "--models", str(models), "--dataset", str(data),
                 "--out", str(a)]) == 0
    assert main(["eval", "--models", str(models), "--dataset", str(data),
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_dump_frames(mini_pipeline):
    root, data, models = mini_pipeline
    frames = root / "frames"
    assert main(["eval", "--models", str(models), "--dataset", str(data),
                 "--out", str(root / "eval_frames.csv"),
                 "--dump-frames", str(frames),
                 "--set", "eval.max_steps=5"]) == 0
    dumped = list(frames.glob("ep_00000/tick_*.ppm"))
    assert len(dumped) == 5
    assert read_ppm(dumped[0]).shape == (64, 64, 3)


def test_inspect_text_and_csv(mini_pipeline, capsys):
    root, data, models = mini_pipeline
    assert main(["inspect", str(data)]) == 0
    text = capsys.readouterr().out
    assert "4 episodes" in text
    assert "state_min" in text
    assert main(["inspect", str(data), "--format", "csv"]) == 0
    csv = capsys.readouterr().out.splitlines()
    assert csv[0] == "episode,variant,outcome,steps,seed"
    assert len(csv) >= 5


def test_eval_missing_models_errors(tmp_path, capsys):
    code = main(["eval", "--models", str(tmp_path / "nope"),
                 "--dataset", str(tmp_path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_missing_autoencoder_errors(mini_pipeline, tmp_path, capsys):
    _, data, _ = mini_pipeline
    code = main(["train", "--dataset", str(data), "--models", str(tmp_path / "m")])
    assert code == 1
    err = capsys.readouterr().err
    assert "norm_stats.json" in err or "missing" in err


def test_inspect_manifest_without_dims_one_line_error(mini_pipeline, tmp_path, capsys):
    _, data, _ = mini_pipeline
    broken = tmp_path / "data"
    (broken / "ep_00000").mkdir(parents=True)
    for name in ("manifest.json", "steps.bin"):
        (broken / "ep_00000" / name).write_bytes((data / "ep_00000" / name).read_bytes())
    mpath = broken / "ep_00000" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["dims"]
    mpath.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["inspect", str(broken)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "missing key 'dims'" in err[0] and str(mpath) in err[0]


def test_eval_truncated_model_one_line_error(mini_pipeline, tmp_path, capsys):
    _, data, models = mini_pipeline
    broken = tmp_path / "models"
    broken.mkdir()
    for src in models.iterdir():
        if src.is_file():
            (broken / src.name).write_bytes(src.read_bytes())
    (broken / "predictor.sklm").write_bytes((models / "predictor.sklm").read_bytes()[:18])
    capsys.readouterr()
    assert main(["eval", "--models", str(broken), "--dataset", str(data),
                 "--out", str(tmp_path / "eval.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "truncated at offset 18" in err[0] and "predictor.sklm" in err[0]


def one_line_error(capsys, argv, path):
    """Run the CLI, expecting exit 1 and one stderr line that names `path`."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(path) in err[0], err
    return err[0]


def write_scene_without(path, config, prefix):
    lines = config_to_text(config).splitlines(True)
    path.write_text("".join(l for l in lines if not l.startswith(prefix)))


def test_render_scene_without_table_center_one_line_error(tmp_path, capsys):
    path = tmp_path / "scene.txt"
    write_scene_without(path, make_short_scene(4), "table.center")
    err = one_line_error(capsys, ["render", "--scene", str(path),
                                  "--out", str(tmp_path / "frame")], path)
    assert "missing key 'table.center'" in err


def test_render_scene_with_nan_start_one_line_error(tmp_path, capsys):
    path = tmp_path / "scene.txt"
    write_scene_without(path, make_short_scene(0), "robot.start")
    with open(path, "a") as fh:
        fh.write("robot.start = nan 0.0 0.0\n")
    err = one_line_error(capsys, ["render", "--scene", str(path),
                                  "--out", str(tmp_path / "frame")], path)
    assert "bad value for 'robot.start'" in err


def test_render_scene_with_negative_seed_one_line_error(tmp_path, capsys):
    """numpy's bare "expected non-negative integer" named neither key nor file."""
    path = tmp_path / "scene.txt"
    write_scene_without(path, make_short_scene(0), "rng_seed")
    with open(path, "a") as fh:
        fh.write("rng_seed = -1\n")
    err = one_line_error(capsys, ["render", "--scene", str(path),
                                  "--out", str(tmp_path / "frame")], path)
    assert err.endswith(f"{path}: bad value for 'rng_seed': must be >= 0, got -1")
    assert not (tmp_path / "frame.ppm").exists()


def test_eval_scene_obstacle_without_extents_one_line_error(mini_pipeline, tmp_path, capsys):
    _, _, models = mini_pipeline
    path = tmp_path / "scene.txt"
    write_scene_without(path, make_long_scene(0), "obstacle.0.half_extents")
    err = one_line_error(capsys, ["eval", "--models", str(models), "--scene", str(path),
                                  "--out", str(tmp_path / "eval.csv")], path)
    assert "missing key 'obstacle.0.half_extents'" in err


def test_inspect_manifest_scene_without_camera_one_line_error(mini_pipeline, tmp_path, capsys):
    _, data, _ = mini_pipeline
    broken = tmp_path / "data" / "ep_00000"
    broken.mkdir(parents=True)
    for name in ("manifest.json", "steps.bin"):
        (broken / name).write_bytes((data / "ep_00000" / name).read_bytes())
    mpath = broken / "manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["scene"]["camera"]
    mpath.write_text(json.dumps(manifest))
    err = one_line_error(capsys, ["inspect", str(tmp_path / "data")], mpath)
    assert "missing key 'camera'" in err


def test_inspect_manifest_scene_with_negative_dt_one_line_error(mini_pipeline, tmp_path, capsys):
    _, data, _ = mini_pipeline
    broken = tmp_path / "data" / "ep_00000"
    broken.mkdir(parents=True)
    for name in ("manifest.json", "steps.bin"):
        (broken / name).write_bytes((data / "ep_00000" / name).read_bytes())
    mpath = broken / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["scene"]["dt"] = -1.0
    mpath.write_text(json.dumps(manifest))
    err = one_line_error(capsys, ["inspect", str(tmp_path / "data")], mpath)
    assert "bad value for 'dt': must be > 0.0" in err


def copy_models(models, dest):
    dest.mkdir()
    for src in models.iterdir():
        if src.is_file():
            (dest / src.name).write_bytes(src.read_bytes())
    return dest


def test_inspect_manifest_with_text_step_count_one_line_error(mini_pipeline, tmp_path, capsys):
    _, data, _ = mini_pipeline
    broken = tmp_path / "data" / "ep_00000"
    broken.mkdir(parents=True)
    for name in ("manifest.json", "steps.bin"):
        (broken / name).write_bytes((data / "ep_00000" / name).read_bytes())
    mpath = broken / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["steps"] = "x"
    mpath.write_text(json.dumps(manifest))
    err = one_line_error(capsys, ["inspect", str(tmp_path / "data")], mpath)
    assert "bad value for 'steps'" in err


@pytest.mark.parametrize("corrupt,key", [
    (lambda blob: b"{}", "missing key"),
    (lambda blob: blob[:40], "Expecting"),   # truncated JSON
])
def test_eval_bad_stats_file_one_line_error(mini_pipeline, tmp_path, capsys, corrupt, key):
    _, data, models = mini_pipeline
    path = copy_models(models, tmp_path / "models") / "norm_stats.json"
    path.write_bytes(corrupt(path.read_bytes()))
    err = one_line_error(capsys, ["eval", "--models", str(path.parent), "--dataset", str(data),
                                  "--out", str(tmp_path / "eval.csv")], path)
    assert key in err


@pytest.mark.parametrize("setting", ["expert.lift_height_m=nan", "sim.depth_noise_sigma=inf"])
def test_non_finite_config_flag_one_line_error(tmp_path, capsys, setting):
    key = setting.split("=")[0]
    err = one_line_error(capsys, ["inspect", str(tmp_path), "--set", setting], key)
    assert f"bad value for {key}: must be finite" in err


@pytest.mark.parametrize("content,message", [
    (b"learner.lr = nan\n", "bad value for learner.lr"),
    (b"learner.epochs = 5\xff\n", "not UTF-8"),
])
def test_bad_config_file_one_line_error(tmp_path, capsys, content, message):
    path = tmp_path / "run.cfg"
    path.write_bytes(content)
    err = one_line_error(capsys, ["inspect", str(tmp_path), "--config", str(path)], path)
    assert message in err


def test_eval_scene_with_non_square_camera_one_line_error(mini_pipeline, tmp_path, capsys):
    _, _, models = mini_pipeline
    path = tmp_path / "scene.txt"
    write_scene_without(path, make_short_scene(0), "camera.height =")
    with open(path, "a") as fh:
        fh.write("camera.height = 48\n")
    capsys.readouterr()
    assert main(["eval", "--models", str(models), "--scene", str(path),
                 "--out", str(tmp_path / "eval.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: frame RGB shape (48, 64, 3) and disparity shape (48, 64) "
                   "are not square frames of one size"]


@pytest.mark.parametrize("setting", ["sim.depth_noise_sigma=-0.01",
                                     "expert.locate_noise_sigma=-0.01",
                                     "expert.yaw_jitter_rad=-0.2"])
def test_negative_noise_or_jitter_flag_one_line_error(tmp_path, capsys, setting):
    key = setting.split("=")[0]
    err = one_line_error(capsys, ["collect", "--variant", "short", "--episodes", "1",
                                  "--out", str(tmp_path / "d"), "--set", setting], key)
    assert f"bad value for {key}: must be >= 0.0" in err


def test_negative_distractor_count_flag_one_line_error(tmp_path, capsys):
    err = one_line_error(capsys, ["collect", "--variant", "short", "--episodes", "1",
                                  "--out", str(tmp_path / "d"), "--set", "scene.distractors=-3"],
                         "scene.distractors")
    assert "bad value" in err


def test_eval_scene_without_target_one_line_error_naming_it(mini_pipeline, tmp_path, capsys):
    _, _, models = mini_pipeline
    path = tmp_path / "untargeted.txt"
    write_scene_without(path, make_short_scene(0), "target =")
    err = one_line_error(capsys, ["eval", "--models", str(models), "--scene", str(path),
                                  "--out", str(tmp_path / "eval.csv")], "scenario untargeted")
    assert err == "error: scenario untargeted: no target object designated"


def test_eval_manifest_records_why_each_scenario_stopped(mini_pipeline, tmp_path):
    _, data, models = mini_pipeline
    far = make_short_scene(0)
    far.robot_start = np.array([6.5, 0.0, 0.0])   # the tip starts outside the workspace
    save_scene(tmp_path / "far.txt", far)
    out = tmp_path / "eval.csv"
    assert main(["eval", "--models", str(models), "--dataset", str(data),
                 "--scene", str(tmp_path / "far.txt"), "--out", str(out),
                 "--set", "eval.max_steps=3"]) == 0
    manifest = json.loads((tmp_path / "eval.manifest.json").read_text())
    assert manifest["stop_reasons"] == [
        {"scenario": f"ep_{i:05d}", "seed": i, "stop_reason": "step_budget"} for i in range(4)
    ] + [{"scenario": "far", "seed": 0, "stop_reason": "workspace_exit"}]
    assert "stop_reason" not in out.read_text()


def test_collect_with_a_zero_tick_budget_records_a_failed_episode(tmp_path, capsys):
    """expert.max_ticks=0 parses, as ExpertParams(max_ticks=0) validates."""
    assert main(["collect", "--variant", "short", "--episodes", "1", "--out",
                 str(tmp_path / "d"), "--set", "expert.max_ticks=0"]) == 1
    out = capsys.readouterr().out
    assert "ep_00000 seed=0 outcome=FAILED steps=0 (tick budget exceeded)" in out
