"""The benchmark's own tests: BENCHMARK.json's shape, a minimal-size run of
every workload with tracing off and on, and the tracer's bookkeeping.

    python3 -m pytest perfbench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_KEYS = {"name", "unit", "better"}


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCH["workloads"])
    for m in BENCH["end_to_end"]:
        assert set(m) == METRIC_KEYS | {"bound"} and 0 < m["bound"] <= 0.25
    assert all(set(m) == METRIC_KEYS for m in BENCH["per_layer"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and len(BENCH["per_layer"]) <= 128
    assert all(m["better"] in ("higher", "lower") and m["unit"] for m in metrics)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def run_smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    stdout, result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, m["name"]
    assert "env source_sha256" in stdout and "env trace.overhead_share" in stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-collect", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""


def test_tracer_wraps_every_binding_and_restores_them():
    import skillsim
    import skillsim.cli
    from skillsim import expert, perception
    from skillsim.perception import PointCloud

    originals = (expert.plan_arm, skillsim.cli.run_expert, perception.locate_object,
                 skillsim.nn.Conv2d.forward)
    tracer = Tracer()
    tracer.install(skillsim)
    try:
        assert expert.plan_arm is not originals[0]
        assert skillsim.cli.run_expert is not originals[1]
        assert skillsim.plan_arm is expert.plan_arm
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(50, 3)), rng.uniform(size=(50, 3)))
        perception.statistical_outlier_removal(cloud, 8, 1.0)
        skillsim.nn.Conv2d(3, 4, rng).forward(np.zeros((2, 8, 8, 3), np.float32))
    finally:
        tracer.uninstall()
    assert (expert.plan_arm, skillsim.cli.run_expert, perception.locate_object,
            skillsim.nn.Conv2d.forward) == originals
    totals = tracer.totals
    assert totals["perception.statistical_outlier_removal.calls"] == 1
    assert totals["perception.statistical_outlier_removal.points_in"] == 50
    assert totals["perception.statistical_outlier_removal.pair_distances"] == 50 * 49
    assert totals["nn.Conv2d.3-4-s1.calls"] == 1
    assert totals["nn.Conv2d.3-4-s1.flop"] == 2 * (2 * 8 * 8) * 27 * 4


def test_self_time_excludes_child_spans():
    import skillsim

    tracer = Tracer()
    tracer.install(skillsim)
    try:
        world = skillsim.World(skillsim.make_short_scene(0))
        frame = world.render()
        target = world.config.object(world.config.target_id).color
        from time import perf_counter
        t0 = perf_counter()
        skillsim.locate_object(frame, target)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = ("locate_object", "voxel_grid_filter", "statistical_outlier_removal",
             "color_segment")
    self_times = [tracer.totals[f"perception.{s}.self_s"] for s in spans]
    assert all(t >= 0 for t in self_times)
    assert self_times[0] < 0.5 * wall
    assert sum(self_times) == pytest.approx(wall, rel=0.05)
