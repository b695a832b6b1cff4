"""The benchmark's three workloads, driven through skillsim's public entry points.

Each workload has a set-up, run several times so its time is a median, and
a measured body that repeats on the same inputs until the run's time is
used up. Every repetition hashes the artifacts it wrote, so repetitions
that disagree show as a failed output check.

- short-pipeline: collect -> train-autoencoder rgb -> train-autoencoder
  disparity -> train -> eval on the training scenes, via `skillsim.cli.main`
  at reduced budgets.
- long-collect: `collect --variant long`; perception, navigation and render
  do the work and no network layer runs.
- closed-loop-eval: set-up trains a small policy; the body runs
  `evaluate_suite` on held-out scene files, timing every control tick
  through the `frame_sink_for` hook.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

# scene seeds of seed s: training scenes start at s * SEED_STRIDE, held-out
# scenes at s * SEED_STRIDE + HELDOUT_OFFSET, so no two seeds share a scene
SEED_STRIDE = 10_000
HELDOUT_OFFSET = 5_000


@dataclass(frozen=True)
class Sizes:
    short_episodes: int = 6
    ae_epochs: int = 3
    predictor_epochs: int = 300
    long_episodes: int = 2
    heldout_scenes: int = 32
    eval_ticks: int = 600
    setups: int = 3


FULL = Sizes()
# smallest inputs every stage accepts (autoencoders need 100 frames)
SMOKE = Sizes(short_episodes=5, long_episodes=1, heldout_scenes=2, eval_ticks=30,
              setups=1)


class Session:
    """Workspace, stage timer and failure tally shared by set-up and body."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def stage(self, name: str, fn, *args):
        """Run one pipeline stage; returns (result, seconds)."""
        if self.tracer is not None:
            self.tracer.stage = name
        t0 = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.stage = "-"
            self.tracer.stage_done(name, seconds)
        return result, seconds

    def cli(self, name: str, *argv) -> float:
        """One `skillsim` command through `cli.main`, output captured."""
        from skillsim.cli import main

        self.attempted += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc, seconds = self.stage(name, main, [str(a) for a in argv])
        if rc != 0:
            self.fail(f"{name}: exit {rc}: {out.getvalue().strip()[-300:]}")
        return seconds


# ----------------------------------------------------------------------
# reading artifacts back


def hash_tree(root: Path) -> dict:
    """sha256 of every artifact under root, except run manifests, which
    record argument paths."""
    hashes = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.name.endswith(("_manifest.json", ".manifest.json")):
            hashes[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def digest(hashes: dict) -> str:
    lines = "".join(f"{name}\0{h}\n" for name, h in sorted(hashes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def read_episodes(data: Path) -> list:
    """(outcome, steps) of every episode directory, in order."""
    rows = []
    for manifest in sorted(data.glob("ep_*/manifest.json")):
        meta = json.loads(manifest.read_text())
        rows.append((meta["outcome"], int(meta["steps"])))
    return rows


def read_losses(csv: Path) -> list:
    return [float(line.split(",")[1]) for line in csv.read_text().splitlines()[1:]]


def read_eval(csv: Path) -> list:
    """(touched, steps) per rollout of an eval CSV."""
    rows = []
    for line in csv.read_text().splitlines()[1:]:
        cols = line.split(",")
        rows.append((cols[2] == "true", int(cols[6])))
    return rows


def falling_loss(sess: Session, csv: Path) -> float:
    """Final loss of a loss CSV, failing the run unless it is below the first."""
    losses = read_losses(csv)
    if not losses[-1] < losses[0]:
        sess.fail(f"{csv}: loss did not fall ({losses[0]} -> {losses[-1]})")
    return losses[-1]


def learner_defaults() -> dict:
    from skillsim.config import REGISTRY
    return {key: REGISTRY[key][0] for key in
            ("learner.tbptt", "learner.frame_stride", "eval.max_steps")}


def collect_figures(sess: Session, data: Path, seconds: float) -> dict:
    episodes = read_episodes(data)
    done = [steps for outcome, steps in episodes if outcome == "DONE"]
    sess.attempted += len(episodes)
    for outcome, _ in episodes:
        if outcome != "DONE":
            sess.fail(f"expert episode in {data} ended {outcome}")
    return {"collect_episodes_per_s": len(episodes) / seconds,
            "expert_done_share": len(done) / max(len(episodes), 1),
            "_done_steps": done}


def train_policy(sess: Session, rep: Path, seed: int, sizes: Sizes) -> dict:
    """collect -> train-autoencoder x2 -> train, as a user runs them."""
    data, models = rep / "data", rep / "models"
    budgets = ["--set", f"learner.ae_epochs={sizes.ae_epochs}",
               "--set", f"learner.epochs={sizes.predictor_epochs}"]
    seconds = sess.cli("collect", "collect", "--variant", "short",
                       "--episodes", sizes.short_episodes, "--seed", seed * SEED_STRIDE,
                       "--out", data, "--jobs", 1)
    fig = collect_figures(sess, data, seconds)
    for modality in ("rgb", "disparity"):
        seconds = sess.cli(f"train_autoencoder.{modality}", "train-autoencoder",
                           "--dataset", data, "--modality", modality, "--out", models,
                           "--seed", seed, *budgets)
        if sess.failed:
            return fig
        defaults = learner_defaults()
        frames = sum(math.ceil(s / defaults["learner.frame_stride"])
                     for s in fig["_done_steps"])
        fig[f"ae_{modality}_frames_per_s"] = frames * sizes.ae_epochs / seconds
        fig[f"ae_{modality}_final_loss"] = falling_loss(
            sess, models / f"loss_autoencoder_{modality}.csv")
    seconds = sess.cli("train", "train", "--dataset", data, "--models", models,
                       "--seed", seed, *budgets)
    if sess.failed:
        return fig
    longest = max(s - 1 for s in fig["_done_steps"])
    updates = sizes.predictor_epochs * math.ceil(longest / learner_defaults()["learner.tbptt"])
    fig["predictor_updates_per_s"] = updates / seconds
    fig["predictor_final_loss"] = falling_loss(sess, models / "loss_predictor.csv")
    return fig


def eval_figures(sess: Session, csv: Path, seconds: float, require_touch=False) -> dict:
    rows = read_eval(csv)
    touched = sum(t for t, _ in rows)
    if require_touch and touched == 0:
        sess.fail(f"no rollout in {csv} touched its target")
    return {"eval_ticks_per_s": sum(s for _, s in rows) / seconds,
            "eval_touch_rate": touched / len(rows)}


# ----------------------------------------------------------------------
# workloads


class Workload:
    def setup(self, sess: Session, seed: int, sizes: Sizes):
        """Inputs are the scene seeds the collect command derives from `seed`."""
        return {"seed": seed, "sizes": sizes}


class ShortPipeline(Workload):
    name = "short-pipeline"
    why = "the A1 pipeline users run, at reduced budgets; nn training does most of the work"
    # traced-run design checks: span patterns that must record calls, and
    # ones that must record none (short localizes from ground truth)
    busy = ["sim.render.calls", "sim.step.calls", "kinematics.ik.calls",
            "expert.plan_arm.calls", "expert.run_expert.calls", "dataset.record.calls",
            "dataset.load_dataset.calls", "nn.Conv2d.*.calls", "nn.Dense.*.calls",
            "nn.LSTMCell.*.calls", "nn.Adam.calls", "models.predict_next.calls",
            "evaluate.rollout.calls"]
    idle = ["perception.*.calls", "nav.*.calls"]

    def body(self, sess: Session, inputs):
        rep = sess.fresh("rep")
        t0 = perf_counter()
        fig = train_policy(sess, rep, inputs["seed"], inputs["sizes"])
        if sess.failed:
            return fig, rep
        seconds = sess.cli("eval", "eval", "--models", rep / "models",
                           "--dataset", rep / "data", "--out", rep / "eval.csv")
        fig["wall_s"] = perf_counter() - t0
        if not sess.failed:
            sess.attempted += len(read_eval(rep / "eval.csv"))
            fig.update(eval_figures(sess, rep / "eval.csv", seconds, require_touch=True))
        return fig, rep


class LongCollect(Workload):
    name = "long-collect"
    why = "collect --variant long: perception kNN, render, A*, IK do the work; nn is idle"
    busy = ["sim.render.calls", "sim.step.calls", "perception.voxel_grid_filter.calls",
            "perception.statistical_outlier_removal.calls", "perception.color_segment.calls",
            "perception.locate_object.calls", "nav.astar.calls", "nav.follow_path.calls",
            "nav.OccupancyGrid.from_world.calls", "kinematics.ik.calls",
            "expert.plan_arm.calls", "expert.run_expert.calls", "dataset.record.calls",
            "dataset.save_episode.calls"]
    idle = ["nn.*.calls", "training.*.calls", "models.*.calls", "evaluate.*.calls"]

    def body(self, sess: Session, inputs):
        rep = sess.fresh("rep")
        data = rep / "data"
        seconds = sess.cli("collect", "collect", "--variant", "long",
                           "--episodes", inputs["sizes"].long_episodes,
                           "--seed", inputs["seed"] * SEED_STRIDE, "--out", data,
                           "--jobs", 1)
        fig = collect_figures(sess, data, seconds)
        fig["wall_s"] = seconds
        return fig, rep


class ClosedLoopEval(Workload):
    name = "closed-loop-eval"
    why = "batch-1 inference with a render every tick on held-out scenes; no training or I/O"
    busy = ["sim.render.calls", "sim.step.calls", "imaging.block_mean.calls",
            "nn.Conv2d.*.calls", "nn.Dense.*.calls", "nn.LSTMCell.*.calls",
            "models.PolicyBundle.encode_frame.calls", "models.predict_next.calls",
            "evaluate.rollout.calls"]
    idle = ["perception.*.calls", "nav.*.calls", "expert.*.calls", "dataset.*.calls",
            "training.*.calls", "nn.Adam.calls", "nn.*.backward_s", "nn.*.backward_step_s"]

    def setup(self, sess: Session, seed: int, sizes: Sizes):
        from skillsim.cli import load_bundle
        from skillsim.config import load_run_config
        from skillsim.evaluate import Scenario
        from skillsim.scene import load_scene, make_scene, save_scene

        rep = sess.fresh("setup")
        fig = train_policy(sess, rep, seed, sizes)
        if sess.failed:
            return {"figures": fig, "dir": rep}
        scene_kwargs = load_run_config().scene_kwargs("short")
        scenes = rep / "scenes"
        scenes.mkdir()
        scenarios = []
        for i in range(sizes.heldout_scenes):
            path = scenes / f"heldout_{i:03d}.txt"
            save_scene(path, make_scene(seed * SEED_STRIDE + HELDOUT_OFFSET + i, "short",
                                        **scene_kwargs))
            scenarios.append(Scenario(label=path.stem, config=load_scene(path),
                                      variant="short"))
        return {"figures": fig, "dir": rep, "bundle": load_bundle(rep / "models"),
                "scenarios": scenarios, "sizes": sizes}

    def body(self, sess: Session, inputs):
        """Exactly `eval_ticks` control ticks: held-out scenes in turn, each
        with the default step budget, the last cut to the ticks that remain.
        A fixed tick count keeps the work equal across seeds, whose policies
        finish early on different numbers of scenes."""
        from skillsim.evaluate import evaluate_suite, reports_to_csv

        rep = sess.fresh("rep")
        max_steps = learner_defaults()["eval.max_steps"]
        stamps, reports = [], []

        def frame_sink_for(label):
            stamps.append([])
            return lambda t, frame: stamps[-1].append(perf_counter())

        remaining = inputs["sizes"].eval_ticks
        t0 = perf_counter()
        for scenario in itertools.cycle(inputs["scenarios"]):
            sess.attempted += 1
            (done, _), _ = sess.stage("eval", evaluate_suite, inputs["bundle"], [scenario],
                                      min(max_steps, remaining), frame_sink_for)
            reports += done
            remaining -= done[0].steps_executed
            if remaining <= 0:
                break
        seconds = perf_counter() - t0
        (rep / "eval.csv").write_text(reports_to_csv(reports))
        fig = {"wall_s": seconds, "_tick_s": [b - a for ticks in stamps
                                               for a, b in zip(ticks, ticks[1:])]}
        fig.update(eval_figures(sess, rep / "eval.csv", seconds))
        return fig, rep


WORKLOADS = {w.name: w for w in (ShortPipeline(), LongCollect(), ClosedLoopEval())}


def median_figures(figs: list) -> dict:
    """Median of each numeric figure over repetitions; tick samples pooled."""
    keys = {k for f in figs for k in f if not k.startswith("_")}
    out = {k: median(f[k] for f in figs if k in f) for k in keys}
    samples = [s for f in figs for s in f.get("_tick_s", ())]
    if len(samples) > 1:
        deciles = quantiles(samples, n=10, method="inclusive")
        out["eval_tick_ms_p50"] = 1e3 * deciles[4]
        out["eval_tick_ms_p90"] = 1e3 * deciles[8]
        out["_tick_samples"] = len(samples)
    return out
