"""Command-line pipeline: collect -> train-autoencoder -> train -> eval,
plus inspect/render/gradcheck utilities.

Every run writes a manifest (resolved configuration with provenance, input
file hashes, tool version) beside its outputs, and every code path is
seeded, so identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import logging
import os
import sys
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_run_config
from .dataset import (DatasetError, compute_norm_stats, episode_dirs, load_dataset,
                      load_episode, load_stats, record, save_episode, save_stats)
from .evaluate import Scenario, evaluate_suite, reports_to_csv
from .expert import run_expert
from .imaging import write_pgm16, write_ppm
from .models import ModelError, PolicyBundle, load_model, save_model
from .nn import TrainingDiverged
from .scene import load_scene, make_scene
from .sim import World
from .training import gradcheck_all, train_autoencoder, train_predictor, write_loss_csv

log = logging.getLogger(__name__)

MODEL_FILES = {
    "rgb": "autoencoder_rgb.sklm",
    "disparity": "autoencoder_disparity.sklm",
    "predictor": "predictor.sklm",
}
STATS_FILE = "norm_stats.json"


class CliError(RuntimeError):
    pass


def _sha256(path: FsPath) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_tree(root) -> dict:
    root = FsPath(root)
    if root.is_file():
        return {root.name: _sha256(root)}
    return {str(p.relative_to(root)): _sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_run_manifest(path, command: str, args: dict, runcfg: RunConfig,
                       inputs: dict, **facts) -> None:
    """The run's manifest; `facts` are further keys recording what the run did."""
    manifest = {
        "tool": "skillsim",
        "tool_version": __version__,
        "command": command,
        "args": args,
        "config": runcfg.describe(),
        "inputs": inputs,
        **facts,
    }
    FsPath(path).write_text(json.dumps(manifest, sort_keys=True, indent=1))


# ----------------------------------------------------------------------
# collect


def _collect_one(variant: str, seed: int, out_dir: str, index: int, runcfg: RunConfig):
    scene_cfg = make_scene(seed, variant, **runcfg.scene_kwargs(variant))
    world = World(scene_cfg)
    transcript = run_expert(world, variant, runcfg.expert_params())
    episode = record(transcript)
    save_episode(episode, FsPath(out_dir) / f"ep_{index:05d}")
    return index, seed, transcript.outcome, transcript.failure, len(episode)


def cmd_collect(args, runcfg: RunConfig) -> int:
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(args.variant, args.seed + i, str(out), i, runcfg)
            for i in range(args.episodes)]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_collect_one, *zip(*jobs)))
    else:
        results = [_collect_one(*job) for job in jobs]
    results.sort()
    successes = 0
    for index, seed, outcome, failure, steps in results:
        successes += outcome == "DONE"
        suffix = "" if failure is None else f" ({failure})"
        print(f"ep_{index:05d} seed={seed} outcome={outcome} steps={steps}{suffix}")
    write_run_manifest(
        out / "run_manifest.json", "collect",
        {"variant": args.variant, "episodes": args.episodes, "seed": args.seed,
         "jobs": args.jobs},
        runcfg, inputs={},
    )
    print(f"collected {successes}/{args.episodes} successful episodes in {out}")
    return 0 if successes >= 1 else 1


# ----------------------------------------------------------------------
# training


def _load_training_episodes(dataset_dir):
    episodes = load_dataset(dataset_dir)
    if not episodes:
        raise CliError(f"no successful episodes in {dataset_dir}")
    return episodes


def cmd_train_autoencoder(args, runcfg: RunConfig) -> int:
    episodes = _load_training_episodes(args.dataset)
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats = compute_norm_stats(episodes)
    save_stats(out / STATS_FILE, stats)
    cfg = runcfg.train_config(seed=args.seed)
    ae, losses = train_autoencoder(episodes, args.modality, stats, cfg)
    save_model(out / MODEL_FILES[args.modality], ae)
    write_loss_csv(out / f"loss_autoencoder_{args.modality}.csv", losses)
    write_run_manifest(
        out / f"train_autoencoder_{args.modality}_manifest.json", "train-autoencoder",
        {"dataset": str(args.dataset), "modality": args.modality, "seed": args.seed},
        runcfg, inputs=_hash_tree(args.dataset),
    )
    print(f"{args.modality} autoencoder: initial loss {losses[0]:.6f}, "
          f"final loss {losses[-1]:.6f} ({len(losses)} epochs)")
    return 0


def cmd_train(args, runcfg: RunConfig) -> int:
    episodes = _load_training_episodes(args.dataset)
    model_dir = FsPath(args.models)
    stats = load_stats(model_dir / STATS_FILE)
    enc_rgb = load_model(model_dir / MODEL_FILES["rgb"])
    enc_disp = load_model(model_dir / MODEL_FILES["disparity"])
    cfg = runcfg.train_config(seed=args.seed)
    predictor, losses = train_predictor(episodes, enc_rgb, enc_disp, stats, cfg)
    save_model(model_dir / MODEL_FILES["predictor"], predictor)
    write_loss_csv(model_dir / "loss_predictor.csv", losses)
    inputs = _hash_tree(args.dataset)
    inputs.update({MODEL_FILES[m]: _sha256(model_dir / MODEL_FILES[m])
                   for m in ("rgb", "disparity")})
    write_run_manifest(
        model_dir / "train_manifest.json", "train",
        {"dataset": str(args.dataset), "seed": args.seed},
        runcfg, inputs=inputs,
    )
    print(f"predictor: initial loss {losses[0]:.6f}, final loss {losses[-1]:.6f} "
          f"({len(losses)} epochs)")
    return 0


def load_bundle(model_dir) -> PolicyBundle:
    model_dir = FsPath(model_dir)
    stats = load_stats(model_dir / STATS_FILE)
    enc_rgb = load_model(model_dir / MODEL_FILES["rgb"])
    enc_disp = load_model(model_dir / MODEL_FILES["disparity"])
    predictor = load_model(model_dir / MODEL_FILES["predictor"])
    return PolicyBundle(enc_rgb, enc_disp, predictor, stats)


# ----------------------------------------------------------------------
# eval


def _scenarios_from_args(args) -> list:
    scenarios = []
    if args.dataset:
        for d in episode_dirs(args.dataset):
            ep = load_episode(d)
            scenarios.append(Scenario(label=d.name, config=ep.scene, variant=ep.variant))
    for path in args.scene or ():
        cfg = load_scene(path)
        scenarios.append(Scenario(label=FsPath(path).stem, config=cfg,
                                  variant=args.variant))
    if not scenarios:
        raise CliError("no scenarios: pass --dataset and/or --scene")
    return scenarios


def cmd_eval(args, runcfg: RunConfig) -> int:
    bundle = load_bundle(args.models)
    scenarios = _scenarios_from_args(args)
    frame_sink_for = None
    if args.dump_frames:
        dump_root = FsPath(args.dump_frames)

        def frame_sink_for(label):
            d = dump_root / label
            d.mkdir(parents=True, exist_ok=True)
            return lambda t, frame: write_ppm(d / f"tick_{t:04d}.ppm", frame.rgb)

    reports, aggregates = evaluate_suite(bundle, scenarios, runcfg["eval.max_steps"],
                                         frame_sink_for)
    out = FsPath(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(reports_to_csv(reports))
    inputs = {name: _sha256(FsPath(args.models) / name) for name in MODEL_FILES.values()}
    write_run_manifest(
        out.with_suffix(".manifest.json"), "eval",
        {"models": str(args.models), "dataset": str(args.dataset or ""),
         "scenes": [str(s) for s in (args.scene or [])]},
        runcfg, inputs=inputs,
        stop_reasons=[{"scenario": r.scenario, "seed": r.seed, "stop_reason": r.stop_reason}
                      for r in reports],
    )
    for report in reports:
        print(report.csv_row())
    print(f"touch_rate={aggregates['touch_rate']:.3f} "
          f"grasp_rate={aggregates['grasp_rate']:.3f} "
          f"mean_final_tip_distance_m={aggregates['mean_final_tip_distance_m']:.4f}")
    return 0


# ----------------------------------------------------------------------
# inspect / render / gradcheck


def cmd_inspect(args, runcfg: RunConfig) -> int:
    dirs = episode_dirs(args.dataset)
    if not dirs:
        raise CliError(f"no episodes under {args.dataset}")
    episodes = [load_episode(d) for d in dirs]
    rows = []
    for d, ep in zip(dirs, episodes):
        rows.append((d.name, ep.variant, ep.outcome, len(ep), ep.seed))
    if args.format == "csv":
        print("episode,variant,outcome,steps,seed")
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        print(f"dataset {args.dataset}: {len(rows)} episodes")
        for name, variant, outcome, steps, seed in rows:
            print(f"  {name}  variant={variant} outcome={outcome} "
                  f"steps={steps} seed={seed}")
    successful = [e for e in episodes if e.outcome == "DONE"]
    if successful:
        stats = compute_norm_stats(successful)
        bounds = stats.to_dict()  # the joints under state_*, (v, omega) under cmd_*
        for key in ("state_min", "state_max", "cmd_min", "cmd_max"):
            if bounds[key] is not None:
                print(f"{key:9s} " + " ".join(f"{v:.4f}" for v in bounds[key]))
        print(f"image_mean {np.array2string(stats.image_mean, precision=4)} "
              f"image_std {np.array2string(stats.image_std, precision=4)}")
        print(f"disp_mean {stats.disp_mean:.4f} disp_std {stats.disp_std:.4f}")
    return 0


def cmd_render(args, runcfg: RunConfig) -> int:
    cfg = load_scene(args.scene)
    world = World(cfg)
    frame = world.render()
    prefix = FsPath(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_ppm(prefix.with_suffix(".ppm"), frame.rgb)
    write_pgm16(prefix.with_suffix(".pgm"), frame.disparity)
    hit = frame.depth[frame.depth > 0]
    print(f"wrote {prefix.with_suffix('.ppm')} and {prefix.with_suffix('.pgm')}")
    if hit.size:
        print(f"depth range [{hit.min():.3f}, {hit.max():.3f}] m over "
              f"{hit.size}/{frame.depth.size} pixels")
    else:
        print(f"no depth: 0/{frame.depth.size} pixels hit")
    return 0


def cmd_gradcheck(args, runcfg: RunConfig) -> int:
    results = gradcheck_all(seed=args.seed)
    ok = True
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"{res.name:14s} max_rel_err={res.max_rel_err:.3e} "
              f"(threshold {res.threshold:.0e}) {status}")
        ok &= res.passed
    return 0 if ok else 1


# ----------------------------------------------------------------------
# parser


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillsim",
        description="Scripted-expert grasp data collection, imitation training, "
                    "and closed-loop evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")

    p = sub.add_parser("collect", help="run the expert and record episodes")
    p.add_argument("--variant", choices=("short", "long"), required=True)
    p.add_argument("--episodes", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train-autoencoder", help="train one image autoencoder")
    p.add_argument("--dataset", required=True)
    p.add_argument("--modality", choices=("rgb", "disparity"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_train_autoencoder)

    p = sub.add_parser("train", help="train the recurrent state predictor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--models", required=True,
                   help="directory with the trained autoencoders; receives the predictor")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="closed-loop rollouts and a CSV report")
    p.add_argument("--models", required=True)
    p.add_argument("--dataset", help="evaluate on the scenes of these episodes")
    p.add_argument("--scene", action="append", help="extra scene file (repeatable)")
    p.add_argument("--variant", choices=("short", "long"), default="short",
                   help="variant for --scene scenarios")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--dump-frames", help="directory for per-rollout PPM frame dumps")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="summarize a dataset directory")
    p.add_argument("dataset")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    add_common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("render", help="render a scene to PPM/PGM files")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    add_common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SKL_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        runcfg = load_run_config(getattr(args, "config", None),
                                 getattr(args, "overrides", ()))
        return args.func(args, runcfg)
    except (CliError, ConfigError, DatasetError, ModelError, TrainingDiverged,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
