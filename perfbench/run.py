"""skillsim benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload short-pipeline --seed 0 --seconds 12 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`. With `--trace 0` the result carries the end-to-end
metrics listed in BENCHMARK.json, measured with tracing off; with
`--trace 1` it carries the per-layer metrics, from a run that first repeats
the body untraced, then traced, and reports the tracing overhead. A human
report (environment, every measured figure, per-stage self time) precedes
the result line. `--smoke` shrinks every input to the smallest size the
program accepts, for the benchmark's own tests. `--record-reference`
stores this run's artifact digest as the reference for its workload and
seed on this machine's fingerprint.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import Tracer
from workloads import FULL, SMOKE, WORKLOADS, Session, digest, hash_tree, median_figures

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORK = Path(".perfbench_work")

# figures of single stages, reported per layer under the cli stage's name
STAGE_FIGURES = {
    "ae_rgb_frames_per_s": "cli.train_autoencoder.rgb.frames_per_s",
    "ae_rgb_final_loss": "cli.train_autoencoder.rgb.final_loss",
    "ae_disparity_frames_per_s": "cli.train_autoencoder.disparity.frames_per_s",
    "ae_disparity_final_loss": "cli.train_autoencoder.disparity.final_loss",
    "predictor_updates_per_s": "cli.train.updates_per_s",
    "predictor_final_loss": "cli.train.final_loss",
    "eval_ticks_per_s": "cli.eval.ticks_per_s",
    "eval_tick_ms_p50": "cli.eval.tick_ms_p50",
    "eval_tick_ms_p90": "cli.eval.tick_ms_p90",
    "eval_touch_rate": "cli.eval.touch_rate",
}
# every figure the report shows, with unit and direction
FIGURES = {
    "setup_s": ("s", "lower"), "wall_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
    "collect_episodes_per_s": ("1/s", "higher"), "expert_done_share": ("share", "higher"),
    "ae_rgb_frames_per_s": ("1/s", "higher"), "ae_disparity_frames_per_s": ("1/s", "higher"),
    "predictor_updates_per_s": ("1/s", "higher"), "eval_ticks_per_s": ("1/s", "higher"),
    "eval_tick_ms_p50": ("ms", "lower"), "eval_tick_ms_p90": ("ms", "lower"),
    "eval_touch_rate": ("share", "higher"), "ae_rgb_final_loss": ("mse", "lower"),
    "ae_disparity_final_loss": ("mse", "lower"), "predictor_final_loss": ("mse", "lower"),
}


def import_program():
    """Import skillsim from this checkout's src/ and return the package."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import skillsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import skillsim from {src}: {exc}")
    if not Path(skillsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: skillsim imported from {skillsim.__file__}, not {src}")
    import skillsim.cli  # noqa: F401  (everything the pipeline imports)
    return skillsim


def import_seconds(runs: int = 5) -> float:
    """Median wall time of a fresh interpreter importing the pipeline, the
    start-up every `skillsim` command pays."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import skillsim.cli"
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=120)
        times.append(perf_counter() - t0)
    return median(times)


# ----------------------------------------------------------------------
# environment


def _cpu_info() -> tuple:
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return model, sorted(flags & {"avx", "avx2", "fma", "avx512f"})


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model, simd = _cpu_info()
    sources = sorted((ROOT / "src" / "skillsim").glob("*.py"))
    source_sha = hashlib.sha256(b"".join(
        p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest() for p in sources))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "affinity": sorted(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "cpu": model,
        "simd": simd,
        "commit": _git_commit(),
        "source_sha256": source_sha.hexdigest(),
    }


def fingerprint(env: dict) -> dict:
    """What artifact bytes may depend on: numerics library and CPU kernels."""
    return {k: env[k] for k in ("numpy", "blas", "cpu", "simd")}


# ----------------------------------------------------------------------
# measuring


def check_layers(workload, totals: dict) -> list:
    """Design checks of a traced run: busy spans recorded calls, idle none."""
    errors = []
    for pattern in workload.busy:
        if not any(v > 0 for k, v in totals.items() if fnmatch.fnmatchcase(k, pattern)):
            errors.append(f"{pattern} recorded no calls on {workload.name}")
    for pattern in workload.idle:
        hot = [k for k, v in totals.items() if fnmatch.fnmatchcase(k, pattern) and v > 0]
        if hot:
            errors.append(f"{', '.join(hot)} should be idle on {workload.name}")
    return errors


def measure(args, workload, sizes, skillsim):
    sess = Session(WORK / workload.name)
    setup_s, setup_figs, setup_digests = [], [], set()
    for _ in range(1 if args.trace else sizes.setups):
        t0 = perf_counter()
        inputs = workload.setup(sess, args.seed, sizes)
        setup_s.append(perf_counter() - t0)
        if "figures" in inputs:
            setup_figs.append(inputs["figures"])
            setup_digests.add(digest(hash_tree(inputs["dir"])))
        if sess.failed:
            return sess, {}, {}
    if len(setup_digests) > 1:
        sess.fail("set-up artifacts differ between set-ups")

    # in a traced run, untraced and traced repetitions alternate, so the
    # host's drift in speed affects both sides of the overhead alike
    tracer = Tracer() if args.trace else None
    figs, traced_figs, digests, layers = [], [], set(), []
    start = perf_counter()
    while not sess.failed and (not figs or perf_counter() - start < args.seconds):
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.reset()
                tracer.install(skillsim)
                sess.tracer = tracer
            try:
                fig, rep = workload.body(sess, inputs)
            finally:
                if traced:
                    tracer.uninstall()
                    sess.tracer = None
            (traced_figs if traced else figs).append(fig)
            digests.add(digest(hash_tree(rep)))
            if traced:
                layers.append((dict(tracer.totals), dict(tracer.stage_self)))
    run = {"repetitions": len(figs), "setup_s": setup_s,
           "rep_wall_s": [f["wall_s"] for f in figs if "wall_s" in f]}
    if traced_figs and not sess.failed:
        run["traced_repetitions"] = len(traced_figs)
        run["overhead_share"] = (median(f["wall_s"] for f in traced_figs)
                                 / median(f["wall_s"] for f in figs) - 1.0)
    run["identical"] = len(digests) <= 1
    if not run["identical"]:
        sess.fail("artifacts differ between repetitions"
                  + (" (traced vs untraced)" if args.trace else ""))
    run["digest"] = min(digests) if digests else ""

    figures = median_figures(setup_figs)
    figures.update(median_figures(figs))
    figures["setup_s"] = args.import_s + median(setup_s)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if layers:
        keys = {k for totals, _ in layers for k in totals}
        run["totals"] = {k: median(t.get(k, 0.0) for t, _ in layers) for k in keys}
        run["stage_self"] = layers[-1][1]
        for error in check_layers(workload, run["totals"]):
            sess.fail(error)
    return sess, figures, run


def check_reference(sess, args, env, run):
    if args.smoke or not run.get("digest"):
        return "not checked"
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.record_reference and not sess.failed:
        if ref.get("fingerprint", fingerprint(env)) != fingerprint(env):
            ref = {}
        ref["fingerprint"] = fingerprint(env)
        ref.setdefault("digests", {}).setdefault(args.workload, {})[str(args.seed)] = run["digest"]
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        return "recorded"
    expected = ref.get("digests", {}).get(args.workload, {}).get(str(args.seed))
    if expected is None:
        return "none recorded for this seed"
    if ref["fingerprint"] != fingerprint(env):
        return "recorded on another machine fingerprint; not compared"
    if expected != run["digest"]:
        sess.fail(f"artifact digest {run['digest']} differs from the reference {expected}")
        return "MISMATCH"
    return "match"


# ----------------------------------------------------------------------
# reporting


def report(args, env, sess, figures, run, reference, bench):
    say = print
    say(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} size={'smoke' if args.smoke else 'full'}")
    for key, value in env.items():
        say(f"  env {key}: {value}")
    if "overhead_share" in run:
        say(f"  env trace.overhead_share: {run['overhead_share']:.4f} "
            f"(traced wall_s / untraced wall_s - 1)")
    else:
        say("  env trace.overhead_share: measured by --trace 1 runs")
    if run:
        setups = ", ".join(f"{s:.3f}" for s in run["setup_s"])
        say(f"set-up: import {args.import_s:.3f} s (median of 5 fresh interpreters) "
            f"+ median of [{setups}] s")
        say(f"repetitions: {run['repetitions']} untraced"
            + (f", {run['traced_repetitions']} traced" if "traced_repetitions" in run else "")
            + "; figures are medians over them")
        say("repetition wall_s: " + ", ".join(f"{w:.3f}" for w in run["rep_wall_s"]))
        say(f"artifacts sha256 {run['digest']} (identical across repetitions: "
            f"{'yes' if run['identical'] else 'NO'}; reference: {reference})")
    gated = {m["name"] for m in bench["end_to_end"]}
    say(f"{'figure':28s} {'value':>14s} {'unit':6s} better  gated")
    for name, (unit, better) in FIGURES.items():
        value = figures.get(name)
        text = f"{value:14.6g}" if value is not None else f"{'n/a':>14s}"
        say(f"{name:28s} {text} {unit:6s} {better:7s} {'yes' if name in gated else 'no'}")
    if "_tick_samples" in figures:
        say(f"eval tick latency over {figures['_tick_samples']} tick samples")
    if run.get("totals"):
        say("per-layer totals per traced repetition (computed counts repeat exactly):")
        for key in sorted(run["totals"]):
            say(f"  {key:58s} {run['totals'][key]:.6g}")
        stage_wall = {k[4:-7]: v for k, v in run["totals"].items()
                      if k.startswith("cli.") and k.endswith(".wall_s")}
        for stage, wall in sorted(stage_wall.items()):
            families = defaultdict(float)   # nn layers of every shape summed per kind
            for (span_stage, name), self_s in run["stage_self"].items():
                if span_stage == stage:
                    families[".".join(name.split(".")[:2]) if name.startswith("nn.")
                             else name] += self_s
            top = sorted(families.items(), key=lambda kv: -kv[1])[:5]
            say(f"  stage {stage} ({wall:.3f} s), top self time: "
                + ", ".join(f"{name} {100 * v / wall:.0f}%" for name, v in top))
    for error in sess.errors:
        say(f"FAILED CHECK: {error}")


def result_metrics(args, bench, figures, run) -> dict:
    if not args.trace:
        return {m["name"]: {"value": float(figures.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in bench["end_to_end"]}
    values = dict(run.get("totals", {}))
    values.update({layer: figures[name] for name, layer in STAGE_FIGURES.items()
                   if name in figures})
    values["trace.overhead_share"] = run.get("overhead_share", 0.0)
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    skillsim = import_program()
    args.import_s = import_seconds()
    env = environment()
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)   # workspace paths are relative, so manifests match across checkouts
    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    try:
        sess, figures, run = measure(args, workload, SMOKE if args.smoke else FULL, skillsim)
    finally:
        shutil.rmtree(WORK / workload.name, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    if not sess.failed:
        missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in figures]
        for name in missing:
            sess.fail(f"end-to-end metric {name} was not measured")
    reference = check_reference(sess, args, env, run)
    report(args, env, sess, figures, run, reference, bench)
    print(json.dumps({"correct": sess.failed == 0, "attempted": max(sess.attempted, 1),
                      "failed": sess.failed,
                      "metrics": result_metrics(args, bench, figures, run)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
