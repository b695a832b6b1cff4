"""Per-layer tracing of skillsim from outside the program.

`Tracer.install()` replaces the public functions of every skillsim module
with timing wrappers, in every module namespace that holds them (so a name
imported with `from .x import f` is timed where it is looked up), and
discovers every `skillsim.nn` class with forward/backward/step methods so a
layer added later is timed without editing this file. `uninstall()` puts
the originals back.

Each wrapper opens a span. A span's self time is its duration minus the
time covered by spans opened inside it. Counts marked "computed" (flop,
points in/out, pair distances, bytes) are derived from argument and result
shapes; they repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _size_of_tree(root) -> int:
    root = Path(root)
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# computed counts, keyed by the span name they attach to


def _cloud_counts(args, kwargs, result):
    return {"points_in": len(args[0]), "points_out": len(result)}


def _sor_counts(args, kwargs, result):
    n = len(args[0])
    return {"points_in": n, "points_out": len(result), "pair_distances": n * (n - 1)}


COUNTS = {
    "perception.voxel_grid_filter": _cloud_counts,
    "perception.statistical_outlier_removal": _sor_counts,
    "perception.color_segment": _cloud_counts,
    "nav.astar": lambda a, k, r: {"path_cells": len(r)},
    "expert.run_expert": lambda a, k, r: {"ticks": len(r.ticks)},
    "dataset.save_episode": lambda a, k, r: {"bytes": _size_of_tree(a[1])},
    "dataset.load_dataset": lambda a, k, r: {"bytes": _size_of_tree(a[0])},
    "evaluate.rollout": lambda a, k, r: {"steps": r.steps_executed},
}

# (module, attribute) of every traced public function or method, named
# <module>.<function>; ik failures surface as the span's `failures` count.
FUNCTIONS = [
    ("sim", "World.render"),
    ("sim", "World.step"),
    ("perception", "voxel_grid_filter"),
    ("perception", "statistical_outlier_removal"),
    ("perception", "color_segment"),
    ("perception", "locate_object"),
    ("nav", "astar"),
    ("nav", "follow_path"),
    ("nav", "OccupancyGrid.from_world"),
    ("kinematics", "ik"),
    ("expert", "plan_arm"),
    ("expert", "run_expert"),
    ("scene", "make_scene"),
    ("dataset", "record"),
    ("dataset", "save_episode"),
    ("dataset", "load_dataset"),
    ("dataset", "compute_norm_stats"),
    ("imaging", "block_mean"),
    ("nn", "loss_mse"),
    ("nn", "clip_grad_norm"),
    ("training", "collect_frames"),
    ("training", "train_autoencoder"),
    ("training", "predictor_window_pass"),
    ("training", "train_predictor"),
    ("models", "PolicyBundle.encode_frame"),
    ("models", "predict_next"),
    ("models", "save_model"),
    ("models", "load_model"),
    ("evaluate", "rollout"),
    ("evaluate", "evaluate_suite"),
]

# short names for the simulator spans, as the report shows them
RENAME = {"sim.World.render": "sim.render", "sim.World.step": "sim.step"}

# ----------------------------------------------------------------------
# nn layers: shape keys and computed flop (multiply-add = 2 flop)

NN_METHODS = {"forward": "forward_s", "backward": "backward_s",
              "step": "step_s", "backward_step": "backward_step_s"}
# layers whose time is merged into one row
NN_MERGED = {"ReLU", "Flatten", "Reshape"}


def _conv_mkn(layer, x_shape):
    n, h, w, c = x_shape
    ho, wo = layer._out_hw(h, w)
    return n * ho * wo, layer.k * layer.k * c, layer.c_out


def _nn_shape(layer) -> str:
    kind = type(layer).__name__
    if kind == "Conv2d":
        return f"{layer.c_in}-{layer.c_out}-s{layer.stride}"
    if kind == "Dense":
        n_in, n_out = layer.W.value.shape
        return f"{n_in}-{n_out}"
    if kind == "LSTMCell":
        return f"{layer.n_in}-{layer.n_hidden}"
    return ""


def _nn_flop(layer, method, args) -> int:
    """Matmul flop of one call; backward does two products of forward's size."""
    kind = type(layer).__name__
    if kind == "Conv2d":
        shape = args[0].shape if method == "forward" else layer._x_shape
        m, k, n = _conv_mkn(layer, shape)
    elif kind == "Dense":
        m = args[0].shape[0]
        k, n = layer.W.value.shape
    elif kind == "LSTMCell":
        x = args[0] if method == "step" else args[2][0]
        m, k, n = x.shape[0], layer.n_in + layer.n_hidden, 4 * layer.n_hidden
    else:
        return 0
    scale = 2 if method in ("forward", "step") else 4
    return scale * m * k * n


def _nn_name(layer) -> str:
    kind = type(layer).__name__
    if kind in NN_MERGED:
        return "nn.shape_ops"
    shape = _nn_shape(layer)
    return f"nn.{kind}.{shape}" if shape else f"nn.{kind}"


class Tracer:
    """Span stack, per-name totals and the monkey patches that feed them."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.stage_self = defaultdict(float)   # (stage, span) -> self seconds
        self.stage = "-"
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------

    def reset(self):
        self.totals.clear()
        self.stage_self.clear()

    def _wrap(self, fn, name_of, time_key, counts=None, count_calls=True):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                duration = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                name = name_of(args)
                self_s = duration - frame[0]
                self.totals[f"{name}.{time_key}"] += self_s
                self.stage_self[(self.stage, name)] += self_s
                if count_calls:
                    self.totals[f"{name}.calls"] += 1
                if failed:
                    self.totals[f"{name}.failures"] += 1
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.totals[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the traced functions of `package` (the imported skillsim)."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, attr in FUNCTIONS:
            owner = by_name[mod_name]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            name = RENAME.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
            counts = COUNTS.get(name)
            original = owner.__dict__[fn_name]
            if isinstance(original, classmethod):
                self._set(owner, fn_name, classmethod(self._wrap(
                    original.__func__, lambda a, n=name: n, "self_s", counts)))
                continue
            wrapped = self._wrap(original, lambda a, n=name: n, "self_s", counts)
            if cls_path:
                self._set(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        self._install_nn(by_name["nn"])

    def _install_nn(self, nn):
        for _, cls in inspect.getmembers(nn, inspect.isclass):
            if cls.__module__ != nn.__name__:
                continue
            for method, time_key in NN_METHODS.items():
                if method not in cls.__dict__:
                    continue
                counts = None
                if cls.__name__ in ("Conv2d", "Dense", "LSTMCell"):
                    counts = (lambda a, k, r, m=method:
                              {"flop": _nn_flop(a[0], m, a[1:])})
                self._set(cls, method, self._wrap(
                    cls.__dict__[method], lambda a: _nn_name(a[0]), time_key, counts,
                    count_calls=method in ("forward", "step")))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- benchmark-side stage spans --------------------------------------

    def stage_done(self, stage, seconds):
        """Record one pipeline stage; its wall time is the whole duration."""
        self.totals[f"cli.{stage}.calls"] += 1
        self.totals[f"cli.{stage}.wall_s"] += seconds
