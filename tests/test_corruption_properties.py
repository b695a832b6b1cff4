"""Property: every truncation and every single-byte flip of a stored file
either loads or raises that format's own error, naming the path."""

import json
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillsim.config import ConfigError, load_run_config  # noqa: E402
from skillsim.dataset import (DatasetError, Episode, compute_norm_stats,  # noqa: E402
                              load_episode, load_stats, save_episode, save_stats)
from skillsim.imaging import read_pgm16, read_ppm, write_pgm16, write_ppm  # noqa: E402
from skillsim.models import Autoencoder, ModelError, Predictor, load_model, save_model  # noqa: E402
from skillsim.scene import load_scene, make_long_scene, save_scene  # noqa: E402

MASKS = (0x01, 0x80, 0xFF)  # low bit, high bit, every bit

CONFIG_TEXT = """# a run
perception.leaf = 0.02
learner.epochs = 50
learner.lr = 0.001
sim.depth_noise_sigma = 0.001
expert.yaw_jitter_rad = 0.3
"""


def tiny_episode():
    rng = np.random.default_rng(0)
    steps, h, w = 2, 2, 3
    return Episode(
        states=np.concatenate([rng.uniform(0, 1, (steps, 5)), rng.uniform(-1, 1, (steps, 2))],
                              axis=1).astype(np.float32),
        rgb=rng.integers(0, 256, (steps, h, w, 3), dtype=np.uint8),
        disparity=rng.uniform(0, 8, (steps, h, w)).astype(np.float32),
        variant="long", scene=make_long_scene(0), outcome="DONE")


def write_episode(path):
    save_episode(tiny_episode(), path.parent)


# format -> (file name, writer of that file, loader, error); an episode's
# manifest and steps.bin are written and loaded as the whole directory
FORMATS = {
    "steps.bin": ("steps.bin", write_episode, lambda p: load_episode(p.parent), DatasetError),
    "manifest.json": ("manifest.json", write_episode, lambda p: load_episode(p.parent),
                      DatasetError),
    "sklm": ("ae.sklm", lambda p: save_model(p, Autoencoder(1, 8, 2)), load_model, ModelError),
    "ppm": ("frame.ppm", lambda p: write_ppm(p, np.arange(18, dtype=np.uint8).reshape(2, 3, 3)),
            read_ppm, ValueError),
    "pgm": ("frame.pgm", lambda p: write_pgm16(p, np.linspace(0, 9, 6).reshape(2, 3)),
            read_pgm16, ValueError),
    "scene": ("scene.txt", lambda p: save_scene(p, make_long_scene(0)), load_scene, ValueError),
    "norm_stats.json": ("norm_stats.json",
                        lambda p: save_stats(p, compute_norm_stats([tiny_episode()])),
                        load_stats, DatasetError),
    "config": ("run.cfg", lambda p: p.write_text(CONFIG_TEXT), load_run_config, ConfigError),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """format -> (path, its bytes as written)."""
    files = {}
    for fmt, (name, write, _, _) in FORMATS.items():
        path = tmp_path_factory.mktemp(fmt.replace(".", "_")) / name
        write(path)
        files[fmt] = path, path.read_bytes()
    return files


def flip(blob: bytes, offset: int, mask: int) -> bytes:
    return blob[:offset] + bytes([blob[offset] ^ mask]) + blob[offset + 1:]


def loads_or_raises_its_error(path, blob, load, error, named):
    path.write_bytes(blob)
    try:
        load(path)
    except error as exc:
        assert str(named) in str(exc), exc


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_corrupt_file_loads_or_raises_its_formats_error(pristine, fmt, data):
    path, blob = pristine[fmt]
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    mask = data.draw(st.sampled_from((None,) + MASKS), label="mask (None truncates)")
    bad = blob[:offset] if mask is None else flip(blob, offset, mask)
    named = path.parent if fmt in ("steps.bin", "manifest.json") else path
    _, _, load, error = FORMATS[fmt]
    try:
        loads_or_raises_its_error(path, bad, load, error, named)
    finally:
        path.write_bytes(blob)


def test_every_corruption_of_a_small_model_loads_or_raises_model_error(tmp_path):
    path = tmp_path / "small.sklm"
    save_model(path, Predictor(latent=1, d_state=2, hidden=2))
    blob = path.read_bytes()
    for offset in range(len(blob)):
        for bad in [blob[:offset]] + [flip(blob, offset, mask) for mask in MASKS]:
            loads_or_raises_its_error(path, bad, load_model, ModelError, path)


# manifest keys that repeat a fact: an edit that contradicts it, and the key the error names
REPEATED_FACTS = {
    "dims.state is the variant's whole width": (lambda m: m["dims"].update(state=7), "dims.state"),
    "dims.state is 9": (lambda m: m["dims"].update(state=9), "dims.state"),
    "dt is 123": (lambda m: m.update(dt=123.0), "dt"),
    "dt is one ulp above the scene's": (lambda m: m.update(dt=float(np.nextafter(m["dt"], 1.0))),
                                        "dt"),
    "dt is an integer": (lambda m: m.update(dt=1, scene={**m["scene"], "dt": 1.0}), "dt"),
    "seed is not the scene's": (lambda m: m.update(seed=m["seed"] + 1), "seed"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_FACTS))
def test_manifest_key_contradicting_its_fact_raises_dataset_error(tmp_path, case):
    edit, key = REPEATED_FACTS[case]
    mpath = tmp_path / "manifest.json"
    write_episode(mpath)
    load_episode(tmp_path)
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=f"^{re.escape(str(mpath))}: .*{re.escape(key)}"):
        load_episode(tmp_path)
