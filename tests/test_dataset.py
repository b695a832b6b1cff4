"""Episode recording, bit-exact persistence, and normalization statistics."""

import copy
import dataclasses
import json
import struct

import numpy as np
import pytest

from skillsim import World, run_expert, sim
from skillsim.dataset import (
    DatasetError,
    Episode,
    NormStats,
    compute_norm_stats,
    denormalize_state,
    load_dataset,
    load_episode,
    normalize_state,
    record,
    save_episode,
    state_dim,
)
from skillsim.scene import (config_from_dict, config_to_dict, make_long_scene, make_scene,
                            make_short_scene)


def episodes_equal(a, b):
    if (a.variant, a.outcome, a.seed, len(a)) != (b.variant, b.outcome, b.seed, len(b)):
        return False
    return all(getattr(a, c).dtype == getattr(b, c).dtype
               and np.array_equal(getattr(a, c), getattr(b, c))
               for c in ("states", "rgb", "disparity"))


def synthetic_episode(rng, steps=12, variant="short", h=8, w=8, outcome="DONE", seed=0):
    return Episode(
        states=np.concatenate([rng.uniform(0, 1, (steps, 5)),
                               rng.uniform(-1, 1, (steps, state_dim(variant) - 5))],
                              axis=1).astype(np.float32),
        rgb=rng.integers(0, 256, (steps, h, w, 3), dtype=np.uint8),
        disparity=(rng.uniform(0, 8, (steps, h, w))
                   * (rng.uniform(size=(steps, h, w)) > 0.1)).astype(np.float32),
        variant=variant, scene=make_short_scene(seed), outcome=outcome)


@pytest.fixture(scope="module")
def short_transcript():
    cfg = make_short_scene(0)
    return run_expert(World(cfg), "short")


@pytest.fixture(scope="module")
def short_episode(short_transcript):
    return record(short_transcript)


def test_record_never_builds_a_point_cloud(monkeypatch, short_transcript, short_episode):
    def no_cloud(*args, **kwargs):
        raise AssertionError("record() built a point cloud")

    monkeypatch.setattr(sim, "PointCloud", no_cloud)
    assert episodes_equal(record(short_transcript), short_episode)


def test_record_short_episode(short_episode):
    ep = short_episode
    assert ep.outcome == "DONE"
    assert ep.variant == "short"
    assert ep.states.shape == (len(ep), 5) and ep.states.dtype == np.float32
    assert ep.rgb.shape == (len(ep), 64, 64, 3) and ep.rgb.dtype == np.uint8
    assert ep.disparity.shape == (len(ep), 64, 64) and ep.disparity.dtype == np.float32


def test_record_long_episode_carries_commands():
    cfg = make_long_scene(0)
    transcript = run_expert(World(cfg), "long")
    ep = record(transcript)
    assert ep.variant == "long"
    assert ep.states.shape == (len(ep), 7) and ep.states.dtype == np.float32
    commands = np.array([(rec.v, rec.omega) for rec in transcript.ticks], dtype=np.float32)
    assert np.array_equal(ep.states[:, 5:], commands)
    assert np.any(commands != 0)


def test_record_long_run_failed_before_any_tick():
    cfg = make_long_scene(0)
    cfg.robot_start = cfg.robot_start + np.array([0.0, 0.0, np.pi])  # target out of view
    ep = record(run_expert(World(cfg), "long"))
    assert ep.outcome == "FAILED"
    assert ep.states.shape == (0, 7) and ep.rgb.shape == (0, 64, 64, 3)


def test_record_failed_run_kept():
    rng = np.random.default_rng(1)
    ep = synthetic_episode(rng, outcome="FAILED")
    assert ep.outcome == "FAILED"


def test_record_replay_deterministic(short_episode):
    cfg = make_short_scene(0)
    transcript = run_expert(World(cfg), "short")
    again = record(transcript)
    assert episodes_equal(short_episode, again)


def test_record_rejects_transcript_replay_diverges_from():
    cfg = make_short_scene(0)
    transcript = run_expert(World(cfg), "short")
    wrong_command = copy.deepcopy(transcript)
    wrong_command.ticks[10].v = 0.2          # a command the expert did not give
    wrong_state = copy.deepcopy(transcript)
    wrong_state.ticks[7].joints[1] += 0.5    # a state the world did not reach
    for tampered, tick in ((wrong_command, 11), (wrong_state, 7)):
        with pytest.raises(DatasetError, match=rf"replay diverged from the transcript at tick {tick}$"):
            record(tampered)


@pytest.mark.parametrize("variant", ["short", "long"])
def test_episode_seed_is_the_scene_rng_seed(tmp_path, variant):
    ep = record(run_expert(World(make_scene(3, variant)), variant))
    assert ep.seed == ep.scene.rng_seed == 3
    save_episode(ep, tmp_path / "ep")
    assert json.loads((tmp_path / "ep" / "manifest.json").read_text())["seed"] == 3
    back = load_episode(tmp_path / "ep")
    assert back.seed == back.scene.rng_seed == 3


# ----------------------------------------------------------------------
# persistence


def test_save_load_round_trip_bit_exact(tmp_path, short_episode):
    save_episode(short_episode, tmp_path / "ep")
    back = load_episode(tmp_path / "ep")
    assert episodes_equal(short_episode, back)
    # saving the loaded episode reproduces identical bytes
    save_episode(back, tmp_path / "ep2")
    assert (tmp_path / "ep" / "steps.bin").read_bytes() == \
        (tmp_path / "ep2" / "steps.bin").read_bytes()
    assert (tmp_path / "ep" / "manifest.json").read_text() == \
        (tmp_path / "ep2" / "manifest.json").read_text()


def test_save_load_round_trip_of_a_scene_built_with_an_integer_dt(tmp_path):
    ep = synthetic_episode(np.random.default_rng(3))
    ep.scene = dataclasses.replace(ep.scene, dt=1)
    save_episode(ep, tmp_path / "ep")
    back = load_episode(tmp_path / "ep")
    assert episodes_equal(ep, back)
    assert type(back.scene.dt) is float and back.scene.dt == 1.0
    save_episode(back, tmp_path / "ep2")
    assert (tmp_path / "ep" / "manifest.json").read_text() == \
        (tmp_path / "ep2" / "manifest.json").read_text()


def test_save_load_long_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    ep = synthetic_episode(rng, variant="long")
    save_episode(ep, tmp_path / "ep")
    assert episodes_equal(ep, load_episode(tmp_path / "ep"))


def test_steps_file_golden_bytes(tmp_path):
    """steps.bin equals the documented layout packed by hand: magic, u32 count,
    then per step 5 f32 joints, 2 f32 (v, omega), H x W x 3 u8 RGB, H x W f32
    disparity, all little-endian."""
    rng = np.random.default_rng(16)
    ep = synthetic_episode(rng, steps=2, variant="long", h=2, w=3)
    save_episode(ep, tmp_path / "ep")
    expected = b"SKLDSET1" + struct.pack("<I", 2)
    for t in range(2):
        expected += struct.pack("<5f", *ep.states[t, :5].tolist())
        expected += struct.pack("<2f", *ep.states[t, 5:].tolist())
        expected += bytes(ep.rgb[t].ravel().tolist())
        expected += struct.pack("<6f", *ep.disparity[t].ravel().tolist())
    assert (tmp_path / "ep" / "steps.bin").read_bytes() == expected


def test_manifest_missing_key_names_it(tmp_path):
    rng = np.random.default_rng(17)
    save_episode(synthetic_episode(rng), tmp_path / "ep")
    mpath = tmp_path / "ep" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["dims"]["width"]
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=r"manifest.json: missing key 'dims.width'"):
        load_episode(tmp_path / "ep")


@pytest.mark.parametrize("corrupt,offset", [
    (lambda b: b[:50], "char 50"),             # cut to 50 bytes
    (lambda b: b"\xff" + b[1:], "position 0"),  # not UTF-8
])
def test_unreadable_manifest_names_its_path(tmp_path, corrupt, offset):
    save_episode(synthetic_episode(np.random.default_rng(17)), tmp_path / "ep")
    mpath = tmp_path / "ep" / "manifest.json"
    mpath.write_bytes(corrupt(mpath.read_bytes()))
    with pytest.raises(DatasetError, match=rf"manifest.json: not valid JSON: .*{offset}"):
        load_episode(tmp_path / "ep")


def test_manifest_scene_round_trips_through_the_codec(tmp_path, short_episode):
    """Decoding and re-encoding the scene snapshot reproduces the manifest text."""
    long_ep = synthetic_episode(np.random.default_rng(5), variant="long")
    long_ep.scene = make_long_scene(0)
    for name, ep in (("short", short_episode), ("long", long_ep)):
        save_episode(ep, tmp_path / name)
        text = (tmp_path / name / "manifest.json").read_text()
        manifest = json.loads(text)
        manifest["scene"] = config_to_dict(config_from_dict(manifest["scene"]))
        assert json.dumps(manifest, sort_keys=True, indent=1) == text


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("rng_seed",), 7.9, r"'scene': bad value for 'rng_seed': must be an integer, got 7.9",
                 id="rng_seed=7.9"),
    pytest.param(("rng_seed",), -1, r"'scene': bad value for 'rng_seed': must be >= 0, got -1",
                 id="rng_seed=-1"),
    pytest.param(("camera", "width"), True,
                 r"'scene': bad value for 'camera.width': must be an integer, got True",
                 id="camera.width=True"),
    pytest.param(("dt",), -1.0, r"'scene': bad value for 'dt': must be > 0.0, got -1.0", id="dt=-1.0"),
])
def test_manifest_scene_is_validated(tmp_path, path, value, message):
    save_episode(synthetic_episode(np.random.default_rng(4)), tmp_path / "ep")
    mpath = tmp_path / "ep" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    node = manifest["scene"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=r"manifest.json: .*" + message):
        load_episode(tmp_path / "ep")


def test_truncated_steps_file_reports_counts(tmp_path):
    rng = np.random.default_rng(3)
    save_episode(synthetic_episode(rng), tmp_path / "ep")
    path = tmp_path / "ep" / "steps.bin"
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(DatasetError, match=rf"expected {len(blob)} bytes, got {len(blob) - 100}"):
        load_episode(tmp_path / "ep")


def test_version_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(4)
    save_episode(synthetic_episode(rng), tmp_path / "ep")
    mpath = tmp_path / "ep" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["schema_version"] = 99
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="unsupported dataset version"):
        load_episode(tmp_path / "ep")


def test_bad_magic_rejected(tmp_path):
    rng = np.random.default_rng(5)
    save_episode(synthetic_episode(rng), tmp_path / "ep")
    path = tmp_path / "ep" / "steps.bin"
    blob = bytearray(path.read_bytes())
    blob[:8] = b"XXXXXXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetError, match="bad magic"):
        load_episode(tmp_path / "ep")


def test_load_dataset_filters_failed(tmp_path):
    rng = np.random.default_rng(6)
    save_episode(synthetic_episode(rng, outcome="DONE", seed=0), tmp_path / "ep0")
    save_episode(synthetic_episode(rng, outcome="FAILED", seed=1), tmp_path / "ep1")
    assert len(load_dataset(tmp_path)) == 1
    assert len(load_dataset(tmp_path, include_failed=True)) == 2


# ----------------------------------------------------------------------
# normalization statistics


def test_stats_single_step_dataset_flags_all_dims():
    rng = np.random.default_rng(7)
    ep = synthetic_episode(rng, steps=1)
    stats = compute_norm_stats([ep])
    assert np.array_equal(stats.state_min, stats.state_max)
    assert np.all(stats.state_flags)
    x = ep.states[0].astype(float)
    assert np.all(normalize_state(x, stats) == 0.5)


def test_stats_two_step_min_max():
    rng = np.random.default_rng(8)
    ep = synthetic_episode(rng, steps=2)
    ep.states[0] = [0.0, 0, 0, 0, 0]
    ep.states[1] = [1.0, 0, 0, 0, 0]
    stats = compute_norm_stats([ep])
    assert stats.state_min[0] == 0.0
    assert stats.state_max[0] == 1.0
    assert not stats.state_flags[0]
    assert np.all(stats.state_flags[1:])


def naive_stats_oracle(episodes):
    """Full-materialization reference for the streaming statistics."""
    states = np.concatenate([e.states for e in episodes])
    rgb = np.concatenate([e.rgb for e in episodes])
    disp = np.concatenate([e.disparity for e in episodes])
    img = rgb.astype(np.float64) / 255.0
    nz = disp[disp > 0].astype(np.float64)
    return {
        "state_min": states.min(axis=0),
        "state_max": states.max(axis=0),
        "image_mean": img.reshape(-1, 3).mean(axis=0),
        "image_std": img.reshape(-1, 3).std(axis=0),
        "disp_mean": nz.mean(),
        "disp_std": nz.std(),
    }


def test_stats_match_naive_oracle():
    rng = np.random.default_rng(9)
    episodes = [synthetic_episode(rng, steps=int(rng.integers(3, 20)), seed=i)
                for i in range(10)]
    stats = compute_norm_stats(episodes)
    oracle = naive_stats_oracle(episodes)
    assert np.allclose(stats.state_min, oracle["state_min"], atol=1e-6)
    assert np.allclose(stats.state_max, oracle["state_max"], atol=1e-6)
    assert np.allclose(stats.image_mean, oracle["image_mean"], atol=1e-6)
    assert np.allclose(stats.image_std, oracle["image_std"], atol=1e-6)
    assert stats.disp_mean == pytest.approx(oracle["disp_mean"], abs=1e-6)
    assert stats.disp_std == pytest.approx(oracle["disp_std"], abs=1e-6)


def test_stats_require_episodes():
    with pytest.raises(DatasetError):
        compute_norm_stats([])


def test_normalize_endpoints_and_midpoint():
    rng = np.random.default_rng(10)
    episodes = [synthetic_episode(rng, steps=30, seed=i) for i in range(2)]
    stats = compute_norm_stats(episodes)
    assert np.all(normalize_state(stats.state_min, stats) == 0.0)
    mid = (stats.state_min + stats.state_max) / 2.0
    assert normalize_state(mid, stats) == pytest.approx(np.full(5, 0.5))


def test_normalize_round_trip():
    rng = np.random.default_rng(11)
    episodes = [synthetic_episode(rng, steps=30, seed=i) for i in range(2)]
    stats = compute_norm_stats(episodes)
    xs = rng.uniform(-2, 2, size=(1000, 5))
    back = denormalize_state(normalize_state(xs, stats), stats)
    assert np.max(np.abs(back - xs)) < 1e-9


def test_normalized_training_steps_in_unit_interval():
    rng = np.random.default_rng(12)
    episodes = [synthetic_episode(rng, steps=25, seed=i) for i in range(3)]
    stats = compute_norm_stats(episodes)
    for ep in episodes:
        normed = normalize_state(ep.states.astype(float), stats)
        assert np.all(normed >= 0.0)
        assert np.all(normed <= 1.0)


def test_normalize_long_variant_with_commands():
    rng = np.random.default_rng(13)
    episodes = [synthetic_episode(rng, steps=20, variant="long", seed=i)
                for i in range(2)]
    stats = compute_norm_stats(episodes)
    assert stats.state_min.shape == (7,)
    full = episodes[0].states[3].astype(float)
    normed = normalize_state(full, stats)
    assert normed.shape == (7,)
    back = denormalize_state(normed, stats)
    assert np.max(np.abs(back - full)) < 1e-9
    # the joints alone normalize against the joints' bounds of long stats
    assert np.array_equal(normalize_state(full[:5], stats), normed[:5])


def test_stats_json_round_trip():
    rng = np.random.default_rng(14)
    episodes = [synthetic_episode(rng, steps=10, variant="long", seed=i)
                for i in range(2)]
    stats = compute_norm_stats(episodes)
    back = NormStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert np.array_equal(back.state_min, stats.state_min)
    assert np.array_equal(back.state_max, stats.state_max)
    assert np.array_equal(back.state_flags, stats.state_flags)
    assert back.disp_mean == stats.disp_mean
    assert back.disp_std == stats.disp_std


def hand_packed_episode(path, variant, states, cmds):
    """An episode directory written byte by byte: 1 x 2 frames of one black and
    one white pixel, disparity 2 and 4."""
    path.mkdir()
    scene = make_short_scene(0)
    manifest = {"schema_version": 1, "variant": variant, "steps": len(states),
                "dims": {"state": 5, "cmd": 2 if cmds else 0, "height": 1, "width": 2},
                "dt": scene.dt, "seed": 0, "outcome": "DONE", "scene": config_to_dict(scene)}
    (path / "manifest.json").write_text(json.dumps(manifest))
    blob = b"SKLDSET1" + struct.pack("<I", len(states))
    for t, joints in enumerate(states):
        blob += struct.pack("<5f", *joints)
        if cmds:
            blob += struct.pack("<2f", *cmds[t])
        blob += bytes([0, 0, 0, 255, 255, 255]) + struct.pack("<2f", 2.0, 4.0)
    (path / "steps.bin").write_bytes(blob)
    return load_episode(path)


def as_json(d):
    return json.dumps(d, sort_keys=True)


def test_stats_to_dict_literal(tmp_path):
    """norm_stats.json keeps the joints under state_* (5 values) and (v, omega)
    under cmd_* (2 values, null for short data). Compared as JSON text, so a
    flag written as `true` or a bound written as `0` fails."""
    states = [[0.0, 0.5, 1.0, 0.25, 0.0], [1.0, 0.5, 0.0, 0.75, 1.0]]
    image = {"image_mean": [0.5, 0.5, 0.5], "image_std": [0.5, 0.5, 0.5],
             "disp_mean": 3.0, "disp_std": 1.0}
    joints = {"state_min": [0.0, 0.5, 0.0, 0.25, 0.0], "state_max": [1.0, 0.5, 1.0, 0.75, 1.0],
              "state_flags": [0, 1, 0, 0, 0]}
    short = hand_packed_episode(tmp_path / "short", "short", states, None)
    assert as_json(compute_norm_stats([short]).to_dict()) == as_json({
        **joints, "cmd_min": None, "cmd_max": None, "cmd_flags": None, **image})
    long = hand_packed_episode(tmp_path / "long", "long", states, [[-0.5, 1.0], [0.5, 1.0]])
    assert as_json(compute_norm_stats([long]).to_dict()) == as_json({
        **joints, "cmd_min": [-0.5, 1.0], "cmd_max": [0.5, 1.0], "cmd_flags": [0, 1], **image})


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(15)
    episodes = [synthetic_episode(rng, steps=10, seed=i) for i in range(2)]
    stats = compute_norm_stats(episodes)
    with pytest.raises(DatasetError, match="dimension"):
        normalize_state(np.zeros(6), stats)
