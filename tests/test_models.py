"""Architecture shape contracts and model-file round trips."""

import struct
import time

import numpy as np
import pytest

from skillsim.dataset import NormStats
from skillsim.models import (
    Autoencoder,
    ModelError,
    PolicyBundle,
    Predictor,
    load_model,
    predict_next,
    save_model,
)


def test_autoencoder_shapes():
    rng = np.random.default_rng(0)
    ae = Autoencoder(channels=3, hw=32, latent=32, rng=rng)
    x = rng.normal(size=(4, 32, 32, 3)).astype(np.float32)
    z = ae.encode(x)
    assert z.shape == (4, 32)
    recon = ae.forward(x)
    assert recon.shape == x.shape


def test_autoencoder_disparity_single_channel():
    rng = np.random.default_rng(1)
    ae = Autoencoder(channels=1, hw=32, latent=32, rng=rng)
    x = rng.normal(size=(2, 32, 32, 1)).astype(np.float32)
    assert ae.forward(x).shape == x.shape


def test_autoencoder_rejects_bad_resolution():
    with pytest.raises(ValueError, match="divisible by 8"):
        Autoencoder(channels=3, hw=30, latent=8)


def test_predictor_step_shapes_and_purity():
    rng = np.random.default_rng(2)
    pred = Predictor(latent=32, d_state=5, hidden=64, rng=rng)
    x = rng.normal(size=(1, pred.n_in)).astype(np.float32)
    h0 = pred.zero_state(1)
    y1, h1 = pred.step(x, h0)
    y2, h2 = pred.step(x, pred.zero_state(1))
    assert y1.shape == (1, 5)
    assert np.array_equal(y1, y2)
    assert np.array_equal(h1[0], h2[0]) and np.array_equal(h1[1], h2[1])


def test_model_round_trip_autoencoder(tmp_path):
    rng = np.random.default_rng(3)
    ae = Autoencoder(channels=3, hw=16, latent=8, rng=rng)
    path = tmp_path / "ae.sklm"
    save_model(path, ae)
    back = load_model(path)
    assert isinstance(back, Autoencoder)
    assert (back.channels, back.hw, back.latent) == (3, 16, 8)
    for (name_a, pa), (name_b, pb) in zip(ae.named_params(), back.named_params()):
        assert name_a == name_b
        assert np.array_equal(pa.value, pb.value)
    x = rng.normal(size=(2, 16, 16, 3)).astype(np.float32)
    assert np.array_equal(ae.forward(x), back.forward(x))


def test_model_round_trip_predictor(tmp_path):
    rng = np.random.default_rng(4)
    pred = Predictor(latent=8, d_state=7, hidden=16, rng=rng)
    path = tmp_path / "p.sklm"
    save_model(path, pred)
    back = load_model(path)
    assert isinstance(back, Predictor)
    assert (back.latent, back.d_state, back.hidden) == (8, 7, 16)
    x = rng.normal(size=(3, pred.n_in)).astype(np.float32)
    y1, _ = pred.step(x, pred.zero_state(3))
    y2, _ = back.step(x, back.zero_state(3))
    assert np.array_equal(y1, y2)


def test_model_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    pred = Predictor(latent=4, d_state=5, hidden=8, rng=rng)
    save_model(tmp_path / "a.sklm", pred)
    save_model(tmp_path / "b.sklm", pred)
    assert (tmp_path / "a.sklm").read_bytes() == (tmp_path / "b.sklm").read_bytes()


def test_model_bad_magic(tmp_path):
    path = tmp_path / "x.sklm"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 16)
    with pytest.raises(ModelError, match="bad magic"):
        load_model(path)


def test_model_trailing_garbage(tmp_path):
    rng = np.random.default_rng(6)
    pred = Predictor(latent=2, d_state=5, hidden=4, rng=rng)
    path = tmp_path / "p.sklm"
    save_model(path, pred)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ModelError, match="trailing bytes"):
        load_model(path)


class FrameStub:
    def __init__(self, width, height):
        self.rgb = np.zeros((height, width, 3), dtype=np.uint8)
        self.disparity = np.zeros((height, width), dtype=np.float32)


def small_bundle(rgb_hw=16, disp_hw=16, d_state=5):
    rng = np.random.default_rng(7)
    stats = NormStats(
        state_min=np.zeros(5), state_max=np.ones(5), state_flags=np.zeros(5, bool),
        image_mean=np.full(3, 0.5), image_std=np.full(3, 0.25), disp_mean=4.0, disp_std=2.0,
    )
    return PolicyBundle(Autoencoder(3, rgb_hw, 4, rng), Autoencoder(1, disp_hw, 4, rng),
                        Predictor(4, d_state, 8, rng), stats)


def test_bundle_derives_downscale_from_frame_width():
    bundle = small_bundle()
    assert bundle.encode_frame(FrameStub(32, 32)).shape == (8,)
    assert bundle.encode_frame(FrameStub(64, 64)).shape == (8,)


def test_bundle_wrong_camera_width_raises():
    with pytest.raises(ModelError, match="frame width 40 is not a multiple of encoder input size 16"):
        small_bundle().encode_frame(FrameStub(40, 40))


def test_bundle_encoder_size_mismatch_raises():
    with pytest.raises(ModelError, match="RGB encoder input 16 differs from disparity encoder input 8"):
        small_bundle(disp_hw=8).encode_frame(FrameStub(32, 32))


def test_bundle_variant_from_state_dimension():
    assert small_bundle(d_state=5).variant == "short"
    assert small_bundle(d_state=7).variant == "long"
    with pytest.raises(ModelError, match="state dimension 6"):
        small_bundle(d_state=6).variant


def test_model_truncated_reports_offset(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "p.sklm"
    save_model(path, Predictor(latent=2, d_state=5, hidden=4, rng=rng))
    path.write_bytes(path.read_bytes()[:18])
    with pytest.raises(ModelError, match=r"p.sklm: truncated at offset 18"):
        load_model(path)


@pytest.mark.parametrize("cls, args", [
    (Autoencoder, (3, 32, 32)), (Autoencoder, (1, 16, 8)), (Autoencoder, (2, 8, 5)),
    (Predictor, (1, 2, 2)), (Predictor, (32, 7, 64)), (Predictor, (3, 5, 1)),
])
def test_param_count_matches_named_params(cls, args):
    model = cls(*args, rng=np.random.default_rng(0))
    assert cls.param_count(*args) == sum(p.value.size for _, p in model.named_params())


@pytest.mark.parametrize("cls, args, key", [
    (Predictor, (1, 2, 2), "hidden"), (Predictor, (1, 2, 2), "latent"),
    (Autoencoder, (1, 8, 2), "hw"),
])
def test_meta_integer_the_file_cannot_hold_fails_before_building(tmp_path, cls, args, key):
    model = cls(*args, rng=np.random.default_rng(0))
    path = tmp_path / "m.sklm"
    save_model(path, model)
    entry = f"meta/{key}".encode() + struct.pack("<BI", 1, 1)
    blob = path.read_bytes()
    old = entry + struct.pack("<f", model.meta()[key])
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, entry + struct.pack("<f", 2.0 ** 24)))
    stored = cls.param_count(*args)
    t0 = time.perf_counter()
    with pytest.raises(ModelError, match=rf"m.sklm: meta .*'{key}': 16777216.* describe "
                                         rf"\d+ parameter values, the file stores {stored}"):
        load_model(path)
    assert time.perf_counter() - t0 < 0.5


def test_bundle_non_square_frame_raises_naming_both_shapes():
    with pytest.raises(ModelError, match=r"frame RGB shape \(48, 32, 3\) and disparity shape "
                                         r"\(48, 32\) are not square frames of one size"):
        small_bundle().encode_frame(FrameStub(32, 48))


def test_bundle_rgb_and_disparity_of_different_sizes_raise():
    frame = FrameStub(32, 32)
    frame.disparity = np.zeros((64, 64), dtype=np.float32)
    with pytest.raises(ModelError, match=r"RGB shape \(32, 32, 3\) and disparity shape \(64, 64\)"):
        small_bundle().encode_frame(frame)


def test_bundle_memo_is_outside_init_repr_and_equality():
    bundle = small_bundle()
    twin = PolicyBundle(bundle.enc_rgb, bundle.enc_disp, bundle.predictor, bundle.stats)
    bundle.encode_frame(FrameStub(32, 32))
    assert bundle == twin
    assert repr(bundle) == repr(twin)
