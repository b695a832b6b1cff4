"""Property tests for .sklm model files: exact round trips, and every
truncation fails as ModelError. And for PolicyBundle.encode_frame's RGB
latent memo: any sequence of frames and field reassignments gives the bits of
the direct computation, with one RGB encoder pass per change of its key."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from skillsim.dataset import NormStats  # noqa: E402
from skillsim.models import (  # noqa: E402
    Autoencoder,
    ModelError,
    PolicyBundle,
    Predictor,
    load_model,
    save_model,
    standardize_disparity,
    standardize_rgb,
)

autoencoders = st.builds(Autoencoder, channels=st.integers(1, 3), hw=st.sampled_from([8, 16]),
                         latent=st.integers(1, 8))
predictors = st.builds(Predictor, latent=st.integers(1, 4), d_state=st.integers(1, 8),
                       hidden=st.integers(1, 8))


def fill(model, seed):
    """Random float32 parameters, with signed zeros and extreme magnitudes."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, 1e-45, -3.4e38, 3.4e38], dtype=np.float32)
    for _, p in model.named_params():
        values = rng.normal(size=p.value.shape).astype(np.float32)
        pick = rng.integers(0, 10, size=p.value.shape)
        values[pick < 2] = rng.choice(specials, size=int(np.sum(pick < 2)))
        p.value[...] = values
    return model


@settings(max_examples=40, deadline=None)
@given(model=autoencoders | predictors, seed=st.integers(0, 2**32 - 1))
def test_sklm_round_trips_exactly(tmp_path_factory, model, seed):
    path = tmp_path_factory.mktemp("sklm") / "model.sklm"
    save_model(path, fill(model, seed))
    back = load_model(path)
    assert type(back) is type(model) and back.meta() == model.meta()
    params, loaded = model.named_params(), back.named_params()
    assert [name for name, _ in params] == [name for name, _ in loaded]
    for (_, p), (_, q) in zip(params, loaded):
        assert q.value.dtype == np.float32 and q.value.shape == p.value.shape
        assert q.value.tobytes() == p.value.tobytes()
    again = path.with_name("again.sklm")
    save_model(again, back)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(model=autoencoders | predictors, data=st.data())
def test_sklm_truncation_raises_model_error(tmp_path_factory, model, data):
    path = tmp_path_factory.mktemp("sklm") / "model.sklm"
    save_model(path, model)
    blob = path.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    with pytest.raises(ModelError, match="model.sklm"):
        load_model(path)


def test_sklm_every_truncation_of_a_small_file_raises_model_error(tmp_path):
    path = tmp_path / "small.sklm"
    save_model(path, Predictor(latent=1, d_state=2, hidden=2))
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ModelError, match="small.sklm"):
            load_model(path)


class Frame:
    def __init__(self, rgb, disparity):
        self.rgb, self.disparity = rgb, disparity


def make_stats(mean):
    return NormStats(
        state_min=np.zeros(5), state_max=np.ones(5), state_flags=np.zeros(5, bool),
        image_mean=np.full(3, mean), image_std=np.full(3, 0.25), disp_mean=4.0, disp_std=2.0,
    )


def encode_directly(bundle, frame):
    """encode_frame's result computed without the memo, or the error it raises."""
    downscale = frame.rgb.shape[1] // bundle.enc_rgb.hw
    try:
        z_rgb = Autoencoder.encode(bundle.enc_rgb,
                                   standardize_rgb(frame.rgb[None], bundle.stats, downscale))
    except ValueError as exc:
        return type(exc)
    z_disp = Autoencoder.encode(
        bundle.enc_disp, standardize_disparity(frame.disparity[None], bundle.stats, downscale))
    return np.concatenate([z_rgb[0], z_disp[0]])


def random_frame(width, seed):
    rng = np.random.default_rng(seed)
    return Frame(rng.integers(0, 256, (width, width, 3), dtype=np.uint8),
                 rng.normal(4.0, 2.0, (width, width)).astype(np.float32))


seeds = st.integers(0, 2 ** 32 - 1)
# one step of a sequence: a change to the frame or to the bundle, then a call
memo_steps = st.one_of(
    st.tuples(st.just("new_frame"), st.sampled_from([32, 64]), seeds),
    st.tuples(st.just("repeat")),
    st.tuples(st.just("edit_rgb_byte"), seeds),
    st.tuples(st.just("new_disparity"), seeds),
    # the same RGB bytes read as a (w/2, w/2, 12) frame, for that call only:
    # 3-channel stats cannot broadcast over it, so the direct computation raises
    st.tuples(st.just("same_bytes_other_shape")),
    st.tuples(st.just("swap_enc_rgb")),
    st.tuples(st.just("swap_stats")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(memo_steps, min_size=1, max_size=12))
@example([("repeat",), ("same_bytes_other_shape",)])
@example([("repeat",), ("swap_enc_rgb",), ("swap_stats",)])
@example([("repeat",), ("edit_rgb_byte", 5), ("repeat",), ("new_disparity", 1)])
def test_encode_frame_equals_direct_and_encodes_rgb_once_per_key(sequence):
    rng = np.random.default_rng(0)
    encoders = [Autoencoder(3, 16, 4, np.random.default_rng(i)) for i in (1, 2)]
    stats = [make_stats(0.5), make_stats(0.25)]
    bundle = PolicyBundle(encoders[0], Autoencoder(1, 16, 4, rng), Predictor(4, 5, 8, rng),
                          stats[0])
    calls = []
    for ae in encoders:
        ae.encode = lambda x, ae=ae: calls.append(ae) or Autoencoder.encode(ae, x)

    frame, last_key, expected_calls = random_frame(32, 0), None, 0
    for kind, *args in sequence:
        probe = None
        if kind == "new_frame":
            frame = random_frame(*args)
        elif kind == "edit_rgb_byte":
            rgb = frame.rgb.copy()
            rgb.flat[args[0] % rgb.size] ^= 1 + args[0] % 255
            frame = Frame(rgb, frame.disparity)
        elif kind == "new_disparity":
            frame = Frame(frame.rgb, random_frame(frame.rgb.shape[1], args[0]).disparity)
        elif kind == "same_bytes_other_shape":
            half = frame.rgb.shape[1] // 2
            probe = Frame(frame.rgb.reshape(half, half, 12), frame.disparity[:half, :half])
        elif kind == "swap_enc_rgb":
            bundle.enc_rgb = encoders[bundle.enc_rgb is encoders[0]]
        elif kind == "swap_stats":
            bundle.stats = stats[bundle.stats is stats[0]]
        probe = probe or frame

        want = encode_directly(bundle, probe)
        if isinstance(want, type):
            with pytest.raises(want):
                bundle.encode_frame(probe)
            continue
        got = bundle.encode_frame(probe)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        key = (id(bundle.enc_rgb), id(bundle.stats), probe.rgb.shape, probe.rgb.tobytes())
        if key != last_key:
            expected_calls, last_key = expected_calls + 1, key
        assert len(calls) == expected_calls and calls[-1] is bundle.enc_rgb
