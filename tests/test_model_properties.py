"""Property tests for .sklm model files: exact round trips, and every
truncation fails as ModelError."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillsim.models import Autoencoder, ModelError, Predictor, load_model, save_model  # noqa: E402

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
