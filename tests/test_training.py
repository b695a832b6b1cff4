"""Training-loop behavior on small corpora; determinism; replay equivalence."""

import numpy as np
import pytest

from skillsim.dataset import Episode, compute_norm_stats, normalize_state
from skillsim.models import (
    Autoencoder,
    PolicyBundle,
    predict_next,
    standardize_disparity,
    standardize_rgb,
)
from skillsim.scene import make_short_scene
from skillsim.training import (
    TrainConfig,
    train_autoencoder,
    train_predictor,
    write_loss_csv,
)

TINY = TrainConfig(epochs=60, ae_epochs=25, batch=32, downscale=2, latent=8,
                   hidden=16, seed=0)


def make_episode(rng, steps, variant="short", constant=False, seed=0, h=16, w=16):
    """Synthetic episode with compressible frames: solid drifting colors and
    a smooth disparity ramp whose scale varies per step."""
    ramp = np.linspace(1.0, 4.0, h)[:, None] * np.ones((1, w))
    color = rng.uniform(0.2, 0.8, 3)
    states, rgb, disparity = [], [], []
    state = rng.uniform(0.2, 0.8, 5)
    for _ in range(steps):
        if not constant:
            state = np.clip(state + rng.normal(0, 0.02, 5), 0, 1)
            color = np.clip(color + rng.normal(0, 0.03, 3), 0, 1)
        rgb.append(np.rint(np.ones((h, w, 3)) * color * 255).astype(np.uint8))
        scale = 1.0 if constant else float(rng.uniform(0.8, 1.2))
        # a long episode's state is the joints, then (v, omega)
        row = state if variant == "short" else np.concatenate([state, rng.uniform(-0.5, 0.5, 2)])
        states.append(row.astype(np.float32))
        disparity.append((ramp * scale).astype(np.float32))
    return Episode(states=np.stack(states), rgb=np.stack(rgb), disparity=np.stack(disparity),
                   variant=variant, scene=make_short_scene(seed), outcome="DONE")


@pytest.fixture(scope="module")
def tiny_corpus():
    rng = np.random.default_rng(0)
    return [make_episode(rng, 40, constant=True, seed=i) for i in range(3)]


def test_autoencoder_constant_frames_near_zero_loss(tiny_corpus):
    stats = compute_norm_stats(tiny_corpus)
    cfg = TrainConfig(epochs=10, ae_epochs=50, batch=32, downscale=2, latent=8,
                      hidden=16, seed=0)
    _, losses = train_autoencoder(tiny_corpus, "rgb", stats, cfg)
    assert losses[-1] < 0.02
    assert losses[-1] < 0.05 * losses[0]


def test_autoencoder_loss_ratio_on_varied_frames():
    rng = np.random.default_rng(1)
    episodes = [make_episode(rng, 40, seed=i) for i in range(3)]
    stats = compute_norm_stats(episodes)
    _, losses = train_autoencoder(episodes, "disparity", stats, TINY)
    assert losses[-1] <= 0.2 * losses[0]


def test_autoencoder_needs_hundred_frames():
    rng = np.random.default_rng(2)
    episodes = [make_episode(rng, 10, seed=0)]
    stats = compute_norm_stats(episodes)
    with pytest.raises(ValueError, match="100 frames"):
        train_autoencoder(episodes, "rgb", stats, TINY)


def test_autoencoder_determinism(tiny_corpus):
    stats = compute_norm_stats(tiny_corpus)
    cfg = TrainConfig(epochs=10, ae_epochs=8, batch=32, downscale=2, latent=8,
                      hidden=16, seed=3)
    _, l1 = train_autoencoder(tiny_corpus, "rgb", stats, cfg)
    _, l2 = train_autoencoder(tiny_corpus, "rgb", stats, cfg)
    assert l1 == l2  # bit-identical loss curves


def test_predictor_constant_states_learn_identity():
    rng = np.random.default_rng(3)
    episodes = [make_episode(rng, 40, constant=True, seed=i) for i in range(3)]
    stats = compute_norm_stats(episodes)
    enc_rgb, _ = train_autoencoder(episodes, "rgb", stats, TINY)
    enc_disp, _ = train_autoencoder(episodes, "disparity", stats, TINY)
    cfg = TrainConfig(epochs=1000, ae_epochs=5, batch=32, downscale=2, latent=8,
                      hidden=16, seed=0)
    _, losses = train_predictor(episodes, enc_rgb, enc_disp, stats, cfg)
    assert losses[-1] < 2e-4
    assert losses[-1] < losses[0] / 100


def test_predictor_needs_two_episodes(tiny_corpus):
    stats = compute_norm_stats(tiny_corpus)
    enc_rgb, _ = train_autoencoder(tiny_corpus, "rgb", stats, TINY)
    enc_disp, _ = train_autoencoder(tiny_corpus, "disparity", stats, TINY)
    with pytest.raises(ValueError, match="at least 2 episodes"):
        train_predictor(tiny_corpus[:1], enc_rgb, enc_disp, stats, TINY)


def test_predictor_skips_single_step_episode(tiny_corpus, caplog):
    rng = np.random.default_rng(4)
    stats = compute_norm_stats(tiny_corpus)
    enc_rgb, _ = train_autoencoder(tiny_corpus, "rgb", stats, TINY)
    enc_disp, _ = train_autoencoder(tiny_corpus, "disparity", stats, TINY)
    stub = make_episode(rng, 1, constant=True, seed=9)
    cfg = TrainConfig(epochs=3, ae_epochs=5, batch=32, downscale=2, latent=8,
                      hidden=16, seed=0)
    with caplog.at_level("WARNING"):
        _, losses = train_predictor(tiny_corpus + [stub], enc_rgb, enc_disp, stats, cfg)
    assert "skipping episode" in caplog.text
    assert len(losses) == 3


def test_predictor_determinism(tiny_corpus):
    stats = compute_norm_stats(tiny_corpus)
    enc_rgb, _ = train_autoencoder(tiny_corpus, "rgb", stats, TINY)
    enc_disp, _ = train_autoencoder(tiny_corpus, "disparity", stats, TINY)
    cfg = TrainConfig(epochs=20, ae_epochs=5, batch=32, downscale=2, latent=8,
                      hidden=16, seed=0)
    _, l1 = train_predictor(tiny_corpus, enc_rgb, enc_disp, stats, cfg)
    _, l2 = train_predictor(tiny_corpus, enc_rgb, enc_disp, stats, cfg)
    assert l1 == l2


def test_predict_next_matches_training_forward(tiny_corpus):
    """Step-by-step replay equals the batched training-time forward pass."""
    stats = compute_norm_stats(tiny_corpus)
    enc_rgb, _ = train_autoencoder(tiny_corpus, "rgb", stats, TINY)
    enc_disp, _ = train_autoencoder(tiny_corpus, "disparity", stats, TINY)
    cfg = TrainConfig(epochs=15, ae_epochs=5, batch=32, downscale=2, latent=8,
                      hidden=16, seed=0)
    predictor, _ = train_predictor(tiny_corpus, enc_rgb, enc_disp, stats, cfg)

    ep = tiny_corpus[0]
    # batched forward over the whole episode
    rgb = standardize_rgb(ep.rgb, stats, cfg.downscale)
    disp = standardize_disparity(ep.disparity, stats, cfg.downscale)
    z = np.concatenate([enc_rgb.encode(rgb), enc_disp.encode(disp)], axis=1)
    states = normalize_state(ep.states.astype(float), stats).astype(np.float32)
    x_seq = np.concatenate([z, states], axis=1).astype(np.float32)
    h, c = predictor.zero_state(1)
    batched = []
    for t in range(len(ep)):
        y, (h, c) = predictor.step(x_seq[t:t + 1], (h, c))
        batched.append(y[0])

    # step-by-step path through predict_next
    class FrameStub:
        def __init__(self, rgb, disparity):
            self.rgb = rgb
            self.disparity = disparity

    bundle = PolicyBundle(enc_rgb, enc_disp, predictor, stats)
    hidden = predictor.zero_state(1)
    for t in range(len(ep)):
        frame = FrameStub(ep.rgb[t], ep.disparity[t])
        y, hidden = predict_next(bundle, frame, states[t], hidden)
        assert np.max(np.abs(y - batched[t])) < 1e-6


def test_mixed_dataset_learns_the_joints_alone():
    """The learner state is the joints alone unless every episode is long, in the
    statistics and in the predictor alike."""
    rng = np.random.default_rng(6)
    long_eps = [make_episode(rng, 12, variant="long", seed=i) for i in range(2)]
    short_ep = make_episode(rng, 12, seed=2)
    encoders = Autoencoder(3, 8, 8, rng), Autoencoder(1, 8, 8, rng)
    cfg = TrainConfig(epochs=2, ae_epochs=1, batch=32, downscale=2, latent=8,
                      hidden=16, seed=0)
    for episodes, d_state in ((long_eps, 7), (long_eps + [short_ep], 5)):
        stats = compute_norm_stats(episodes)
        assert stats.state_min.shape == (d_state,)
        predictor, _ = train_predictor(episodes, *encoders, stats, cfg)
        assert predictor.d_state == d_state


def test_loss_curve_trailing_mean_improves(tiny_corpus):
    rng = np.random.default_rng(5)
    episodes = [make_episode(rng, 40, seed=i) for i in range(4)]
    stats = compute_norm_stats(episodes)
    enc_rgb, _ = train_autoencoder(episodes, "rgb", stats, TINY)
    enc_disp, _ = train_autoencoder(episodes, "disparity", stats, TINY)
    cfg = TrainConfig(epochs=200, ae_epochs=5, batch=32, downscale=2, latent=8,
                      hidden=16, seed=0)
    _, losses = train_predictor(episodes, enc_rgb, enc_disp, stats, cfg)
    assert np.mean(losses[-100:]) < np.mean(losses[:100])


def test_write_loss_csv_format(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv(path, [1.5, 0.25])
    assert path.read_text() == "epoch,loss\n0,1.5\n1,0.25\n"
