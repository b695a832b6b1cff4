"""Training loops for the two-stage learner and finite-difference gradient checks.

Stage one trains the RGB and disparity autoencoders on frames collected in
the simulator; stage two freezes the encoders and trains the recurrent
predictor on one-step state transitions with truncated backpropagation
through time. Both stages are bit-deterministic given their seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import checks, nn
from .checks import count, param, positive, positive_int
from .dataset import NormStats, dataset_state_dim, normalize_state
from .models import Autoencoder, Predictor, standardize_disparity, standardize_rgb

log = logging.getLogger(__name__)

FD_STEP = 1e-5  # central-difference step of the gradient checks


@dataclass
class TrainConfig:
    epochs: int = param(1000, positive_int)  # predictor epochs
    ae_epochs: int = param(120, positive_int)
    batch: int = param(64, positive_int)
    lr: float = param(1e-3, positive)
    grad_clip: float = param(5.0, positive)
    tbptt: int = param(32, positive_int)
    seed: int = param(0, count)
    downscale: int = param(2, positive_int)
    latent: int = param(32, positive_int)
    hidden: int = param(64, positive_int)
    frame_stride: int = param(1, positive_int)

    def validate(self):
        checks.validate(self)


def write_loss_csv(path, losses) -> None:
    lines = ["epoch,loss"]
    lines += [f"{i},{float(loss)!r}" for i, loss in enumerate(losses)]
    FsPath(path).write_text("\n".join(lines) + "\n")


def collect_frames(episodes, modality: str, stats: NormStats, config: TrainConfig) -> np.ndarray:
    """Standardized learner-resolution frames from every step (configurable stride)."""
    standardize = {"rgb": standardize_rgb, "disparity": standardize_disparity}.get(modality)
    if standardize is None:
        raise ValueError(f"unknown modality {modality!r}")
    # the modality names the Episode column it reads
    frames = [standardize(getattr(ep, modality)[::config.frame_stride], stats, config.downscale)
              for ep in episodes]
    if sum(len(f) for f in frames) == 0:
        raise ValueError("no frames to train on")
    return np.concatenate(frames)


def train_autoencoder(episodes, modality: str, stats: NormStats, config: TrainConfig):
    """Reconstruction training; returns (autoencoder, per-epoch mean losses)."""
    config.validate()
    frames = collect_frames(episodes, modality, stats, config)
    if frames.shape[0] < 100:
        raise ValueError(f"need at least 100 frames, got {frames.shape[0]}")
    rng = np.random.default_rng([config.seed, 1 if modality == "rgb" else 2])
    ae = Autoencoder(frames.shape[-1], frames.shape[1], config.latent, rng)
    params = ae.named_params()
    opt = nn.Adam([p for _, p in params], config.lr)

    losses = []
    n = frames.shape[0]
    for epoch in range(config.ae_epochs):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch):
            batch = frames[perm[lo:lo + config.batch]]
            opt.zero_grad()
            recon = ae.forward(batch)
            loss, dout = nn.loss_mse(recon, batch)
            if not np.isfinite(loss):
                raise nn.TrainingDiverged(
                    f"non-finite {modality} reconstruction loss at epoch {epoch}")
            ae.backward(dout.astype(batch.dtype))
            nn.clip_grad_norm([p for _, p in params], config.grad_clip)
            opt.step()
            total += loss * batch.shape[0]
        nn.check_finite(params, f"{modality} autoencoder epoch {epoch}")
        losses.append(total / n)
    return ae, losses


# ----------------------------------------------------------------------
# predictor training


def _episode_sequences(episodes, enc_rgb: Autoencoder, enc_disp: Autoencoder,
                       stats: NormStats, config: TrainConfig):
    """Per-episode (inputs, targets) arrays for one-step prediction."""
    d = dataset_state_dim(episodes)
    seqs = []
    for ep in episodes:
        if len(ep) < 2:
            log.warning("skipping episode with %d step(s)", len(ep))
            continue
        rgb = standardize_rgb(ep.rgb, stats, config.downscale)
        disp = standardize_disparity(ep.disparity, stats, config.downscale)
        z = np.concatenate([enc_rgb.encode(rgb), enc_disp.encode(disp)], axis=1)
        state_n = normalize_state(ep.states[:, :d], stats).astype(np.float32)
        x = np.concatenate([z[:-1], state_n[:-1]], axis=1)
        seqs.append((x.astype(np.float32), state_n[1:]))
    if not seqs:
        raise ValueError("need at least one episode with two or more steps")
    return seqs


def _pad_batch(seqs):
    lengths = [x.shape[0] for x, _ in seqs]
    lmax = max(lengths)
    b = len(seqs)
    din = seqs[0][0].shape[1]
    d = seqs[0][1].shape[1]
    X = np.zeros((b, lmax, din), dtype=np.float32)
    Y = np.zeros((b, lmax, d), dtype=np.float32)
    M = np.zeros((b, lmax), dtype=np.float32)
    for i, (x, y) in enumerate(seqs):
        X[i, :x.shape[0]] = x
        Y[i, :y.shape[0]] = y
        M[i, :x.shape[0]] = 1.0
    return X, Y, M


def predictor_window_pass(predictor: Predictor, X, Y, M, h, c, compute_grads=True):
    """Forward (and optionally backward) over one TBPTT window.

    Returns (sum of squared masked errors, count of masked elements,
    final hidden state). Gradients accumulate into the predictor params.
    """
    b, t, _ = X.shape
    caches = []
    hs = np.empty((b, t, predictor.hidden), dtype=h.dtype)
    for step in range(t):
        h, c, cache = predictor.cell.step(X[:, step], h, c)
        caches.append(cache)
        hs[:, step] = h
    preds = predictor.readout.forward(hs.reshape(b * t, -1)).reshape(b, t, -1)
    diff = (preds - Y) * M[..., None]
    sumsq = float(np.sum(diff.astype(np.float64) ** 2))
    n_valid = float(M.sum()) * Y.shape[-1]
    if compute_grads and n_valid > 0:
        dpred = (2.0 / n_valid) * diff
        dh_seq = predictor.readout.backward(
            dpred.reshape(b * t, -1).astype(h.dtype)
        ).reshape(b, t, -1)
        dh_next = np.zeros_like(h)
        dc_next = np.zeros_like(c)
        for step in reversed(range(t)):
            dh_next, dc_next = predictor.cell.backward_step(
                dh_seq[:, step] + dh_next, dc_next, caches[step])
    return sumsq, n_valid, (h, c)


def train_predictor(episodes, enc_rgb: Autoencoder, enc_disp: Autoencoder,
                    stats: NormStats, config: TrainConfig):
    """TBPTT training of the one-step state predictor with frozen encoders.

    Episodes run in parallel as a padded batch; hidden state resets at
    episode boundaries (each epoch starts from zeros). Returns
    (predictor, per-epoch losses) where each loss is the mean squared
    error over every valid element of the epoch.
    """
    config.validate()
    if len(episodes) < 2:
        raise ValueError("need at least 2 episodes")
    seqs = _episode_sequences(episodes, enc_rgb, enc_disp, stats, config)
    X, Y, M = _pad_batch(seqs)
    d_state = Y.shape[-1]
    rng = np.random.default_rng([config.seed, 3])
    predictor = Predictor(config.latent, d_state, config.hidden, rng)
    params = predictor.named_params()
    opt = nn.Adam([p for _, p in params], config.lr)

    losses = []
    lmax = X.shape[1]
    for epoch in range(config.epochs):
        h, c = predictor.zero_state(X.shape[0])
        sumsq = 0.0
        count = 0.0
        for w0 in range(0, lmax, config.tbptt):
            Xw = X[:, w0:w0 + config.tbptt]
            Yw = Y[:, w0:w0 + config.tbptt]
            Mw = M[:, w0:w0 + config.tbptt]
            if Mw.sum() == 0:
                break
            opt.zero_grad()
            s, n, (h, c) = predictor_window_pass(predictor, Xw, Yw, Mw, h, c)
            nn.clip_grad_norm([p for _, p in params], config.grad_clip)
            opt.step()
            sumsq += s
            count += n
        loss = sumsq / count
        if not np.isfinite(loss):
            raise nn.TrainingDiverged(f"non-finite predictor loss at epoch {epoch}")
        nn.check_finite(params, f"predictor epoch {epoch}")
        losses.append(loss)
    return predictor, losses


# ----------------------------------------------------------------------
# finite-difference gradient verification


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    threshold: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold


def _numeric_grads(loss_fn, params):
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            lp = loss_fn()
            flat[i] = orig - FD_STEP
            lm = loss_fn()
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def _max_rel_err(analytic, numeric) -> float:
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def _check_grads(params, loss_fn, backward) -> float:
    """Max relative error between the gradients `backward` accumulates into
    params (zeroed first) and central differences of `loss_fn`."""
    values = [p for _, p in params]
    for p in values:
        p.grad[...] = 0.0
    backward()
    analytic = [p.grad.copy() for p in values]
    return _max_rel_err(analytic, _numeric_grads(loss_fn, values))


def gradcheck(kind: str, seed: int = 0) -> GradCheckResult:
    """Compare analytic parameter gradients to 64-bit central differences."""
    rng = np.random.default_rng([seed, 99])
    f64 = np.float64

    if kind == "mse":
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        _, analytic = nn.loss_mse(x, y)
        # the loss is quadratic, so central differences are exact up to rounding
        (numeric,) = _numeric_grads(lambda: nn.loss_mse(x, y)[0], [nn.Param(x)])
        err = float(np.max(np.abs(analytic - numeric)))
        return GradCheckResult(kind, err, threshold=1e-9)

    if kind == "lstm":
        pred = Predictor(latent=2, d_state=3, hidden=5, rng=rng, dtype=f64)
        steps = 5
        X = rng.normal(size=(2, steps, pred.n_in))
        Y = rng.normal(size=(2, steps, 3))
        M = np.ones((2, steps))
        M[1, -2:] = 0.0  # exercise the masked path

        def seq_loss():
            s, n, _ = predictor_window_pass(pred, X, Y, M, *pred.zero_state(2),
                                            compute_grads=False)
            return s / n

        err = _check_grads(pred.named_params(), seq_loss,
                           lambda: predictor_window_pass(pred, X, Y, M, *pred.zero_state(2)))
        return GradCheckResult(kind, err)

    if kind == "dense":
        model = nn.Sequential([nn.Dense(5, 7, rng, dtype=f64), nn.ReLU(),
                               nn.Dense(7, 3, rng, dtype=f64)])
        x = rng.normal(size=(4, 5))
        t = rng.normal(size=(4, 3))
    elif kind == "conv":
        model = nn.Sequential([nn.Conv2d(2, 3, rng, stride=1, dtype=f64), nn.ReLU(),
                               nn.Flatten(), nn.Dense(5 * 5 * 3, 4, rng, dtype=f64)])
        x = rng.normal(size=(2, 5, 5, 2))
        t = rng.normal(size=(2, 4))
    elif kind == "conv_stride2":
        model = nn.Sequential([nn.Conv2d(2, 3, rng, stride=2, dtype=f64), nn.Flatten(),
                               nn.Dense(3 * 3 * 3, 4, rng, dtype=f64)])
        x = rng.normal(size=(2, 6, 6, 2))
        t = rng.normal(size=(2, 4))
    elif kind == "upsample":
        model = nn.Sequential([nn.Dense(6, 2 * 2 * 2, rng, dtype=f64), nn.Reshape(2, 2, 2),
                               nn.Upsample2x(), nn.Conv2d(2, 2, rng, stride=1, dtype=f64)])
        x = rng.normal(size=(3, 6))
        t = rng.normal(size=(3, 4, 4, 2))
    elif kind == "autoencoder":
        model = Autoencoder(1, 8, 3, rng, dtype=f64)
        x = t = rng.normal(size=(2, 8, 8, 1))
    else:
        raise ValueError(f"unknown gradcheck kind {kind!r}")

    def loss_fn():
        loss, _ = nn.loss_mse(model.forward(x), t)
        return loss

    err = _check_grads(model.named_params(), loss_fn,
                       lambda: model.backward(nn.loss_mse(model.forward(x), t)[1]))
    return GradCheckResult(kind, err)


GRADCHECK_KINDS = ("mse", "dense", "conv", "conv_stride2", "upsample", "lstm", "autoencoder")


def gradcheck_all(seed: int = 0):
    return [gradcheck(kind, seed) for kind in GRADCHECK_KINDS]
