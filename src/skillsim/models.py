"""Model architectures and binary model persistence.

Two convolutional autoencoders (RGB and disparity) compress frames to
latent vectors; a recurrent predictor maps (z_rgb, z_disp, state) to the
next state. Model files: magic "SKLMODL1", u32 schema version, u32 entry
count, then a named-parameter table of (name, shape, little-endian f32
data); integer architecture metadata rides in reserved "meta/" entries.
"""

from __future__ import annotations

import inspect
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from . import nn
from .dataset import NormStats, state_dim
from .imaging import block_mean
from .checks import one_of
from .scene import reader

MODEL_MAGIC = b"SKLMODL1"
MODEL_VERSION = 1


class ModelError(ValueError):
    """Unreadable or mismatched model file."""


class Autoencoder:
    """conv(s2) x3 + dense encoder; mirrored dense + upsample/conv decoder.

    Hidden activations are rectified, outputs (and the latent) are linear.
    Input resolution must be divisible by 8.
    """

    def __init__(self, channels: int, hw: int, latent: int, rng=None, dtype=np.float32):
        if hw % 8:
            raise ValueError("autoencoder input resolution must be divisible by 8")
        rng = rng or np.random.default_rng(0)
        self.channels, self.hw, self.latent = channels, hw, latent
        feat = hw // 8
        flat = feat * feat * 32
        self.encoder = nn.Sequential([
            nn.Conv2d(channels, 8, rng, stride=2, dtype=dtype), nn.ReLU(),
            nn.Conv2d(8, 16, rng, stride=2, dtype=dtype), nn.ReLU(),
            nn.Conv2d(16, 32, rng, stride=2, dtype=dtype), nn.ReLU(),
            nn.Flatten(),
            nn.Dense(flat, latent, rng, dtype=dtype),
        ])
        self.decoder = nn.Sequential([
            nn.Dense(latent, flat, rng, dtype=dtype), nn.ReLU(),
            nn.Reshape(feat, feat, 32),
            nn.Upsample2x(), nn.Conv2d(32, 16, rng, stride=1, dtype=dtype), nn.ReLU(),
            nn.Upsample2x(), nn.Conv2d(16, 8, rng, stride=1, dtype=dtype), nn.ReLU(),
            nn.Upsample2x(), nn.Conv2d(8, channels, rng, stride=1, dtype=dtype),
        ])

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.encoder.forward(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.decoder.forward(self.encoder.forward(x))

    def backward(self, dout: np.ndarray) -> None:
        """Add every parameter's gradient. No caller reads the gradient of the
        input frames, so the first conv does not form it."""
        d = self.decoder.backward(dout)
        first, *rest = self.encoder.layers
        for layer in reversed(rest):
            d = layer.backward(d)
        first.backward(d, input_grad=False)

    def named_params(self):
        return self.encoder.named_params("enc") + self.decoder.named_params("dec")

    def meta(self) -> dict:
        return {"kind": 1, "channels": self.channels, "hw": self.hw, "latent": self.latent}

    @staticmethod
    def param_count(channels: int, hw: int, latent: int) -> int:
        """Elements of named_params(), from the arguments alone, allocating nothing."""
        flat = (hw // 8) ** 2 * 32
        convs = ((channels, 8), (8, 16), (16, 32), (32, 16), (16, 8), (8, channels))
        return sum(9 * c_in * c_out + c_out for c_in, c_out in convs) + (flat + 1) * latent \
            + (latent + 1) * flat


class Predictor:
    """LSTM cell over (z_rgb, z_disp, state) with a linear readout to the next state."""

    def __init__(self, latent: int, d_state: int, hidden: int, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.latent, self.d_state, self.hidden = latent, d_state, hidden
        self.n_in = 2 * latent + d_state
        self.cell = nn.LSTMCell(self.n_in, hidden, rng, dtype=dtype)
        self.readout = nn.Dense(hidden, d_state, rng, dtype=dtype)

    def zero_state(self, batch: int = 1):
        return self.cell.zero_state(batch)

    def step(self, x: np.ndarray, state):
        """One recurrent step on a (batch, n_in) input; returns (y, new_state)."""
        h, c = state
        h2, c2, _ = self.cell.step(x, h, c)
        return self.readout.forward(h2), (h2, c2)

    def named_params(self):
        return self.cell.named_params("cell") + self.readout.named_params("readout")

    def meta(self) -> dict:
        return {"kind": 2, "latent": self.latent, "d_state": self.d_state,
                "hidden": self.hidden}

    @staticmethod
    def param_count(latent: int, d_state: int, hidden: int) -> int:
        """Elements of named_params(), from the arguments alone, allocating nothing."""
        return (2 * latent + d_state + hidden + 1) * 4 * hidden + (hidden + 1) * d_state


# ----------------------------------------------------------------------
# persistence


def _write_entry(fh, name: str, arr: np.ndarray):
    encoded = name.encode()
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_model(path, model) -> None:
    entries = [(name, p.value) for name, p in model.named_params()]
    entries += [(f"meta/{k}", np.array([float(v)], dtype=np.float32))
                for k, v in sorted(model.meta().items())]
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            _write_entry(fh, name, arr)


def _read_entries(path) -> dict:
    try:
        blob = FsPath(path).read_bytes()
    except FileNotFoundError:
        raise ModelError(f"missing model file {path}") from None
    if blob[:8] != MODEL_MAGIC:
        raise ModelError(f"{path}: not a model file (bad magic)")
    off = 8

    def need(size: int) -> int:
        """Offset of the next `size` bytes, after checking they exist."""
        nonlocal off
        if off + size > len(blob):
            raise ModelError(f"{path}: truncated at offset {off}: need {size} bytes, "
                             f"{len(blob) - off} left")
        off += size
        return off - size

    version, count = struct.unpack_from("<II", blob, need(8))
    if version != MODEL_VERSION:
        raise ModelError(f"{path}: unsupported model version {version}")
    entries = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, need(2))
        start = need(name_len)
        try:
            name = blob[start:off].decode()
        except UnicodeDecodeError:
            raise ModelError(f"{path}: entry name at offset {start} is not UTF-8") from None
        (ndim,) = struct.unpack_from("<B", blob, need(1))
        if ndim > 32:  # numpy's lowest rank limit; parameters have at most 4 dimensions
            raise ModelError(f"{path}: {ndim} dimensions at offset {off - 1}")
        shape = struct.unpack_from(f"<{ndim}I", blob, need(4 * ndim))
        size = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f4", count=size, offset=need(4 * size))
        entries[name] = arr.reshape(shape).copy()
    if off != len(blob):
        raise ModelError(f"{path}: {len(blob) - off} trailing bytes")
    return entries


def _meta_int(value: np.ndarray) -> int:
    if value.shape != (1,) or not (value[0] >= 1 and float(value[0]).is_integer()):
        raise ValueError(f"{value.tolist()} is not one integer >= 1")
    return int(value[0])


def load_model(path):
    entries = _read_entries(path)
    meta = {name[5:]: v for name, v in entries.items() if name.startswith("meta/")}
    try:
        # any keys until the kind is known, then exactly the arguments meta() writes
        kind = reader(meta, meta, "meta/")("kind", lambda v: one_of(1, 2)(_meta_int(v)))
        cls = {1: Autoencoder, 2: Predictor}[kind]
        args = [p.name for p in inspect.signature(cls).parameters.values() if p.default is p.empty]
        read = reader(meta, ["kind", *args], "meta/")
        values = {name: read(name, _meta_int) for name in args}
        # checked before the model is built, so a bad meta integer cannot allocate
        needed = cls.param_count(**values)
        stored = sum(v.size for name, v in entries.items() if not name.startswith("meta/"))
        if needed != stored:
            raise ValueError(f"meta {values} describe {needed} parameter values, "
                             f"the file stores {stored}")
        model = cls(**values)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from None
    for name, p in model.named_params():
        if name not in entries:
            raise ModelError(f"{path}: missing parameter {name}")
        if entries[name].shape != p.value.shape:
            raise ModelError(f"{path}: parameter {name} has shape "
                             f"{entries[name].shape}, expected {p.value.shape}")
        p.value[...] = entries[name]
    return model


# ----------------------------------------------------------------------
# inference-time bundle


def standardize_rgb(rgb: np.ndarray, stats: NormStats, downscale: int) -> np.ndarray:
    """uint8 (..., H, W, 3) images to standardized float32 at learner resolution."""
    img = block_mean(rgb, downscale) / 255.0
    return ((img - stats.image_mean) / stats.image_std).astype(np.float32)


def standardize_disparity(disp: np.ndarray, stats: NormStats, downscale: int) -> np.ndarray:
    """float32 (..., H, W) disparity to standardized (..., h, w, 1) at learner resolution."""
    img = block_mean(disp[..., None], downscale)
    return ((img - stats.disp_mean) / stats.disp_std).astype(np.float32)


@dataclass
class PolicyBundle:
    """Everything needed to run the policy closed loop.

    Contract: once the bundle is in use, nothing changes its models or stats
    in place, neither their parameters nor their arrays. Assigning a new
    object to a field is allowed.

    `encode_frame` relies on it. It keeps the RGB latent of the last frame it
    encoded, keyed on that frame's RGB shape, dtype and bytes and on the
    `enc_rgb` and `stats` objects it used. While all of these are unchanged,
    it returns the kept latent and skips `standardize_rgb` and the encoder.
    The encoder is a deterministic function of its input bytes and its
    weights, so the kept latent has the bits a new pass would give. The
    disparity latent is computed on every call: depth noise is drawn anew
    for each frame, so its bytes do not repeat.
    """

    enc_rgb: Autoencoder
    enc_disp: Autoencoder
    predictor: Predictor
    stats: NormStats
    # (enc_rgb, stats, (shape, dtype, bytes) of the RGB frame, its latent)
    _rgb_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def d_state(self) -> int:
        return self.predictor.d_state

    @property
    def variant(self) -> str:
        variants = {state_dim(v): v for v in ("short", "long")}
        if self.d_state not in variants:
            raise ModelError(f"predictor state dimension {self.d_state} is neither "
                             + " nor ".join(f"{d} ({v})" for d, v in variants.items()))
        return variants[self.d_state]

    def encode_frame(self, frame) -> np.ndarray:
        """The (z_rgb, z_disp) latent of one square frame, as a new array."""
        rgb, disparity = frame.rgb, frame.disparity
        hw, width = self.enc_rgb.hw, rgb.shape[1]
        if self.enc_disp.hw != hw:
            raise ModelError(f"RGB encoder input {hw} differs from disparity "
                             f"encoder input {self.enc_disp.hw}")
        if rgb.shape[:2] != (width, width) or disparity.shape != (width, width):
            raise ModelError(f"frame RGB shape {rgb.shape} and disparity shape "
                             f"{disparity.shape} are not square frames of one size")
        if width % hw:
            raise ModelError(f"frame width {width} is not a multiple of "
                             f"encoder input size {hw}")
        downscale = width // hw
        key = (rgb.shape, rgb.dtype, rgb.tobytes())
        memo = self._rgb_memo
        if memo is not None and memo[0] is self.enc_rgb and memo[1] is self.stats \
                and memo[2] == key:
            z_rgb = memo[3]
        else:
            z_rgb = self.enc_rgb.encode(standardize_rgb(rgb[None], self.stats, downscale))
            self._rgb_memo = (self.enc_rgb, self.stats, key, z_rgb)
        z_disp = self.enc_disp.encode(
            standardize_disparity(disparity[None], self.stats, downscale))
        return np.concatenate([z_rgb[0], z_disp[0]])


def predict_next(bundle: PolicyBundle, frame, state_norm: np.ndarray, hidden):
    """One policy step: encode the frame, run the cell, return (next_state_norm, hidden').

    Pure given (bundle, frame, state_norm, hidden); hidden is the
    (h, c) pair from the previous call or predictor.zero_state(1). The bundle
    must be frozen (see PolicyBundle): a frame whose RGB bytes equal the last
    one's reuses its RGB latent, which is exact only while the RGB encoder
    and the stats are unchanged in place.
    """
    z = bundle.encode_frame(frame)
    x = np.concatenate([z, np.asarray(state_norm, dtype=np.float32)])[None, :]
    y, hidden2 = bundle.predictor.step(x.astype(np.float32), hidden)
    return y[0], hidden2
