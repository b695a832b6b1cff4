"""Binary image dumps (PPM P6 for RGB, 16-bit PGM P5 for disparity) and
the block-mean downscaling used at the learner boundary."""

from __future__ import annotations

import numpy as np

PGM_DISPARITY_SCALE = 256.0  # stored value = round(disparity * scale)


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, raster = blob.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 PPM")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(raster, dtype=np.uint8, count=h * w * 3).reshape(h, w, 3).copy()


def write_pgm16(path, values: np.ndarray, scale: float = PGM_DISPARITY_SCALE) -> None:
    """Big-endian 16-bit PGM of round(values * scale), clamped to [0, 65535]."""
    scaled = np.clip(np.rint(np.asarray(values, dtype=float) * scale), 0, 65535)
    data = scaled.astype(">u2")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(data.tobytes())


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, raster = blob.split(b"\n", 3)
    if magic != b"P5" or maxval != b"65535":
        raise ValueError(f"{path}: not a 16-bit P5 PGM")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(raster, dtype=">u2", count=h * w).reshape(h, w).copy()


def block_mean(img: np.ndarray, factor: int) -> np.ndarray:
    """Downscale by integer factor with 2D block averaging.

    A 2-D input is one (H, W) image; otherwise the last three axes are
    (H, W, channels), so a stack of frames is downscaled in one call.
    """
    if factor == 1:
        return np.asarray(img, dtype=np.float64)
    x = np.asarray(img, dtype=np.float64)
    h, w = x.shape[:2] if x.ndim == 2 else x.shape[-3:-1]
    if h % factor or w % factor:
        raise ValueError(f"image {h}x{w} not divisible by factor {factor}")
    if x.ndim == 2:
        return x.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))
    blocks = x.reshape(*x.shape[:-3], h // factor, factor, w // factor, factor, x.shape[-1])
    return blocks.mean(axis=(-4, -2))
