"""Binary image dumps (PPM P6 for RGB, 16-bit PGM P5 for disparity) and
the block-mean downscaling used at the learner boundary."""

from __future__ import annotations

import re

import numpy as np

PGM_DISPARITY_SCALE = 256.0  # stored value = round(disparity * scale)


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.tobytes())


def _read_pnm(path, magic: bytes, maxval: bytes, dtype, channels: int) -> np.ndarray:
    """Raster after the header lines `magic`, `W H`, `maxval`, as written here,
    and nothing after it; anything else raises ValueError naming the path and
    the offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) < 4:
        raise ValueError(f"{path}: truncated header at offset {len(blob)}")
    head, dims, top, raster = parts
    if head != magic:
        raise ValueError(f"{path}: bad magic {head[:8]!r} at offset 0, expected {magic!r}")
    size = re.fullmatch(rb"(\d+) (\d+)", dims)
    if size is None:
        raise ValueError(f"{path}: bad size {dims[:32]!r} at offset {len(head) + 1}")
    if top != maxval:
        raise ValueError(f"{path}: bad maxval {top[:8]!r} at offset {len(head) + len(dims) + 2}")
    w, h = int(size[1]), int(size[2])
    count = h * w * channels
    start, size = len(blob) - len(raster), count * np.dtype(dtype).itemsize
    if len(raster) < size:
        raise ValueError(f"{path}: truncated raster at offset {start}: "
                         f"need {count} samples of {h}x{w}x{channels}")
    if len(raster) > size:
        raise ValueError(f"{path}: {len(raster) - size} trailing bytes at offset {start + size}")
    return np.frombuffer(raster, dtype=dtype, count=count).reshape(h, w, channels).copy()


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", b"255", np.uint8, 3)


def write_pgm16(path, values: np.ndarray) -> None:
    """Big-endian 16-bit PGM of round(values * PGM_DISPARITY_SCALE), clamped to [0, 65535]."""
    scaled = np.clip(np.rint(np.asarray(values, dtype=float) * PGM_DISPARITY_SCALE), 0, 65535)
    data = scaled.astype(">u2")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(data.tobytes())


def read_pgm16(path) -> np.ndarray:
    return _read_pnm(path, b"P5", b"65535", ">u2", 1)[..., 0]


def block_mean(img: np.ndarray, factor: int) -> np.ndarray:
    """Downscale by integer factor with 2D block averaging.

    The last three axes are (H, W, channels), so a stack of frames is
    downscaled in one call.
    """
    if factor == 1:
        return np.asarray(img, dtype=np.float64)
    x = np.asarray(img, dtype=np.float64)
    h, w = x.shape[-3:-1]
    if h % factor or w % factor:
        raise ValueError(f"image {h}x{w} not divisible by factor {factor}")
    blocks = x.reshape(*x.shape[:-3], h // factor, factor, w // factor, factor, x.shape[-1])
    return blocks.mean(axis=(-4, -2))
