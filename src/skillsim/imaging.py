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
    downscaled in one call. Each block is summed in float64 from its phase
    slices `x[..., a::f, b::f, :]`: the f values of block row a from left to
    right, then the rows from top to bottom; the sum is divided by f*f.

    This is bit-equal to `reshape(..., H/f, f, W/f, f, C).mean(axis=(-4, -2))`
    on every input the program passes:
    - RGB frames are uint8, so every partial sum is an integer below
      16 * 255 < 2**53 and exact in any order.
    - Disparity frames have one channel. Their sums need not be exact: a
      scene may place a surface at any distance, and depth noise can leave
      a positive depth as close to 0 as float32 allows, so fb / depth32 can
      range from about 2**-126 to inf: far more than the 25 binades (27 at
      f = 2) within which f*f float32 values always add exactly in float64. The order above is
      numpy's own for one channel whenever W > f, as the input is
      contiguous: it reduces each block row with an inner loop over b and
      adds the rows into the output in turn (`-0.0 + s` is `s`).
    With several channels numpy adds a whole block in row-major order, which
    can differ from the order above only when a sum is inexact.
    """
    if factor == 1:
        return np.asarray(img, dtype=np.float64)
    x = np.asarray(img, dtype=np.float64)
    h, w = x.shape[-3:-1]
    if h % factor or w % factor:
        raise ValueError(f"image {h}x{w} not divisible by factor {factor}")
    total = None
    for a in range(factor):
        row = x[..., a::factor, 0::factor, :] + x[..., a::factor, 1::factor, :]
        for b in range(2, factor):
            row += x[..., a::factor, b::factor, :]
        if total is None:
            total = row
        else:
            total += row
    total /= factor * factor
    return total
