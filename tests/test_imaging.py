"""PPM/PGM round trips and block-mean downscaling."""

import numpy as np
import pytest

from skillsim import World
from skillsim.imaging import (
    block_mean,
    read_pgm16,
    read_ppm,
    write_pgm16,
    write_ppm,
)
from skillsim.scene import make_scene


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    back = read_ppm(path)
    assert np.array_equal(back, rgb)
    header = path.read_bytes()[:15]
    assert header.startswith(b"P6\n64 48\n255\n")


def test_pgm16_round_trip_scaled(tmp_path):
    rng = np.random.default_rng(1)
    disparity = rng.uniform(0, 12, (32, 32))
    path = tmp_path / "disp.pgm"
    write_pgm16(path, disparity)
    back = read_pgm16(path)
    assert back.dtype.str == ">u2"
    assert np.array_equal(back.astype(np.uint32),
                          np.rint(disparity * 256.0).astype(np.uint32))


def test_pgm16_clamps(tmp_path):
    path = tmp_path / "big.pgm"
    write_pgm16(path, np.full((4, 4), 1e9))
    assert np.all(read_pgm16(path) == 65535)


def test_block_mean_values():
    img = np.arange(16, dtype=float).reshape(4, 4, 1)
    out = block_mean(img, 2)
    assert out.shape == (2, 2, 1)
    assert out[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)


def test_block_mean_channels_and_identity():
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(8, 8, 3))
    assert block_mean(img, 1).shape == (8, 8, 3)
    out = block_mean(img, 4)
    assert out.shape == (2, 2, 3)
    with pytest.raises(ValueError, match="not divisible"):
        block_mean(img, 3)


# ----------------------------------------------------------------------
# frozen reference: block_mean as it was before the phase-slice sums.
# block_mean must match it bit for bit on the frames the program feeds it.


def block_mean_reference(img, factor):
    if factor == 1:
        return np.asarray(img, dtype=np.float64)
    x = np.asarray(img, dtype=np.float64)
    h, w = x.shape[-3:-1]
    blocks = x.reshape(*x.shape[:-3], h // factor, factor, w // factor, factor, x.shape[-1])
    return blocks.mean(axis=(-4, -2))


def camera_disparity(rng, shape):
    """fb / depth32 on positive depths and 0 elsewhere, as the renderer forms it. Depths
    spread over 15 decades, so that block sums are inexact and their order shows, and the
    extremes are mixed in: the largest float32 depth (the smallest disparity), depths
    giving the largest finite disparity and inf, and no hit."""
    depth = (10.0 ** rng.uniform(-12.0, 3.0, size=shape)).astype(np.float32)
    pick = rng.integers(0, 32, size=shape)
    depth[pick == 0] = 0.0
    depth[pick == 1] = np.finfo(np.float32).max
    depth[pick == 2] = NEAREST_FINITE_DEPTH
    depth[pick == 3] = np.finfo(np.float32).smallest_subnormal
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(depth > 0.0, FB / depth, np.float32(0.0))


FB = np.float32(60.0 * 0.08)  # the default camera's focal_px * baseline_m
NEAREST_FINITE_DEPTH = np.float32(FB / np.finfo(np.float32).max)
while not np.isfinite(FB / NEAREST_FINITE_DEPTH):
    NEAREST_FINITE_DEPTH = np.nextafter(NEAREST_FINITE_DEPTH, np.float32(1.0))


def rendered(variant, seeds):
    frames = [World(make_scene(s, variant)).render() for s in seeds]
    return (np.stack([f.rgb for f in frames]), np.stack([f.disparity for f in frames]))


@pytest.mark.parametrize("factor", [2, 4])
def test_block_mean_bit_equal_to_reference(factor):
    rng = np.random.default_rng(30 + factor)
    disparity = camera_disparity(rng, (6, 64, 64))
    finite = disparity[np.isfinite(disparity)]
    assert finite.min() == 0.0 and finite.max() == FB / NEAREST_FINITE_DEPTH > 1e38
    assert finite[finite > 0].min() == FB / np.finfo(np.float32).max < 2.0 ** -125
    assert np.isinf(disparity).any()
    rgb = rng.integers(0, 256, (6, 64, 64, 3), dtype=np.uint8)
    rgb[:, ::3] = 255
    frames = [(rgb, disparity), rendered("short", [0, 7]), rendered("long", [0, 3])]
    for rgb, disparity in frames:
        for img in (rgb, disparity[..., None]):          # as models.standardize_* pass them
            for x in (img, img[0], img[1]):              # a stack and single frames
                out = block_mean(x, factor)
                ref = block_mean_reference(x, factor)
                assert out.dtype == ref.dtype and out.shape == ref.shape
                assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("blob, reader, message", [
    (b"P6\n4 4", read_ppm, r"truncated header at offset 6"),
    (b"P6\nx y\n255\n", read_ppm, r"bad size b'x y' at offset 3"),
    (b"P6\n4 4\n65535\n", read_ppm, r"bad maxval b'65535' at offset 7"),
    (b"P6\n4 4\n255\n" + bytes(47), read_ppm, r"truncated raster at offset 11"),
    (b"P6\n4 4\n255\n" + bytes(48), read_pgm16, r"bad magic b'P6' at offset 0"),
    (b"P6\n2 2\n255\n" + bytes(12) + b"garbage", read_ppm, r"7 trailing bytes at offset 23"),
    (b"P5\n2 1\n65535\n" + bytes(5), read_pgm16, r"1 trailing bytes at offset 17"),
], ids=["short-header", "non-numeric-size", "wrong-maxval", "short-raster", "wrong-magic",
        "trailing-ppm", "trailing-pgm"])
def test_pnm_malformed_names_path_and_offset(tmp_path, blob, reader, message):
    path = tmp_path / "bad.pnm"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=message) as info:
        reader(path)
    assert str(path) in str(info.value)
