"""PPM/PGM round trips and block-mean downscaling."""

import numpy as np
import pytest

from skillsim.imaging import (
    block_mean,
    read_pgm16,
    read_ppm,
    write_pgm16,
    write_ppm,
)


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
