"""Point-cloud filtering and color-based object localization.

The localization pipeline runs, in order: voxel-grid downsampling,
statistical outlier removal, color segmentation, centroid. All operations
are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PerceptionError(ValueError):
    """Localization failure (empty segment, too few points for k-NN)."""


@dataclass
class PointCloud:
    """Positions (N, 3) in meters with RGB colors (N, 3) in [0, 1]."""

    positions: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.colors = np.asarray(self.colors, dtype=float).reshape(-1, 3)
        if self.positions.shape[0] != self.colors.shape[0]:
            raise ValueError("positions and colors must have matching length")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("point coordinates must be finite")

    def __len__(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)))


@dataclass
class PerceptionParams:
    leaf: float = 0.01
    k_neighbors: int = 8
    alpha: float = 1.0
    color_threshold: float = 0.25

    def validate(self):
        if self.leaf <= 0:
            raise ValueError("leaf must be positive")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0 < self.color_threshold <= np.sqrt(3.0):
            raise ValueError("color_threshold must be in (0, sqrt(3)]")


def voxel_grid_filter(cloud: PointCloud, leaf: float) -> PointCloud:
    """Downsample to one mean point per occupied cubic cell of size `leaf`.

    Output points are ordered by ascending (ix, iy, iz) cell index; members
    of each cell are averaged in a canonical order so the result is exactly
    invariant to permutations of the input.
    """
    if leaf <= 0:
        raise ValueError("leaf must be positive")
    if len(cloud) == 0:
        return PointCloud.empty()
    pos, col = cloud.positions, cloud.colors
    idx = np.floor(pos / leaf).astype(np.int64)
    order = np.lexsort((
        col[:, 2], col[:, 1], col[:, 0],
        pos[:, 2], pos[:, 1], pos[:, 0],
        idx[:, 2], idx[:, 1], idx[:, 0],
    ))
    idx_s, pos_s, col_s = idx[order], pos[order], col[order]
    new_cell = np.any(idx_s[1:] != idx_s[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new_cell)))
    counts = np.diff(np.concatenate((starts, [len(cloud)])))[:, None]
    mean_pos = np.add.reduceat(pos_s, starts, axis=0) / counts
    mean_col = np.add.reduceat(col_s, starts, axis=0) / counts
    return PointCloud(mean_pos, mean_col)


KNN_CHUNK = 64  # rows per block of the brute-force k-NN


def _knn_mean_distances(pos: np.ndarray, k: int) -> np.ndarray:
    """Mean distance from each point to its k nearest neighbors (brute force).

    Exact: bit-equal to taking `np.sqrt(np.sum(diff * diff, axis=2))` over the
    full (n, n, 3) difference tensor, sorting each row and averaging its first
    k. Squared distances accumulate as (dx*dx + dy*dy) + dz*dz, the order numpy
    sums a length-3 axis in, and since sqrt is monotone the k smallest squared
    distances give the same k sorted distances. Rows go in blocks of
    KNN_CHUNK so the (KNN_CHUNK, n) buffers stay in cache.
    """
    n = pos.shape[0]
    x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
    out = np.empty(n)
    d2 = np.empty((min(KNN_CHUNK, n), n))
    sq = np.empty_like(d2)
    for lo in range(0, n, KNN_CHUNK):
        hi = min(lo + KNN_CHUNK, n)
        acc, tmp = d2[:hi - lo], sq[:hi - lo]
        np.subtract(x[lo:hi, None], x, out=acc)
        np.multiply(acc, acc, out=acc)
        for col in (y, z):
            np.subtract(col[lo:hi, None], col, out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            acc += tmp
        acc[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nearest = np.sort(np.partition(acc, k - 1, axis=1)[:, :k], axis=1)
        out[lo:hi] = np.sqrt(nearest).mean(axis=1)
    return out


def statistical_outlier_removal(cloud: PointCloud, k: int, alpha: float) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds mean + alpha * std.

    The standard deviation is the population one over all per-point mean
    distances. Survivors keep their input order.
    """
    n = len(cloud)
    if n <= k:
        raise PerceptionError("insufficient points for k-NN")
    d = _knn_mean_distances(cloud.positions, k)
    keep = d <= d.mean() + alpha * d.std()
    return PointCloud(cloud.positions[keep], cloud.colors[keep])


def color_segment(cloud: PointCloud, target: np.ndarray, threshold: float) -> PointCloud:
    """Keep points whose RGB Euclidean distance to `target` is at most `threshold`."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    target = np.asarray(target, dtype=float)
    diff = cloud.colors - target[None, :]
    keep = np.sqrt(np.sum(diff * diff, axis=1)) <= threshold
    return PointCloud(cloud.positions[keep], cloud.colors[keep])


def centroid(cloud: PointCloud) -> np.ndarray:
    if len(cloud) == 0:
        raise PerceptionError("object not found")
    return cloud.positions.mean(axis=0)


def locate_object(frame, target_color: np.ndarray, params: PerceptionParams | None = None) -> np.ndarray:
    """Full pipeline on a sensor frame's cloud; returns the estimated location."""
    params = params or PerceptionParams()
    params.validate()
    filtered = voxel_grid_filter(frame.cloud, params.leaf)
    cleaned = statistical_outlier_removal(filtered, params.k_neighbors, params.alpha)
    segment = color_segment(cleaned, target_color, params.color_threshold)
    return centroid(segment)

