"""Point-cloud filtering and color-based object localization.

The localization pipeline runs, in order: voxel-grid downsampling,
statistical outlier removal, color segmentation, centroid. All operations
are pure functions of their inputs.

Outlier removal needs each point's k nearest neighbors. They are found on a
grid of cubic cells, widening only the rows whose answer is not yet proven,
and the mean distances equal brute force's bit for bit (see
`_knn_mean_distances`). Memory stays linear in the number of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checks
from .checks import bound, check, non_negative, param, positive, positive_int


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
    leaf: float = param(0.01, positive)
    k_neighbors: int = param(8, positive_int)
    alpha: float = param(1.0, non_negative)
    color_threshold: float = param(0.25, bound(positive, "<=", float(np.sqrt(3.0))))

    def validate(self):
        checks.validate(self)


def voxel_grid_filter(cloud: PointCloud, leaf: float) -> PointCloud:
    """Downsample to one mean point per occupied cubic cell of size `leaf`.

    Output points are ordered by ascending (ix, iy, iz) cell index; members
    of each cell are averaged in a canonical order so the result is exactly
    invariant to permutations of the input.
    """
    check("leaf", leaf, positive)
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


KNN_SLOTS = 1 << 16  # candidate slots (rows x padded width) per block of the k-NN
KNN_CELLS_PER_K = 128  # first-level cells in the bounding box, per point, times k


def _knn_mean_distances(pos: np.ndarray, k: int) -> np.ndarray:
    """Mean distance from each point to its k nearest neighbors (exact, cell grid).

    Brute force forms every pair's squared distance (dx*dx + dy*dy) + dz*dz,
    dx = x_i - x_j, sets the point's own to inf, sorts the row and averages
    the square roots of its first k. This function returns the same bits.

    Exactness. Points are bucketed into cubic cells of size h, and a row's
    candidates are the points of the 3x3x3 block of cells around its own.
    Each candidate's squared distance is formed by brute force's operations
    in brute force's order, so it has brute force's bits. The multiset of a
    row's k smallest squared distances is unique, ties included. So if every
    point left out has a squared distance no smaller than the row's k-th
    candidate value, the sorted k values, their roots and their mean are
    brute force's. A row is final when its k-th value is strictly below the
    squared distance from the point to the nearest face of its block that has
    cells behind it; a block face at the edge of the grid has no points
    behind it and does not count.

    Rounding. Cell indices are floor((p - min) / h) of a rounded quotient, so
    a left-out point may sit a little inside a face. The face distance is
    taken in cell units from that same quotient, (1 + frac) below and
    (2 - frac) above, and its square is shrunk by the relative margin
    8 * eps * (G + 2), G the widest grid dimension. The quotient is off by at
    most ~2 eps * G cells and each squared distance by a few eps, so the
    margin covers both. Clouds whose extent is zero, or so large or small
    that these squares would overflow or go subnormal, go into one cell.

    Widening. Rows that are not final are evaluated again with every point
    bucketed into cells twice as large, until the cells cover the bounding
    box. Then the block is the whole cloud, which is the brute-force case,
    and every row is final.

    Cell size. The first cells make about KNN_CELLS_PER_K * n / k cells in
    the bounding box, counting only the axes the cloud spans (h is the
    largest of the 1-, 2- and 3-axis sizes). The argument above holds for
    any h, so h sets only the cost: smaller cells give the first ring fewer
    candidates a row and leave more rows to the wider rings. The surfaces a
    depth camera sees fill little of their box, and the first ring costs
    most. On the long scenes' 4096-point start frames, 128 cells per point
    per k gave the first ring 82-86 candidate slots a row where 32 gave
    166-179.

    Memory. The cell table and the per-cell counts each have at most
    ~7 * KNN_CELLS_PER_K * n / k entries, so they grow with KNN_CELLS_PER_K:
    at 128 and k = 8 that is 112 int64 entries a point. The per-row tables
    have 9 entries a row. Candidates are padded into row blocks of at most
    KNN_SLOTS slots; a row wider than that goes alone, with at most n slots.
    """
    n = pos.shape[0]
    lo = pos.min(axis=0)
    e1, e2, e3 = np.sort(pos.max(axis=0) - lo)[::-1]
    cells = KNN_CELLS_PER_K * n / k
    h = 0.0
    if e1 < 2.0 ** 300:  # the products stay finite, and so do the squared distances
        h = max(e1 / cells, np.sqrt(e1 * e2 / cells), np.cbrt(e1 * e2 * e3 / cells))
    if not h > 2.0 ** -500:  # zero extent, or squares near the subnormal range
        h = np.inf  # one cell
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        pending = _knn_ring(pos, lo, h, k, pending, out)
        h *= 2.0
    return out


def _knn_ring(pos, lo, h, k, rows, out):
    """Evaluate `rows` on cells of size `h`; write the final ones, return the rest."""
    n = pos.shape[0]
    u = (pos - lo) / h
    cell = np.floor(u)
    frac = u[rows] - cell[rows]  # exact
    cell = cell.astype(np.int64)
    dims = cell.max(axis=0) + 1
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    first = np.zeros(dims.prod() + 1, np.int64)  # first sorted point of each cell
    np.cumsum(np.bincount(key, minlength=dims.prod()), out=first[1:])
    # sorted coordinates, and a point at infinity that pads short rows
    x, y, z = (np.append(pos[order, a], np.inf) for a in range(3))

    # nine z-runs of three cells each: (x-1..x+1, y-1..y+1) columns, z-1..z+1
    c = cell[rows]
    cx = c[:, :1] + np.repeat([-1, 0, 1], 3)
    cy = c[:, 1:2] + np.tile([-1, 0, 1], 3)
    inside = (cx >= 0) & (cx < dims[0]) & (cy >= 0) & (cy < dims[1])
    col = np.where(inside, (cx * dims[1] + cy) * dims[2], 0)
    start = first[col + np.maximum(c[:, 2:] - 1, 0)]
    count = np.where(inside, first[col + np.minimum(c[:, 2:] + 1, dims[2] - 1) + 1] - start, 0)
    total = count.sum(axis=1)
    own = count[:, :4].sum(axis=1) + rank[rows] - start[:, 4]  # slot of the point itself
    gap = np.minimum(np.where(c > 1, 1.0 + frac, np.inf),
                     np.where(c < dims - 2, 2.0 - frac, np.inf)).min(axis=1)
    bound = np.square(gap * h) * (1.0 - 8.0 * np.finfo(float).eps * (dims.max() + 2))

    by = np.argsort(total, kind="stable")  # similar widths share a block
    width = np.maximum(total[by], k)
    rest = []
    b0 = 0
    while b0 < rows.size:
        span = width[b0:b0 + max(1, KNN_SLOTS // width[b0])]
        b1 = b0 + max(1, int(np.count_nonzero(span * np.arange(1, span.size + 1) <= KNN_SLOTS)))
        sel = by[b0:b1]
        w = width[b1 - 1]
        runs = count[sel].ravel()
        idx = np.full((sel.size, w), n)
        idx[np.arange(w) < total[sel, None]] = (
            np.arange(runs.sum()) + np.repeat(start[sel].ravel() - (np.cumsum(runs) - runs), runs))
        i = rows[sel, None]
        d2 = np.take(x, idx)
        np.subtract(pos[i, 0], d2, out=d2)
        d2 *= d2
        sq = np.take(y, idx)
        np.subtract(pos[i, 1], sq, out=sq)
        sq *= sq
        d2 += sq
        np.take(z, idx, out=sq)
        np.subtract(pos[i, 2], sq, out=sq)
        sq *= sq
        d2 += sq
        d2[np.arange(sel.size), own[sel]] = np.inf
        nearest = np.sort(np.partition(d2, k - 1, axis=1)[:, :k], axis=1)
        final = (nearest[:, -1] < bound[sel]) | (gap[sel] == np.inf)
        out[i[final, 0]] = np.sqrt(nearest[final]).mean(axis=1)
        rest.append(i[~final, 0])
        b0 = b1
    return np.concatenate(rest)


def statistical_outlier_removal(cloud: PointCloud, k: int, alpha: float) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds mean + alpha * std.

    The standard deviation is the population one over all per-point mean
    distances. Survivors keep their input order.
    """
    check("k", k, positive_int)
    check("alpha", alpha, non_negative)
    n = len(cloud)
    if n <= k:
        raise PerceptionError("insufficient points for k-NN")
    d = _knn_mean_distances(cloud.positions, k)
    keep = d <= d.mean() + alpha * d.std()
    return PointCloud(cloud.positions[keep], cloud.colors[keep])


def color_segment(cloud: PointCloud, target: np.ndarray, threshold: float) -> PointCloud:
    """Keep points whose RGB Euclidean distance to `target` is at most `threshold`."""
    check("threshold", threshold, positive)
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

