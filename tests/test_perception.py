"""Filter pipeline against brute-force oracles and renderer ground truth."""

import numpy as np
import pytest

from skillsim import (
    PerceptionError,
    PerceptionParams,
    PointCloud,
    World,
    centroid,
    color_segment,
    locate_object,
    statistical_outlier_removal,
    voxel_grid_filter,
)
from skillsim import perception
from skillsim.perception import _knn_mean_distances
from skillsim.scene import make_scene, make_short_scene


def random_cloud(rng, n, scale=1.0):
    return PointCloud(rng.uniform(-scale, scale, size=(n, 3)),
                      rng.uniform(0, 1, size=(n, 3)))


# ----------------------------------------------------------------------
# voxel grid filter


def voxel_oracle(cloud, leaf):
    """Dict-based bucketing; returns the set of (rounded) mean points."""
    buckets = {}
    for p, c in zip(cloud.positions, cloud.colors):
        key = tuple(int(np.floor(v / leaf)) for v in p)
        buckets.setdefault(key, []).append((p, c))
    out = []
    for key in sorted(buckets):
        ps = np.array([p for p, _ in buckets[key]])
        cs = np.array([c for _, c in buckets[key]])
        out.append((ps.mean(axis=0), cs.mean(axis=0), key))
    return out


def test_voxel_two_points_one_cell():
    cloud = PointCloud(np.array([[0.001, 0, 0], [0.009, 0, 0]]),
                       np.array([[1, 0, 0], [0, 0, 1.0]]))
    out = voxel_grid_filter(cloud, 0.01)
    assert len(out) == 1
    assert out.positions[0] == pytest.approx([0.005, 0, 0])
    assert out.colors[0] == pytest.approx([0.5, 0, 0.5])


def test_voxel_distinct_cells_identity():
    rng = np.random.default_rng(0)
    pos = np.array([[i * 1.0, 0, 0] for i in range(20)]) + rng.uniform(0, 0.4, (20, 3))
    cloud = PointCloud(pos, rng.uniform(0, 1, (20, 3)))
    out = voxel_grid_filter(cloud, 0.5)
    assert len(out) == 20
    assert sorted(map(tuple, out.positions)) == sorted(map(tuple, cloud.positions))


def test_voxel_uniform_cube_against_oracle():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 10_000, scale=0.5)
    leaf = 0.1
    out = voxel_grid_filter(cloud, leaf)
    assert len(out) <= 1000
    cells = np.floor(out.positions / leaf)
    lo = cells * leaf
    assert np.all(out.positions >= lo - 1e-12)
    assert np.all(out.positions <= lo + leaf + 1e-12)
    oracle = voxel_oracle(cloud, leaf)
    assert len(oracle) == len(out)
    for (op, oc, _), mp, mc in zip(oracle, out.positions, out.colors):
        assert op == pytest.approx(mp, abs=1e-12)
        assert oc == pytest.approx(mc, abs=1e-12)


def test_voxel_permutation_invariance_bit_exact():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 500, scale=0.2)
    out1 = voxel_grid_filter(cloud, 0.05)
    perm = rng.permutation(len(cloud))
    shuffled = PointCloud(cloud.positions[perm], cloud.colors[perm])
    out2 = voxel_grid_filter(shuffled, 0.05)
    assert np.array_equal(out1.positions, out2.positions)
    assert np.array_equal(out1.colors, out2.colors)


def test_voxel_empty_input():
    assert len(voxel_grid_filter(PointCloud.empty(), 0.1)) == 0


# ----------------------------------------------------------------------
# statistical outlier removal


def sor_oracle(cloud, k, alpha):
    pos = cloud.positions
    n = len(pos)
    d = np.empty(n)
    for i in range(n):
        diff = pos - pos[i]
        dist = np.sqrt((diff * diff).sum(axis=1))
        dist[i] = np.inf
        d[i] = np.mean(np.sort(dist)[:k])
    keep = d <= d.mean() + alpha * d.std()
    return keep


def test_sor_removes_far_point():
    xs, ys = np.meshgrid(np.arange(5) * 0.01, np.arange(5) * 0.01)
    pos = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(25)])
    pos = np.vstack([pos, [10.0, 10.0, 10.0]])
    cloud = PointCloud(pos, np.zeros((26, 3)))
    out = statistical_outlier_removal(cloud, 4, 1.0)
    keep = sor_oracle(cloud, 4, 1.0)
    assert not keep[-1]
    assert np.array_equal(out.positions, cloud.positions[keep])
    assert np.all(np.linalg.norm(out.positions, axis=1) < 1.0)


def test_sor_huge_alpha_keeps_everything():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 50)
    out = statistical_outlier_removal(cloud, 5, 1e6)
    assert np.array_equal(out.positions, cloud.positions)


def test_sor_regular_grid_interior_retained():
    xs, ys = np.meshgrid(np.arange(6) * 0.01, np.arange(6) * 0.01)
    pos = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(36)])
    cloud = PointCloud(pos, np.zeros((36, 3)))
    keep = sor_oracle(cloud, 4, 1.0)
    out = statistical_outlier_removal(cloud, 4, 1.0)
    assert np.array_equal(out.positions, cloud.positions[keep])
    interior = np.all((pos[:, :2] > 0.005) & (pos[:, :2] < 0.045), axis=1)
    kept = {tuple(p) for p in out.positions}
    assert all(tuple(p) in kept for p in pos[interior])


def test_sor_too_few_points():
    cloud = PointCloud(np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(PerceptionError, match="insufficient points"):
        statistical_outlier_removal(cloud, 4, 1.0)


@pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True, False, np.float64(2.0), None])
def test_sor_rejects_invalid_k(k):
    cloud = random_cloud(np.random.default_rng(0), 20)
    with pytest.raises(ValueError, match=r"^k must be (an integer|>= 1),"):
        statistical_outlier_removal(cloud, k, 1.0)
    with pytest.raises(ValueError, match=r"^k_neighbors must be (an integer|>= 1),"):
        PerceptionParams(k_neighbors=k).validate()


@pytest.mark.parametrize("alpha", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_sor_rejects_invalid_alpha(alpha):
    cloud = random_cloud(np.random.default_rng(0), 20)
    with pytest.raises(ValueError, match=r"^alpha must be (finite|>= 0.0),"):
        statistical_outlier_removal(cloud, 4, alpha)
    with pytest.raises(ValueError, match=r"^alpha must be (finite|>= 0.0),"):
        PerceptionParams(alpha=alpha).validate()


def test_sor_accepts_numpy_integer_k_and_zero_alpha():
    cloud = random_cloud(np.random.default_rng(0), 40)
    for k in (np.int64(4), np.int32(4), np.uint8(4)):
        PerceptionParams(k_neighbors=k, alpha=-0.0).validate()
        out = statistical_outlier_removal(cloud, k, -0.0)
        assert np.array_equal(out.positions, statistical_outlier_removal(cloud, 4, 0.0).positions)


def test_sor_matches_oracle_on_random_clouds():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(20, 400))
        cloud = random_cloud(rng, n)
        k = int(rng.integers(1, min(10, n - 1)))
        alpha = float(rng.uniform(0.0, 2.0))
        out = statistical_outlier_removal(cloud, k, alpha)
        keep = sor_oracle(cloud, k, alpha)
        assert np.array_equal(out.positions, cloud.positions[keep])


def knn_mean_distances_reference(pos, k, chunk=512):
    """The (chunk, n, 3) difference-tensor kernel the blocked one replaced, frozen."""
    n = pos.shape[0]
    out = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = pos[lo:hi, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        dist[np.arange(lo, hi) - lo, np.arange(lo, hi)] = np.inf
        part = np.sort(dist, axis=1)[:, :k]
        out[lo:hi] = part.mean(axis=1)
    return out


def knn_mean_distances_blocked_reference(pos, k, chunk=64):
    """The blocked brute-force kernel the cell grid replaced, frozen."""
    n = pos.shape[0]
    x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
    out = np.empty(n)
    d2 = np.empty((min(chunk, n), n))
    sq = np.empty_like(d2)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
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


def sparse_clusters(rng, sizes, spacing, spread):
    """Blobs of `sizes` points, `spread` wide, on a lattice `spacing` apart."""
    blobs = [rng.normal(spacing * rng.integers(-4, 5, 3), spread, (m, 3)) for m in sizes]
    return np.concatenate(blobs)


def knn_exactness_clouds():
    rng = np.random.default_rng(1234)
    for _ in range(100):  # A3.sor's cloud sizes and extent
        yield rng.uniform(-1, 1, (int(rng.integers(20, 501)), 3))
    for n in (20, 64, 65, 300):  # many ties and duplicate points
        yield np.round(rng.uniform(-0.3, 0.3, (n, 3)), 1)
    # sparse clusters far apart: rings must widen, and blobs of 2-3 points
    # hold fewer candidates than k
    yield sparse_clusters(rng, [200, 3, 2, 3, 2, 2], 10.0, 0.05)
    yield sparse_clusters(rng, [2] * 20, 10.0, 0.01)
    yield sparse_clusters(rng, [3] * 10 + [60], 100.0, 1.0)
    # a dense blob with a sparse halo, as SOR meets it
    yield np.concatenate([rng.normal(0, 0.02, (300, 3)), rng.uniform(-5, 5, (30, 3))])
    yield np.full((40, 3), 0.3)  # all points identical, zero extent
    t = rng.uniform(-1, 1, (60, 1))
    yield t * [1.0, 2.0, -0.5]  # collinear, oblique
    yield np.column_stack([np.zeros(50), rng.uniform(-1, 1, 50), np.zeros(50)])  # on an axis
    uv = rng.uniform(-1, 1, (120, 2))
    yield np.column_stack([uv, np.full(120, 0.7)])  # coplanar, axis-aligned
    yield uv @ [[1.0, 0.5, -2.0], [0.0, 1.0, 3.0]]  # coplanar, tilted
    yield rng.uniform(-1, 1, (200, 3)) + 1e6  # large offset, coarse ulps
    yield rng.choice([-0.0, 0.0, 0.25, -0.25], (80, 3))  # signed zeros
    for seed in range(4):  # real long-variant start frames, ~4096 points
        frame = World(make_scene(seed, "long")).render()
        yield voxel_grid_filter(frame.cloud, 0.01).positions


def test_knn_mean_distances_bit_equal_to_reference():
    for pos in knn_exactness_clouds():
        for k in (1, 3, 8):
            assert np.array_equal(_knn_mean_distances(pos, k),
                                  knn_mean_distances_reference(pos, k))


def test_knn_mean_distances_bit_equal_to_blocked_reference():
    for pos in knn_exactness_clouds():
        for k in (1, 3, 8):
            assert np.array_equal(_knn_mean_distances(pos, k),
                                  knn_mean_distances_blocked_reference(pos, k))


@pytest.fixture(scope="module")
def knn_cell_size_cases():
    """(points, k, blocked reference) on the long start frames, at SOR's k, and
    on isolated points, whose neighbors lie many cells away at any cell size."""
    rng = np.random.default_rng(77)
    cases = []
    for seed in range(4):
        frame = World(make_scene(seed, "long")).render()
        cases.append((voxel_grid_filter(frame.cloud, 0.01).positions, 8))
    scattered = rng.uniform(-50, 50, (300, 3))
    spaced = 1.5 ** np.arange(48)[:, None] * [1.0, -0.5, 0.25] + rng.normal(0, 1e-3, (48, 3))
    for k in (1, 8):
        cases += [(scattered, k), (spaced, k)]
    return [(pos, k, knn_mean_distances_blocked_reference(pos, k)) for pos, k in cases]


@pytest.mark.parametrize("cells_per_k", [1, 8, 32, 128, 512])
def test_knn_mean_distances_bit_equal_at_any_cell_size(monkeypatch, knn_cell_size_cases,
                                                       cells_per_k):
    """Exactness does not depend on the first cell size KNN_CELLS_PER_K sets."""
    monkeypatch.setattr(perception, "KNN_CELLS_PER_K", cells_per_k)
    for pos, k, expected in knn_cell_size_cases:
        assert np.array_equal(_knn_mean_distances(pos, k), expected)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_knn_mean_distances_n_equals_k_plus_one(k):
    rng = np.random.default_rng(k)
    for pos in (rng.uniform(-1, 1, (k + 1, 3)), np.zeros((k + 1, 3)),
                sparse_clusters(rng, [1] * (k + 1), 10.0, 0.0)):
        got = _knn_mean_distances(pos, k)
        assert np.array_equal(got, knn_mean_distances_reference(pos, k))
        assert np.array_equal(got, knn_mean_distances_blocked_reference(pos, k))


def test_sor_monotone_in_alpha():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 200)
    kept_sets = []
    for alpha in (0.0, 0.5, 1.0, 2.0):
        out = statistical_outlier_removal(cloud, 6, alpha)
        kept_sets.append({tuple(p) for p in out.positions})
    for small, large in zip(kept_sets, kept_sets[1:]):
        assert small <= large


# ----------------------------------------------------------------------
# color segmentation and centroid


@pytest.mark.parametrize("leaf", [np.nan, np.inf, -np.inf, 0.0, -0.01])
def test_voxel_rejects_non_finite_or_non_positive_leaf(leaf):
    """A NaN or inf leaf once collapsed a 100-point cloud into one point."""
    cloud = random_cloud(np.random.default_rng(0), 100)
    with pytest.raises(ValueError, match=r"^leaf must be (finite|> 0.0),"):
        voxel_grid_filter(cloud, leaf)
    with pytest.raises(ValueError, match=r"^leaf must be (finite|> 0.0),"):
        PerceptionParams(leaf=leaf).validate()


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, 0.0, -0.25])
def test_color_segment_rejects_non_finite_or_non_positive_threshold(threshold):
    """A NaN threshold once kept no point of 100 and an infinite one kept all."""
    cloud = random_cloud(np.random.default_rng(0), 100)
    with pytest.raises(ValueError, match=r"^threshold must be (finite|> 0.0),"):
        color_segment(cloud, np.array([0.5, 0.5, 0.5]), threshold)
    with pytest.raises(ValueError, match=r"^color_threshold must be (finite|> 0.0),"):
        PerceptionParams(color_threshold=threshold).validate()


def test_color_segment_identity_and_empty():
    rng = np.random.default_rng(6)
    target = np.array([0.8, 0.1, 0.1])
    cloud = PointCloud(rng.normal(size=(30, 3)),
                       np.tile(target, (30, 1)))
    out = color_segment(cloud, target, 0.25)
    assert np.array_equal(out.positions, cloud.positions)
    far = PointCloud(cloud.positions, np.tile([0.0, 1.0, 0.0], (30, 1)))
    assert len(color_segment(far, target, 0.25)) == 0


def test_color_segment_idempotent_and_subset():
    rng = np.random.default_rng(7)
    cloud = random_cloud(rng, 200)
    target = np.array([0.5, 0.5, 0.5])
    once = color_segment(cloud, target, 0.3)
    twice = color_segment(once, target, 0.3)
    assert np.array_equal(once.positions, twice.positions)
    assert len(once) <= len(cloud)


def test_color_segment_scene_points_match_renderer_labels():
    cfg = make_short_scene(4)
    cfg.depth_noise_sigma = 0.0
    world = World(cfg)
    frame = world.render()
    target_color = cfg.object("box0").color
    segment = color_segment(frame.cloud, target_color, 0.25)
    labels = (frame.hit_ids.ravel() == world.hit_id("box0"))[frame.depth.ravel() > 0]
    assert len(segment) == int(labels.sum())
    assert np.array_equal(segment.positions, frame.cloud.positions[labels])


def test_centroid_symmetry_and_single_point():
    cloud = PointCloud(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.zeros((2, 3)))
    assert centroid(cloud) == pytest.approx([0, 0, 0])
    single = PointCloud(np.array([[0.3, -0.2, 0.9]]), np.zeros((1, 3)))
    assert centroid(single) == pytest.approx([0.3, -0.2, 0.9])


def test_centroid_empty_cloud_errors():
    with pytest.raises(PerceptionError, match="object not found"):
        centroid(PointCloud.empty())


def test_centroid_translation_equivariance():
    rng = np.random.default_rng(8)
    cloud = random_cloud(rng, 300)
    t = np.array([10.0, -3.0, 0.5])
    shifted = PointCloud(cloud.positions + t, cloud.colors)
    assert np.all(np.abs(centroid(shifted) - (centroid(cloud) + t)) < 1e-9)


# ----------------------------------------------------------------------
# full pipeline


def visible_surface_centroid(world, frame, object_id):
    mask = (frame.hit_ids.ravel() == world.hit_id(object_id))[frame.depth.ravel() > 0]
    return frame.cloud.positions[mask].mean(axis=0)


def test_locate_object_noiseless_accuracy():
    # noiseless full pipeline lands within 2 * leaf of the visible-surface centroid
    cfg = make_short_scene(9)
    cfg.depth_noise_sigma = 0.0
    world = World(cfg)
    frame = world.render()
    gt = visible_surface_centroid(world, frame, "box0")
    est = locate_object(frame, cfg.object("box0").color)
    assert np.linalg.norm(est - gt) < 2 * 0.01


def test_locate_object_absent_errors():
    cfg = make_short_scene(10)
    world = World(cfg)
    frame = world.render()
    with pytest.raises(PerceptionError, match="object not found"):
        locate_object(frame, np.array([0.0, 0.0, 0.0]))  # no black object


def test_locate_object_pipeline_pure():
    cfg = make_short_scene(11)
    world = World(cfg)
    frame = world.render()
    color = cfg.object("box0").color
    a = locate_object(frame, color)
    b = locate_object(frame, color)
    assert np.array_equal(a, b)


def test_full_pipeline_noisy_monte_carlo():
    errors = []
    for seed in range(8):
        cfg = make_short_scene(seed)
        truth_world = World(cfg)
        f0 = truth_world.render(depth_noise_sigma=0.0)
        gt = visible_surface_centroid(truth_world, f0, "box0")
        noisy_world = World(cfg)
        frame = noisy_world.render()  # sigma = 0.002 from the scene family
        est = locate_object(frame, cfg.object("box0").color)
        errors.append(np.linalg.norm(est - gt))
    assert float(np.mean(errors)) < 0.03
