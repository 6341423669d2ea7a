import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbevloc.config import RunConfig, derive_seed, SEED_WORLD
from sbevloc.errors import InputError
from sbevloc.geometry import (
    Intrinsics,
    PointCloud,
    Pose2,
    pose3_compose,
    pose3_from_pose2,
    pose3_inverse,
    quat_from_euler_zyx,
    quat_from_yaw,
    Pose3,
)
from sbevloc.localizer import grid_to_input
from sbevloc.pipeline import ACCUMULATION_WINDOW, ego_cloud, render_stream, sbev_stream
from sbevloc.sbev import (
    ClassPolicy,
    GridSpec,
    accumulate_sbev,
    build_point_cloud,
    cell_indices,
    filter_labels,
    rasterize_bev,
)
from sbevloc.synthworld import WeatherSpec, generate_world

K = Intrinsics(fx=100, fy=100, cx=50, cy=50, width=101, height=101)
SPEC = GridSpec()


def brute_rasterize(cloud, spec):
    """Independent per-cell max-z scan (the oracle)."""
    size, res = spec.size, spec.resolution
    half = size * res / 2.0
    zmin, zmax = spec.height_window
    grid = np.zeros((size, size), dtype=np.uint8)
    best = np.full((size, size), -np.inf)
    for (x, y, z), label in zip(cloud.xyz.tolist(), cloud.labels.tolist()):
        if label == 0 or not (zmin <= z <= zmax):
            continue
        xi = math.floor(x / res)
        yi = math.floor((y + half) / res)
        if not (0 <= xi < size and 0 <= yi < size):
            continue
        r, c = size - 1 - xi, size - 1 - yi
        if z > best[r, c] or (z == best[r, c] and label > grid[r, c]):
            best[r, c] = z
            grid[r, c] = label
    return grid


def tie_heavy_cloud(rng, n, spec):
    """Heights from a handful of values (window edges and outside values
    among them), labels 1..255, points on and off the grid."""
    extent = spec.size * spec.resolution
    xyz = np.column_stack([
        rng.uniform(-0.1 * extent, 1.1 * extent, n),
        rng.uniform(-0.6 * extent, 0.6 * extent, n),
        rng.choice([-3.0, -2.5, 0.0, 1.0, 1.0 + 1e-9, 6.0, 7.0], n),
    ])
    return PointCloud(xyz, rng.integers(1, 256, n))


def random_cloud(rng, n=1000):
    xyz = np.column_stack([
        rng.uniform(-5, 93, n),       # includes out-of-range forward values
        rng.uniform(-50, 50, n),
        rng.uniform(-4, 8, n),        # includes out-of-window heights
    ])
    return PointCloud(xyz, rng.integers(0, 256, n))


# --- filter_labels -------------------------------------------------------

def test_filter_labels_trivia():
    policy = ClassPolicy(keep_set={4, 7})
    labels = np.array([[4, 13], [7, 0]], dtype=np.uint8)
    out = filter_labels(labels, policy)
    assert out.tolist() == [[4, 0], [7, 0]]


def test_filter_labels_empty_keep():
    labels = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert filter_labels(labels, ClassPolicy(keep_set=set())).sum() == 0


def test_filter_labels_histogram_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 50, (64, 64)).astype(np.uint8)
    keep = {3, 9, 21, 40}
    out = filter_labels(labels, ClassPolicy(keep_set=keep))
    h_in = np.bincount(labels.ravel(), minlength=256)
    h_out = np.bincount(out.ravel(), minlength=256)
    for c in range(1, 256):
        assert h_out[c] == (h_in[c] if c in keep else 0)


def test_filter_labels_remap_after_filter():
    policy = ClassPolicy(keep_set={4}, remap={4: 2, 13: 1})
    labels = np.array([[4, 13]], dtype=np.uint8)
    assert filter_labels(labels, policy).tolist() == [[2, 0]]


# --- build_point_cloud ---------------------------------------------------

def test_cloud_empty_on_invalid_depth():
    depth = np.zeros((20, 20))
    labels = np.full((20, 20), 5, dtype=np.uint8)
    assert len(build_point_cloud(depth, labels, K, stride=1)) == 0


def test_cloud_single_pixel():
    depth = np.zeros((101, 101))
    labels = np.zeros((101, 101), dtype=np.uint8)
    depth[50, 50] = 5.0
    labels[50, 50] = 9
    cloud = build_point_cloud(depth, labels, K, stride=1)
    assert len(cloud) == 1
    assert np.allclose(cloud.xyz[0], [0, 0, 5])
    assert cloud.labels[0] == 9


def test_cloud_counting_oracle():
    rng = np.random.default_rng(1)
    depth = rng.uniform(0, 10, (60, 80))
    depth[depth < 2] = 0.0
    labels = rng.integers(0, 4, (60, 80)).astype(np.uint8)
    for stride in (1, 2, 3):
        cloud = build_point_cloud(depth, labels, K, stride=stride)
        want = int(((depth[::stride, ::stride] > 0)
                    & (labels[::stride, ::stride] != 0)).sum())
        assert len(cloud) == want


def test_cloud_dimension_mismatch():
    with pytest.raises(InputError):
        build_point_cloud(np.zeros((4, 4)), np.zeros((4, 5), dtype=np.uint8), K)


# --- rasterize_bev -------------------------------------------------------

def test_rasterize_empty_cloud():
    out = rasterize_bev(PointCloud(np.zeros((0, 3))), SPEC)
    assert out.grid.sum() == 0
    assert out.grid.shape == (352, 352)


def test_rasterize_single_point_index():
    # 10 m ahead, on centerline: row = 351 - 40 = 311, col = 175
    cloud = PointCloud(np.array([[10.0, 0.0, 1.0]]), np.array([7]))
    out = rasterize_bev(cloud, SPEC)
    nz = np.argwhere(out.grid)
    assert nz.tolist() == [[311, 175]]
    assert out.grid[311, 175] == 7


def test_rasterize_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(5):
        cloud = random_cloud(rng)
        got = rasterize_bev(cloud, SPEC).grid
        assert np.array_equal(got, brute_rasterize(cloud, SPEC))


def test_rasterize_permutation_invariant():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 500)
    perm = rng.permutation(500)
    a = rasterize_bev(cloud, SPEC).grid
    b = rasterize_bev(PointCloud(cloud.xyz[perm], cloud.labels[perm]), SPEC).grid
    assert np.array_equal(a, b)


def test_rasterize_tie_heavy_matches_brute_force():
    spec = GridSpec(size=16, resolution=0.5)
    rng = np.random.default_rng(8)
    for n in (1, 40, 3000):   # 3000 points: ~8 per cell, most of them tied
        cloud = tie_heavy_cloud(rng, n, spec)
        want = brute_rasterize(cloud, spec)
        assert np.array_equal(rasterize_bev(cloud, spec).grid, want)
        perm = rng.permutation(n)
        shuffled = PointCloud(cloud.xyz[perm], cloud.labels[perm])
        assert np.array_equal(rasterize_bev(shuffled, spec).grid, want)


def test_rasterize_everything_filtered():
    spec = GridSpec(size=16, resolution=0.5)
    xyz = np.array([[1.0, 0.0, 7.0],      # above the height window
                    [1.0, 0.0, -3.0],     # below it
                    [-1.0, 0.0, 1.0],     # behind the ego
                    [1.0, 5.0, 1.0],      # off the grid to the left
                    [1.0, 0.0, 1.0]])     # label 0
    out = rasterize_bev(PointCloud(xyz, np.array([5, 5, 5, 5, 0])), spec)
    assert out.grid.shape == (16, 16)
    assert not out.grid.any()


def test_rasterize_tie_breaks_larger_label():
    xyz = np.array([[10.0, 0.0, 1.0], [10.1, 0.1, 1.0]])  # same cell, same z
    out = rasterize_bev(PointCloud(xyz, np.array([3, 9])), SPEC)
    assert out.grid[311, 175] == 9
    out = rasterize_bev(PointCloud(xyz, np.array([9, 3])), SPEC)
    assert out.grid[311, 175] == 9


def test_rasterize_signed_zeros_tie():
    # -0.0 == +0.0, so both points are at the cell's top and the larger label wins
    for heights in ((-0.0, 0.0), (0.0, -0.0)):
        xyz = np.array([[10.0, 0.0, heights[0]], [10.1, 0.1, heights[1]]])
        for labels in ([3, 9], [9, 3]):
            assert rasterize_bev(PointCloud(xyz, np.array(labels)), SPEC).grid[311, 175] == 9


SPEC8 = GridSpec(size=8, resolution=0.5)
# both window edges, both signed zeros, and heights just outside the window
HEIGHTS8 = (-3.0, -2.5, -1.0, -0.0, 0.0, 1.0, 6.0, 6.5, float("nan"))
# a few rows and columns, so that points often share a cell; -1 and 8 are off the grid
INDEX8 = st.sampled_from((-1, 0, 3, 7, 8))
point8 = st.tuples(INDEX8, INDEX8, st.sampled_from((0.1, 0.9)),
                   st.sampled_from(HEIGHTS8), st.integers(0, 255))


@given(st.lists(point8, max_size=60))
@settings(max_examples=60, deadline=None)
def test_rasterize_property_matches_brute_force(points):
    res, half = SPEC8.resolution, SPEC8.lateral_extent / 2.0
    xyz = np.array([((i + f) * res, (j + f) * res - half, z) for i, j, f, z, _ in points])
    cloud = PointCloud(xyz, np.array([p[4] for p in points], dtype=np.uint8))
    assert np.array_equal(rasterize_bev(cloud, SPEC8).grid, brute_rasterize(cloud, SPEC8))


def test_rasterize_height_window():
    xyz = np.array([[10.0, 0.0, 7.0], [10.0, 0.0, -3.0]])  # both outside window
    out = rasterize_bev(PointCloud(xyz, np.array([5, 5])), SPEC)
    assert out.grid.sum() == 0


def test_cell_indices_boundaries():
    spec = GridSpec(size=4, resolution=1.0)
    rows, cols, inside = cell_indices(spec,
                                      np.array([0.0, 3.99, 4.0, -0.01]),
                                      np.array([0.0, 0.0, 0.0, 0.0]))
    assert inside.tolist() == [True, True, False, False]
    assert rows[0] == 3 and rows[1] == 0


# --- accumulate_sbev -----------------------------------------------------

def ego_pose3(p: Pose2, cam_h=1.5):
    return pose3_from_pose2(p, z=cam_h)


def test_accumulate_single_frame_equals_rasterize():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 300)
    pose = ego_pose3(Pose2(3, 4, 0.3))
    got = accumulate_sbev([(cloud, pose)], pose, SPEC)
    want = rasterize_bev(cloud, SPEC)
    assert np.array_equal(got.grid, want.grid)


def test_accumulate_union_cloud_oracle():
    # static world observed from several ego poses: accumulation equals
    # rasterizing the union of the clouds expressed in the newest frame
    rng = np.random.default_rng(5)
    world_pts = np.column_stack([
        rng.uniform(5, 60, 400), rng.uniform(-30, 30, 400), rng.uniform(0, 4, 400)])
    world_labels = rng.integers(1, 200, 400)
    poses = [Pose2(0, 0, 0), Pose2(2, 0.5, 0.05), Pose2(4, 1.0, 0.1)]
    frames = []
    for p in poses:
        p3 = ego_pose3(p)
        r = p3.rotation_matrix()
        local = (world_pts - p3.translation) @ r  # world -> ego (R^T applied)
        frames.append((PointCloud(local, world_labels), p3))
    current = frames[-1][1]
    got = accumulate_sbev(frames, current, SPEC)

    union_local = np.concatenate([
        (world_pts - current.translation) @ current.rotation_matrix()
        for _ in poses])
    union = PointCloud(union_local, np.concatenate([world_labels] * 3))
    want = rasterize_bev(union, SPEC)
    assert np.array_equal(got.grid, want.grid)


def test_accumulate_full_3d_poses():
    # window poses with pitch and roll: z changes under the transform too.
    # Points sit at cell centers of the newest frame and have distinct
    # heights, so the float rounding of the two transforms cannot move a
    # point across a cell border or reorder a tie.
    spec = GridSpec(size=32, resolution=0.5)
    rng = np.random.default_rng(9)
    n = 600
    rows, cols = rng.integers(0, 32, n), rng.integers(0, 32, n)
    x = (spec.size - 0.5 - rows) * spec.resolution
    y = (spec.size - 0.5 - cols) * spec.resolution - spec.lateral_extent / 2.0
    current = Pose3(rng.uniform(-5, 5, 3), quat_from_euler_zyx(*rng.uniform(-0.3, 0.3, 3)))
    union = np.column_stack([x, y, rng.uniform(-2, 5, n)])
    labels = rng.integers(1, 256, n)
    world = union @ current.rotation_matrix().T + current.translation
    frames = []
    for _ in range(4):
        pose = Pose3(rng.uniform(-5, 5, 3), quat_from_euler_zyx(*rng.uniform(-0.3, 0.3, 3)))
        local = (world - pose.translation) @ pose.rotation_matrix()
        frames.append((PointCloud(local, labels), pose))
    frames.append((PointCloud(union, labels), current))
    got = accumulate_sbev(frames, current, spec).grid
    want = brute_rasterize(PointCloud(union, labels), spec)
    assert want.any()
    assert np.array_equal(got, want)


def test_accumulate_duplicate_frames_idempotent():
    rng = np.random.default_rng(6)
    cloud = random_cloud(rng, 200)
    pose = ego_pose3(Pose2(1, 2, 0.2))
    one = accumulate_sbev([(cloud, pose)], pose, SPEC)
    five = accumulate_sbev([(cloud, pose)] * 5, pose, SPEC)
    assert np.array_equal(one.grid, five.grid)


def window_frames(rng, n_frames, n_points):
    poses = [Pose3(rng.uniform(-3, 3, 3), quat_from_euler_zyx(*rng.uniform(-0.2, 0.2, 3)))
             for _ in range(n_frames)]
    return [(random_cloud(rng, n_points), p) for p in poses]


def test_accumulate_frame_order_invariant():
    spec = GridSpec(size=64, resolution=1.0)
    frames = window_frames(np.random.default_rng(10), 5, 300)
    current = frames[-1][1]
    want = accumulate_sbev(frames, current, spec).grid
    assert want.any()
    for perm in itertools.permutations(frames):
        assert np.array_equal(accumulate_sbev(list(perm), current, spec).grid, want)


def test_accumulate_empty_cloud_is_neutral():
    spec = GridSpec(size=64, resolution=1.0)
    frames = window_frames(np.random.default_rng(11), 4, 300)
    current = frames[-1][1]
    want = accumulate_sbev(frames, current, spec).grid
    empty = (PointCloud(np.zeros((0, 3))), ego_pose3(Pose2(1, 0, 0.1)))
    for i in range(len(frames) + 1):
        window = frames[:i] + [empty] + frames[i:]
        assert np.array_equal(accumulate_sbev(window, current, spec).grid, want)


def test_accumulate_frame_count_checked():
    cloud = PointCloud(np.zeros((0, 3)))
    pose = ego_pose3(Pose2(0, 0, 0))
    with pytest.raises(InputError):
        accumulate_sbev([], pose, SPEC)
    with pytest.raises(InputError):
        accumulate_sbev([(cloud, pose)] * 6, pose, SPEC)


def test_real_frame_windows_match_brute_force():
    """sbev_stream on rendered frames, clean and in rain, against the brute
    rasterization of each window's union cloud; pooled inputs against the
    float64 block mean."""
    cfg = RunConfig()
    spec = GridSpec(stride=4)   # a quarter of the points keeps the oracle quick
    k, policy, h = cfg.camera.intrinsics(), cfg.classes.policy(), cfg.synth.camera_height
    # the moderate rain of the relocalize benchmark
    rain = WeatherSpec(label_confusion_prob=0.02, confusion_radius=2,
                       depth_dropout_prob=0.05, depth_noise_sigma=0.05,
                       range_attenuation=40.0)
    world = generate_world(derive_seed(1, SEED_WORLD),
                           dataclasses.replace(cfg.synth, route_length=40.0))
    poses = world.route[30:42]
    for weather in (None, rain):
        frames = list(render_stream(world, poses, k, weather=weather, weather_seed=1))
        clouds = [(ego_cloud(d, l, k, policy, spec), pose3_from_pose2(p, z=h))
                  for _, p, d, l in frames]
        for i, sb in enumerate(sbev_stream(frames, k, policy, spec, h)):
            window = clouds[max(0, i + 1 - ACCUMULATION_WINDOW):i + 1]
            inv_cur = pose3_inverse(window[-1][1])
            parts = []
            for cloud, pose in window:
                rel = pose3_compose(inv_cur, pose)
                parts.append(cloud.xyz @ rel.rotation_matrix().T + rel.translation)
            union = PointCloud(np.concatenate(parts),
                               np.concatenate([c.labels for c, _ in window]))
            assert np.array_equal(sb.grid, brute_rasterize(union, spec))
            pooled = (sb.grid.astype(np.float64).reshape(44, 8, 44, 8).mean(axis=(1, 3))
                      / 255.0).ravel().astype(np.float32)
            got = grid_to_input(sb.grid, 8)
            assert got.dtype == pooled.dtype and np.array_equal(got, pooled)
