import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbevloc.config import RunConfig, derive_seed, SEED_WORLD
from sbevloc.errors import InputError
from sbevloc.geometry import Intrinsics, PointCloud, Pose2
from sbevloc.localizer import grid_to_input
from sbevloc import pipeline, synthworld
from sbevloc.pipeline import ACCUMULATION_WINDOW, ego_cloud, render_stream, sbev_stream
from sbevloc.sbev import (
    ClassPolicy,
    GridSpec,
    SBev,
    accumulate_sbev,
    _pixel_offsets,
    build_point_cloud,
    filter_labels,
    flat_cells,
    rasterize_bev,
)
from sbevloc.synthworld import WeatherSpec, generate_world, lane_shift

K = Intrinsics(fx=100, fy=100, cx=50, cy=50, width=101, height=101)
# the default camera's every other pixel: a quarter of its points keeps
# the brute-force oracles quick
K_QUARTER = Intrinsics(fx=40.0, fy=40.0, cx=39.875, cy=29.875, width=80, height=60)
SPEC = GridSpec()
# the moderate rain of the benchmark
RAIN = WeatherSpec(label_confusion_prob=0.02, confusion_radius=2,
                   depth_dropout_prob=0.05, depth_noise_sigma=0.05,
                   range_attenuation=40.0)


def rendered_frames(k, poses=slice(30, 42), weather=None):
    """Frames of the seed-1 world's 40 m route, rendered by `k`."""
    cfg = RunConfig()
    world = generate_world(derive_seed(1, SEED_WORLD),
                           dataclasses.replace(cfg.synth, route_length=40.0))
    return list(render_stream(world, world.route[poses], k, weather=weather,
                              weather_seed=1))


def frozen_build_point_cloud(depth, labels, k):
    """The unprojection as it was before the per-camera tables (the
    reference): a 2-D nonzero and a per-call subtraction."""
    depth = np.asarray(depth, dtype=np.float64)
    valid = (depth > 0) & (labels != 0)
    vs, us = np.nonzero(valid)
    xyz = np.empty((3, len(vs))).T
    xyz[:, 0] = d = depth[valid]
    xyz[:, 1] = -((us - k.cx) * d / k.fx)
    xyz[:, 2] = -((vs - k.cy) * d / k.fy)
    return PointCloud(xyz, labels[valid])


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
        if not (math.isfinite(x) and math.isfinite(y)):   # on no cell
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


def to_world(pose, xyz):
    """Ego points of `pose` in world coordinates (the oracle); z is kept."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    x, y = xyz[:, 0], xyz[:, 1]
    return np.column_stack([pose.x + c * x - s * y, pose.y + s * x + c * y, xyz[:, 2]])


def to_ego(pose, xyz):
    """World points in the ego coordinates of `pose` (the oracle); z is kept."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    dx, dy = xyz[:, 0] - pose.x, xyz[:, 1] - pose.y
    return np.column_stack([c * dx + s * dy, -s * dx + c * dy, xyz[:, 2]])


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


def test_class_policy_lut_built_once_read_only():
    policy = ClassPolicy(keep_set={4, 7, 255})
    assert not policy.lut.flags.writeable
    assert policy.lut.dtype == np.uint8 and policy.lut.shape == (256,)
    assert policy.lut.tolist() == [c if c in {4, 7, 255} else 0 for c in range(256)]
    assert policy == ClassPolicy(keep_set={255, 7, 4})
    assert hash(policy) == hash(ClassPolicy(keep_set={255, 7, 4}))
    with pytest.raises(ValueError):
        policy.lut[5] = 5


def test_filter_labels_histogram_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 50, (64, 64)).astype(np.uint8)
    keep = {3, 9, 21, 40}
    out = filter_labels(labels, ClassPolicy(keep_set=keep))
    h_in = np.bincount(labels.ravel(), minlength=256)
    h_out = np.bincount(out.ravel(), minlength=256)
    for c in range(1, 256):
        assert h_out[c] == (h_in[c] if c in keep else 0)


@pytest.mark.parametrize("labels", [
    np.array([[300, 4]]), np.array([[-248, 4]]), np.array([[8.0, 4.0]]),
    np.array([[True, False]]), [[4, 256]],
    [[300]], np.array([[-1.0]]), np.array([[1.7]])])
def test_label_maps_outside_uint8_rejected(labels):
    # a uint8 cast would wrap 300 into 44, -248 into 8, -1.0 into 255 and
    # 1.7 into 1, each a class ID of its own
    policy = ClassPolicy(keep_set={4, 8, 44})
    with pytest.raises(InputError, match="label"):
        filter_labels(labels, policy)
    with pytest.raises(InputError, match="label"):
        build_point_cloud(np.ones(np.shape(labels)), labels, K)
    with pytest.raises(InputError, match="label"):
        SBev(labels, 0.25)
    with pytest.raises(InputError, match="label"):
        PointCloud(np.zeros((np.size(labels), 3)), np.ravel(labels))


def test_integer_label_maps_in_range_accepted():
    want = np.array([[0, 4], [255, 8]], dtype=np.uint8)
    policy = ClassPolicy(keep_set={4, 255})
    for labels in (want.astype(np.int64), want.astype(np.uint16), want.tolist()):
        assert np.array_equal(filter_labels(labels, policy), filter_labels(want, policy))
        got = build_point_cloud(np.ones((2, 2)), labels, K)
        assert got.labels.tolist() == [4, 255, 8]
        grid = SBev(labels, 0.25).grid
        assert grid.dtype == np.uint8 and np.array_equal(grid, want)
        cloud = PointCloud(np.zeros((4, 3)), np.ravel(labels))
        assert cloud.labels.dtype == np.uint8 and cloud.labels.tolist() == [0, 4, 255, 8]


# --- build_point_cloud ---------------------------------------------------

def test_cloud_empty_on_invalid_depth():
    depth = np.zeros((20, 20))
    labels = np.full((20, 20), 5, dtype=np.uint8)
    assert len(build_point_cloud(depth, labels, K)) == 0


def test_cloud_single_pixel():
    depth = np.zeros((101, 101))
    labels = np.zeros((101, 101), dtype=np.uint8)
    depth[50, 50] = 5.0
    labels[50, 50] = 9
    cloud = build_point_cloud(depth, labels, K)
    assert len(cloud) == 1
    assert np.allclose(cloud.xyz[0], [5, 0, 0])
    assert cloud.labels[0] == 9


def test_cloud_axes_are_ego():
    # a pixel right of (u > cx) and below (v > cy) the principal point is
    # `depth` ahead, to the right (y < 0) and below the camera (z < 0)
    depth = np.zeros((101, 101))
    labels = np.zeros((101, 101), dtype=np.uint8)
    depth[70, 60] = 4.0
    labels[70, 60] = 3
    x, y, z = build_point_cloud(depth, labels, K).xyz[0]
    assert x == 4.0 and y < 0 and z < 0
    assert (y, z) == pytest.approx((-(60 - 50) * 4.0 / 100, -(70 - 50) * 4.0 / 100))


BAD_MAPS = [np.ones(5), np.ones((2, 3, 4)), np.float64(1.0), np.ones((1, 1, 1))]


@pytest.mark.parametrize("depth", BAD_MAPS, ids=["1d", "3d", "0d", "1x1x1"])
def test_cloud_of_a_map_not_2d_raises_input_error(depth):
    labels = np.full(np.shape(depth), 4, dtype=np.uint8)
    policy = ClassPolicy(keep_set={4})
    with pytest.raises(InputError, match="2-D"):
        build_point_cloud(depth, labels, K)
    with pytest.raises(InputError, match="2-D"):
        ego_cloud(depth, labels, K, policy)


@pytest.mark.parametrize("weather", [None, RAIN], ids=["clean", "rain"])
def test_cloud_bytes_equal_frozen_reference(weather):
    """xyz, labels and column-major order byte-equal to the unprojection
    before the tables, on rendered frames of three shapes, fractional and
    integral principal points among them."""
    cameras = [
        K_QUARTER,                                                    # 80 x 60, cx 39.875
        Intrinsics(fx=30.0, fy=31.0, cx=20.25, cy=14.5, width=41, height=31),
        Intrinsics(fx=50.0, fy=50.0, cx=32.0, cy=24.0, width=65, height=49),
    ]
    policy = RunConfig().classes.policy()
    signed_zero = 0
    for k in cameras:
        for _, _, depth, labels in rendered_frames(k, slice(30, 33), weather):
            labels = filter_labels(labels, policy)
            got = build_point_cloud(depth, labels, k)
            want = frozen_build_point_cloud(depth, labels, k)
            assert len(got) > 0 and got.xyz.flags.f_contiguous
            assert got.xyz.tobytes(order="A") == want.xyz.tobytes(order="A")
            assert got.labels.tobytes() == want.labels.tobytes()
            y = got.xyz[:, 1]
            signed_zero += int(np.count_nonzero((y == 0) & np.signbit(y)))
    # the pixels at u == cx of the integral camera unproject to y = -0.0
    assert signed_zero > 0


def test_pixel_offset_tables_cached_read_only_per_shape():
    small = _pixel_offsets(K, (20, 20))
    assert _pixel_offsets(K, (20, 20)) is small
    full = _pixel_offsets(K, (101, 101))
    assert small.shape == (2, 400) and full.shape == (2, 10201)
    assert small.dtype == full.dtype == np.float64
    dv, du = full
    assert du.reshape(101, 101)[7].tolist() == [u - 50.0 for u in range(101)]
    assert dv.reshape(101, 101)[:, 3].tolist() == [v - 50.0 for v in range(101)]
    for table in (small, full, du, dv):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[..., 0] = 1.0
    # a subsampled frame under the same camera reads its own tables
    depth = np.zeros((101, 101))
    depth[60, 70] = 3.0
    labels = (depth > 0).astype(np.uint8)
    for step in (1, 2, 5):
        d, l = depth[::step, ::step], labels[::step, ::step]
        got = build_point_cloud(d, l, K)
        want = frozen_build_point_cloud(d, l, K)
        assert got.xyz.tobytes() == want.xyz.tobytes()


def test_cloud_counting_oracle():
    rng = np.random.default_rng(1)
    depth = rng.uniform(0, 10, (60, 80))
    depth[depth < 2] = 0.0
    labels = rng.integers(0, 4, (60, 80)).astype(np.uint8)
    # frames of three sizes: one point per valid, labeled pixel
    for scale in (1, 2, 3):
        d, l = depth[::scale, ::scale], labels[::scale, ::scale]
        cloud = build_point_cloud(d, l, K)
        assert len(cloud) == int(((d > 0) & (l != 0)).sum())


@pytest.mark.parametrize("fields", [
    {"resolution": math.nan}, {"resolution": math.inf},
    {"height_window": (math.nan, 1.0)}, {"height_window": (-1.0, math.nan)},
    {"height_window": (-math.inf, 1.0)}, {"height_window": (2.0, 1.0)},
    {"size": 4.5}, {"size": True}, {"size": "8"},
])
def test_grid_spec_rejects_non_finite_or_empty_geometry(fields):
    with pytest.raises(InputError):
        GridSpec(**fields)


@pytest.mark.parametrize("resolution", [math.nan, math.inf, -math.inf, 0.0, -0.25])
def test_sbev_resolution_must_be_finite_and_positive(resolution):
    with pytest.raises(InputError, match="finite and positive"):
        SBev(np.zeros((4, 4), dtype=np.uint8), resolution)


def test_clouds_column_major_and_grids_unchanged():
    # each coordinate is contiguous in the clouds the pipeline builds and in
    # the accumulated union; a row-major copy of the same points rasterizes
    # to the same grid
    rng = np.random.default_rng(30)
    depth = rng.uniform(1.0, 30.0, (24, 32))
    labels = rng.integers(0, 4, (24, 32)).astype(np.uint8)
    k = Intrinsics(fx=20.0, fy=20.0, cx=16.0, cy=12.0, width=32, height=24)
    cloud = build_point_cloud(depth, labels, k)
    assert cloud.xyz.shape == (len(cloud), 3) and cloud.xyz.flags.f_contiguous
    spec = GridSpec(size=64, resolution=0.5)
    frames = [(cloud, Pose2(0.0, 0.0, 0.0)), (cloud, Pose2(1.5, 0.3, 0.1))]
    current = Pose2(1.0, 0.2, 0.05)
    row_major = [(PointCloud(np.ascontiguousarray(c.xyz), c.labels), p) for c, p in frames]
    got = accumulate_sbev(frames, current, spec)
    assert got.grid.any()
    assert got.grid.tobytes() == accumulate_sbev(row_major, current, spec).grid.tobytes()


def test_cloud_dimension_mismatch():
    with pytest.raises(InputError):
        build_point_cloud(np.zeros((4, 4)), np.zeros((4, 5), dtype=np.uint8), K)


# --- rasterize_bev -------------------------------------------------------

def test_rasterize_empty_cloud():
    out = rasterize_bev(PointCloud(np.zeros((0, 3)), np.zeros(0, np.uint8)), SPEC)
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


def test_flat_cells_boundaries():
    spec = GridSpec(size=4, resolution=1.0)
    cells = flat_cells(spec, np.array([0.0, 3.99, 4.0, -0.01]), np.zeros(4))
    # y = 0 is column 1 (yi = 2); x = 0 is row 3 and x = 3.99 row 0
    assert cells.dtype == np.intp
    assert cells.tolist() == [3 * 4 + 1, 0 * 4 + 1, 16, 16]


def test_flat_cells_equal_row_major_cells():
    # powers of two scale by 1 / res, the others divide; 2**-1074 has no
    # finite inverse, and every point but the origin falls off its grid
    for res in (0.5, 0.25, 4.0, 0.3, 0.2, 2.0 ** -1074):
        rng = np.random.default_rng(12)
        spec = GridSpec(size=16, resolution=res)
        half = spec.lateral_extent / 2.0
        x = np.r_[rng.uniform(-1, 9, 2000) * res / 0.5, 0.0]
        y = np.r_[rng.uniform(-5, 5, 2000) * res / 0.5, 0.0]
        xi, yi = np.floor(x / res).astype(int), np.floor((y + half) / res).astype(int)
        inside = (xi >= 0) & (xi < 16) & (yi >= 0) & (yi < 16)
        want = np.where(inside, (15 - xi) * 16 + (15 - yi), 256)
        assert inside.any() and (res < 1e-300 or not inside.all())
        assert flat_cells(spec, x, y).tolist() == want.tolist(), res


@pytest.mark.parametrize("res", [0.3, 0.2, 0.7])
def test_rasterize_matches_brute_force_any_resolution(res):
    spec = GridSpec(size=64, resolution=res)
    rng = np.random.default_rng(14)
    cloud = tie_heavy_cloud(rng, 5000, spec)
    want = brute_rasterize(cloud, spec)
    assert want.any()
    assert np.array_equal(rasterize_bev(cloud, spec).grid, want)


def test_rasterize_non_finite_coordinates_dropped():
    spec = GridSpec(size=8, resolution=0.5)
    bad = (math.nan, math.inf, -math.inf)
    xyz = [(1.1, 0.1, 1.0)]
    xyz += [(b, 0.1, 1.0) for b in bad] + [(1.1, b, 1.0) for b in bad]
    xyz += [(1.1, 0.1, b) for b in bad] + [(b, b, b) for b in bad]
    # the points with a non-finite height lie in the finite point's cell, and
    # every non-finite point has the larger label: one counted would show
    cloud = PointCloud(np.array(xyz), np.r_[3, np.full(len(xyz) - 1, 200)])
    want = brute_rasterize(cloud, spec)
    assert np.count_nonzero(want) == 1 and want.max() == 3
    with np.errstate(all="raise"):   # no warning from a non-finite point
        got = rasterize_bev(cloud, spec).grid
    assert np.array_equal(got, want)
    cells = flat_cells(spec, np.array([math.nan, 1.1]), np.array([0.1, math.nan]))
    assert cells.tolist() == [64, 64]


def test_rasterize_grid_edges_and_height_bounds():
    spec = GridSpec(size=8, resolution=0.5)
    half, far = spec.lateral_extent / 2.0, spec.size * spec.resolution
    zmin, zmax = spec.height_window
    xyz = np.array([
        (0.0, 0.1, 1.0),            # nearest row: kept
        (far, 0.1, 1.0),            # one past the farthest row: dropped
        (np.nextafter(far, 0), 0.1, 1.0),   # farthest row: kept
        (-0.0, 0.6, 1.0),           # nearest row: kept
        (1.1, -half, 1.0),          # rightmost column: kept
        (1.1, half, 1.0),           # one past the leftmost column: dropped
        (2.1, 0.1, zmin),           # on the height window's floor: kept
        (2.6, 0.1, zmax),           # on its ceiling: kept
        (3.1, 0.1, np.nextafter(zmax, np.inf)),   # just above it: dropped
    ])
    labels = np.arange(1, len(xyz) + 1)
    cloud = PointCloud(xyz, labels)
    want = brute_rasterize(cloud, spec)
    assert sorted(want[want != 0].tolist()) == [1, 3, 4, 5, 7, 8]
    assert np.array_equal(rasterize_bev(cloud, spec).grid, want)


def test_rasterize_and_accumulate_leave_clouds_unchanged():
    # the cells are computed in place, in a copy or the window's buffer
    rng = np.random.default_rng(13)
    clouds = [random_cloud(rng, 400) for _ in range(3)]
    clouds.append(PointCloud(np.asfortranarray(clouds[0].xyz), clouds[0].labels))
    before = [(c.xyz.tobytes(order="A"), c.labels.tobytes()) for c in clouds]
    for cloud in clouds:
        assert rasterize_bev(cloud, SPEC).grid.any()
    frames = [(c, Pose2(0.3 * i, 0.1, 0.02 * i)) for i, c in enumerate(clouds)]
    assert accumulate_sbev(frames, frames[-1][1], SPEC).grid.any()
    assert accumulate_sbev(frames[:1], frames[0][1], SPEC).grid.any()
    assert [(c.xyz.tobytes(order="A"), c.labels.tobytes()) for c in clouds] == before
    x, y = clouds[1].xyz[:, 0].copy(), clouds[1].xyz[:, 1].copy()
    flat_cells(SPEC, x, y)
    assert x.tobytes() == clouds[1].xyz[:, 0].tobytes()
    assert y.tobytes() == clouds[1].xyz[:, 1].tobytes()


# --- accumulate_sbev -----------------------------------------------------

def test_accumulate_single_frame_equals_rasterize():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 300)
    pose = Pose2(3, 4, 0.3)
    got = accumulate_sbev([(cloud, pose)], pose, SPEC, frame_id=7)
    want = rasterize_bev(cloud, SPEC)
    assert np.array_equal(got.grid, want.grid)
    assert got.frame_id == 7


def test_accumulate_union_cloud_oracle():
    # static world observed from several ego poses: accumulation equals
    # rasterizing the union of the clouds expressed in the newest frame
    rng = np.random.default_rng(5)
    world_pts = np.column_stack([
        rng.uniform(5, 60, 400), rng.uniform(-30, 30, 400), rng.uniform(0, 4, 400)])
    world_labels = rng.integers(1, 200, 400)
    poses = [Pose2(0, 0, 0), Pose2(2, 0.5, 0.05), Pose2(4, 1.0, 0.1)]
    frames = [(PointCloud(to_ego(p, world_pts), world_labels), p) for p in poses]
    got = accumulate_sbev(frames, poses[-1], SPEC)

    union = PointCloud(np.concatenate([to_ego(poses[-1], world_pts)] * 3),
                       np.concatenate([world_labels] * 3))
    want = rasterize_bev(union, SPEC)
    assert np.array_equal(got.grid, want.grid)


def test_accumulate_planar_poses_cell_centres():
    # window poses anywhere on the plane, yaw differences past +-pi among
    # them. Points sit at cell centers of the newest frame and have distinct
    # heights, so the float rounding of the transforms cannot move a point
    # across a cell border or reorder a tie.
    spec = GridSpec(size=32, resolution=0.5)
    rng = np.random.default_rng(9)
    n = 600
    rows, cols = rng.integers(0, 32, n), rng.integers(0, 32, n)
    x = (spec.size - 0.5 - rows) * spec.resolution
    y = (spec.size - 0.5 - cols) * spec.resolution - spec.lateral_extent / 2.0
    union = np.column_stack([x, y, rng.uniform(-2, 5, n)])
    labels = rng.integers(1, 256, n)
    current = Pose2(*rng.uniform(-50, 50, 2), 3.0)
    world = to_world(current, union)
    frames = []
    for theta in (-3.0, -1.0, 0.5, 2.5):
        pose = Pose2(*rng.uniform(-50, 50, 2), theta)
        frames.append((PointCloud(to_ego(pose, world), labels), pose))
    frames.append((PointCloud(union, labels), current))
    got = accumulate_sbev(frames, current, spec)
    want = brute_rasterize(PointCloud(union, labels), spec)
    assert want.any()
    assert np.array_equal(got.grid, want)


def test_accumulate_duplicate_frames_idempotent():
    rng = np.random.default_rng(6)
    cloud = random_cloud(rng, 200)
    pose = Pose2(1, 2, 0.2)
    one = accumulate_sbev([(cloud, pose)], pose, SPEC)
    five = accumulate_sbev([(cloud, pose)] * 5, pose, SPEC)
    assert np.array_equal(one.grid, five.grid)


def window_frames(rng, n_frames, n_points):
    poses = [Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-0.2, 0.2))
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
    empty = (PointCloud(np.zeros((0, 3)), np.zeros(0, np.uint8)), Pose2(1, 0, 0.1))
    for i in range(len(frames) + 1):
        window = frames[:i] + [empty] + frames[i:]
        assert np.array_equal(accumulate_sbev(window, current, spec).grid, want)


def test_accumulate_frame_count_checked():
    cloud = PointCloud(np.zeros((0, 3)), np.zeros(0, np.uint8))
    pose = Pose2(0, 0, 0)
    with pytest.raises(InputError):
        accumulate_sbev([], pose, SPEC)
    with pytest.raises(InputError):
        accumulate_sbev([(cloud, pose)] * 6, pose, SPEC)


def test_real_frame_windows_match_brute_force():
    """sbev_stream on rendered frames, clean and in rain, against the brute
    rasterization of each window's union cloud; pooled inputs against the
    float64 block mean."""
    spec, k, policy = SPEC, K_QUARTER, RunConfig().classes.policy()
    for weather in (None, RAIN):
        frames = rendered_frames(k, weather=weather)
        clouds = [(ego_cloud(d, l, k, policy), p) for _, p, d, l in frames]
        for i, sb in enumerate(sbev_stream(frames, k, policy, spec)):
            window = clouds[max(0, i + 1 - ACCUMULATION_WINDOW):i + 1]
            cur = window[-1][1]
            parts = []
            for cloud, pose in window:
                # the newest frame's ego coordinates: rotate by the yaw
                # difference, then shift by the ground-plane offset
                cr, sr = math.cos(pose.theta - cur.theta), math.sin(pose.theta - cur.theta)
                rot = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
                dx, dy = pose.x - cur.x, pose.y - cur.y
                cc, sc = math.cos(cur.theta), math.sin(cur.theta)
                parts.append(cloud.xyz @ rot.T + (cc * dx + sc * dy, -sc * dx + cc * dy, 0.0))
            union = PointCloud(np.concatenate(parts),
                               np.concatenate([c.labels for c, _ in window]))
            assert np.array_equal(sb.grid, brute_rasterize(union, spec))
            pooled = (sb.grid.astype(np.float64).reshape(44, 8, 44, 8).mean(axis=(1, 3))
                      / 255.0).ravel().astype(np.float32)
            got = grid_to_input(sb.grid, 8)
            assert got.dtype == pooled.dtype and np.array_equal(got, pooled)


@pytest.mark.parametrize("scale", [1, 2, 3])
def test_ego_cloud_equals_cloud_of_filtered_labels(scale):
    # odd-sized cameras, each with every `scale`-th pixel of an 81 x 61 one;
    # the narrow policy drops classes the frames hold
    k = Intrinsics(fx=80.0 / scale, fy=80.0 / scale, cx=40.0 / scale, cy=30.0 / scale,
                   width=80 // scale + 1, height=60 // scale + 1)
    wide = RunConfig().classes.policy()
    narrow = ClassPolicy(keep_set=wide.keep_set - {8, 100, 140, 141})
    for weather in (None, RAIN):
        for _, _, depth, labels in rendered_frames(k, slice(30, 33), weather):
            for policy in (narrow, wide):
                got = ego_cloud(depth, labels, k, policy)
                want = build_point_cloud(depth, filter_labels(labels, policy), k)
                assert got.xyz.dtype == want.xyz.dtype and got.labels.dtype == want.labels.dtype
                assert got.xyz.tobytes() == want.xyz.tobytes()
                assert got.labels.tobytes() == want.labels.tobytes()
                kept = np.isin(labels, sorted(policy.keep_set)) & (depth > 0)
                assert len(got) == int(kept.sum())
            # every pixel is read: the bottom-right one, ground in every
            # frame, is a point of the wide policy's cloud
            pixels = np.round(got.xyz[:, 1:] * -k.fx / got.xyz[:, :1] + (k.cx, k.cy))
            assert [k.width - 1, k.height - 1] in pixels.tolist()


def test_sbev_stream_yields_requested_frames_only():
    """Filtered streams, clean and in rain, yield the requested frames in
    stream order, each grid byte-equal to the unfiltered stream's; frames
    0-3, whose window is short, are among them."""
    spec, k, policy = SPEC, K_QUARTER, RunConfig().classes.policy()
    for weather in (None, RAIN):
        frames = rendered_frames(k, weather=weather)
        every = {sb.frame_id: sb.grid for sb in sbev_stream(frames, k, policy, spec)}
        assert sorted(every) == list(range(len(frames)))
        for ids in ([0, 2, 3], [11, 4, 7, 0, 7, 1], [5, 99], [], range(12)):
            read = []
            counted = (read.append(f[0]) or f for f in frames)
            got = list(sbev_stream(counted, k, policy, spec, frame_ids=ids))
            assert [sb.frame_id for sb in got] == sorted(set(ids) & every.keys())
            for sb in got:
                assert sb.grid.tobytes() == every[sb.frame_id].tobytes()
            # every frame is still read from the stream
            assert read == list(range(len(frames)))


def test_sbev_stream_clouds_only_windowed_frames(monkeypatch):
    """A filtered stream builds the ego clouds of the frames in the windows
    of the requested frames and no others; its grids are byte-equal to the
    unfiltered stream's."""
    spec, k, policy = SPEC, K_QUARTER, RunConfig().classes.policy()
    frames = rendered_frames(k, weather=RAIN)
    every = {sb.frame_id: sb.grid.tobytes() for sb in sbev_stream(frames, k, policy, spec)}
    frame_of = {id(depth): frame_id for frame_id, _, depth, _ in frames}
    clouded = []
    cloud = pipeline.ego_cloud
    monkeypatch.setattr(pipeline, "ego_cloud",
                        lambda depth, *a: clouded.append(frame_of[id(depth)]) or cloud(depth, *a))
    for ids, want in (([11], [7, 8, 9, 10, 11]),
                      ([9, 3], [0, 1, 2, 3, 5, 6, 7, 8, 9]),   # frame 4 skipped
                      ([0, 2], [0, 1, 2]),
                      ([5, 99], [1, 2, 3, 4, 5]),
                      ([], []),
                      (None, list(range(12)))):
        clouded.clear()
        got = list(sbev_stream(frames, k, policy, spec, frame_ids=ids))
        assert clouded == want
        requested = every.keys() if ids is None else set(ids)
        assert [sb.frame_id for sb in got] == sorted(every.keys() & requested)
        for sb in got:
            assert sb.grid.tobytes() == every[sb.frame_id]


def test_sbev_stream_rejects_ids_that_skip():
    k, policy = K_QUARTER, RunConfig().classes.policy()
    frames = rendered_frames(k, slice(30, 34))
    for ids in ([0, 2, 3, 4], [0, 1, 1, 2], [3, 2, 1, 0]):
        stream = [(i, *f[1:]) for i, f in zip(ids, frames)]
        with pytest.raises(InputError, match="count up by one"):
            list(sbev_stream(stream, k, policy, SPEC))
    # a stream may start at any id
    got = list(sbev_stream([(5 + i, *f[1:]) for i, f in enumerate(frames)], k, policy,
                           SPEC, frame_ids=[8]))
    assert [sb.frame_id for sb in got] == [8]


def test_default_camera_renders_the_even_pixels_of_its_double(monkeypatch):
    """The default camera renders, bit for bit, the even pixels of the camera
    with twice its intrinsics, the lattice the S-BEV was once sampled on, so
    clean outputs made with that camera stand. Seeds 0-2, lane offsets 0,
    +1.5 and -1.0, near-plane clipping included; S-BEV streams over the
    two frame sets are byte-equal."""
    cfg = RunConfig()
    k, policy = cfg.camera.intrinsics(), cfg.classes.policy()
    double = Intrinsics(2 * k.fx, 2 * k.fy, 2 * k.cx, 2 * k.cy, 2 * k.width, 2 * k.height)
    assert (double.fx, double.fy, double.cx, double.cy) == (160.0, 160.0, 159.5, 119.5)
    assert (double.width, double.height) == (320, 240)
    clipped = []
    clip = synthworld._clip_near
    monkeypatch.setattr(synthworld, "_clip_near", lambda poly: clipped.append(1) or clip(poly))
    synth = dataclasses.replace(cfg.synth, route_length=40.0, frame_spacing=1.0)
    for seed in (0, 1, 2):
        world = generate_world(derive_seed(seed, SEED_WORLD), synth)
        for lane in (0.0, 1.5, -1.0):
            poses = lane_shift(world.route, lane)
            frames = list(render_stream(world, poses, k))
            even = [(i, p, d[::2, ::2], l[::2, ::2])
                    for i, p, d, l in render_stream(world, poses, double)]
            for (_, _, d, l), (_, _, want_d, want_l) in zip(frames, even):
                assert d.dtype == want_d.dtype and l.dtype == want_l.dtype
                assert d.tobytes() == want_d.tobytes() and l.tobytes() == want_l.tobytes()
            grids = [sb.grid.tobytes() for sb in sbev_stream(frames, k, policy, SPEC)]
            assert grids == [sb.grid.tobytes() for sb in sbev_stream(even, k, policy, SPEC)]
    assert clipped
