"""Layer microbenchmarks with pytest-benchmark, kept out of the tier-1 run.

    PYTHONPATH=src python -m pytest microbench -q

Each benchmark also checks its output once, so a fast wrong result fails.
"""

import dataclasses
import math

import numpy as np
import pytest

from sbevloc.config import SEED_WORLD, RunConfig, derive_seed
from sbevloc.geometry import PointCloud, Pose2, pose3_compose, pose3_from_pose2, pose3_inverse
from sbevloc.localizer import grid_to_input
from sbevloc.pipeline import ACCUMULATION_WINDOW, ego_cloud
from sbevloc.sbev import GridSpec, accumulate_sbev, rasterize_bev
from sbevloc.synthworld import generate_world, render_frame
from sbevloc.topomap import rotate_grid

SPEC = GridSpec()
N_POINTS = 50_000
CFG = RunConfig()       # default camera (320x240) and grid (352 cells at 0.25 m)


def cloud_in_view(rng, n, heights):
    """Points spread over the grid, in random order, at the given heights."""
    extent = SPEC.size * SPEC.resolution
    xyz = np.column_stack([rng.uniform(0, extent, n),
                           rng.uniform(-extent / 2, extent / 2, n), heights])
    return PointCloud(xyz, rng.integers(1, 256, n))


@pytest.fixture(scope="module")
def tie_heavy():
    # a handful of heights, like a flat ground plane and box tops
    rng = np.random.default_rng(1)
    return cloud_in_view(rng, N_POINTS, rng.choice([-1.5, 0.5, 2.0, 3.5], N_POINTS))


@pytest.fixture(scope="module")
def noisy():
    # continuous heights, like depth noise in rain
    rng = np.random.default_rng(2)
    return cloud_in_view(rng, N_POINTS, rng.normal(0.0, 1.5, N_POINTS))


@pytest.mark.parametrize("name", ["tie_heavy", "noisy"])
def test_rasterize_bev(benchmark, request, name):
    cloud = request.getfixturevalue(name)
    sb = benchmark(rasterize_bev, cloud, SPEC)
    assert sb.grid.any()


def test_accumulate_sbev_window(benchmark, noisy):
    parts = np.array_split(np.arange(N_POINTS), 5)
    frames = [(PointCloud(noisy.xyz[p], noisy.labels[p]),
               pose3_from_pose2(Pose2(0.5 * i, 0.0, 0.01 * i), z=1.5))
              for i, p in enumerate(parts)]
    sb = benchmark(accumulate_sbev, frames, frames[-1][1], SPEC)
    assert sb.grid.any()


@pytest.fixture(scope="module")
def world():
    # the 160 m route of the relocalize benchmark, seed 1
    synth = dataclasses.replace(CFG.synth, route_length=160.0)
    return generate_world(derive_seed(1, SEED_WORLD), synth)


@pytest.fixture(scope="module")
def real_window(world):
    """The ego clouds and poses of 5 consecutive rendered frames, newest last."""
    k, policy, spec = CFG.camera.intrinsics(), CFG.classes.policy(), CFG.grid.grid_spec()
    return [(ego_cloud(*render_frame(world, p, k), k, policy, spec),
             pose3_from_pose2(p, z=CFG.synth.camera_height))
            for p in world.route[100:100 + ACCUMULATION_WINDOW]]


def lexsort_rasterize(xyz, labels, spec):
    """Reference: per cell, the last point of a (cell, z, label) sort wins."""
    rows = spec.size - 1 - np.floor(xyz[:, 0] / spec.resolution).astype(np.int64)
    cols = (spec.size - 1
            - np.floor((xyz[:, 1] + spec.lateral_extent / 2) / spec.resolution).astype(np.int64))
    z = xyz[:, 2]
    keep = ((rows >= 0) & (rows < spec.size) & (cols >= 0) & (cols < spec.size)
            & (z >= spec.height_window[0]) & (z <= spec.height_window[1]) & (labels != 0))
    cell, z, labels = rows[keep] * spec.size + cols[keep], z[keep], labels[keep]
    order = np.lexsort((labels, z, cell))
    grid = np.zeros(spec.size * spec.size, dtype=np.uint8)
    grid[cell[order]] = labels[order]
    return grid.reshape(spec.size, spec.size)


def test_accumulate_sbev_real_window(benchmark, real_window):
    spec = CFG.grid.grid_spec()
    current = real_window[-1][1]
    sb = benchmark(accumulate_sbev, real_window, current, spec)
    inv_cur = pose3_inverse(current)
    rels = [(cloud, pose3_compose(inv_cur, pose)) for cloud, pose in real_window]
    xyz = np.concatenate([c.xyz @ r.rotation_matrix().T + r.translation for c, r in rels])
    labels = np.concatenate([c.labels for c, _ in real_window])
    assert sb.grid.any()
    assert np.array_equal(sb.grid, lexsort_rasterize(xyz, labels, spec))


def test_render_frame(benchmark, world):
    k = CFG.camera.intrinsics()
    depth, labels = benchmark(render_frame, world, world.route[100], k)
    assert depth.shape == labels.shape == (k.height, k.width)
    assert labels.any() and (depth > 0).any()


def test_rotate_grid(benchmark, real_window):
    spec = CFG.grid.grid_spec()
    grid = accumulate_sbev(real_window, real_window[-1][1], spec).grid
    rot = benchmark(rotate_grid, grid, math.radians(5), spec)
    back = rotate_grid(rot, math.radians(-5), spec)
    # nearest-neighbor resampling keeps most labeled cells through a round trip
    assert rot.dtype == grid.dtype and (back[grid != 0] == grid[grid != 0]).mean() > 0.8


def test_grid_to_input(benchmark):
    grid = np.random.default_rng(3).integers(0, 256, (SPEC.size, SPEC.size), dtype=np.uint8)
    x = benchmark(grid_to_input, grid, 8)
    assert x.shape == ((SPEC.size // 8) ** 2,)
