"""Semantic bird's-eye-view construction.

Every pixel of a frame's depth map and class-ID label map is unprojected
into a labeled 3D point cloud in the ego frame (x forward, y left, z up,
origin at the camera) and rasterized top-down into a square class-ID grid.
The camera's resolution alone sets how densely a frame is sampled. Up to
ACCUMULATION_WINDOW consecutive frames are motion-compensated on the ground
plane into one accumulated grid.

Grid layout: the ego sits at the bottom-center cell looking "up" the image.
Row index decreases with forward distance x in [0, size*resolution); column
index decreases with leftward offset y in [-extent/2, +extent/2).

Rasterization gives every point one flat cell index, row * size + col. A
point that must not count gets the sentinel index size * size, one past the
last cell, in place of a masked copy of the points that do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import Intrinsics, PointCloud, Pose2, label_map

DEFAULT_SIZE = 352
ACCUMULATION_WINDOW = 5   # frames merged into one S-BEV, the current one last


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the rasterization grid."""

    size: int = DEFAULT_SIZE
    resolution: float = 0.25           # meters per cell
    height_window: tuple = (-2.5, 6.0)  # z band kept, relative to the camera

    def __post_init__(self):
        if self.size <= 0 or not (math.isfinite(self.resolution) and self.resolution > 0):
            raise InputError("grid size and resolution must be finite and positive")
        zmin, zmax = self.height_window
        if not (math.isfinite(zmin) and math.isfinite(zmax) and zmin < zmax):
            raise InputError("height window must be finite with z_min < z_max")

    @property
    def lateral_extent(self) -> float:
        return self.size * self.resolution


@dataclass(frozen=True)
class ClassPolicy:
    """Which class IDs survive into the S-BEV."""

    keep_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "keep_set", frozenset(int(c) for c in self.keep_set))
        for c in self.keep_set:
            if not 0 < c <= 255:
                raise InputError(f"class ID {c} outside 1..255")


@dataclass(frozen=True)
class SBev:
    """Class-ID grid plus the metadata needed to reuse it downstream."""

    grid: np.ndarray               # (size, size) uint8, 0 = empty
    resolution: float
    frame_id: int = 0

    def __post_init__(self):
        g = label_map(self.grid)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InputError(f"S-BEV grid must be square, got {g.shape}")
        if self.resolution <= 0:
            raise InputError("resolution must be positive")
        object.__setattr__(self, "grid", g)


def filter_labels(labels: np.ndarray, policy: ClassPolicy) -> np.ndarray:
    """Zero out IDs outside keep_set."""
    lut = np.zeros(256, dtype=np.uint8)
    for c in policy.keep_set:
        lut[c] = c
    return lut.take(label_map(labels))   # as lut[labels], in half the time


def build_point_cloud(depth: np.ndarray, labels: np.ndarray, k: Intrinsics) -> PointCloud:
    """Unproject every valid-depth, labeled pixel of one frame.

    `depth` is the distance along the viewing axis, which is ego x, and
    must have the shape of `labels`. Returned points are in the ego frame: a
    pixel right of the principal point has y < 0, one below it z < 0.
    """
    depth = np.asarray(depth, dtype=np.float64)
    labels = label_map(labels)
    if depth.shape != labels.shape:
        raise InputError(f"depth {depth.shape} vs labels {labels.shape}")
    valid = (depth > 0) & (labels != 0)
    vs, us = np.nonzero(valid)
    xyz = np.empty((3, len(vs))).T   # column-major: each coordinate contiguous
    xyz[:, 0] = d = depth[valid]     # in the row-major order of nonzero
    xyz[:, 1] = -((us - k.cx) * d / k.fx)
    xyz[:, 2] = -((vs - k.cy) * d / k.fy)
    return PointCloud(xyz, labels[valid])


def flat_cells(spec: GridSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat cell index, row * size + col, of each metric ego point, as intp.

    A point off the grid, or with a NaN or infinite coordinate, gets the
    sentinel n_cells = size * size, one past the last cell. A point's cell
    is fixed by xi = floor(x / res) and yi = floor((y + half) / res), at
    row size-1-xi and column size-1-yi, so its index is
    n_cells - 1 - (xi * size + yi): integers far below 2**53, exact in the
    float64 in which they are computed.
    """
    size, res = spec.size, spec.resolution
    n_cells = size * size
    xi = np.floor(np.divide(x, res))
    yi = np.add(y, spec.lateral_extent / 2.0)
    yi /= res
    np.floor(yi, out=yi)
    inside = xi >= 0        # False for NaN
    inside &= xi < size
    inside &= yi >= 0
    inside &= yi < size
    with np.errstate(invalid="ignore", over="ignore"):   # off-grid points only
        xi *= size
        xi += yi
        np.subtract(n_cells - 1, xi, out=xi)
    # freed before the cast allocates, so that the cast can reuse its memory
    # and a call does not need fresh pages
    del yi
    np.copyto(xi, n_cells, where=~inside)
    return xi.astype(np.intp)


def cell_centers(spec: GridSpec):
    """Metric (x, y) of each cell center, as per-row and per-col vectors."""
    idx = np.arange(spec.size)
    x = (spec.size - 0.5 - idx) * spec.resolution          # by row
    y = (spec.size - 0.5 - idx) * spec.resolution - spec.lateral_extent / 2.0  # by col
    return x, y


def rasterize_bev(cloud: PointCloud, spec: GridSpec, frame_id: int = 0) -> SBev:
    """Top-down projection: per cell, keep the label of the highest point.

    Among the points at a cell's top height, the larger label ID wins. Two
    scatter-max passes over the flat cell index: the first gives each
    cell's top height, the second, over the points at their cell's top
    only, the largest label among them. Points that must not count go to
    the sentinel cell n_cells: off the grid (`flat_cells`), a height
    outside the window or NaN, and label 0. Both passes run over n_cells +
    1 entries and drop the last. Every other point keeps the exact cell it
    had, so the grid equals that of the masked points alone. A max does not
    depend on the order of its inputs, so neither does the result; -0.0 and
    +0.0 tie.
    """
    n_cells = spec.size * spec.size
    x, y, z = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
    zmin, zmax = spec.height_window
    cell = flat_cells(spec, x, y)
    mask = z >= zmin        # the points that count; False for NaN
    mask &= z <= zmax
    mask &= cloud.labels != 0
    cell[np.logical_not(mask, out=mask)] = n_cells
    top = np.full(n_cells + 1, -np.inf)
    with np.errstate(invalid="ignore"):    # NaN heights, all in the sentinel
        np.maximum.at(top, cell, z)
    at_top = np.flatnonzero(z == top[cell])
    grid = np.zeros(n_cells + 1, dtype=np.uint8)
    np.maximum.at(grid, cell[at_top], cloud.labels[at_top])
    return SBev(grid[:n_cells].reshape(spec.size, spec.size), spec.resolution, frame_id)


def accumulate_sbev(frames, current: Pose2, spec: GridSpec,
                    frame_id: int = 0) -> SBev:
    """Merge up to ACCUMULATION_WINDOW (ego-frame cloud, ego Pose2) pairs,
    newest last.

    Every cloud is moved on the ground plane into the ego coordinates of
    `current`, straight into one buffer, before a single rasterization pass;
    z is kept, so the grid lies in the ego frame of `current`. Per cell the
    highest point of the union wins, ties to the larger label; the result
    depends neither on the order of the frames or their points nor on the
    stability of a sort.
    """
    if not 1 <= len(frames) <= ACCUMULATION_WINDOW:
        raise InputError(f"need 1..{ACCUMULATION_WINDOW} frames, got {len(frames)}")
    cc, sc = math.cos(current.theta), math.sin(current.theta)
    # column-major, as `build_point_cloud` makes clouds: coordinate rows
    cols = np.empty((3, sum(len(cloud) for cloud, _ in frames)))
    labels = np.empty(cols.shape[1], dtype=np.uint8)
    start = 0
    for cloud, pose in frames:
        # p' = R(theta_i - theta_c) p + R(-theta_c) (t_i - t_c), on the
        # coordinate rows of the cloud
        dx, dy = pose.x - current.x, pose.y - current.y
        dtheta = pose.theta - current.theta
        c, s = math.cos(dtheta), math.sin(dtheta)
        part = cols[:, start:start + len(cloud)]
        np.matmul(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), cloud.xyz.T,
                  out=part)
        part[0] += cc * dx + sc * dy
        part[1] += -sc * dx + cc * dy
        labels[start:start + len(cloud)] = cloud.labels
        start += len(cloud)
    return rasterize_bev(PointCloud(cols.T, labels), spec, frame_id=frame_id)
