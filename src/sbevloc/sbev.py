"""Semantic bird's-eye-view construction.

A frame's depth map and class-ID label map are unprojected into a labeled
3D point cloud in the ego frame (x forward, y left, z up, origin at the
camera) and rasterized top-down into a square class-ID grid. Up to
ACCUMULATION_WINDOW consecutive frames are motion-compensated on the ground
plane into one accumulated grid.

Grid layout: the ego sits at the bottom-center cell looking "up" the image.
Row index decreases with forward distance x in [0, size*resolution); column
index decreases with leftward offset y in [-extent/2, +extent/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import Intrinsics, PointCloud, Pose2

DEFAULT_SIZE = 352
ACCUMULATION_WINDOW = 5   # frames merged into one S-BEV, the current one last


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the rasterization grid."""

    size: int = DEFAULT_SIZE
    resolution: float = 0.25           # meters per cell
    height_window: tuple = (-2.5, 6.0)  # z band kept, relative to the camera
    stride: int = 2                    # pixel lattice step for cloud building

    def __post_init__(self):
        if self.size <= 0 or self.resolution <= 0:
            raise InputError("grid size and resolution must be positive")
        if self.height_window[0] >= self.height_window[1]:
            raise InputError("height window must satisfy z_min < z_max")
        if self.stride < 1:
            raise InputError("stride must be >= 1")

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
        g = np.asarray(self.grid, dtype=np.uint8)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InputError(f"S-BEV grid must be square, got {g.shape}")
        if self.resolution <= 0:
            raise InputError("resolution must be positive")
        object.__setattr__(self, "grid", g)


def label_map(labels) -> np.ndarray:
    """`labels` as a uint8 class-ID map.

    A map of another integer dtype is converted when every value is in
    0..255; a non-integer dtype or a value outside that range raises
    InputError, where a cast would wrap it into some other class (300 into
    44). A uint8 map is returned as it is, unchecked.
    """
    labels = np.asarray(labels)
    if labels.dtype == np.uint8:
        return labels
    if labels.dtype.kind not in "iu":
        raise InputError(f"label map of dtype {labels.dtype}, need integer class IDs")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise InputError(f"label values {labels.min()}..{labels.max()} outside 0..255")
    return labels.astype(np.uint8)


def filter_labels(labels: np.ndarray, policy: ClassPolicy) -> np.ndarray:
    """Zero out IDs outside keep_set."""
    lut = np.zeros(256, dtype=np.uint8)
    for c in policy.keep_set:
        lut[c] = c
    return lut[label_map(labels)]


def stride_lattice(depth: np.ndarray, labels: np.ndarray, stride: int):
    """The float64 depth and uint8 labels of one frame, checked to be of one
    shape, at every `stride`-th row and column from (0, 0)."""
    depth = np.asarray(depth, dtype=np.float64)
    labels = label_map(labels)
    if depth.shape != labels.shape:
        raise InputError(f"depth {depth.shape} vs labels {labels.shape}")
    return depth[::stride, ::stride], labels[::stride, ::stride]


def lattice_cloud(d: np.ndarray, l: np.ndarray, k: Intrinsics, stride: int) -> PointCloud:
    """Unproject every valid-depth, labeled pixel of a `stride_lattice`.

    Lattice cell (i, j) is image pixel (i * stride, j * stride). `d` is the
    distance along the viewing axis, which is ego x. Returned points are in
    the ego frame: a pixel right of the principal point has y < 0, one
    below it z < 0.
    """
    vs, us = np.nonzero((d > 0) & (l != 0))
    dv = d[vs, us]
    u = us * stride
    v = vs * stride
    xyz = np.stack([dv,
                    -((u - k.cx) * dv / k.fx),
                    -((v - k.cy) * dv / k.fy)], axis=1)
    return PointCloud(xyz, l[vs, us])


def build_point_cloud(depth: np.ndarray, labels: np.ndarray, k: Intrinsics,
                      stride: int = 2) -> PointCloud:
    """Unproject every valid-depth, labeled pixel on the stride lattice, as
    `lattice_cloud` does."""
    return lattice_cloud(*stride_lattice(depth, labels, stride), k, stride)


def cell_indices(spec: GridSpec, x: np.ndarray, y: np.ndarray):
    """Metric ego coordinates -> (row, col, inside_mask)."""
    half = spec.lateral_extent / 2.0
    xi = np.floor(np.asarray(x) / spec.resolution).astype(np.int64)
    yi = np.floor((np.asarray(y) + half) / spec.resolution).astype(np.int64)
    rows = spec.size - 1 - xi
    cols = spec.size - 1 - yi
    inside = (xi >= 0) & (xi < spec.size) & (yi >= 0) & (yi < spec.size)
    return rows, cols, inside


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
    cell's top height, the second the largest label among the points at it.
    A max does not depend on the order of its inputs, so neither does the
    result; -0.0 and +0.0 tie.
    """
    grid = np.zeros(spec.size * spec.size, dtype=np.uint8)
    x, y, z = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
    zmin, zmax = spec.height_window
    rows, cols, inside = cell_indices(spec, x, y)
    keep = inside & (z >= zmin) & (z <= zmax) & (cloud.labels != 0)
    cell, z, labels = rows[keep] * spec.size + cols[keep], z[keep], cloud.labels[keep]
    top = np.full(grid.size, -np.inf)
    np.maximum.at(top, cell, z)
    at_top = z == top[cell]
    np.maximum.at(grid, cell[at_top], labels[at_top])
    return SBev(grid.reshape(spec.size, spec.size), spec.resolution, frame_id)


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
    xyz = np.empty((sum(len(cloud) for cloud, _ in frames), 3))
    labels = np.empty(len(xyz), dtype=np.uint8)
    start = 0
    for cloud, pose in frames:
        # p' = R(theta_i - theta_c) p + R(-theta_c) (t_i - t_c); the row
        # vectors are multiplied by R^T
        dx, dy = pose.x - current.x, pose.y - current.y
        dtheta = pose.theta - current.theta
        c, s = math.cos(dtheta), math.sin(dtheta)
        part = xyz[start:start + len(cloud)]
        np.matmul(cloud.xyz, np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]),
                  out=part)
        part += (cc * dx + sc * dy, -sc * dx + cc * dy, 0.0)
        labels[start:start + len(cloud)] = cloud.labels
        start += len(cloud)
    return rasterize_bev(PointCloud(xyz, labels), spec, frame_id=frame_id)
