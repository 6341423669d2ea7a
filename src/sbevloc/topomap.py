"""Topological node maps plus the training-set bookkeeping built on them.

Nodes are dropped along a trajectory whenever the pose has moved or turned
past fixed thresholds; node i is row i of `TopoMap.poses()`, as in
`bundle.npz`. Each camera frame is then assigned to its nearest node (planar
Euclidean distance, ties to the smallest id) and labeled with its pose
relative to that node. Per-node sample balancing and pose-consistent grid
augmentation live here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import Pose2, relative_pose, wrap_angle
from .sbev import GridSpec, SBev, cell_centers, flat_cells


@dataclass(frozen=True)
class NodePose:
    pose: Pose2


@dataclass(frozen=True)
class TopoMap:
    nodes: tuple
    trans_threshold: float   # meters
    ang_threshold: float     # radians

    def __len__(self):
        return len(self.nodes)

    def poses(self) -> np.ndarray:
        """(n, 3) float64 rows of x, y, theta; row i is node i."""
        return np.array([[n.pose.x, n.pose.y, n.pose.theta]
                         for n in self.nodes]).reshape(-1, 3)

    @classmethod
    def from_poses(cls, poses, trans_threshold: float, ang_threshold: float):
        """Inverse of `poses`: node i sits at row i of an (n, 3) array."""
        poses = np.asarray(poses, dtype=np.float64)
        if poses.ndim != 2 or poses.shape[1] != 3:
            raise InputError(f"node poses must be (n, 3), got shape {poses.shape}")
        return cls(tuple(NodePose(Pose2(*p)) for p in poses.tolist()),
                   trans_threshold, ang_threshold)


@dataclass(frozen=True)
class Sample:
    """One training/test example: a frame tied to its node."""

    frame_id: int
    node_id: int
    rel_pose: Pose2


def build_topo_map(trajectory, trans_threshold: float, ang_threshold: float) -> TopoMap:
    """Greedy walk: emit a node at the first pose far or turned enough."""
    trajectory = list(trajectory)
    if not trajectory:
        raise InputError("empty trajectory")
    # "not > 0" also rejects NaN
    if not (trans_threshold > 0 and ang_threshold > 0):
        raise InputError("thresholds must be positive")
    nodes = [NodePose(trajectory[0])]
    last = trajectory[0]
    for pose in trajectory[1:]:
        moved = math.hypot(pose.x - last.x, pose.y - last.y)
        turned = abs(wrap_angle(pose.theta - last.theta))
        if moved >= trans_threshold or turned >= ang_threshold:
            nodes.append(NodePose(pose))
            last = pose
    return TopoMap(tuple(nodes), trans_threshold, ang_threshold)


def assign_to_nodes(topo: TopoMap, frames) -> tuple:
    """Label (frame_id, pose) records with node id and rel pose: one Sample each."""
    if not len(topo):
        raise InputError("empty map")
    frames = list(frames)
    d = topo.poses()[:, :2] - np.array([[p.x, p.y] for _, p in frames]).reshape(-1, 1, 2)
    nearest = np.argmin(np.einsum("fnk,fnk->fn", d, d), axis=1).tolist()
    return tuple(Sample(frame_id, nid, relative_pose(topo.nodes[nid].pose, pose))
                 for (frame_id, pose), nid in zip(frames, nearest))


def balance_samples(samples, n_nodes: int, seed: int) -> tuple:
    """Undersample every node to the minimum per-node count (seeded)."""
    by_node = [[] for _ in range(n_nodes)]
    for i, s in enumerate(samples):
        if not 0 <= s.node_id < n_nodes:  # -1 would join the last node
            raise InputError(f"sample {i} has node id {s.node_id}, outside "
                             f"0..{n_nodes - 1}")
        by_node[s.node_id].append(i)
    sizes = [len(b) for b in by_node]
    if min(sizes, default=0) == 0:
        empty = [i for i, n in enumerate(sizes) if n == 0]
        raise InputError(f"nodes without samples: {empty[:10]}")
    m = min(sizes)
    rng = np.random.default_rng(seed)
    chosen = []
    for idx in by_node:
        pick = rng.choice(len(idx), size=m, replace=False)
        chosen.extend(idx[i] for i in sorted(pick))
    chosen.sort()
    return tuple(samples[i] for i in chosen)


@dataclass(frozen=True)
class AugmentConfig:
    """Viewpoint augmentations: in-place yaw tweaks and cell shifts.

    ``shifts_cells`` entries are (forward, lateral) cell offsets of the
    simulated viewpoint; positive lateral means the vehicle moved left.
    """

    rotations_deg: tuple[float, ...] = (-5.0, 5.0)
    shifts_cells: tuple[tuple[int, int], ...] = (
        (-4, 0), (4, 0), (0, -4), (0, 4), (0, -12), (0, 12))

    def __post_init__(self):
        if not all(math.isfinite(r) for r in self.rotations_deg):
            raise InputError(f"rotations_deg {list(self.rotations_deg)} must be finite")


def shift_grid(grid: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Simulate a viewpoint moved (di, dj) cells forward/left.

    Scene content slides the opposite way along the forward/lateral axes,
    which in row/col array indexing is a (+di, +dj) translation with zero
    fill.
    """
    out = np.zeros_like(grid)
    h, w = grid.shape
    rs = slice(max(di, 0), h + min(di, 0))
    cs = slice(max(dj, 0), w + min(dj, 0))
    rs_src = slice(max(-di, 0), h + min(-di, 0))
    cs_src = slice(max(-dj, 0), w + min(-dj, 0))
    out[rs, cs] = grid[rs_src, cs_src]
    return out


@functools.lru_cache(maxsize=8)
def _rotation_source(angle: float, size: int, resolution: float) -> np.ndarray:
    """Flat source cell of each output cell of rotate_grid, as read-only
    intp; cells whose source falls off the grid point one past its end."""
    spec = GridSpec(size=size, resolution=resolution)
    xc, yc = cell_centers(spec)
    x = np.broadcast_to(xc[:, None], (size, size))
    y = np.broadcast_to(yc[None, :], (size, size))
    c, s = math.cos(angle), math.sin(angle)
    # inverse map: source coords in the original grid
    src = flat_cells(spec, (c * x - s * y).ravel(), (s * x + c * y).ravel())
    src.flags.writeable = False
    return src


def rotate_grid(grid: np.ndarray, angle: float, spec: GridSpec) -> np.ndarray:
    """Simulate a viewpoint yawed by +angle: content rotates by -angle about
    the ego point, nearest-neighbor resampled.

    The inverse map depends only on the angle and the grid geometry, so it
    is computed once per (angle, size, resolution) and each call is one
    gather.
    """
    if grid.shape != (spec.size, spec.size):
        raise InputError(f"grid {grid.shape} does not match a {spec.size}-cell spec")
    src = _rotation_source(angle, spec.size, spec.resolution)
    return np.append(grid.ravel(), grid.dtype.type(0))[src].reshape(grid.shape)


def augment_sample(sb: SBev, rel_pose: Pose2, cfg: AugmentConfig):
    """Expand one sample into pose-consistent variants (original first)."""
    spec = GridSpec(size=sb.grid.shape[0], resolution=sb.resolution)
    out = [(sb, rel_pose)]
    for deg in cfg.rotations_deg:
        dth = math.radians(deg)
        grid = rotate_grid(sb.grid, dth, spec)
        out.append((SBev(grid, sb.resolution, sb.frame_id),
                    Pose2(rel_pose.x, rel_pose.y, rel_pose.theta + dth)))
    for di, dj in cfg.shifts_cells:
        grid = shift_grid(sb.grid, di, dj)
        out.append((SBev(grid, sb.resolution, sb.frame_id),
                    Pose2(rel_pose.x + di * spec.resolution,
                          rel_pose.y + dj * spec.resolution,
                          rel_pose.theta)))
    return out
