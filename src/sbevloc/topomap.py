"""Topological node maps plus the training-set bookkeeping built on them.

Nodes are dropped along a trajectory whenever the pose has moved or turned
past fixed thresholds. Each camera frame is then assigned to its nearest
node (planar Euclidean distance) and labeled with its pose relative to that
node. Per-node sample balancing and pose-consistent grid augmentation live
here too.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError
from .geometry import Pose2, relative_pose, wrap_angle
from .sbev import GridSpec, SBev, cell_centers, cell_indices


@dataclass(frozen=True)
class NodePose:
    id: int
    pose: Pose2


@dataclass(frozen=True)
class TopoMap:
    nodes: tuple
    trans_threshold: float   # meters
    ang_threshold: float     # radians

    def __post_init__(self):
        for i, n in enumerate(self.nodes):
            if n.id != i:
                raise InputError(f"node ids must be contiguous, got {n.id} at {i}")

    def __len__(self):
        return len(self.nodes)

    def positions(self) -> np.ndarray:
        return np.array([[n.pose.x, n.pose.y] for n in self.nodes])


@dataclass(frozen=True)
class Sample:
    """One training/test example: a frame tied to its node."""

    frame_id: int
    node_id: int
    rel_pose: Pose2


@dataclass(frozen=True)
class NodeDataset:
    samples: tuple
    n_nodes: int

    def __len__(self):
        return len(self.samples)

    def counts(self) -> np.ndarray:
        c = np.zeros(self.n_nodes, dtype=int)
        for s in self.samples:
            c[s.node_id] += 1
        return c


def build_topo_map(trajectory, trans_threshold: float, ang_threshold: float) -> TopoMap:
    """Greedy walk: emit a node at the first pose far or turned enough."""
    trajectory = list(trajectory)
    if not trajectory:
        raise InputError("empty trajectory")
    if trans_threshold <= 0 or ang_threshold <= 0:
        raise InputError("thresholds must be positive")
    nodes = [NodePose(0, trajectory[0])]
    last = trajectory[0]
    for pose in trajectory[1:]:
        moved = math.hypot(pose.x - last.x, pose.y - last.y)
        turned = abs(wrap_angle(pose.theta - last.theta))
        if moved >= trans_threshold or turned >= ang_threshold:
            nodes.append(NodePose(len(nodes), pose))
            last = pose
    return TopoMap(tuple(nodes), trans_threshold, ang_threshold)


def nearest_node(topo: TopoMap, pose: Pose2) -> int:
    """Closest node by planar distance; ties go to the smallest id."""
    if not len(topo):
        raise InputError("empty map")
    d = topo.positions() - np.array([pose.x, pose.y])
    return int(np.argmin(np.einsum("ij,ij->i", d, d)))


def assign_to_nodes(topo: TopoMap, frames) -> NodeDataset:
    """Label (frame_id, pose) records with node id and rel pose."""
    samples = []
    for frame_id, pose in frames:
        nid = nearest_node(topo, pose)
        samples.append(Sample(frame_id, nid, relative_pose(topo.nodes[nid].pose, pose)))
    return NodeDataset(tuple(samples), n_nodes=len(topo))


def balance_samples(ds: NodeDataset, seed: int) -> NodeDataset:
    """Undersample every node to the minimum per-node count (seeded)."""
    by_node = [[] for _ in range(ds.n_nodes)]
    for i, s in enumerate(ds.samples):
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
    return NodeDataset(tuple(ds.samples[i] for i in chosen), ds.n_nodes)


@dataclass(frozen=True)
class AugmentConfig:
    """Viewpoint augmentations: in-place yaw tweaks and cell shifts.

    ``shifts_cells`` entries are (forward, lateral) cell offsets of the
    simulated viewpoint; positive lateral means the vehicle moved left.
    """

    rotations_deg: tuple[float, ...] = (-5.0, 5.0)
    shifts_cells: tuple[tuple[int, int], ...] = (
        (-4, 0), (4, 0), (0, -4), (0, 4), (0, -12), (0, 12))


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
    rows, cols, inside = cell_indices(spec, (c * x - s * y).ravel(), (s * x + c * y).ravel())
    src = np.where(inside, rows * size + cols, size * size).astype(np.intp)
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


def augment_sample(sb: SBev, rel_pose: Pose2, cfg: AugmentConfig,
                   spec: GridSpec | None = None):
    """Expand one sample into pose-consistent variants (original first)."""
    if spec is None:
        spec = GridSpec(size=sb.grid.shape[0], resolution=sb.resolution)
    out = [(sb, rel_pose)]
    for deg in cfg.rotations_deg:
        dth = math.radians(deg)
        grid = rotate_grid(sb.grid, dth, spec)
        out.append((SBev(grid, sb.resolution, sb.origin, sb.frame_id),
                    Pose2(rel_pose.x, rel_pose.y, rel_pose.theta + dth)))
    for di, dj in cfg.shifts_cells:
        grid = shift_grid(sb.grid, di, dj)
        out.append((SBev(grid, sb.resolution, sb.origin, sb.frame_id),
                    Pose2(rel_pose.x + di * spec.resolution,
                          rel_pose.y + dj * spec.resolution,
                          rel_pose.theta)))
    return out


# ---------------------------------------------------------------------------
# on-disk formats

def write_topomap(path, topo: TopoMap) -> None:
    doc = {
        "trans_threshold_m": topo.trans_threshold,
        "ang_threshold_deg": math.degrees(topo.ang_threshold),
        "nodes": [{"id": n.id, "x": n.pose.x, "y": n.pose.y, "theta": n.pose.theta}
                  for n in topo.nodes],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_topomap(path) -> TopoMap:
    try:
        with open(path) as f:
            doc = json.load(f)
        nodes = tuple(NodePose(int(n["id"]), Pose2(n["x"], n["y"], n["theta"]))
                      for n in doc["nodes"])
        trans, ang = float(doc["trans_threshold_m"]), float(doc["ang_threshold_deg"])
    except (ValueError, KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed topological map "
                          f"({type(e).__name__}: {e})") from None
    return TopoMap(nodes, trans, math.radians(ang))
