"""Deterministic synthetic dataset generator.

A seeded world is a smooth procedural route lined with axis-aligned box
primitives carrying semantic class IDs. Frames are rendered by rasterizing
box faces into a pinhole camera with a z-buffer (plus an analytic ground
plane), producing exactly the (depth, label) pair the S-BEV pipeline
consumes. Weather perturbations and lateral lane shifts model degraded
segmentation/depth and cross-lane traversals.

Class IDs are organized in contiguous bands (vegetation, buildings, ...) so
that small confusions stay "numerically close" to the true class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import Intrinsics, Pose2

GROUND_CLASS = 8
PRIMITIVE_CLASSES = (100, 101, 102, 140, 141, 142, 180, 181, 182, 220, 221, 222)

# keep-set bands: each primitive band plus a +-3 margin, so weather confusion
# with a small radius relabels within the band instead of deleting content
DEFAULT_KEEP_SET = frozenset(
    c for base in (8, 100, 140, 180, 220) for c in range(base - 3, base + 6))


@dataclass(frozen=True)
class Box:
    center: np.ndarray   # (3,) meters
    extent: np.ndarray   # (3,) full side lengths
    class_id: int

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "extent", np.asarray(self.extent, dtype=np.float64))


@dataclass(frozen=True)
class WorldSpec:
    route_length: float = 1200.0
    frame_spacing: float = 0.5        # meters between rendered frames
    speed: float = 10.0               # m/s, defines timestamps
    curviness: float = 1.0            # scales the heading swing
    primitive_density: float = 0.15   # expected primitives per route meter
    clearance: float = 5.5            # min lateral face distance to the route
    max_lateral: float = 20.0
    camera_height: float = 1.5
    max_range: float = 48.0

    def __post_init__(self):
        # "not > 0" also rejects NaN, which JSON configs can carry
        if not self.route_length > 0:
            raise InputError("route length must be positive")
        if not (self.frame_spacing > 0 and self.speed > 0):
            raise InputError("frame spacing and speed must be positive")


@dataclass(frozen=True)
class World:
    seed: int
    spec: WorldSpec
    route: tuple          # Pose2 per frame
    primitives: tuple     # Box


@dataclass(frozen=True)
class WeatherSpec:
    """Per-frame perturbation knobs. The all-zero spec is a no-op.

    range_attenuation == 0 disables the fog cutoff.
    """

    label_confusion_prob: float = 0.0
    confusion_radius: int = 0
    depth_dropout_prob: float = 0.0
    depth_noise_sigma: float = 0.0
    range_attenuation: float = 0.0

    def __post_init__(self):
        for p in (self.label_confusion_prob, self.depth_dropout_prob):
            if not 0.0 <= p <= 1.0:
                raise InputError(f"probability {p} outside [0, 1]")


def generate_world(seed: int, spec: WorldSpec = WorldSpec()) -> World:
    """Seeded, reproducible world: smooth route plus flanking primitives."""
    rng = np.random.default_rng([seed, 0x5EED])

    n = int(round(spec.route_length / spec.frame_spacing)) + 1
    s = np.arange(n) * spec.frame_spacing
    phases = rng.uniform(0, 2 * math.pi, 3)
    heading = spec.curviness * (
        0.15 * np.sin(2 * math.pi * s / 450.0 + phases[0])
        + 0.08 * np.sin(2 * math.pi * s / 210.0 + phases[1])
        + 0.04 * np.sin(2 * math.pi * s / 90.0 + phases[2]))
    x = np.concatenate([[0.0], np.cumsum(np.cos(heading[:-1]) * spec.frame_spacing)])
    y = np.concatenate([[0.0], np.cumsum(np.sin(heading[:-1]) * spec.frame_spacing)])
    route = tuple(Pose2(xi, yi, ti) for xi, yi, ti in zip(x, y, heading))

    count = int(rng.poisson(spec.primitive_density * spec.route_length))
    route_xy = np.column_stack([x, y])
    boxes = []
    for _ in range(count):
        for _attempt in range(20):
            at = rng.uniform(0, spec.route_length)
            i = min(int(at / spec.frame_spacing), n - 1)
            side = 1.0 if rng.random() < 0.5 else -1.0
            ex, ey = rng.uniform(1.5, 6.0, 2)
            ez = rng.uniform(2.0, 8.0)
            half_diag = 0.5 * math.hypot(ex, ey)
            offset = rng.uniform(spec.clearance + half_diag,
                                 spec.max_lateral + half_diag)
            th = route[i].theta
            cx = x[i] - math.sin(th) * side * offset
            cy = y[i] + math.cos(th) * side * offset
            # keep every box clear of the whole route, not just its anchor
            d2 = np.min((route_xy[:, 0] - cx) ** 2 + (route_xy[:, 1] - cy) ** 2)
            if d2 >= (spec.clearance + half_diag) ** 2:
                cls = PRIMITIVE_CLASSES[rng.integers(0, len(PRIMITIVE_CLASSES))]
                boxes.append(Box(np.array([cx, cy, ez / 2.0]),
                                 np.array([ex, ey, ez]), cls))
                break
    return World(seed, spec, route, tuple(boxes))


def lane_shift(route, lateral_offset: float):
    """Translate every pose along its local left normal; headings unchanged."""
    return tuple(Pose2(p.x - math.sin(p.theta) * lateral_offset,
                       p.y + math.cos(p.theta) * lateral_offset,
                       p.theta) for p in route)


# ---------------------------------------------------------------------------
# rendering

_NEAR = 0.05


def _camera_basis(ego: Pose2):
    c, s = math.cos(ego.theta), math.sin(ego.theta)
    # optical axes expressed in world coordinates
    x_cam = np.array([s, -c, 0.0])   # right
    y_cam = np.array([0.0, 0.0, -1.0])  # down
    z_cam = np.array([c, s, 0.0])    # forward
    r_wc = np.column_stack([x_cam, y_cam, z_cam])
    return r_wc


def _clip_near(poly: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a camera-frame polygon against z >= _NEAR."""
    out = []
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        ain, bin_ = a[2] >= _NEAR, b[2] >= _NEAR
        if ain:
            out.append(a)
        if ain != bin_:
            t = (_NEAR - a[2]) / (b[2] - a[2])
            out.append(a + t * (b - a))
    return np.array(out) if out else np.zeros((0, 3))


_FACE_CORNERS = {
    # axis -> the two in-plane axes used to span the face
    0: (1, 2),
    1: (0, 2),
    2: (0, 1),
}


def _box_faces(box: Box):
    """Yield (plane_axis, plane_value, sign, corners 4x3 world)."""
    half = box.extent / 2.0
    for axis in range(3):
        u, v = _FACE_CORNERS[axis]
        for sign in (-1.0, 1.0):
            corners = np.tile(box.center, (4, 1))
            corners[:, axis] += sign * half[axis]
            du = np.array([-1.0, 1.0, 1.0, -1.0]) * half[u]
            dv = np.array([-1.0, -1.0, 1.0, 1.0]) * half[v]
            corners[:, u] += du
            corners[:, v] += dv
            yield axis, box.center[axis] + sign * half[axis], sign, corners


def render_frame(world: World, ego: Pose2, k: Intrinsics):
    """Render (depth_m, labels) for the camera at `ego` facing its heading.

    Depth is camera-frame Z distance; 0 marks sky / beyond max range.
    Labels are class IDs; 0 marks unlabeled.
    """
    spec = world.spec
    h, w = k.height, k.width
    r_wc = _camera_basis(ego)
    cam = np.array([ego.x, ego.y, spec.camera_height])

    us, vs = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    dx = (us - k.cx) / k.fx
    dy = (vs - k.cy) / k.fy

    # ground plane z=0: rays with a downward world component hit it
    dz_world = -dy  # world z of the (unnormalized, unit-camera-z) ray
    depth = np.zeros((h, w))
    labels = np.zeros((h, w), dtype=np.uint8)
    hit = dz_world < -1e-9
    t_ground = np.where(hit, cam[2] / np.maximum(-dz_world, 1e-12), np.inf)
    ground_ok = hit & (t_ground <= spec.max_range)
    depth[ground_ok] = t_ground[ground_ok]
    labels[ground_ok] = GROUND_CLASS
    zbuf = np.where(ground_ok, t_ground, np.inf)

    cull = spec.max_range + 10.0
    for box in world.primitives:
        rel = box.center - cam
        if rel[0] ** 2 + rel[1] ** 2 > cull ** 2:
            continue
        for axis, value, sign, corners in _box_faces(box):
            # backface cull: camera must sit on the outward side
            if sign * (cam[axis] - value) <= 0:
                continue
            poly_cam = (corners - cam) @ r_wc
            poly_cam = _clip_near(poly_cam)
            if len(poly_cam) < 3:
                continue
            pu = k.fx * poly_cam[:, 0] / poly_cam[:, 2] + k.cx
            pv = k.fy * poly_cam[:, 1] / poly_cam[:, 2] + k.cy
            u0 = max(int(math.ceil(pu.min())), 0)
            u1 = min(int(math.floor(pu.max())), w - 1)
            v0 = max(int(math.ceil(pv.min())), 0)
            v1 = min(int(math.floor(pv.max())), h - 1)
            if u0 > u1 or v0 > v1:
                continue
            gu = us[v0:v1 + 1, u0:u1 + 1]
            gv = vs[v0:v1 + 1, u0:u1 + 1]
            inside = np.ones(gu.shape, dtype=bool)
            m = len(pu)
            # convex polygon: consistent orientation of all edge cross products
            area = 0.0
            for i in range(m):
                j = (i + 1) % m
                area += pu[i] * pv[j] - pu[j] * pv[i]
            orient = 1.0 if area > 0 else -1.0
            for i in range(m):
                j = (i + 1) % m
                cross = ((pu[j] - pu[i]) * (gv - pv[i])
                         - (pv[j] - pv[i]) * (gu - pu[i]))
                inside &= orient * cross >= 0
            if not inside.any():
                continue
            # plane in camera frame: n_cam . p = n_cam . p0
            n_world = np.zeros(3)
            n_world[axis] = sign
            n_cam = r_wc.T @ n_world
            p0 = poly_cam[0]
            denom = (n_cam[0] * dx[v0:v1 + 1, u0:u1 + 1]
                     + n_cam[1] * dy[v0:v1 + 1, u0:u1 + 1] + n_cam[2])
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (n_cam @ p0) / denom
            ok = inside & np.isfinite(t) & (t >= _NEAR) & (t <= spec.max_range)
            ok &= t < zbuf[v0:v1 + 1, u0:u1 + 1]
            if not ok.any():
                continue
            sub = (slice(v0, v1 + 1), slice(u0, u1 + 1))
            zb = zbuf[sub]
            zb[ok] = t[ok]
            lb = labels[sub]
            lb[ok] = box.class_id
            db = depth[sub]
            db[ok] = t[ok]
    return depth, labels


# ---------------------------------------------------------------------------
# weather

def perturb_weather(frame, w: WeatherSpec, seed: int):
    """Seeded degradation of one (depth, labels) frame."""
    depth, labels = frame
    depth = np.array(depth, dtype=np.float64, copy=True)
    labels = np.array(labels, dtype=np.uint8, copy=True)
    rng = np.random.default_rng([seed, 0xFE])

    flip = (labels != 0) & (rng.random(labels.shape) < w.label_confusion_prob)
    n_flip = int(flip.sum())
    if n_flip:
        offs = rng.integers(-w.confusion_radius, w.confusion_radius + 1, n_flip)
        vals = np.clip(labels[flip].astype(int) + offs, 0, 255)
        labels[flip] = vals.astype(np.uint8)

    valid = depth > 0
    drop = valid & (rng.random(depth.shape) < w.depth_dropout_prob)
    depth[drop] = 0.0
    valid &= ~drop
    n_valid = int(valid.sum())
    if n_valid and w.depth_noise_sigma > 0:
        depth[valid] += rng.normal(0.0, w.depth_noise_sigma, n_valid)
        depth[valid & (depth <= 0)] = 0.0
    if w.range_attenuation > 0:
        depth[depth > w.range_attenuation] = 0.0
    return depth, labels
