"""Deterministic synthetic dataset generator.

A seeded world is a smooth procedural route lined with axis-aligned box
primitives carrying semantic class IDs. Frames are rendered by rasterizing
box faces into a pinhole camera with a z-buffer (plus an analytic ground
plane), producing exactly the (depth, label) pair the S-BEV pipeline
consumes. Weather perturbations and lateral lane shifts model degraded
segmentation/depth and cross-lane traversals.

Rendering does per frame only the work that depends on the pose. Per
camera (intrinsics, camera height, max range) the pixel coordinates, their
ray slopes and the ground plane's labels and z-buffer are built once and
cached read-only; each frame starts from copies of the two, and its z-buffer
becomes its depth map. Per world, the six faces of every box are built
once, when the `World` is made, by one broadcast of the box centers and
half extents against a table of corner signs. A frame culls all faces by
range and facing in one pass, then projects the corners of the survivors in
one batched op and drops each face wholly behind the near plane, or wholly
in front of it and beyond one image edge. That pre-cull is exact: such a
face clips to nothing, or its pixel box is empty, so the per-face path
would draw none of its pixels, and a face that draws nothing changes no
buffer. Both tests keep a margin far above the rounding by which the
batched projection can differ from the per-face one, so a face near a
boundary goes to the per-face path. The rest are rasterized in box order.
The S-BEV unprojects every pixel, so no rendered pixel goes unread.

Class IDs are organized in contiguous bands (vegetation, buildings, ...) so
that small confusions stay "numerically close" to the true class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
        # every value is finite, which also rejects the NaN JSON configs can carry
        for name in ("route_length", "frame_spacing", "speed", "camera_height",
                     "max_range"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be positive and finite, got {value}")
        for name in ("primitive_density", "clearance", "max_lateral"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InputError(f"{name} must be non-negative and finite, got {value}")
        if not math.isfinite(self.curviness):
            raise InputError(f"curviness must be finite, got {self.curviness}")


@dataclass(frozen=True)
class World:
    seed: int
    spec: WorldSpec
    route: tuple          # Pose2 per frame
    primitives: tuple     # Box
    faces: FaceTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "faces", FaceTable.of(self.primitives))


@dataclass(frozen=True)
class WeatherSpec:
    """Per-frame perturbation knobs. The all-zero spec is a no-op.

    range_attenuation == 0 disables the fog cutoff. Every knob is
    non-negative and finite, and the two probabilities are at most 1.
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
        for name in ("confusion_radius", "depth_noise_sigma", "range_attenuation"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also rejects NaN
                raise InputError(f"{name} must be non-negative and finite, got {value}")


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
# margins of the frustum pre-cull, in metres of depth and in pixels
_CULL_MARGIN_M = 1e-6
_CULL_MARGIN_PX = 1.0


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


def _may_draw(poly_cam: np.ndarray, k: Intrinsics) -> np.ndarray:
    """(n, 4, 3) camera-frame face corners -> (n,) bool, False for a face
    that draws no pixel: every corner behind the near plane, or every corner
    in front of it and beyond one image edge, each by a margin."""
    z = poly_cam[..., 2]
    behind = (z < _NEAR - _CULL_MARGIN_M).all(axis=1)
    front = (z >= _NEAR + _CULL_MARGIN_M).all(axis=1)
    # the projection is read only where every corner is in front
    zs = np.maximum(z, _NEAR)
    pu = k.fx * poly_cam[..., 0] / zs + k.cx
    pv = k.fy * poly_cam[..., 1] / zs + k.cy
    m = _CULL_MARGIN_PX
    beyond = ((pu.max(axis=1) < -m) | (pu.min(axis=1) > k.width - 1 + m)
              | (pv.max(axis=1) < -m) | (pv.min(axis=1) > k.height - 1 + m))
    return ~(behind | (front & beyond))


# corner offsets of a box's six faces, in half extents. Faces 2 * axis and
# 2 * axis + 1 bound the box at -1 and +1 along axis; the two other axes
# u < v span their corners (-1, -1), (1, -1), (1, 1), (-1, 1). Each row is
# written as (side, u, v), then put in (x, y, z) order for its axis.
_SQUARE = ((-1, -1), (1, -1), (1, 1), (-1, 1))
_FACE_SIGNS = np.array([[[(side, u, v)[i] for i in order] for u, v in _SQUARE]
                        for order in ((0, 1, 2), (1, 0, 2), (1, 2, 0))
                        for side in (-1.0, 1.0)])


@dataclass(frozen=True)
class FaceTable:
    """The six faces of every box of a world, in `_FACE_SIGNS` order box by
    box; row f is face f, and all arrays are read-only."""

    box: np.ndarray       # (F,) index into World.primitives
    axis: np.ndarray      # (F,) axis of the face's plane
    value: np.ndarray     # (F,) plane coordinate along that axis
    sign: np.ndarray      # (F,) side of the box the face bounds, -1 or +1
    corners: np.ndarray   # (F, 4, 3) world corners
    center_xy: np.ndarray  # (F, 2) ground position of the face's box

    @classmethod
    def of(cls, boxes) -> FaceTable:
        """Each corner coordinate is one IEEE add: its box's center plus a
        signed half extent."""
        centers = np.array([b.center for b in boxes]).reshape(-1, 1, 1, 3)
        halves = np.array([b.extent for b in boxes]).reshape(-1, 1, 1, 3) / 2.0
        corners = (centers + _FACE_SIGNS * halves).reshape(-1, 4, 3)
        axis = np.tile(np.arange(3).repeat(2), len(boxes))
        table = cls(box=np.arange(len(boxes)).repeat(6), axis=axis,
                    value=corners[np.arange(len(axis)), 0, axis],
                    sign=np.tile([-1.0, 1.0], 3 * len(boxes)), corners=corners,
                    center_xy=centers[:, 0, 0, :2].repeat(6, axis=0))
        for col in vars(table).values():
            col.flags.writeable = False
        return table


@functools.lru_cache(maxsize=8)
def _camera_planes(k: Intrinsics, camera_height: float, max_range: float):
    """Pose-independent planes of one camera, read-only: pixel columns `us`
    (w,) and rows `vs` (h, 1), their ray slopes `dx` and `dy`, and the
    ground plane's labels and z-buffer (h, w), inf where no ground is hit."""
    h, w = k.height, k.width
    us = np.arange(w, dtype=np.float64)
    vs = np.arange(h, dtype=np.float64)[:, None]
    dx = (us - k.cx) / k.fx
    dy = (vs - k.cy) / k.fy
    # ground plane z=0: rays with a downward world component hit it
    dz_world = -dy  # world z of the (unnormalized, unit-camera-z) ray
    hit = dz_world < -1e-9
    t_ground = np.where(hit, np.float64(camera_height) / np.maximum(-dz_world, 1e-12),
                        np.inf)
    ground_ok = np.broadcast_to(hit & (t_ground <= max_range), (h, w))
    t_ground = np.broadcast_to(t_ground, (h, w))
    labels = np.where(ground_ok, GROUND_CLASS, 0).astype(np.uint8)
    zbuf = np.where(ground_ok, t_ground, np.inf)
    planes = (us, vs, dx, dy, labels, zbuf)
    for plane in planes:
        plane.flags.writeable = False
    return planes


@np.errstate(divide="ignore", invalid="ignore")   # a face's t = num / denom
def render_frame(world: World, ego: Pose2, k: Intrinsics):
    """Render (depth_m, labels) for the camera at `ego` facing its heading.

    Depth is camera-frame Z distance; 0 marks sky / beyond max range.
    Labels are class IDs; 0 marks unlabeled.
    """
    spec = world.spec
    h, w = k.height, k.width
    r_wc = _camera_basis(ego)
    cam = np.array([ego.x, ego.y, spec.camera_height])
    us, vs, dx, dy, labels, zbuf = _camera_planes(k, spec.camera_height, spec.max_range)
    labels, zbuf = labels.copy(), zbuf.copy()

    # range cull by box centre, then backface cull: the camera must sit on
    # a face's outward side; the survivors keep box and face order, which
    # the z-buffer's strict < makes matter
    faces = world.faces
    cull = spec.max_range + 10.0
    rel = faces.center_xy - cam[:2]
    d2 = rel[:, 0] ** 2 + rel[:, 1] ** 2
    in_range = ~(d2 > cull ** 2)
    # numpy squares arrays exactly but scalars with libm pow, which can be
    # a bit off; decide the faces at the cull radius with scalars, as the
    # per-box test always did
    for f in np.flatnonzero(np.abs(d2 - cull ** 2) <= 1e-9 * cull ** 2).tolist():
        in_range[f] = not rel[f, 0] ** 2 + rel[f, 1] ** 2 > cull ** 2
    drawn = np.flatnonzero(in_range & ~(faces.sign * (cam[faces.axis] - faces.value) <= 0))
    # frustum pre-cull; each survivor is projected again on its own below,
    # so its pixels do not depend on the batched projection's rounding
    offsets = faces.corners[drawn] - cam
    keep = _may_draw(offsets @ r_wc, k)
    fx, fy, cx, cy = k.fx, k.fy, k.cx, k.cy
    for f, offset in zip(drawn[keep].tolist(), offsets[keep]):
        poly_cam = offset @ r_wc
        # Python floats: the float64 array ops' IEEE results, less overhead
        corners = poly_cam.tolist()
        # _clip_near returns a polygon wholly in front of the plane as it is
        if min(z for _, _, z in corners) < _NEAR:
            poly_cam = _clip_near(poly_cam)
            if len(poly_cam) < 3:
                continue
            corners = poly_cam.tolist()
        pu = [fx * x / z + cx for x, _, z in corners]
        pv = [fy * y / z + cy for _, y, z in corners]
        u0 = max(math.ceil(min(pu)), 0)
        u1 = min(math.floor(max(pu)), w - 1)
        v0 = max(math.ceil(min(pv)), 0)
        v1 = min(math.floor(max(pv)), h - 1)
        if u0 > u1 or v0 > v1:
            continue
        m = len(pu)
        ij = [(i, (i + 1) % m) for i in range(m)]
        # convex polygon: each edge's cross product a - b has the area's sign
        # or is 0; for finite a and b, a - b >= 0 exactly when a >= b. All
        # edges at once, as (edge, pixel row, pixel column)
        area = sum(pu[i] * pv[j] - pu[j] * pv[i] for i, j in ij)
        e = np.array([(pu[j] - pu[i], pv[i], pv[j] - pv[i], pu[i])
                      for i, j in ij])[:, :, None, None]
        a = e[:, 0] * (vs[v0:v1 + 1] - e[:, 1])
        b = e[:, 2] * (us[u0:u1 + 1] - e[:, 3])
        inside = np.logical_and.reduce(a >= b if area > 0 else a <= b, axis=0)
        # plane in camera frame: n_cam . p = n_cam . p0; the outward normal
        # is +-1 along the face's axis, so n_cam is that row of r_wc. The
        # denominator n_cam . (dx, dy, 1) leaves out the terms of r_wc's
        # exact zeros: they change no nonzero sum, and a zero one gives
        # t = +-inf or NaN, which the range tests reject either way. So a
        # vertical face's t varies by column only, a horizontal one's by row
        axis = int(faces.axis[f])
        n_cam = faces.sign[f] * r_wc[axis]
        if axis == 2:
            denom = n_cam[1] * dy[v0:v1 + 1]
        else:
            denom = n_cam[0] * dx[u0:u1 + 1] + n_cam[2]
        t = (n_cam @ poly_cam[0]) / denom
        sub = (slice(v0, v1 + 1), slice(u0, u1 + 1))
        # the range tests are False for NaN and +-inf
        ok = inside & (t >= _NEAR) & (t <= spec.max_range) & (t < zbuf[sub])
        np.copyto(zbuf[sub], t, where=ok)
        np.copyto(labels[sub], world.primitives[faces.box[f]].class_id, where=ok)
    zbuf[zbuf == np.inf] = 0.0
    return zbuf, labels


# ---------------------------------------------------------------------------
# weather

def perturb_weather(frame, w: WeatherSpec, seed: int):
    """Seeded degradation of one (depth, labels) frame.

    Every perturbation is per pixel and independent across pixels, so a
    pixel is perturbed with the same distribution at any camera resolution.
    """
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
