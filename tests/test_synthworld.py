import math

import numpy as np
import pytest

from sbevloc.config import RunConfig
from sbevloc.errors import InputError
from sbevloc.geometry import Intrinsics, Pose2
from sbevloc.synthworld import (
    GROUND_CLASS,
    Box,
    WeatherSpec,
    World,
    WorldSpec,
    generate_world,
    lane_shift,
    _CULL_MARGIN_M,
    _CULL_MARGIN_PX,
    _NEAR,
    _camera_basis,
    _camera_planes,
    _may_draw,
    perturb_weather,
    render_frame,
)

K = Intrinsics(fx=160.0, fy=160.0, cx=159.5, cy=119.5, width=320, height=240)


def small_spec(**kw):
    base = dict(route_length=200.0, frame_spacing=1.0)
    base.update(kw)
    return WorldSpec(**base)


# --- generate_world ------------------------------------------------------

def world_bytes(w):
    """Canonical bytes of a world: route poses, then each box in order."""
    parts = [np.array([(p.x, p.y, p.theta) for p in w.route]).tobytes()]
    for b in w.primitives:
        parts += [b.center.tobytes(), b.extent.tobytes(), b.class_id.to_bytes(2, "little")]
    return b"".join(parts)


def test_world_deterministic_serialization():
    a = generate_world(7, small_spec())
    b = generate_world(7, small_spec())
    assert a.seed == b.seed and a.spec == b.spec
    assert len(a.route) > 0 and len(a.primitives) > 0
    assert world_bytes(a) == world_bytes(b)
    assert world_bytes(generate_world(8, small_spec())) != world_bytes(a)


def test_world_zero_density():
    w = generate_world(0, small_spec(primitive_density=0.0))
    assert w.primitives == ()


def test_world_primitive_count_statistics():
    spec = WorldSpec()  # 1200 m, default density
    expected = spec.primitive_density * spec.route_length
    counts = [len(generate_world(seed, spec).primitives) for seed in range(20)]
    assert abs(np.mean(counts) - expected) <= 0.10 * expected


def test_route_length_and_spacing():
    w = generate_world(3, small_spec())
    assert len(w.route) == 201
    steps = [math.hypot(b.x - a.x, b.y - a.y)
             for a, b in zip(w.route, w.route[1:])]
    assert np.allclose(steps, 1.0, atol=1e-9)


def test_primitives_clear_of_route_corridor():
    w = generate_world(11, WorldSpec(route_length=600.0, frame_spacing=0.5))
    pts = np.array([[p.x, p.y] for p in w.route])
    for b in w.primitives:
        # 2-D point-to-AABB distance from every route sample
        lo = b.center[:2] - b.extent[:2] / 2
        hi = b.center[:2] + b.extent[:2] / 2
        d = np.maximum(lo - pts, 0) + np.maximum(pts - hi, 0)
        assert np.min(np.hypot(d[:, 0], d[:, 1])) > 2.0


# --- render_frame --------------------------------------------------------

def test_render_ground_only():
    w = generate_world(0, small_spec(primitive_density=0.0))
    depth, labels = render_frame(w, Pose2(0, 0, 0), K)
    horizon = int(K.cy)
    assert labels[:horizon].sum() == 0              # sky above the horizon
    assert (labels[-40:] == GROUND_CLASS).all()  # near ground visible
    assert (depth[labels > 0] > 0).all()
    assert (depth[labels == 0] == 0).all()


def test_render_box_center_depth():
    spec = small_spec(primitive_density=0.0)
    box = Box(np.array([10.0, 0.0, spec.camera_height]),
              np.array([2.0, 4.0, 1.0]), 42)
    w = World(0, spec, (Pose2(0, 0, 0),), (box,))
    depth, labels = render_frame(w, Pose2(0, 0, 0), K)
    # integer pixel nearest the principal point looks straight ahead
    u, v = round(K.cx), round(K.cy)
    assert labels[v, u] == 42
    assert depth[v, u] == pytest.approx(10.0 - 1.0, abs=0.02)


def test_render_matches_ray_cast_oracle():
    w = generate_world(5, small_spec(route_length=120.0))
    ego = w.route[40]
    depth, labels = render_frame(w, ego, K)

    # independent scalar ray caster: slab method per box + analytic ground
    c, s = math.cos(ego.theta), math.sin(ego.theta)
    cam = np.array([ego.x, ego.y, w.spec.camera_height])
    x_cam = np.array([s, -c, 0.0])
    y_cam = np.array([0.0, 0.0, -1.0])
    z_cam = np.array([c, s, 0.0])

    def cast(u, v):
        d = x_cam * (u - K.cx) / K.fx + y_cam * (v - K.cy) / K.fy + z_cam
        best, cls = np.inf, 0
        if d[2] < -1e-12:
            t = -cam[2] / d[2]
            if 0.05 <= t <= w.spec.max_range:
                best, cls = t, GROUND_CLASS
        for b in w.primitives:
            tmin, tmax = -np.inf, np.inf
            ok = True
            for a in range(3):
                lo = b.center[a] - b.extent[a] / 2
                hi = b.center[a] + b.extent[a] / 2
                if abs(d[a]) < 1e-15:
                    if not lo <= cam[a] <= hi:
                        ok = False
                        break
                else:
                    t1, t2 = (lo - cam[a]) / d[a], (hi - cam[a]) / d[a]
                    tmin = max(tmin, min(t1, t2))
                    tmax = min(tmax, max(t1, t2))
            if ok and tmax >= tmin and 0.05 <= tmin <= w.spec.max_range and tmin < best:
                best, cls = tmin, b.class_id
        return (best if np.isfinite(best) else 0.0), cls

    rng = np.random.default_rng(0)
    for _ in range(100):
        u = int(rng.integers(0, K.width))
        v = int(rng.integers(0, K.height))
        want_d, want_c = cast(u, v)
        assert abs(depth[v, u] - want_d) < 1e-6, (u, v)
        assert labels[v, u] == want_c, (u, v)


def test_render_deterministic():
    w = generate_world(9, small_spec())
    a = render_frame(w, w.route[10], K)
    b = render_frame(w, w.route[10], K)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# Reference renderer: the per-face loop the fast path replaced, kept as it
# was (faces built and culled box by box, planes built per frame). The fast
# path must reproduce it byte for byte.

def box_faces(box):
    """Yield (plane_axis, plane_value, sign, corners 4x3 world) per face."""
    half = box.extent / 2.0
    for axis, (u, v) in enumerate(((1, 2), (0, 2), (0, 1))):
        for sign in (-1.0, 1.0):
            corners = np.tile(box.center, (4, 1))
            corners[:, axis] += sign * half[axis]
            corners[:, u] += np.array([-1.0, 1.0, 1.0, -1.0]) * half[u]
            corners[:, v] += np.array([-1.0, -1.0, 1.0, 1.0]) * half[v]
            yield axis, box.center[axis] + sign * half[axis], sign, corners


def reference_face_columns(boxes):
    """FaceTable's columns built face by face from box_faces, in its order."""
    rows = [(i, *face, box.center[:2])
            for i, box in enumerate(boxes) for face in box_faces(box)]

    def column(j, dtype, shape=()):
        return np.array([row[j] for row in rows], dtype=dtype).reshape(-1, *shape)

    return {"box": column(0, np.intp), "axis": column(1, np.intp),
            "value": column(2, np.float64), "sign": column(3, np.float64),
            "corners": column(4, np.float64, (4, 3)),
            "center_xy": column(5, np.float64, (2,))}


# signed zeros, a zero and a tiny extent, and a far centre
ODD_BOXES = (Box(np.array([-0.0, 0.1, 1.0]), np.array([0.0, 0.3, 7.0]), 100),
             Box(np.array([1e6, -2.5, -0.0]), np.array([1e-9, 4.0, 3.3]), 140))


@pytest.mark.parametrize("boxes", [0, 3, (), ODD_BOXES], ids=["seed0", "seed3", "empty", "odd"])
def test_face_table_equals_per_face_reference(boxes):
    world = (generate_world(boxes, WorldSpec()) if isinstance(boxes, int)
             else World(0, small_spec(), (Pose2(0, 0, 0),), boxes))
    assert len(world.faces.box) == 6 * len(world.primitives)
    for name, want in reference_face_columns(world.primitives).items():
        got = getattr(world.faces, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name


def reference_render(world, ego, k):
    spec = world.spec
    h, w = k.height, k.width
    c, s = math.cos(ego.theta), math.sin(ego.theta)
    r_wc = np.column_stack([[s, -c, 0.0], [0.0, 0.0, -1.0], [c, s, 0.0]])
    cam = np.array([ego.x, ego.y, spec.camera_height])
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dx = (us - k.cx) / k.fx
    dy = (vs - k.cy) / k.fy
    dz_world = -dy
    depth = np.zeros((h, w))
    labels = np.zeros((h, w), dtype=np.uint8)
    hit = dz_world < -1e-9
    t_ground = np.where(hit, cam[2] / np.maximum(-dz_world, 1e-12), np.inf)
    ground_ok = hit & (t_ground <= spec.max_range)
    depth[ground_ok] = t_ground[ground_ok]
    labels[ground_ok] = GROUND_CLASS
    zbuf = np.where(ground_ok, t_ground, np.inf)

    def clip_near(poly):
        out = []
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            if a[2] >= 0.05:
                out.append(a)
            if (a[2] >= 0.05) != (b[2] >= 0.05):
                out.append(a + (0.05 - a[2]) / (b[2] - a[2]) * (b - a))
        return np.array(out) if out else np.zeros((0, 3))

    cull = spec.max_range + 10.0
    for box in world.primitives:
        rel = box.center - cam
        if rel[0] ** 2 + rel[1] ** 2 > cull ** 2:
            continue
        for axis, value, sign, corners in box_faces(box):
            if sign * (cam[axis] - value) <= 0:
                continue
            poly_cam = clip_near((corners - cam) @ r_wc)
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
            n_world = np.zeros(3)
            n_world[axis] = sign
            n_cam = r_wc.T @ n_world
            denom = (n_cam[0] * dx[v0:v1 + 1, u0:u1 + 1]
                     + n_cam[1] * dy[v0:v1 + 1, u0:u1 + 1] + n_cam[2])
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (n_cam @ poly_cam[0]) / denom
            ok = inside & np.isfinite(t) & (t >= 0.05) & (t <= spec.max_range)
            ok &= t < zbuf[v0:v1 + 1, u0:u1 + 1]
            if not ok.any():
                continue
            sub = (slice(v0, v1 + 1), slice(u0, u1 + 1))
            zbuf[sub][ok] = t[ok]
            labels[sub][ok] = box.class_id
            depth[sub][ok] = t[ok]
    return depth, labels


K_SMALL = Intrinsics(fx=40.0, fy=40.0, cx=39.5, cy=29.5, width=80, height=60)


def assert_same_frame(world, ego, k=K_SMALL):
    depth, labels = render_frame(world, ego, k)
    want_depth, want_labels = reference_render(world, ego, k)
    assert depth.dtype == np.float64 and labels.dtype == np.uint8
    assert depth.tobytes() == want_depth.tobytes(), ego
    assert labels.tobytes() == want_labels.tobytes(), ego
    return depth, labels


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lane", [0.0, 1.5, -1.5])
def test_render_matches_reference_on_routes(seed, lane):
    w = generate_world(seed, WorldSpec(route_length=60.0, frame_spacing=1.0))
    assert w.primitives
    for ego in lane_shift(w.route, lane):
        assert_same_frame(w, ego)


def test_render_matches_reference_near_plane_clip():
    # the box spans the camera's x, so its side face has corners behind
    # the camera and must be clipped against the near plane
    spec = small_spec(primitive_density=0.0)
    box = Box(np.array([1.0, 3.0, 1.5]), np.array([6.0, 2.0, 3.0]), 101)
    w = World(0, spec, (Pose2(0, 0, 0),), (box,))
    corners = w.faces.corners[(w.faces.axis == 1) & (w.faces.sign == -1.0)][0]
    assert corners[:, 0].min() < 0 < corners[:, 0].max()
    for theta in (0.0, 0.3, 0.8):
        _, labels = assert_same_frame(w, Pose2(0, 0, theta))
        assert (labels == 101).any()


def test_render_matches_reference_on_a_top_face():
    # a box lower than the camera shows its top face, the one face whose
    # depth varies by pixel row; generated boxes are all taller
    spec = small_spec(primitive_density=0.0)
    box = Box(np.array([8.0, 0.5, 0.5]), np.array([3.0, 2.0, 1.0]), 102)
    w = World(0, spec, (Pose2(0, 0, 0),), (box,))
    top = (w.faces.axis == 2) & (w.faces.sign == 1.0)
    assert w.faces.value[top][0] < spec.camera_height
    for theta in (0.0, 0.2, -0.3):
        depth, labels = assert_same_frame(w, Pose2(0, 0, theta))
        # the top face's pixels see the box's top plane: camera y = 1.5 - 1.0
        rows = np.flatnonzero((labels == 102).any(axis=1))
        v = rows[0]
        ys = depth[v][labels[v] == 102] * (v - K_SMALL.cy) / K_SMALL.fy
        assert np.allclose(ys, spec.camera_height - 1.0)


def test_render_coplanar_faces_keep_box_order():
    # both boxes' near faces lie in the plane x = 9, so the depths tie and
    # the z-buffer's strict < lets the earlier box keep the shared pixels
    spec = small_spec(primitive_density=0.0)
    a = Box(np.array([10.0, 0.0, 1.5]), np.array([2.0, 4.0, 3.0]), 100)
    b = Box(np.array([10.0, 1.0, 1.5]), np.array([2.0, 4.0, 3.0]), 140)
    for boxes, first in (((a, b), 100), ((b, a), 140)):
        _, labels = assert_same_frame(World(0, spec, (Pose2(0, 0, 0),), boxes),
                                      Pose2(0, 0, 0))
        assert labels[int(K_SMALL.cy), int(K_SMALL.cx)] == first


def test_render_matches_reference_without_boxes():
    w = World(0, small_spec(), (Pose2(0, 0, 0),), ())
    assert len(w.faces.box) == 0
    depth, labels = assert_same_frame(w, Pose2(2.0, -1.0, 0.4))
    assert set(np.unique(labels).tolist()) == {0, GROUND_CLASS}


def test_render_matches_reference_at_cull_radius():
    # box centres at the cull radius (max range + 10 m), 40 degrees off
    # the axis, where the range cull alone decides whether they are drawn
    spec = small_spec(primitive_density=0.0)
    cull = spec.max_range + 10.0
    extent = np.array([6.0, 6.0, 8.0])

    def box_at(dist, angle, cls):
        return Box(np.array([dist * math.cos(angle), dist * math.sin(angle), 4.0]),
                   extent, cls)

    inside = box_at(cull - 1e-6, math.radians(40), 100)
    outside = box_at(cull + 1e-6, math.radians(-40), 140)
    w = World(0, spec, (Pose2(0, 0, 0),), (inside, outside))
    _, labels = assert_same_frame(w, Pose2(0, 0, 0))
    assert (labels == 100).any() and not (labels == 140).any()
    # centres a bit from the radius, where libm's x**2 and an exact x*x
    # disagree; the per-box test squared scalars, so the first is culled
    # and the second drawn
    for xy, drawn in (((45.93705640350955, 35.40885269224043), False),
                      ((45.79717944427689, 35.58958211258882), True)):
        box = Box(np.array([*xy, 4.0]), extent, 180)
        _, labels = assert_same_frame(World(0, spec, (Pose2(0, 0, 0),), (box,)),
                                      Pose2(0, 0, 0))
        assert (labels == 180).any() == drawn


def camera_corners(world, ego):
    """(F, 4, 3) camera-frame corners of every face of `world`."""
    cam = np.array([ego.x, ego.y, world.spec.camera_height])
    return (world.faces.corners - cam) @ _camera_basis(ego)


def facing_box(depth, xs, ys, cls, thickness=1e-3):
    """A box whose near face, face 0, spans camera x in `xs` and y in `ys`
    at `depth` ahead of a camera at the origin with heading 0; its sides
    are `thickness` deep."""
    h = small_spec().camera_height
    # camera x is world -y, camera y is h - world z, camera z is world x
    return Box(np.array([depth + thickness / 2, -sum(xs) / 2, h - sum(ys) / 2]),
               np.array([thickness, xs[1] - xs[0], ys[1] - ys[0]]), cls)


def test_precull_near_plane_boundaries():
    m = _CULL_MARGIN_M
    behind = Box(np.array([-4.0, 0.0, 1.0]), np.array([2.0, 2.0, 2.0]), 100)
    # near face at _NEAR - 2m; then one whose corners sit within the margin
    # behind the plane, beside a side face with corners at _NEAR -+ m/2
    far_behind = Box(np.array([_NEAR - 1.5 * m, 0.0, 1.0]),
                     np.array([m, 2.0, 2.0]), 140)
    straddle = Box(np.array([_NEAR, 2.0, 1.0]), np.array([m, 2.0, 2.0]), 180)
    w = World(0, small_spec(primitive_density=0.0), (Pose2(0, 0, 0),),
              (behind, far_behind, straddle))
    ego = Pose2(0, 0, 0)
    corners = camera_corners(w, ego)
    faces = {"behind": (0, 1), "far_behind": (1, 0), "near_within": (2, 0),
             "side_straddle": (2, 2)}
    got = {name: bool(_may_draw(corners[[6 * box + face]], K_SMALL)[0])
           for name, (box, face) in faces.items()}
    assert got == {"behind": False, "far_behind": False, "near_within": True,
                   "side_straddle": True}
    z = corners[6 * 2 + 2, :, 2]
    assert z.min() < _NEAR < z.max() and np.all(np.abs(z - _NEAR) < m)
    z = corners[6 * 2, :, 2]
    assert np.all((z < _NEAR) & (z > _NEAR - m))
    assert_same_frame(w, ego)
    for theta in (0.5, -0.5, math.pi):
        assert_same_frame(w, Pose2(0, 0, theta))


@pytest.mark.parametrize("edge", ["left", "right", "top", "bottom"])
@pytest.mark.parametrize("inside, culled, drawn", [
    (-_CULL_MARGIN_PX - 0.5, True, False),   # beyond the edge by the margin
    (-_CULL_MARGIN_PX / 2, False, False),    # beyond it within the margin
    (0.5, False, True)])                     # just inside
def test_precull_image_edge_boundaries(edge, inside, culled, drawn):
    # a near face 1.5 m ahead, its extreme corner `inside` pixels inside the
    # edge's last pixel centre; close enough to be in front of the ground
    k, d = K_SMALL, 1.5
    last = {"left": 0.0, "top": 0.0, "right": k.width - 1.0, "bottom": k.height - 1.0}
    at = last[edge] + (inside if edge in ("left", "top") else -inside)
    if edge in ("left", "right"):
        x = (at - k.cx) * d / k.fx
        xs, ys = ((x - 1.0, x) if edge == "left" else (x, x + 1.0)), (-0.5, 0.5)
    else:
        y = (at - k.cy) * d / k.fy
        xs, ys = (-0.5, 0.5), ((y - 1.0, y) if edge == "top" else (y, y + 1.0))
    w = World(0, small_spec(primitive_density=0.0), (Pose2(0, 0, 0),),
              (facing_box(d, xs, ys, 220),))
    ego = Pose2(0, 0, 0)
    near = camera_corners(w, ego)[:1]
    assert np.all(near[..., 2] > _NEAR + _CULL_MARGIN_M)
    assert bool(_may_draw(near, k)[0]) == (not culled)
    _, labels = assert_same_frame(w, ego)
    assert (labels == 220).any() == drawn


def test_edges_on_a_pixel_column_and_row_are_drawn():
    # the near face's right edge projects exactly onto column 80 of the
    # default camera, and its top edge onto row 50: along them an edge's
    # cross product a - b is exactly 0, and both the sign test of the
    # reference, orient * (a - b) >= 0, and the render's a >= b draw the pixel
    k = RunConfig().camera.intrinsics()
    box = facing_box(10.0, (-1.0, 0.03125), (-1.21875, 0.5), 140, thickness=0.25)
    w = World(0, small_spec(primitive_density=0.0), (Pose2(0, 0, 0),), (box,))
    ego = Pose2(0, 0, 0)
    _, labels = assert_same_frame(w, ego, k)
    poly = camera_corners(w, ego)[0]
    pu = k.fx * poly[:, 0] / poly[:, 2] + k.cx
    pv = k.fy * poly[:, 1] / poly[:, 2] + k.cy
    assert (pu.min(), pu.max(), pv.min(), pv.max()) == (71.75, 80.0, 50.0, 63.75)
    assert (labels[50:64, 72:81] == 140).all()
    assert not (labels[49, 72:81] == 140).any() and not (labels[50:64, 81] == 140).any()
    edges = [(i, (i + 1) % 4) for i in range(4)]
    area = sum(pu[i] * pv[j] - pu[j] * pv[i] for i, j in edges)
    orient = 1.0 if area > 0 else -1.0
    for u, v in ((80, 55), (75, 50), (80, 50)):
        a = [(pu[j] - pu[i]) * (v - pv[i]) for i, j in edges]
        b = [(pv[j] - pv[i]) * (u - pu[i]) for i, j in edges]
        assert 0.0 in [x - y for x, y in zip(a, b)]
        assert all(orient * (x - y) >= 0 for x, y in zip(a, b))
        assert all(x >= y if area > 0 else x <= y for x, y in zip(a, b))


def test_render_frame_copies_cached_planes():
    w = generate_world(9, small_spec())
    depth, labels = render_frame(w, w.route[10], K_SMALL)
    want = depth.copy(), labels.copy()
    depth[:] = -1.0
    labels[:] = 7
    again = render_frame(w, w.route[10], K_SMALL)
    assert np.array_equal(again[0], want[0]) and np.array_equal(again[1], want[1])
    ground = render_frame(World(0, small_spec(), (), ()), Pose2(0, 0, 0), K_SMALL)
    assert (ground[1] != 7).any() and (ground[0] != -1.0).any()


def test_camera_planes_read_only_and_per_camera():
    spec = small_spec()
    planes = _camera_planes(K_SMALL, spec.camera_height, spec.max_range)
    assert _camera_planes(K_SMALL, spec.camera_height, spec.max_range) is planes
    us, vs, dx, dy, labels, zbuf = planes
    assert us.shape == dx.shape == (K_SMALL.width,)
    assert vs.shape == dy.shape == (K_SMALL.height, 1)
    assert labels.shape == zbuf.shape == (K_SMALL.height, K_SMALL.width)
    for plane in planes:
        assert not plane.flags.writeable
        with pytest.raises(ValueError):
            plane[(0,) * plane.ndim] = 1
    # a second camera gets its own entry, and frames of its own size
    k2 = Intrinsics(fx=30.0, fy=30.0, cx=29.5, cy=19.5, width=60, height=40)
    other = _camera_planes(k2, spec.camera_height, spec.max_range)
    assert other is not planes and other[4].shape == (40, 60)
    assert _camera_planes(K_SMALL, spec.camera_height, spec.max_range) is planes
    w = generate_world(9, spec)
    assert render_frame(w, w.route[5], k2)[0].shape == (40, 60)
    assert_same_frame(w, w.route[5], k2)


# --- weather -------------------------------------------------------------

def frame_fixture():
    rng = np.random.default_rng(1)
    depth = rng.uniform(1, 59, (120, 160))
    labels = np.full((120, 160), 22, dtype=np.uint8)
    labels[:10] = 0
    depth[:10] = 0.0
    return depth, labels


def test_weather_zero_spec_identity():
    depth, labels = frame_fixture()
    d2, l2 = perturb_weather((depth, labels), WeatherSpec(), seed=3)
    assert np.array_equal(d2, depth)
    assert np.array_equal(l2, labels)


def test_weather_radius_zero_identity():
    depth, labels = frame_fixture()
    spec = WeatherSpec(label_confusion_prob=1.0, confusion_radius=0)
    _, l2 = perturb_weather((depth, labels), spec, seed=3)
    assert np.array_equal(l2, labels)


def test_weather_flip_rate():
    depth = np.full((300, 300), 5.0)
    labels = np.full((300, 300), 22, dtype=np.uint8)
    spec = WeatherSpec(label_confusion_prob=0.1, confusion_radius=2)
    _, l2 = perturb_weather((depth, labels), spec, seed=0)
    changed = (l2 != labels).mean()
    # resampling uniformly within radius 2 keeps the old ID 1/5 of the time
    assert abs(changed - 0.1 * (4 / 5)) < 0.01
    assert np.abs(l2.astype(int) - 22).max() <= 2


def test_weather_depth_dropout_and_noise():
    depth, labels = frame_fixture()
    spec = WeatherSpec(depth_dropout_prob=0.25, depth_noise_sigma=0.2)
    d2, _ = perturb_weather((depth, labels), spec, seed=5)
    valid_before = depth > 0
    dropped = valid_before & (d2 == 0)
    frac = dropped.sum() / valid_before.sum()
    assert abs(frac - 0.25) < 0.02
    moved = valid_before & (d2 > 0)
    assert (d2[moved] - depth[moved]).std() == pytest.approx(0.2, rel=0.1)


def test_weather_fog_range():
    depth, labels = frame_fixture()
    spec = WeatherSpec(range_attenuation=40.0)
    d2, _ = perturb_weather((depth, labels), spec, seed=7)
    assert (d2 <= 40.0).all()
    near = (depth > 0) & (depth <= 40.0)
    assert np.array_equal(d2[near], depth[near])


def test_weather_deterministic_and_shape_preserving():
    frame = frame_fixture()
    spec = WeatherSpec(0.2, 2, 0.1, 0.3, 50.0)
    a = perturb_weather(frame, spec, seed=11)
    b = perturb_weather(frame, spec, seed=11)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[0].shape == frame[0].shape


@pytest.mark.parametrize("knobs", [
    {"label_confusion_prob": 1.5}, {"depth_dropout_prob": -0.1},
    {"confusion_radius": -1}, {"depth_noise_sigma": -0.05},
    {"range_attenuation": -40.0}, {"depth_noise_sigma": math.nan},
    {"confusion_radius": 256}, {"confusion_radius": 10**30}])
def test_weather_spec_rejects_bad_knobs(knobs):
    with pytest.raises(InputError):
        WeatherSpec(**knobs)


def test_weather_widest_confusion_radius_perturbs():
    # 255 reaches every label from any label; clipping keeps each in 0..255
    depth, labels = frame_fixture()
    _, got = perturb_weather((depth, labels), WeatherSpec(1.0, 255), seed=4)
    assert (got[labels == 0] == 0).all() and (got != labels).any()


# --- lane_shift ----------------------------------------------------------

def test_lane_shift_zero_identity():
    route = generate_world(2, small_spec()).route
    assert lane_shift(route, 0.0) == route


def test_lane_shift_straight_route():
    route = tuple(Pose2(float(i), 0, 0) for i in range(10))
    shifted = lane_shift(route, 3.0)
    for a, b in zip(route, shifted):
        assert b.x == a.x
        assert b.y == pytest.approx(a.y + 3.0)
        assert b.theta == a.theta


def test_lane_shift_distance_on_curve():
    route = generate_world(4, small_spec()).route
    shifted = lane_shift(route, -2.5)
    for a, b in zip(route, shifted):
        assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(2.5, abs=1e-9)
        assert b.theta == a.theta
