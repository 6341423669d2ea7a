import math

import numpy as np
import pytest

from sbevloc.geometry import Intrinsics, Pose2
from sbevloc.synthworld import (
    GROUND_CLASS,
    Box,
    WeatherSpec,
    World,
    WorldSpec,
    generate_world,
    lane_shift,
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
