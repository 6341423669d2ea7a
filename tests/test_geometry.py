import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbevloc.errors import InputError
from sbevloc.geometry import (
    Intrinsics,
    Pose2,
    global_from_relative,
    pose2_compose,
    pose2_inverse,
    relative_pose,
    wrap_angle,
)

# --- independent oracles -----------------------------------------------

def pose2_to_mat(p):
    """3x3 homogeneous matrix oracle, built without package helpers."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return np.array([[c, -s, p.x], [s, c, p.y], [0, 0, 1]])


def mat_to_pose2(m):
    return Pose2(m[0, 2], m[1, 2], math.atan2(m[1, 0], m[0, 0]))


finite_angle = st.floats(-50.0, 50.0)
coord = st.floats(-1e3, 1e3)
pose2s = st.builds(Pose2, coord, coord, finite_angle)


# --- wrap_angle ---------------------------------------------------------

def test_wrap_trivia():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


@given(st.floats(-1e6, 1e6))
def test_wrap_range(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    # same angle modulo 2pi
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-6)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-6)


# --- compose / inverse --------------------------------------------------

def test_compose_identity():
    b = Pose2(1, 2, 0.3)
    out = pose2_compose(Pose2(0, 0, 0), b)
    assert (out.x, out.y, out.theta) == (1, 2, 0.3)


def test_compose_quarter_turn():
    out = pose2_compose(Pose2(1, 0, math.pi / 2), Pose2(1, 0, 0))
    assert out.x == pytest.approx(1)
    assert out.y == pytest.approx(1)
    assert out.theta == pytest.approx(math.pi / 2)


def test_inverse_trivia():
    assert pose2_inverse(Pose2(0, 0, 0)) == Pose2(0, 0, 0)
    inv = pose2_inverse(Pose2(1, 0, math.pi / 2))
    assert inv.x == pytest.approx(0)
    assert inv.y == pytest.approx(1)
    assert inv.theta == pytest.approx(-math.pi / 2)


def test_compose_matches_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = Pose2(*rng.uniform(-100, 100, 2), rng.uniform(-math.pi, math.pi))
        b = Pose2(*rng.uniform(-100, 100, 2), rng.uniform(-math.pi, math.pi))
        got = pose2_compose(a, b)
        want = mat_to_pose2(pose2_to_mat(a) @ pose2_to_mat(b))
        assert abs(got.x - want.x) < 1e-12
        assert abs(got.y - want.y) < 1e-12
        assert abs(wrap_angle(got.theta - want.theta)) < 1e-12


@given(pose2s)
@settings(max_examples=200)
def test_inverse_round_trip(a):
    ident = pose2_compose(a, pose2_inverse(a))
    assert abs(ident.x) < 1e-9 * max(1, abs(a.x), abs(a.y))
    assert abs(ident.y) < 1e-9 * max(1, abs(a.x), abs(a.y))
    assert abs(ident.theta) < 1e-12


@given(pose2s, pose2s, pose2s)
@settings(max_examples=100)
def test_compose_associative(a, b, c):
    lhs = pose2_compose(pose2_compose(a, b), c)
    rhs = pose2_compose(a, pose2_compose(b, c))
    scale = max(1.0, abs(lhs.x), abs(lhs.y))
    assert abs(lhs.x - rhs.x) < 1e-9 * scale
    assert abs(lhs.y - rhs.y) < 1e-9 * scale
    assert abs(wrap_angle(lhs.theta - rhs.theta)) < 1e-12


# --- relative / global --------------------------------------------------

def test_relative_pose_trivia():
    rel = relative_pose(Pose2(5, 0, 0), Pose2(7, 1, 0.1))
    assert (rel.x, rel.y) == pytest.approx((2, 1))
    assert rel.theta == pytest.approx(0.1)
    same = relative_pose(Pose2(3, -2, 1.0), Pose2(3, -2, 1.0))
    assert (same.x, same.y, same.theta) == pytest.approx((0, 0, 0), abs=1e-15)


@given(pose2s, pose2s)
@settings(max_examples=200)
def test_relative_global_round_trip(node, frame):
    back = global_from_relative(node, relative_pose(node, frame))
    scale = max(1.0, abs(frame.x), abs(frame.y))
    assert abs(back.x - frame.x) < 1e-9 * scale
    assert abs(back.y - frame.y) < 1e-9 * scale
    assert abs(wrap_angle(back.theta - frame.theta)) < 1e-12


# --- intrinsics ---------------------------------------------------------

def test_intrinsics_validation():
    with pytest.raises(InputError):
        Intrinsics(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
    with pytest.raises(InputError):
        Intrinsics(fx=1, fy=1, cx=20, cy=0, width=10, height=10)


@pytest.mark.parametrize("fx, fy", [(math.nan, 1.0), (1.0, math.nan),
                                    (math.inf, 1.0), (1.0, math.inf)])
def test_intrinsics_reject_non_finite_focal_lengths(fx, fy):
    with pytest.raises(InputError, match="focal"):
        Intrinsics(fx=fx, fy=fy, cx=0, cy=0, width=10, height=10)


def test_pose2_rejects_nonfinite():
    with pytest.raises(InputError):
        Pose2(float("nan"), 0, 0)
