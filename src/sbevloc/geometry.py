"""Pose algebra on SE(2)/SE(3), pinhole intrinsics, and point transforms.

Conventions used package-wide:

- angles are radians wrapped to (-pi, pi]; degrees appear only at I/O and
  reporting boundaries
- ground-plane poses are (x, y, theta) in a locally-linearized global frame
- camera optical frame: X right, Y down, Z forward
- ego (vehicle) frame: x forward, y left, z up
- Euler angles use the ZYX convention
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

TAU = 2.0 * math.pi

# Fixed rotation taking camera-optical coordinates (X right, Y down,
# Z forward) into ego coordinates (x forward, y left, z up).
CAM_TO_EGO_MAT = np.array([[0.0, 0.0, 1.0],
                           [-1.0, 0.0, 0.0],
                           [0.0, -1.0, 0.0]])


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(theta, TAU)
    if w <= -math.pi:
        w += TAU
    return w


@dataclass(frozen=True)
class Pose2:
    """3-DoF ground-plane pose. theta is normalized on construction."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.theta)):
            raise InputError(f"non-finite pose ({self.x}, {self.y}, {self.theta})")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class Pose3:
    """6-DoF pose: translation plus unit quaternion (w, x, y, z).

    The quaternion is re-normalized on construction; a near-zero norm is
    rejected.
    """

    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        q = np.asarray(self.rotation, dtype=np.float64).reshape(4)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
            raise InputError("non-finite Pose3 components")
        n = np.linalg.norm(q)
        if n < 1e-12:
            raise InputError("degenerate quaternion (zero norm)")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", q / n)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)


@dataclass(frozen=True)
class Intrinsics:
    """Rectified pinhole camera parameters, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InputError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InputError("principal point outside image")


@dataclass(frozen=True)
class PointCloud:
    """Labeled 3D points: xyz is (N, 3) float64, labels is (N,) uint8.

    Treated as immutable; operations return new instances.
    """

    xyz: np.ndarray
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        if self.labels is None:
            labels = np.zeros(len(xyz), dtype=np.uint8)
        else:
            labels = np.asarray(self.labels, dtype=np.uint8).reshape(-1)
        if len(labels) != len(xyz):
            raise InputError("xyz/label length mismatch")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.xyz)


# ---------------------------------------------------------------------------
# quaternion helpers

def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_yaw(yaw: float) -> np.ndarray:
    return np.array([math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2)])


def quat_from_euler_zyx(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Quaternion for Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    return np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])


# ---------------------------------------------------------------------------
# SE(2) operations

def pose2_compose(a: Pose2, b: Pose2) -> Pose2:
    """Rigid-body composition a ∘ b (apply b in a's frame)."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(a.x + c * b.x - s * b.y,
                 a.y + s * b.x + c * b.y,
                 a.theta + b.theta)


def pose2_inverse(a: Pose2) -> Pose2:
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(-(c * a.x + s * a.y), -(-s * a.x + c * a.y), -a.theta)


def relative_pose(node: Pose2, frame: Pose2) -> Pose2:
    """Pose of `frame` expressed in `node`'s frame: node⁻¹ ∘ frame."""
    return pose2_compose(pose2_inverse(node), frame)


def global_from_relative(node: Pose2, rel: Pose2) -> Pose2:
    """Inverse of relative_pose: node ∘ rel."""
    return pose2_compose(node, rel)


# ---------------------------------------------------------------------------
# SE(3) operations

def pose3_compose(a: Pose3, b: Pose3) -> Pose3:
    r = a.rotation_matrix()
    return Pose3(a.translation + r @ b.translation,
                 quat_multiply(a.rotation, b.rotation))


def pose3_inverse(a: Pose3) -> Pose3:
    qc = quat_conjugate(a.rotation)
    return Pose3(-(quat_to_matrix(qc) @ a.translation), qc)


def pose3_from_pose2(p: Pose2, z: float = 0.0) -> Pose3:
    """Lift a ground-plane pose to SE(3) at height z (yaw-only rotation)."""
    return Pose3(np.array([p.x, p.y, z]), quat_from_yaw(p.theta))


# ---------------------------------------------------------------------------
# camera operations

def camera_to_ego(cloud: PointCloud) -> PointCloud:
    """Re-express an optical-frame cloud in the ego frame, whose origin sits
    at the camera."""
    return PointCloud(cloud.xyz @ CAM_TO_EGO_MAT.T, cloud.labels)
