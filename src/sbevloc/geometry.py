"""Planar pose algebra (SE(2)), pinhole intrinsics, and labeled clouds.

Conventions used package-wide:

- angles are radians wrapped to (-pi, pi]; degrees appear only at I/O and
  reporting boundaries
- ground-plane poses are (x, y, theta) in a locally-linearized global frame
- ego (vehicle) frame: x forward, y left, z up, origin at the camera; clouds
  are built straight in it
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

TAU = 2.0 * math.pi


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
class Intrinsics:
    """Rectified pinhole camera parameters, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (math.isfinite(self.fx) and self.fx > 0
                and math.isfinite(self.fy) and self.fy > 0):
            raise InputError("focal lengths must be finite and positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InputError("principal point outside image")


def label_map(labels) -> np.ndarray:
    """`labels` as a uint8 class-ID array.

    An array of another integer dtype is converted when every value is in
    0..255; a non-integer dtype or a value outside that range raises
    InputError, where a cast would wrap it into some other class (300 into
    44). A uint8 array is returned as it is, unchecked.
    """
    labels = np.asarray(labels)
    if labels.dtype == np.uint8:
        return labels
    if labels.dtype.kind not in "iu":
        raise InputError(f"label map of dtype {labels.dtype}, need integer class IDs")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise InputError(f"label values {labels.min()}..{labels.max()} outside 0..255")
    return labels.astype(np.uint8)


@dataclass(frozen=True)
class PointCloud:
    """Labeled 3D points: xyz is (N, 3) float64, labels is (N,) uint8.

    xyz keeps the memory order it is given; the clouds `sbev` builds are
    column-major, so that each coordinate is contiguous.

    Treated as immutable; operations return new instances.
    """

    xyz: np.ndarray
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        if self.labels is None:
            labels = np.zeros(len(xyz), dtype=np.uint8)
        else:
            labels = label_map(self.labels).reshape(-1)
        if len(labels) != len(xyz):
            raise InputError("xyz/label length mismatch")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.xyz)


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
