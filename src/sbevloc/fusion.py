"""Kalman filter fusing 3-DoF localization measurements with odometry.

State is [x, y, theta] with a 3x3 covariance. Prediction applies a
constant-velocity motion model (vehicle-frame velocities rotated into the
global frame) with its Jacobian; the update step measures the full state
(H = I) and uses the Joseph-form covariance update for numerical robustness.
All angle differences are wrapped before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .geometry import wrap_angle

PSD_TOL = -1e-9


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _check_psd(m: np.ndarray, name: str) -> None:
    if m.shape != (3, 3):
        raise InputError(f"{name} must be 3x3, got {m.shape}")
    if np.abs(m - m.T).max() > 1e-9:
        raise InputError(f"{name} not symmetric")
    if np.linalg.eigvalsh(m).min() < PSD_TOL:
        raise InputError(f"{name} not positive semi-definite")


@dataclass(frozen=True)
class KfState:
    mu: np.ndarray      # [x, y, theta]
    sigma: np.ndarray   # 3x3 covariance

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).reshape(3).copy()
        sigma = np.asarray(self.sigma, dtype=np.float64).reshape(3, 3)
        if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(sigma)):
            raise InputError("non-finite filter state")
        _check_psd(sigma, "sigma")
        mu[2] = wrap_angle(mu[2])
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", _symmetrize(sigma))


@dataclass(frozen=True)
class OdomSample:
    """Vehicle-frame velocities over one interval of length dt."""

    vx: float
    vy: float
    omega: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise InputError(f"dt must be positive, got {self.dt}")


def kf_predict(state: KfState, odom: OdomSample, q: np.ndarray) -> KfState:
    """Advance the state by dead reckoning; q is process noise per second."""
    q = np.asarray(q, dtype=np.float64)
    _check_psd(q, "Q")
    x, y, th = state.mu
    c, s = math.cos(th), math.sin(th)
    dt = odom.dt
    gx = (odom.vx * c - odom.vy * s) * dt
    gy = (odom.vx * s + odom.vy * c) * dt
    mu = np.array([x + gx, y + gy, wrap_angle(th + odom.omega * dt)])
    f = np.array([[1.0, 0.0, -gy],
                  [0.0, 1.0, gx],
                  [0.0, 0.0, 1.0]])
    sigma = _symmetrize(f @ state.sigma @ f.T + q * dt)
    return KfState(mu, sigma)


def kf_update(state: KfState, z, r: np.ndarray) -> KfState:
    """Full-state measurement update (H = I), Joseph-form covariance."""
    z = np.asarray(z, dtype=np.float64).reshape(3)
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise InputError(f"R must be 3x3, got {r.shape}")
    if np.abs(r - r.T).max() > 1e-9:
        raise InputError("R not symmetric")

    innovation = z - state.mu
    innovation[2] = wrap_angle(innovation[2])
    s = state.sigma + r
    try:
        # K = sigma @ inv(S); solve on the transposed system
        k = np.linalg.solve(s.T, state.sigma.T).T
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"singular innovation covariance (diag {np.diag(s)})") from e
    mu = state.mu + k @ innovation
    mu[2] = wrap_angle(mu[2])
    ikh = np.eye(3) - k
    sigma = _symmetrize(ikh @ state.sigma @ ikh.T + k @ r @ k.T)
    return KfState(mu, sigma)


def fuse_trajectory(odometry, fixes, init: KfState, q: np.ndarray,
                    r: np.ndarray) -> list[KfState]:
    """Run the filter one step per odometry sample.

    fixes[i] is an [x, y, theta] measurement of step i. Step 0 applies
    fixes[0], when there is one, to init. Step i, for i in 1..len(odometry),
    predicts with the OdomSample odometry[i - 1] and then applies fixes[i].
    Returns the state after every step: len(odometry) + 1 states.
    """
    for i in fixes:
        if not 0 <= i <= len(odometry):
            raise InputError(f"fix step {i} outside 0..{len(odometry)}")
    state = kf_update(init, fixes[0], r) if 0 in fixes else init
    states = [state]
    for i, odom in enumerate(odometry, start=1):
        state = kf_predict(state, odom, q)
        if i in fixes:
            state = kf_update(state, fixes[i], r)
        states.append(state)
    return states
