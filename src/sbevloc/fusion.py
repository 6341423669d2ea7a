"""Kalman filter fusing 3-DoF localization measurements with odometry.

State is [x, y, theta] with a 3x3 covariance. Prediction applies a
constant-velocity motion model (vehicle-frame velocities rotated into the
global frame) with its Jacobian; the update step measures the full state
(H = I) and uses the Joseph-form covariance update for numerical robustness.
All angle differences are wrapped before use.

One copy of the step maths, `_predict` and `_update` on (mu, sigma), serves
two kinds of caller:

- `kf_predict` and `kf_update` make one step. Each call checks its Q or R
  (3x3; Q symmetric PSD, R symmetric) and returns a `KfState`, which checks
  itself: finite, sigma symmetric and PSD at `PSD_TOL`.
- `fuse_trajectory` runs a whole trajectory. It checks Q, R and the fix
  steps once, before any step, and converts the fixes once. After the loop
  it applies KfState's checks in one batch to every state the steps made:
  each returned state and each predicted state a fix then updated. When a
  step raises, the states made before it are checked first, so a state
  that fails raises InputError, as it did when each state was checked as it
  was made.
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


def _check_symmetric(m: np.ndarray, name: str) -> None:
    """m is one 3x3 matrix or a stack of them."""
    if np.abs(m - np.swapaxes(m, -1, -2)).max() > 1e-9:
        raise InputError(f"{name} not symmetric")


def _check_psd(m: np.ndarray, name: str) -> None:
    """m is one 3x3 matrix or a stack of them."""
    _check_symmetric(m, name)
    if np.linalg.eigvalsh(m).min() < PSD_TOL:
        raise InputError(f"{name} not positive semi-definite")


def _check_states(mu: np.ndarray, sigma: np.ndarray) -> None:
    """KfState's checks on one state, or on states stacked as mu (n, 3)
    and sigma (n, 3, 3)."""
    if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(sigma)):
        raise InputError("non-finite filter state")
    _check_psd(sigma, "sigma")


def _as_vec3(v, name: str) -> np.ndarray:
    """v as a float64 3-vector; any shape of 3 entries is accepted."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != 3:
        raise InputError(f"{name} must have 3 entries, got shape {v.shape}")
    return v.reshape(3)


def _as_3x3(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise InputError(f"{name} must be 3x3, got {m.shape}")
    return m


def _checked_q(q) -> np.ndarray:
    q = _as_3x3(q, "Q")
    _check_psd(q, "Q")
    return q


def _checked_r(r) -> np.ndarray:
    r = _as_3x3(r, "R")
    _check_symmetric(r, "R")
    return r


@dataclass(frozen=True)
class KfState:
    mu: np.ndarray      # [x, y, theta]
    sigma: np.ndarray   # 3x3 covariance

    def __post_init__(self):
        mu = _as_vec3(self.mu, "mu").copy()
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.size != 9:
            raise InputError(f"sigma must have 3x3 entries, got shape {sigma.shape}")
        sigma = sigma.reshape(3, 3)
        _check_states(mu, sigma)
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
        # made once per filter step, so four plain calls
        if not (math.isfinite(self.vx) and math.isfinite(self.vy)
                and math.isfinite(self.omega) and math.isfinite(self.dt)):
            raise InputError(f"non-finite odometry ({self.vx}, {self.vy}, "
                             f"{self.omega}, dt {self.dt})")
        if self.dt <= 0:
            raise InputError(f"dt must be positive, got {self.dt}")


def _predict(mu, sigma, odom: OdomSample, q):
    x, y, th = mu
    c, s = math.cos(th), math.sin(th)
    dt = odom.dt
    gx = (odom.vx * c - odom.vy * s) * dt
    gy = (odom.vx * s + odom.vy * c) * dt
    mu = np.array([x + gx, y + gy, wrap_angle(th + odom.omega * dt)])
    f = np.array([[1.0, 0.0, -gy],
                  [0.0, 1.0, gx],
                  [0.0, 0.0, 1.0]])
    return mu, _symmetrize(f @ sigma @ f.T + q * dt)


def _update(mu, sigma, z, r):
    innovation = z - mu
    innovation[2] = wrap_angle(innovation[2])
    s = sigma + r
    try:
        # K = sigma @ inv(S); solve on the transposed system
        k = np.linalg.solve(s.T, sigma.T).T
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"singular innovation covariance (diag {np.diag(s)})") from e
    mu = mu + k @ innovation
    mu[2] = wrap_angle(mu[2])
    ikh = np.eye(3) - k
    return mu, _symmetrize(ikh @ sigma @ ikh.T + k @ r @ k.T)


def kf_predict(state: KfState, odom: OdomSample, q: np.ndarray) -> KfState:
    """Advance the state by dead reckoning; q is process noise per second."""
    return KfState(*_predict(state.mu, state.sigma, odom, _checked_q(q)))


def kf_update(state: KfState, z, r: np.ndarray) -> KfState:
    """Full-state measurement update (H = I), Joseph-form covariance."""
    return KfState(*_update(state.mu, state.sigma, _as_vec3(z, "z"), _checked_r(r)))


def _step_state(mu: np.ndarray, sigma: np.ndarray) -> KfState:
    """A KfState of step output, without KfState's checks: the caller runs
    them in a batch. KfState's normalization would change no bit of it, as
    the steps already wrap theta and make sigma exactly symmetric."""
    state = object.__new__(KfState)
    object.__setattr__(state, "mu", mu)
    object.__setattr__(state, "sigma", sigma)
    return state


def fuse_trajectory(odometry, fixes, init: KfState, q: np.ndarray,
                    r: np.ndarray) -> list[KfState]:
    """Run the filter one step per odometry sample.

    fixes[i] is an [x, y, theta] measurement of step i. Step 0 applies
    fixes[0], when there is one, to init. Step i, for i in 1..len(odometry),
    predicts with the OdomSample odometry[i - 1] and then applies fixes[i].
    Returns the state after every step: len(odometry) + 1 states, the first
    of them init itself when there is no step-0 fix.
    """
    q, r = _checked_q(q), _checked_r(r)
    for i in fixes:
        if not 0 <= i <= len(odometry):
            raise InputError(f"fix step {i} outside 0..{len(odometry)}")
    fixes = {i: _as_vec3(z, "a fix") for i, z in fixes.items()}
    mu, sigma = init.mu, init.sigma
    # (mu, sigma) after each step, then each predicted state a fix updated
    after, predicted = [], []
    try:
        for i in range(len(odometry) + 1):
            if i:
                mu, sigma = _predict(mu, sigma, odometry[i - 1], q)
            if i in fixes:
                predicted.append((mu, sigma))
                mu, sigma = _update(mu, sigma, fixes[i], r)
            after.append((mu, sigma))
    finally:
        # also when a step raised: a step fed a state these checks reject
        # can fail in another way, and their InputError is the one raised
        mus, sigmas = zip(*(after + predicted))
        _check_states(np.array(mus), np.array(sigmas))
    states = [_step_state(m, s) for m, s in after]
    if 0 not in fixes:
        states[0] = init
    return states
