"""Kalman filter fusing 3-DoF localization measurements with odometry.

State is [x, y, theta] with a 3x3 covariance. Prediction applies a
constant-velocity motion model (vehicle-frame velocities rotated into the
global frame) with its Jacobian; the update step measures the full state
(H = I) and uses the Joseph-form covariance update for numerical robustness.
All angle differences are wrapped before use.

One copy of the step maths, `_predict` and `_update` on (mu, sigma), serves
two kinds of caller. The steps work on Python floats (mu a 3-tuple, 3x3
matrices row-major 9-tuples), as numpy's per-call overhead was most of a
3x3 step's time. Products are written out and K = sigma adj(S) / det(S);
a det of 0 or not finite raises NumericalError. The last bits differ from
numpy array expressions: BLAS fuses multiply-adds and orders its sums its
own way, and an LU solve gave K. The callers convert to arrays only at
their boundaries:

- `kf_predict` and `kf_update` make one step: an `OdomSample` in, a
  `KfState` out. Each checks its Q or R (3x3 and finite; Q symmetric PSD,
  R symmetric), and the KfState checks itself: finite, sigma symmetric and
  PSD at `PSD_TOL`.
- `fuse_trajectory` runs a trajectory on arrays: (steps, 4) odometry rows
  in, stacked mu and sigma out. It checks Q, R, the rows (OdomSample's
  rule) and the fix steps before any step. After the loop it applies
  KfState's checks in one batch to each returned state and each predicted
  state a fix then updated. When a step raises, the states made before it
  are checked first, so a state that fails raises InputError, as a check
  per step would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .geometry import wrap_angle

PSD_TOL = -1e-9


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """(m + m.T) / 2, halved first so that a finite m cannot overflow.
    Halving is exact above the subnormal range, so there the bits are those
    of the halved sum wherever the sum is finite."""
    return m * 0.5 + m.T * 0.5


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
    if not np.isfinite(m).all():
        raise InputError(f"{name} not finite")
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
        try:
            finite = (math.isfinite(self.vx) and math.isfinite(self.vy)
                      and math.isfinite(self.omega) and math.isfinite(self.dt))
        except TypeError:
            raise InputError(f"non-numeric odometry ({self.vx!r}, {self.vy!r}, "
                             f"{self.omega!r}, dt {self.dt!r})") from None
        if not finite:
            raise InputError(f"non-finite odometry ({self.vx}, {self.vy}, "
                             f"{self.omega}, dt {self.dt})")
        if self.dt <= 0:
            raise InputError(f"dt must be positive, got {self.dt}")


def _mm(a, b):
    """a @ b for 3x3 matrices as row-major 9-tuples of floats."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
            a0 * b2 + a1 * b5 + a2 * b8, a3 * b0 + a4 * b3 + a5 * b6,
            a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
            a6 * b2 + a7 * b5 + a8 * b8)


def _mm_t(a, b):
    """a @ b.T for 3x3 matrices as row-major 9-tuples of floats."""
    return _mm(a, (b[0], b[3], b[6], b[1], b[4], b[7], b[2], b[5], b[8]))


def _symmetrized(p):
    """(p + p.T) / 2 of a row-major 9-tuple; the diagonal is kept as is."""
    o01, o02, o12 = (p[1] + p[3]) / 2.0, (p[2] + p[6]) / 2.0, (p[5] + p[7]) / 2.0
    return (p[0], o01, o02, o01, p[4], o12, o02, o12, p[8])


def _predict(mu, sigma, odom, q):
    """One predict step on floats: mu (x, y, theta), odom (vx, vy, omega,
    dt), sigma and q row-major 9-tuples. F = [[1, 0, -gy], [0, 1, gx],
    [0, 0, 1]], so F sigma F^T is written out without its zero terms."""
    x, y, th = mu
    vx, vy, omega, dt = odom
    c, s = math.cos(th), math.sin(th)
    gx = (vx * c - vy * s) * dt
    gy = (vx * s + vy * c) * dt
    mu = (x + gx, y + gy, wrap_angle(th + omega * dt))
    a, b = -gy, gx
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = sigma
    f0, f1, f2 = s0 + a * s6, s1 + a * s7, s2 + a * s8     # rows of F sigma
    f3, f4, f5 = s3 + b * s6, s4 + b * s7, s5 + b * s8
    q0, q1, q2, q3, q4, q5, q6, q7, q8 = q
    return mu, _symmetrized((
        f0 + a * f2 + q0 * dt, f1 + b * f2 + q1 * dt, f2 + q2 * dt,
        f3 + a * f5 + q3 * dt, f4 + b * f5 + q4 * dt, f5 + q5 * dt,
        s6 + a * s8 + q6 * dt, s7 + b * s8 + q7 * dt, s8 + q8 * dt))


def _update(mu, sigma, z, r):
    """One update step on floats, shapes as in `_predict`; z is (x, y,
    theta). K = sigma adj(S) / det(S) with S = sigma + R."""
    x, y, th = mu
    v = (z[0] - x, z[1] - y, wrap_angle(z[2] - th))
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = (s + e for s, e in zip(sigma, r))
    adj = (a4 * a8 - a5 * a7, a2 * a7 - a1 * a8, a1 * a5 - a2 * a4,
           a5 * a6 - a3 * a8, a0 * a8 - a2 * a6, a2 * a3 - a0 * a5,
           a3 * a7 - a4 * a6, a1 * a6 - a0 * a7, a0 * a4 - a1 * a3)
    det = a0 * adj[0] + a1 * adj[3] + a2 * adj[6]
    if det == 0.0 or not math.isfinite(det):
        raise NumericalError(f"singular innovation covariance (det {det}, "
                             f"diag {(a0, a4, a8)})")
    k = tuple(e / det for e in _mm(sigma, adj))
    mu = (x + (k[0] * v[0] + k[1] * v[1] + k[2] * v[2]),
          y + (k[3] * v[0] + k[4] * v[1] + k[5] * v[2]),
          wrap_angle(th + (k[6] * v[0] + k[7] * v[1] + k[8] * v[2])))
    ikh = (1.0 - k[0], -k[1], -k[2], -k[3], 1.0 - k[4], -k[5], -k[6], -k[7], 1.0 - k[8])
    joseph = _mm_t(_mm(ikh, sigma), ikh)
    gain = _mm_t(_mm(k, r), k)
    return mu, _symmetrized(tuple(p + g for p, g in zip(joseph, gain)))


def _floats(m: np.ndarray):
    """An array's entries, row-major, as a list of Python floats."""
    return m.ravel().tolist()


def kf_predict(state: KfState, odom: OdomSample, q: np.ndarray) -> KfState:
    """Advance the state by dead reckoning; q is process noise per second."""
    return KfState(*_predict(_floats(state.mu), _floats(state.sigma),
                             (odom.vx, odom.vy, odom.omega, odom.dt),
                             _floats(_checked_q(q))))


def kf_update(state: KfState, z, r: np.ndarray) -> KfState:
    """Full-state measurement update (H = I), Joseph-form covariance."""
    return KfState(*_update(_floats(state.mu), _floats(state.sigma),
                            _floats(_as_vec3(z, "z")), _floats(_checked_r(r))))


def fuse_trajectory(odometry, fixes, init: KfState, q: np.ndarray,
                    r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the filter one step per odometry row.

    odometry is (steps, 4): row i - 1 is step i's (vx, vy, omega, dt).
    fixes[i] is an [x, y, theta] measurement of step i. Step 0 applies
    fixes[0], when there is one, to init; step i >= 1 predicts with row
    i - 1, then applies fixes[i]. Returns the state after every step as
    mu (steps + 1, 3) and sigma (steps + 1, 3, 3).
    """
    q, r = _floats(_checked_q(q)), _floats(_checked_r(r))
    try:
        steps = np.asarray(odometry, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError("odometry must be numeric (steps, 4) rows") from None
    if steps.ndim != 2 or steps.shape[1] != 4:
        raise InputError(f"odometry must be (steps, 4) rows, got shape {steps.shape}")
    # OdomSample's rule, on every row
    if not (np.isfinite(steps).all() and (steps[:, 3] > 0).all()):
        raise InputError("odometry must be finite with every dt > 0")
    steps = steps.tolist()
    for i in fixes:
        if not 0 <= i <= len(steps):
            raise InputError(f"fix step {i} outside 0..{len(steps)}")
    fixes = {i: _floats(_as_vec3(z, "a fix")) for i, z in fixes.items()}
    mu, sigma = _floats(init.mu), _floats(init.sigma)
    # (mu, sigma) after each step, then each predicted state a fix updated
    after, predicted = [], []
    try:
        for i in range(len(steps) + 1):
            if i:
                mu, sigma = _predict(mu, sigma, steps[i - 1], q)
            if i in fixes:
                predicted.append((mu, sigma))
                mu, sigma = _update(mu, sigma, fixes[i], r)
            after.append((mu, sigma))
    finally:
        # also when a step raised: a step fed a state these checks reject
        # can fail in another way, and their InputError is the one raised
        mus, sigmas = zip(*(after + predicted))
        mus, sigmas = np.array(mus), np.array(sigmas).reshape(-1, 3, 3)
        _check_states(mus, sigmas)
    return mus[:len(after)], sigmas[:len(after)]
