import math

import numpy as np
import pytest

from sbevloc.errors import InputError, NumericalError
from sbevloc.fusion import (
    KfState,
    OdomSample,
    fuse_trajectory,
    kf_predict,
    kf_update,
)
from sbevloc.geometry import wrap_angle

Q0 = np.zeros((3, 3))
Q_DEFAULT = np.diag([0.1 ** 2, 0.1 ** 2, math.radians(0.5) ** 2])
R_EYE = np.eye(3)


def state(x=0.0, y=0.0, th=0.0, sigma=None):
    return KfState(np.array([x, y, th]),
                   np.eye(3) if sigma is None else np.asarray(sigma, float))


# --- predict --------------------------------------------------------------

def test_predict_zero_velocity_zero_q():
    s = state(1, 2, 0.3)
    out = kf_predict(s, OdomSample(0, 0, 0, 1.0), Q0)
    assert np.allclose(out.mu, s.mu)
    assert np.allclose(out.sigma, s.sigma)


def test_predict_frame_rotation():
    out = kf_predict(state(0, 0, 0), OdomSample(10, 0, 0, 1.0), Q0)
    assert np.allclose(out.mu, [10, 0, 0])
    out = kf_predict(state(0, 0, math.pi / 2), OdomSample(10, 0, 0, 1.0), Q0)
    assert out.mu[0] == pytest.approx(0, abs=1e-12)
    assert out.mu[1] == pytest.approx(10)


def test_predict_theta_advances_and_wraps():
    out = kf_predict(state(0, 0, 3.0), OdomSample(0, 0, 0.5, 1.0), Q0)
    assert out.mu[2] == pytest.approx(wrap_angle(3.5))


@pytest.mark.parametrize("vx, vy, omega, dt", [
    (1.0, 0.0, 0.0, math.nan), (1.0, 0.0, 0.0, math.inf), (math.nan, 0.0, 0.0, 0.1),
    (math.inf, 0.0, 0.0, 0.1), (0.0, math.nan, 0.0, 0.1), (0.0, 0.0, math.nan, 0.1),
])
def test_odom_sample_rejects_non_finite(vx, vy, omega, dt):
    with pytest.raises(InputError):
        OdomSample(vx, vy, omega, dt)


@pytest.mark.parametrize("mu, sigma", [
    (np.zeros(4), np.eye(3)), (np.zeros(2), np.eye(3)), (np.zeros(3), np.eye(2)),
    (np.zeros(3), np.eye(4)),
])
def test_kf_state_rejects_wrong_shapes(mu, sigma):
    with pytest.raises(InputError, match="mu|sigma"):
        KfState(mu, sigma)


@pytest.mark.parametrize("z", [np.zeros(2), np.zeros(4), np.zeros((2, 2))])
def test_update_rejects_measurement_of_wrong_size(z):
    with pytest.raises(InputError, match="3 entries"):
        kf_update(state(), z, R_EYE)
    with pytest.raises(InputError, match="3 entries"):
        fuse_trajectory([], {0: z}, state(), Q_DEFAULT, R_EYE)


def test_predict_rejects_bad_q():
    with pytest.raises(InputError):
        kf_predict(state(), OdomSample(1, 0, 0, 0.1), np.diag([-1.0, 1, 1]))


def test_predict_monte_carlo_psd():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = state(sigma=np.diag(rng.uniform(0.01, 4.0, 3)))
        for _ in range(40):
            odom = OdomSample(rng.uniform(0, 15), rng.uniform(-1, 1),
                              rng.uniform(-0.3, 0.3), rng.uniform(0.02, 0.5))
            s = kf_predict(s, odom, Q_DEFAULT)
            assert np.linalg.eigvalsh(s.sigma).min() >= -1e-9


def test_predict_trace_grows_from_uncorrelated_state():
    # guaranteed only when sigma has no x-theta / y-theta cross terms; with
    # correlated states the motion Jacobian can legitimately shrink the trace
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = state(th=rng.uniform(-3, 3), sigma=np.diag(rng.uniform(0.01, 9.0, 3)))
        odom = OdomSample(rng.uniform(-15, 15), rng.uniform(-2, 2),
                          rng.uniform(-0.5, 0.5), rng.uniform(0.02, 0.5))
        out = kf_predict(s, odom, Q_DEFAULT)
        assert np.trace(out.sigma) >= np.trace(s.sigma) - 1e-12


# --- update ----------------------------------------------------------------

def test_update_zero_innovation_keeps_mean_shrinks_sigma():
    s = state(1, 2, 0.3, sigma=np.eye(3) * 2.0)
    out = kf_update(s, s.mu, R_EYE)
    assert np.allclose(out.mu, s.mu)
    assert np.trace(out.sigma) < np.trace(s.sigma)


def test_update_scalar_analogue():
    # sigma = I, R = I -> K = 0.5 I, posterior variance 0.5
    out = kf_update(state(sigma=np.eye(3)), np.array([1.0, 0, 0]), R_EYE)
    assert np.allclose(np.diag(out.sigma), 0.5)
    assert out.mu[0] == pytest.approx(0.5)


def test_update_joseph_equals_simple_at_optimal_k():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.1 * np.eye(3)
        b = rng.normal(size=(3, 3))
        r = b @ b.T + 0.1 * np.eye(3)
        out = kf_update(state(sigma=sigma), rng.normal(size=3), r)
        k = np.linalg.solve((sigma + r).T, sigma.T).T
        simple = (np.eye(3) - k) @ sigma
        assert np.abs(out.sigma - (simple + simple.T) / 2).max() < 1e-9


def test_update_joseph_stays_psd_under_perturbed_gain():
    rng = np.random.default_rng(2)
    sigma = np.diag([1e-6, 1.0, 4.0])
    r = np.diag([1e-6, 1.0, 1.0])
    k = np.linalg.solve((sigma + r).T, sigma.T).T
    for _ in range(20):
        kp = k + rng.normal(0, 1e-3, (3, 3))
        ikh = np.eye(3) - kp
        joseph = ikh @ sigma @ ikh.T + kp @ r @ kp.T
        assert np.linalg.eigvalsh((joseph + joseph.T) / 2).min() >= -1e-12
        simple = ikh @ sigma
        # the textbook form is not even symmetric once K is off-optimal
        assert np.abs(simple - simple.T).max() > 0


def test_update_wraps_innovation():
    s = state(0, 0, 3.0, sigma=np.eye(3))
    out = kf_update(s, np.array([0, 0, -3.0]), R_EYE * 1e-9)
    # onto the short way around: 3.0 -> ~pi wrapping, not toward 0
    assert abs(wrap_angle(out.mu[2] - wrap_angle(3.0 + 0.2831853 / 1))) < 0.01


def test_update_invariant_to_2pi_relabel():
    s = state(0, 0, 1.0, sigma=np.eye(3))
    a = kf_update(s, np.array([0.5, 0.5, 1.2]), R_EYE)
    b = kf_update(s, np.array([0.5, 0.5, 1.2 + 2 * math.pi]), R_EYE)
    assert np.allclose(a.mu, b.mu)
    assert np.allclose(a.sigma, b.sigma)


def test_update_extreme_r():
    s = state(1, 2, 0.3, sigma=np.eye(3))
    z = np.array([5.0, -4.0, 1.0])
    huge = kf_update(s, z, np.eye(3) * 1e12)
    assert np.allclose(huge.mu, s.mu, atol=1e-9)
    tiny = kf_update(s, z, np.eye(3) * 1e-12)
    assert np.allclose(tiny.mu, z, atol=1e-9)


def test_update_singular_innovation_raises():
    s = state(sigma=np.zeros((3, 3)))
    with pytest.raises(NumericalError):
        kf_update(s, np.zeros(3), np.zeros((3, 3)))


# --- fuse_trajectory ---------------------------------------------------------

def dead_reckon(odometry):
    """Poses at steps 0..len(odometry), starting from the origin."""
    xs = [np.array([0.0, 0.0, 0.0])]
    for o in odometry:
        x, y, th = xs[-1]
        xs.append(np.array([
            x + (o.vx * math.cos(th) - o.vy * math.sin(th)) * o.dt,
            y + (o.vx * math.sin(th) + o.vy * math.cos(th)) * o.dt,
            wrap_angle(th + o.omega * o.dt)]))
    return xs


def test_fuse_pure_odometry_dead_reckons():
    rng = np.random.default_rng(3)
    odom = [OdomSample(rng.uniform(5, 12), rng.uniform(-0.5, 0.5),
                       rng.uniform(-0.2, 0.2), 0.1) for _ in range(49)]
    init = state(sigma=np.eye(3) * 100.0)
    states = fuse_trajectory(odom, {}, init, Q_DEFAULT, R_EYE)
    want = dead_reckon(odom)
    assert len(states) == 50
    assert states[0] is init
    for s, w in zip(states, want):
        assert np.allclose(s.mu, w, atol=1e-12)


def test_fuse_converges_to_noiseless_measurements():
    odom = [OdomSample(10.0, 0.0, 0.0, 0.1)] * 29
    truth = dead_reckon(odom)
    fixes = {i: truth[i] for i in range(1, 30)}
    init = KfState(np.array([5.0, 5.0, 0.5]), np.eye(3) * 100.0)
    states = fuse_trajectory(odom, fixes, init, Q_DEFAULT, np.eye(3) * 1e-10)
    assert np.abs(states[11].mu - truth[11]).max() < 1e-6


def test_fuse_step_is_predict_then_update():
    init = state(1.0, -2.0, 0.4, sigma=np.diag([4.0, 9.0, 0.1]))
    odom = [OdomSample(8.0, 0.3, 0.05, 0.1), OdomSample(9.0, -0.2, -0.1, 0.2)]
    z = [2.5, -1.0, 0.3]
    r = np.diag([2.0, 3.0, 0.01])
    states = fuse_trajectory(odom, {2: z}, init, Q_DEFAULT, r)
    first = kf_predict(init, odom[0], Q_DEFAULT)
    second = kf_update(kf_predict(first, odom[1], Q_DEFAULT), z, r)
    assert len(states) == 3
    for got, want in zip(states[1:], (first, second)):
        assert np.array_equal(got.mu, want.mu)
        assert np.array_equal(got.sigma, want.sigma)


def test_fuse_applies_step_zero_fix_to_init():
    init = state(1.0, -2.0, 0.4, sigma=np.diag([4.0, 9.0, 0.1]))
    odom = [OdomSample(8.0, 0.3, 0.05, 0.1)]
    z0, r = [2.5, -1.0, 0.3], np.diag([2.0, 3.0, 0.01])
    states = fuse_trajectory(odom, {0: z0}, init, Q_DEFAULT, r)
    first = kf_update(init, z0, r)
    second = kf_predict(first, odom[0], Q_DEFAULT)
    assert len(states) == 2
    for got, want in zip(states, (first, second)):
        assert np.array_equal(got.mu, want.mu)
        assert np.array_equal(got.sigma, want.sigma)


@pytest.mark.parametrize("step", [3, -1])
def test_fuse_rejects_fix_outside_steps(step):
    odom = [OdomSample(1.0, 0.0, 0.0, 0.1)] * 2
    with pytest.raises(InputError, match="outside 0..2"):
        fuse_trajectory(odom, {1: [0.0, 0.0, 0.0], step: [0.0, 0.0, 0.0]},
                        state(), Q_DEFAULT, R_EYE)


def test_fuse_noisy_measurements_improve_mae():
    rng = np.random.default_rng(4)
    odom_true = [OdomSample(10.0, 0.0, 0.05, 0.1)] * 399
    truth = dead_reckon(odom_true)
    odom_noisy = [OdomSample(o.vx + rng.normal(0, 0.3), o.vy + rng.normal(0, 0.05),
                             o.omega + rng.normal(0, 0.01), o.dt)
                  for o in odom_true]
    fixes = {i: truth[i] + np.array([rng.normal(0, 3.0), rng.normal(0, 3.0),
                                     rng.normal(0, math.radians(1.0))])
             for i in range(5, len(truth), 5)}
    init = KfState(truth[0], np.eye(3) * 25.0)
    r = np.diag([9.0, 9.0, math.radians(1.0) ** 2])
    states = fuse_trajectory(odom_noisy, fixes, init, Q_DEFAULT, r)
    pre_err = [np.abs(z[:2] - truth[i][:2]) for i, z in fixes.items()]
    post_err = [np.abs(states[i].mu[:2] - truth[i][:2]) for i in fixes]
    pre_mae = np.mean(pre_err, axis=0)
    post_mae = np.mean(post_err, axis=0)
    assert post_mae[0] <= pre_mae[0]
    assert post_mae[1] <= pre_mae[1]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("later_fix", [False, True])
def test_fuse_rejects_infinite_odometry(later_fix):
    # the states are checked in one batch after the loop; a non-finite one
    # still raises InputError, also when a later fix updates it. OdomSample
    # rejects an infinite velocity, so a finite one overflows the covariance
    odom = [OdomSample(8.0, 0.0, 0.0, 0.1)] * 6
    odom[2] = OdomSample(1e308, 0.0, 0.0, 0.1)
    fixes = {0: [0.0, 0.0, 0.0]}
    if later_fix:
        fixes[5] = [4.0, 0.0, 0.0]
    with pytest.raises(InputError, match="non-finite filter state"):
        fuse_trajectory(odom, fixes, state(), Q_DEFAULT, R_EYE)


ASYMMETRIC = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("q, r, match", [
    (np.diag([-1.0, 1.0, 1.0]), R_EYE, "Q not positive semi-definite"),
    (np.eye(2), R_EYE, r"Q must be 3x3, got \(2, 2\)"),
    (Q_DEFAULT, np.eye(2), r"R must be 3x3, got \(2, 2\)"),
    (Q_DEFAULT, ASYMMETRIC, "R not symmetric"),
])
# a None sample fails with AttributeError once a step reads it
@pytest.mark.parametrize("odometry", [[], [None, None]], ids=["empty", "unread"])
def test_fuse_checks_q_and_r_before_any_step(q, r, match, odometry):
    with pytest.raises(InputError, match=match):
        fuse_trajectory(odometry, {}, state(), q, r)
