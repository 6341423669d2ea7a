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
NO_STEPS = np.empty((0, 4))


def rows(odometry):
    """OdomSamples as fuse_trajectory's (steps, 4) rows."""
    return np.array([(o.vx, o.vy, o.omega, o.dt) for o in odometry])


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


def test_kf_state_keeps_a_finite_sigma_finite():
    # (m + m.T) / 2 overflows at 1e308; the halves do not
    s = KfState(np.zeros(3), np.diag([1e308, 1.0, 1.0]))
    assert s.sigma[0, 0] == 1e308
    assert np.array_equal(s.sigma, np.diag([1e308, 1.0, 1.0]))


def test_kf_state_symmetrizes_as_the_halved_sum():
    # halving is exact above the subnormal range, so where the sum is
    # finite the bits are those of (m + m.T) / 2
    rng = np.random.default_rng(11)
    asymmetric = 0
    for scale in (1e-300, 1e-3, 1.0, 10.0, 1e3):
        for _ in range(200):
            # the rounding of random_spd's product leaves m a little asymmetric
            m = random_spd(rng, scale)
            asymmetric += not np.array_equal(m, m.T)
            assert np.array_equal(KfState(np.zeros(3), m).sigma, (m + m.T) / 2.0)
    assert asymmetric > 500


@pytest.mark.parametrize("z", [np.zeros(2), np.zeros(4), np.zeros((2, 2))])
def test_update_rejects_measurement_of_wrong_size(z):
    with pytest.raises(InputError, match="3 entries"):
        kf_update(state(), z, R_EYE)
    with pytest.raises(InputError, match="3 entries"):
        fuse_trajectory(NO_STEPS, {0: z}, state(), Q_DEFAULT, R_EYE)


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


def numpy_predict(mu, sigma, odom, q):
    """The reference: the predict step as numpy array expressions."""
    x, y, th = mu
    c, s = math.cos(th), math.sin(th)
    gx = (odom.vx * c - odom.vy * s) * odom.dt
    gy = (odom.vx * s + odom.vy * c) * odom.dt
    f = np.array([[1.0, 0.0, -gy], [0.0, 1.0, gx], [0.0, 0.0, 1.0]])
    p = f @ sigma @ f.T + q * odom.dt
    return (np.array([x + gx, y + gy, wrap_angle(th + odom.omega * odom.dt)]),
            (p + p.T) / 2.0)


def numpy_update(mu, sigma, z, r):
    """The reference: the update step as numpy array expressions."""
    innovation = z - mu
    innovation[2] = wrap_angle(innovation[2])
    k = np.linalg.solve((sigma + r).T, sigma.T).T
    mu = mu + k @ innovation
    mu[2] = wrap_angle(mu[2])
    ikh = np.eye(3) - k
    p = ikh @ sigma @ ikh.T + k @ r @ k.T
    return mu, (p + p.T) / 2.0


def random_spd(rng, scale):
    """A random rotation of eigenvalues in [scale, 100 scale]."""
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return (rot * scale * 10.0 ** rng.uniform(0, 2, 3)) @ rot.T


def assert_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())


def test_float_steps_match_numpy_reference_monte_carlo():
    # the gain from adj(S) / det(S) and from an LU solve agree to about
    # cond(S) roundings; here cond(S) <= 100
    rng = np.random.default_rng(5)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-3, 2)
        s = KfState(rng.normal(size=3) * [100, 100, 2], random_spd(rng, scale))
        odom = OdomSample(rng.normal(10, 3), rng.normal(0, 0.5), rng.normal(0, 0.2),
                          rng.uniform(0.01, 0.5))
        q = random_spd(rng, 10.0 ** rng.uniform(-3, 0))
        r = random_spd(rng, 10.0 ** rng.uniform(-3, 1))
        z = s.mu + rng.normal(size=3) * [5, 5, 0.5]
        for got, want in ((kf_predict(s, odom, q), numpy_predict(s.mu, s.sigma, odom, q)),
                          (kf_update(s, z, r), numpy_update(s.mu, s.sigma, z, r))):
            assert_close(got.mu[:2], want[0][:2])
            assert abs(wrap_angle(got.mu[2] - want[0][2])) <= 1e-12
            assert_close(got.sigma, want[1])


def test_steps_return_float64_arrays_of_their_shapes():
    s = state(1.0, 2.0, 0.3, sigma=np.diag([4.0, 9.0, 0.1]))
    for out in (kf_predict(s, OdomSample(8.0, 0.3, 0.05, 0.1), Q_DEFAULT),
                kf_update(s, [2.0, 1.0, 0.2], np.diag([2.0, 3.0, 0.01]))):
        assert out.mu.dtype == out.sigma.dtype == np.float64
        assert out.mu.shape == (3,) and out.sigma.shape == (3, 3)
        assert np.array_equal(out.sigma, out.sigma.T)


@pytest.mark.parametrize("sigma, r", [
    # S = sigma + R of rank 2 and rank 1, with det exactly 0
    (np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3))),
    ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], np.zeros((3, 3))),
    # a finite S whose det overflows
    (np.eye(3) * 1e110, np.eye(3)),
])
def test_update_singular_or_non_finite_det_raises(sigma, r):
    with pytest.raises(NumericalError, match="singular innovation covariance"):
        kf_update(state(sigma=sigma), np.zeros(3), r)
    with pytest.raises(NumericalError, match="singular innovation covariance"):
        fuse_trajectory(NO_STEPS, {0: [0.0, 0.0, 0.0]}, state(sigma=sigma), Q_DEFAULT, r)


def test_fuse_rejects_a_state_that_is_not_psd():
    # R is only checked for symmetry; a negative entry makes the Joseph
    # update's covariance indefinite, which the batched check catches
    r = np.diag([-0.9, 1.0, 1.0])
    with pytest.raises(InputError, match="sigma not positive semi-definite"):
        fuse_trajectory([[1.0, 0.0, 0.0, 0.1]], {1: [0.1, 0.0, 0.0]},
                        state(), Q_DEFAULT, r)


# --- fuse_trajectory ---------------------------------------------------------

def dead_reckon(odometry):
    """Poses at steps 0..len(odometry), starting from the origin."""
    xs = [np.array([0.0, 0.0, 0.0])]
    for vx, vy, omega, dt in odometry:
        x, y, th = xs[-1]
        xs.append(np.array([
            x + (vx * math.cos(th) - vy * math.sin(th)) * dt,
            y + (vx * math.sin(th) + vy * math.cos(th)) * dt,
            wrap_angle(th + omega * dt)]))
    return xs


def test_fuse_pure_odometry_dead_reckons():
    rng = np.random.default_rng(3)
    odom = [[rng.uniform(5, 12), rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2), 0.1]
            for _ in range(49)]
    init = state(sigma=np.eye(3) * 100.0)
    mu, sigma = fuse_trajectory(odom, {}, init, Q_DEFAULT, R_EYE)
    want = dead_reckon(odom)
    assert mu.shape == (50, 3) and sigma.shape == (50, 3, 3)
    assert np.array_equal(mu[0], init.mu) and np.array_equal(sigma[0], init.sigma)
    for got, w in zip(mu, want):
        assert np.allclose(got, w, atol=1e-12)


def test_fuse_converges_to_noiseless_measurements():
    odom = [[10.0, 0.0, 0.0, 0.1]] * 29
    truth = dead_reckon(odom)
    fixes = {i: truth[i] for i in range(1, 30)}
    init = KfState(np.array([5.0, 5.0, 0.5]), np.eye(3) * 100.0)
    mu, _ = fuse_trajectory(odom, fixes, init, Q_DEFAULT, np.eye(3) * 1e-10)
    assert np.abs(mu[11] - truth[11]).max() < 1e-6


def test_fuse_step_is_predict_then_update():
    init = state(1.0, -2.0, 0.4, sigma=np.diag([4.0, 9.0, 0.1]))
    odom = [OdomSample(8.0, 0.3, 0.05, 0.1), OdomSample(9.0, -0.2, -0.1, 0.2)]
    z = [2.5, -1.0, 0.3]
    r = np.diag([2.0, 3.0, 0.01])
    mu, sigma = fuse_trajectory(rows(odom), {2: z}, init, Q_DEFAULT, r)
    first = kf_predict(init, odom[0], Q_DEFAULT)
    second = kf_update(kf_predict(first, odom[1], Q_DEFAULT), z, r)
    assert len(mu) == len(sigma) == 3
    for got_mu, got_sigma, want in zip(mu[1:], sigma[1:], (first, second)):
        assert np.array_equal(got_mu, want.mu)
        assert np.array_equal(got_sigma, want.sigma)


def test_fuse_applies_step_zero_fix_to_init():
    init = state(1.0, -2.0, 0.4, sigma=np.diag([4.0, 9.0, 0.1]))
    odom = [OdomSample(8.0, 0.3, 0.05, 0.1)]
    z0, r = [2.5, -1.0, 0.3], np.diag([2.0, 3.0, 0.01])
    mu, sigma = fuse_trajectory(rows(odom), {0: z0}, init, Q_DEFAULT, r)
    first = kf_update(init, z0, r)
    second = kf_predict(first, odom[0], Q_DEFAULT)
    assert len(mu) == len(sigma) == 2
    for got_mu, got_sigma, want in zip(mu, sigma, (first, second)):
        assert np.array_equal(got_mu, want.mu)
        assert np.array_equal(got_sigma, want.sigma)


@pytest.mark.parametrize("step", [3, -1])
def test_fuse_rejects_fix_outside_steps(step):
    odom = [[1.0, 0.0, 0.0, 0.1]] * 2
    with pytest.raises(InputError, match="outside 0..2"):
        fuse_trajectory(odom, {1: [0.0, 0.0, 0.0], step: [0.0, 0.0, 0.0]},
                        state(), Q_DEFAULT, R_EYE)


def test_fuse_noisy_measurements_improve_mae():
    rng = np.random.default_rng(4)
    odom_true = [[10.0, 0.0, 0.05, 0.1]] * 399
    truth = dead_reckon(odom_true)
    odom_noisy = [[vx + rng.normal(0, 0.3), vy + rng.normal(0, 0.05),
                   omega + rng.normal(0, 0.01), dt]
                  for vx, vy, omega, dt in odom_true]
    fixes = {i: truth[i] + np.array([rng.normal(0, 3.0), rng.normal(0, 3.0),
                                     rng.normal(0, math.radians(1.0))])
             for i in range(5, len(truth), 5)}
    init = KfState(truth[0], np.eye(3) * 25.0)
    r = np.diag([9.0, 9.0, math.radians(1.0) ** 2])
    mu, _ = fuse_trajectory(odom_noisy, fixes, init, Q_DEFAULT, r)
    pre_err = [np.abs(z[:2] - truth[i][:2]) for i, z in fixes.items()]
    post_err = [np.abs(mu[i][:2] - truth[i][:2]) for i in fixes]
    pre_mae = np.mean(pre_err, axis=0)
    post_mae = np.mean(post_err, axis=0)
    assert post_mae[0] <= pre_mae[0]
    assert post_mae[1] <= pre_mae[1]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("later_fix", [False, True])
def test_fuse_rejects_infinite_odometry(later_fix):
    # the states are checked in one batch after the loop; a non-finite one
    # still raises InputError, also when a later fix updates it. The rows
    # must be finite, so a finite velocity overflows the covariance
    odom = [[8.0, 0.0, 0.0, 0.1]] * 6
    odom[2] = [1e308, 0.0, 0.0, 0.1]
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
    (np.diag([math.nan, 1.0, 1.0]), R_EYE, "Q not finite"),
    (Q_DEFAULT, np.diag([1.0, math.inf, 1.0]), "R not finite"),
])
# rows of None fail their own check, so no step reads them: the check runs
# after Q's and R's
@pytest.mark.parametrize("odometry", [NO_STEPS, [[None] * 4] * 2],
                         ids=["empty", "unread"])
def test_fuse_checks_q_and_r_before_any_step(q, r, match, odometry):
    with pytest.raises(InputError, match=match):
        fuse_trajectory(odometry, {}, state(), q, r)


# each value breaks OdomSample's rule in one field of an otherwise good row
BAD_ODOMETRY = {
    "vx_nan": (math.nan, 0.0, 0.0, 0.1), "vx_inf": (math.inf, 0.0, 0.0, 0.1),
    "vy_-inf": (0.0, -math.inf, 0.0, 0.1), "omega_nan": (0.0, 0.0, math.nan, 0.1),
    "dt_nan": (1.0, 0.0, 0.0, math.nan), "dt_inf": (1.0, 0.0, 0.0, math.inf),
    "dt_0": (1.0, 0.0, 0.0, 0.0), "dt_-0.1": (1.0, 0.0, 0.0, -0.1),
    "width_3": (1.0, 0.0, 0.1), "width_5": (1.0, 0.0, 0.0, 0.1, 0.0),
    "str": (1.0, 0.0, "x", 0.1), "none": (1.0, None, 0.0, 0.1),
}


@pytest.mark.parametrize("row", BAD_ODOMETRY.values(), ids=BAD_ODOMETRY)
def test_bad_odometry_rejected_by_sample_and_rows(row):
    good = [8.0, 0.0, 0.0, 0.1]
    for odometry in ([row], [good, row, good]):
        with pytest.raises(InputError, match="odometry must be"):
            fuse_trajectory(odometry, {0: [0.0, 0.0, 0.0]}, state(), Q_DEFAULT, R_EYE)
    if len(row) != 4:
        # a call with the wrong number of fields is Python's TypeError
        with pytest.raises(TypeError):
            OdomSample(*row)
        return
    with pytest.raises(InputError):
        OdomSample(*row)
