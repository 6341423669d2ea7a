"""Layer microbenchmarks with pytest-benchmark, kept out of the tier-1 run.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest microbench -q

CI runs them with `--benchmark-disable`: each body then runs once, and only
its output check counts.

One BLAS thread, as in perfbench: on a 2-core machine the default two
threads made the AE forward pass read ~110 ms in some runs and ~3 ms in
others. Each benchmark also checks its output once, so a fast wrong result
fails.
"""

import dataclasses
import math

import numpy as np
import pytest

from sbevloc import nnet
from sbevloc.config import SEED_WORLD, RunConfig, derive_seed
from sbevloc.evaluate import R_FIX
from sbevloc.fusion import KfState, OdomSample, fuse_trajectory, kf_predict, kf_update
from sbevloc.geometry import PointCloud, Pose2
from sbevloc.localizer import ae_targets, grid_to_input, train_autoencoder
from sbevloc.pipeline import ACCUMULATION_WINDOW, ego_cloud, render_stream, traversal_sbevs
from sbevloc.sbev import (
    GridSpec,
    accumulate_sbev,
    build_point_cloud,
    filter_labels,
    rasterize_bev,
)
from sbevloc.synthworld import WeatherSpec, generate_world, render_frame
from sbevloc.topomap import rotate_grid

SPEC = GridSpec()
# the moderate rain of the benchmark
RAIN = WeatherSpec(label_confusion_prob=0.02, confusion_radius=2, depth_dropout_prob=0.05,
                   depth_noise_sigma=0.05, range_attenuation=40.0)
N_POINTS = 50_000
CFG = RunConfig()       # default camera (320x240) and grid (352 cells at 0.25 m)


def cloud_in_view(rng, n, heights):
    """Points spread over the grid, in random order, at the given heights."""
    extent = SPEC.size * SPEC.resolution
    xyz = np.column_stack([rng.uniform(0, extent, n),
                           rng.uniform(-extent / 2, extent / 2, n), heights])
    return PointCloud(xyz, rng.integers(1, 256, n))


@pytest.fixture(scope="module")
def tie_heavy():
    # a handful of heights, like a flat ground plane and box tops
    rng = np.random.default_rng(1)
    return cloud_in_view(rng, N_POINTS, rng.choice([-1.5, 0.5, 2.0, 3.5], N_POINTS))


@pytest.fixture(scope="module")
def noisy():
    # continuous heights, like depth noise in rain
    rng = np.random.default_rng(2)
    return cloud_in_view(rng, N_POINTS, rng.normal(0.0, 1.5, N_POINTS))


@pytest.mark.parametrize("name", ["tie_heavy", "noisy"])
def test_rasterize_bev(benchmark, request, name):
    cloud = request.getfixturevalue(name)
    sb = benchmark(rasterize_bev, cloud, SPEC)
    assert sb.grid.any()


def test_accumulate_sbev_window(benchmark, noisy):
    parts = np.array_split(np.arange(N_POINTS), 5)
    frames = [(PointCloud(noisy.xyz[p], noisy.labels[p]), Pose2(0.5 * i, 0.0, 0.01 * i))
              for i, p in enumerate(parts)]
    sb = benchmark(accumulate_sbev, frames, frames[-1][1], SPEC)
    assert sb.grid.any()


@pytest.fixture(scope="module")
def world():
    # the 160 m route of the relocalize benchmark, seed 1
    synth = dataclasses.replace(CFG.synth, route_length=160.0)
    return generate_world(derive_seed(1, SEED_WORLD), synth)


@pytest.fixture(scope="module")
def real_window(world):
    """The ego clouds and poses of 5 consecutive rendered frames, newest last."""
    k, policy, spec = CFG.camera.intrinsics(), CFG.classes.policy(), CFG.grid.grid_spec()
    return [(ego_cloud(*render_frame(world, p, k), k, policy, spec), p)
            for p in world.route[100:100 + ACCUMULATION_WINDOW]]


def lexsort_rasterize(xyz, labels, spec):
    """Reference: per cell, the last point of a (cell, z, label) sort wins."""
    rows = spec.size - 1 - np.floor(xyz[:, 0] / spec.resolution).astype(np.int64)
    cols = (spec.size - 1
            - np.floor((xyz[:, 1] + spec.lateral_extent / 2) / spec.resolution).astype(np.int64))
    z = xyz[:, 2]
    keep = ((rows >= 0) & (rows < spec.size) & (cols >= 0) & (cols < spec.size)
            & (z >= spec.height_window[0]) & (z <= spec.height_window[1]) & (labels != 0))
    cell, z, labels = rows[keep] * spec.size + cols[keep], z[keep], labels[keep]
    order = np.lexsort((labels, z, cell))
    grid = np.zeros(spec.size * spec.size, dtype=np.uint8)
    grid[cell[order]] = labels[order]
    return grid.reshape(spec.size, spec.size)


def in_ego_of(current, pose, xyz):
    """Reference: ego points of `pose` in the ego coordinates of `current`,
    moved on the ground plane; z is kept."""
    c, s = math.cos(pose.theta - current.theta), math.sin(pose.theta - current.theta)
    cc, sc = math.cos(current.theta), math.sin(current.theta)
    dx, dy = pose.x - current.x, pose.y - current.y
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return xyz @ rot.T + (cc * dx + sc * dy, -sc * dx + cc * dy, 0.0)


def test_accumulate_sbev_real_window(benchmark, real_window):
    spec = CFG.grid.grid_spec()
    current = real_window[-1][1]
    sb = benchmark(accumulate_sbev, real_window, current, spec)
    xyz = np.concatenate([in_ego_of(current, pose, cloud.xyz) for cloud, pose in real_window])
    labels = np.concatenate([c.labels for c, _ in real_window])
    assert sb.grid.any()
    assert np.array_equal(sb.grid, lexsort_rasterize(xyz, labels, spec))


def test_accumulate_sbev_held_windows(benchmark, world):
    """Every S-BEV of the 160 m route in the benchmark's rain, built while
    every frame's ego cloud is held in a list, as a caller that keeps its
    frames does; each checked against the sort reference. Rain confuses
    labels, so that a cell's top point often lacks its largest label; in
    clean frames the two rules give the same grids."""
    k, policy, spec = CFG.camera.intrinsics(), CFG.classes.policy(), CFG.grid.grid_spec()
    clouds = [(ego_cloud(d, l, k, policy, spec), p)
              for _, p, d, l in render_stream(world, world.route, k, weather=RAIN, weather_seed=1)]
    windows = [clouds[max(0, i + 1 - ACCUMULATION_WINDOW):i + 1] for i in range(len(clouds))]
    grids = benchmark.pedantic(
        lambda: [accumulate_sbev(w, w[-1][1], spec).grid for w in windows], rounds=3)
    assert len(grids) == len(world.route)
    for window, grid in zip(windows, grids):
        current = window[-1][1]
        xyz = np.concatenate([in_ego_of(current, pose, cloud.xyz) for cloud, pose in window])
        labels = np.concatenate([c.labels for c, _ in window])
        assert grid.tobytes() == lexsort_rasterize(xyz, labels, spec).tobytes()


def test_render_frame(benchmark, world):
    k = CFG.camera.intrinsics()
    depth, labels = benchmark(render_frame, world, world.route[100], k)
    assert depth.shape == labels.shape == (k.height, k.width)
    assert labels.any() and (depth > 0).any()


def test_ego_cloud(benchmark, world):
    k, policy, spec = CFG.camera.intrinsics(), CFG.classes.policy(), CFG.grid.grid_spec()
    depth, labels = render_frame(world, world.route[100], k)
    cloud = benchmark(ego_cloud, depth, labels, k, policy, spec)
    # reference: the whole label map filtered, then the lattice unprojected
    want = build_point_cloud(depth, filter_labels(labels, policy), k, spec.stride)
    assert len(cloud) > 0
    assert cloud.xyz.tobytes() == want.xyz.tobytes()
    assert cloud.labels.tobytes() == want.labels.tobytes()


def test_rotate_grid(benchmark, real_window):
    spec = CFG.grid.grid_spec()
    grid = accumulate_sbev(real_window, real_window[-1][1], spec).grid
    rot = benchmark(rotate_grid, grid, math.radians(5), spec)
    back = rotate_grid(rot, math.radians(-5), spec)
    # nearest-neighbor resampling keeps most labeled cells through a round trip
    assert rot.dtype == grid.dtype and (back[grid != 0] == grid[grid != 0]).mean() > 0.8


def test_grid_to_input(benchmark):
    grid = np.random.default_rng(3).integers(0, 256, (SPEC.size, SPEC.size), dtype=np.uint8)
    x = benchmark(grid_to_input, grid, 8)
    assert x.shape == ((SPEC.size // 8) ** 2,)


# the default networks at the training batch: the 1936-512-128-512-1936
# autoencoder, and the regressor over the 59 nodes of the default 1200 m
# route (59 one-hot + 128 latent inputs, 256-128 hidden, dropout 0.2)
BATCH = CFG.ae.train.batch_size
REG_NODES = 59


def default_net(name):
    ae, reg = CFG.ae, CFG.reg
    if name == "ae":
        in_dim = (SPEC.size // ae.pool) ** 2
        dims = [in_dim, *ae.hidden, ae.latent_dim, *reversed(ae.hidden), in_dim]
        return nnet.init_net(dims, [ae.activation] * (len(dims) - 2) + ["linear"],
                             seed=1, dtype=np.float32)
    dims = [REG_NODES + ae.latent_dim, *reg.hidden, 3]
    return nnet.init_net(dims, ["relu"] * len(reg.hidden) + ["linear"],
                         dropout=[reg.dropout] * len(reg.hidden) + [0.0],
                         seed=2, dtype=np.float32)


@pytest.fixture(scope="module", params=["ae", "reg"])
def net_batch(request):
    """(net, input batch, forward record, gradients) of one default net."""
    net = default_net(request.param)
    rng = np.random.default_rng(4)
    x = rng.random((BATCH, net.layers[0].weights.shape[1]), dtype=np.float32)
    out, rec = nnet.forward(net, x, mode="train", rng=np.random.default_rng(5))
    _, grad = nnet.mse_loss(out, np.zeros_like(out))
    return net, x, rec, nnet.backward(net, rec, grad)


def dense_reference(net, x, masks):
    """Reference forward pass in float64 with the given dropout masks."""
    h = x.astype(np.float64)
    for layer, mask in zip(net.layers, masks):
        z = h @ layer.weights.T.astype(np.float64) + layer.bias
        h = {"relu": np.maximum(z, 0.0), "sigmoid": 1.0 / (1.0 + np.exp(-z)),
             "linear": z}[layer.activation]
        h = h if mask is None else h * mask
    return h


def test_nnet_forward(benchmark, net_batch):
    net, x, _, _ = net_batch
    out, rec = benchmark(nnet.forward, net, x, mode="train", rng=np.random.default_rng(6))
    assert out.shape == (BATCH, net.layers[-1].weights.shape[0]) and out.dtype == np.float32
    assert np.allclose(out, dense_reference(net, x, rec.masks), rtol=1e-4, atol=1e-5)


def test_nnet_backward(benchmark, net_batch):
    net, _, rec, want = net_batch
    out = rec.post[-1]
    grads = benchmark(nnet.backward, net, rec, 2.0 * out / out.size)
    # the last layer is linear without dropout: db = sum of dL/dout,
    # dW = dL/dout^T @ its input
    g = 2.0 * out / out.size
    assert np.array_equal(grads[-1][1], g.sum(axis=0))
    assert np.allclose(grads[-1][0], g.T @ rec.post[-2], rtol=1e-4, atol=1e-9)
    for (dw, db), layer, (w_dw, w_db) in zip(grads, net.layers, want):
        assert dw.shape == layer.weights.shape and db.shape == layer.bias.shape
        assert np.array_equal(dw, w_dw) and np.array_equal(db, w_db)


def test_nnet_optimizer_step(benchmark, net_batch):
    net, _, _, grads = net_batch
    config = CFG.ae.train
    # the first Adam step moves each parameter by ~lr against its gradient's sign
    first = net.copy()
    nnet.optimizer_step(first, grads, config)
    for layer, new, (dw, _) in zip(net.layers, first.layers, grads):
        big = np.abs(dw) > 1e-4
        step = (new.weights - layer.weights)[big]
        assert np.allclose(step, -config.learning_rate * np.sign(dw[big]), rtol=1e-2)
    # steady state: the moment buffers exist, as in every step after a
    # training run's first
    state = nnet.optimizer_step(first, grads, config)
    benchmark(nnet.optimizer_step, first, grads, config, state)


# a few steps of AE training at the default sizes on node-mean targets,
# one table row per node as the pipeline trains on them
AE_STEPS, AE_NODES = 3, 6


def ae_reference(x, targets, cfg):
    """The forward/backward/optimizer_step chain on per-row targets, with
    layer 0's gradient over every input column, from the init of
    default_net("ae") and `train`'s shuffle at seed 1; returns the net and
    its epoch loss."""
    per_row = targets.table[targets.index]
    net = default_net("ae")
    order = np.random.default_rng([1, 0x21]).permutation(len(x))
    state, losses = None, []
    for start in range(0, len(x), BATCH):
        idx = order[start:start + BATCH]
        out, rec = nnet.forward(net, x[idx], mode="train")
        loss, grad = nnet.mse_loss(out, per_row[idx])
        state = nnet.optimizer_step(net, nnet.backward(net, rec, grad), cfg.train, state)
        losses.append(loss)
    return net, sum(losses) / len(losses)


def assert_same_net(got, want):
    for g, w in zip(got.layers, want.layers):
        assert g.weights.tobytes() == w.weights.tobytes()
        assert g.bias.tobytes() == w.bias.tobytes()


def test_train_autoencoder_steps(benchmark):
    cfg = dataclasses.replace(CFG.ae, train=dataclasses.replace(CFG.ae.train, epochs=1))
    in_dim = (SPEC.size // cfg.pool) ** 2
    rng = np.random.default_rng(8)
    x = rng.random((AE_STEPS * BATCH, in_dim), dtype=np.float32)
    rows = np.arange(len(x))
    targets = ae_targets(x, rows % AE_NODES, rows < BATCH, "BASE")
    # seed 1: the init of default_net("ae")
    model, losses = benchmark(train_autoencoder, x, targets, cfg, 1)
    net, loss = ae_reference(x, targets, cfg)
    assert losses == [loss]
    assert_same_net(model.net, net)


def test_train_autoencoder_dead_columns(benchmark, world):
    """AE steps on pooled real S-BEVs, most of whose input columns lie
    outside the camera's view and are 0 in every row: layer 0 trains on the
    live columns only, and every weight and loss equals full gradients'."""
    cfg = dataclasses.replace(CFG.ae, train=dataclasses.replace(CFG.ae.train, epochs=1))
    sbevs = traversal_sbevs(world, world.route, CFG, frame_ids=range(AE_STEPS * BATCH))
    x = np.stack([grid_to_input(sb.grid, cfg.pool) for sb in sbevs])
    dead = ~x.any(axis=0)
    assert x.shape == (AE_STEPS * BATCH, (SPEC.size // cfg.pool) ** 2)
    assert 0.5 < dead.mean() < 0.9
    rows = np.arange(len(x))
    targets = ae_targets(x, rows * AE_NODES // len(x), rows % 4 == 0, "BASE")
    model, losses = benchmark(train_autoencoder, x, targets, cfg, 1)
    net, loss = ae_reference(x, targets, cfg)
    assert losses == [loss]
    assert_same_net(model.net, net)
    init = default_net("ae").layers[0].weights
    assert model.net.layers[0].weights[:, dead].tobytes() == init[:, dead].tobytes()


# one post-KF scoring call of the ablation benchmark: 140 odometry steps,
# a fix at 31 of them, the first at step 0
FUSE_STEPS, FUSE_FIXES = 140, 31


def test_fuse_trajectory(benchmark):
    rng = np.random.default_rng(7)
    odom = [OdomSample(10.0 + rng.normal(0, 0.2), rng.normal(0, 0.05),
                       rng.normal(0, 0.005), 0.05) for _ in range(FUSE_STEPS)]
    steps = np.sort(rng.choice(np.arange(1, FUSE_STEPS + 1), FUSE_FIXES - 1, replace=False))
    fixes = {int(i): [0.5 * i + rng.normal(0, 2.0), rng.normal(0, 2.0), rng.normal(0, 0.03)]
             for i in [0, *steps]}
    init = KfState(np.array(fixes[0]), CFG.kf.init_sigma())
    q = CFG.kf.q()
    states = benchmark(fuse_trajectory, odom, fixes, init, q, R_FIX)
    # reference: one checked kf_predict/kf_update call per step
    want = [kf_update(init, fixes[0], R_FIX)]
    for i, o in enumerate(odom, start=1):
        state = kf_predict(want[-1], o, q)
        want.append(kf_update(state, fixes[i], R_FIX) if i in fixes else state)
    assert len(states) == len(want) == FUSE_STEPS + 1
    for got, ref in zip(states, want):
        assert np.array_equal(got.mu, ref.mu) and np.array_equal(got.sigma, ref.sigma)
