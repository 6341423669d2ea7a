"""Layer microbenchmarks with pytest-benchmark, kept out of the tier-1 run.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest microbench -q

CI runs them with `--benchmark-disable`: each body then runs once, and only
its output check counts.

One BLAS thread, as in perfbench: on a 2-core machine the default two
threads made the AE forward pass read ~110 ms in some runs and ~3 ms in
others. Each benchmark also checks its output once, so a fast wrong result
fails.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from sbevloc import localizer, nnet
from sbevloc.config import SEED_WORLD, RunConfig, derive_seed
from sbevloc.evaluate import R_FIX
from sbevloc.fusion import KfState, OdomSample, fuse_trajectory, kf_predict, kf_update
from sbevloc.geometry import PointCloud, Pose2
from sbevloc.localizer import (
    EmbeddingIndex,
    grid_to_input,
    load_bundle,
    localize,
    nearest_nodes,
    save_bundle,
    train_autoencoder,
    _node_means,
)
from sbevloc.pipeline import (
    ACCUMULATION_WINDOW,
    ego_cloud,
    pool_traversal,
    render_stream,
    train_localizer,
    traversal_sbevs,
)
from sbevloc.sbev import (
    GridSpec,
    accumulate_sbev,
    rasterize_bev,
)
from sbevloc.synthworld import (
    WeatherSpec,
    generate_world,
    lane_shift,
    perturb_weather,
    render_frame,
)
from sbevloc.topomap import assign_to_nodes, balance_samples, build_topo_map, rotate_grid

SPEC = GridSpec()
# the moderate rain of the benchmark
RAIN = WeatherSpec(label_confusion_prob=0.02, confusion_radius=2, depth_dropout_prob=0.05,
                   depth_noise_sigma=0.05, range_attenuation=40.0)
N_POINTS = 50_000
CFG = RunConfig()       # default camera (160x120) and grid (352 cells at 0.25 m)


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
    k, policy = CFG.camera.intrinsics(), CFG.classes.policy()
    return [(ego_cloud(*render_frame(world, p, k), k, policy), p)
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
    clouds = [(ego_cloud(d, l, k, policy), p)
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


def frozen_build_point_cloud(depth, labels, k):
    """Reference: the unprojection as it was before the per-camera tables,
    a 2-D nonzero and a per-call subtraction."""
    valid = (depth > 0) & (labels != 0)
    vs, us = np.nonzero(valid)
    xyz = np.empty((3, len(vs))).T
    xyz[:, 0] = d = depth[valid]
    xyz[:, 1] = -((us - k.cx) * d / k.fx)
    xyz[:, 2] = -((vs - k.cy) * d / k.fy)
    return xyz, labels[valid]


@pytest.mark.parametrize("weather", [None, RAIN], ids=["clean", "rain"])
def test_ego_cloud(benchmark, world, weather):
    k, policy = CFG.camera.intrinsics(), CFG.classes.policy()
    depth, labels = render_frame(world, world.route[100], k)
    if weather is not None:
        depth, labels = perturb_weather((depth, labels), weather, 7)
    cloud = benchmark(ego_cloud, depth, labels, k, policy)
    # reference: the label map filtered by a lookup of its own, then every
    # pixel unprojected by the frozen code
    lut = np.zeros(256, dtype=np.uint8)
    lut[sorted(policy.keep_set)] = sorted(policy.keep_set)
    xyz, kept = frozen_build_point_cloud(depth, lut[labels], k)
    assert len(cloud) > 0 and cloud.xyz.flags.f_contiguous
    assert cloud.xyz.tobytes(order="A") == xyz.tobytes(order="A")
    assert cloud.labels.tobytes() == kept.tobytes()


def test_perturb_weather(benchmark, world):
    """The benchmark's rain on one default-camera frame; the same seed gives
    the same bytes."""
    k = CFG.camera.intrinsics()
    frame = render_frame(world, world.route[100], k)
    depth, labels = benchmark(perturb_weather, frame, RAIN, 7)
    again = perturb_weather(frame, RAIN, 7)
    assert depth.shape == labels.shape == (k.height, k.width)
    assert depth.tobytes() == again[0].tobytes() and labels.tobytes() == again[1].tobytes()
    # rain moved some labels and depths, and cut every depth beyond its range
    assert (labels != frame[1]).any() and (depth != frame[0]).any()
    assert depth.max() <= RAIN.range_attenuation


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
    n = SPEC.size // 8
    mean = grid.astype(np.float64).reshape(n, 8, n, 8).mean(axis=(1, 3))
    want = (mean / 255.0).ravel().astype(np.float32)
    assert x.dtype == want.dtype and x.tobytes() == want.tobytes()


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
    first = copy.deepcopy(net)
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


def ae_reference(x, node_ids, is_original, cfg):
    """The forward/backward/optimizer_step chain of the live-cell AE on
    per-row node-mean targets: the init of default_net("ae") with layer 0
    cut to the live input columns and the last layer to the live outputs,
    and `train`'s shuffle at seed 1. Returns the net, its layer 0 scattered
    back to full width with +0.0 dead columns, and its epoch losses."""
    live = np.flatnonzero(x.any(axis=0))
    table, index = _node_means(x, node_ids, is_original)
    rows, per_row = x[:, live].copy(), table[index][:, live].copy()
    net = default_net("ae")
    first, last = net.layers[0], net.layers[-1]
    net.layers[0] = nnet.Layer(first.weights[:, live].copy(), first.bias, first.activation)
    net.layers[-1] = nnet.Layer(last.weights[live], last.bias[live], last.activation)
    shuffle_rng = np.random.default_rng([1, 0x21])
    state, losses = None, []
    for _ in range(cfg.train.epochs):
        order = shuffle_rng.permutation(len(x))
        batch_losses = []
        for start in range(0, len(x), BATCH):
            idx = order[start:start + BATCH]
            out, rec = nnet.forward(net, rows[idx], mode="train")
            loss, grad = nnet.mse_loss(out, per_row[idx])
            state = nnet.optimizer_step(net, nnet.backward(net, rec, grad), cfg.train,
                                        state)
            batch_losses.append(loss)
        losses.append(sum(batch_losses) / len(batch_losses))
    w0 = np.zeros_like(first.weights)
    w0[:, live] = net.layers[0].weights
    net.layers[0] = nnet.Layer(w0, net.layers[0].bias, first.activation)
    return net, losses


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
    node_ids, is_original = rows % AE_NODES, rows < BATCH
    # seed 1: the init of default_net("ae"); every column is live
    model, losses = benchmark(train_autoencoder, x, node_ids, is_original, cfg, 1)
    net, want_losses = ae_reference(x, node_ids, is_original, cfg)
    assert losses == want_losses
    assert_same_net(model.net, net)


def test_train_autoencoder_dead_columns(benchmark, world, monkeypatch):
    """AE epochs on pooled real S-BEVs, most of whose input columns lie
    outside the camera's view and are 0 in every row: the AE reads and
    reconstructs the live cells only, its losses fall and equal the
    live-cell chain's, and its full-width encoder holds +0.0 in the dead
    columns."""
    cfg = dataclasses.replace(CFG.ae, train=dataclasses.replace(CFG.ae.train, epochs=2))
    sbevs = traversal_sbevs(world, world.route, CFG, frame_ids=range(AE_STEPS * BATCH))
    x = np.stack([grid_to_input(sb.grid, cfg.pool) for sb in sbevs])
    dead = ~x.any(axis=0)
    in_dim, n_live = (SPEC.size // cfg.pool) ** 2, int((~dead).sum())
    assert x.shape == (AE_STEPS * BATCH, in_dim)
    assert 0.5 < dead.mean() < 0.9
    rows = np.arange(len(x))
    node_ids, is_original = rows * AE_NODES // len(x), rows % 4 == 0
    shapes = []
    plain_train = nnet.train

    def spy(net, *args):
        shapes.append([layer.weights.shape for layer in net.layers])
        return plain_train(net, *args)

    monkeypatch.setattr(nnet, "train", spy)
    model, losses = benchmark(train_autoencoder, x, node_ids, is_original, cfg, 1)
    hidden, latent = cfg.hidden[0], cfg.latent_dim
    assert set(map(tuple, shapes)) == {((hidden, n_live), (latent, hidden),
                                        (hidden, latent), (n_live, hidden))}
    assert len(losses) == 2 and losses[1] < losses[0]
    w0 = model.net.layers[0].weights
    assert w0.shape == (hidden, in_dim)
    assert not w0[:, dead].view(np.uint32).any()
    net, want_losses = ae_reference(x, node_ids, is_original, cfg)
    assert losses == want_losses
    assert_same_net(model.net, net)


def test_save_load_bundle(benchmark, world, tmp_path):
    """Save and load a default-size bundle whose AE trained on the pooled
    real S-BEVs of the 160 m route: the deflated byte planes take at most
    85% of the members' raw bytes, and the loaded bundle localizes
    byte-equal."""
    cfg = dataclasses.replace(
        CFG, ae=dataclasses.replace(CFG.ae, train=dataclasses.replace(CFG.ae.train, epochs=1)),
        reg=dataclasses.replace(CFG.reg, train=dataclasses.replace(CFG.reg.train, epochs=1)))
    route = world.route
    topo = build_topo_map(route, cfg.topo.trans_threshold_m,
                          math.radians(cfg.topo.ang_threshold_deg))
    samples = balance_samples(assign_to_nodes(topo, enumerate(route)), len(topo), 1)
    frame_ids = sorted({s.frame_id for s in samples})
    _, arrays = pool_traversal(traversal_sbevs(world, route, cfg, frame_ids=frame_ids),
                               [], cfg.ae.pool, samples)
    bundle = train_localizer(topo, arrays, "BASE", cfg, 1).bundle
    assert len(arrays.columns) < arrays.in_dim
    path = tmp_path / "bundle"

    def save_load():
        save_bundle(path, bundle)
        return load_bundle(path)

    loaded = benchmark(save_load)
    with np.load(path / "bundle.npz", allow_pickle=False) as z:
        raw = sum(localizer._from_planes(k, z[k]).nbytes for k in z.files)
    assert (path / "bundle.npz").stat().st_size <= 0.85 * raw
    for got, want in ((loaded.ae.net, bundle.ae.net), (loaded.reg.net, bundle.reg.net)):
        assert_same_net(got, want)
    # query frames off the map's lane, some lighting columns no map row lit
    sbevs = traversal_sbevs(world, lane_shift(route, 1.5), cfg, frame_ids=frame_ids[::8])
    assert all(localize(loaded, sb) == localize(bundle, sb) for sb in sbevs)


@pytest.mark.parametrize("n, rows, dim", [(31, 8496, 128), (1, 8496, 128), (1, 1152, 128),
                                          (31, 2000, 1936)],
                         ids=["batch", "one_row", "one_row_relocalize", "full_grid_batch"])
def test_nearest_nodes(benchmark, n, rows, dim):
    """A default-size index, 8496 sigmoid-range latents of 128 over 59 nodes:
    a 31-row batch, as one ablation scoring call, and one row, as a
    relocalize-style call on it. Then one row against 1152 rows, the size of
    relocalize's index, and a 31-row batch of pooled full grids, 1936 wide
    with about a third of the cells lit, against 2000 of them. Each pick is
    checked against a float64 subtract-first scan, ties to the smallest node
    id, and each distance against the picked row's float32 one."""
    rng = np.random.default_rng(9)
    lats = rng.random((rows, dim), dtype=np.float32)
    if dim > 128:
        lats *= rng.random((rows, dim)) < 0.35
    index = EmbeddingIndex(lats, np.arange(rows) % 59)
    queries = lats[rng.integers(0, rows, n)] + rng.normal(0, 0.02, (n, dim)).astype(np.float32)
    ids, dists = benchmark(nearest_nodes, index, queries)
    for q, nid, dist in zip(queries, ids.tolist(), dists.tolist()):
        diff64 = lats.astype(np.float64) - q.astype(np.float64)
        d2 = np.einsum("ij,ij->i", diff64, diff64)
        tied = np.flatnonzero(d2 == d2.min())
        best = tied[np.argmin(index.node_ids[tied])]
        diff = lats[best:best + 1] - q
        assert (nid, dist) == (int(index.node_ids[best]),
                               float(np.sqrt(np.einsum("ij,ij->i", diff, diff))[0]))


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
    rows = np.array([(o.vx, o.vy, o.omega, o.dt) for o in odom])
    mu, sigma = benchmark(fuse_trajectory, rows, fixes, init, q, R_FIX)
    # reference: one checked kf_predict/kf_update call per step
    want = [kf_update(init, fixes[0], R_FIX)]
    for i, o in enumerate(odom, start=1):
        state = kf_predict(want[-1], o, q)
        want.append(kf_update(state, fixes[i], R_FIX) if i in fixes else state)
    assert len(mu) == len(sigma) == len(want) == FUSE_STEPS + 1
    for got_mu, got_sigma, ref in zip(mu, sigma, want):
        assert np.array_equal(got_mu, ref.mu) and np.array_equal(got_sigma, ref.sigma)
