import copy
import io
import math
import re
import struct
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbevloc import evaluate, localizer, nnet
from sbevloc.errors import FormatError, InputError
from sbevloc.geometry import Pose2, pose2_compose, wrap_angle
from sbevloc.localizer import (
    AeConfig,
    AEModel,
    EmbeddingIndex,
    LocalizerBundle,
    RegConfig,
    RegModel,
    coarse_localize,
    embed,
    embed_vec,
    fine_localize,
    grid_to_input,
    load_bundle,
    localize,
    nearest_nodes,
    pool_grid,
    regressor_inputs,
    save_bundle,
    train_autoencoder,
    train_regressor,
)
from sbevloc.sbev import SBev
from sbevloc.topomap import NodePose, TopoMap


def tiny_ae(seed=0, in_dim=16, latent=4):
    net = nnet.init_net([in_dim, 8, latent], ["relu", "relu"], seed=seed,
                        dtype=np.float32)
    return AEModel(net, pool=8, mode="BASE")


# --- pooling / inputs -----------------------------------------------------

def test_pool_grid_hand_case():
    g = np.array([[1, 3], [5, 7]], dtype=np.uint8)
    assert pool_grid(g, 2)[0, 0] == 4.0
    assert pool_grid(g.astype(np.float64) + 0.5, 2)[0, 0] == 4.5


def test_pool_grid_matches_float64_mean():
    rng = np.random.default_rng(20)
    grids = [rng.integers(0, 256, (352, 352), dtype=np.uint8) for _ in range(10)]
    grids.append(np.full((352, 352), 255, dtype=np.uint8))
    for pool in (2, 4, 8):
        for g in grids:
            mean = g.astype(np.float64).reshape(
                352 // pool, pool, 352 // pool, pool).mean(axis=(1, 3))
            got = pool_grid(g, pool)
            assert got.dtype == mean.dtype and np.array_equal(got, mean)
            want = (mean / 255.0).ravel().astype(np.float32)
            x = grid_to_input(g, pool)
            assert x.dtype == want.dtype and np.array_equal(x, want)


def test_pool_grid_full_size():
    g = np.full((352, 352), 255, dtype=np.uint8)
    out = pool_grid(g, 8)
    assert out.shape == (44, 44)
    assert np.all(out == 255.0)
    x = grid_to_input(g)
    assert x.shape == (1936,)
    assert np.allclose(x, 1.0)


@pytest.mark.parametrize("factor", [1, 2, 8, 16, 17])
def test_pool_grid_uint8_bit_equal_to_float64_mean(factor):
    # 272 = 16 * 17; at factor 17 a block of 255s sums to 73695, past uint16
    rng = np.random.default_rng(factor)
    grids = [np.full((272, 272), 255, dtype=np.uint8),
             rng.integers(0, 256, (272, 272), dtype=np.uint8),
             rng.integers(0, 256, (272, 2 * 272), dtype=np.uint8)]
    for g in grids:
        h, w = g.shape
        mean = g.astype(np.float64).reshape(h // factor, factor, w // factor, factor).mean(
            axis=(1, 3))
        got = pool_grid(g, factor)
        assert got.dtype == np.float64 and got.tobytes() == mean.tobytes()


@pytest.mark.parametrize("grid", [np.zeros(64), np.zeros((8, 8, 1)), np.uint8(3)],
                         ids=["1d", "3d", "0d"])
def test_pool_grid_not_2d_raises_input_error(grid):
    with pytest.raises(InputError, match="2-D"):
        pool_grid(grid, 2)
    with pytest.raises(InputError, match="2-D"):
        grid_to_input(grid, 2)


@pytest.mark.parametrize("factor", [2.0, 2.5, True, "2", np.float64(2.0)])
def test_pool_grid_factor_not_an_integer_raises_input_error(factor):
    with pytest.raises(InputError, match="integer"):
        pool_grid(np.zeros((8, 8), dtype=np.uint8), factor)
    with pytest.raises(InputError, match="integer"):
        grid_to_input(np.zeros((8, 8), dtype=np.uint8), factor)


def test_pool_grid_divisibility():
    with pytest.raises(InputError):
        pool_grid(np.zeros((10, 10)), 3)
    for factor in (0, -2):
        with pytest.raises(InputError, match=f"pool factor {factor} does not divide"):
            pool_grid(np.zeros((8, 8)), factor)


# --- AE targets ------------------------------------------------------------

def test_ae_targets_base_is_node_mean():
    inputs = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]])
    table, index = localizer._node_means(inputs, [0, 0, 1], [True] * 3)
    t = table[index]
    assert np.allclose(t[0], [0.5, 0.5])
    assert np.allclose(t[1], [0.5, 0.5])
    assert np.allclose(t[2], [4.0, 2.0])


def test_ae_targets_avg_is_identity(monkeypatch):
    # under AVG each row's target is the row itself, not its node's mean
    inputs = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
    seen = []
    plain_train = nnet.train

    def spy(net, rows, targets, config, seed):
        seen.append(targets)
        return plain_train(net, rows, targets, config, seed)

    monkeypatch.setattr(nnet, "train", spy)
    train_autoencoder(inputs, [0, 0, 1, 1, 1], [True, False] * 2 + [True],
                      small_ae(epochs=1), 0, "AVG")
    [targets] = seen
    assert np.array_equal(targets[np.arange(5)], inputs)


def test_ae_targets_separate_source_set():
    # augmented inputs reconstruct the mean of the ORIGINAL samples
    inputs = np.array([[2.0], [2.1], [1.9], [4.0], [4.2], [7.0]], np.float32)
    ids = [0, 0, 0, 0, 0, 1]
    is_original = [True, False, False, True, False, True]
    table, index = localizer._node_means(inputs, ids, is_original)
    t = table[index]
    assert np.allclose(t[:5], 3.0) and t[5] == 7.0
    with pytest.raises(InputError, match="no original rows for node 1"):
        train_autoencoder(inputs, ids, is_original[:5] + [False],
                          small_ae(epochs=1), 0, "AUG")


def materialized_node_means(inputs, node_ids, is_original):
    """Reference targets stored per row: each row gets its node's mean over
    the node's original rows, as float64 cast to the inputs' dtype."""
    ids = np.asarray(node_ids)
    out = np.empty_like(inputs)
    for nid in np.unique(ids):
        members = ids == nid
        out[members] = inputs[members & np.asarray(is_original)].mean(
            axis=0, dtype=np.float64)
    return out


@pytest.mark.parametrize("mode", ["BASE", "AUG"])
def test_ae_targets_table_rows_equal_per_row_node_means(mode):
    rng = np.random.default_rng(21)
    inputs = rng.random((60, 7), dtype=np.float32)
    ids = rng.permutation(np.arange(60) % 5 + 3)    # node ids 3..7, unsorted
    is_original = rng.random(60) < 0.3
    is_original[np.unique(ids, return_index=True)[1]] = True
    if mode == "AUG":   # AUG trains on the original rows only
        inputs, ids, is_original = inputs[is_original], ids[is_original], is_original[is_original]
    table, index = localizer._node_means(inputs, ids, is_original)
    assert table.shape == (5, 7) and table.dtype == np.float32
    assert len(index) == len(inputs)
    want = materialized_node_means(inputs, ids, is_original)
    assert table[index].tobytes() == want.tobytes()


def test_ae_targets_avg_makes_no_copy(monkeypatch):
    # under AVG the target batch is the input batch: `nnet.train` gets one
    # set of rows, over the caller's array, as both
    x = np.random.default_rng(22).random((6, 3), dtype=np.float32)
    seen = []
    plain_train = nnet.train

    def spy(net, inputs, targets, config, seed):
        seen.append((inputs, targets))
        return plain_train(net, inputs, targets, config, seed)

    monkeypatch.setattr(nnet, "train", spy)
    train_autoencoder(x, [0, 0, 1, 1, 2, 2], [True] * 6, small_ae(epochs=1), 0, "AVG")
    [(inputs, targets)] = seen
    assert targets is inputs and inputs.table is x


def test_indexed_rows_reject_bad_index():
    table = np.zeros((3, 2))
    for index in ([0, 3], [-1, 0], [[0, 1]]):
        with pytest.raises(InputError):
            nnet.IndexedRows(table, index)


# --- autoencoder -------------------------------------------------------------

def small_ae(**train) -> AeConfig:
    return AeConfig(hidden=(8,), latent_dim=4, train=nnet.TrainConfig(**train))


def test_train_autoencoder_overfits_one_sample():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (1, 16)).astype(np.float32)
    cfg = small_ae(epochs=300, learning_rate=0.01, batch_size=1)
    model, losses = train_autoencoder(x, [0], [True], cfg, 2, "AVG")
    assert losses[-1] < 1e-3 * max(losses[0], 1e-12)
    assert model.latent_dim == 4


def test_train_autoencoder_deterministic():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (10, 16)).astype(np.float32)
    cfg = small_ae(epochs=10)
    ids, is_original = np.arange(10) % 3, np.arange(10) < 5
    for mode in localizer.AE_MODES:
        _, l1 = train_autoencoder(x, ids, is_original, cfg, 4, mode)
        _, l2 = train_autoencoder(x, ids, is_original, cfg, 4, mode)
        assert l1 == l2


def test_train_autoencoder_keeps_the_trained_encoder():
    x = np.random.default_rng(7).uniform(0, 1, (12, 16)).astype(np.float32)
    cfg = AeConfig(hidden=(8, 6), latent_dim=4, activation="relu",
                   train=nnet.TrainConfig(epochs=3, batch_size=5))
    model, losses = train_autoencoder(x, [0] * 12, [True] * 12, cfg, 9, "AVG")
    # every input column is live, so the live-cell AE is the full symmetric
    # AE, from the same init and seed
    full = nnet.init_net([16, 8, 6, 4, 6, 8, 16], ["relu"] * 5 + ["linear"],
                         seed=9, dtype=np.float32)
    trained, want_losses = nnet.train(full, x, x, cfg.train, 9)
    assert losses == want_losses
    assert len(model.net.layers) == model.encoder_layers == len(cfg.hidden) + 1
    assert model.latent_dim == model.net.layers[-1].weights.shape[0] == 4
    for got, want in zip(model.net.layers, trained.layers):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
        assert (got.activation, got.dropout) == (want.activation, want.dropout)
    # the latent is the bottleneck output of the full forward pass
    _, rec = nnet.forward(trained, x, mode="eval")
    assert embed_vec(model, x).tobytes() == rec.post[len(cfg.hidden)].tobytes()


def test_train_autoencoder_on_compact_targets_equals_materialized():
    # each mode picks its targets: the AE equals `nnet.train` of the full AE
    # (every column is live) on those targets stored row by row
    rng = np.random.default_rng(23)
    x = rng.random((40, 16), dtype=np.float32)
    ids = np.arange(40) % 4
    is_original = np.arange(40) < 8
    cfg = small_ae(epochs=3, batch_size=7)
    for mode in localizer.AE_MODES:
        keep = is_original if mode == "AUG" else slice(None)   # as train_localizer
        rows, nodes, original = x[keep], ids[keep], is_original[keep]
        means = materialized_node_means(rows, nodes, original)
        assert (means != rows).any(axis=1).all()   # no row is its node's mean
        targets = rows if mode == "AVG" else means
        full = nnet.init_net([16, 8, 4, 8, 16], ["sigmoid"] * 3 + ["linear"],
                             seed=5, dtype=np.float32)
        trained, want_losses = nnet.train(full, rows, targets, cfg.train, 5)
        model, losses = train_autoencoder(rows, nodes, original, cfg, 5, mode)
        assert model.mode == mode
        assert losses == want_losses
        for got, want in zip(model.net.layers, trained.layers[:2], strict=True):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()


def test_train_autoencoder_memory_high_water():
    # the default 1936-512-128-512-1936 AE for two Adam steps; numpy
    # reports its buffers to tracemalloc
    cfg = AeConfig(train=nnet.TrainConfig(epochs=1))
    batch, in_dim = cfg.train.batch_size, 1936
    x = np.random.default_rng(24).random((2 * batch, in_dim), dtype=np.float32)
    dims = [in_dim, *cfg.hidden, cfg.latent_dim, *reversed(cfg.hidden), in_dim]
    param_bytes = 4 * sum((n_in + 1) * n_out for n_in, n_out in zip(dims, dims[1:]))
    # two forward records' worth (pre and post per layer: one record, and
    # backward's gradient arrays), and the input, target and output-gradient
    # batches
    activation_bytes = 4 * batch * (4 * sum(dims[1:]) + 3 * in_dim)
    adam_scratch_bytes = 4 * 2 * nnet._ADAM_BLOCK
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        train_autoencoder(x, np.arange(2 * batch) % 8, np.ones(2 * batch, bool), cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # parameters, one set of gradients and Adam's two moments; no copy of
    # the net and no second set of gradients
    assert peak < 4 * param_bytes + activation_bytes + adam_scratch_bytes, (
        f"peak {peak / param_bytes:.2f}x the parameter bytes")


def test_train_autoencoder_rejects_bad_mode():
    with pytest.raises(InputError):
        train_autoencoder(np.zeros((1, 4)), [0], [True], small_ae(epochs=1), 0,
                          mode="FOO")


@pytest.mark.parametrize("mode", localizer.AE_MODES)
def test_train_autoencoder_rejects_columns_of_another_length(mode):
    # AVG reads neither column and once trained on 5 rows with 4 node ids;
    # BASE and AUG raised numpy's untyped broadcast ValueError
    x = np.random.default_rng(3).normal(size=(5, 3)).astype(np.float32)
    with pytest.raises(InputError, match="node_ids has 4 rows, inputs 5"):
        train_autoencoder(x, [0, 0, 1, 1], [True] * 5, small_ae(epochs=1), 0, mode)
    with pytest.raises(InputError, match="is_original has 6 rows, inputs 5"):
        train_autoencoder(x, [0, 0, 1, 1, 1], [True] * 6, small_ae(epochs=1), 0, mode)


# --- embed --------------------------------------------------------------------

def test_embed_deterministic_and_finite():
    model = tiny_ae()
    grid = np.random.default_rng(5).integers(0, 255, (32, 32)).astype(np.uint8)
    sb = SBev(grid, 0.25)
    a = embed(model, sb)
    b = embed(model, sb)
    assert np.array_equal(a, b)
    # one 1-D latent, as `coarse_localize` takes from `localize`
    assert a.shape == (4,) and a.dtype == np.float32
    z = embed(model, SBev(np.zeros((32, 32), dtype=np.uint8), 0.25))
    assert np.all(np.isfinite(z))


# --- coarse_localize ------------------------------------------------------------

def test_coarse_exact_hit():
    lats = np.array([[0.0, 0], [3, 4], [6, 8]], dtype=np.float32)
    index = EmbeddingIndex(lats, np.array([5, 9, 2]))
    nid, dist = coarse_localize(index, np.array([3.0, 4.0]))
    assert nid == 9 and dist == 0.0


def test_coarse_picks_closer():
    index = EmbeddingIndex(np.array([[1.0], [2.0]], dtype=np.float32),
                           np.array([0, 1]))
    nid, dist = coarse_localize(index, np.array([0.0]))
    assert nid == 0 and dist == pytest.approx(1.0)


def test_coarse_tie_breaks_smallest_node():
    index = EmbeddingIndex(np.array([[1.0], [-1.0], [1.0]], dtype=np.float32),
                           np.array([7, 3, 3]))
    nid, _ = coarse_localize(index, np.array([0.0]))
    assert nid == 3


def test_coarse_non_finite_query_or_index_rejected():
    lats = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
    index = EmbeddingIndex(lats, np.array([0, 1]))
    for q in ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], [3e30, 0.0]):
        with pytest.raises(InputError, match="no finite distance"):
            coarse_localize(index, np.array(q))
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="non-finite index latents"):
            EmbeddingIndex(np.where(lats == 3.0, bad, lats), np.array([0, 1]))


@pytest.mark.parametrize("shape", [(2, 3), (6, 1), (1, 6), (5,), (7,), ()])
def test_coarse_localize_takes_one_1d_latent(shape):
    # a batch, or a row of another width, was reshaped into one query
    index = EmbeddingIndex(np.eye(6, dtype=np.float32), np.arange(6))
    with pytest.raises(InputError, match=r"latent of shape .* latent dim 6"):
        coarse_localize(index, np.zeros(shape))
    assert coarse_localize(index, np.eye(6)[4]) == (4, 0.0)


@pytest.mark.parametrize("ids", [[0.5, 1.7], ["0", "1"], [True, False], [[0, 1]],
                                 [2 ** 63 + 5], [1, 2 ** 63 + 5], [2 ** 70],
                                 np.array([0.0, 1.0], np.float32)],
                         ids=["floats", "strings", "bools", "2d", "past-int64",
                              "past-int64-mixed", "past-uint64", "float-array"])
def test_node_ids_must_be_1d_integers(ids):
    # floats were truncated to ids, strings and bools converted, and 2**63 + 5
    # raised OverflowError; [[0, 1]] passed the length check of a 1-row index
    lats = np.zeros((len(ids), 3), np.float32)
    with pytest.raises(InputError, match="node ids must be 1-D integers"):
        EmbeddingIndex(lats, ids)
    with pytest.raises(InputError, match="node ids must be 1-D integers"):
        regressor_inputs(ids, 5, lats)


def test_index_takes_integer_ids_of_any_width_and_no_zero_width_latents():
    for ids in ([], np.array([], np.int64)):
        assert len(EmbeddingIndex(np.zeros((0, 4), np.float32), ids)) == 0
    for dtype in (np.uint8, np.int32, np.uint32, np.uint64):
        index = EmbeddingIndex(np.zeros((2, 3), np.float32), np.array([4, 1], dtype))
        assert index.node_ids.dtype == np.int64 and index.node_ids.tolist() == [4, 1]
    # zero-width latents were accepted, and nearest_nodes divided by 0
    with pytest.raises(InputError, match=r"latent_dim >= 1"):
        EmbeddingIndex(np.zeros((2, 0), np.float32), [0, 1])


def test_coarse_matches_brute_force():
    rng = np.random.default_rng(8)
    lats = rng.normal(size=(2000, 16)).astype(np.float32)
    ids = rng.integers(0, 50, 2000)
    index = EmbeddingIndex(lats, ids)
    for _ in range(100):
        q = rng.normal(size=16).astype(np.float32)
        nid, dist = coarse_localize(index, q)
        d = np.linalg.norm(lats.astype(np.float64) - q.astype(np.float64), axis=1)
        j = int(np.argmin(d))
        assert nid == ids[j]
        assert dist == pytest.approx(d[j], rel=1e-5)


def oracle(index, latent):
    """Per index row: the float64 subtract-first d2 from `latent`, the
    float32 subtract-first distance, and the bound 4 (dim + 2) 2^-53
    (|q|^2 + |m|^2) on the rounding of the float64 expansion."""
    q = np.asarray(latent, dtype=np.float32)
    m64, q64 = index.latents.astype(np.float64), q.astype(np.float64)
    diff64, diff = m64 - q64, index.latents - q
    bound = 4 * (index.latent_dim + 2) * 2.0 ** -53 * (q64 @ q64 + (m64 * m64).sum(1))
    return (np.einsum("ij,ij->i", diff64, diff64),
            np.sqrt(np.einsum("ij,ij->i", diff, diff)), bound)


def loop_nearest(index, latents):
    """The oracle: each row against every index row, float64 subtract-first
    d2, ties toward the smallest node id, then insertion order; the distance
    is the float32 subtract-first one to that row."""
    ids, dists = [], []
    for latent in np.asarray(latents, dtype=np.float32):
        d2, dist, _ = oracle(index, latent)
        candidates = np.flatnonzero(d2 == d2.min())
        winner = candidates[np.argmin(index.node_ids[candidates])]
        ids.append(int(index.node_ids[winner]))
        dists.append(float(dist[winner]))
    return ids, dists


def assert_matches_loop(index, latents):
    ids, dists = nearest_nodes(index, latents)
    assert ids.dtype == np.int64 and dists.dtype == np.float32
    assert (ids.tolist(), dists.tolist()) == loop_nearest(index, latents)


def assert_within_bound(index, latents) -> int:
    """Rows whose d2 lie within their two bounds of the oracle's best are
    near ties. Where all of them are in one node, the pick is that node;
    otherwise it is the node of one of them. The distance is the
    float32 one to a near tie of the picked node. Returns how many queries
    had near ties in more than one node."""
    latents = np.asarray(latents, dtype=np.float32)
    ids, dists = nearest_nodes(index, latents)
    assert ids.dtype == np.int64 and dists.dtype == np.float32
    ties = 0
    for latent, nid, dist in zip(latents, ids.tolist(), dists.tolist(), strict=True):
        d2, f32, bound = oracle(index, latent)
        best = np.argmin(d2)
        near = d2 <= d2[best] + bound + bound[best]
        if (index.node_ids[near] == index.node_ids[best]).all():
            assert nid == index.node_ids[best]
        else:
            ties += 1
        assert dist in f32[near & (index.node_ids == nid)].tolist()
    return ties


def near_duplicates(rng, n_rows, dim, scale, rel_gap):
    """Rows around one offset, half of them copies of others moved by
    about rel_gap of the spread."""
    base = rng.normal(size=dim) * scale * rng.uniform(0, 100)
    rows = base + rng.normal(size=(n_rows, dim)) * scale
    src = rng.integers(0, n_rows, n_rows // 2)
    rows[:len(src)] = rows[src] + rng.normal(size=(len(src), dim)) * scale * rel_gap
    return rows.astype(np.float32)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 80), st.integers(1, 12),
       st.integers(2, 24), st.floats(-3, 4), st.floats(-9, -1))
@settings(max_examples=150, deadline=None)
def test_nearest_nodes_matches_loop_on_near_duplicates(seed, n_rows, dim, n, log_scale,
                                                       log_gap):
    rng = np.random.default_rng(seed)
    scale, gap = 10.0 ** log_scale, 10.0 ** log_gap
    lats = near_duplicates(rng, n_rows, dim, scale, gap)
    index = EmbeddingIndex(lats, rng.integers(0, 5, n_rows))
    queries = lats[rng.integers(0, n_rows, n)] + rng.normal(size=(n, dim)) * scale * gap
    assert_within_bound(index, queries)


@pytest.mark.parametrize("seed", range(4))
def test_nearest_nodes_over_index_blocks(monkeypatch, seed):
    # blocks of (query row, index row) d2: NN_BLOCK 1 scores one query row
    # against the index per block, 7 * 700 seven rows, the last block short.
    # Small integers make every d2 exact, so each block size gives the
    # loop's picks, ties to the smallest node included
    rng = np.random.default_rng(seed)
    near = near_duplicates(rng, 700, 8, 1.0, 1e-6)
    exact = rng.integers(-4, 5, (700, 8)).astype(np.float32)
    ids = rng.integers(0, 20, 700)
    queries = near[rng.integers(0, 700, 30)] + rng.normal(size=(30, 8)) * 1e-6
    for block in (1, 7 * 700, localizer.NN_BLOCK):
        monkeypatch.setattr(localizer, "NN_BLOCK", block)
        assert_within_bound(EmbeddingIndex(near, ids), queries)
        assert_matches_loop(EmbeddingIndex(exact, ids), exact[:30] + rng.integers(-1, 2, (30, 8)))
        queries[7, 3] = math.nan
        with pytest.raises(InputError, match="latent row 7 "):
            nearest_nodes(EmbeddingIndex(near, ids), queries)
        queries[7, 3] = 0.0


@pytest.mark.parametrize("rows, dim, block", [(8496, 128, None), (2000, 1936, None),
                                               (700, 8, 100)])
def test_one_row_scan_is_blocked_and_bit_equal(monkeypatch, rows, dim, block):
    # one row is one block against the whole index: it holds one float64 d2
    # per index row, not the rows x dim differences of a subtract-first scan
    # (4.35 MB at 8496 x 128, 15.5 MB at 2000 x 1936), and its distance is
    # the picked row's float32 subtract-first one, bit for bit. The second
    # half of the index copies the first under other nodes, so rows tie
    if block:
        monkeypatch.setattr(localizer, "NN_BLOCK", block)
    rng = np.random.default_rng(dim)
    lats = rng.random((rows, dim), dtype=np.float32)
    lats[rows // 2:] = lats[:rows - rows // 2]
    index = EmbeddingIndex(lats, rng.integers(0, 59, rows))
    queries = lats[rng.integers(0, rows, 3)] + rng.normal(0, 0.02, (3, dim)).astype(np.float32)
    for q in (*queries, lats[5]):
        tracemalloc.start()
        nearest_nodes(index, q[None])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * rows + 64 * dim + 4096, peak
        assert_within_bound(index, q[None])


def test_nearest_nodes_exact_ties():
    # rows 0 and 2 tie across nodes 7 and 3; rows 1 and 3 tie within node 4;
    # the query at 0 ties rows 0, 2, 4 and 5 across nodes 7, 3, 9 and 3
    lats = np.array([[1.0, 0], [5, 5], [1, 0], [5, 5], [-1, 0], [0, 1]], np.float32)
    index = EmbeddingIndex(lats, np.array([7, 4, 3, 4, 9, 3]))
    queries = np.array([[2.0, 0], [5, 6], [0, 0], [1, 0], [-1, 0]], np.float32)
    ids, dists = nearest_nodes(index, queries)
    assert ids.tolist() == [3, 4, 3, 3, 9]
    assert dists.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
    assert_matches_loop(index, queries)


def test_nearest_nodes_duplicate_rows_pick_a_tied_node():
    # every row twice, under two nodes: rounding, not the node rule, decides
    # between the copies, so the pick is either node at the copies' distance
    rng = np.random.default_rng(16)
    rows = rng.normal(size=(64, 32)).astype(np.float32)
    lats = np.concatenate([rows, rows])
    index = EmbeddingIndex(lats, np.arange(128))
    src = rng.integers(0, 64, 128)
    queries = (rows[src] + rng.normal(size=(128, 32)) * 0.1).astype(np.float32)
    ids, dists = nearest_nodes(index, queries)
    assert set(ids.tolist()) <= set(src.tolist()) | set((src + 64).tolist())
    assert ((ids % 64) == src).all()
    want = [float(oracle(index, q)[1][s]) for q, s in zip(queries, src)]
    assert dists.tolist() == want
    assert assert_within_bound(index, queries) == 128


def test_nearest_nodes_large_norms_tiny_gaps():
    # latents far from the origin that differ in their last bits: the float32
    # expansion |q|^2 - 2<q, m> + |m|^2 cancels and picks wrong here
    rng = np.random.default_rng(11)
    lats = (1e3 + rng.normal(size=(400, 32)) * 2e-4).astype(np.float32)
    index = EmbeddingIndex(lats, rng.integers(0, 40, 400))
    queries = (lats[rng.integers(0, 400, 60)]
               + rng.normal(size=(60, 32)) * 1e-4).astype(np.float32)
    expansion = ((queries ** 2).sum(1)[:, None] - 2 * queries @ lats.T
                 + (lats ** 2).sum(1)).argmin(axis=1)
    ids, _ = loop_nearest(index, queries)
    assert (index.node_ids[expansion] != ids).sum() > 10
    assert_within_bound(index, queries)


def test_nearest_nodes_ranks_rows_1_ulp_apart():
    # 25 copies of each of 4 rows, each 1 ulp off in 3 coordinates: their
    # exact distances differ by less than the float32 d2's rounding, so a
    # float32 subtract-first scan often misses the nearest; float64 does not
    rng = np.random.default_rng(15)
    base = rng.normal(size=(4, 16)).astype(np.float32)
    lats = np.repeat(base, 25, axis=0)
    for row in lats:
        j = rng.integers(0, 16, 3)
        row[j] = np.nextafter(row[j], (np.inf * rng.choice([-1, 1], 3)).astype(np.float32))
    index = EmbeddingIndex(lats, np.arange(100))
    queries = (base[rng.integers(0, 4, 40)]
               + rng.normal(size=(40, 16)) * 0.3).astype(np.float32)
    diff = lats - queries[:, None]
    float32_scan = np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)
    ids, _ = loop_nearest(index, queries)
    assert (float32_scan != ids).sum() > 10
    assert_matches_loop(index, queries)


def test_nearest_nodes_squares_that_underflow():
    # the float32 squares underflow to 0, the float64 ones do not: the
    # exactly nearer row wins, and its float32 distance reads 0
    lats = np.array([[0.0], [3e-25]], np.float32)
    index = EmbeddingIndex(lats, np.array([5, 2]))
    queries = np.array([[1e-25], [1e-25]], np.float32)
    ids, dists = nearest_nodes(index, queries)
    assert ids.tolist() == [5, 5] and dists.tolist() == [0.0, 0.0]
    assert_matches_loop(index, queries)


@pytest.mark.parametrize("dim", [128, 1601, 1936, 4096])
def test_nearest_nodes_latents_of_any_width(dim):
    # near-duplicates; copies 1 ulp apart in a few coordinates, which fall
    # within the bound at the larger widths; pooled-grid-like rows; and one
    # d2 that float32 rounds far down
    rng = np.random.default_rng(12)
    lats = near_duplicates(rng, 30, dim, 1.0, 1e-7)
    assert_within_bound(EmbeddingIndex(lats, rng.integers(0, 4, 30)),
                        lats[[3, 1, 4, 1]] + np.float32(1e-6))
    lats = np.repeat(rng.normal(size=(2, dim)).astype(np.float32), 20, axis=0)
    for row in lats:
        j = rng.integers(0, dim, 3)
        row[j] = np.nextafter(row[j], (np.inf * rng.choice([-1, 1], 3)).astype(np.float32))
    queries = (lats[rng.integers(0, 40, 12)]
               + rng.normal(size=(12, dim)) * 0.3).astype(np.float32)
    assert_within_bound(EmbeddingIndex(lats, np.arange(40)), queries)
    lats = rng.random((300, dim), dtype=np.float32) * (rng.random((300, dim)) < 0.35)
    queries = lats[:20] + rng.normal(size=(20, dim)).astype(np.float32) * 0.02
    assert_matches_loop(EmbeddingIndex(lats, np.arange(300) % 59), queries)
    # float32 drops squares added to a large one, 6.0e-5 of this d2 at 4096
    # dims; float64 ranks the exactly nearer `single` first
    lossy = np.full(dim, 0.99, np.float32)
    lossy[0] = 2.0 ** 12
    single = np.zeros(dim, np.float32)
    single[0] = np.nextafter(np.sqrt(np.einsum("i,i->", lossy, lossy)), np.float32(np.inf))
    index = EmbeddingIndex(np.stack([lossy, single]), np.array([1, 0]))
    assert nearest_nodes(index, np.zeros((2, dim), np.float32))[0].tolist() == [0, 0]
    assert_matches_loop(index, np.zeros((2, dim), np.float32))


def test_index_caches_float64_rows_apart_from_the_callers():
    rng = np.random.default_rng(19)
    lats = rng.normal(size=(50, 6)).astype(np.float32)
    ids = rng.integers(0, 7, 50)
    kept = lats.copy(), ids.copy()
    index = EmbeddingIndex(lats, ids)
    order, rows, sq_norms = index._sorted
    assert order.tolist() == np.argsort(ids, kind="stable").tolist()
    assert rows.dtype == np.float64 and np.array_equal(rows, lats[order])
    assert sq_norms.tobytes() == np.einsum("ij,ij->i", rows, rows).tobytes()
    for cached in index._sorted:
        assert not cached.flags.writeable
        assert not any(np.shares_memory(cached, a) for a in (lats, ids, index.latents))
    before = [a.tobytes() for a in index._sorted]
    nearest_nodes(index, rng.normal(size=(9, 6)))
    coarse_localize(index, lats[3])
    assert [a.tobytes() for a in index._sorted] == before
    assert lats.tobytes() == kept[0].tobytes() and ids.tobytes() == kept[1].tobytes()
    # the cache takes no part in equality or repr
    assert "_sorted" not in repr(index)


def test_nearest_nodes_equals_coarse_localize_per_row():
    rng = np.random.default_rng(14)
    lats = near_duplicates(rng, 300, 16, 1.0, 1e-6)
    index = EmbeddingIndex(lats, rng.integers(0, 30, 300))
    queries = lats[:40] + rng.normal(size=(40, 16)).astype(np.float32) * 1e-3
    ids, dists = nearest_nodes(index, queries)
    assert [coarse_localize(index, q) for q in queries] == list(zip(ids.tolist(),
                                                                    dists.tolist()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 3e30])
@pytest.mark.parametrize("n", [1, 3])
def test_nearest_nodes_rejects_rows_with_no_finite_distance(bad, n):
    index = EmbeddingIndex(np.array([[0.0, 0.0], [3.0, 4.0]], np.float32), np.array([0, 1]))
    queries = np.zeros((n, 2), np.float32)
    queries[n - 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"no finite distance .* latent row {n - 1} "):
            nearest_nodes(index, queries)


def test_nearest_nodes_rejects_empty_index_and_wrong_dim():
    index = EmbeddingIndex(np.zeros((3, 4), np.float32), np.arange(3))
    with pytest.raises(InputError, match="empty embedding index"):
        nearest_nodes(EmbeddingIndex(np.zeros((0, 4), np.float32), []), np.zeros((2, 4)))
    for shape in ((2, 5), (2, 3), (4,), (1, 2, 4)):
        with pytest.raises(InputError, match="latent dim 4"):
            nearest_nodes(index, np.zeros(shape))
    ids, dists = nearest_nodes(index, np.zeros((0, 4)))
    assert ids.shape == dists.shape == (0,)


# --- fine_localize ---------------------------------------------------------------

def zero_reg(n_nodes=4, latent_dim=8):
    dims = [n_nodes + latent_dim, 6, 3]
    net = nnet.init_net(dims, ["relu", "linear"], seed=0, dtype=np.float32)
    for l in net.layers:
        l.weights[:] = 0
        l.bias[:] = 0
    return RegModel(net, n_nodes=n_nodes)


def test_fine_zero_net_outputs_origin():
    model = zero_reg()
    out = fine_localize(model, 2, np.ones(8, dtype=np.float32))
    assert (out.x, out.y, out.theta) == (0, 0, 0)


def test_regressor_input_one_hot():
    x = regressor_inputs([2, 0], 5, np.array([[9.0, 8.0], [7.0, 6.0]]))
    assert x.dtype == np.float32
    assert x.tolist() == [[0, 0, 1, 0, 0, 9.0, 8.0], [1, 0, 0, 0, 0, 7.0, 6.0]]
    assert regressor_inputs([], 5, np.zeros((0, 2))).shape == (0, 7)
    # a negative id must not wrap onto the last node
    for bad in ([5], [-1], [0, 5]):
        with pytest.raises(InputError):
            regressor_inputs(bad, 5, np.zeros((len(bad), 2)))


def test_train_regressor_linear_task():
    rng = np.random.default_rng(10)
    lats = rng.normal(size=(64, 8)).astype(np.float32) * 0.5
    a = rng.normal(size=(3, 8)) * 0.3
    targets = lats @ a.T
    ids = np.tile([0, 1], 32)
    cfg = RegConfig(hidden=(32,), dropout=0.0, train=nnet.TrainConfig(
        epochs=500, learning_rate=0.005, batch_size=16))
    model, losses = train_regressor(lats, ids, targets, 2, cfg, 11)
    assert losses[-1] < 1e-4


def one_epoch_reg() -> RegConfig:
    return RegConfig(train=nnet.TrainConfig(epochs=1))


def test_train_regressor_zero_epochs_returns_init():
    # zero epochs, which trained nothing and returned the initial weights,
    # are now rejected with the section, before any data is touched
    with pytest.raises(InputError, match="epochs"):
        RegConfig(train=nnet.TrainConfig(epochs=0))
    lats = np.zeros((4, 8), dtype=np.float32)
    poses = np.zeros((4, 3))
    model, losses = train_regressor(lats, [0, 0, 1, 1], poses, 2,
                                    one_epoch_reg(), 0)
    assert len(losses) == 1
    assert model.n_nodes == 2


def test_train_regressor_balance_guard():
    lats = np.zeros((3, 8), dtype=np.float32)
    poses = np.zeros((3, 3))
    with pytest.raises(InputError, match="unbalanced"):
        train_regressor(lats, [0, 0, 1], poses, 2, one_epoch_reg(), 0)


def test_train_regressor_is_plain_full_width_training():
    # latent column 1 is constant, so after standardizing it is 0 in every
    # training row: the regressor still trains every input column, and that
    # column's layer-0 weights keep their init, as plain `nnet.train` leaves them
    lats = np.array([[0.5, 3.0, -1.0], [0.75, 3.0, -0.5], [-0.25, 3.0, 0.25],
                     [1.5, 3.0, 0.5], [0.0, 3.0, -2.0], [-1.0, 3.0, 1.0]], np.float32)
    ids = np.array([0, 1, 2, 0, 1, 2])
    poses = np.array([[0.5, 0.1, 0.02], [1.0, -0.2, 0.0], [-0.5, 0.3, -0.01],
                      [2.0, 0.0, 0.03], [0.0, -0.4, 0.01], [-1.5, 0.2, 0.0]])
    cfg = RegConfig(hidden=(5, 4), dropout=0.25, train=nnet.TrainConfig(
        epochs=4, batch_size=4, learning_rate=0.01))
    model, losses = train_regressor(lats, ids, poses, 3, cfg, 17)
    # by hand: standardize, train the same init, fold the scaling back
    mu = lats.mean(axis=0, dtype=np.float64)
    sd = lats.std(axis=0, dtype=np.float64)
    sd = np.maximum(sd, 1e-12 + 1e-3 * sd.max())
    xs = regressor_inputs(ids, 3, ((lats - mu) / sd).astype(np.float32))
    assert not xs[:, 4].any()
    init = nnet.init_net([6, 5, 4, 3], ["relu", "relu", "linear"],
                         dropout=[0.25, 0.25, 0.0], seed=17, dtype=np.float32)
    net, want_losses = nnet.train(copy.deepcopy(init), xs,
                                  poses.astype(np.float32), cfg.train, 17)
    w_lat = net.layers[0].weights[:, 3:]
    net.layers[0].bias[:] -= (w_lat @ (mu / sd)).astype(np.float32)
    net.layers[0].weights[:, 3:] = (w_lat / sd).astype(np.float32)
    assert losses == want_losses
    for got, want in zip(model.net.layers, net.layers, strict=True):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
    assert (model.net.layers[0].weights[:, 4].tobytes()
            == (init.layers[0].weights[:, 4] / sd[1]).astype(np.float32).tobytes())


def test_regressor_training_freezes_encoder():
    model = tiny_ae(seed=12)
    before = [l.weights.tobytes() + l.bias.tobytes() for l in model.net.layers]
    lats = np.random.default_rng(13).normal(size=(8, 4)).astype(np.float32)
    poses = np.tile([0.1, 0.2, 0.05], (8, 1))
    train_regressor(lats, np.tile([0, 1], 4), poses, 2,
                    RegConfig(train=nnet.TrainConfig(epochs=3)), 14)
    after = [l.weights.tobytes() + l.bias.tobytes() for l in model.net.layers]
    assert before == after


# --- full chain / bundle ----------------------------------------------------------

def make_bundle(seed=15):
    rng = np.random.default_rng(seed)
    nodes = tuple(NodePose(Pose2(20.0 * i, 0.5 * i, 0.05 * i)) for i in range(3))
    topo = TopoMap(nodes, 20.0, math.radians(30))
    ae = tiny_ae(seed=seed, in_dim=16, latent=4)
    reg_net = nnet.init_net([3 + 4, 8, 3], ["relu", "linear"], seed=seed + 1,
                            dtype=np.float32)
    reg = RegModel(reg_net, n_nodes=3)
    lats = rng.normal(size=(9, 4)).astype(np.float32)
    index = EmbeddingIndex(lats, np.repeat(np.arange(3), 3))
    return LocalizerBundle(topo, ae, reg, index)


@pytest.mark.parametrize("bias", [10.0, -10.0, 1e4])
def test_batch_and_single_row_fine_wrap_theta_alike(bias):
    # both paths leave the one wrap to Pose2. Weights and latents are
    # multiples of 1/8 and 1/4, so every float32 sum is exact and a GEMM
    # row equals the one-row forward; output 2's bias puts raw theta
    # outside (-pi, pi]
    bundle = make_bundle()
    rng = np.random.default_rng(23)
    for layer in bundle.reg.net.layers:
        layer.weights[:] = rng.integers(-8, 9, layer.weights.shape) / 8
        layer.bias[:] = rng.integers(-8, 9, layer.bias.shape) / 8
    bundle.reg.net.layers[-1].bias[2] = bias
    ids = rng.integers(0, 3, 12)
    latents = (rng.integers(-8, 9, (12, 4)) / 4).astype(np.float32)
    raw, _ = nnet.forward(bundle.reg.net, regressor_inputs(ids, 3, latents), mode="eval")
    assert (np.abs(raw[:, 2]) > math.pi).all()
    batch = evaluate._batch_fine(bundle, ids, latents)
    assert isinstance(batch, list) and len(batch) == len(ids)
    for i, got in enumerate(batch):
        want = fine_localize(bundle.reg, ids[i], latents[i])
        assert (np.array([got.x, got.y, got.theta]).tobytes()
                == np.array([want.x, want.y, want.theta]).tobytes())
        assert got.theta == wrap_angle(float(raw[i, 2]))


def test_localize_consistency():
    bundle = make_bundle()
    grid = np.random.default_rng(16).integers(0, 200, (32, 32)).astype(np.uint8)
    res = localize(bundle, SBev(grid, 0.25))
    want = pose2_compose(bundle.topo.nodes[res.node_id].pose, res.rel_pose)
    assert res.global_pose == want
    assert 0 <= res.node_id < 3
    assert res.nn_distance >= 0


def _stored_members(path) -> dict:
    """bundle.npz's members as stored: planar ones as byte planes."""
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def _npz_members(path) -> dict:
    """bundle.npz's members, planar ones decoded."""
    with np.load(path, allow_pickle=False) as z:
        return {k: localizer._from_planes(k, z[k]) for k in z.files}


def _write_members(path, members) -> None:
    """Write decoded members back as save_bundle stores them."""
    np.savez_compressed(path, **{k: localizer._to_planes(k, v) for k, v in members.items()})


def test_bundle_round_trip(tmp_path):
    bundle = make_bundle()
    save_bundle(tmp_path / "bundle", bundle)
    assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == ["bundle.npz"]
    stored = _npz_members(tmp_path / "bundle" / "bundle.npz")
    assert stored["format_version"] == 4
    assert stored["index_node_ids"].dtype == np.dtype("<u4")
    # only the encoder half of the autoencoder is stored
    assert stored["ae.activation"].tolist() == ["relu", "relu"]
    back = load_bundle(tmp_path / "bundle")
    assert back.topo == bundle.topo
    assert (back.ae.encoder_layers, back.ae.pool, back.ae.mode) == (2, 8, "BASE")
    assert back.reg.n_nodes == bundle.reg.n_nodes
    for got, want in ((back.ae.net, bundle.ae.net), (back.reg.net, bundle.reg.net)):
        assert len(got.layers) == len(want.layers)
        for g, w in zip(got.layers, want.layers):
            assert g.weights.dtype == g.bias.dtype == np.float32
            assert np.array_equal(g.weights, w.weights)
            assert np.array_equal(g.bias, w.bias)
            assert (g.activation, g.dropout) == (w.activation, w.dropout)
    assert back.index.latents.dtype == np.float32
    assert np.array_equal(back.index.latents, bundle.index.latents)
    assert np.array_equal(back.index.node_ids, bundle.index.node_ids)
    grid = np.random.default_rng(18).integers(0, 200, (32, 32)).astype(np.uint8)
    assert localize(back, SBev(grid, 0.25)) == localize(bundle, SBev(grid, 0.25))


def test_bundle_validation_catches_mismatch(tmp_path):
    bundle = make_bundle()
    bad = LocalizerBundle(bundle.topo, bundle.ae,
                          RegModel(bundle.reg.net, n_nodes=5), bundle.index)
    with pytest.raises(FormatError):
        bad.validate()
    # bundle.npz stores ids as u32; an id past the map would wrap or misroute
    for wrong in (-1, 3):
        index = EmbeddingIndex(bundle.index.latents,
                               np.where(bundle.index.node_ids == 2, wrong, 0))
        with pytest.raises(FormatError, match="index node ids"):
            LocalizerBundle(bundle.topo, bundle.ae, bundle.reg, index).validate()


def test_absent_bundle_file_raises_format_error(tmp_path):
    save_bundle(tmp_path, make_bundle())
    (tmp_path / "bundle.npz").unlink()
    with pytest.raises(FormatError, match=r"bundle\.npz: .*No such file"):
        load_bundle(tmp_path)


# the map's parts, each by the file that held it before bundle.npz held them all
BUNDLE_PARTS = {
    "bundle.json": ("format_version", "pool", "ae_mode"),
    "topomap.json": ("nodes", "thresholds"),
    "index.bin": ("index_latents", "index_node_ids"),
    "ae.sbnn": ("ae.",),
    "reg.sbnn": ("reg.",),
}


@pytest.mark.parametrize("name", list(BUNDLE_PARTS))
def test_missing_bundle_file_raises_format_error(tmp_path, name):
    save_bundle(tmp_path, make_bundle())
    path = tmp_path / "bundle.npz"
    gone = [k for k in _npz_members(path) if k.startswith(BUNDLE_PARTS[name])]
    _edit_members(lambda m: [m.pop(k) for k in gone])(path)
    with pytest.raises(FormatError, match=r"bundle\.npz: .*KeyError") as e:
        load_bundle(tmp_path)
    assert any(f"'{k} is not a file in the archive'" in str(e.value) for k in gone)


def _deflated(raw: bytes, member: str) -> range:
    """The byte offsets of `member`'s deflated data in the archive `raw`."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        info = archive.getinfo(member)
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    return range(start, start + info.compress_size)


def _flip(raw: bytes, at: int) -> bytes:
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]


def _flip_weight_byte(raw: bytes) -> bytes:
    data = _deflated(raw, "reg.1.weights.npy")
    return _flip(raw, data[len(data) // 2])


def _edit_members(edit):
    def apply(path):
        members = _npz_members(path)
        edit(members)
        _write_members(path, members)
    return apply


def _edit_stored(edit):
    def apply(path):
        members = _stored_members(path)
        edit(members)
        np.savez_compressed(path, **members)
    return apply


def _raw(edit):
    def apply(path):
        path.write_bytes(edit(path.read_bytes()))
    return apply


@pytest.mark.parametrize("corrupt, reason", [
    (_raw(lambda raw: raw[:len(raw) // 2]), "not a zip file"),
    (_raw(_flip_weight_byte), "Bad CRC-32"),
    (_edit_members(lambda m: m.pop("reg.0.bias")), "reg.0.bias"),
    (_edit_members(lambda m: m.update(pool=np.array([8, "x"], dtype=object))),
     "allow_pickle=False"),
    (_edit_members(lambda m: m.update(format_version=1)), "format_version 1"),
    (_edit_members(lambda m: m["nodes"].__setitem__((1, 0), math.nan)), "non-finite pose"),
    (_edit_members(lambda m: m.update(format_version=np.array([], np.int64))),
     "size 1"),
    (_edit_members(lambda m: m.update(ae_mode=np.array(["BASE", "AVG"]))), "size 1"),
    (_edit_members(lambda m: m.update(thresholds=m["thresholds"][:1])),
     "not enough values to unpack"),
    (_edit_members(lambda m: m.update(nodes=m["nodes"].ravel())),
     "nodes planes are uint8 of shape (8, 9), not uint8 (8, ...) with 3 axes"),
    (_edit_members(lambda m: m.update(nodes=m["nodes"][:, 1:])),
     "node poses must be (n, 3), got shape (3, 2)"),
    (_edit_members(lambda m: m["index_node_ids"].__setitem__(0, 3)), "index node ids"),
    (_edit_members(lambda m: m.update({"reg.1.weights": np.zeros((3, 7), np.float32)})),
     "do not chain"),
    (_edit_members(lambda m: m.update({"ae.activation": np.array(["relu", "tanh"])})),
     "'tanh'"),
    (_edit_members(lambda m: m.update(pool=0)), "pool factor must be >= 1, got 0"),
    (_edit_members(lambda m: m["index_latents"].__setitem__((4, 1), math.nan)),
     "non-finite index latents"),
    (_edit_members(lambda m: m["ae.0.weights"].__setitem__((0, 0), math.inf)),
     "ae.0 parameters are not all finite"),
    (_edit_members(lambda m: m["reg.1.bias"].__setitem__(2, -math.inf)),
     "reg.1 parameters are not all finite"),
    (_edit_members(lambda m: m.update(ae_mode="FOO")), "AE mode 'FOO' not one of"),
    (_edit_stored(lambda m: m.update(index_latents=m["index_latents"].astype(np.uint16))),
     "index_latents planes are uint16 of shape (4, 4, 9)"),
    (_edit_stored(lambda m: m.update({"ae.0.weights": m["ae.0.weights"][:3]})),
     "ae.0.weights planes are uint8 of shape (3, 16, 8), not uint8 (4, ...) with 3 axes"),
    (_edit_stored(lambda m: m.update({"reg.0.bias": m["reg.0.bias"].ravel()})),
     "reg.0.bias planes are uint8 of shape (32,), not uint8 (4, ...) with 2 axes"),
], ids=["truncated", "flipped-weight-byte", "no-reg.0.bias", "object-member",
        "format-version-1", "topomap-nan-pose", "manifest-truncated",
        "manifest-array-root", "topomap-truncated", "topomap-array-root",
        "topomap-node-without-x", "index-id-past-map", "weights-do-not-chain",
        "activation-tanh", "pool-zero", "index-nan-latent", "ae-inf-weight",
        "reg-inf-bias", "ae-mode-unknown", "planes-not-uint8", "planes-of-3-bytes",
        "planes-an-axis-short"])
def test_malformed_bundle_file_raises_format_error(tmp_path, corrupt, reason):
    save_bundle(tmp_path, make_bundle())
    corrupt(tmp_path / "bundle.npz")
    with pytest.raises(FormatError, match=r"bundle\.npz: .*" + re.escape(reason)):
        load_bundle(tmp_path)


def test_version_3_bundle_file_is_rejected(tmp_path):
    # format 3 stored raw members, each layer's weights without the input
    # columns that held +0.0 only, and a bool mask over them
    bundle = make_bundle()
    bundle.ae.net.layers[0].weights[:, 3] = 0.0
    save_bundle(tmp_path, bundle)
    members = _npz_members(tmp_path / "bundle.npz")
    for name, net in (("ae", bundle.ae.net), ("reg", bundle.reg.net)):
        for i, layer in enumerate(net.layers):
            columns = layer.weights.view(np.uint32).any(axis=0)
            members[f"{name}.{i}.columns"] = columns
            members[f"{name}.{i}.weights"] = layer.weights.compress(columns, axis=1)
    np.savez(tmp_path / "bundle.npz", **{**members, "format_version": 3})
    with pytest.raises(FormatError, match=r"bundle\.npz: .*format_version 3, expected 4"):
        load_bundle(tmp_path)


def _bundle_arrays(bundle) -> list:
    return [*(a for net in (bundle.ae.net, bundle.reg.net) for layer in net.layers
              for a in (layer.weights, layer.bias)),
            bundle.index.latents, bundle.index.node_ids, bundle.topo.poses()]


def test_bundle_file_keeps_every_bit(tmp_path):
    # np.array_equal cannot tell -0.0 from +0.0, so arrays compare by bytes
    bundle = make_bundle()
    w = bundle.ae.net.layers[0].weights
    w[:, 2], w[:, 5] = 0.0, -0.0
    w[0, 7] = w[1, 9] = np.finfo(np.float32).smallest_subnormal
    w[2, 7] = -np.finfo(np.float32).smallest_normal / 3
    w[3, 7], w[4, 7] = np.finfo(np.float32).max, -np.finfo(np.float32).max
    bundle.reg.net.layers[1].bias[:] = [-0.0, np.finfo(np.float32).max, 1e-45]
    bundle.index.latents[0] = [-0.0, 0.0, 1e-40, -3e38]
    save_bundle(tmp_path, bundle)
    back = load_bundle(tmp_path)
    for got, want in zip(_bundle_arrays(back), _bundle_arrays(bundle), strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_flipped_deflated_byte_raises_or_changes_nothing(tmp_path):
    # a flip in a deflated member either fails the load, or lands in bits the
    # stream does not read and leaves every array as it was
    bundle = make_bundle()
    save_bundle(tmp_path, bundle)
    raw = (tmp_path / "bundle.npz").read_bytes()
    failed = 0
    for at in (*_deflated(raw, "index_latents.npy"), *_deflated(raw, "reg.1.weights.npy")):
        (tmp_path / "bundle.npz").write_bytes(_flip(raw, at))
        try:
            back = load_bundle(tmp_path)
        except FormatError as e:
            assert "bundle.npz: unreadable bundle" in str(e)
            failed += 1
        else:
            assert all(a.tobytes() == b.tobytes() for a, b in
                       zip(_bundle_arrays(back), _bundle_arrays(bundle), strict=True))
    assert failed > 0.9 * (len(_deflated(raw, "index_latents.npy"))
                           + len(_deflated(raw, "reg.1.weights.npy")))


def _with_index(latents, node_ids) -> LocalizerBundle:
    bundle = make_bundle()
    return LocalizerBundle(bundle.topo, bundle.ae, bundle.reg,
                           EmbeddingIndex(latents, node_ids))


def test_index_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    lats = rng.normal(size=(7, 4)).astype(np.float32)
    ids = rng.integers(0, 3, 7)
    save_bundle(tmp_path, _with_index(lats, ids))
    back = load_bundle(tmp_path).index
    assert back.latents.dtype == np.float32
    assert np.array_equal(back.latents, lats)
    assert np.array_equal(back.node_ids, ids)


def test_index_file_bytes(tmp_path):
    # each index member is stored as its byte planes: plane k holds byte k of
    # every little-endian element, the elements in column-major order
    lats = np.array([[0.5, -1.0, 2.0, 3.25], [-0.0, 1e-3, 0.0, 7.0]], dtype=np.float32)
    ids = [2, 0]
    save_bundle(tmp_path, _with_index(lats, ids))
    stored = _stored_members(tmp_path / "bundle.npz")
    ids_le = np.frombuffer(struct.pack("<2I", *ids), np.uint8).reshape(2, 4)
    assert stored["index_node_ids"].dtype == np.uint8
    assert stored["index_node_ids"].tobytes() == ids_le.T.tobytes()
    lats_le = np.frombuffer(struct.pack("<8f", *lats.ravel()), np.uint8).reshape(2, 4, 4)
    assert stored["index_latents"].shape == (4, 4, 2)
    assert stored["index_latents"].tobytes() == lats_le.transpose(2, 1, 0).tobytes()
    decoded = _npz_members(tmp_path / "bundle.npz")
    assert decoded["index_node_ids"].dtype == np.dtype("<u4")
    assert decoded["index_node_ids"].tolist() == ids


def test_index_file_truncation(tmp_path):
    save_bundle(tmp_path, make_bundle())
    _edit_members(lambda m: m.update(index_node_ids=m["index_node_ids"][:-1]))(
        tmp_path / "bundle.npz")
    with pytest.raises(FormatError, match=r"bundle\.npz: .*latents/node_ids mismatch"):
        load_bundle(tmp_path)
