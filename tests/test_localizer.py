import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbevloc import localizer, nnet
from sbevloc.errors import FormatError, InputError
from sbevloc.geometry import Pose2, global_from_relative
from sbevloc.localizer import (
    AeConfig,
    AEModel,
    EmbeddingIndex,
    LocalizerBundle,
    RegConfig,
    RegModel,
    ae_targets,
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
    _column_mean_std,
    _screen,
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


def test_pool_grid_divisibility():
    with pytest.raises(InputError):
        pool_grid(np.zeros((10, 10)), 3)
    for factor in (0, -2):
        with pytest.raises(InputError, match=f"pool factor {factor} does not divide"):
            pool_grid(np.zeros((8, 8)), factor)


# --- AE targets ------------------------------------------------------------

def test_ae_targets_base_is_node_mean():
    inputs = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]])
    ids = [0, 0, 1]
    t = ae_targets(inputs, ids, [True] * 3, "BASE")
    assert np.allclose(t[0], [0.5, 0.5])
    assert np.allclose(t[1], [0.5, 0.5])
    assert np.allclose(t[2], [4.0, 2.0])


def test_ae_targets_avg_is_identity():
    inputs = np.random.default_rng(0).normal(size=(5, 3))
    t = ae_targets(inputs, [0, 0, 1, 1, 1], [True, False] * 2 + [True], "AVG")
    assert np.array_equal(t, inputs)


def test_ae_targets_separate_source_set():
    # augmented inputs reconstruct the mean of the ORIGINAL samples
    inputs = np.array([[2.0], [2.1], [1.9], [4.0], [4.2], [7.0]])
    is_original = [True, False, False, True, False, True]
    t = ae_targets(inputs, [0, 0, 0, 0, 0, 1], is_original, "BASE")
    assert np.allclose(t[:5], 3.0) and t[5] == 7.0
    with pytest.raises(InputError, match="no original rows for node 1"):
        ae_targets(inputs, [0, 0, 0, 0, 0, 1], is_original[:5] + [False], "AUG")


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
    t = ae_targets(inputs, ids, is_original, mode)
    assert isinstance(t, nnet.IndexedRows)
    assert t.table.shape == (5, 7) and t.table.dtype == np.float32
    assert len(t) == 60
    want = materialized_node_means(inputs, ids, is_original)
    assert t.table[t.index].tobytes() == want.tobytes()
    assert t[np.arange(60)].tobytes() == want.tobytes()


def test_ae_targets_avg_makes_no_copy():
    inputs = np.random.default_rng(22).random((6, 3), dtype=np.float32)
    assert ae_targets(inputs, [0, 0, 1, 1, 2, 2], [True] * 6, "AVG") is inputs


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
    model, losses = train_autoencoder(x, x, cfg, 2)
    assert losses[-1] < 1e-3 * max(losses[0], 1e-12)
    assert model.latent_dim == 4


def test_train_autoencoder_deterministic():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (10, 16)).astype(np.float32)
    cfg = small_ae(epochs=10)
    _, l1 = train_autoencoder(x, x, cfg, 4)
    _, l2 = train_autoencoder(x, x, cfg, 4)
    assert l1 == l2


def test_train_autoencoder_keeps_the_trained_encoder():
    x = np.random.default_rng(7).uniform(0, 1, (12, 16)).astype(np.float32)
    cfg = AeConfig(hidden=(8, 6), latent_dim=4, activation="relu",
                   train=nnet.TrainConfig(epochs=3, batch_size=5))
    model, losses = train_autoencoder(x, x, cfg, 9)
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
    rng = np.random.default_rng(23)
    x = rng.random((40, 16), dtype=np.float32)
    ids = np.arange(40) % 4
    is_original = np.arange(40) < 8
    cfg = small_ae(epochs=3, batch_size=7)
    compact = ae_targets(x, ids, is_original, "BASE")
    m_compact, l_compact = train_autoencoder(x, compact, cfg, 5)
    m_rows, l_rows = train_autoencoder(
        x, materialized_node_means(x, ids, is_original), cfg, 5)
    assert l_compact == l_rows
    for got, want in zip(m_compact.net.layers, m_rows.net.layers, strict=True):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


def test_train_autoencoder_memory_high_water():
    # the default 1936-512-128-512-1936 AE for two Adam steps; numpy
    # reports its buffers to tracemalloc
    cfg = AeConfig(train=nnet.TrainConfig(epochs=1))
    batch, in_dim = cfg.train.batch_size, 1936
    x = np.random.default_rng(24).random((2 * batch, in_dim), dtype=np.float32)
    targets = ae_targets(x, np.arange(2 * batch) % 8, np.ones(2 * batch, bool), "BASE")
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
        train_autoencoder(x, targets, cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # parameters, one set of gradients and Adam's two moments; no copy of
    # the net and no second set of gradients
    assert peak < 4 * param_bytes + activation_bytes + adam_scratch_bytes, (
        f"peak {peak / param_bytes:.2f}x the parameter bytes")


def test_train_autoencoder_rejects_bad_mode():
    with pytest.raises(InputError):
        train_autoencoder(np.zeros((1, 4)), np.zeros((1, 4)),
                          small_ae(epochs=1), 0, mode="FOO")


# --- embed --------------------------------------------------------------------

def test_embed_deterministic_and_finite():
    model = tiny_ae()
    grid = np.random.default_rng(5).integers(0, 255, (32, 32)).astype(np.uint8)
    sb = SBev(grid, 0.25)
    a = embed(model, sb)
    b = embed(model, sb)
    assert np.array_equal(a, b)
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


def loop_nearest(index, latents):
    """The oracle: each row against every index row, float32 subtract-first
    d2, ties toward the smallest node id, then insertion order."""
    ids, dists = [], []
    for latent in np.asarray(latents, dtype=np.float32):
        diff = index.latents - latent
        d2 = np.einsum("ij,ij->i", diff, diff)
        candidates = np.nonzero(d2 == d2.min())[0]
        winner = candidates[np.argmin(index.node_ids[candidates])]
        ids.append(int(index.node_ids[winner]))
        dists.append(float(np.sqrt(d2[winner])))
    return ids, dists


def assert_matches_loop(index, latents):
    ids, dists = nearest_nodes(index, latents)
    assert ids.dtype == np.int64 and dists.dtype == np.float32
    assert (ids.tolist(), dists.tolist()) == loop_nearest(index, latents)


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
    assert_matches_loop(index, queries)


@pytest.mark.parametrize("seed", range(4))
def test_nearest_nodes_over_index_blocks(monkeypatch, seed):
    # 64 index rows per block, so each query's bound is built over 11 blocks
    monkeypatch.setattr(localizer, "SCREEN_BLOCK", 1)
    rng = np.random.default_rng(seed)
    lats = near_duplicates(rng, 700, 8, 1.0, 1e-6)
    index = EmbeddingIndex(lats, rng.integers(0, 20, 700))
    queries = lats[rng.integers(0, 700, 30)] + rng.normal(size=(30, 8)) * 1e-6
    assert_matches_loop(index, queries)
    queries[7, 3] = math.nan
    with pytest.raises(InputError, match="latent row 7 "):
        nearest_nodes(index, queries)


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
    assert_matches_loop(index, queries)


def test_nearest_nodes_near_ties_ranked_by_float32_rounding():
    # 25 copies of each of 4 rows, each 1 ulp off in 3 coordinates: their
    # exact distances differ by less than the float32 d2's rounding, so the
    # loop's pick is often not the exact nearest, and the screen must keep it
    rng = np.random.default_rng(15)
    base = rng.normal(size=(4, 16)).astype(np.float32)
    lats = np.repeat(base, 25, axis=0)
    for row in lats:
        j = rng.integers(0, 16, 3)
        row[j] = np.nextafter(row[j], (np.inf * rng.choice([-1, 1], 3)).astype(np.float32))
    index = EmbeddingIndex(lats, np.arange(100))
    queries = (base[rng.integers(0, 4, 40)]
               + rng.normal(size=(40, 16)) * 0.3).astype(np.float32)
    exact = ((queries.astype(np.float64)[:, None] - lats) ** 2).sum(-1).argmin(axis=1)
    ids, _ = loop_nearest(index, queries)
    assert (exact != ids).sum() > 10
    assert_matches_loop(index, queries)


def test_nearest_nodes_squares_that_underflow():
    # every float32 square underflows to 0, so all rows tie at d2 = 0 and the
    # smallest node id wins, though its exact distance is the larger
    lats = np.array([[0.0], [3e-25]], np.float32)
    index = EmbeddingIndex(lats, np.array([5, 2]))
    queries = np.array([[1e-25], [1e-25]], np.float32)
    ids, dists = nearest_nodes(index, queries)
    assert ids.tolist() == [2, 2] and dists.tolist() == [0.0, 0.0]
    assert_matches_loop(index, queries)


@pytest.mark.parametrize("dim", [128, 1601, 1936, 4096])
def test_nearest_nodes_screens_latents_of_any_width(dim):
    # the margins grow with the width, so a wide batch takes the screen
    # too: near-duplicates, copies 1 ulp apart in a few coordinates, which
    # float32 rounding ranks, pooled-grid-like rows, of which the screen
    # keeps few, and one d2 that float32 rounds far down
    rng = np.random.default_rng(12)
    lats = near_duplicates(rng, 30, dim, 1.0, 1e-7)
    index = EmbeddingIndex(lats, rng.integers(0, 4, 30))
    assert_matches_loop(index, lats[[3, 1, 4, 1]] + np.float32(1e-6))
    lats = np.repeat(rng.normal(size=(2, dim)).astype(np.float32), 20, axis=0)
    for row in lats:
        j = rng.integers(0, dim, 3)
        row[j] = np.nextafter(row[j], (np.inf * rng.choice([-1, 1], 3)).astype(np.float32))
    queries = (lats[rng.integers(0, 40, 12)]
               + rng.normal(size=(12, dim)) * 0.3).astype(np.float32)
    assert_matches_loop(EmbeddingIndex(lats, np.arange(40)), queries)
    lats = rng.random((300, dim), dtype=np.float32) * (rng.random((300, dim)) < 0.35)
    queries = lats[:20] + rng.normal(size=(20, dim)).astype(np.float32) * 0.02
    rows, _ = _screen(lats, queries)
    assert len(rows) < 2 * len(queries)
    assert_matches_loop(EmbeddingIndex(lats, np.arange(300) % 59), queries)
    # float32 drops squares added to a large one, 6.0e-5 of this d2 at 4096
    # dims, so the loop ranks `lossy` before the exactly nearer `single`
    lossy = np.full(dim, 0.99, np.float32)
    lossy[0] = 2.0 ** 12
    single = np.zeros(dim, np.float32)
    single[0] = np.nextafter(np.sqrt(np.einsum("i,i->", lossy, lossy)), np.float32(np.inf))
    index = EmbeddingIndex(np.stack([lossy, single]), np.array([1, 0]))
    assert_matches_loop(index, np.zeros((2, dim), np.float32))


def test_nearest_nodes_screen_keeps_few_rows():
    rng = np.random.default_rng(13)
    lats = rng.random((2000, 128), dtype=np.float32)
    queries = lats[:50] + rng.normal(size=(50, 128)).astype(np.float32) * 0.05
    rows, cols = _screen(lats, queries)
    assert rows.tolist() == sorted(rows.tolist())
    assert len(rows) < 2 * len(queries)
    assert_matches_loop(EmbeddingIndex(lats, np.arange(2000) % 59), queries)


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
    net, want_losses = nnet.train(init.copy(), xs, poses.astype(np.float32),
                                  cfg.train, 17)
    w_lat = net.layers[0].weights[:, 3:]
    net.layers[0].bias[:] -= (w_lat @ (mu / sd)).astype(np.float32)
    net.layers[0].weights[:, 3:] = (w_lat / sd).astype(np.float32)
    assert losses == want_losses
    for got, want in zip(model.net.layers, net.layers, strict=True):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
    assert (model.net.layers[0].weights[:, 4].tobytes()
            == (init.layers[0].weights[:, 4] / sd[1]).astype(np.float32).tobytes())


@pytest.mark.parametrize("block", [1024, 7, 1])
def test_column_mean_std_equals_numpy(block):
    # offsets, spreads apart, a column of -0.0, and one whose float64 sums
    # round (magnitudes over 2^-40..2^40), so that an order change shows
    rng = np.random.default_rng(21)
    x = (rng.normal(size=(2500, 6)) * [1e-3, 1.0, 50.0, 1.0, 1.0, 1.0]
         + [0.0, 300.0, -7.0, 0.0, 0.0, 0.0]).astype(np.float32)
    x[:, 3] = -0.0
    x[:, 4] = rng.lognormal(0.0, 8.0, 2500) * rng.choice([-1.0, 1.0], 2500)
    mu, sd = _column_mean_std(x, block)
    assert mu.tobytes() == x.mean(axis=0, dtype=np.float64).tobytes()
    assert sd.tobytes() == x.std(axis=0, dtype=np.float64).tobytes()


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


def test_localize_consistency():
    bundle = make_bundle()
    grid = np.random.default_rng(16).integers(0, 200, (32, 32)).astype(np.uint8)
    res = localize(bundle, SBev(grid, 0.25))
    want = global_from_relative(bundle.topo.nodes[res.node_id].pose, res.rel_pose)
    assert res.global_pose == want
    assert 0 <= res.node_id < 3
    assert res.nn_distance >= 0


def _npz_members(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def test_bundle_round_trip(tmp_path):
    bundle = make_bundle()
    save_bundle(tmp_path / "bundle", bundle)
    assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == ["bundle.npz"]
    stored = _npz_members(tmp_path / "bundle" / "bundle.npz")
    assert stored["format_version"] == 3
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


def _flip_weight_byte(raw: bytes) -> bytes:
    weights = make_bundle().reg.net.layers[1].weights.tobytes()
    at = raw.index(weights) + len(weights) // 2
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]


def _edit_members(edit):
    def apply(path):
        members = _npz_members(path)
        edit(members)
        np.savez(path, **members)
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
     "node poses must be (n, 3), got shape (9,)"),
    (_edit_members(lambda m: m.update(nodes=m["nodes"][:, 1:])),
     "node poses must be (n, 3), got shape (3, 2)"),
    (_edit_members(lambda m: m["index_node_ids"].__setitem__(0, 3)), "index node ids"),
    (_edit_members(lambda m: m.update({"reg.1.weights": np.zeros((3, 7), np.float32),
                                       "reg.1.columns": np.ones(7, bool)})),
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
    (_edit_members(lambda m: m.pop("ae.0.columns")), "ae.0.columns"),
    (_edit_members(lambda m: m.update({"ae.0.columns": m["ae.0.columns"].astype(np.uint8)})),
     "ae.0.columns is uint8 of shape (16,), not a 1-D bool mask"),
    (_edit_members(lambda m: m.update({"ae.0.columns": m["ae.0.columns"].reshape(4, 4)})),
     "ae.0.columns is bool of shape (4, 4), not a 1-D bool mask"),
    (_edit_members(lambda m: m["ae.0.columns"].__setitem__(3, False)),
     "ae.0.weights has shape (8, 16), but ae.0.columns marks 15 columns"),
], ids=["truncated", "flipped-weight-byte", "no-reg.0.bias", "object-member",
        "format-version-1", "topomap-nan-pose", "manifest-truncated",
        "manifest-array-root", "topomap-truncated", "topomap-array-root",
        "topomap-node-without-x", "index-id-past-map", "weights-do-not-chain",
        "activation-tanh", "pool-zero", "index-nan-latent", "ae-inf-weight",
        "reg-inf-bias", "ae-mode-unknown", "no-ae.0.columns", "columns-not-bool",
        "columns-2d", "columns-count-not-width"])
def test_malformed_bundle_file_raises_format_error(tmp_path, corrupt, reason):
    save_bundle(tmp_path, make_bundle())
    corrupt(tmp_path / "bundle.npz")
    with pytest.raises(FormatError, match=r"bundle\.npz: .*" + re.escape(reason)):
        load_bundle(tmp_path)


def test_version_2_bundle_file_is_rejected(tmp_path):
    # format 2 stored every layer's full weights and no column masks
    bundle = make_bundle()
    save_bundle(tmp_path, bundle)
    members = {k: v for k, v in _npz_members(tmp_path / "bundle.npz").items()
               if not k.endswith(".columns")}
    for name, net in (("ae", bundle.ae.net), ("reg", bundle.reg.net)):
        for i, layer in enumerate(net.layers):
            members[f"{name}.{i}.weights"] = layer.weights
    np.savez(tmp_path / "bundle.npz", **{**members, "format_version": 2})
    with pytest.raises(FormatError, match=r"bundle\.npz: .*format_version 2, expected 3"):
        load_bundle(tmp_path)


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
    # the index members hold latents as little-endian f4 and node ids as u4
    lats = np.array([[0.5, -1.0, 2.0, 3.25], [-0.0, 1e-3, 0.0, 7.0]], dtype=np.float32)
    ids = [2, 0]
    save_bundle(tmp_path, _with_index(lats, ids))
    stored = _npz_members(tmp_path / "bundle.npz")
    assert stored["index_node_ids"].dtype == np.dtype("<u4")
    assert stored["index_node_ids"].tobytes() == struct.pack("<2I", *ids)
    assert stored["index_latents"].tobytes() == struct.pack("<8f", *lats.ravel())


def test_index_file_truncation(tmp_path):
    save_bundle(tmp_path, make_bundle())
    _edit_members(lambda m: m.update(index_node_ids=m["index_node_ids"][:-1]))(
        tmp_path / "bundle.npz")
    with pytest.raises(FormatError, match=r"bundle\.npz: .*latents/node_ids mismatch"):
        load_bundle(tmp_path)
