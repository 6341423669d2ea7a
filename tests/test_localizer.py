import json
import math

import numpy as np
import pytest

from sbevloc import nnet
from sbevloc.errors import FormatError, InputError
from sbevloc.geometry import Pose2, global_from_relative
from sbevloc.localizer import (
    AEModel,
    EmbeddingIndex,
    LocalizerBundle,
    RegModel,
    ae_targets,
    build_index,
    coarse_localize,
    embed,
    embed_vec,
    fine_localize,
    grid_to_input,
    load_bundle,
    localize,
    pool_grid,
    read_index,
    regressor_input,
    save_bundle,
    train_autoencoder,
    train_regressor,
    write_index,
)
from sbevloc.sbev import SBev
from sbevloc.topomap import NodePose, TopoMap


def tiny_ae(seed=0, in_dim=16, latent=4):
    net = nnet.init_net([in_dim, 8, latent, 8, in_dim],
                        ["relu", "relu", "relu", "linear"], seed=seed,
                        dtype=np.float32)
    return AEModel(net, encoder_layers=2, pool=8, mode="BASE")


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


# --- AE targets ------------------------------------------------------------

def test_ae_targets_base_is_node_mean():
    inputs = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]])
    ids = [0, 0, 1]
    t = ae_targets(inputs, ids, "BASE")
    assert np.allclose(t[0], [0.5, 0.5])
    assert np.allclose(t[1], [0.5, 0.5])
    assert np.allclose(t[2], [4.0, 2.0])


def test_ae_targets_avg_is_identity():
    inputs = np.random.default_rng(0).normal(size=(5, 3))
    t = ae_targets(inputs, [0, 0, 1, 1, 1], "AVG")
    assert np.array_equal(t, inputs)


def test_ae_targets_separate_source_set():
    # augmented inputs reconstruct the mean of the ORIGINAL samples
    originals = np.array([[2.0], [4.0]])
    aug_inputs = np.array([[2.1], [1.9], [4.2]])
    t = ae_targets(aug_inputs, [0, 0, 0], "BASE",
                   node_inputs=originals, node_input_ids=[0, 0])
    assert np.allclose(t, 3.0)


# --- autoencoder -------------------------------------------------------------

def test_train_autoencoder_overfits_one_sample():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (1, 16)).astype(np.float32)
    cfg = nnet.TrainConfig(epochs=300, learning_rate=0.01, batch_size=1, seed=2)
    model, losses = train_autoencoder(x, x, cfg, hidden=(8,), latent_dim=4)
    assert losses[-1] < 1e-3 * max(losses[0], 1e-12)
    assert model.latent_dim == 4


def test_train_autoencoder_deterministic():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (10, 16)).astype(np.float32)
    cfg = nnet.TrainConfig(epochs=10, seed=4)
    _, l1 = train_autoencoder(x, x, cfg, hidden=(8,), latent_dim=4)
    _, l2 = train_autoencoder(x, x, cfg, hidden=(8,), latent_dim=4)
    assert l1 == l2


def test_train_autoencoder_rejects_bad_mode():
    with pytest.raises(InputError):
        train_autoencoder(np.zeros((1, 4)), np.zeros((1, 4)),
                          nnet.TrainConfig(epochs=0), mode="FOO")


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


def test_embed_is_prefix_of_full_forward():
    model = tiny_ae(seed=6)
    x = np.random.default_rng(7).uniform(0, 1, 16).astype(np.float32)
    latent = embed_vec(model, x)
    _, rec = nnet.forward(model.net, x, mode="eval")
    assert np.allclose(latent, rec.post[model.encoder_layers - 1][0], atol=1e-7)


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


def test_build_index_subsample():
    rng = np.random.default_rng(9)
    lats = rng.normal(size=(100, 4)).astype(np.float32)
    ids = np.repeat(np.arange(10), 10)
    idx = build_index(lats, ids, max_per_node=3, seed=1)
    assert len(idx) == 30
    assert np.bincount(idx.node_ids).max() == 3
    again = build_index(lats, ids, max_per_node=3, seed=1)
    assert np.array_equal(idx.latents, again.latents)


# --- fine_localize ---------------------------------------------------------------

def zero_reg(n_nodes=4, latent_dim=8):
    dims = [n_nodes + latent_dim, 6, 3]
    net = nnet.init_net(dims, ["relu", "linear"], seed=0, dtype=np.float32)
    for l in net.layers:
        l.weights[:] = 0
        l.bias[:] = 0
    return RegModel(net, n_nodes=n_nodes, latent_dim=latent_dim)


def test_fine_zero_net_outputs_origin():
    model = zero_reg()
    out = fine_localize(model, 2, np.ones(8, dtype=np.float32))
    assert (out.x, out.y, out.theta) == (0, 0, 0)


def test_regressor_input_one_hot():
    x = regressor_input(2, 5, np.array([9.0, 9.0], dtype=np.float32))
    assert x[:5].tolist() == [0, 0, 1, 0, 0]
    assert x[5:].tolist() == [9.0, 9.0]
    with pytest.raises(InputError):
        regressor_input(5, 5, np.zeros(2))


def test_train_regressor_linear_task():
    rng = np.random.default_rng(10)
    lats = rng.normal(size=(64, 8)).astype(np.float32) * 0.5
    a = rng.normal(size=(3, 8)) * 0.3
    targets = lats @ a.T
    poses = [Pose2(*t) for t in targets]
    ids = np.tile([0, 1], 32)
    cfg = nnet.TrainConfig(epochs=500, learning_rate=0.005, batch_size=16, seed=11)
    model, losses = train_regressor(lats, ids, poses, 2, cfg, hidden=(32,),
                                    dropout=0.0)
    assert losses[-1] < 1e-4


def test_train_regressor_zero_epochs_returns_init():
    lats = np.zeros((4, 8), dtype=np.float32)
    poses = [Pose2(0, 0, 0)] * 4
    model, losses = train_regressor(lats, [0, 0, 1, 1], poses, 2,
                                    nnet.TrainConfig(epochs=0))
    assert losses == []
    assert model.n_nodes == 2


def test_train_regressor_balance_guard():
    lats = np.zeros((3, 8), dtype=np.float32)
    poses = [Pose2(0, 0, 0)] * 3
    with pytest.raises(InputError, match="unbalanced"):
        train_regressor(lats, [0, 0, 1], poses, 2, nnet.TrainConfig(epochs=0))
    model, _ = train_regressor(lats, [0, 0, 1], poses, 2,
                               nnet.TrainConfig(epochs=0), allow_unbalanced=True)
    assert model.n_nodes == 2


def test_regressor_training_freezes_encoder():
    model = tiny_ae(seed=12)
    before = [l.weights.tobytes() + l.bias.tobytes() for l in model.net.layers]
    lats = np.random.default_rng(13).normal(size=(8, 4)).astype(np.float32)
    poses = [Pose2(0.1, 0.2, 0.05)] * 8
    train_regressor(lats, np.tile([0, 1], 4), poses, 2,
                    nnet.TrainConfig(epochs=3, seed=14))
    after = [l.weights.tobytes() + l.bias.tobytes() for l in model.net.layers]
    assert before == after


# --- full chain / bundle ----------------------------------------------------------

def make_bundle(seed=15):
    rng = np.random.default_rng(seed)
    nodes = tuple(NodePose(i, Pose2(20.0 * i, 0.5 * i, 0.05 * i)) for i in range(3))
    topo = TopoMap(nodes, 20.0, math.radians(30))
    ae = tiny_ae(seed=seed, in_dim=16, latent=4)
    reg_net = nnet.init_net([3 + 4, 8, 3], ["relu", "linear"], seed=seed + 1,
                            dtype=np.float32)
    reg = RegModel(reg_net, n_nodes=3, latent_dim=4)
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


def test_index_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    index = EmbeddingIndex(rng.normal(size=(7, 5)).astype(np.float32),
                           rng.integers(0, 9, 7))
    p = tmp_path / "index.bin"
    write_index(p, index)
    back = read_index(p)
    assert np.array_equal(back.latents, index.latents)
    assert np.array_equal(back.node_ids, index.node_ids)


def test_index_file_truncation(tmp_path):
    p = tmp_path / "index.bin"
    index = EmbeddingIndex(np.zeros((2, 3), dtype=np.float32), np.array([0, 1]))
    write_index(p, index)
    (tmp_path / "bad.bin").write_bytes(p.read_bytes()[:-2])
    with pytest.raises(FormatError):
        read_index(tmp_path / "bad.bin")


def test_bundle_round_trip(tmp_path):
    bundle = make_bundle()
    save_bundle(tmp_path / "bundle", bundle)
    saved = nnet.load_weights(tmp_path / "bundle" / "ae.sbnn")
    assert len(saved.layers) == bundle.ae.encoder_layers
    back = load_bundle(tmp_path / "bundle")
    grid = np.random.default_rng(18).integers(0, 200, (32, 32)).astype(np.uint8)
    a = localize(bundle, SBev(grid, 0.25))
    b = localize(back, SBev(grid, 0.25))
    assert a.node_id == b.node_id
    assert a.rel_pose.x == pytest.approx(b.rel_pose.x, abs=1e-6)
    assert a.nn_distance == pytest.approx(b.nn_distance, abs=1e-6)


def test_bundle_with_whole_autoencoder_loads(tmp_path):
    # bundles written before the encoder-only format hold the decoder too
    bundle = make_bundle()
    save_bundle(tmp_path / "bundle", bundle)
    nnet.save_weights(tmp_path / "bundle" / "ae.sbnn", bundle.ae.net)
    back = load_bundle(tmp_path / "bundle")
    assert len(back.ae.net.layers) == len(bundle.ae.net.layers)
    grid = np.random.default_rng(19).integers(0, 200, (32, 32)).astype(np.uint8)
    assert localize(back, SBev(grid, 0.25)) == localize(bundle, SBev(grid, 0.25))


def test_bundle_validation_catches_mismatch(tmp_path):
    bundle = make_bundle()
    bad = LocalizerBundle(bundle.topo, bundle.ae,
                          RegModel(bundle.reg.net, n_nodes=5, latent_dim=4),
                          bundle.index)
    with pytest.raises(FormatError):
        bad.validate()


def _edit_doc(edit):
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


@pytest.mark.parametrize("name, corrupt", [
    ("bundle.json", lambda t: t[:len(t) // 2]),
    ("bundle.json", _edit_doc(lambda d: d.pop("encoder_layers"))),
    ("bundle.json", lambda t: f"[{t}]"),
    ("topomap.json", lambda t: t[:len(t) // 2]),
    ("topomap.json", _edit_doc(lambda d: d["nodes"][1].pop("x"))),
    ("topomap.json", lambda t: f"[{t}]"),
], ids=["manifest-truncated", "manifest-no-encoder_layers", "manifest-array-root",
        "topomap-truncated", "topomap-node-without-x", "topomap-array-root"])
def test_malformed_bundle_file_raises_format_error(tmp_path, name, corrupt):
    save_bundle(tmp_path, make_bundle())
    path = tmp_path / name
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(FormatError, match=name):
        load_bundle(tmp_path)
