import copy
import tracemalloc

import numpy as np
import pytest

from sbevloc.errors import InputError, NumericalError
from sbevloc import nnet
from sbevloc.localizer import AeConfig, train_autoencoder
from sbevloc.nnet import (
    DenseNet,
    Layer,
    OptState,
    TrainConfig,
    backward,
    forward,
    init_net,
    mse_loss,
    net_arrays,
    net_from_arrays,
    optimizer_step,
    train,
)

# --- gradient-check helpers ----------------------------------------------

def flat_params(net):
    return np.concatenate([p.ravel() for l in net.layers for p in (l.weights, l.bias)])


def set_params(net, theta):
    i = 0
    for l in net.layers:
        for attr in ("weights", "bias"):
            p = getattr(l, attr)
            setattr(l, attr, theta[i:i + p.size].reshape(p.shape).copy())
            i += p.size


def loss_of(net, x, y, masks=None):
    mode = "train" if masks is not None else "eval"
    out, _ = forward(net, x, mode=mode, masks=masks)
    loss, _ = mse_loss(out, y)
    return loss


def analytic_grad(net, x, y, masks=None):
    mode = "train" if masks is not None else "eval"
    out, rec = forward(net, x, mode=mode, masks=masks)
    _, g = mse_loss(out, y)
    grads = backward(net, rec, g)
    return np.concatenate([d.ravel() for gw in grads for d in gw])


def numeric_grad(net, x, y, masks=None, h=1e-5, indices=None):
    theta0 = flat_params(net)
    idx = range(len(theta0)) if indices is None else indices
    g = np.zeros(len(theta0))
    work = copy.deepcopy(net)
    for j in idx:
        tp = theta0.copy()
        tp[j] += h
        set_params(work, tp)
        lp = loss_of(work, x, y, masks)
        tp[j] -= 2 * h
        set_params(work, tp)
        lm = loss_of(work, x, y, masks)
        g[j] = (lp - lm) / (2 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)


# --- forward --------------------------------------------------------------

def test_forward_identity_layer():
    net = DenseNet([Layer(np.eye(4), np.zeros(4), "linear")])
    x = np.array([1.0, -2.0, 3.0, 0.5])
    out, _ = forward(net, x)
    assert np.array_equal(out, x)


def test_forward_relu_clips():
    net = DenseNet([Layer(np.eye(3), np.array([-10.0, -10.0, -10.0]), "relu")])
    out, _ = forward(net, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, np.zeros(3))


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(0)
    net = init_net([5, 4, 3], ["relu", "sigmoid"], seed=1)
    x = rng.normal(size=5)
    out, _ = forward(net, x)
    # scalar-loop re-implementation
    h = list(x)
    for layer in net.layers:
        z = []
        for r in range(layer.weights.shape[0]):
            acc = layer.bias[r]
            for c in range(layer.weights.shape[1]):
                acc += layer.weights[r, c] * h[c]
            z.append(acc)
        if layer.activation == "relu":
            h = [max(v, 0.0) for v in z]
        elif layer.activation == "sigmoid":
            h = [1.0 / (1.0 + np.exp(-v)) for v in z]
        else:
            h = z
    assert np.abs(out - np.array(h)).max() < 1e-12


def test_forward_dim_mismatch():
    net = init_net([5, 3], ["linear"])
    with pytest.raises(InputError):
        forward(net, np.zeros(4))


def test_dropout_eval_is_identity():
    net = init_net([6, 6], ["linear"], dropout=[0.5], seed=2)
    x = np.random.default_rng(1).normal(size=6)
    a, _ = forward(net, x, mode="eval")
    b, _ = forward(net, x, mode="eval")
    nodrop = DenseNet([Layer(net.layers[0].weights, net.layers[0].bias, "linear")])
    c, _ = forward(nodrop, x)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_dropout_train_mode_scales():
    net = init_net([50, 50], ["linear"], dropout=[0.4], seed=3)
    rng = np.random.default_rng(4)
    out, rec = forward(net, np.ones(50), mode="train", rng=rng)
    mask = rec.masks[0]
    assert set(np.unique(mask.round(6))) <= {0.0, round(1 / 0.6, 6)}


# --- backward ---------------------------------------------------------------

def test_backward_hand_case():
    # y = w*x, L = (y - t)^2 -> dL/dw = 2 (w x - t) x
    w, x, t = 3.0, 2.0, 1.0
    net = DenseNet([Layer(np.array([[w]]), np.zeros(1), "linear")])
    out, rec = forward(net, np.array([x]))
    loss, g = mse_loss(out, np.array([t]))
    (dw, db), = backward(net, rec, g)
    assert dw[0, 0] == pytest.approx(2 * (w * x - t) * x)
    assert db[0] == pytest.approx(2 * (w * x - t))


def test_backward_zero_gradient():
    net = init_net([4, 3, 2], ["relu", "linear"], seed=5)
    out, rec = forward(net, np.ones(4))
    grads = backward(net, rec, np.zeros_like(out))
    for dw, db in grads:
        assert not dw.any() and not db.any()


def test_backward_rejects_stale_record():
    net = init_net([4, 3], ["linear"], seed=6)
    other = init_net([4, 5, 3], ["relu", "linear"], seed=7)
    _, rec = forward(other, np.ones(4))
    with pytest.raises(InputError):
        backward(net, rec, np.zeros(3))


@pytest.mark.parametrize("act", ["linear", "relu", "sigmoid"])
def test_gradient_single_layer_types(act):
    rng = np.random.default_rng(hash(act) % 2**31)
    for _ in range(5):
        net = init_net([6, 4], [act], seed=int(rng.integers(1e6)))
        x = rng.normal(size=(3, 6))
        y = rng.normal(size=(3, 4))
        ga = analytic_grad(net, x, y)
        gn = numeric_grad(net, x, y)
        assert rel_err(ga, gn).max() < 1e-4


def test_gradient_deep_net_with_dropout():
    rng = np.random.default_rng(8)
    net = init_net([8, 10, 6, 3], ["relu", "relu", "linear"],
                   dropout=[0.3, 0.3, 0.0], seed=9)
    x = rng.normal(size=(4, 8))
    y = rng.normal(size=(4, 3))
    _, rec = forward(net, x, mode="train", rng=np.random.default_rng(10))
    masks = rec.masks
    ga = analytic_grad(net, x, y, masks=masks)
    gn = numeric_grad(net, x, y, masks=masks)
    assert rel_err(ga, gn).max() < 1e-4


@pytest.mark.parametrize("dropout", [None, [0.3, 0.3, 0.0]])
def test_gradient_sigmoid_net(dropout):
    # without dropout, backward reuses the recorded activations; with it,
    # it recomputes them from the pre-activations
    rng = np.random.default_rng(12)
    net = init_net([7, 9, 5, 3], ["sigmoid", "sigmoid", "linear"],
                   dropout=dropout, seed=13)
    x = rng.normal(size=(4, 7))
    y = rng.normal(size=(4, 3))
    masks = None
    if dropout:
        _, rec = forward(net, x, mode="train", rng=np.random.default_rng(14))
        masks = rec.masks
        assert masks[0] is not None and masks[-1] is None
    ga = analytic_grad(net, x, y, masks=masks)
    gn = numeric_grad(net, x, y, masks=masks)
    assert rel_err(ga, gn).max() < 1e-4


# --- mse_loss ---------------------------------------------------------------

def test_mse_trivia():
    loss, g = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert loss == 0 and not g.any()
    loss, g = mse_loss(np.array([2.0]), np.array([0.0]))
    assert loss == 4.0
    assert g[0] == 4.0


def test_mse_gradient_finite_difference():
    rng = np.random.default_rng(11)
    p = rng.normal(size=7)
    t = rng.normal(size=7)
    _, g = mse_loss(p, t)
    h = 1e-6
    for i in range(7):
        dp = p.copy()
        dp[i] += h
        lp, _ = mse_loss(dp, t)
        dp[i] -= 2 * h
        lm, _ = mse_loss(dp, t)
        assert abs((lp - lm) / (2 * h) - g[i]) < 1e-6


def test_mse_length_mismatch():
    with pytest.raises(InputError):
        mse_loss(np.zeros(3), np.zeros(4))


# --- optimizer ---------------------------------------------------------------

def one_param_net(w=1.0):
    return DenseNet([Layer(np.array([[w]]), np.zeros(1), "linear")])


def test_zero_gradient_no_change():
    net = one_param_net(1.5)
    optimizer_step(net, [(np.zeros((1, 1)), np.zeros(1))],
                   TrainConfig(learning_rate=0.1))
    assert net.layers[0].weights[0, 0] == 1.5


def test_adam_quadratic_bowl():
    # minimize (w - 3)^2 by gradient descent with Adam
    net = one_param_net(-5.0)
    cfg = TrainConfig(learning_rate=0.05)
    state = OptState()
    for _ in range(2000):
        w = net.layers[0].weights[0, 0]
        g = 2 * (w - 3.0)
        state = optimizer_step(net, [(np.array([[g]]), np.zeros(1))], cfg, state)
    assert abs(net.layers[0].weights[0, 0] - 3.0) < 1e-3


def adam_reference(params, grad_steps, lr):
    """Adam on whole arrays, one expression per moment and update."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= 0.9
            mi += (1 - 0.9) * g
            vi *= 0.999
            vi += (1 - 0.999) * g * g
            p -= lr * (mi / c1) / (np.sqrt(vi / c2) + 1e-8)
    return m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_blocks_match_whole_array_update(dtype):
    # 3 x 43693 = 2 * (1 << 16) + 7 weights: two full blocks and a short one
    rng = np.random.default_rng(15)
    net = DenseNet([Layer(rng.normal(size=(3, 43693)).astype(dtype),
                          rng.normal(size=3).astype(dtype), "relu"),
                    Layer(rng.normal(size=(2, 3)).astype(dtype),
                          np.zeros(2, dtype=dtype), "linear")])
    assert net.layers[0].weights.size == 2 * (1 << 16) + 7
    want = [p.copy() for l in net.layers for p in (l.weights, l.bias)]
    cfg = TrainConfig(learning_rate=3e-3)
    grad_steps, state = [], None
    for _ in range(5):
        grads = [(rng.normal(size=l.weights.shape).astype(dtype),
                  rng.normal(size=l.bias.shape).astype(dtype)) for l in net.layers]
        kept = [(dw.copy(), db.copy()) for dw, db in grads]
        state = optimizer_step(net, grads, cfg, state)
        for (dw, db), (kw, kb) in zip(grads, kept):
            assert dw.tobytes() == kw.tobytes() and db.tobytes() == kb.tobytes()
        grad_steps.append([g for pair in grads for g in pair])
    m, v = adam_reference(want, grad_steps, cfg.learning_rate)
    got = [p for l in net.layers for p in (l.weights, l.bias)]
    assert state.t == 5
    for g, w in zip(got, want):
        assert g.dtype == dtype and g.tobytes() == w.tobytes()
    assert [a.tobytes() for pair in state.m for a in pair] == [a.tobytes() for a in m]
    assert [a.tobytes() for pair in state.v for a in pair] == [a.tobytes() for a in v]


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
def test_train_config_rejects_non_finite_or_non_positive_rate(lr):
    # a finite rate is what keeps a dead column's Adam step +0
    with pytest.raises(InputError, match="learning rate"):
        TrainConfig(learning_rate=lr)


def test_adam_rejects_gradient_dtype_mismatch():
    net = one_param_net(1.0)
    with pytest.raises(InputError):
        optimizer_step(net, [(np.zeros((1, 1), dtype=np.float32), np.zeros(1))],
                       TrainConfig())


def test_adam_rejects_parameters_it_cannot_update_in_place():
    # a flat copy of a Fortran-ordered weight matrix would take the update
    net = DenseNet([Layer(np.asfortranarray(np.ones((2, 3))), np.zeros(2), "linear")])
    with pytest.raises(InputError):
        optimizer_step(net, [(np.ones((2, 3)), np.zeros(2))], TrainConfig())


# --- train -------------------------------------------------------------------

def test_train_linear_regression_converges():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 5))
    x = rng.normal(size=(200, 5))
    y = x @ a.T
    net = init_net([5, 3], ["linear"], seed=13)
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, epochs=200)
    trained, losses = train(net, x, y, cfg, 13)
    assert losses[-1] < 1e-6
    assert losses[0] > losses[-1]


def test_train_zero_epochs_unchanged():
    # zero epochs are rejected at config time; training updates the net it
    # is given in place, so a copy passed in leaves the caller's net unchanged
    with pytest.raises(InputError, match="epochs"):
        TrainConfig(epochs=0)
    net = init_net([4, 2], ["linear"], seed=14)
    before = flat_params(net).copy()
    given = copy.deepcopy(net)
    trained, losses = train(given, np.ones((3, 4)), np.ones((3, 2)),
                            TrainConfig(epochs=1), 0)
    assert len(losses) == 1
    assert trained is given  # trained in place
    assert not np.array_equal(flat_params(trained), before)
    assert np.array_equal(flat_params(net), before)  # the copied net unchanged


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(100, 6))
    y = rng.normal(size=(100, 2))
    net = init_net([6, 8, 2], ["relu", "linear"], dropout=[0.2, 0.0], seed=16)
    cfg = TrainConfig(epochs=5)
    a, la = train(copy.deepcopy(net), x, y, cfg, 17)
    b, lb = train(copy.deepcopy(net), x, y, cfg, 17)
    assert la == lb
    assert np.array_equal(flat_params(a), flat_params(b))
    c, lc = train(copy.deepcopy(net), x, y, cfg, 18)
    assert not np.array_equal(flat_params(a), flat_params(c))


def test_train_rejects_inputs_that_are_not_rows():
    # one example as a 1-D vector would be taken for in_dim rows
    net = init_net([2, 1], ["linear"], seed=19)
    with pytest.raises(InputError, match="2-D"):
        train(net, np.ones(2), np.ones((2, 1)), TrainConfig(epochs=1), 0)
    with pytest.raises(InputError, match="2-D"):
        train(net, np.ones((2, 1, 2)), np.ones((2, 1)), TrainConfig(epochs=1), 0)


def test_train_aborts_on_nonfinite():
    x = np.array([[1e300, 1e300]])
    y = np.array([[0.0]])
    net = init_net([2, 1], ["linear"], seed=19)
    net.layers[0].weights[:] = 1e300
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="epoch 0"):
        train(net, x, y, TrainConfig(epochs=1), 0)


# --- dead input columns --------------------------------------------------------

def full_gradient_train(net, x, y, config, seed):
    """Reference: `train`'s batches, dropout draws and Adam steps, with every
    gradient and moment over every input column."""
    shuffle_rng = np.random.default_rng([seed, 0x21])
    dropout_rng = np.random.default_rng([seed, 0x22])
    state, losses = None, []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(x))
        batch_losses = []
        for start in range(0, len(x), config.batch_size):
            idx = order[start:start + config.batch_size]
            out, rec = forward(net, x[idx], mode="train", rng=dropout_rng)
            loss, grad = mse_loss(out, y[idx])
            state = optimizer_step(net, backward(net, rec, grad), config, state)
            batch_losses.append(loss)
        losses.append(sum(batch_losses) / len(batch_losses))
    return net, losses


def dead_column_inputs(rng, rows, dim, dead_share, dtype=np.float64):
    x = rng.random((rows, dim)).astype(dtype)
    dead = rng.permutation(dim)[:int(dead_share * dim)]
    x[:, dead] = 0.0
    x[:, dead[:1]] = -0.0     # counts as 0
    x[-1, dead[-1:]] = 0.5    # 0 in every row but the last: live
    return x, np.sort(dead[:-1])


@pytest.mark.parametrize("kind", ["sigmoid-ae", "relu-dropout"])
@pytest.mark.parametrize("dead_share", [0.7, 0.0])
def test_train_on_dead_columns_equals_full_gradients(kind, dead_share):
    rng = np.random.default_rng(40)
    if kind == "sigmoid-ae":
        x, dead = dead_column_inputs(rng, 150, 48, dead_share, np.float32)
        y = x
        net = init_net([48, 16, 48], ["sigmoid", "linear"], seed=41, dtype=np.float32)
    else:
        x, dead = dead_column_inputs(rng, 150, 30, dead_share)
        y = rng.normal(size=(150, 3))
        net = init_net([30, 20, 10, 3], ["relu", "relu", "linear"],
                       dropout=[0.3, 0.2, 0.0], seed=42)
    cfg = TrainConfig(learning_rate=3e-3, batch_size=32, epochs=3)   # a short last batch
    got, got_losses = train(copy.deepcopy(net), x, y, cfg, 43)
    want, want_losses = full_gradient_train(copy.deepcopy(net), x, y, cfg, 43)
    assert got_losses == want_losses
    for g, w in zip(got.layers, want.layers):
        assert g.weights.tobytes() == w.weights.tobytes()
        assert g.bias.tobytes() == w.bias.tobytes()
    w0, before = got.layers[0].weights, net.layers[0].weights
    assert w0[:, dead].tobytes() == before[:, dead].tobytes()
    live = np.setdiff1d(np.arange(x.shape[1]), dead)
    assert (w0[:, live] != before[:, live]).any(axis=0).all()


def test_dead_column_weights_keep_their_bits():
    # -0.0 weights stay -0.0 and every other dead weight its value; a dead
    # column of NaN inputs would be live
    rng = np.random.default_rng(44)
    x, dead = dead_column_inputs(rng, 40, 12, 0.5)
    net = init_net([12, 6, 2], ["relu", "linear"], seed=45)
    net.layers[0].weights[:, dead[:2]] = -0.0
    before = net.layers[0].weights.copy()
    train(net, x, rng.normal(size=(40, 2)), TrainConfig(epochs=2, batch_size=8), 46)
    w0 = net.layers[0].weights
    assert w0[:, dead].tobytes() == before[:, dead].tobytes()
    assert np.signbit(w0[:, dead[:2]]).all()


def test_adam_moments_c_contiguous_whatever_the_gradient_order():
    rng = np.random.default_rng(47)
    net = init_net([6, 4, 2], ["relu", "linear"], seed=48)
    out, rec = forward(net, rng.random((5, 6)))
    _, g = mse_loss(out, np.zeros_like(out))
    grads = backward(net, rec, g)
    cfg = TrainConfig()
    c_net, f_net = copy.deepcopy(net), copy.deepcopy(net)
    c_state = optimizer_step(c_net, grads, cfg)
    f_state = optimizer_step(f_net, [(np.asfortranarray(w), b) for w, b in grads], cfg)
    assert all(m.flags.c_contiguous for pair in f_state.m + f_state.v for m in pair)
    for _ in range(2):
        optimizer_step(c_net, grads, cfg, c_state)
        optimizer_step(f_net, grads, cfg, f_state)
    assert flat_params(c_net).tobytes() == flat_params(f_net).tobytes()
    with pytest.raises(InputError, match="gradient shapes"):
        optimizer_step(copy.deepcopy(net), [(w[:, :-1], b) for w, b in grads], cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_layer0_gradient_raises(bad):
    net = init_net([4, 3, 2], ["linear", "linear"], seed=49)
    out, rec = forward(net, np.ones((2, 4)))
    g = np.zeros_like(out)
    g[1, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="layer 0"):
        backward(net, rec, g)


def test_train_on_dead_columns_memory_high_water():
    # the default AE on the compact rows of 1024 inputs 70% of whose columns
    # are 0 in every row, as the training store holds them: it trains on
    # those columns only, so no copy of the rows (2.4 MB) fits under the bound
    cfg = AeConfig(train=TrainConfig(epochs=1))
    rows, in_dim = 1024, 1936
    n_live = in_dim - int(0.7 * in_dim)
    x = np.random.default_rng(50).random((rows, n_live), dtype=np.float32)
    columns = np.arange(in_dim - n_live, in_dim)
    batch = cfg.train.batch_size
    dims = [n_live, *cfg.hidden, cfg.latent_dim, *reversed(cfg.hidden), n_live]
    param_bytes = 4 * sum((n_in + 1) * n_out for n_in, n_out in zip(dims, dims[1:]))
    # two forward records' worth (pre and post per layer: one record, and
    # backward's gradient arrays), and the input, target and output-gradient
    # batches
    activation_bytes = 4 * batch * (4 * sum(dims[1:]) + 3 * n_live)
    gathered_batch_bytes = 4 * batch * n_live
    adam_scratch_bytes = 4 * 2 * nnet._ADAM_BLOCK
    for mode in ("BASE", "AVG"):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train_autoencoder(x, np.arange(rows) % 8, np.ones(rows, bool), cfg, 1, mode,
                              columns=columns, in_dim=in_dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the compact net's parameters, one set of gradients and Adam's two
        # moments; its full-width init is dropped before training
        bound = (4 * param_bytes + activation_bytes + gathered_batch_bytes
                 + adam_scratch_bytes)
        assert peak < bound, f"{mode}: peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
        assert bound - peak < 4 * rows * n_live


def test_indexed_rows_gather_rows_by_index():
    x = np.arange(24.0).reshape(4, 6)
    rows = nnet.IndexedRows(x, [2, 2, 0])
    got = rows[np.array([1, 2, 1])]
    assert len(rows) == 3 and got.flags.c_contiguous
    assert got.tobytes() == x[[2, 0, 2]].tobytes()
    for index in ([4], [-1], [[0, 1]]):
        with pytest.raises(InputError, match="row index"):
            nnet.IndexedRows(x, index)
    with pytest.raises(InputError, match="2-D"):
        nnet.IndexedRows(x[0], [0])


def test_train_on_targets_that_are_the_inputs_reuses_the_input_batch(monkeypatch):
    # the loss compares each output with the very batch the forward pass
    # read, and the net trains as on a copy of the rows as targets
    rng = np.random.default_rng(52)
    x = rng.random((30, 5), dtype=np.float32)
    net = init_net([5, 3, 5], ["sigmoid", "linear"], seed=53, dtype=np.float32)
    cfg = TrainConfig(batch_size=8, epochs=2)
    want, want_losses = train(copy.deepcopy(net), x, x.copy(), cfg, 54)
    batches, reused = [], []
    plain_forward, plain_loss = nnet.forward, nnet.mse_loss

    def forward_spy(net, x, **kw):
        batches.append(x)
        return plain_forward(net, x, **kw)

    def loss_spy(pred, target):
        reused.append(target is batches[-1])
        return plain_loss(pred, target)

    monkeypatch.setattr(nnet, "forward", forward_spy)
    monkeypatch.setattr(nnet, "mse_loss", loss_spy)
    got, losses = train(copy.deepcopy(net), x, x, cfg, 54)
    assert len(reused) == 2 * 4 and all(reused)
    assert losses == want_losses
    assert flat_params(got).tobytes() == flat_params(want).tobytes()


def test_init_net_draws_each_layer_as_one_draw():
    net = init_net([1936, 40, 3], ["relu", "linear"], seed=55, dtype=np.float32)
    rng = np.random.default_rng([55, 0x11])
    for layer in net.layers:
        n_out, n_in = layer.weights.shape
        bound = np.sqrt(6.0 / n_in)
        want = rng.uniform(-bound, bound, (n_out, n_in)).astype(np.float32)
        assert layer.weights.tobytes() == want.tobytes()


# --- weights as named arrays -----------------------------------------------------

def _saved(tmp_path, arrays) -> dict:
    np.savez(tmp_path / "w.npz", **arrays)
    with np.load(tmp_path / "w.npz", allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def test_weights_round_trip(tmp_path):
    net = init_net([7, 5, 2], ["relu", "sigmoid"], dropout=[0.25, 0.0], seed=20,
                   dtype=np.float32)
    arrays = net_arrays(net, "w")
    back = net_from_arrays(_saved(tmp_path, arrays), "w")
    assert len(back.layers) == 2
    for a, b in zip(net.layers, back.layers):
        assert b.weights.dtype == b.bias.dtype == np.float32
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert (a.activation, a.dropout) == (b.activation, b.dropout)
    # float32 nets survive save/load bit-exactly
    again = net_arrays(back, "w")
    assert again.keys() == arrays.keys()
    assert all(again[k].tobytes() == arrays[k].tobytes() for k in arrays)


def test_weights_truncated(tmp_path):
    net = init_net([3, 2], ["linear"], seed=21, dtype=np.float32)
    arrays = _saved(tmp_path, net_arrays(net, "w"))
    with pytest.raises(KeyError, match="w.0.bias"):
        net_from_arrays({k: v for k, v in arrays.items() if k != "w.0.bias"}, "w")
    with pytest.raises(InputError, match="shape mismatch"):
        net_from_arrays({**arrays, "w.0.weights": arrays["w.0.weights"][:-1]}, "w")
    with pytest.raises(ValueError, match="not float32"):
        net_from_arrays({**arrays, "w.0.bias": arrays["w.0.bias"].astype(np.float64)}, "w")


@pytest.mark.parametrize("zero", [0.0, -0.0, None],
                         ids=["plus-zero-column", "minus-zero-column", "no-zero-column"])
def test_weights_round_trip_keeps_zero_columns(tmp_path, zero):
    # every column is stored, a zero one too, and comes back bit for bit
    net = init_net([6, 4, 2], ["relu", "linear"], seed=22, dtype=np.float32)
    if zero is not None:
        net.layers[0].weights[:, 2] = zero
    net.layers[0].weights[1, 4] = 0.0
    arrays = net_arrays(net, "w")
    assert arrays["w.0.weights"].shape == (4, 6)
    assert arrays["w.1.weights"].shape == (2, 4)
    back = net_from_arrays(_saved(tmp_path, arrays), "w")
    for a, b in zip(net.layers, back.layers, strict=True):
        assert b.weights.tobytes() == a.weights.tobytes()
        assert b.bias.tobytes() == a.bias.tobytes()


# --- full-size architecture spot checks ---------------------------------------

def test_gradient_full_size_autoencoder_spot_check():
    rng = np.random.default_rng(22)
    net = init_net([1936, 512, 128, 512, 1936],
                   ["relu", "relu", "relu", "linear"], seed=23)
    x = rng.normal(size=1936) * 0.1
    y = rng.normal(size=1936) * 0.1
    ga = analytic_grad(net, x, y)
    idx = rng.choice(len(ga), 120, replace=False)
    gn = numeric_grad(net, x, y, indices=idx)
    assert rel_err(ga[idx], gn[idx]).max() < 1e-4
