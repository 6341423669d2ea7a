"""Minimal dense neural-network engine (numpy only).

Supports exactly what the localization models need: affine layers with
relu/linear/sigmoid activations, inverted dropout, MSE loss, Adam, and
fully seeded (hence bit-reproducible) mini-batch training. Gradients
are hand-derived reverse mode and are validated against central differences
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

ACTIVATIONS = ("linear", "relu", "sigmoid")


@dataclass
class Layer:
    weights: np.ndarray      # (out, in)
    bias: np.ndarray         # (out,)
    activation: str
    dropout: float = 0.0     # rate applied to this layer's output in training

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout rate {self.dropout} outside [0, 1)")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise InputError("weight/bias shape mismatch")


@dataclass
class DenseNet:
    layers: list

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if b.weights.shape[1] != a.weights.shape[0]:
                raise InputError(
                    f"layer dims do not chain: {a.weights.shape} -> {b.weights.shape}")

    @property
    def in_dim(self):
        return self.layers[0].weights.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Adam mini-batch training (config `ae.train`, `reg.train`); no seed."""

    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 30

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InputError(f"learning rate must be finite and positive, got "
                             f"{self.learning_rate}")
        if self.batch_size < 1:
            raise InputError("batch size must be >= 1")
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")


def init_net(dims, activations, dropout=None, seed=0, dtype=np.float64) -> DenseNet:
    """Fan-in scaled uniform init: W ~ U(-sqrt(6/n_in), sqrt(6/n_in)).

    The sqrt(6) gain keeps activation variance roughly constant through
    relu stacks, so deep nets neither vanish nor blow up at init. Drawn in
    row blocks: one (out, in) draw's values, without its float64 copy.
    """
    if len(activations) != len(dims) - 1:
        raise InputError("need one activation per layer")
    dropout = dropout or [0.0] * (len(dims) - 1)
    rng = np.random.default_rng([seed, 0x11])
    layers = []
    for i, act in enumerate(activations):
        n_in, n_out = dims[i], dims[i + 1]
        bound = np.sqrt(6.0 / n_in)
        w = np.empty((n_out, n_in), dtype=dtype)
        step = max(1, (1 << 16) // n_in)
        for lo in range(0, n_out, step):
            w[lo:lo + step] = rng.uniform(-bound, bound, (min(step, n_out - lo), n_in))
        layers.append(Layer(w, np.zeros(n_out, dtype=dtype), act, dropout[i]))
    return DenseNet(layers)


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _activate_grad(pre, post, kind):
    """Derivative of a relu or sigmoid activation; linear needs none."""
    if kind == "relu":
        return (pre > 0).astype(pre.dtype)
    return post * (1.0 - post)


@dataclass
class ForwardRecord:
    """Activations captured for one forward pass, consumed by backward()."""

    x: np.ndarray
    pre: list = field(default_factory=list)
    post: list = field(default_factory=list)
    masks: list = field(default_factory=list)


def forward(net: DenseNet, x, mode: str = "eval", rng=None, masks=None):
    """Run the net; returns (output, ForwardRecord).

    In train mode, dropout masks are sampled from `rng` (or reused from
    `masks`, which gradient checking relies on) and recorded with inverted
    scaling so eval mode needs no rescale.
    """
    if mode not in ("train", "eval"):
        raise InputError(f"unknown mode {mode!r}")
    x = np.asarray(x)
    single = x.ndim == 1
    h = x.reshape(1, -1) if single else x
    if h.shape[1] != net.in_dim:
        raise InputError(f"input dim {h.shape[1]}, net expects {net.in_dim}")
    rec = ForwardRecord(x=h)
    for i, layer in enumerate(net.layers):
        z = h @ layer.weights.T + layer.bias
        a = _activate(z, layer.activation)
        mask = None
        if mode == "train" and layer.dropout > 0.0:
            if masks is not None:
                mask = masks[i]
            else:
                if rng is None:
                    raise InputError("train mode with dropout needs an rng")
                keep = rng.random(a.shape) >= layer.dropout
                mask = keep.astype(a.dtype) / (1.0 - layer.dropout)
            a = a * mask
        rec.pre.append(z)
        rec.post.append(a)
        rec.masks.append(mask)
        h = a
    out = rec.post[-1]
    return (out[0] if single else out), rec


def backward(net: DenseNet, rec: ForwardRecord, grad_out):
    """Exact reverse-mode gradients [(dW, db) per layer] for dL/d(output).

    A non-finite gradient at layer 0's output raises NumericalError.
    """
    if len(rec.post) != len(net.layers):
        raise InputError("stale or mismatched forward record")
    g = np.asarray(grad_out)
    if g.ndim == 1:
        g = g.reshape(1, -1)
    if g.shape != rec.post[-1].shape:
        raise InputError(f"gradient shape {g.shape} != output {rec.post[-1].shape}")
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        act_out = rec.post[i]
        if rec.masks[i] is not None:
            g = g * rec.masks[i]
            # post-dropout activation isn't the activation output; recompute it
            act_out = _activate(rec.pre[i], layer.activation)
        if layer.activation != "linear":
            g = g * _activate_grad(rec.pre[i], act_out, layer.activation)
        if i == 0 and not np.isfinite(g).all():
            raise NumericalError("non-finite gradient at layer 0")
        inp = rec.x if i == 0 else rec.post[i - 1]
        grads[i] = (g.T @ inp, g.sum(axis=0))
        if i > 0:
            g = g @ layer.weights
    return grads


def mse_loss(pred, target):
    """Mean squared error and its gradient w.r.t. pred."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise InputError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


_ADAM_BLOCK = 1 << 16   # elements per in-place Adam pass, a cache-sized block


@dataclass
class OptState:
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    scratch: dict = field(default_factory=dict)   # dtype -> (2, block) buffer


def optimizer_step(net: DenseNet, grads, config: TrainConfig,
                   state: OptState | None = None) -> OptState:
    """Apply one Adam update in place; returns the optimizer state.

    Each parameter is updated in blocks of `_ADAM_BLOCK` elements through
    two scratch blocks, with the same float operations, in the same order,
    as `m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    p -= lr (m / c1) / (sqrt(v / c2) + eps)`.
    """
    for layer, (dw, db) in zip(net.layers, grads):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise InputError("gradient shapes do not match parameters")
        if dw.dtype != layer.weights.dtype or db.dtype != layer.bias.dtype:
            raise InputError("gradient dtypes do not match parameters")
        if not (layer.weights.flags.c_contiguous and layer.bias.flags.c_contiguous):
            raise InputError("parameters must be C-contiguous to update in place")
    lr = config.learning_rate
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if state is None or not state.m:
        state = OptState(
            m=[(np.zeros(dw.shape, dw.dtype), np.zeros(db.shape, db.dtype))
               for dw, db in grads],
            v=[(np.zeros(dw.shape, dw.dtype), np.zeros(db.shape, db.dtype))
               for dw, db in grads])
        state.scratch = {p.dtype: np.empty((2, _ADAM_BLOCK), dtype=p.dtype)
                         for l in net.layers for p in (l.weights, l.bias)}
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for i, (layer, (dw, db)) in enumerate(zip(net.layers, grads)):
        for param, grad, m, v in ((layer.weights, dw, state.m[i][0], state.v[i][0]),
                                  (layer.bias, db, state.m[i][1], state.v[i][1])):
            # flat views: the moments are C-contiguous, as is each parameter
            p, g, m, v = param.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1)
            a_all, b_all = state.scratch[p.dtype]
            for lo in range(0, p.size, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, p.size)
                pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                a, b = a_all[:hi - lo], b_all[:hi - lo]
                mb *= beta1
                np.multiply(gb, 1 - beta1, out=a)
                mb += a
                vb *= beta2
                np.multiply(gb, 1 - beta2, out=a)
                a *= gb
                vb += a
                np.divide(mb, c1, out=a)
                a *= lr
                np.divide(vb, c2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                pb -= a
    return state


@dataclass(frozen=True)
class IndexedRows:
    """Row i is `table[index[i]]`: a per-row set stored once per distinct
    row. `r[idx]` gathers the rows `idx` of `r` as one C-contiguous block,
    as indexing the materialized rows would, without ever holding them all.
    """

    table: np.ndarray    # (distinct rows, dim)
    index: np.ndarray    # (rows,) int, each in 0..len(table) - 1

    def __post_init__(self):
        table = np.asarray(self.table)
        if table.ndim != 2:
            raise InputError(f"row table must be 2-D, got shape {table.shape}")
        index = np.asarray(self.index, dtype=np.intp)
        if index.ndim != 1:
            raise InputError(f"row index must be 1-D, got shape {index.shape}")
        # checked first: `take` would wrap a negative id silently
        bad = index[(index < 0) | (index >= len(table))]
        if len(bad):
            raise InputError(f"row index {bad[0]} outside 0..{len(table) - 1}")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "index", index)

    def __len__(self):
        return len(self.index)

    def __getitem__(self, idx):
        return self.table.take(self.index[idx], axis=0)


def train(net: DenseNet, inputs, targets, config: TrainConfig, seed: int):
    """Seeded mini-batch training of `net` in place; returns (net, per-epoch
    losses).

    `net` is updated step by step and is the net returned; a caller that
    needs the untrained net passes a deep copy. `inputs` is an array with
    one row per example; `targets` is one too, or an `IndexedRows`. Each
    batch gathers its rows from both; when `targets` is `inputs`, the
    target batch is the input batch. Each step's gradients are dropped
    before the next backward pass, so the parameters, one set of gradients
    and Adam's two moments are the only parameter-sized buffers held at once.
    """
    same = targets is inputs
    inputs = np.asarray(inputs)
    if inputs.ndim != 2:
        raise InputError(f"inputs must be 2-D, one row per example, got "
                         f"shape {inputs.shape}")
    if not isinstance(targets, IndexedRows):
        targets = np.asarray(targets)
    if len(inputs) == 0:
        raise InputError("empty training set")
    if len(inputs) != len(targets):
        raise InputError("inputs/targets length mismatch")
    shuffle_rng = np.random.default_rng([seed, 0x21])
    dropout_rng = np.random.default_rng([seed, 0x22])
    state = None
    losses = []
    n = len(inputs)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            x = inputs[idx]
            out, rec = forward(net, x, mode="train", rng=dropout_rng)
            loss, grad = mse_loss(out, x if same else targets[idx])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}")
            state = optimizer_step(net, backward(net, rec, grad), config, state)
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    return net, losses


def net_arrays(net: DenseNet, name: str) -> dict:
    """Named arrays of `net`: per layer i, `{name}.{i}.weights` (out, in)
    and `{name}.{i}.bias` (out,), float32; then `{name}.activation` and
    `{name}.dropout`, one entry per layer."""
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"{name}.{i}.weights"] = np.asarray(layer.weights, np.float32)
        arrays[f"{name}.{i}.bias"] = np.asarray(layer.bias, np.float32)
    arrays[f"{name}.activation"] = np.array([l.activation for l in net.layers])
    arrays[f"{name}.dropout"] = np.array([l.dropout for l in net.layers])
    return arrays


def net_from_arrays(arrays, name: str) -> DenseNet:
    """Inverse of `net_arrays` over any mapping; the net holds its arrays.
    Parameters must be finite float32."""
    layers = []
    for i, (act, dropout) in enumerate(zip(arrays[f"{name}.activation"].tolist(),
                                           arrays[f"{name}.dropout"].tolist(),
                                           strict=True)):
        key = f"{name}.{i}"
        w, b = arrays[f"{key}.weights"], arrays[f"{key}.bias"]
        if w.dtype != np.float32 or b.dtype != np.float32:
            raise ValueError(f"{key} parameters are {w.dtype}/{b.dtype}, "
                             "not float32")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{key} parameters are not all finite")
        layers.append(Layer(w, b, act, float(dropout)))
    return DenseNet(layers)
