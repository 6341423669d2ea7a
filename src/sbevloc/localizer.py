"""Coarse-to-fine localization on S-BEV grids.

A dense autoencoder is trained to reconstruct a reduced S-BEV (8x average
pooled, scaled to [0, 1]); its bottleneck embeds each grid. Coarse
localization is exact 1-NN over stored embeddings, a batch at a time
(`nearest_nodes`): a float64 GEMM, with margins set by the latent width,
screens the index rows, and the float32 subtract-first distance confirms the
few that survive, so every pick equals a full scan's. Fine localization
feeds [one_hot(node) ++ latent] to a small regressor producing the pose
relative to the node, composed with the node pose for the global estimate.
Each trainer takes its run-config section (`AeConfig`, `RegConfig`) and a seed.

A trained bundle has in memory the form of its file, DIR/bundle.npz: one
uncompressed numpy archive, format version 3, that `load_bundle` reads
without unpickling:

- `format_version` int64 (3), `pool` int64, `ae_mode` str, one of `AE_MODES`;
- `nodes` (n_nodes, 3) float64: x, y, theta of node i in row i;
- `thresholds` (2,) float64: the map's metres and radians;
- `index_latents` (rows, latent_dim) float32, `index_node_ids` (rows,) <u4;
- per net, `ae` (the encoder only) and `reg`, for layer i:
  `{net}.{i}.columns` (in,) bool, marking the input columns that hold any
  weight whose bits are not +0.0; `{net}.{i}.weights` (out, marked) float32,
  those columns only, the others being +0.0; and `{net}.{i}.bias` (out,)
  float32. Then `{net}.activation` (layers,) str and `{net}.dropout`
  (layers,) float64. The encoder's layer 0 keeps only the columns of inputs
  that are nonzero in some training row (`train_autoencoder`).

`n_nodes` and `latent_dim` follow from these arrays.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import nnet
from .errors import FormatError, InputError, SbevError
from .geometry import Pose2, global_from_relative, wrap_angle
from .sbev import SBev
from .topomap import TopoMap

DEFAULT_POOL = 8
INPUT_SCALE = 255.0

AE_MODES = ("BASE", "AVG", "AUG")

BUNDLE_FILE = "bundle.npz"
BUNDLE_VERSION = 3


def pool_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool a grid by an integer factor, as float64.

    Block sums are taken in two passes, rows then columns, in float64. For
    an integer grid every partial sum is an exact integer, so the result
    equals a float64 block mean bit for bit.
    """
    grid = np.asarray(grid)
    h, w = grid.shape
    if factor < 1 or h % factor or w % factor:
        raise InputError(f"pool factor {factor} does not divide grid {grid.shape}")
    sums = (grid.reshape(h // factor, factor, w).sum(axis=1, dtype=np.float64)
            .reshape(h // factor, w // factor, factor).sum(axis=2))
    return sums / (factor * factor)


def grid_to_input(grid: np.ndarray, pool: int = DEFAULT_POOL) -> np.ndarray:
    """Pooled, [0,1]-scaled, flattened float32 network input for one grid."""
    return (pool_grid(grid, pool) / INPUT_SCALE).ravel().astype(np.float32)


def _check_hidden(hidden) -> None:
    if any(width < 1 for width in hidden):
        raise InputError(f"hidden layer widths {list(hidden)} must be >= 1")


@dataclass(frozen=True)
class AeConfig:
    hidden: tuple[int, ...] = (512,)
    latent_dim: int = 128
    pool: int = DEFAULT_POOL
    activation: str = "sigmoid"
    train: nnet.TrainConfig = field(default_factory=lambda: nnet.TrainConfig(epochs=15))

    def __post_init__(self):
        if self.activation not in nnet.ACTIVATIONS:
            raise InputError(f"activation {self.activation!r} not one of "
                             f"{nnet.ACTIVATIONS}")
        if self.latent_dim < 1:
            raise InputError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.pool < 1:
            raise InputError(f"pool must be >= 1, got {self.pool}")
        _check_hidden(self.hidden)


@dataclass(frozen=True)
class RegConfig:
    hidden: tuple[int, ...] = (256, 128)
    dropout: float = 0.2
    train: nnet.TrainConfig = field(default_factory=lambda: nnet.TrainConfig(epochs=60))

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout {self.dropout} outside [0, 1)")
        _check_hidden(self.hidden)


@dataclass
class AEModel:
    net: nnet.DenseNet    # the encoder; its last layer is the bottleneck
    pool: int
    mode: str = "BASE"

    @property
    def encoder_layers(self):
        # read by perfbench/workloads.BundleOracle
        return len(self.net.layers)

    @property
    def latent_dim(self):
        return self.net.layers[-1].weights.shape[0]


@dataclass
class RegModel:
    net: nnet.DenseNet
    n_nodes: int


@dataclass(frozen=True)
class EmbeddingIndex:
    latents: np.ndarray    # (n, latent_dim) float32
    node_ids: np.ndarray   # (n,) int64

    def __post_init__(self):
        lat = np.ascontiguousarray(self.latents, dtype=np.float32)
        ids = np.asarray(self.node_ids, dtype=np.int64)
        if lat.ndim != 2 or len(lat) != len(ids):
            raise InputError("index latents/node_ids mismatch")
        if not np.isfinite(lat).all():
            raise InputError("non-finite index latents")
        object.__setattr__(self, "latents", lat)
        object.__setattr__(self, "node_ids", ids)

    def __len__(self):
        return len(self.node_ids)

    @property
    def latent_dim(self):
        return self.latents.shape[1]


@dataclass(frozen=True)
class LocalizationResult:
    node_id: int
    rel_pose: Pose2
    global_pose: Pose2
    nn_distance: float


def ae_targets(inputs: np.ndarray, node_ids, is_original, mode: str):
    """Reconstruction targets per training mode; row i's target is `t[i]`.

    BASE/AUG reconstruct the mean of the node's original (un-augmented)
    rows. They return an `nnet.IndexedRows`: one row per node, in ascending
    node id order, equal to `originals.mean(axis=0, dtype=float64)` cast to
    the inputs' dtype, and each row's index into that table. AVG
    reconstructs each row's own input: `inputs` itself, read only.
    """
    if mode not in AE_MODES:
        raise InputError(f"unknown AE mode {mode!r}")
    inputs = np.asarray(inputs)
    if mode == "AVG":
        return inputs
    nodes, rows = np.unique(np.asarray(node_ids), return_inverse=True)
    is_original = np.asarray(is_original, dtype=bool)
    table = np.empty((len(nodes), *inputs.shape[1:]), dtype=inputs.dtype)
    for k, nid in enumerate(nodes):
        originals = inputs[(rows == k) & is_original]
        if not len(originals):
            raise InputError(f"no original rows for node {nid}")
        table[k] = originals.mean(axis=0, dtype=np.float64)
    return nnet.IndexedRows(table, rows)


def train_autoencoder(inputs, targets, config: AeConfig, seed: int,
                      mode: str = "BASE"):
    """Train the symmetric float32 dense AE on `targets` (an array with one
    row per input, or `nnet.IndexedRows` as `ae_targets` gives); returns
    (AEModel of its trained encoder, per-epoch losses).

    The AE sees only the live cells, the inputs nonzero in some training
    row: from the full-width init, layer 0 keeps their columns and the
    decoder's last layer their outputs. Batches gather live columns as they
    are drawn; when `targets` is `inputs` (AVG), the target batch is the
    input batch. So the loss drops only terms that are 0 in every row, and
    averages over the live outputs. The encoder returned is full width, its
    dead columns +0.0, which the bundle file leaves out; an input nonzero
    there gets the latent it has at 0. Inputs with no live cell raise
    InputError.
    """
    if mode not in AE_MODES:
        raise InputError(f"unknown AE mode {mode!r}")
    same = targets is inputs
    inputs = np.asarray(inputs, dtype=np.float32)
    if inputs.ndim != 2:
        raise InputError(f"inputs must be 2-D, one row per example, got shape "
                         f"{inputs.shape}")
    live = np.flatnonzero(np.any(inputs, axis=0))   # NaN counts as live
    if not len(live):
        raise InputError(f"the live set is empty: no input column is nonzero "
                         f"in any of the {len(inputs)} training rows")
    rows = nnet.IndexedRows(inputs, columns=live)
    if same:
        targets = rows
    elif isinstance(targets, nnet.IndexedRows):
        targets = nnet.IndexedRows(np.asarray(targets.table, dtype=np.float32)
                                   .take(live, axis=1), targets.index)
    else:
        targets = nnet.IndexedRows(np.asarray(targets, dtype=np.float32), columns=live)
    in_dim, hidden = inputs.shape[1], config.hidden
    dims = [in_dim, *hidden, config.latent_dim, *reversed(hidden), in_dim]
    acts = [config.activation] * (len(dims) - 2) + ["linear"]
    net = nnet.init_net(dims, acts, seed=seed, dtype=np.float32)
    first, last = net.layers[0], net.layers[-1]
    first.weights = first.weights.take(live, axis=1)
    last.weights, last.bias = last.weights.take(live, axis=0), last.bias.take(live)
    _, losses = nnet.train(net, rows, targets, config.train, seed)
    weights = np.zeros((len(first.weights), in_dim), np.float32)
    weights[:, live] = first.weights
    first.weights = weights
    encoder = nnet.DenseNet(net.layers[:len(hidden) + 1])
    return AEModel(encoder, config.pool, mode), losses


def embed_vec(model: AEModel, x: np.ndarray) -> np.ndarray:
    """Deterministic eval-mode encoder output for a prepared input vector."""
    out, _ = nnet.forward(model.net, x, mode="eval")
    return np.asarray(out, dtype=np.float32)


def embed(model: AEModel, sb: SBev) -> np.ndarray:
    return embed_vec(model, grid_to_input(sb.grid, model.pool))


SCREEN_TINY = float(np.finfo(np.float32).tiny)
SCREEN_BLOCK = 1 << 18   # (query, index row) estimates held at a time


def _screen(index_latents: np.ndarray, latents: np.ndarray):
    """(rows, cols), row-major: the (query row, index row) pairs that can
    hold a query's nearest index row.

    A float64 GEMM estimates each d2 as |q|^2 - 2<q, m> + |m|^2, as in the
    exact search of Johnson, Douze & Jegou, "Billion-scale similarity search
    with GPUs" (2019). The margins follow from the width by the bounds of
    Higham, "Accuracy and Stability of Numerical Algorithms" (2002), 3.1:
    the estimate is within ~2 dim float64 roundings of |q|^2 + |m|^2, the
    float32 d2 that confirms within ~(dim + 2) float32 roundings of the
    exact d2. The slack is 4 times the first, plus SCREEN_TINY for float32
    squares that underflow; gamma is twice the second. A pair survives when
    its estimate minus slack is within (1 + gamma) / (1 - gamma) of the
    query's smallest estimate plus slack, as every row the float32 d2 can
    rank first is. A NaN estimate keeps its pair. The index is read in
    blocks of at most 8 SCREEN_BLOCK float64 values, each pruned against
    the bound so far, which only falls.
    """
    dim = latents.shape[1]
    gamma = 2.0 * (dim + 2) * 2.0 ** -24
    ratio = (1 + gamma) / (1 - gamma)
    rel_slack = 4.0 * 2 * dim * 2.0 ** -53
    q = latents.astype(np.float64)
    q_sq = np.einsum("ij,ij->i", q, q)[:, None]
    best = np.full(len(q), np.inf)
    found = []
    step = max(64, min(SCREEN_BLOCK // max(1, len(q)), 8 * SCREEN_BLOCK // max(1, dim)))
    for j in range(0, len(index_latents), step):
        m = index_latents[j:j + step].astype(np.float64)
        # in place, as each (queries, rows) temporary costs a fresh allocation
        est = q @ m.T
        est *= -2.0
        slack = q_sq + np.einsum("ij,ij->i", m, m)
        est += slack                                # the estimate
        slack *= rel_slack
        slack += SCREEN_TINY
        est += slack                                # its upper bound
        best = np.minimum(best, est.min(axis=1))    # NaN sticks
        est -= slack
        est -= slack                                # its lower bound
        r, c = np.nonzero(~(est > ratio * np.maximum(best, 0.0)[:, None]))
        found.append((r, c + j, est[r, c]))
    rows, cols, lower = (np.concatenate(a) for a in zip(*found))
    keep = np.flatnonzero(~(lower > ratio * np.maximum(best, 0.0)[rows]))
    keep = keep[np.lexsort((cols[keep], rows[keep]))]
    return rows[keep], cols[keep]


def nearest_nodes(index: EmbeddingIndex, latents: np.ndarray):
    """Exact 1-NN by Euclidean distance: (node_ids (n,) int64, distances
    (n,) float32) for the n rows of `latents`.

    Only the pairs `_screen` keeps get the float32 subtract-first d2 (the
    float32 expansion cancels on latents of large norm and small
    differences); a batch of any width takes the screen, one row skips it.
    The smallest d2 wins, ties toward the smallest node id, then insertion
    order, so the result equals a full scan's. A row with no finite
    distance to the index, such as a NaN or infinite latent, raises
    InputError.
    """
    if len(index) == 0:
        raise InputError("empty embedding index")
    latents = np.asarray(latents, dtype=np.float32)
    if latents.ndim != 2 or latents.shape[1] != index.latent_dim:
        raise InputError(f"latents of shape {latents.shape} do not match the "
                         f"index's latent dim {index.latent_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        if len(latents) == 1:
            rows, cols = np.zeros(len(index), np.intp), np.arange(len(index))
            diff = index.latents - latents[0]
        else:
            rows, cols = _screen(index.latents, latents)
            diff = index.latents[cols] - latents[rows]
        d2 = np.einsum("ij,ij->i", diff, diff)
        best = np.minimum.reduceat(d2, np.searchsorted(rows, np.arange(len(latents))))
    # the index rows are finite: a non-finite query, or a square past
    # float32's range, gets here
    if not np.isfinite(best).all():
        bad = np.flatnonzero(~np.isfinite(best))[0]
        raise InputError(f"no finite distance to the index from latent row "
                         f"{bad} (best {best[bad]})")
    # pairs are row-major, so a stable sort keeps insertion order in a node
    winners = np.flatnonzero(d2 == best[rows])
    if len(winners) > len(latents):
        winners = winners[np.lexsort((index.node_ids[cols[winners]], rows[winners]))]
        winners = winners[np.unique(rows[winners], return_index=True)[1]]
    return index.node_ids[cols[winners]], np.sqrt(d2[winners])


def coarse_localize(index: EmbeddingIndex, latent: np.ndarray):
    """Exact 1-NN of one latent, the one-row call of `nearest_nodes`:
    (node_id, distance)."""
    node_ids, distances = nearest_nodes(index, np.reshape(latent, (1, -1)))
    return int(node_ids[0]), float(distances[0])


def build_index(latents, node_ids) -> EmbeddingIndex:
    """Flat exact-NN index over every training row."""
    return EmbeddingIndex(latents, node_ids)


def regressor_inputs(node_ids, n_nodes: int, latents) -> np.ndarray:
    """float32 regressor rows [one_hot(node) ++ latent], one per node id."""
    ids = np.asarray(node_ids, dtype=np.int64)
    # checked first: fancy indexing would wrap a negative id silently
    bad = ids[(ids < 0) | (ids >= n_nodes)]
    if len(bad):
        raise InputError(f"node id {bad[0]} outside 0..{n_nodes - 1}")
    latents = np.asarray(latents)
    xs = np.zeros((len(ids), n_nodes + latents.shape[1]), dtype=np.float32)
    xs[np.arange(len(ids)), ids] = 1.0
    xs[:, n_nodes:] = latents
    return xs


def fine_localize(model: RegModel, node_id: int, latent: np.ndarray) -> Pose2:
    """Regress the (x, y, theta) pose relative to the chosen node."""
    x = regressor_inputs([node_id], model.n_nodes, np.reshape(latent, (1, -1)))[0]
    out, _ = nnet.forward(model.net, x, mode="eval")
    return Pose2(float(out[0]), float(out[1]), wrap_angle(float(out[2])))


def _column_mean_std(x: np.ndarray, block: int = 1024):
    """`x.mean` and `x.std(axis=0, dtype=np.float64)`, bit for bit, from
    float64 copies of `block` rows at a time. numpy adds rows in order
    along axis 0, so each block after the first is reduced with the running
    sum as its first row."""
    def total(rows_of):
        acc = None
        for i in range(0, len(x), block):
            rows = rows_of(x[i:i + block])
            acc = np.add.reduce(rows if acc is None else np.vstack([acc, rows]))
        return acc

    mu = total(lambda rows: rows.astype(np.float64)) / len(x)
    return mu, np.sqrt(total(lambda rows: np.square(rows - mu)) / len(x))


def train_regressor(latents, node_ids, rel_poses, n_nodes: int,
                    config: RegConfig, seed: int):
    """Train the float32 3-DoF regressor from latents to (n, 3) `rel_poses`.

    Latents are standardized per dimension for training (their useful
    variation is orders of magnitude below the one-hot entries) and the
    standardization is folded back into the first layer afterwards, so the
    returned model consumes raw latents.
    """
    latents = np.asarray(latents, dtype=np.float32)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    counts = np.bincount(node_ids, minlength=n_nodes)
    if counts.max() != counts.min():
        raise InputError(f"unbalanced node counts (min {counts.min()}, "
                         f"max {counts.max()}); balance the dataset")
    mu, sd = _column_mean_std(latents)
    sd = np.maximum(sd, 1e-12 + 1e-3 * sd.max())
    # standardized in place by blocks: one block's float64 (z - mu) / sd is
    # the only temporary
    xs = regressor_inputs(node_ids, n_nodes, latents)
    for i in range(0, len(xs), 1024):
        block = xs[i:i + 1024, n_nodes:]
        block[...] = (block - mu) / sd
    ys = np.asarray(rel_poses, dtype=np.float32)
    dims = [n_nodes + latents.shape[1], *config.hidden, 3]
    acts = ["relu"] * len(config.hidden) + ["linear"]
    drops = [config.dropout] * len(config.hidden) + [0.0]
    net = nnet.init_net(dims, acts, dropout=drops, seed=seed, dtype=np.float32)
    _, losses = nnet.train(net, xs, ys, config.train, seed)
    # fold (z - mu)/sd into layer 0: W' = W/sd, b' = b - W @ (mu/sd)
    first = net.layers[0]
    w_lat = first.weights[:, n_nodes:]
    first.bias[:] = first.bias - (w_lat @ (mu / sd)).astype(np.float32)
    first.weights[:, n_nodes:] = (w_lat / sd).astype(np.float32)
    return RegModel(net, n_nodes=n_nodes), losses


@dataclass
class LocalizerBundle:
    topo: TopoMap
    ae: AEModel
    reg: RegModel
    index: EmbeddingIndex

    def validate(self):
        if self.ae.mode not in AE_MODES:
            raise FormatError(f"AE mode {self.ae.mode!r} not one of {AE_MODES}")
        if self.ae.pool < 1:
            raise FormatError(f"pool factor must be >= 1, got {self.ae.pool}")
        if self.reg.n_nodes != len(self.topo):
            raise FormatError(f"regressor built for {self.reg.n_nodes} nodes, "
                              f"map has {len(self.topo)}")
        if self.index.latent_dim != self.ae.latent_dim:
            raise FormatError(f"index latent dim {self.index.latent_dim} != "
                              f"encoder {self.ae.latent_dim}")
        if self.reg.net.in_dim != self.reg.n_nodes + self.ae.latent_dim:
            raise FormatError("regressor input dim inconsistent with map + encoder")
        ids = self.index.node_ids
        if len(ids) and not 0 <= ids.min() <= ids.max() < self.reg.n_nodes:
            raise FormatError(f"index node ids outside 0..{self.reg.n_nodes - 1}")


def localize(bundle: LocalizerBundle, sb: SBev) -> LocalizationResult:
    """Full chain: embed -> nearest node -> relative pose -> global pose."""
    latent = embed(bundle.ae, sb)
    node_id, dist = coarse_localize(bundle.index, latent)
    rel = fine_localize(bundle.reg, node_id, latent)
    glob = global_from_relative(bundle.topo.nodes[node_id].pose, rel)
    return LocalizationResult(node_id, rel, glob, dist)


# ---------------------------------------------------------------------------
# bundle file

def save_bundle(dirpath, bundle: LocalizerBundle) -> None:
    """Write `bundle` as the one file DIR/bundle.npz (members above)."""
    bundle.validate()
    os.makedirs(dirpath, exist_ok=True)
    topo = bundle.topo
    np.savez(os.path.join(dirpath, BUNDLE_FILE),
             format_version=BUNDLE_VERSION, pool=bundle.ae.pool,
             ae_mode=bundle.ae.mode, nodes=topo.poses(),
             thresholds=np.array([topo.trans_threshold, topo.ang_threshold]),
             index_latents=bundle.index.latents,
             index_node_ids=bundle.index.node_ids.astype("<u4"),
             **nnet.net_arrays(bundle.ae.net, "ae"),
             **nnet.net_arrays(bundle.reg.net, "reg"))


def load_bundle(dirpath) -> LocalizerBundle:
    """Read DIR/bundle.npz; any fault in it raises FormatError naming the file."""
    path = os.path.join(dirpath, BUNDLE_FILE)
    try:
        with np.load(path, allow_pickle=False) as z:
            version = z["format_version"].item()
            if version != BUNDLE_VERSION:
                raise ValueError(f"format_version {version}, expected {BUNDLE_VERSION}")
            trans, ang = z["thresholds"].tolist()
            topo = TopoMap.from_poses(z["nodes"], trans, ang)
            ae = AEModel(nnet.net_from_arrays(z, "ae"), int(z["pool"].item()),
                         str(z["ae_mode"].item()))
            reg = RegModel(nnet.net_from_arrays(z, "reg"), n_nodes=len(topo))
            index = EmbeddingIndex(z["index_latents"], z["index_node_ids"])
        bundle = LocalizerBundle(topo, ae, reg, index)
        bundle.validate()
    except (OSError, EOFError, LookupError, ValueError, TypeError,
            zipfile.BadZipFile, SbevError) as e:
        raise FormatError(f"{path}: unreadable bundle ({type(e).__name__}: {e})") from None
    return bundle
