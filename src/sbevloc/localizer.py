"""Coarse-to-fine localization on S-BEV grids.

A dense autoencoder is trained on reduced S-BEVs (8x average pooled, scaled
to [0, 1]) to reconstruct, as its mode picks, each input (AVG) or its
node's mean (BASE, AUG); its bottleneck embeds each grid. Coarse
localization is 1-NN over stored embeddings, a batch at a time
(`nearest_nodes`): one float64 GEMM per block of queries ranks every index
row, and the picked row's float32 distance is reported. Fine localization
feeds [one_hot(node) ++ latent] to a small regressor producing the pose
relative to the node, composed with the node pose for the global estimate.
Each trainer takes its run-config section (`AeConfig`, `RegConfig`) and a seed.

A trained bundle has in memory the form of its file, DIR/bundle.npz: a
numpy archive of deflated members, as `np.savez_compressed` writes one,
format version 4, that `load_bundle` reads without unpickling:

- `format_version` int64 (4), `pool` int64, `ae_mode` str, one of `AE_MODES`;
- `nodes` (n_nodes, 3) float64: x, y, theta of node i in row i;
- `thresholds` (2,) float64: the map's metres and radians;
- `index_latents` (rows, latent_dim) float32, `index_node_ids` (rows,) <u4;
- per net, `ae` (the encoder only) and `reg`, for layer i:
  `{net}.{i}.weights` (out, in) float32 and `{net}.{i}.bias` (out,)
  float32. Then `{net}.activation` (layers,) str and `{net}.dropout`
  (layers,) float64.

Each float and <u4 member is stored as its byte planes, uint8 (itemsize,
*reversed shape): plane k holds byte k of every little-endian element, the
elements in column-major order. Deflate then finds the like high bytes of
neighbouring values side by side, and each dead input column of layer 0 as
one zero run. `load_bundle` rebuilds the exact bits as C-contiguous arrays.

`n_nodes` and `latent_dim` follow from these arrays.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import nnet
from .errors import FormatError, InputError, SbevError
from .geometry import Pose2, pose2_compose
from .sbev import SBev
from .topomap import TopoMap

DEFAULT_POOL = 8
INPUT_SCALE = 255.0

AE_MODES = ("BASE", "AVG", "AUG")

BUNDLE_FILE = "bundle.npz"
BUNDLE_VERSION = 4


def pool_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool a 2-D grid by an integer factor, as float64.

    Block sums are taken in two passes, rows then columns: a uint8 grid's in
    the least unsigned type that holds factor**2 * 255 (uint16 up to factor
    16), any other's in float64. For an integer grid every partial sum is an
    exact integer, so the result equals a float64 block mean bit for bit.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise InputError(f"pooled grid must be 2-D, got shape {grid.shape}")
    if isinstance(factor, bool) or not isinstance(factor, (int, np.integer)):
        raise InputError(f"pool factor must be an integer, got {factor!r}")
    h, w = grid.shape
    if factor < 1 or h % factor or w % factor:
        raise InputError(f"pool factor {factor} does not divide grid {grid.shape}")
    acc = np.min_scalar_type(factor**2 * 255) if grid.dtype == np.uint8 else np.float64
    sums = (grid.reshape(h // factor, factor, w).sum(axis=1, dtype=acc)
            .reshape(h // factor, w // factor, factor).sum(axis=2, dtype=acc))
    return sums / (factor * factor)


def grid_to_input(grid: np.ndarray, pool: int = DEFAULT_POOL) -> np.ndarray:
    """Pooled, [0,1]-scaled, flattened float32 network input for one grid."""
    return (pool_grid(grid, pool) / INPUT_SCALE).ravel().astype(np.float32)


def _check_widths(what: str, widths) -> None:
    if any(not 1 <= width <= np.iinfo(np.intp).max for width in widths):
        raise InputError(f"{what} {list(widths)} must be >= 1 and at most numpy's "
                         f"largest dimension, {np.iinfo(np.intp).max}")


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
        _check_widths("latent_dim", [self.latent_dim])
        if self.pool < 1:
            raise InputError(f"pool must be >= 1, got {self.pool}")
        _check_widths("hidden layer widths", self.hidden)


@dataclass(frozen=True)
class RegConfig:
    hidden: tuple[int, ...] = (256, 128)
    dropout: float = 0.2
    train: nnet.TrainConfig = field(default_factory=lambda: nnet.TrainConfig(epochs=60))

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout {self.dropout} outside [0, 1)")
        _check_widths("hidden layer widths", self.hidden)


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


def _node_ids(node_ids) -> np.ndarray:
    """1-D integer (or empty) `node_ids` as int64; others raise InputError."""
    ids = np.asarray(node_ids)
    if ids.ndim != 1 or len(ids) and (ids.dtype.kind not in "iu" or ids.max() > 2**63 - 1):
        raise InputError(f"node ids must be 1-D integers, got {ids.dtype} {ids.shape}")
    return ids.astype(np.int64)


@dataclass(frozen=True)
class EmbeddingIndex:
    latents: np.ndarray    # (n, latent_dim) float32
    node_ids: np.ndarray   # (n,) int64
    # read-only, for `nearest_nodes`: the stable node id order, the rows in
    # it as float64, and their squared norms
    _sorted: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lat = np.ascontiguousarray(self.latents, dtype=np.float32)
        ids = _node_ids(self.node_ids)
        if lat.ndim != 2 or len(lat) != len(ids) or lat.shape[1] < 1:
            raise InputError(f"index latents/node_ids mismatch: latents {lat.shape}, "
                             f"{len(ids)} node ids; need (n, latent_dim >= 1)")
        if not np.isfinite(lat).all():
            raise InputError("non-finite index latents")
        order = np.argsort(ids, kind="stable")
        rows = lat[order].astype(np.float64)
        sq_norms = np.einsum("ij,ij->i", rows, rows)
        for a in (order, rows, sq_norms):
            a.flags.writeable = False
        object.__setattr__(self, "latents", lat)
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "_sorted", (order, rows, sq_norms))

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


def _node_means(inputs: np.ndarray, node_ids, is_original):
    """(table, index): one row per node, in ascending node id order, equal to
    the mean of the node's original (un-augmented) rows as float64 cast to
    the inputs' dtype, and each row's index into that table."""
    nodes, index = np.unique(np.asarray(node_ids), return_inverse=True)
    is_original = np.asarray(is_original, dtype=bool)
    table = np.empty((len(nodes), *inputs.shape[1:]), dtype=inputs.dtype)
    for k, nid in enumerate(nodes):
        originals = inputs[(index == k) & is_original]
        if not len(originals):
            raise InputError(f"no original rows for node {nid}")
        table[k] = originals.mean(axis=0, dtype=np.float64)
    return table, index


def train_autoencoder(inputs, node_ids, is_original, config: AeConfig,
                      seed: int, mode: str = "BASE", *, columns=None, in_dim=None):
    """Train the symmetric float32 dense AE on the targets `mode` picks;
    returns (AEModel of its trained encoder, per-epoch losses). AVG
    reconstructs each row's own input, BASE and AUG the mean of its node's
    original rows (`_node_means`); AUG's caller passes only those rows.

    `inputs` are full-width rows, or with `columns` (ascending ids in
    0..in_dim - 1) rows that hold only those columns of an `in_dim`-wide
    input, the others taken as 0. The AE sees only the live cells, the
    inputs nonzero in some row: from the full-width init, layer 0 keeps
    their columns and the decoder's last layer their outputs. Batches
    gather rows, and the live columns only when some given column is dead
    (full-width rows, AUG's original rows); under AVG the target batch is
    the input batch. So the loss drops only terms that are 0 in every row,
    and averages over the live outputs. The encoder returned is full width,
    its dead columns +0.0; an input nonzero there gets the latent it has at
    0. Inputs with no live cell raise InputError.
    """
    if mode not in AE_MODES:
        raise InputError(f"unknown AE mode {mode!r}")
    inputs = np.asarray(inputs, dtype=np.float32)
    if inputs.ndim != 2:
        raise InputError(f"inputs must be 2-D, one row per example, got shape "
                         f"{inputs.shape}")
    for name, column in (("node_ids", node_ids), ("is_original", is_original)):
        if len(column) != len(inputs):
            raise InputError(f"{name} has {len(column)} rows, inputs {len(inputs)}")
    if columns is None:
        columns, in_dim = np.arange(inputs.shape[1]), inputs.shape[1]
    columns = np.asarray(columns, dtype=np.intp)
    if (columns.shape != inputs.shape[1:] or np.any(np.diff(columns) <= 0)
            or len(columns) and not 0 <= columns[0] <= columns[-1] < in_dim):
        raise InputError(f"columns must be {inputs.shape[1]} ascending ids "
                         f"in 0..{in_dim - 1}")
    local = np.flatnonzero(np.any(inputs, axis=0))   # NaN counts as live
    if not len(local):
        raise InputError(f"the live set is empty: no input column is nonzero "
                         f"in any of the {len(inputs)} training rows")
    live = columns[local]
    rows = nnet.IndexedRows(inputs, columns=local if len(local) < len(columns) else None)
    if mode == "AVG":
        targets = rows
    else:
        table, index = _node_means(inputs, node_ids, is_original)
        targets = nnet.IndexedRows(table.take(local, axis=1), index)
    hidden = config.hidden
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


# float64 values of one block of (query row, index row) distances
NN_BLOCK = 1 << 18


def nearest_nodes(index: EmbeddingIndex, latents: np.ndarray):
    """1-NN by Euclidean distance: (node_ids (n,) int64, distances (n,)
    float32) for the n rows of `latents`.

    A query picks the index row of least float64 |m|^2 - 2<q, m>, a GEMM per
    block of queries (Johnson, Douze & Jegou, "Billion-scale similarity
    search with GPUs", 2019); ties go to the smallest node id, then insertion
    order. Rounding ranks rows whose d2 are within ~4 (dim + 2) 2^-53
    (|q|^2 + |m|^2), copies too, so either may win. The distance is the
    picked row's float32 subtract-first one; a non-finite one (a NaN or
    infinite latent) raises InputError.
    """
    if len(index) == 0:
        raise InputError("empty embedding index")
    latents = np.asarray(latents, dtype=np.float32)
    if latents.ndim != 2 or latents.shape[1] != index.latent_dim:
        raise InputError(f"latents of shape {latents.shape} do not match the "
                         f"index's latent dim {index.latent_dim}")
    order, rows, sq_norms = index._sorted
    queries = -2.0 * latents.astype(np.float64)    # exact, so the GEMM is -2<q, m>
    winners = np.empty(len(latents), np.intp)
    step = max(1, NN_BLOCK // len(index))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(latents), step):
            d2 = queries[i:i + step] @ rows.T
            d2 += sq_norms
            winners[i:i + step] = order[d2.argmin(axis=1)]
        diff = index.latents[winners] - latents
        distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if not np.isfinite(distances).all():
        bad = np.flatnonzero(~np.isfinite(distances))[0]
        raise InputError(f"no finite distance to the index from latent row "
                         f"{bad} (best {distances[bad]})")
    return index.node_ids[winners], distances


def coarse_localize(index: EmbeddingIndex, latent: np.ndarray):
    """1-NN of one 1-D latent, the one-row call of `nearest_nodes`:
    (node_id, distance)."""
    if np.shape(latent) != (index.latent_dim,):
        raise InputError(f"latent of shape {np.shape(latent)} is not one row of the "
                         f"index's latent dim {index.latent_dim}")
    node_ids, distances = nearest_nodes(index, [latent])
    return int(node_ids[0]), float(distances[0])


def build_index(latents, node_ids) -> EmbeddingIndex:
    """Flat (exhaustive) 1-NN index over every training row."""
    return EmbeddingIndex(latents, node_ids)


def regressor_inputs(node_ids, n_nodes: int, latents) -> np.ndarray:
    """float32 regressor rows [one_hot(node) ++ latent], one per node id."""
    ids = _node_ids(node_ids)
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
    return Pose2(float(out[0]), float(out[1]), float(out[2]))


def train_regressor(latents, node_ids, rel_poses, n_nodes: int,
                    config: RegConfig, seed: int):
    """Train the float32 3-DoF regressor from latents to (n, 3) `rel_poses`.

    Latents are standardized per dimension for training (their useful
    variation is orders of magnitude below the one-hot entries) and the
    standardization is folded back into the first layer afterwards, so the
    returned model consumes raw latents.
    """
    latents = np.asarray(latents, dtype=np.float32)
    node_ids = _node_ids(node_ids)
    counts = np.bincount(node_ids, minlength=n_nodes)
    if counts.max() != counts.min():
        raise InputError(f"unbalanced node counts (min {counts.min()}, "
                         f"max {counts.max()}); balance the dataset")
    mu = latents.mean(axis=0, dtype=np.float64)
    sd = latents.std(axis=0, dtype=np.float64)
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
    glob = pose2_compose(bundle.topo.nodes[node_id].pose, rel)
    return LocalizationResult(node_id, rel, glob, dist)


# ---------------------------------------------------------------------------
# bundle file

# members stored as byte planes, by name or by the last part of a net
# member's name: the element dtype and the number of axes
_PLANAR = {"nodes": ("<f8", 2), "thresholds": ("<f8", 1),
           "index_latents": ("<f4", 2), "index_node_ids": ("<u4", 1),
           "weights": ("<f4", 2), "bias": ("<f4", 1), "dropout": ("<f8", 1)}


def _to_planes(name: str, value) -> np.ndarray:
    """A planar member as its byte planes (above), any other as it is."""
    if (spec := _PLANAR.get(name.rsplit(".", 1)[-1])) is None:
        return np.asarray(value)
    a = np.ascontiguousarray(value, spec[0])
    return np.ascontiguousarray(a.view(np.uint8).reshape(*a.shape, a.itemsize).T)


def _from_planes(name: str, value: np.ndarray) -> np.ndarray:
    """Inverse of `_to_planes`: a planar member as a C-contiguous array."""
    if (spec := _PLANAR.get(name.rsplit(".", 1)[-1])) is None:
        return value
    dtype, ndim = np.dtype(spec[0]), spec[1]
    if value.dtype != np.uint8 or value.ndim != ndim + 1 or len(value) != dtype.itemsize:
        raise ValueError(f"{name} planes are {value.dtype} of shape {value.shape}, "
                         f"not uint8 ({dtype.itemsize}, ...) with {ndim + 1} axes")
    shape = value.shape[:0:-1]
    out = np.empty(shape, dtype)
    # plane by plane: 4x faster than one copy of the transposed planes
    elements = out.view(np.uint8).reshape(*shape, dtype.itemsize)
    for k, plane in enumerate(value):
        elements[..., k] = plane.T
    return out


class _Decoded:
    """The members of an open bundle archive by name, planar ones decoded."""

    def __init__(self, archive):
        self.archive = archive

    def __getitem__(self, name):
        return _from_planes(name, self.archive[name])


def save_bundle(dirpath, bundle: LocalizerBundle) -> None:
    """Write `bundle` as the one file DIR/bundle.npz (members above)."""
    bundle.validate()
    os.makedirs(dirpath, exist_ok=True)
    topo = bundle.topo
    members = dict(format_version=BUNDLE_VERSION, pool=bundle.ae.pool,
                   ae_mode=bundle.ae.mode, nodes=topo.poses(),
                   thresholds=[topo.trans_threshold, topo.ang_threshold],
                   index_latents=bundle.index.latents,
                   index_node_ids=bundle.index.node_ids,
                   **nnet.net_arrays(bundle.ae.net, "ae"),
                   **nnet.net_arrays(bundle.reg.net, "reg"))
    # the archive np.savez_compressed writes, one member at a time
    with zipfile.ZipFile(os.path.join(dirpath, BUNDLE_FILE), "w",
                         zipfile.ZIP_DEFLATED) as archive:
        for name, value in members.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(f, _to_planes(name, value), allow_pickle=False)


def load_bundle(dirpath) -> LocalizerBundle:
    """Read DIR/bundle.npz; any fault in it raises FormatError naming the file."""
    path = os.path.join(dirpath, BUNDLE_FILE)
    try:
        with np.load(path, allow_pickle=False) as z:
            version = z["format_version"].item()
            if version != BUNDLE_VERSION:
                raise ValueError(f"format_version {version}, expected {BUNDLE_VERSION}")
            m = _Decoded(z)
            trans, ang = m["thresholds"].tolist()
            topo = TopoMap.from_poses(m["nodes"], trans, ang)
            ae = AEModel(nnet.net_from_arrays(m, "ae"), int(z["pool"].item()),
                         str(z["ae_mode"].item()))
            reg = RegModel(nnet.net_from_arrays(m, "reg"), n_nodes=len(topo))
            index = EmbeddingIndex(m["index_latents"], m["index_node_ids"])
        bundle = LocalizerBundle(topo, ae, reg, index)
        bundle.validate()
    except (OSError, EOFError, LookupError, ValueError, TypeError,
            zipfile.BadZipFile, zlib.error, SbevError) as e:
        raise FormatError(f"{path}: unreadable bundle ({type(e).__name__}: {e})") from None
    return bundle
