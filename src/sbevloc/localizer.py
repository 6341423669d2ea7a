"""Coarse-to-fine localization on S-BEV grids.

A dense autoencoder is trained to reconstruct a reduced S-BEV (8x average
pooled, scaled to [0, 1]); its bottleneck embeds each grid. Coarse
localization is exact 1-NN over stored embeddings; fine localization feeds
[one_hot(node) ++ latent] to a small regressor producing the pose relative
to the node, which is composed with the node pose for the global estimate.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import nnet
from .errors import FormatError, InputError
from .geometry import Pose2, global_from_relative, wrap_angle
from .sbev import SBev
from .topomap import TopoMap, read_topomap, write_topomap

DEFAULT_POOL = 8
DEFAULT_LATENT = 128
DEFAULT_AE_HIDDEN = (512,)
DEFAULT_REG_HIDDEN = (256, 128)
DEFAULT_REG_DROPOUT = 0.2
INPUT_SCALE = 255.0

AE_MODES = ("BASE", "AVG", "AUG")

INDEX_MAGIC_LEN = 8  # count u32 + latent_dim u32


def pool_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool a grid by an integer factor, as float64.

    Block sums are taken in two passes, rows then columns, in float64. For
    an integer grid every partial sum is an exact integer, so the result
    equals a float64 block mean bit for bit.
    """
    grid = np.asarray(grid)
    h, w = grid.shape
    if h % factor or w % factor:
        raise InputError(f"grid {grid.shape} not divisible by pool factor {factor}")
    sums = (grid.reshape(h // factor, factor, w).sum(axis=1, dtype=np.float64)
            .reshape(h // factor, w // factor, factor).sum(axis=2))
    return sums / (factor * factor)


def grid_to_input(grid: np.ndarray, pool: int = DEFAULT_POOL,
                  dtype=np.float32) -> np.ndarray:
    """Pooled, [0,1]-scaled, flattened network input for one grid."""
    return (pool_grid(grid, pool) / INPUT_SCALE).ravel().astype(dtype)


@dataclass
class AEModel:
    net: nnet.DenseNet
    encoder_layers: int
    pool: int
    mode: str = "BASE"

    @property
    def latent_dim(self):
        return self.net.layers[self.encoder_layers - 1].weights.shape[0]

    @property
    def input_dim(self):
        return self.net.in_dim


@dataclass
class RegModel:
    net: nnet.DenseNet
    n_nodes: int
    latent_dim: int


@dataclass(frozen=True)
class EmbeddingIndex:
    latents: np.ndarray    # (n, latent_dim) float32
    node_ids: np.ndarray   # (n,) int64

    def __post_init__(self):
        lat = np.ascontiguousarray(self.latents, dtype=np.float32)
        ids = np.asarray(self.node_ids, dtype=np.int64)
        if lat.ndim != 2 or len(lat) != len(ids):
            raise InputError("index latents/node_ids mismatch")
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


def ae_targets(inputs: np.ndarray, node_ids, mode: str,
               node_inputs: np.ndarray | None = None,
               node_input_ids=None) -> np.ndarray:
    """Reconstruction targets per training mode.

    BASE/AUG reconstruct the node mean (computed from ``node_inputs`` when
    given, e.g. the un-augmented originals); AVG reconstructs each sample's
    own input.
    """
    if mode not in AE_MODES:
        raise InputError(f"unknown AE mode {mode!r}")
    inputs = np.asarray(inputs)
    if mode == "AVG":
        return inputs.copy()
    src = inputs if node_inputs is None else np.asarray(node_inputs)
    src_ids = np.asarray(node_ids if node_input_ids is None else node_input_ids)
    ids = np.asarray(node_ids)
    targets = np.empty_like(inputs)
    for nid in np.unique(ids):
        members = src_ids == nid
        if not members.any():
            raise InputError(f"no source samples for node {nid}")
        targets[ids == nid] = src[members].mean(axis=0, dtype=np.float64)
    return targets


def train_autoencoder(inputs, targets, config: nnet.TrainConfig,
                      mode: str = "BASE", hidden=DEFAULT_AE_HIDDEN,
                      latent_dim: int = DEFAULT_LATENT, pool: int = DEFAULT_POOL,
                      activation: str = "sigmoid", dtype=np.float32):
    """Train the symmetric dense AE; returns (AEModel, per-epoch losses)."""
    if mode not in AE_MODES:
        raise InputError(f"unknown AE mode {mode!r}")
    inputs = np.asarray(inputs, dtype=dtype)
    targets = np.asarray(targets, dtype=dtype)
    in_dim = inputs.shape[1]
    dims = [in_dim, *hidden, latent_dim, *reversed(hidden), in_dim]
    acts = [activation] * (len(dims) - 2) + ["linear"]
    net = nnet.init_net(dims, acts, seed=config.seed, dtype=dtype)
    trained, losses = nnet.train(net, inputs, targets, config)
    return AEModel(trained, encoder_layers=len(hidden) + 1, pool=pool, mode=mode), losses


def embed_vec(model: AEModel, x: np.ndarray) -> np.ndarray:
    """Deterministic eval-mode encoder output for a prepared input vector."""
    encoder = nnet.DenseNet(model.net.layers[:model.encoder_layers])
    out, _ = nnet.forward(encoder, x, mode="eval")
    return np.asarray(out, dtype=np.float32)


def embed(model: AEModel, sb: SBev) -> np.ndarray:
    return embed_vec(model, grid_to_input(sb.grid, model.pool))


def coarse_localize(index: EmbeddingIndex, latent: np.ndarray):
    """Exact 1-NN by Euclidean distance.

    Ties break toward the smallest node id, then insertion order.
    Returns (node_id, distance).
    """
    if len(index) == 0:
        raise InputError("empty embedding index")
    latent = np.asarray(latent, dtype=np.float32).reshape(-1)
    if latent.shape[0] != index.latent_dim:
        raise InputError(f"latent dim {latent.shape[0]} != index {index.latent_dim}")
    diff = index.latents - latent
    d2 = np.einsum("ij,ij->i", diff, diff)
    best = d2.min()
    candidates = np.nonzero(d2 == best)[0]
    winner = candidates[np.argmin(index.node_ids[candidates])]
    return int(index.node_ids[winner]), float(np.sqrt(d2[winner]))


def build_index(latents, node_ids, max_per_node: int | None = None,
                seed: int = 0) -> EmbeddingIndex:
    """Flat exact-NN index, optionally subsampled per node (seeded)."""
    latents = np.asarray(latents, dtype=np.float32)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if max_per_node is None:
        return EmbeddingIndex(latents, node_ids)
    rng = np.random.default_rng([seed, 0x1D])
    keep = []
    for nid in np.unique(node_ids):
        members = np.nonzero(node_ids == nid)[0]
        if len(members) > max_per_node:
            members = np.sort(rng.choice(members, max_per_node, replace=False))
        keep.extend(members.tolist())
    keep.sort()
    return EmbeddingIndex(latents[keep], node_ids[keep])


def regressor_input(node_id: int, n_nodes: int, latent: np.ndarray) -> np.ndarray:
    if not 0 <= node_id < n_nodes:
        raise InputError(f"node id {node_id} outside 0..{n_nodes - 1}")
    one_hot = np.zeros(n_nodes, dtype=np.float32)
    one_hot[node_id] = 1.0
    return np.concatenate([one_hot, np.asarray(latent, dtype=np.float32)])


def fine_localize(model: RegModel, node_id: int, latent: np.ndarray) -> Pose2:
    """Regress the (x, y, theta) pose relative to the chosen node."""
    x = regressor_input(node_id, model.n_nodes, latent)
    out, _ = nnet.forward(model.net, x, mode="eval")
    return Pose2(float(out[0]), float(out[1]), wrap_angle(float(out[2])))


def train_regressor(latents, node_ids, rel_poses, n_nodes: int,
                    config: nnet.TrainConfig, hidden=DEFAULT_REG_HIDDEN,
                    dropout: float = DEFAULT_REG_DROPOUT, dtype=np.float32,
                    allow_unbalanced: bool = False):
    """Train the 3-DoF regressor on frozen-encoder latents.

    Latents are standardized per dimension for training (their useful
    variation is orders of magnitude below the one-hot entries) and the
    standardization is folded back into the first layer afterwards, so the
    returned model consumes raw latents.
    """
    latents = np.asarray(latents, dtype=dtype)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    counts = np.bincount(node_ids, minlength=n_nodes)
    if not allow_unbalanced and counts.max() - counts.min() != 0:
        raise InputError(
            f"unbalanced node counts (min {counts.min()}, max {counts.max()}); "
            "balance the dataset or pass allow_unbalanced")
    mu = latents.mean(axis=0, dtype=np.float64)
    sd = latents.std(axis=0, dtype=np.float64)
    sd = np.maximum(sd, 1e-12 + 1e-3 * sd.max())
    std_lat = ((latents - mu) / sd).astype(dtype)
    xs = np.stack([regressor_input(int(n), n_nodes, lat)
                   for n, lat in zip(node_ids, std_lat)])
    ys = np.array([[p.x, p.y, p.theta] for p in rel_poses], dtype=dtype)
    dims = [n_nodes + latents.shape[1], *hidden, 3]
    acts = ["relu"] * len(hidden) + ["linear"]
    drops = [dropout] * len(hidden) + [0.0]
    net = nnet.init_net(dims, acts, dropout=drops, seed=config.seed, dtype=dtype)
    trained, losses = nnet.train(net, xs, ys, config)
    # fold (z - mu)/sd into layer 0: W' = W/sd, b' = b - W @ (mu/sd)
    first = trained.layers[0]
    w_lat = first.weights[:, n_nodes:]
    first.bias[:] = first.bias - (w_lat @ (mu / sd)).astype(dtype)
    first.weights[:, n_nodes:] = (w_lat / sd).astype(dtype)
    return RegModel(trained, n_nodes=n_nodes, latent_dim=latents.shape[1]), losses


@dataclass
class LocalizerBundle:
    topo: TopoMap
    ae: AEModel
    reg: RegModel
    index: EmbeddingIndex

    def validate(self):
        if self.reg.n_nodes != len(self.topo):
            raise FormatError(f"regressor built for {self.reg.n_nodes} nodes, "
                              f"map has {len(self.topo)}")
        if self.index.latent_dim != self.ae.latent_dim:
            raise FormatError(f"index latent dim {self.index.latent_dim} != "
                              f"encoder {self.ae.latent_dim}")
        if self.reg.net.in_dim != self.reg.n_nodes + self.ae.latent_dim:
            raise FormatError("regressor input dim inconsistent with map + encoder")


def localize(bundle: LocalizerBundle, sb: SBev) -> LocalizationResult:
    """Full chain: embed -> nearest node -> relative pose -> global pose."""
    latent = embed(bundle.ae, sb)
    node_id, dist = coarse_localize(bundle.index, latent)
    rel = fine_localize(bundle.reg, node_id, latent)
    glob = global_from_relative(bundle.topo.nodes[node_id].pose, rel)
    return LocalizationResult(node_id, rel, glob, dist)


# ---------------------------------------------------------------------------
# bundle files

BUNDLE_VERSION = 1


def write_index(path, index: EmbeddingIndex) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<II", len(index), index.latent_dim))
        for nid, lat in zip(index.node_ids, index.latents):
            f.write(struct.pack("<I", int(nid)))
            f.write(lat.astype("<f4").tobytes())


def read_index(path) -> EmbeddingIndex:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < INDEX_MAGIC_LEN:
        raise FormatError(f"{path}: truncated index header", offset=len(data))
    count, dim = struct.unpack_from("<II", data, 0)
    stride = 4 + 4 * dim
    if len(data) != INDEX_MAGIC_LEN + count * stride:
        raise FormatError(f"{path}: expected {count} entries of {stride} bytes",
                          offset=INDEX_MAGIC_LEN)
    ids = np.empty(count, dtype=np.int64)
    lats = np.empty((count, dim), dtype=np.float32)
    pos = INDEX_MAGIC_LEN
    for i in range(count):
        ids[i] = struct.unpack_from("<I", data, pos)[0]
        lats[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=pos + 4)
        pos += stride
    return EmbeddingIndex(lats, ids)


def save_bundle(dirpath, bundle: LocalizerBundle) -> None:
    os.makedirs(dirpath, exist_ok=True)
    bundle.validate()
    write_topomap(os.path.join(dirpath, "topomap.json"), bundle.topo)
    # localize reads only the encoder; load_bundle also takes a whole AE
    encoder = nnet.DenseNet(bundle.ae.net.layers[:bundle.ae.encoder_layers])
    nnet.save_weights(os.path.join(dirpath, "ae.sbnn"), encoder)
    nnet.save_weights(os.path.join(dirpath, "reg.sbnn"), bundle.reg.net)
    write_index(os.path.join(dirpath, "index.bin"), bundle.index)
    meta = {
        "format_version": BUNDLE_VERSION,
        "pool": bundle.ae.pool,
        "encoder_layers": bundle.ae.encoder_layers,
        "ae_mode": bundle.ae.mode,
        "latent_dim": bundle.ae.latent_dim,
        "n_nodes": bundle.reg.n_nodes,
    }
    with open(os.path.join(dirpath, "bundle.json"), "w") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")


def load_bundle(dirpath) -> LocalizerBundle:
    meta_path = os.path.join(dirpath, "bundle.json")
    if not os.path.exists(meta_path):
        raise FormatError(f"{meta_path}: missing bundle manifest")
    with open(meta_path) as f:
        meta = json.load(f)
    if meta.get("format_version") != BUNDLE_VERSION:
        raise FormatError(f"{meta_path}: format_version {meta.get('format_version')}"
                          f", expected {BUNDLE_VERSION}")
    topo = read_topomap(os.path.join(dirpath, "topomap.json"))
    ae = AEModel(nnet.load_weights(os.path.join(dirpath, "ae.sbnn")),
                 encoder_layers=int(meta["encoder_layers"]),
                 pool=int(meta["pool"]), mode=meta.get("ae_mode", "BASE"))
    reg = RegModel(nnet.load_weights(os.path.join(dirpath, "reg.sbnn")),
                   n_nodes=int(meta["n_nodes"]),
                   latent_dim=int(meta["latent_dim"]))
    index = read_index(os.path.join(dirpath, "index.bin"))
    bundle = LocalizerBundle(topo, ae, reg, index)
    bundle.validate()
    return bundle
