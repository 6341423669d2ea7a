"""Reference computations the benchmark checks the program against.

Nothing here imports the program. Each oracle is written from the behaviour
the program documents, in plain numpy and float64, so that a fault in the
program cannot hide in a helper it shares with its own check:

- `pool_input`: the 8x average pool scaled to [0, 1] that feeds the
  autoencoder.
- `DenseForward`: an eval-mode dense net from raw layer weights, with a
  tolerance for how far a float32 evaluation of it may stray.
- `nearest_row`: brute-force 1-NN over an embedding index; exact ties go to
  the smallest node id.
- `compose`: SE(2) composition node o rel, angle wrapped to (-pi, pi].
- `nearest_node`: brute-force nearest map node by planar distance; ties go
  to the smallest node id.
- `split_test_counts`: per-node test counts of the seeded 80/20 split,
  where train gets floor(0.8 n) clamped to [1, n - 1] and test the rest.
"""

from __future__ import annotations

import math

import numpy as np

F32_UNIT_ROUNDOFF = 2.0 ** -24
ROUNDING_SIGMAS = 10.0
CHUNK = 64     # rows per float64 slice in DenseForward


def pool_input(grid, factor: int, scale: float = 255.0) -> np.ndarray:
    """Average-pool a square class-ID grid by `factor`, scale, flatten."""
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    return (g.reshape(h // factor, factor, w // factor, factor)
            .mean(axis=(1, 3)) / scale).ravel()


class DenseForward:
    """Eval-mode dense net in float64, and how far float32 may stray from it.

    Built from (weights (out, in), bias, activation) per layer. A call
    returns (output, tolerance): per output, ROUNDING_SIGMAS times a
    statistical estimate of |float32 result - exact result|. A k-term dot
    product whose partial sums random-walk adds about sqrt(k) u ||w * h||_2
    of rounding; adding the bias and storing the result add u |W h| and
    u |z|, and a sigmoid 4 u |a|. Error already in the input (`x_err`) and
    from earlier layers passes on as sqrt(W^2 err^2), through the
    activation's slope. The worst-case bound, k u |W||h| carried through
    |W|, is useless here: the regressor folds a per-dimension
    standardization into its first layer, whose large weights cancel, and
    that bound exceeds 100 m.
    """

    def __init__(self, layers, unit_roundoff: float = F32_UNIT_ROUNDOFF):
        for _, _, act in layers:
            if act not in ("linear", "relu", "sigmoid"):
                raise ValueError(f"unknown activation {act!r}")
        self.layers = list(layers)
        self.u = unit_roundoff

    def __call__(self, x, x_err=0.0):
        # float64 copies are made per slice of CHUNK input rows and CHUNK
        # weight rows, so the checks add little to the process's peak RSS
        x = np.atleast_2d(np.asarray(x))
        x_err = np.broadcast_to(x_err, x.shape)
        parts = [self._forward(x[i:i + CHUNK], x_err[i:i + CHUNK])
                 for i in range(0, len(x), CHUNK)]
        return (np.concatenate([h for h, _ in parts]),
                ROUNDING_SIGMAS * np.concatenate([e for _, e in parts]))

    def _forward(self, x, x_err):
        u = self.u
        h = np.asarray(x, dtype=np.float64)
        err = np.asarray(x_err, dtype=np.float64)
        for w, b, act in self.layers:
            hh, ee = h * h, err * err
            z, err = np.empty((len(h), len(b))), np.empty((len(h), len(b)))
            for j in range(0, len(b), CHUNK):
                wj = np.asarray(w[j:j + CHUNK], dtype=np.float64)
                wj2 = wj * wj
                wh = h @ wj.T
                zj = wh + np.asarray(b[j:j + CHUNK], dtype=np.float64)
                local = u * (math.sqrt(wj.shape[1]) * np.sqrt(hh @ wj2.T)
                             + np.abs(wh) + np.abs(zj))
                z[:, j:j + CHUNK] = zj
                err[:, j:j + CHUNK] = np.sqrt(ee @ wj2.T + local * local)
            if act == "relu":
                h = np.maximum(z, 0.0)
                err = np.where(z > 0, err, 0.0)
            elif act == "sigmoid":
                h = 1.0 / (1.0 + np.exp(-z))
                err = h * (1.0 - h) * err + 3.0 * u * h    # exp, add, divide
            else:
                h = z
            err = err + u * np.abs(h)
        return h, err


def regression_input(node_id: int, n_nodes: int, latent) -> np.ndarray:
    """[one_hot(node) ++ latent], the regressor's documented input."""
    one_hot = np.zeros(n_nodes)
    one_hot[node_id] = 1.0
    return np.concatenate([one_hot, np.asarray(latent, dtype=np.float64)])


def nearest_row(latents, node_ids, query, rtol: float = 0.0):
    """Brute-force 1-NN by Euclidean distance.

    Returns (node_id, distance, near): the winner under the documented
    tie-break (smallest node id among rows at the exact minimum distance),
    its distance, and the set of node ids whose nearest row lies within
    `rtol` of the minimum. A pick made in lower precision is correct when
    it falls in `near`.
    """
    lat = np.asarray(latents, dtype=np.float64)
    ids = np.asarray(node_ids)
    d = np.sqrt(((lat - np.asarray(query, dtype=np.float64)) ** 2).sum(axis=1))
    best = d.min()
    winner = int(ids[d == best].min())
    near = {int(n) for n in ids[d <= best * (1.0 + rtol)]}
    return winner, float(best), near


def node_distance(latents, node_ids, query, node_id: int) -> float:
    """Distance from `query` to the nearest index row of one node."""
    lat = np.asarray(latents, dtype=np.float64)[np.asarray(node_ids) == node_id]
    return float(np.sqrt(((lat - np.asarray(query, dtype=np.float64)) ** 2)
                         .sum(axis=1)).min())


def wrap(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(theta, 2.0 * math.pi)
    return w + 2.0 * math.pi if w <= -math.pi else w


def compose(node, rel):
    """SE(2) node o rel for (x, y, theta) triples."""
    nx, ny, nth = node
    rx, ry, rth = rel
    c, s = math.cos(nth), math.sin(nth)
    return (nx + c * rx - s * ry, ny + s * rx + c * ry, wrap(nth + rth))


def nearest_node(node_xy, x: float, y: float) -> int:
    """Index of the closest node position; ties go to the smallest index."""
    best, best_d = 0, math.inf
    for i, (nx, ny) in enumerate(node_xy):
        d = (nx - x) ** 2 + (ny - y) ** 2
        if d < best_d:
            best, best_d = i, d
    return best


def split_test_counts(node_of_frame, n_nodes: int, ratio: float = 0.8):
    """Per-node test counts of the 80/20 split over a node assignment."""
    counts = np.bincount(np.asarray(node_of_frame, dtype=np.int64),
                         minlength=n_nodes)
    return [int(c) - min(max(int(ratio * c), 1), int(c) - 1) for c in counts]
