"""Glue between the stages: frames -> S-BEVs -> pooled inputs -> bundle.

The synthetic renderer yields frames as (frame_id, pose, depth, labels)
tuples. A frame's ego cloud unprojects every pixel it has, so the camera
renders and the weather perturbs only pixels that reach an S-BEV. S-BEV
accumulation uses a sliding window of the current plus the previous four
frames, each moved on the ground plane by its Pose2. Only the frames a
caller asks for get an S-BEV, and only the frames in their windows an ego
cloud. One pass over a traversal's S-BEVs pools both the test inputs and
the (augmented) training arrays.

Set-up holds one training-set-sized array: `TrainingArrays.inputs`, which
`pool_traversal` fills row by row in place, with no per-row list to stack.
The grid reaches farther than the camera sees, so about two thirds of the
default AE's 1936 inputs are 0 in every training row; `_keep_live_columns`,
the one rule for which columns are live, cuts the array to its live columns
in place, as it cuts AUG's copy of the original rows. The AE reads and
reconstructs exactly the columns it is given, each batch gathering rows
only; BASE and AUG reconstruct one target row per node, AVG its input
batch. The encoder comes back full width with +0.0 dead columns, zero runs
that deflate shrinks: layer 0 is ~1.1 MB of the map file, not 3.9 MB. The
index embeds chunks of rows rebuilt at full width, so its latents are the
full-width rows' bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import SEED_AE, SEED_REG, RunConfig, derive_seed
from .errors import InputError
from .geometry import Intrinsics
from .localizer import (
    AEModel,
    LocalizerBundle,
    build_index,
    embed_vec,
    grid_to_input,
    train_autoencoder,
    train_regressor,
)
from .sbev import (
    ACCUMULATION_WINDOW,
    ClassPolicy,
    GridSpec,
    accumulate_sbev,
    build_point_cloud,
    filter_labels,
)
from .synthworld import WeatherSpec, World, perturb_weather, render_frame
from .topomap import AugmentConfig, TopoMap, augment_sample


def ego_cloud(depth, labels, k: Intrinsics, policy: ClassPolicy):
    """Filtered labels + depth -> labeled cloud in the ego frame (camera origin)."""
    return build_point_cloud(depth, filter_labels(labels, policy), k)


def render_stream(world: World, poses, k: Intrinsics,
                  weather: WeatherSpec | None = None, weather_seed: int = 0):
    """Yield (frame_id, pose, depth, labels) for each pose, optionally
    perturbed with a per-frame RNG stream derived from (seed, frame_id)."""
    for frame_id, pose in enumerate(poses):
        depth, labels = render_frame(world, pose, k)
        if weather is not None:
            depth, labels = perturb_weather((depth, labels), weather,
                                            derive_seed(weather_seed, frame_id))
        yield frame_id, pose, depth, labels


def sbev_stream(frames, k: Intrinsics, policy: ClassPolicy, grid: GridSpec,
                camera_height: float | None = None, *, frame_ids=None):
    """Yield one motion-compensated SBev per requested frame, in stream order.

    Frame ids are stream positions, as `render_stream` yields them: each
    must be one more than the last, or InputError is raised. Only the frames
    in `frame_ids` are accumulated into an S-BEV and yielded; None yields
    every frame. A frame's ego cloud is built only when a yielded frame's
    window holds it, so when the frame or one of the next
    ACCUMULATION_WINDOW - 1 is requested. A skipped frame still takes its
    slot in the window, so a yielded grid does not depend on `frame_ids`.

    `camera_height` is unused. It stays only because `perfbench/workloads.py`
    passes it positionally; dropping it is ROADMAP item 5.
    """
    wanted = needed = None
    if frame_ids is not None:
        wanted = frozenset(frame_ids)
        needed = frozenset(f - lag for f in wanted for lag in range(ACCUMULATION_WINDOW))
    recent = deque(maxlen=ACCUMULATION_WINDOW)
    last = None
    for frame_id, pose, depth, labels in frames:
        if last is not None and frame_id != last + 1:
            raise InputError(f"frame id {frame_id} after {last}; ids must count up by one")
        last = frame_id
        if needed is None or frame_id in needed:
            recent.append((ego_cloud(depth, labels, k, policy), pose))
        else:
            recent.append(None)   # no window of a yielded frame reaches it
        if wanted is None or frame_id in wanted:
            yield accumulate_sbev(list(recent), pose, grid, frame_id=frame_id)


@dataclass
class TrainingArrays:
    """Pooled network inputs for the (augmented) balanced training set,
    stored on their live columns (`_keep_live_columns`): row i at full width
    is `in_dim` float32 zeros with `inputs[i]` at `columns`, every dropped
    column is +0.0 in every row, and every kept one nonzero in some row."""

    inputs: np.ndarray          # (n, len(columns)) float32, C-contiguous
    columns: np.ndarray         # (k,) ascending ids of the kept input columns
    in_dim: int                 # the full input width
    node_ids: np.ndarray        # (n,)
    rel_poses: np.ndarray       # (n, 3) float64 x, y, theta relative to the node
    is_original: np.ndarray     # (n,) bool; False for augmented variants
    frame_ids: np.ndarray       # (n,) source frame of each row


def traversal_sbevs(world: World, poses, cfg: RunConfig,
                    weather: WeatherSpec | None = None, weather_seed: int = 0,
                    frame_ids=None):
    """Render every frame of `poses` in `world` and yield the S-BEVs of
    `frame_ids` (None: of every frame), set up as `cfg` describes the
    camera, classes and grid."""
    k = cfg.camera.intrinsics()
    frames = render_stream(world, poses, k, weather=weather,
                           weather_seed=weather_seed)
    return sbev_stream(frames, k, cfg.classes.policy(), cfg.grid.grid_spec(),
                       frame_ids=frame_ids)


def pool_traversal(sbevs, test_ids, pool: int, train_samples=(),
                   aug: AugmentConfig = AugmentConfig((), ())):
    """Pool one traversal's S-BEVs into network inputs in a single pass.

    Returns `(test_inputs, arrays)`. `test_inputs` stacks the pooled inputs
    of `test_ids` in the order given. `arrays` holds the `train_samples`
    rows, each followed by its `aug` variants, in the stream's frame order.
    Either is None when it has no frames. Training rows are written into one
    float32 array of `len(train_samples) * (1 + rotations + shifts)` rows,
    allocated at the first row, then cut to their live columns in place
    (`_keep_live_columns`); a sample with another number of variants raises
    InputError. Sample k's variant j is row `k * variants + j`.
    """
    by_frame = {}
    for s in train_samples:
        by_frame.setdefault(s.frame_id, []).append(s)
    variants = 1 + len(aug.rotations_deg) + len(aug.shifts_cells)
    n_rows = len(train_samples) * variants
    want = set(test_ids)
    test_rows = {}
    inputs, rel_poses, written = None, np.empty((n_rows, 3)), []
    for sb in sbevs:
        for s in by_frame.pop(sb.frame_id, ()):
            expanded = augment_sample(sb, s.rel_pose, aug)
            if len(expanded) != variants:
                raise InputError(f"{len(expanded)} training rows for frame "
                                 f"{s.frame_id}, expected {variants}")
            for j, (vsb, vrel) in enumerate(expanded, len(written) * variants):
                row = grid_to_input(vsb.grid, pool)
                if inputs is None:
                    inputs = np.empty((n_rows, row.size), dtype=np.float32)
                inputs[j] = row
                rel_poses[j] = vrel.x, vrel.y, vrel.theta
            written.append(s)
        if sb.frame_id in want:
            test_rows[sb.frame_id] = grid_to_input(sb.grid, pool)
    missing = sorted(by_frame.keys() | (want - test_rows.keys()))
    if missing:
        raise InputError(f"frames without S-BEVs: {missing[:10]}")
    test_inputs = (np.stack([test_rows[f] for f in test_ids])
                   if test_rows else None)
    arrays = None
    if n_rows:
        in_dim = inputs.shape[1]
        columns = _keep_live_columns(inputs)
        arrays = TrainingArrays(
            inputs, columns, in_dim, np.repeat([s.node_id for s in written], variants),
            rel_poses, np.tile(np.arange(variants) == 0, len(written)),
            np.repeat([s.frame_id for s in written], variants))
    return test_inputs, arrays


# rows moved per block by `_keep_live_columns`
COMPACT_ROWS = 256


def _keep_live_columns(inputs: np.ndarray) -> np.ndarray:
    """Cut the float32 (n, width) `inputs` in place to its live columns, each
    with a nonzero bit in some row (-0.0 and NaN too), and return their ids.

    Blocks of COMPACT_ROWS rows move down into the buffer's prefix, which
    then shrinks: block [a, b) lands below b * k <= b * width, where the
    first unread row starts. So one block is the only copy, never the whole
    compact array beside the full-width one.
    """
    columns = np.flatnonzero(inputs.view(np.uint32).any(axis=0))
    n, k = len(inputs), len(columns)
    flat = inputs.reshape(-1)
    for a in range(0, n, COMPACT_ROWS):
        block = inputs[a:a + COMPACT_ROWS].take(columns, axis=1)
        flat[a * k:a * k + block.size] = block.ravel()
    del flat    # no view of the buffer may outlive its resize
    inputs.resize((n, k), refcheck=False)
    return columns


@dataclass
class TrainedPipeline:
    bundle: LocalizerBundle
    ae_losses: list
    reg_losses: list
    arrays: TrainingArrays = field(repr=False, default=None)


def train_localizer(topo: TopoMap, arrays: TrainingArrays, mode: str,
                    cfg: RunConfig, seed: int) -> TrainedPipeline:
    """Train AE + regressor for one ablation mode from prepared arrays.

    BASE uses everything with node-average targets; AVG reconstructs each
    input instead; AUG drops the augmented variants and cuts its copy of the
    original rows to the columns live in them (`_keep_live_columns`).
    """
    keep = arrays.is_original if mode == "AUG" else slice(None)
    inputs, columns = arrays.inputs[keep], arrays.columns
    if mode == "AUG":
        columns = columns[_keep_live_columns(inputs)]
    node_ids = arrays.node_ids[keep]
    ae, ae_losses = train_autoencoder(inputs, node_ids, arrays.is_original[keep],
                                      cfg.ae, derive_seed(seed, SEED_AE), mode,
                                      columns=columns, in_dim=arrays.in_dim)
    latents = embed_batched(ae, inputs, columns)
    index = build_index(latents, node_ids)
    reg, reg_losses = train_regressor(latents, node_ids, arrays.rel_poses[keep],
                                      len(topo), cfg.reg, derive_seed(seed, SEED_REG))
    bundle = LocalizerBundle(topo, ae, reg, index)
    bundle.validate()
    return TrainedPipeline(bundle, ae_losses, reg_losses, arrays)


# rows per encoder pass of `embed_batched`; the chunk boundaries fix the
# GEMM's blocking, and so the bits of every latent
EMBED_CHUNK = 1024


def embed_batched(ae: AEModel, inputs: np.ndarray, columns=None) -> np.ndarray:
    """Eval-mode latents, (n, latent_dim) float32, of the n rows of `inputs`,
    EMBED_CHUNK rows per encoder pass. With `columns`, a row holds only
    those input columns; each chunk is rebuilt at the encoder's width with
    +0.0 in the others, so the latents are the full-width rows' bit for bit.
    """
    out = np.empty((len(inputs), ae.latent_dim), np.float32)
    if columns is not None:
        full = np.zeros((min(len(inputs), EMBED_CHUNK), ae.net.in_dim), np.float32)
    for i in range(0, len(inputs), EMBED_CHUNK):
        chunk = inputs[i:i + EMBED_CHUNK]
        if columns is not None:
            # only the kept columns are written, so the others stay +0.0
            full[:len(chunk), columns] = chunk
            chunk = full[:len(chunk)]
        out[i:i + EMBED_CHUNK] = embed_vec(ae, chunk)
    return out
