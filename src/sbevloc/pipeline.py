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
Training adds no second one. The grid reaches farther than the camera sees,
so about two thirds of the default AE's 1936 inputs are 0 in every training
row. The AE reads and reconstructs only the live ones (`train_autoencoder`),
gathering each batch's live columns as it is drawn. BASE and AUG reconstruct
one target row per node (`ae_targets`), AVG its input batch; AUG copies only
its original rows, and each net trains in place. The encoder comes back full
width with +0.0 dead columns, which the bundle file leaves out: layer 0 is
~1.2 MB of the map file, not 3.9 MB.
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
    ae_targets,
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
    passes it positionally; dropping it is ROADMAP item 2.
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
    """Pooled network inputs for the (augmented) balanced training set."""

    inputs: np.ndarray          # (n, in_dim) float32
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
    allocated at the first row; a sample with another number of variants
    raises InputError.
    """
    by_frame = {}
    for s in train_samples:
        by_frame.setdefault(s.frame_id, []).append(s)
    variants = 1 + len(aug.rotations_deg) + len(aug.shifts_cells)
    n_rows = len(train_samples) * variants
    want = set(test_ids)
    test_rows = {}
    inputs, ids, poses, orig, fids = None, [], [], [], []
    for sb in sbevs:
        for s in by_frame.pop(sb.frame_id, ()):
            expanded = augment_sample(sb, s.rel_pose, aug)
            if len(expanded) != variants:
                raise InputError(f"{len(expanded)} training rows for frame "
                                 f"{s.frame_id}, expected {variants}")
            for j, (vsb, vrel) in enumerate(expanded):
                row = grid_to_input(vsb.grid, pool)
                if inputs is None:
                    inputs = np.empty((n_rows, row.size), dtype=np.float32)
                inputs[len(ids)] = row
                ids.append(s.node_id)
                poses.append((vrel.x, vrel.y, vrel.theta))
                orig.append(j == 0)
                fids.append(s.frame_id)
        if sb.frame_id in want:
            test_rows[sb.frame_id] = grid_to_input(sb.grid, pool)
    missing = sorted(by_frame.keys() | (want - test_rows.keys()))
    if missing:
        raise InputError(f"frames without S-BEVs: {missing[:10]}")
    test_inputs = (np.stack([test_rows[f] for f in test_ids])
                   if test_rows else None)
    arrays = (TrainingArrays(inputs, np.array(ids), np.array(poses),
                             np.array(orig), np.array(fids))
              if n_rows else None)
    return test_inputs, arrays


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
    input instead; AUG drops the augmented variants.
    """
    keep = arrays.is_original if mode == "AUG" else slice(None)
    inputs = arrays.inputs[keep]
    node_ids = arrays.node_ids[keep]
    targets = ae_targets(inputs, node_ids, arrays.is_original[keep], mode)
    ae, ae_losses = train_autoencoder(inputs, targets, cfg.ae,
                                      derive_seed(seed, SEED_AE), mode)
    latents = embed_batched(ae, inputs)
    index = build_index(latents, node_ids)
    reg, reg_losses = train_regressor(latents, node_ids, arrays.rel_poses[keep],
                                      len(topo), cfg.reg, derive_seed(seed, SEED_REG))
    bundle = LocalizerBundle(topo, ae, reg, index)
    bundle.validate()
    return TrainedPipeline(bundle, ae_losses, reg_losses, arrays)


def embed_batched(ae: AEModel, inputs: np.ndarray, chunk: int = 1024) -> np.ndarray:
    out = [embed_vec(ae, inputs[i:i + chunk]) for i in range(0, len(inputs), chunk)]
    return np.concatenate(out, axis=0)
