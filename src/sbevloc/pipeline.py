"""Glue between the stages: frames -> S-BEVs -> pooled inputs -> bundle.

The synthetic renderer yields frames as (frame_id, pose, depth, labels)
tuples. S-BEV accumulation uses a sliding window of the current plus the
previous four frames. One pass over a traversal's S-BEVs pools both the
test inputs and the (augmented) training arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import (
    SEED_AE,
    SEED_INDEX,
    SEED_REG,
    RunConfig,
    derive_seed,
)
from .errors import InputError
from .geometry import Intrinsics, camera_to_ego, pose3_from_pose2
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
    ClassPolicy,
    GridSpec,
    accumulate_sbev,
    build_point_cloud,
    filter_labels,
)
from .synthworld import WeatherSpec, World, perturb_weather, render_frame
from .topomap import AugmentConfig, TopoMap, augment_sample

ACCUMULATION_WINDOW = 5


def ego_cloud(depth, labels, k: Intrinsics, policy: ClassPolicy, grid: GridSpec):
    """Filtered labels + depth -> labeled cloud in the ego frame (camera origin)."""
    kept = filter_labels(labels, policy)
    cam = build_point_cloud(depth, kept, k, stride=grid.stride)
    return camera_to_ego(cam)


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
                camera_height: float, window: int = ACCUMULATION_WINDOW):
    """Yield one motion-compensated SBev per incoming frame."""
    recent = deque(maxlen=window)
    for frame_id, pose, depth, labels in frames:
        cloud = ego_cloud(depth, labels, k, policy, grid)
        ego3 = pose3_from_pose2(pose, z=camera_height)
        recent.append((cloud, ego3))
        yield accumulate_sbev(list(recent), ego3, grid,
                              origin=pose, frame_id=frame_id)


@dataclass
class TrainingArrays:
    """Pooled network inputs for the (augmented) balanced training set."""

    inputs: np.ndarray          # (n, in_dim) float32
    node_ids: np.ndarray        # (n,)
    rel_poses: list             # Pose2 per row
    is_original: np.ndarray     # (n,) bool; False for augmented variants
    frame_ids: np.ndarray       # (n,) source frame of each row


def traversal_sbevs(world: World, poses, cfg: RunConfig,
                    weather: WeatherSpec | None = None, weather_seed: int = 0):
    """Render `poses` in `world` and yield one S-BEV per frame, set up as
    `cfg` describes the camera, classes, grid and camera height."""
    k = cfg.camera.intrinsics()
    frames = render_stream(world, poses, k, weather=weather,
                           weather_seed=weather_seed)
    return sbev_stream(frames, k, cfg.classes.policy(), cfg.grid.grid_spec(),
                       cfg.synth.camera_height)


def pool_traversal(sbevs, test_ids, pool: int, train_samples=(),
                   aug: AugmentConfig | None = None,
                   grid: GridSpec | None = None):
    """Pool one traversal's S-BEVs into network inputs in a single pass.

    Returns `(test_inputs, arrays)`. `test_inputs` stacks the pooled inputs
    of `test_ids` in the order given. `arrays` holds the `train_samples`
    rows, each followed by its `aug` variants, in the stream's frame order.
    Either is None when it has no frames.
    """
    by_frame = {}
    for s in train_samples:
        by_frame.setdefault(s.frame_id, []).append(s)
    want = set(test_ids)
    test_rows = {}
    inputs, ids, poses, orig, fids = [], [], [], [], []
    for sb in sbevs:
        for s in by_frame.pop(sb.frame_id, ()):
            variants = (augment_sample(sb, s.rel_pose, aug, grid)
                        if aug is not None else [(sb, s.rel_pose)])
            for j, (vsb, vrel) in enumerate(variants):
                inputs.append(grid_to_input(vsb.grid, pool))
                ids.append(s.node_id)
                poses.append(vrel)
                orig.append(j == 0)
                fids.append(s.frame_id)
        if sb.frame_id in want:
            test_rows[sb.frame_id] = grid_to_input(sb.grid, pool)
    missing = sorted(by_frame.keys() | (want - test_rows.keys()))
    if missing:
        raise InputError(f"frames without S-BEVs: {missing[:10]}")
    test_inputs = (np.stack([test_rows[f] for f in test_ids])
                   if test_rows else None)
    arrays = (TrainingArrays(np.stack(inputs), np.array(ids), poses,
                             np.array(orig), np.array(fids))
              if inputs else None)
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
    if mode == "AUG":
        keep = arrays.is_original
    else:
        keep = np.ones(len(arrays.inputs), dtype=bool)
    inputs = arrays.inputs[keep]
    node_ids = arrays.node_ids[keep]
    rel_poses = [p for p, k in zip(arrays.rel_poses, keep) if k]

    orig_mask = arrays.is_original[keep]
    targets = ae_targets(inputs, node_ids, mode,
                         node_inputs=inputs[orig_mask],
                         node_input_ids=node_ids[orig_mask])
    ae_cfg = cfg.ae.train.train_config(derive_seed(seed, SEED_AE))
    ae, ae_losses = train_autoencoder(inputs, targets, ae_cfg, mode=mode,
                                      hidden=cfg.ae.hidden,
                                      latent_dim=cfg.ae.latent_dim,
                                      pool=cfg.ae.pool,
                                      activation=cfg.ae.activation)
    latents = embed_batched(ae, inputs)
    index = build_index(latents, node_ids,
                        max_per_node=cfg.eval.index_max_per_node,
                        seed=derive_seed(seed, SEED_INDEX))
    reg_cfg = cfg.reg.train.train_config(derive_seed(seed, SEED_REG),
                                         loss_weights=cfg.reg.loss_weights)
    reg, reg_losses = train_regressor(latents, node_ids, rel_poses, len(topo),
                                      reg_cfg, hidden=cfg.reg.hidden,
                                      dropout=cfg.reg.dropout)
    bundle = LocalizerBundle(topo, ae, reg, index)
    bundle.validate()
    return TrainedPipeline(bundle, ae_losses, reg_losses, arrays)


def embed_batched(ae: AEModel, inputs: np.ndarray, chunk: int = 1024) -> np.ndarray:
    out = [embed_vec(ae, inputs[i:i + chunk]) for i in range(0, len(inputs), chunk)]
    return np.concatenate(out, axis=0)
