"""Metrics and experiment orchestration.

`run_experiment` reproduces the evaluation protocol end to end on the
synthetic world: build S-BEVs, drop topological nodes, stratified 80-20
split, balance, train per ablation mode, then score every configured
condition (clean, weather perturbations, lane-shifted traversals).

Fine-localization errors are reported two ways: the perfect-node variant
scores the regressor against the true node's relative pose (regressor
quality in isolation); the predicted-node variant scores the composed
global pose of the full chain, and can additionally be fused with noisy
synthetic odometry for post-filter rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import nnet
from .config import (
    SEED_BALANCE,
    SEED_KF,
    SEED_SPLIT,
    SEED_WEATHER,
    SEED_WORLD,
    RunConfig,
    derive_seed,
)
from .errors import InputError
from .fusion import KfState, estimate_measurement_noise, fuse_trajectory
from .geometry import Pose2, global_from_relative, wrap_angle
from .localizer import LocalizerBundle, coarse_localize, regressor_input
from .pipeline import (
    TrainingArrays,
    embed_batched,
    pool_traversal,
    train_localizer,
    traversal_sbevs,
)
from .synthworld import generate_world, lane_shift
from .topomap import (
    NodeDataset,
    assign_to_nodes,
    balance_samples,
    build_topo_map,
)

REPORT_HEADER = "condition,node_acc,mae_x_m,mae_y_m,mae_theta_deg,variant,n"


@dataclass(frozen=True)
class EvalReport:
    condition: str
    node_accuracy: float
    mae_x: float
    mae_y: float
    mae_theta_deg: float
    variant: str    # perfect_node | predicted_node | predicted_node_post_kf
    n: int


def split_train_test(ds: NodeDataset, ratio: float = 0.8, seed: int = 0):
    """Per-node seeded split; train gets floor(ratio*n), test at least 1."""
    if not 0.0 < ratio < 1.0:
        raise InputError(f"split ratio {ratio} outside (0, 1)")
    by_node = [[] for _ in range(ds.n_nodes)]
    for i, s in enumerate(ds.samples):
        by_node[s.node_id].append(i)
    rng = np.random.default_rng([seed, 0x57])
    train_idx, test_idx = [], []
    for nid, members in enumerate(by_node):
        if len(members) < 2:
            raise InputError(f"node {nid} has {len(members)} samples, need >= 2")
        order = rng.permutation(len(members))
        n_train = min(max(int(ratio * len(members)), 1), len(members) - 1)
        train_idx.extend(members[j] for j in order[:n_train])
        test_idx.extend(members[j] for j in order[n_train:])
    train_idx.sort()
    test_idx.sort()
    return (NodeDataset(tuple(ds.samples[i] for i in train_idx), ds.n_nodes),
            NodeDataset(tuple(ds.samples[i] for i in test_idx), ds.n_nodes))


def node_accuracy(predictions, truth) -> float:
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth) or not predictions:
        raise InputError("prediction/truth lengths differ or are empty")
    return sum(p == t for p, t in zip(predictions, truth)) / len(predictions)


def mae_xytheta(pred, truth):
    """Per-component MAE; theta differences wrapped and reported in degrees."""
    pred = list(pred)
    truth = list(truth)
    if len(pred) != len(truth) or not pred:
        raise InputError("prediction/truth lengths differ or are empty")
    ex = np.mean([abs(p.x - t.x) for p, t in zip(pred, truth)])
    ey = np.mean([abs(p.y - t.y) for p, t in zip(pred, truth)])
    eth = np.mean([abs(wrap_angle(p.theta - t.theta)) for p, t in zip(pred, truth)])
    return float(ex), float(ey), math.degrees(float(eth))


# ---------------------------------------------------------------------------
# condition evaluation

@dataclass
class ConditionData:
    """Test-split inputs and ground truth for one evaluation condition."""

    name: str
    inputs: np.ndarray      # (n, in_dim) pooled test S-BEV inputs
    samples: tuple          # ground-truth Sample per row (node id + rel pose)
    globals: tuple          # ground-truth global Pose2 per row
    times: tuple            # frame timestamps, seconds
    route: tuple = field(default=(), repr=False)  # the traversal's full poses


def _batch_fine(bundle: LocalizerBundle, node_ids, latents):
    xs = np.stack([regressor_input(int(n), bundle.reg.n_nodes, lat)
                   for n, lat in zip(node_ids, latents)])
    out, _ = nnet.forward(bundle.reg.net, xs, mode="eval")
    return [Pose2(float(r[0]), float(r[1]), wrap_angle(float(r[2]))) for r in out]


def evaluate_condition(bundle: LocalizerBundle, cond: ConditionData,
                       cfg: RunConfig, seed: int, run_filter: bool = False):
    """Score one condition; returns EvalReport rows."""
    latents = embed_batched(bundle.ae, cond.inputs)
    pred_nodes = [coarse_localize(bundle.index, lat)[0] for lat in latents]
    truth_nodes = [s.node_id for s in cond.samples]
    acc = node_accuracy(pred_nodes, truth_nodes)
    n = len(cond.samples)

    rel_true = [s.rel_pose for s in cond.samples]
    rel_perfect = _batch_fine(bundle, truth_nodes, latents)
    mae_p = mae_xytheta(rel_perfect, rel_true)

    rel_predicted = _batch_fine(bundle, pred_nodes, latents)
    glob_pred = [global_from_relative(bundle.topo.nodes[nid].pose, rel)
                 for nid, rel in zip(pred_nodes, rel_predicted)]
    mae_g = mae_xytheta(glob_pred, cond.globals)

    rows = [
        EvalReport(cond.name, acc, *mae_p, "perfect_node", n),
        EvalReport(cond.name, acc, *mae_g, "predicted_node", n),
    ]
    if run_filter:
        rows.append(_filtered_row(cond, glob_pred, cfg, seed))
    return rows


def _filtered_row(cond: ConditionData, glob_pred, cfg: RunConfig, seed):
    """Fuse the predicted-node global poses with noisy synthetic odometry."""
    rng = np.random.default_rng([derive_seed(seed, SEED_KF), 0x0F])
    speed = cfg.synth.speed
    dt = cfg.synth.frame_spacing / speed
    route = cond.route
    odom = []
    for i in range(len(route)):
        om = wrap_angle(route[min(i + 1, len(route) - 1)].theta
                        - route[i].theta) / dt
        odom.append((i * dt,
                     speed + rng.normal(0, 0.2),
                     rng.normal(0, 0.05),
                     om + rng.normal(0, 0.005)))
    residuals = np.array([[p.x - t.x, p.y - t.y, wrap_angle(p.theta - t.theta)]
                          for p, t in zip(glob_pred, cond.globals)])
    r = estimate_measurement_noise(residuals, floor=cfg.kf.r_floor)
    meas = sorted(zip(cond.times, ([p.x, p.y, p.theta] for p in glob_pred)))
    init = KfState(np.array([route[0].x, route[0].y, route[0].theta]),
                   cfg.kf.init_sigma())
    fused = fuse_trajectory(odom, meas, init, cfg.kf.q(), r)
    post = {round(f.t, 9): f.state.mu for f in fused if f.kind == "update"}
    preds, truths = [], []
    for t, truth in zip(cond.times, cond.globals):
        mu = post.get(round(t, 9))
        if mu is not None:
            preds.append(Pose2(mu[0], mu[1], mu[2]))
            truths.append(truth)
    mae_f = mae_xytheta(preds, truths)
    return EvalReport(cond.name, float("nan"), *mae_f,
                      "predicted_node_post_kf", len(preds))


# ---------------------------------------------------------------------------
# the experiment driver

@dataclass
class ExperimentArtifacts:
    topo: object
    full_ds: NodeDataset
    train_ds: NodeDataset
    test_ds: NodeDataset
    arrays: TrainingArrays
    trained: dict            # mode -> TrainedPipeline
    conditions: list         # ConditionData
    world: object


def _is_clean(wdoc) -> bool:
    return (wdoc.label_confusion_prob == 0 and wdoc.depth_dropout_prob == 0
            and wdoc.depth_noise_sigma == 0 and wdoc.range_attenuation == 0)


def run_experiment(cfg: RunConfig, verbose: bool = False):
    """Full protocol; returns (report rows, artifacts)."""
    t0 = time.time()

    def log(msg):
        if verbose:
            print(f"[{time.time() - t0:7.1f}s] {msg}", flush=True)

    seed = cfg.seed
    grid = cfg.grid.grid_spec()
    world = generate_world(derive_seed(seed, SEED_WORLD), cfg.synth)
    route = world.route
    log(f"world: {len(route)} frames, {len(world.primitives)} primitives")

    topo = build_topo_map(route, cfg.topo.trans_threshold_m,
                          math.radians(cfg.topo.ang_threshold_deg))
    full_ds = assign_to_nodes(topo, enumerate(route))
    train_ds, test_ds = split_train_test(full_ds, cfg.split.ratio,
                                         derive_seed(seed, SEED_SPLIT))
    balanced = balance_samples(train_ds, derive_seed(seed, SEED_BALANCE))
    log(f"map: {len(topo)} nodes; balanced train {len(balanced)}, "
        f"test {len(test_ds)}")

    dt = cfg.synth.frame_spacing / cfg.synth.speed
    test_ids = [s.frame_id for s in test_ds.samples]

    def make_condition(name, inputs, samples, traversal):
        globs = tuple(traversal[s.frame_id] for s in samples)
        times = tuple(s.frame_id * dt for s in samples)
        return ConditionData(name, inputs, tuple(samples), globs, times,
                             route=tuple(traversal))

    # one clean pass pools both the training arrays and the clean test inputs
    clean_inputs, arrays = pool_traversal(
        traversal_sbevs(world, route, cfg), test_ids, cfg.ae.pool,
        balanced.samples, cfg.augment, grid)
    log(f"clean pass done: {len(arrays.inputs)} training rows")
    conditions = [make_condition("clean", clean_inputs, test_ds.samples, route)]

    for wdoc in cfg.eval.weather:
        if _is_clean(wdoc):
            continue
        sbevs = traversal_sbevs(world, route, cfg, weather=wdoc.weather_spec(),
                                weather_seed=derive_seed(seed, SEED_WEATHER))
        inputs, _ = pool_traversal(sbevs, test_ids, cfg.ae.pool)
        conditions.append(make_condition(wdoc.name, inputs, test_ds.samples,
                                         route))
        log(f"weather pass done: {wdoc.name}")

    for offset in cfg.eval.lane_offsets_m:
        shifted = lane_shift(route, offset)
        shifted_ds = assign_to_nodes(topo, enumerate(shifted))
        shifted_samples = [shifted_ds.samples[i] for i in test_ids]
        inputs, _ = pool_traversal(traversal_sbevs(world, shifted, cfg),
                                   test_ids, cfg.ae.pool)
        conditions.append(make_condition(f"lane{offset:+g}", inputs,
                                         shifted_samples, shifted))
        log(f"lane pass done: {offset:+g} m")

    rows = []
    trained = {}
    for mode in cfg.eval.modes:
        tp = train_localizer(topo, arrays, mode, cfg, seed)
        trained[mode] = tp
        log(f"{mode}: AE loss {tp.ae_losses[-1]:.6f}, "
            f"reg loss {tp.reg_losses[-1]:.6f}")
        for cond in conditions:
            got = evaluate_condition(tp.bundle, cond, cfg, seed,
                                     run_filter=cfg.eval.run_filter)
            if len(cfg.eval.modes) > 1:
                got = [EvalReport(f"{mode}/{r.condition}", r.node_accuracy,
                                  r.mae_x, r.mae_y, r.mae_theta_deg,
                                  r.variant, r.n) for r in got]
            rows.extend(got)
            log(f"{mode}/{cond.name}: acc {got[0].node_accuracy:.3f}, perfect "
                f"MAE ({got[0].mae_x:.3f} m, {got[0].mae_y:.3f} m, "
                f"{got[0].mae_theta_deg:.3f} deg)")

    artifacts = ExperimentArtifacts(topo, full_ds, train_ds, test_ds, arrays,
                                    trained, conditions, world)
    return rows, artifacts


# ---------------------------------------------------------------------------
# report output

def write_report_csv(path, rows) -> None:
    with open(path, "w") as f:
        f.write(REPORT_HEADER + "\n")
        for r in rows:
            acc = "" if math.isnan(r.node_accuracy) else f"{r.node_accuracy:.6f}"
            f.write(f"{r.condition},{acc},{r.mae_x:.6f},{r.mae_y:.6f},"
                    f"{r.mae_theta_deg:.6f},{r.variant},{r.n}\n")


def format_report_table(rows) -> str:
    header = ("condition", "node_acc", "mae_x_m", "mae_y_m",
              "mae_theta_deg", "variant", "n")
    cells = [header]
    for r in rows:
        acc = "-" if math.isnan(r.node_accuracy) else f"{r.node_accuracy:.3f}"
        cells.append((r.condition, acc, f"{r.mae_x:.3f}", f"{r.mae_y:.3f}",
                      f"{r.mae_theta_deg:.3f}", r.variant, str(r.n)))
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
