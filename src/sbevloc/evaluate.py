"""Metrics and experiment orchestration.

`run_experiment` reproduces the evaluation protocol end to end on the
synthetic world: drop topological nodes along the route, split its frames
80-20 per node and balance the training side. One loop then makes a
(name, poses, weather) pass per condition: clean, each weather perturbation,
each lane-shifted traversal. A pass pools the test frames of its poses, and
the clean pass, which runs first, also the augmented training arrays. Each
ablation mode is then trained and scored on every condition.

Fine-localization errors are reported two ways: the perfect-node variant
scores the regressor against the true node's relative pose (regressor
quality in isolation); the predicted-node variant scores the composed
global pose of the full chain, and can additionally be fused with noisy
synthetic odometry for post-filter rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    lane_label,
)
from .errors import InputError
from .fusion import KfState, OdomSample, fuse_trajectory
from .geometry import Pose2, global_from_relative, wrap_angle
from .localizer import LocalizerBundle, coarse_localize, regressor_inputs
from .pipeline import (
    TrainingArrays,
    embed_batched,
    pool_traversal,
    train_localizer,
    traversal_sbevs,
)
from .synthworld import generate_world, lane_shift
from .topomap import assign_to_nodes, balance_samples, build_topo_map

REPORT_FIELDS = ("condition", "node_acc", "mae_x_m", "mae_y_m", "mae_theta_deg",
                 "variant", "n")
REPORT_HEADER = ",".join(REPORT_FIELDS)

# measurement noise of a localization fix: 2 m, 2 degrees, fixed rather than
# fitted, so that no test ground truth reaches the filter
R_FIX = np.diag([2.0 ** 2, 2.0 ** 2, math.radians(2.0) ** 2])


@dataclass(frozen=True)
class EvalReport:
    condition: str
    node_accuracy: float
    mae_x: float
    mae_y: float
    mae_theta_deg: float
    variant: str    # perfect_node | predicted_node | predicted_node_post_kf
    n: int


def split_train_test(samples, n_nodes: int, ratio: float = 0.8, seed: int = 0):
    """Per-node seeded split of Samples into (train, test) tuples; train
    gets floor(ratio * n) of a node's n samples, clamped to [1, n - 1]."""
    if not 0.0 < ratio < 1.0:
        raise InputError(f"split ratio {ratio} outside (0, 1)")
    by_node = [[] for _ in range(n_nodes)]
    for i, s in enumerate(samples):
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
    return (tuple(samples[i] for i in train_idx),
            tuple(samples[i] for i in test_idx))


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
    route: tuple = field(repr=False)  # the traversal's full poses


def _batch_fine(bundle: LocalizerBundle, node_ids, latents):
    xs = regressor_inputs(node_ids, bundle.reg.n_nodes, latents)
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
    """Fuse the predicted-node global poses with noisy synthetic odometry,
    starting at the first scored frame from its own fix, as relocalization
    does; no ground-truth pose seeds the filter."""
    rng = np.random.default_rng([derive_seed(seed, SEED_KF), 0x0F])
    speed = cfg.synth.speed
    dt = cfg.synth.frame_spacing / speed
    route = cond.route
    # step i runs from frame i - 1 to frame i; its dt is the difference of
    # the two frame times, which can differ from dt in the last bit
    step_dts = np.diff(np.arange(len(route)) * dt).tolist()
    # row i holds step i's (vx, vy, omega) noise, drawn in that order: the
    # stream of three scalar draws per step
    noise = rng.normal(0, (0.2, 0.05, 0.005), (len(step_dts), 3)).tolist()
    odom = []
    for i, (step_dt, (n_vx, n_vy, n_om)) in enumerate(zip(step_dts, noise)):
        om = wrap_angle(route[i + 1].theta - route[i].theta) / dt
        odom.append(OdomSample(speed + n_vx, n_vy, om + n_om, step_dt))
    first = min(s.frame_id for s in cond.samples)
    fixes = {s.frame_id - first: [p.x, p.y, p.theta]
             for s, p in zip(cond.samples, glob_pred)}
    init = KfState(np.array(fixes[0]), cfg.kf.init_sigma())
    states = fuse_trajectory(odom[first:], fixes, init, cfg.kf.q(), R_FIX)
    preds = [Pose2(*states[s.frame_id - first].mu) for s in cond.samples]
    mae_f = mae_xytheta(preds, cond.globals)
    return EvalReport(cond.name, float("nan"), *mae_f,
                      "predicted_node_post_kf", len(preds))


# ---------------------------------------------------------------------------
# the experiment driver

@dataclass
class ExperimentArtifacts:
    topo: object
    arrays: TrainingArrays
    trained: dict            # mode -> TrainedPipeline
    conditions: list         # ConditionData
    world: object


def run_experiment(cfg: RunConfig):
    """Full protocol; returns (report rows, artifacts)."""
    seed = cfg.seed
    world = generate_world(derive_seed(seed, SEED_WORLD), cfg.synth)
    route = world.route

    topo = build_topo_map(route, cfg.topo.trans_threshold_m,
                          math.radians(cfg.topo.ang_threshold_deg))
    train, test = split_train_test(assign_to_nodes(topo, enumerate(route)),
                                   len(topo), cfg.split.ratio,
                                   derive_seed(seed, SEED_SPLIT))
    balanced = balance_samples(train, len(topo), derive_seed(seed, SEED_BALANCE))

    test_ids = [s.frame_id for s in test]
    passes = ([("clean", route, None)]
              + [(w.name, route, w.weather_spec())
                 for w in cfg.eval.weather if not w.is_clean()]
              + [(lane_label(offset), lane_shift(route, offset), None)
                 for offset in cfg.eval.lane_offsets_m])
    conditions, arrays = [], None
    for name, poses, weather in passes:
        sbevs = traversal_sbevs(world, poses, cfg, weather=weather,
                                weather_seed=derive_seed(seed, SEED_WEATHER))
        # the first (clean) pass also pools the balanced training rows
        inputs, pooled = pool_traversal(sbevs, test_ids, cfg.ae.pool,
                                        () if conditions else balanced,
                                        cfg.augment)
        arrays = arrays or pooled
        samples = assign_to_nodes(topo, ((i, poses[i]) for i in test_ids))
        conditions.append(ConditionData(name, inputs, samples,
                                        tuple(poses[i] for i in test_ids),
                                        poses))

    rows = []
    trained = {}
    for mode in cfg.eval.modes:
        tp = train_localizer(topo, arrays, mode, cfg, seed)
        trained[mode] = tp
        for cond in conditions:
            got = evaluate_condition(tp.bundle, cond, cfg, seed,
                                     run_filter=cfg.eval.run_filter)
            if len(cfg.eval.modes) > 1:
                got = [replace(r, condition=f"{mode}/{r.condition}")
                       for r in got]
            rows.extend(got)

    artifacts = ExperimentArtifacts(topo, arrays, trained, conditions, world)
    return rows, artifacts


# ---------------------------------------------------------------------------
# report output

def _report_cells(r: EvalReport, digits: int, no_acc: str) -> tuple:
    """One row's cells in REPORT_FIELDS order; a NaN accuracy prints as `no_acc`."""
    acc = no_acc if math.isnan(r.node_accuracy) else f"{r.node_accuracy:.{digits}f}"
    maes = (f"{v:.{digits}f}" for v in (r.mae_x, r.mae_y, r.mae_theta_deg))
    return (r.condition, acc, *maes, r.variant, str(r.n))


def write_report_csv(path, rows) -> None:
    with open(path, "w") as f:
        f.write(REPORT_HEADER + "\n")
        for r in rows:
            f.write(",".join(_report_cells(r, 6, "")) + "\n")


def format_report_table(rows) -> str:
    cells = [REPORT_FIELDS, *(_report_cells(r, 3, "-") for r in rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(REPORT_FIELDS))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
