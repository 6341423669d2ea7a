import csv
import dataclasses
import math

import numpy as np
import pytest

from conftest import RAIN, tiny_config
from sbevloc import evaluate
from sbevloc.config import SEED_KF, SEED_WORLD, WeatherDoc, derive_seed
from sbevloc.errors import InputError
from sbevloc.evaluate import (
    R_FIX,
    REPORT_HEADER,
    evaluate_condition,
    format_report_table,
    mae_xytheta,
    node_accuracy,
    run_experiment,
    split_train_test,
    write_report_csv,
)
from sbevloc.fusion import KfState, OdomSample, kf_predict, kf_update
from sbevloc.geometry import Pose2, wrap_angle
from sbevloc.localizer import grid_to_input, load_bundle, localize, save_bundle
from sbevloc.pipeline import pool_traversal, render_stream, sbev_stream, traversal_sbevs
from sbevloc.synthworld import generate_world
from sbevloc.topomap import AugmentConfig, Sample, assign_to_nodes

ALL_PASSES = dict(weather=(WeatherDoc(), RAIN), lane_offsets_m=(1.5,),
                  run_filter=True)


@pytest.fixture(scope="module")
def two_runs():
    cfg = tiny_config(**ALL_PASSES)
    return cfg, run_experiment(cfg), run_experiment(cfg)


def test_run_experiment_reruns_are_identical(two_runs):
    _, (rows_a, art_a), (rows_b, art_b) = two_runs
    # repr spells every float exactly, and NaN equals NaN under it
    assert repr(rows_a) == repr(rows_b)
    assert np.array_equal(art_a.arrays.inputs, art_b.arrays.inputs)
    assert np.array_equal(art_a.arrays.node_ids, art_b.arrays.node_ids)
    assert [c.name for c in art_a.conditions] == [c.name for c in art_b.conditions]
    for ca, cb in zip(art_a.conditions, art_b.conditions):
        assert np.array_equal(ca.inputs, cb.inputs)


def test_run_experiment_conditions_and_rows(two_runs):
    cfg, (rows, art), _ = two_runs
    # the clean weather entry adds no second clean pass
    assert [c.name for c in art.conditions] == ["clean", "rain", "lane+1.5"]
    n_test = len(art.conditions[0].samples)
    for cond in art.conditions:
        assert cond.inputs.shape == (n_test, art.arrays.inputs.shape[1])
    variants = [r.variant for r in rows]
    assert variants == ["perfect_node", "predicted_node",
                        "predicted_node_post_kf"] * 3
    for r in rows:
        assert r.n == n_test
        assert all(math.isfinite(v) for v in (r.mae_x, r.mae_y, r.mae_theta_deg))
    n_variants = 1 + len(cfg.augment.rotations_deg) + len(cfg.augment.shifts_cells)
    assert art.arrays.is_original.sum() * n_variants == len(art.arrays.inputs)


def test_conditions_follow_the_one_pass_rule(two_runs):
    # every condition is its own poses at the same test frames
    _, (_, art), _ = two_runs
    clean, rain, lane = art.conditions
    test_ids = [s.frame_id for s in clean.samples]
    assert test_ids == sorted(test_ids)
    for cond in art.conditions:
        assert cond.samples == assign_to_nodes(
            art.topo, ((i, cond.route[i]) for i in test_ids))
        assert cond.globals == tuple(cond.route[s.frame_id] for s in cond.samples)
    assert rain.samples == clean.samples and rain.route == clean.route
    assert lane.route != clean.route


def test_post_kf_row_is_not_seeded_by_ground_truth(two_runs):
    # the filter reads the route only for its odometry, which uses headings,
    # so moving every true position leaves the post-KF row as it was
    cfg, (_, art), _ = two_runs
    bundle = art.trained["BASE"].bundle
    cond = art.conditions[0]
    moved = tuple(Pose2(p.x + 500.0, p.y - 300.0, p.theta) for p in cond.route)
    want = evaluate_condition(bundle, cond, cfg, cfg.seed, run_filter=True)
    got = evaluate_condition(bundle, dataclasses.replace(cond, route=moved),
                             cfg, cfg.seed, run_filter=True)
    assert repr(got) == repr(want)


def reference_post_kf_maes(cond, glob_pred, cfg, seed):
    """The post-KF row's MAEs from three scalar noise draws per step and one
    checked kf_predict/kf_update call per step."""
    rng = np.random.default_rng([derive_seed(seed, SEED_KF), 0x0F])
    speed = cfg.synth.speed
    dt = cfg.synth.frame_spacing / speed
    route = cond.route
    step_dts = np.diff(np.arange(len(route)) * dt)
    odom = [OdomSample(speed + rng.normal(0, 0.2), rng.normal(0, 0.05),
                       wrap_angle(route[i + 1].theta - route[i].theta) / dt
                       + rng.normal(0, 0.005), float(step_dts[i]))
            for i in range(len(route) - 1)]
    fixes = {s.frame_id: [p.x, p.y, p.theta] for s, p in zip(cond.samples, glob_pred)}
    first = min(fixes)
    state = KfState(np.array(fixes[first]), cfg.kf.init_sigma())
    mus = {}
    for i in range(first, max(fixes) + 1):
        if i > first:
            state = kf_predict(state, odom[i - 1], cfg.kf.q())
        if i in fixes:
            state = kf_update(state, fixes[i], R_FIX)
        mus[i] = state.mu
    return mae_xytheta([Pose2(*mus[s.frame_id]) for s in cond.samples], cond.globals)


@pytest.mark.parametrize("name", ["clean", "lane+1.5"])
def test_post_kf_row_equals_step_by_step_reference(two_runs, monkeypatch, name):
    cfg, (_, art), _ = two_runs
    cond = next(c for c in art.conditions if c.name == name)
    seen = []
    filtered_row = evaluate._filtered_row

    def keep_glob_pred(cond, glob_pred, cfg, seed):
        seen.append(glob_pred)
        return filtered_row(cond, glob_pred, cfg, seed)

    monkeypatch.setattr(evaluate, "_filtered_row", keep_glob_pred)
    row = evaluate_condition(art.trained["BASE"].bundle, cond, cfg, cfg.seed,
                             run_filter=True)[-1]
    assert row.variant == "predicted_node_post_kf" and row.n == len(cond.samples)
    want = reference_post_kf_maes(cond, seen[0], cfg, cfg.seed)
    assert (row.mae_x, row.mae_y, row.mae_theta_deg) == want


def _samples(counts):
    return tuple(Sample(10 * node + j, node, Pose2(0, 0, 0))
                 for node, n in enumerate(counts) for j in range(n))


@pytest.mark.parametrize("ratio, want_train", [
    (0.8, [1, 2, 4, 8]), (0.1, [1, 1, 1, 1]), (0.99, [1, 2, 4, 9])])
def test_split_train_test_counts(ratio, want_train):
    samples = _samples([2, 3, 5, 10])
    train, test = split_train_test(samples, 4, ratio, seed=3)
    assert np.bincount([s.node_id for s in train], minlength=4).tolist() == want_train
    assert sorted(train + test, key=lambda s: s.frame_id) == list(samples)
    assert list(train) == sorted(train, key=lambda s: s.frame_id)
    assert list(test) == sorted(test, key=lambda s: s.frame_id)
    assert split_train_test(samples, 4, ratio, seed=3) == (train, test)


@pytest.mark.parametrize("counts, ratio, match", [
    ([3, 3], 0.0, "outside"), ([3, 3], 1.0, "outside"), ([3, 3], -0.2, "outside"),
    ([3, 1], 0.8, "node 1 has 1 samples"), ([3, 0], 0.8, "node 1 has 0 samples")])
def test_split_train_test_rejects_bad_input(counts, ratio, match):
    with pytest.raises(InputError, match=match):
        split_train_test(_samples(counts), len(counts), ratio, seed=0)


@pytest.mark.parametrize("metric, pred, truth", [
    (node_accuracy, [], []), (node_accuracy, [1, 2], [1]),
    (mae_xytheta, [], []), (mae_xytheta, [Pose2(0, 0, 0)], []),
    (mae_xytheta, [Pose2(0, 0, 0)], [Pose2(1, 0, 0)] * 2)])
def test_metrics_reject_empty_or_mismatched(metric, pred, truth):
    with pytest.raises(InputError, match="lengths differ or are empty"):
        metric(pred, truth)


def test_pool_traversal_test_inputs_match_sbev_stream(tiny_cfg):
    cfg = tiny_cfg
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    route = world.route[:24]
    k = cfg.camera.intrinsics()
    sbevs = list(sbev_stream(render_stream(world, route, k), k,
                             cfg.classes.policy(), cfg.grid.grid_spec()))
    ids = [17, 3, 20, 9]
    inputs, arrays = pool_traversal(traversal_sbevs(world, route, cfg), ids,
                                    cfg.ae.pool)
    assert arrays is None
    want = np.stack([grid_to_input(sbevs[i].grid, cfg.ae.pool) for i in ids])
    assert inputs.dtype == want.dtype and np.array_equal(inputs, want)


def test_pool_traversal_training_rows_in_frame_order(tiny_cfg):
    cfg = tiny_cfg
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    route = world.route[:12]
    sbevs = list(traversal_sbevs(world, route, cfg))
    samples = [Sample(8, 1, Pose2(0.5, 0.0, 0.0)), Sample(2, 0, Pose2(1.0, 0.2, 0.1))]
    aug = AugmentConfig(rotations_deg=(5.0,), shifts_cells=((0, 4),))
    inputs, arrays = pool_traversal(iter(sbevs), [5], cfg.ae.pool, samples, aug)
    assert np.array_equal(inputs[0], grid_to_input(sbevs[5].grid, cfg.ae.pool))
    assert arrays.frame_ids.tolist() == [2, 2, 2, 8, 8, 8]
    assert arrays.node_ids.tolist() == [0, 0, 0, 1, 1, 1]
    assert arrays.is_original.tolist() == [True, False, False] * 2
    assert np.array_equal(arrays.inputs[3], grid_to_input(sbevs[8].grid, cfg.ae.pool))
    assert arrays.rel_poses.dtype == np.float64 and arrays.rel_poses.shape == (6, 3)
    assert arrays.rel_poses[0].tolist() == [1.0, 0.2, 0.1]
    assert arrays.rel_poses[2, 1] == pytest.approx(0.2 + 4 * cfg.grid.resolution)


def test_pool_traversal_names_missing_frames(tiny_cfg):
    cfg = tiny_cfg
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    sbevs = traversal_sbevs(world, world.route[:3], cfg)
    with pytest.raises(InputError, match=r"\[7\]"):
        pool_traversal(sbevs, [1, 7], cfg.ae.pool)


def test_report_csv_blanks_post_kf_accuracy(two_runs, tmp_path):
    _, (rows, _), _ = two_runs
    p = tmp_path / "report.csv"
    write_report_csv(p, rows)
    lines = p.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    got = list(csv.DictReader(lines))
    assert len(got) == len(rows)
    for rec, row in zip(got, rows):
        assert rec["variant"] == row.variant
        if row.variant == "predicted_node_post_kf":
            assert rec["node_acc"] == ""
        else:
            assert float(rec["node_acc"]) == pytest.approx(row.node_accuracy, abs=1e-6)
    table = format_report_table(rows).splitlines()
    assert len(table) == len(rows) + 2
    assert table[-1].split()[1] == "-"


def test_trained_bundle_round_trip(two_runs, tmp_path):
    cfg, (_, art), _ = two_runs
    bundle = art.trained["BASE"].bundle
    save_bundle(tmp_path, bundle)
    back = load_bundle(tmp_path)
    for cond in art.conditions:
        want = evaluate_condition(bundle, cond, cfg, cfg.seed, run_filter=True)
        got = evaluate_condition(back, cond, cfg, cfg.seed, run_filter=True)
        assert repr(got) == repr(want)
    test_ids = {s.frame_id for s in art.conditions[0].samples}
    sbevs = [sb for sb in traversal_sbevs(art.world, art.world.route, cfg)
             if sb.frame_id in test_ids]
    assert len(sbevs) == len(test_ids)
    assert [localize(back, sb) for sb in sbevs] == [localize(bundle, sb) for sb in sbevs]
