import csv
import math

import numpy as np
import pytest

from conftest import RAIN, tiny_config
from sbevloc.config import SEED_WORLD, WeatherDoc, derive_seed
from sbevloc.errors import InputError
from sbevloc.evaluate import (
    REPORT_HEADER,
    evaluate_condition,
    format_report_table,
    run_experiment,
    write_report_csv,
)
from sbevloc.geometry import Pose2
from sbevloc.localizer import grid_to_input, load_bundle, localize, save_bundle
from sbevloc.pipeline import pool_traversal, render_stream, sbev_stream, traversal_sbevs
from sbevloc.synthworld import generate_world
from sbevloc.topomap import AugmentConfig, Sample

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
    n_test = len(art.test_ds)
    for cond in art.conditions:
        assert cond.inputs.shape == (n_test, art.arrays.inputs.shape[1])
    variants = [r.variant for r in rows]
    assert variants == ["perfect_node", "predicted_node",
                        "predicted_node_post_kf"] * 3
    for r in rows:
        assert 0 < r.n <= n_test
        assert all(math.isfinite(v) for v in (r.mae_x, r.mae_y, r.mae_theta_deg))
    n_variants = 1 + len(cfg.augment.rotations_deg) + len(cfg.augment.shifts_cells)
    assert art.arrays.is_original.sum() * n_variants == len(art.arrays.inputs)


def test_pool_traversal_test_inputs_match_sbev_stream(tiny_cfg):
    cfg = tiny_cfg
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    route = world.route[:24]
    k = cfg.camera.intrinsics()
    sbevs = list(sbev_stream(render_stream(world, route, k), k,
                             cfg.classes.policy(), cfg.grid.grid_spec(),
                             cfg.synth.camera_height))
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
    inputs, arrays = pool_traversal(iter(sbevs), [5], cfg.ae.pool, samples, aug,
                                    cfg.grid.grid_spec())
    assert np.array_equal(inputs[0], grid_to_input(sbevs[5].grid, cfg.ae.pool))
    assert arrays.frame_ids.tolist() == [2, 2, 2, 8, 8, 8]
    assert arrays.node_ids.tolist() == [0, 0, 0, 1, 1, 1]
    assert arrays.is_original.tolist() == [True, False, False] * 2
    assert np.array_equal(arrays.inputs[3], grid_to_input(sbevs[8].grid, cfg.ae.pool))
    assert arrays.rel_poses[0] == Pose2(1.0, 0.2, 0.1)
    assert arrays.rel_poses[2].y == pytest.approx(0.2 + 4 * cfg.grid.resolution)


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
    test_ids = {s.frame_id for s in art.test_ds.samples}
    sbevs = [sb for sb in traversal_sbevs(art.world, art.world.route, cfg)
             if sb.frame_id in test_ids]
    assert len(sbevs) == len(test_ids)
    assert [localize(back, sb) for sb in sbevs] == [localize(bundle, sb) for sb in sbevs]
