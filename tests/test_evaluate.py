import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import RAIN, tiny_config
from sbevloc import evaluate, nnet, pipeline
from sbevloc.config import (
    SEED_AE,
    SEED_BALANCE,
    SEED_KF,
    SEED_REG,
    SEED_SPLIT,
    SEED_WORLD,
    WeatherDoc,
    derive_seed,
)
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
from sbevloc.localizer import (
    AEModel,
    build_index,
    grid_to_input,
    coarse_localize,
    embed_vec,
    load_bundle,
    localize,
    nearest_nodes,
    save_bundle,
    train_autoencoder,
    train_regressor,
    _node_means,
)
from sbevloc.pipeline import (
    ACCUMULATION_WINDOW,
    pool_traversal,
    render_stream,
    sbev_stream,
    traversal_sbevs,
)
from sbevloc.synthworld import generate_world
from sbevloc.topomap import (
    AugmentConfig,
    Sample,
    assign_to_nodes,
    augment_sample,
    balance_samples,
    build_topo_map,
)

ALL_PASSES = dict(weather=(WeatherDoc(), RAIN), lane_offsets_m=(1.5,),
                  run_filter=True)


@pytest.fixture(scope="module")
def two_runs():
    cfg = tiny_config(**ALL_PASSES)
    return cfg, run_experiment(cfg), run_experiment(cfg)


def full_width(arrays, rows=slice(None)):
    """Training rows `rows` rebuilt at full width: float32 zeros with each
    stored row at `arrays.columns`."""
    x = arrays.inputs[rows]
    full = np.zeros((len(x), arrays.in_dim), np.float32)
    full[:, arrays.columns] = x
    return full


def test_run_experiment_reruns_are_identical(two_runs):
    _, (rows_a, art_a), (rows_b, art_b) = two_runs
    # repr spells every float exactly, and NaN equals NaN under it
    assert repr(rows_a) == repr(rows_b)
    assert np.array_equal(art_a.arrays.inputs, art_b.arrays.inputs)
    assert np.array_equal(art_a.arrays.columns, art_b.arrays.columns)
    assert np.array_equal(art_a.arrays.node_ids, art_b.arrays.node_ids)
    assert [c.name for c in art_a.conditions] == [c.name for c in art_b.conditions]
    for ca, cb in zip(art_a.conditions, art_b.conditions):
        assert np.array_equal(ca.inputs, cb.inputs)


def test_trained_picks_equal_float64_brute_force(two_runs):
    # each condition row of the trained bundle: the node of the float64
    # subtract-first nearest index row (ties to the smallest node id), and
    # that row's float32 subtract-first distance, batched and one at a time
    _, (_, art), _ = two_runs
    for trained in art.trained.values():
        index = trained.bundle.index
        for cond in art.conditions:
            latents = pipeline.embed_batched(trained.bundle.ae, cond.inputs)
            ids, dists = nearest_nodes(index, latents)
            for latent, nid, dist in zip(latents, ids.tolist(), dists.tolist(), strict=True):
                diff64 = index.latents.astype(np.float64) - latent.astype(np.float64)
                d2 = np.einsum("ij,ij->i", diff64, diff64)
                tied = np.flatnonzero(d2 == d2.min())
                row = tied[np.argmin(index.node_ids[tied])]
                diff = index.latents[row:row + 1] - latent
                assert nid == index.node_ids[row]
                assert dist == np.sqrt(np.einsum("ij,ij->i", diff, diff))[0]
                assert coarse_localize(index, latent) == (nid, dist)


def test_run_experiment_conditions_and_rows(two_runs):
    cfg, (rows, art), _ = two_runs
    # the clean weather entry adds no second clean pass
    assert [c.name for c in art.conditions] == ["clean", "rain", "lane+1.5"]
    n_test = len(art.conditions[0].samples)
    # test rows stay full width; training rows hold their kept columns
    in_dim = (cfg.grid.size // cfg.ae.pool) ** 2
    for cond in art.conditions:
        assert cond.inputs.shape == (n_test, in_dim)
    assert art.arrays.in_dim == in_dim
    assert art.arrays.inputs.shape == (len(art.arrays.node_ids), len(art.arrays.columns))
    assert art.arrays.inputs.flags.c_contiguous
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


@pytest.mark.parametrize("node_id", [-1, 2])
def test_split_train_test_rejects_node_id_outside_the_map(node_id):
    # -1 once joined node 1's group; 2 raised an untyped IndexError
    samples = _samples([3, 3]) + (Sample(99, node_id, Pose2(0, 0, 0)),)
    with pytest.raises(InputError, match=rf"sample 6 has node id {node_id}, outside 0\.\.1"):
        split_train_test(samples, 2, seed=0)


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
    assert (full_width(arrays, [3]).tobytes()
            == grid_to_input(sbevs[8].grid, cfg.ae.pool).tobytes())
    assert arrays.rel_poses.dtype == np.float64 and arrays.rel_poses.shape == (6, 3)
    assert arrays.rel_poses[0].tolist() == [1.0, 0.2, 0.1]
    assert arrays.rel_poses[2, 1] == pytest.approx(0.2 + 4 * cfg.grid.resolution)


@pytest.fixture(scope="module")
def pooled_rows():
    """The tiny config's balanced, augmented training rows: `pool_traversal`'s
    arrays, and a reference with one full-width `grid_to_input` row per
    variant in a list, stacked at the end, with each row's node id, pose,
    original flag and frame."""
    cfg = tiny_config()
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    route = world.route
    topo = build_topo_map(route, cfg.topo.trans_threshold_m,
                          math.radians(cfg.topo.ang_threshold_deg))
    train, _ = split_train_test(assign_to_nodes(topo, enumerate(route)), len(topo),
                                cfg.split.ratio, derive_seed(cfg.seed, SEED_SPLIT))
    samples = balance_samples(train, len(topo), derive_seed(cfg.seed, SEED_BALANCE))
    sbevs = list(traversal_sbevs(world, route, cfg))
    _, arrays = pool_traversal(iter(sbevs), [], cfg.ae.pool, samples, cfg.augment)
    by_frame = {}
    for s in samples:
        by_frame.setdefault(s.frame_id, []).append(s)
    inputs, ids, poses, orig, fids = [], [], [], [], []
    for sb in sbevs:
        for s in by_frame.get(sb.frame_id, ()):
            for j, (vsb, vrel) in enumerate(augment_sample(sb, s.rel_pose, cfg.augment)):
                inputs.append(grid_to_input(vsb.grid, cfg.ae.pool))
                ids.append(s.node_id)
                poses.append((vrel.x, vrel.y, vrel.theta))
                orig.append(j == 0)
                fids.append(s.frame_id)
    variants = 1 + len(cfg.augment.rotations_deg) + len(cfg.augment.shifts_cells)
    assert len(inputs) == len(samples) * variants > 0
    want = dict(inputs=np.stack(inputs), node_ids=np.array(ids),
                rel_poses=np.array(poses), is_original=np.array(orig),
                frame_ids=np.array(fids))
    return arrays, want


def test_pool_traversal_training_arrays_equal_stacked_rows(pooled_rows):
    arrays, want = pooled_rows
    full = want["inputs"]
    live = np.flatnonzero(full.any(axis=0))
    assert arrays.in_dim == full.shape[1]
    assert arrays.columns.tolist() == live.tolist()
    assert arrays.inputs.flags.c_contiguous
    want = {**want, "inputs": full[:, live]}
    for name, ref in want.items():
        got = getattr(arrays, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    assert {f.name for f in dataclasses.fields(pipeline.TrainingArrays)} == {
        *want, "columns", "in_dim"}


def test_pool_traversal_rebuilt_rows_equal_every_variant(pooled_rows):
    arrays, want = pooled_rows
    rebuilt = full_width(arrays)
    assert rebuilt.shape == want["inputs"].shape
    assert rebuilt.tobytes() == want["inputs"].tobytes()


def test_pool_traversal_drops_only_positive_zero_columns(pooled_rows):
    arrays, want = pooled_rows
    bits = want["inputs"].view(np.uint32)
    dropped = np.setdiff1d(np.arange(arrays.in_dim), arrays.columns)
    # most of the grid lies beyond the camera's view
    assert len(arrays.columns) < len(dropped)
    assert not bits[:, dropped].any()
    assert bits[:, arrays.columns].any(axis=0).all()
    assert arrays.inputs.nbytes == len(arrays.inputs) * len(arrays.columns) * 4


@pytest.mark.parametrize("n", [1, pipeline.COMPACT_ROWS, 2 * pipeline.COMPACT_ROWS + 3])
def test_keep_live_columns_in_place(n):
    # a column with any nonzero bit in any row is kept: -0.0, a subnormal,
    # NaN, and a value in the last row only; the block boundaries fall
    # inside the rows at n > COMPACT_ROWS
    rng = np.random.default_rng(n)
    x = np.zeros((n, 9), np.float32)
    x[:, 1] = rng.random(n, dtype=np.float32)
    x[n // 2, 3] = -0.0
    x[0, 4] = np.float32(1e-45)
    x[-1, 6] = np.nan
    x[-1, 8] = 2.0
    want = x[:, [1, 3, 4, 6, 8]].copy()
    columns = pipeline._keep_live_columns(x)
    assert columns.tolist() == [1, 3, 4, 6, 8]
    assert x.shape == want.shape and x.flags.c_contiguous and x.flags.owndata
    assert x.tobytes() == want.tobytes()


def test_keep_live_columns_of_all_and_of_no_columns():
    x = np.arange(1, 13, dtype=np.float32).reshape(4, 3)
    want = x.copy()
    assert pipeline._keep_live_columns(x).tolist() == [0, 1, 2]
    assert x.tobytes() == want.tobytes()
    x = np.zeros((4, 3), np.float32)
    assert pipeline._keep_live_columns(x).tolist() == []
    assert x.shape == (4, 0)


def test_pool_traversal_peak_is_the_buffer_and_one_block(tiny_cfg, monkeypatch):
    # the compact rows are made inside the full-width buffer: cutting it to
    # the live columns holds one block of full-width rows at most beside it,
    # where a compact copy made beside the buffer would not fit
    cfg = tiny_cfg
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    sbevs = list(traversal_sbevs(world, world.route[:10], cfg))
    samples = [Sample(sb.frame_id, 0, Pose2(0.0, 0.0, 0.0)) for sb in sbevs] * 40
    variants = 1 + len(cfg.augment.rotations_deg) + len(cfg.augment.shifts_cells)
    in_dim = (cfg.grid.size // cfg.ae.pool) ** 2
    n = len(samples) * variants
    block = pipeline.COMPACT_ROWS * in_dim * 4
    held = []
    keep_live_columns = pipeline._keep_live_columns

    def measured(inputs):
        held.append(tracemalloc.get_traced_memory()[0])
        return keep_live_columns(inputs)

    monkeypatch.setattr(pipeline, "_keep_live_columns", measured)
    tracemalloc.start()
    try:
        _, arrays = pool_traversal(iter(sbevs), [], cfg.ae.pool, samples, cfg.augment)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # held before the cut: the full-width buffer and the per-row lists
    assert held[0] >= n * in_dim * 4
    assert peak <= held[0] + block
    assert arrays.inputs.shape == (n, len(arrays.columns))
    assert arrays.inputs.nbytes == n * len(arrays.columns) * 4 > block


def test_pool_traversal_rejects_a_wrong_variant_count(tiny_cfg, monkeypatch):
    cfg = tiny_cfg
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    sbevs = list(traversal_sbevs(world, world.route[:4], cfg))
    samples = [Sample(1, 0, Pose2(0.0, 0.0, 0.0)), Sample(3, 0, Pose2(0.0, 0.0, 0.0))]
    real = pipeline.augment_sample
    for extra in (-1, 1):
        # one variant too few, or one too many, for frame 3
        def augment(sb, rel_pose, aug, extra=extra):
            rows = real(sb, rel_pose, aug)
            if sb.frame_id != 3:
                return rows
            return rows[:-1] if extra < 0 else rows + rows[:1]
        monkeypatch.setattr(pipeline, "augment_sample", augment)
        with pytest.raises(InputError, match="training rows for frame 3"):
            pool_traversal(iter(sbevs), [], cfg.ae.pool, samples, cfg.augment)


def test_pool_traversal_names_missing_frames(tiny_cfg):
    cfg = tiny_cfg
    world = generate_world(derive_seed(cfg.seed, SEED_WORLD), cfg.synth)
    sbevs = traversal_sbevs(world, world.route[:3], cfg)
    with pytest.raises(InputError, match=r"\[7\]"):
        pool_traversal(sbevs, [1, 7], cfg.ae.pool)


def test_run_experiment_builds_only_pooled_sbevs(monkeypatch):
    cfg = tiny_config(**ALL_PASSES)
    built = []
    accumulate = pipeline.accumulate_sbev

    def counting(frames, current, spec, frame_id=0):
        built.append(frame_id)
        return accumulate(frames, current, spec, frame_id=frame_id)

    clouds = []
    cloud = pipeline.ego_cloud
    monkeypatch.setattr(pipeline, "ego_cloud", lambda *a: clouds.append(1) or cloud(*a))
    monkeypatch.setattr(pipeline, "accumulate_sbev", counting)
    rows, art = run_experiment(cfg)
    test_ids = [s.frame_id for s in art.conditions[0].samples]
    train_ids = set(art.arrays.frame_ids.tolist())
    # one S-BEV per pooled frame of each pass, in stream order: the clean
    # pass pools the test and training frames, rain and lane+1.5 the test
    assert built == sorted(set(test_ids) | train_ids) + test_ids + test_ids
    # one ego cloud per frame in the window of a pooled frame
    n = len(art.world.route)
    windowed = [len({f for p in pooled for f in range(max(0, p - ACCUMULATION_WINDOW + 1), p + 1)})
                for pooled in (set(test_ids) | train_ids, test_ids, test_ids)]
    assert len(clouds) == sum(windowed) and sum(windowed) < 3 * n

    # the same run with the filter disabled builds every frame's S-BEV
    built.clear()
    traversal = evaluate.traversal_sbevs
    monkeypatch.setattr(evaluate, "traversal_sbevs",
                        lambda *a, frame_ids, **kw: traversal(*a, **kw))
    clouds.clear()
    rows_all, art_all = run_experiment(cfg)
    assert built == list(range(n)) * 3
    assert len(clouds) == 3 * n
    assert repr(rows) == repr(rows_all)
    for field in dataclasses.fields(art.arrays):
        a = np.asarray(getattr(art.arrays, field.name))
        b = np.asarray(getattr(art_all.arrays, field.name))
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name
    assert len(art.conditions) == len(art_all.conditions) == 3
    for c, c_all in zip(art.conditions, art_all.conditions):
        assert c.inputs.tobytes() == c_all.inputs.tobytes()
        assert (c.name, c.samples, c.globals, c.route) == (
            c_all.name, c_all.samples, c_all.globals, c_all.route)


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


def live_cell_reference(inputs, targets, cfg, seed):
    """The live-cell AE built by hand: the full-width init's live layer-0
    columns and last-layer rows, trained by `nnet.train` on the live columns
    of `targets`, one row per input; returns (net, losses, live)."""
    live = np.flatnonzero(inputs.any(axis=0))
    hidden, in_dim = cfg.hidden, inputs.shape[1]
    dims = [in_dim, *hidden, cfg.latent_dim, *reversed(hidden), in_dim]
    net = nnet.init_net(dims, [cfg.activation] * (len(dims) - 2) + ["linear"],
                        seed=seed, dtype=np.float32)
    first, last = net.layers[0], net.layers[-1]
    net.layers[0] = nnet.Layer(first.weights[:, live].copy(), first.bias, first.activation)
    net.layers[-1] = nnet.Layer(last.weights[live], last.bias[live], last.activation)
    x = inputs[:, live].copy()
    y = targets[:, live].copy()
    trained, losses = nnet.train(net, x, y, cfg.train, seed)
    return trained, losses, live


def test_train_autoencoder_zeroes_only_dead_columns(two_runs):
    cfg, (_, art), _ = two_runs
    arrays = art.arrays
    inputs = full_width(arrays)
    seed = derive_seed(cfg.seed, SEED_AE)
    model, losses = train_autoencoder(inputs, arrays.node_ids, arrays.is_original,
                                      cfg.ae, seed)
    # the run trained the same encoder from the kept columns
    for got, want in zip(model.net.layers, art.trained["BASE"].bundle.ae.net.layers,
                         strict=True):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
    assert losses == art.trained["BASE"].ae_losses
    table, index = _node_means(inputs, arrays.node_ids, arrays.is_original)
    trained, want_losses, live = live_cell_reference(inputs, table[index], cfg.ae, seed)
    assert losses == want_losses
    dead = ~inputs.any(axis=0)
    assert 0 < dead.sum() < inputs.shape[1]
    w0 = model.net.layers[0].weights
    # exactly the dead columns hold +0.0 bits only
    assert np.array_equal(~w0.view(np.uint32).any(axis=0), dead)
    assert w0[:, live].tobytes() == trained.layers[0].weights.tobytes()
    for i, (got, want) in enumerate(zip(model.net.layers, trained.layers)):
        assert got.bias.tobytes() == want.bias.tobytes()
        assert i == 0 or got.weights.tobytes() == want.weights.tobytes()


def test_train_autoencoder_on_live_cells(two_runs, monkeypatch):
    cfg, (_, art), _ = two_runs
    arrays = art.arrays
    ae = dataclasses.replace(cfg.ae, train=dataclasses.replace(cfg.ae.train, epochs=3))
    seed = derive_seed(cfg.seed, SEED_AE)
    init = nnet.init_net([arrays.in_dim, ae.hidden[0]], [ae.activation],
                         seed=seed, dtype=np.float32).layers[0].weights
    shapes = []
    plain_train = nnet.train

    def spy(net, x, y, config, seed):
        shapes.append([layer.weights.shape for layer in net.layers])
        return plain_train(net, x, y, config, seed)

    monkeypatch.setattr(nnet, "train", spy)
    for mode in ("BASE", "AVG", "AUG"):
        keep = arrays.is_original if mode == "AUG" else slice(None)
        x = full_width(arrays, keep)
        model, losses = train_autoencoder(x, arrays.node_ids[keep],
                                          arrays.is_original[keep], ae, seed, mode)
        live = x.any(axis=0)
        n_live = int(live.sum())
        assert 0 < n_live < x.shape[1]
        # layer 0 read, and the decoder reconstructed, the live cells only
        assert shapes.pop() == [(ae.hidden[0], n_live), (ae.latent_dim, ae.hidden[0]),
                                (ae.hidden[0], ae.latent_dim), (n_live, ae.hidden[0])]
        assert len(losses) == 3 and losses[-1] < losses[0]
        # a full-width encoder: dead columns +0.0, every live column trained
        w0 = model.net.layers[0].weights
        assert w0.shape == (ae.hidden[0], x.shape[1])
        assert not w0[:, ~live].view(np.uint32).any()
        assert (w0[:, live] != init[:, live]).any(axis=0).all()
        # a dead input set to a nonzero value leaves every latent as it was
        lit = x.copy()
        lit[:, ~live] = 0.75
        assert (pipeline.embed_batched(model, lit).tobytes()
                == pipeline.embed_batched(model, x).tobytes())


@pytest.mark.parametrize("mode", ["BASE", "AVG", "AUG"])
def test_compact_rows_train_the_full_width_reference(two_runs, mode):
    # every bundle member and loss from the kept columns equals the chain
    # run on the full-width rows: the live-cell AE built by hand, its
    # encoder embedding 1024-row chunks, and the regressor on those latents
    cfg, (_, art), _ = two_runs
    arrays = art.arrays
    keep = arrays.is_original if mode == "AUG" else slice(None)
    inputs = full_width(arrays, keep)
    ids, orig = arrays.node_ids[keep], arrays.is_original[keep]
    if mode == "AUG":
        # its original rows leave some kept columns dead
        assert inputs.any(axis=0).sum() < len(arrays.columns)
    tp = pipeline.train_localizer(art.topo, arrays, mode, cfg, cfg.seed)

    if mode == "AVG":
        targets = inputs
    else:
        table, index = _node_means(inputs, ids, orig)
        targets = table[index]
    net, ae_losses, live = live_cell_reference(inputs, targets, cfg.ae,
                                               derive_seed(cfg.seed, SEED_AE))
    w0 = np.zeros((cfg.ae.hidden[0], arrays.in_dim), np.float32)
    w0[:, live] = net.layers[0].weights
    first = net.layers[0]
    encoder = nnet.DenseNet([nnet.Layer(w0, first.bias, first.activation),
                             *net.layers[1:len(cfg.ae.hidden) + 1]])
    assert tp.ae_losses == ae_losses
    assert len(tp.bundle.ae.net.layers) == len(encoder.layers)
    for got, want in zip(tp.bundle.ae.net.layers, encoder.layers):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
    latents = np.concatenate([embed_vec(tp.bundle.ae, inputs[i:i + 1024])
                              for i in range(0, len(inputs), 1024)])
    assert tp.bundle.index.latents.tobytes() == latents.tobytes()
    assert tp.bundle.index.node_ids.tolist() == ids.tolist()
    reg, reg_losses = train_regressor(latents, ids, arrays.rel_poses[keep], len(art.topo),
                                      cfg.reg, derive_seed(cfg.seed, SEED_REG))
    assert tp.reg_losses == reg_losses
    for got, want in zip(tp.bundle.reg.net.layers, reg.net.layers, strict=True):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


def small_encoder(in_dim, seed=3):
    net = nnet.init_net([in_dim, 8, 4], ["sigmoid", "sigmoid"], seed=seed,
                        dtype=np.float32)
    return AEModel(net, 1)


def test_embed_batched_chunks_and_kept_columns():
    # EMBED_CHUNK rows per encoder pass, the last one short; kept columns
    # rebuilt at full width give the full-width rows' latents bit for bit
    model = small_encoder(30)
    columns = np.arange(1, 30, 3)
    n = 2 * pipeline.EMBED_CHUNK + 5
    full = np.zeros((n, 30), np.float32)
    full[:, columns] = np.random.default_rng(0).random((n, len(columns)), np.float32)
    got = pipeline.embed_batched(model, full)
    want = np.concatenate([embed_vec(model, full[i:i + pipeline.EMBED_CHUNK])
                           for i in range(0, n, pipeline.EMBED_CHUNK)])
    assert got.dtype == np.float32 and got.shape == (n, 4)
    assert got.tobytes() == want.tobytes()
    compact = np.ascontiguousarray(full[:, columns])
    assert pipeline.embed_batched(model, compact, columns).tobytes() == want.tobytes()


def test_embed_batched_of_no_rows():
    # as `nearest_nodes` returns empty arrays for no rows
    model = small_encoder(30)
    index = build_index(np.ones((1, 4), np.float32), [0])
    for inputs, columns in ((np.zeros((0, 30), np.float32), None),
                            (np.zeros((0, 2), np.float32), [4, 7])):
        got = pipeline.embed_batched(model, inputs, columns)
        assert got.dtype == np.float32 and got.shape == (0, 4)
        assert [a.shape for a in nearest_nodes(index, got)] == [(0,), (0,)]


@pytest.mark.parametrize("columns", [[0, 1], [0, 2, 2], [2, 1, 3], [-1, 1, 2], [0, 1, 4],
                                     [[0, 1, 2]]])
def test_train_autoencoder_rejects_bad_columns(tiny_cfg, columns):
    # three stored columns of a 4-wide input: ascending ids in 0..3
    x = np.ones((5, 3), np.float32)
    with pytest.raises(InputError, match="3 ascending ids in 0..3"):
        train_autoencoder(x, [0] * 5, [True] * 5, tiny_cfg.ae, 0, "AVG",
                          columns=columns, in_dim=4)


def test_train_autoencoder_rejects_an_empty_live_set(tiny_cfg):
    x = np.zeros((5, 16), np.float32)
    x[:, 3] = -0.0
    with pytest.raises(InputError, match="live set is empty"):
        train_autoencoder(x, [0] * 5, [True] * 5, tiny_cfg.ae, 0, "AVG")
