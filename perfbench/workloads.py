"""The two workloads: the BASE/AVG/AUG ablation and online relocalization.

Each workload has a set-up, which run.py repeats twice after calling
`release`, and a timed round, which run.py repeats until the run's seconds
are spent. Every round does the same operations on the same inputs, so its
outputs hash the same.
Both workloads use the default camera (320x240), grid (352 cells) and
network sizes (1936-512-128 autoencoder); only the routes and the epochs
are shorter than the paper configuration.

The benchmark calls `evaluate.run_experiment` and the public functions of
`pipeline`, `localizer`, `fusion` and `topomap`; it keeps no copy of the
program's data path. Outputs are checked against `oracles`, which never
imports the program, outside the timed parts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import statistics
import time

import numpy as np

import oracles
from sbevloc import evaluate, fusion, localizer, pipeline, synthworld
from sbevloc.config import RunConfig, WeatherDoc

AE_EPOCHS = 4
REG_EPOCHS = 15
# moderate rain: label confusion, depth dropout and noise, a 40 m range cut
WEATHER = WeatherDoc("rain", label_confusion_prob=0.02, confusion_radius=2,
                     depth_dropout_prob=0.05, depth_noise_sigma=0.05,
                     range_attenuation=40.0)

ABLATION_ROUTE_M = 70.0
ABLATION_LANE_M = 1.5
ABLATION_MODES = ("BASE", "AVG", "AUG")
# each (mode, condition) pair is scored this often per round: one scoring
# takes ~20 ms, too short to time steadily on a shared box, and the repeats
# must agree
SCORING_REPEATS = 5

# 160 m: per-frame cost follows the boxes in view, and a route with ~24
# boxes varies less from seed to seed than one with ~12
MAP_ROUTE_M = 160.0
# (name, lane offset m, weather): offsets the map never rendered
QUERIES = (("lane+1.5", 1.5, None), ("lane-1.0+rain", -1.0, WEATHER))
# odometry noise, per component: m/s forward, m/s lateral, rad/s yaw rate
ODOM_SIGMA = (0.2, 0.05, 0.005)
# fixed measurement noise of a localization fix: 2 m, 2 degrees
R_FIX = np.diag([2.0 ** 2, 2.0 ** 2, math.radians(2.0) ** 2])
SAVE_LOAD_FRAMES = 8

# oracle tolerances besides the float32 one of `oracles.DenseForward`
NN_RTOL = 1e-4         # near-ties of the 1-NN, float32 distances
COMPOSE_ATOL = 1e-9    # m and rad, SE(2) composition of identical inputs
# node accuracy floor against the brute-force nearest node; chance is 0.25
# with the 4 nodes of `ablation` and 0.125 with the 8 of `relocalize`
ACC_FLOOR = 0.5


class Checks:
    """Property checks that failed in a run, and oracle disagreements."""

    def __init__(self):
        self.failures = []
        self.disagreements = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def disagree(self, message: str) -> None:
        """An operation's output disagrees with an oracle; counted as failed."""
        self.disagreements.append(message)


@dataclasses.dataclass
class Round:
    wall_s: float          # timed phase of the round
    frame_ms: list         # latency samples, ms
    frames: int            # frames (rows) localized
    op_s: list             # time of each localizing call, frame or scoring, s
    attempted: int
    failed: int
    digest: str            # hash of every output of the round


def bench_config(seed: int, route_m: float, **eval_fields) -> RunConfig:
    base = RunConfig(seed=seed)
    return dataclasses.replace(
        base,
        synth=dataclasses.replace(base.synth, route_length=route_m),
        ae=dataclasses.replace(base.ae, train=dataclasses.replace(
            base.ae.train, epochs=AE_EPOCHS)),
        reg=dataclasses.replace(base.reg, train=dataclasses.replace(
            base.reg.train, epochs=REG_EPOCHS)),
        eval=dataclasses.replace(base.eval, **eval_fields))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _bundle_digest(bundle) -> str:
    nets = [bundle.ae.net, bundle.reg.net]
    return _digest(*(a for net in nets for layer in net.layers
                     for a in (layer.weights, layer.bias)),
                   bundle.index.latents, bundle.index.node_ids,
                   [(n.pose.x, n.pose.y, n.pose.theta) for n in bundle.topo.nodes])


def _layers(net, n=None):
    return [(layer.weights, layer.bias, layer.activation)
            for layer in net.layers[:n]]


class BundleOracle:
    """Oracle views of one trained bundle's weights, index and map."""

    def __init__(self, bundle):
        self.encoder = oracles.DenseForward(
            _layers(bundle.ae.net, bundle.ae.encoder_layers))
        self.regressor = oracles.DenseForward(_layers(bundle.reg.net))
        self.pool = bundle.ae.pool
        self.n_nodes = bundle.reg.n_nodes
        self.index_latents = bundle.index.latents.astype(np.float64)
        self.index_ids = bundle.index.node_ids
        self.node_poses = [(n.pose.x, n.pose.y, n.pose.theta)
                           for n in bundle.topo.nodes]
        self.node_xy = [(x, y) for x, y, _ in self.node_poses]

    def latent_ok(self, inputs, latents, input_err=0.0) -> np.ndarray:
        """Per row: the program's latent matches the dense forward."""
        ref, bound = self.encoder(inputs, input_err)
        return np.all(np.abs(ref - latents) <= bound, axis=1)

    def pick_ok(self, latent, node_id: int, distance: float) -> bool:
        _, best, near = oracles.nearest_row(self.index_latents, self.index_ids,
                                            latent, NN_RTOL)
        return (node_id in near and abs(oracles.node_distance(
            self.index_latents, self.index_ids, latent, node_id) - distance)
            <= NN_RTOL * max(best, 1.0))

    def regress(self, node_id: int, latent):
        """Oracle (x, y, theta) relative to the node, and its float32 bound."""
        out, bound = self.regressor(oracles.regression_input(
            node_id, self.n_nodes, latent))
        x, y, th = out[0]
        return (float(x), float(y), oracles.wrap(float(th))), tuple(bound[0])

    def truth_node(self, pose) -> int:
        return oracles.nearest_node(self.node_xy, pose.x, pose.y)


def _within(a, b, bound) -> bool:
    """(x, y, theta) triples agree to per-component bounds, theta wrapped."""
    return (abs(a[0] - b[0]) <= bound[0] and abs(a[1] - b[1]) <= bound[1]
            and abs(oracles.wrap(a[2] - b[2])) <= bound[2])


def _xyt(p):
    return (p.x, p.y, p.theta)


def _mae(pred, truth):
    return (statistics.fmean(abs(p[0] - t[0]) for p, t in zip(pred, truth)),
            statistics.fmean(abs(p[1] - t[1]) for p, t in zip(pred, truth)),
            math.degrees(statistics.fmean(abs(oracles.wrap(p[2] - t[2]))
                                          for p, t in zip(pred, truth))))


def _mae_close(mae, row, bounds) -> bool:
    """An oracle MAE row agrees with the program's within the mean bound.

    A global pose is a rotation of the relative one, so its x and y may each
    stray by the sum of the x and y bounds.
    """
    bx = statistics.fmean(b[0] + b[1] for b in bounds) + COMPOSE_ATOL
    bt = math.degrees(statistics.fmean(b[2] for b in bounds)) + COMPOSE_ATOL
    return _within(mae, (row.mae_x, row.mae_y, row.mae_theta_deg), (bx, bx, bt))


def _check_losses(checks: Checks, label: str, trained) -> None:
    for name, losses in (("AE", trained.ae_losses), ("regressor", trained.reg_losses)):
        checks.expect(losses[-1] < losses[0],
                      f"{label}: {name} last-epoch loss {losses[-1]:.6g} "
                      f"not below the first {losses[0]:.6g}")


def _save_and_load(bundle, out_dir: str):
    """Save, measure and reload a bundle; returns (kB, loaded bundle)."""
    path = os.path.join(out_dir, f"bundle-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    try:
        localizer.save_bundle(path, bundle)
        size = sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
        loaded = localizer.load_bundle(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return size / 1024.0, loaded


# ---------------------------------------------------------------------------

class Ablation:
    """Set-up: pooled inputs of a clean, a rain and a lane-shifted pass.
    Round: train BASE, AVG and AUG, then score every condition of every
    mode with the filter on. Training dominates the round and no frame is
    rendered in it.
    """

    name = "ablation"

    def __init__(self, seed: int, checks: Checks, untraced, out_dir: str):
        self.seed = seed
        self.checks = checks
        self.untraced = untraced
        self.out_dir = out_dir
        self.cfg = bench_config(seed, ABLATION_ROUTE_M, modes=(),
                                weather=(WeatherDoc(), WEATHER),
                                lane_offsets_m=(ABLATION_LANE_M,),
                                run_filter=True)
        self.map_kb = None
        self.quality = {}      # mode -> accuracy and error of the last round
        self._scored = {}      # (mode, condition) -> picks and poses of a round
        self._last = None

    def release(self) -> None:
        """Drop the last set-up's artifacts before the next set-up runs."""
        self.art = None

    def setup(self) -> str:
        _, self.art = evaluate.run_experiment(self.cfg)
        a = self.art.arrays
        return _digest(a.inputs, a.node_ids, a.is_original, a.frame_ids,
                       *(c.inputs for c in self.art.conditions),
                       [[s.node_id for s in c.samples] for c in self.art.conditions])

    def after_setup(self) -> None:
        """The split and node assignment against brute force."""
        art, checks = self.art, self.checks
        node_xy = [(n.pose.x, n.pose.y) for n in art.topo.nodes]
        route = art.world.route
        nearest = [oracles.nearest_node(node_xy, p.x, p.y) for p in route]
        want = oracles.split_test_counts(nearest, len(art.topo), self.cfg.split.ratio)
        for cond in art.conditions:
            got = np.bincount([s.node_id for s in cond.samples],
                              minlength=len(art.topo)).tolist()
            truth = [oracles.nearest_node(node_xy, g.x, g.y) for g in cond.globals]
            if cond.name == "clean" or cond.name == WEATHER.name:
                checks.expect(got == want, f"{cond.name}: per-node test counts "
                              f"{got}, the 80/20 rule gives {want}")
            checks.expect(truth == [s.node_id for s in cond.samples],
                          f"{cond.name}: node labels differ from the nearest node")
        self.rows_per_mode = {
            m: int(len(art.arrays.inputs) if m != "AUG" else art.arrays.is_original.sum())
            for m in ABLATION_MODES}

    def round(self) -> Round:
        art, cfg = self.art, self.cfg
        self._last = None
        t0 = time.perf_counter()
        models = {mode: pipeline.train_localizer(art.topo, art.arrays, mode, cfg,
                                                 self.seed)
                  for mode in ABLATION_MODES}
        pairs = [(mode, cond) for mode in ABLATION_MODES for cond in art.conditions]
        scored, times = [[] for _ in pairs], [[] for _ in pairs]
        # each pass scores every pair once, so the repeats of one pair are
        # spread over the scoring phase and a slow phase of the machine
        # rarely covers all of them; the fastest counts, as in timeit
        for _ in range(SCORING_REPEATS):
            for i, (mode, cond) in enumerate(pairs):
                c0 = time.perf_counter()
                scored[i].append(evaluate.evaluate_condition(
                    models[mode].bundle, cond, cfg, self.seed, run_filter=True))
                times[i].append(time.perf_counter() - c0)
        wall = time.perf_counter() - t0
        cond_time = [min(t) for t in times]
        results = [(mode, models[mode], cond, rows[0])
                   for (mode, cond), rows in zip(pairs, scored)]
        self.checks.expect(all(len({repr(r) for r in rows}) == 1 for rows in scored),
                           "a condition scored twice gave different rows")
        with self.untraced():
            self._scored = {}
            oracle = {mode: BundleOracle(t.bundle) for mode, t in models.items()}
            failed = sum(self._check(mode, trained.bundle, oracle[mode], cond, rows)
                         for mode, trained, cond, rows in results)
            self._check_properties(results)
        # only the BASE bundle and its clean rows are kept for `finish`
        self._last = results[0]
        sizes = [len(cond.inputs) for _, _, cond, _ in results]
        return Round(wall_s=wall,
                     # a row's latency is its share of the call that scored it
                     frame_ms=[1e3 * t / n for t, n in zip(cond_time, sizes)
                               for _ in range(n)],
                     frames=sum(sizes), op_s=cond_time,
                     attempted=SCORING_REPEATS * sum(sizes),
                     failed=SCORING_REPEATS * failed,
                     digest=_digest([dataclasses.astuple(r)
                                     for *_, rows in results for r in rows]))

    def _check(self, mode, bundle, o: BundleOracle, cond, rows) -> int:
        """Per test row oracle checks; returns the rows that disagree."""
        latents = pipeline.embed_batched(bundle.ae, cond.inputs)
        ok = o.latent_ok(cond.inputs, latents)
        picks, perfect_rel, perfect_bound, glob, glob_bound = [], [], [], [], []
        for i, (lat, sample, g) in enumerate(zip(latents, cond.samples, cond.globals)):
            node, dist = localizer.coarse_localize(bundle.index, lat)
            ok[i] &= o.pick_ok(lat, node, dist) and o.truth_node(g) == sample.node_id
            picks.append(node)
            rel, bound = o.regress(node, lat)
            glob.append(oracles.compose(o.node_poses[node], rel))
            glob_bound.append(bound)
            rel, bound = o.regress(sample.node_id, lat)
            perfect_rel.append(rel)
            perfect_bound.append(bound)
        truth = [s.node_id for s in cond.samples]
        perfect, predicted, post_kf = rows
        acc = sum(p == t for p, t in zip(picks, truth)) / len(truth)
        report_wrong = [message for agrees, message in (
            (perfect.node_accuracy == acc,
             f"node accuracy {perfect.node_accuracy} != brute-force {acc}"),
            (_mae_close(_mae(perfect_rel, [_xyt(s.rel_pose) for s in cond.samples]),
                        perfect, perfect_bound),
             "perfect-node MAE disagrees with the dense-forward oracle"),
            (_mae_close(_mae(glob, [_xyt(g) for g in cond.globals]), predicted,
                        glob_bound),
             "predicted-node MAE disagrees with the oracle chain"),
            (1 <= post_kf.n <= len(truth) and all(math.isfinite(v) for v in (
                post_kf.mae_x, post_kf.mae_y, post_kf.mae_theta_deg)),
             "filtered row is empty or not finite"))
            if not agrees]
        for message in report_wrong:
            self.checks.disagree(f"{mode}/{cond.name}: {message}")
        if not ok.all():
            self.checks.disagree(f"{mode}/{cond.name}: {int((~ok).sum())} test rows "
                                 "disagree with the oracles")
        self._scored[(mode, cond.name)] = (picks, truth, glob, cond.globals)
        # a report row that disagrees fails every test row it scores
        return len(truth) if report_wrong else int((~ok).sum())

    def _check_properties(self, results) -> None:
        half = self.cfg.topo.trans_threshold_m / 2.0   # half the node spacing
        for mode in ABLATION_MODES:
            trained = next(t for m, t, _, _ in results if m == mode)
            _check_losses(self.checks, mode, trained)
            scored = [v for (m, _), v in self._scored.items() if m == mode]
            hits = sum(p == t for picks, truth, _, _ in scored
                       for p, t in zip(picks, truth))
            n = sum(len(truth) for _, truth, _, _ in scored)
            self.checks.expect(hits / n >= ACC_FLOOR,
                               f"{mode}: node accuracy {hits / n:.3f} below {ACC_FLOOR}")
            err = statistics.median(math.hypot(p[0] - g.x, p[1] - g.y)
                                    for _, _, glob, globs in scored
                                    for p, g in zip(glob, globs))
            self.quality[mode] = {"node_accuracy": hits / n, "median_error_m": err}
            self.checks.expect(err < half, f"{mode}: median position error "
                               f"{err:.2f} m not under {half} m")

    def finish(self) -> None:
        """Save the last BASE bundle, reload it, and rescore the clean rows."""
        mode, trained, cond, rows = self._last
        with self.untraced():
            self.map_kb, loaded = _save_and_load(trained.bundle, self.out_dir)
            again = evaluate.evaluate_condition(loaded, cond, self.cfg, self.seed,
                                                run_filter=True)
        # repr compares the NaN node accuracy of the filtered row as equal
        self.checks.expect(repr(again) == repr(rows), f"{mode}/{cond.name}: rows "
                           "differ after bundle save and load")

    def expected_counts(self, setups: int, rounds: int) -> dict:
        n = len(self.art.world.route)
        ae_batch = self.cfg.ae.train.batch_size
        reg_batch = self.cfg.reg.train.batch_size
        steps = sum(AE_EPOCHS * math.ceil(r / ae_batch) + REG_EPOCHS * math.ceil(r / reg_batch)
                    for r in self.rows_per_mode.values())
        return {"synthworld.render_calls": setups * 3 * n,
                "nnet.steps": rounds * steps}


# ---------------------------------------------------------------------------

class Relocalize:
    """Set-up: BASE run_experiment on the clean route builds the map and
    trains the localizer. Round: query traversals at lane offsets the map
    never saw, one under rain, run frame by frame through render_stream ->
    sbev_stream -> localize -> kf_predict/kf_update.
    """

    name = "relocalize"

    def __init__(self, seed: int, checks: Checks, untraced, out_dir: str):
        self.seed = seed
        self.checks = checks
        self.untraced = untraced
        self.out_dir = out_dir
        self.cfg = bench_config(seed, MAP_ROUTE_M, modes=("BASE",),
                                weather=(WeatherDoc(),), lane_offsets_m=(),
                                run_filter=True)
        self.map_kb = None
        self.quality = {}      # traversal -> accuracy and errors of the last round

    def release(self) -> None:
        """Drop the last set-up's artifacts before the next set-up runs."""
        self.art = self.trained = None

    def setup(self) -> str:
        rows, art = evaluate.run_experiment(self.cfg)
        self.art = art
        self.trained = art.trained["BASE"]
        return _digest([dataclasses.astuple(r) for r in rows],
                       _bundle_digest(self.trained.bundle))

    def after_setup(self) -> None:
        cfg, art = self.cfg, self.art
        _check_losses(self.checks, "BASE", self.trained)
        self.bundle = self.trained.bundle
        self.oracle = BundleOracle(self.bundle)
        self.k = cfg.camera.intrinsics()
        self.policy = cfg.classes.policy()
        self.grid = cfg.grid.grid_spec()
        self.q = cfg.kf.q()
        dt = cfg.synth.frame_spacing / cfg.synth.speed
        self.traversals = []
        for i, (name, offset, weather) in enumerate(QUERIES):
            poses = synthworld.lane_shift(art.world.route, offset)
            rng = np.random.default_rng([self.seed, 0x0D0, i])
            self.traversals.append((
                name, poses, weather.weather_spec() if weather else None,
                _odometry(poses, dt, rng),
                [self.oracle.truth_node(p) for p in poses]))
        self.rows_per_setup = len(self.trained.arrays.inputs)

    def _sbevs(self, poses, weather, stamp):
        """S-BEVs of one traversal; stamp[0] is set when a frame is handed over."""
        def handed_over(frames):
            for frame in frames:
                stamp[0] = time.perf_counter()
                yield frame
        frames = pipeline.render_stream(self.art.world, poses, self.k, weather=weather,
                                        weather_seed=self.seed)
        return pipeline.sbev_stream(handed_over(frames), self.k, self.policy,
                                    self.grid, self.cfg.synth.camera_height)

    def round(self) -> Round:
        bundle, o = self.bundle, self.oracle
        frame_ms, op_s, failed, frames = [], [], 0, 0
        digest = hashlib.sha256()
        half = self.cfg.topo.trans_threshold_m / 2.0   # half the node spacing
        for name, poses, weather, odom, truth_nodes in self.traversals:
            stamp = [0.0]
            sbevs = self._sbevs(poses, weather, stamp)
            state = None
            hits, raw_err, fused_err, outputs = 0, [], [], []
            for i, truth in enumerate(poses):
                t0 = time.perf_counter()
                sb = next(sbevs)
                fix = localizer.localize(bundle, sb)
                z = (fix.global_pose.x, fix.global_pose.y, fix.global_pose.theta)
                if state is None:
                    state = fusion.KfState(np.array(z), self.cfg.kf.init_sigma())
                else:
                    state = fusion.kf_predict(state, odom[i - 1], self.q)
                state = fusion.kf_update(state, z, R_FIX)
                t1 = time.perf_counter()
                frame_ms.append(1e3 * (t1 - stamp[0]))
                op_s.append(t1 - t0)
                # the oracles run after the traversal, so that their float64
                # weights do not evict the program's between frames
                with self.untraced():
                    outputs.append((oracles.pool_input(sb.grid, o.pool),
                                    localizer.embed(bundle.ae, sb), fix, state))
                hits += fix.node_id == truth_nodes[i]
                raw_err.append(math.hypot(z[0] - truth.x, z[1] - truth.y))
                fused_err.append(math.hypot(state.mu[0] - truth.x, state.mu[1] - truth.y))
                digest.update(repr((fix.node_id, fix.nn_distance, z)).encode())
                digest.update(state.mu.tobytes() + state.sigma.tobytes())
            frames += len(poses)
            with self.untraced():
                failed += self._check_traversal(name, outputs)
            acc = hits / len(poses)
            self.checks.expect(acc >= ACC_FLOOR, f"{name}: node accuracy "
                               f"{acc:.3f} below {ACC_FLOOR}")
            med = statistics.median(raw_err)
            self.checks.expect(med < half, f"{name}: median localized position "
                               f"error {med:.2f} m not under {half} m")
            # reported, not checked: without an innovation gate the filter
            # follows wrong-node fixes, and on some seeds fuses worse
            self.quality[name] = {"node_accuracy": acc, "median_localized_error_m": med,
                                  "median_fused_error_m": statistics.median(fused_err)}
        return Round(wall_s=sum(op_s), frame_ms=frame_ms, frames=frames, op_s=op_s,
                     attempted=frames, failed=failed, digest=digest.hexdigest())

    def _check_traversal(self, name: str, outputs) -> int:
        """Oracle and filter checks per frame; returns the frames that fail."""
        o = self.oracle
        xs = np.stack([x for x, *_ in outputs])
        # the program rounds its pooled input to float32
        latent_ok = o.latent_ok(xs, np.stack([lat for _, lat, _, _ in outputs]),
                                oracles.F32_UNIT_ROUNDOFF * np.abs(xs))
        failed = 0
        for i, (_, latent, fix, state) in enumerate(outputs):
            rel = _xyt(fix.rel_pose)
            want_rel, bound = o.regress(fix.node_id, latent)
            sigma = state.sigma
            ok = bool(
                latent_ok[i]
                and o.pick_ok(latent, fix.node_id, fix.nn_distance)
                and _within(want_rel, rel, bound)
                and _within(oracles.compose(o.node_poses[fix.node_id], rel),
                            _xyt(fix.global_pose), (COMPOSE_ATOL,) * 3)
                and np.all(np.isfinite(state.mu)) and np.all(np.isfinite(sigma))
                and np.array_equal(sigma, sigma.T)
                and np.linalg.eigvalsh(sigma).min() >= -1e-9)
            if not ok:
                self.checks.disagree(f"{name} frame {i}: disagrees with the oracles "
                                     "or the filter state is not finite, symmetric PSD")
            failed += not ok
        return failed

    def finish(self) -> None:
        """Save the bundle, reload it, and localize the first frames with both."""
        name, poses, weather, _, _ = self.traversals[0]
        with self.untraced():
            self.map_kb, loaded = _save_and_load(self.bundle, self.out_dir)
            sbevs = self._sbevs(poses[:SAVE_LOAD_FRAMES], weather, [0.0])
            same = all(localizer.localize(self.bundle, sb) == localizer.localize(loaded, sb)
                       for sb in sbevs)
        self.checks.expect(same, f"{name}: localize differs after bundle save and load")

    def expected_counts(self, setups: int, rounds: int) -> dict:
        n = len(self.art.world.route)
        rows = self.rows_per_setup
        steps = (AE_EPOCHS * math.ceil(rows / self.cfg.ae.train.batch_size)
                 + REG_EPOCHS * math.ceil(rows / self.cfg.reg.train.batch_size))
        return {"synthworld.render_calls": setups * n + rounds * sum(
                    len(t[1]) for t in self.traversals),
                "nnet.steps": setups * steps}


def _odometry(poses, dt: float, rng):
    """Noisy vehicle-frame velocities between consecutive ground-truth poses."""
    out = []
    for a, b in zip(poses, poses[1:]):
        c, s = math.cos(a.theta), math.sin(a.theta)
        dx, dy = b.x - a.x, b.y - a.y
        noise = rng.normal(0.0, ODOM_SIGMA)
        out.append(fusion.OdomSample((c * dx + s * dy) / dt + noise[0],
                                     (-s * dx + c * dy) / dt + noise[1],
                                     oracles.wrap(b.theta - a.theta) / dt + noise[2],
                                     dt))
    return out


WORKLOADS = {w.name: w for w in (Ablation, Relocalize)}
