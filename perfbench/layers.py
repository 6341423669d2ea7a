"""The program's layers as the traced run sees them.

`targets` lists every public function the traced run wraps, each with the
note its span keeps; `layer_metrics` turns the spans into the per-layer
metrics. Functions that take a batch are reported per row, so that a batch
call and a single-row call read on one scale.
"""

from __future__ import annotations

import statistics
import weakref

import numpy as np

from tracing import roots, self_times


def _rows(x) -> int:
    return x.shape[0] if np.ndim(x) == 2 else 1


class SbevUse:
    """Counts S-BEVs built and the share of them later pooled into inputs."""

    def __init__(self):
        self._built = weakref.WeakValueDictionary()  # id(grid) -> grid

    def built(self, args, kwargs, result):
        self._built[id(result.grid)] = result.grid
        return None

    def pooled(self, args, kwargs, result):
        grid = args[0] if args else kwargs["grid"]
        if self._built.get(id(grid)) is grid:
            del self._built[id(grid)]
            return 1
        return 0


def _forward_note(args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return [mode, _rows(args[1])]


def targets(use: SbevUse):
    """(module, function, note) for every function the traced run wraps."""
    return (
        ("synthworld", "render_frame",
         lambda a, k, r: [a[1].x, a[1].y, a[1].theta]),
        ("synthworld", "perturb_weather", None),
        ("pipeline", "render_stream", None),
        ("pipeline", "sbev_stream", None),
        ("pipeline", "ego_cloud", None),
        ("pipeline", "embed_batched", None),
        ("pipeline", "train_localizer", None),
        ("sbev", "accumulate_sbev", use.built),
        ("sbev", "rasterize_bev", lambda a, k, r: len(a[0])),
        ("topomap", "augment_sample", lambda a, k, r: len(r)),
        ("topomap", "rotate_grid", None),
        ("nnet", "forward", _forward_note),
        ("nnet", "backward", None),
        ("nnet", "optimizer_step", None),
        ("localizer", "grid_to_input", use.pooled),
        ("localizer", "embed_vec", lambda a, k, r: _rows(a[1])),
        ("localizer", "coarse_localize", None),
        ("localizer", "fine_localize", None),
        ("localizer", "localize", None),
        ("localizer", "build_index", lambda a, k, r: len(r)),
        ("localizer", "train_autoencoder", None),
        ("localizer", "train_regressor", None),
        ("evaluate", "_batch_fine", lambda a, k, r: len(r)),
        ("evaluate", "evaluate_condition", None),
        ("evaluate", "run_experiment", None),
        ("fusion", "kf_predict", None),
        ("fusion", "kf_update", None),
        ("fusion", "fuse_trajectory", None),
    )


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(names, spans):
    """name -> (value, unit, calls) from the spans of one traced run."""
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(names[span[0]], []).append(i)
    selfs = self_times(spans)
    top = roots(spans)

    def calls(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_call(name, scale, per_row=False, use_self=False, keep=None):
        idx = [i for i in calls(name) if keep is None or keep(spans[i][4])]
        vals = [(selfs[i] if use_self else dur(i)) * scale
                / (spans[i][4] if per_row else 1) for i in idx]
        return _median(vals), len(idx)

    def per_phase(name, reduce):
        """reduce(notes of one top-level span), median over those spans."""
        groups = {}
        for i in calls(name):
            groups.setdefault(top[i], []).append(spans[i][4])
        vals = [reduce(notes) for notes in groups.values()]
        return _median(vals), len(calls(name))

    def fine_rows():
        single = [dur(i) * 1e3 for i in calls("localizer.fine_localize")]
        batch = [dur(i) * 1e3 / spans[i][4] for i in calls("evaluate._batch_fine")]
        return _median(single + batch), len(single) + len(batch)

    def train(note):
        return note[0] == "train"

    built = len(calls("sbev.accumulate_sbev"))
    pooled = sum(spans[i][4] for i in calls("localizer.grid_to_input"))
    eval_rows = [dur(i) * 1e3 / spans[i][4][1] for i in calls("nnet.forward")
                 if spans[i][4][0] == "eval"]
    out = {
        "synthworld.render_ms": per_call("synthworld.render_frame", 1e3),
        "synthworld.weather_ms": per_call("synthworld.perturb_weather", 1e3),
        "synthworld.renders_per_pose": per_phase(
            "synthworld.render_frame",
            lambda notes: len(notes) / len({tuple(n) for n in notes})),
        "synthworld.render_calls": (len(calls("synthworld.render_frame")),
                                    len(calls("synthworld.render_frame"))),
        "pipeline.ego_cloud_ms": per_call("pipeline.ego_cloud", 1e3),
        "pipeline.train_localizer_s": per_call("pipeline.train_localizer", 1.0),
        "sbev.accumulate_ms": per_call("sbev.accumulate_sbev", 1e3, use_self=True),
        "sbev.rasterize_ms": per_call("sbev.rasterize_bev", 1e3),
        "sbev.points_per_sbev": (_median([spans[i][4] for i in
                                          calls("sbev.rasterize_bev")]), built),
        "sbev.use_ratio": (pooled / built if built else 0.0, built),
        "topomap.augment_ms": per_call("topomap.augment_sample", 1e3),
        "topomap.rotate_ms": per_call("topomap.rotate_grid", 1e3),
        "topomap.training_rows": per_phase("topomap.augment_sample", sum),
        "nnet.forward_ms": per_call("nnet.forward", 1e3, keep=train),
        "nnet.backward_ms": per_call("nnet.backward", 1e3),
        "nnet.step_ms": per_call("nnet.optimizer_step", 1e3),
        "nnet.steps": (len(calls("nnet.optimizer_step")),
                       len(calls("nnet.optimizer_step"))),
        "nnet.eval_forward_ms": (_median(eval_rows), len(eval_rows)),
        "localizer.pool_ms": per_call("localizer.grid_to_input", 1e3),
        "localizer.embed_ms": per_call("localizer.embed_vec", 1e3, per_row=True),
        "localizer.coarse_ms": per_call("localizer.coarse_localize", 1e3),
        "localizer.fine_ms": fine_rows(),
        "localizer.index_rows": (_median([spans[i][4] for i in
                                          calls("localizer.build_index")]),
                                 len(calls("localizer.build_index"))),
        "localizer.ae_train_s": per_call("localizer.train_autoencoder", 1.0),
        "localizer.reg_train_s": per_call("localizer.train_regressor", 1.0),
        "fusion.predict_ms": per_call("fusion.kf_predict", 1e3),
        "fusion.update_ms": per_call("fusion.kf_update", 1e3),
        "fusion.fuse_s": per_call("fusion.fuse_trajectory", 1.0),
        "evaluate.condition_s": per_call("evaluate.evaluate_condition", 1.0),
        "evaluate.experiment_s": per_call("evaluate.run_experiment", 1.0),
    }
    return {name: (value, UNITS[name], n) for name, (value, n) in out.items()}


UNITS = {
    "synthworld.render_ms": "ms",
    "synthworld.weather_ms": "ms",
    "synthworld.renders_per_pose": "ratio",
    "synthworld.render_calls": "count",
    "pipeline.ego_cloud_ms": "ms",
    "pipeline.train_localizer_s": "s",
    "sbev.accumulate_ms": "ms",
    "sbev.rasterize_ms": "ms",
    "sbev.points_per_sbev": "count",
    "sbev.use_ratio": "ratio",
    "topomap.augment_ms": "ms",
    "topomap.rotate_ms": "ms",
    "topomap.training_rows": "count",
    "nnet.forward_ms": "ms",
    "nnet.backward_ms": "ms",
    "nnet.step_ms": "ms",
    "nnet.steps": "count",
    "nnet.eval_forward_ms": "ms",
    "localizer.pool_ms": "ms",
    "localizer.embed_ms": "ms",
    "localizer.coarse_ms": "ms",
    "localizer.fine_ms": "ms",
    "localizer.index_rows": "count",
    "localizer.ae_train_s": "s",
    "localizer.reg_train_s": "s",
    "fusion.predict_ms": "ms",
    "fusion.update_ms": "ms",
    "fusion.fuse_s": "s",
    "evaluate.condition_s": "s",
    "evaluate.experiment_s": "s",
}
