"""Guards on the names that packaging and the benchmark's traced run use."""

import ast
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from sbevloc import nnet
from sbevloc.config import WeatherDoc
from sbevloc.fusion import KfState, OdomSample, kf_predict
from sbevloc.geometry import Intrinsics
from sbevloc.localizer import localize, save_bundle
from sbevloc.sbev import ClassPolicy, GridSpec, SBev
from sbevloc.synthworld import WeatherSpec
from test_localizer import make_bundle

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, func = target.split(":")
        assert callable(getattr(importlib.import_module(module), func))


def test_traced_benchmark_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    targets = layers.targets(layers.SbevUse())
    assert targets
    for module, func, _ in targets:
        mod = importlib.import_module(f"sbevloc.{module}")
        assert callable(getattr(mod, func, None)), f"sbevloc.{module}.{func}"


def test_benchmark_workload_attributes_exist():
    # perfbench/workloads.py reads these as `module.name`; an untraced one,
    # such as localizer.embed, is otherwise resolved only by the benchmark
    modules = {"evaluate", "fusion", "localizer", "pipeline", "synthworld"}
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("localizer", "embed") in read and ("synthworld", "lane_shift") in read
    for module, name in sorted(read):
        mod = importlib.import_module(f"sbevloc.{module}")
        assert hasattr(mod, name), f"sbevloc.{module}.{name}"


def test_benchmark_modules_import(monkeypatch):
    # perfbench/ and microbench/ sit outside testpaths; a name they import
    # from sbevloc that goes away would otherwise fail no tier-1 test
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    cfg = workloads.bench_config(1, workloads.MAP_ROUTE_M)
    assert cfg.synth.route_length == workloads.MAP_ROUTE_M
    # the epoch override lands on the objects the trainers read
    for train, epochs in ((cfg.ae.train, workloads.AE_EPOCHS),
                          (cfg.reg.train, workloads.REG_EPOCHS)):
        assert isinstance(train, nnet.TrainConfig)
        assert train.epochs == epochs
    spec = importlib.util.spec_from_file_location(
        "sbevloc_microbench_layers", ROOT / "microbench" / "test_layers.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_benchmark_config_methods_return_stage_types(monkeypatch):
    # perfbench/workloads.py builds its stage objects through these config
    # methods; otherwise only the benchmark's traced run calls them
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    cfg = workloads.bench_config(1, workloads.MAP_ROUTE_M)
    assert isinstance(cfg.camera.intrinsics(), Intrinsics)
    assert isinstance(cfg.grid.grid_spec(), GridSpec)
    assert isinstance(cfg.classes.policy(), ClassPolicy)
    assert isinstance(workloads.WEATHER, WeatherDoc)
    assert isinstance(workloads.WEATHER.weather_spec(), WeatherSpec)
    assert isinstance(WeatherDoc().weather_spec(), WeatherSpec)
    # the filter takes them as its Q and initial sigma
    state = KfState(np.zeros(3), cfg.kf.init_sigma())
    assert isinstance(kf_predict(state, OdomSample(10.0, 0.0, 0.0, 0.05), cfg.kf.q()),
                      KfState)


def test_benchmark_map_kb_is_the_bundle_file(monkeypatch, tmp_path):
    # the benchmark's map_kb adds up the files that save_bundle leaves in its
    # directory; it must be the one bundle.npz, and the reload must localize
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    bundle = make_bundle()
    save_bundle(tmp_path / "saved", bundle)
    kb, loaded = workloads._save_and_load(bundle, str(tmp_path))
    assert kb == (tmp_path / "saved" / "bundle.npz").stat().st_size / 1024
    grids = np.random.default_rng(22).integers(0, 200, (4, 32, 32)).astype(np.uint8)
    for grid in grids:
        assert localize(loaded, SBev(grid, 0.25)) == localize(bundle, SBev(grid, 0.25))
