"""Guards on the names that packaging and the benchmark's traced run use."""

import importlib
import pathlib

import pytest

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
