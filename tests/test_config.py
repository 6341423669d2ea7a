import dataclasses
import json
import math

import pytest

from conftest import RAIN, tiny_config
from sbevloc.config import (
    RunConfig,
    WeatherDoc,
    config_from_dict,
    config_to_dict,
    load_config,
    save_resolved_config,
)
from sbevloc.errors import InputError


def full_config() -> RunConfig:
    """A config that sets every non-scalar field kind the loader converts."""
    cfg = tiny_config(modes=("BASE", "AUG"), weather=(WeatherDoc(), RAIN),
                      lane_offsets_m=(1.5, -1.0), index_max_per_node=5,
                      run_filter=True)
    return dataclasses.replace(
        cfg,
        classes=dataclasses.replace(cfg.classes, remap={"101": 100}),
        reg=dataclasses.replace(cfg.reg, loss_weights=(1.0, 1.0, 2.0)))


def test_dump_load_identity_in_memory():
    cfg = full_config()
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert isinstance(back.reg.loss_weights, tuple)
    assert back.eval.weather[1] == RAIN


def test_dump_load_identity_through_file(tmp_path):
    cfg = full_config()
    p = tmp_path / "config.json"
    save_resolved_config(p, cfg)
    assert load_config(p) == cfg


def test_unknown_key_names_path():
    with pytest.raises(InputError, match=r"'synth\.route_lenght'"):
        config_from_dict({"synth": {"route_lenght": 10.0}})
    with pytest.raises(InputError, match=r"'eval\.weather\.nme'"):
        config_from_dict({"eval": {"weather": [{"nme": "fog"}]}})
    # the stereo baseline and the augmentation switch are no longer options
    with pytest.raises(InputError, match=r"'camera\.baseline'"):
        config_from_dict({"camera": {"baseline": 0.3}})
    with pytest.raises(InputError, match=r"'augment\.enabled'"):
        config_from_dict({"augment": {"enabled": True}})


@pytest.mark.parametrize("synth", [
    {"route_length": -1}, {"frame_spacing": 0}, {"speed": 0},
    {"route_length": math.nan}])
def test_bad_synth_values_rejected_at_load(synth):
    with pytest.raises(InputError, match=r"config synth: .* must be positive"):
        config_from_dict({"synth": synth})


def test_weather_entries_must_be_objects():
    with pytest.raises(InputError, match=r"eval\.weather: expected object"):
        config_from_dict({"eval": {"weather": ["rain"]}})


@pytest.mark.parametrize("doc, path", [
    ({"ae": {"train": {"epochs": "3"}}}, "ae.train.epochs"),
    ({"ae": {"train": {"epochs": 3.0}}}, "ae.train.epochs"),
    ({"ae": {"train": {"epochs": True}}}, "ae.train.epochs"),
    ({"synth": {"speed": False}}, "synth.speed"),
    ({"synth": {"speed": "10"}}, "synth.speed"),
    ({"eval": {"run_filter": 1}}, "eval.run_filter"),
    ({"eval": {"index_max_per_node": 2.5}}, "eval.index_max_per_node"),
    ({"ae": {"activation": 1}}, "ae.activation"),
    ({"classes": {"remap": [1, 2]}}, "classes.remap"),
    ({"eval": {"weather": [{"depth_noise_sigma": "0.1"}]}},
     "eval.weather.depth_noise_sigma"),
    ({"eval": {"lane_offsets_m": ["1.5"]}}, "eval.lane_offsets_m"),
    ({"eval": {"modes": "BASE"}}, "eval.modes"),
    ({"ae": {"hidden": [512.0]}}, "ae.hidden"),
    ({"augment": {"shifts_cells": [[4]]}}, "augment.shifts_cells"),
    ({"augment": {"shifts_cells": [[4, "0"]]}}, "augment.shifts_cells"),
])
def test_mistyped_scalars_rejected_with_path(doc, path):
    with pytest.raises(InputError, match=path.replace(".", r"\.") + ":"):
        config_from_dict(doc)


def test_remap_ids_must_be_integers():
    cfg = config_from_dict({"classes": {"remap": {"101": 100}}})
    assert cfg.classes.policy().remap == {101: 100}
    bad = config_from_dict({"classes": {"remap": {"tree": 100}}})
    with pytest.raises(InputError, match=r"classes\.remap"):
        bad.classes.policy()


def test_int_accepted_where_float_declared():
    cfg = config_from_dict({"synth": {"speed": 10, "route_length": 60}})
    assert cfg.synth.speed == 10.0 and isinstance(cfg.synth.speed, float)
    assert config_from_dict({"eval": {"index_max_per_node": None}}) == RunConfig()


def test_load_config_rejects_bad_files(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        load_config(p)
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(InputError, match="root must be an object"):
        load_config(p)
    with pytest.raises(InputError):
        load_config(tmp_path / "missing.json")
