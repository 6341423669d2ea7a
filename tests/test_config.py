import json
import math

import pytest

from conftest import RAIN, tiny_config
from sbevloc import nnet
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
    return tiny_config(modes=("BASE", "AUG"), weather=(WeatherDoc(), RAIN),
                       lane_offsets_m=(1.5, -1.0), run_filter=True)


def test_dump_load_identity_in_memory():
    cfg = full_config()
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert isinstance(back.reg.hidden, tuple)
    assert isinstance(back.reg.train, nnet.TrainConfig)
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
    # nor are the optimizer, loss weights, index cap, class remap and the
    # pixel stride, which the camera's own resolution replaced
    for doc, path in (({"ae": {"train": {"optimizer": "sgd"}}}, "ae.train.optimizer"),
                      ({"grid": {"stride": 2}}, "grid.stride"),
                      ({"reg": {"loss_weights": [1, 1, 2]}}, "reg.loss_weights"),
                      ({"eval": {"index_max_per_node": 5}}, "eval.index_max_per_node"),
                      ({"classes": {"remap": {"101": 100}}}, "classes.remap")):
        with pytest.raises(InputError, match="'" + path.replace(".", r"\.") + "'"):
            config_from_dict(doc)


# every key of the resolved config; adding or dropping a knob changes this
KEY_PATHS = {
    "seed",
    *(f"synth.{k}" for k in ("route_length", "frame_spacing", "speed", "curviness",
                             "primitive_density", "clearance", "max_lateral",
                             "camera_height", "max_range")),
    *(f"camera.{k}" for k in ("fx", "fy", "cx", "cy", "width", "height")),
    *(f"grid.{k}" for k in ("size", "resolution", "height_min", "height_max")),
    "classes.keep_set",
    "topo.trans_threshold_m", "topo.ang_threshold_deg",
    "split.ratio",
    "augment.rotations_deg", "augment.shifts_cells",
    *(f"ae.{k}" for k in ("hidden", "latent_dim", "pool", "activation")),
    *(f"{s}.train.{k}" for s in ("ae", "reg")
      for k in ("learning_rate", "batch_size", "epochs")),
    "reg.hidden", "reg.dropout",
    *(f"kf.{k}" for k in ("q_xy", "q_theta", "init_sigma_xy", "init_sigma_theta")),
    *(f"eval.{k}" for k in ("modes", "weather", "lane_offsets_m", "run_filter")),
}


def _key_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")
        else:
            yield prefix + key


def test_config_key_paths():
    paths = list(_key_paths(config_to_dict(RunConfig())))
    assert len(paths) == len(KEY_PATHS) == 46
    assert set(paths) == KEY_PATHS


@pytest.mark.parametrize("weather, field", [
    ({"label_confusion_prob": 2.0}, "probability 2.0"),
    ({"confusion_radius": -1}, "confusion_radius"),
    ({"depth_noise_sigma": -0.1}, "depth_noise_sigma"),
    ({"range_attenuation": -40.0}, "range_attenuation"),
    ({"confusion_radius": 10**30}, "confusion_radius must be at most 255"),
])
def test_bad_weather_rejected_at_load(weather, field):
    with pytest.raises(InputError, match=r"config eval\.weather: " + field):
        config_from_dict({"eval": {"weather": [{"name": "x", **weather}]}})


@pytest.mark.parametrize("field", ["depth_noise_sigma", "range_attenuation"])
@pytest.mark.parametrize("value", ["Infinity", "NaN"])
def test_non_finite_weather_rejected_by_load_config(tmp_path, field, value):
    # Python's JSON loader reads Infinity and NaN as floats
    p = tmp_path / "c.json"
    p.write_text('{"eval": {"weather": [{"name": "storm", "%s": %s}]}}' % (field, value))
    with pytest.raises(InputError, match=rf"config eval\.weather: {field} must be "
                                         rf"non-negative and finite, got {value[:3].lower()}"):
        load_config(p)


def test_bad_train_values_rejected_at_load():
    with pytest.raises(InputError, match=r"config reg\.train: learning rate"):
        config_from_dict({"reg": {"train": {"learning_rate": 0}}})
    with pytest.raises(InputError, match=r"config ae\.train: epochs"):
        config_from_dict({"ae": {"train": {"epochs": 0}}})


@pytest.mark.parametrize("doc, message", [
    ({"ae": {"activation": "tanh"}}, r"config ae: activation 'tanh'"),
    ({"ae": {"latent_dim": 0}}, r"config ae: latent_dim"),
    ({"reg": {"dropout": 1.0}}, r"config reg: dropout 1\.0"),
    ({"reg": {"dropout": -0.1}}, r"config reg: dropout -0\.1"),
    ({"eval": {"modes": ["BASE", "FOO"]}}, r"config eval: mode 'FOO'"),
    ({"kf": {"q_xy": -1}}, r"config kf: q_xy -1\.0 must be finite and >= 0"),
    ({"kf": {"init_sigma_xy": -100.0}}, r"config kf: init_sigma_xy -100\.0"),
    ({"kf": {"init_sigma_theta": -1.0}}, r"config kf: init_sigma_theta -1\.0"),
    # R is fixed; a config that still sets the deleted r_floor fails to load
    ({"kf": {"r_floor": 1e-4}}, r"unknown config key 'kf\.r_floor'"),
    ({"kf": {"init_sigma_xy": math.inf}}, r"config kf: init_sigma_xy inf"),
    ({"kf": {"q_theta": math.nan}}, r"config kf: q_theta nan"),
    ({"kf": {"q_xy": math.inf}}, r"config kf: q_xy inf"),
    ({"eval": {"lane_offsets_m": [1.5, math.nan]}}, r"config eval: lane offset nan"),
    ({"eval": {"lane_offsets_m": [-math.inf]}}, r"config eval: lane offset -inf"),
    ({"synth": {"primitive_density": -1}},
     r"config synth: primitive_density must be non-negative and finite, got -1\.0"),
    ({"synth": {"primitive_density": math.nan}},
     r"config synth: primitive_density must be non-negative and finite, got nan"),
    ({"synth": {"clearance": -0.5}}, r"config synth: clearance .* got -0\.5"),
    ({"synth": {"max_lateral": math.inf}}, r"config synth: max_lateral .* got inf"),
    ({"synth": {"curviness": math.nan}}, r"config synth: curviness must be finite"),
    ({"topo": {"trans_threshold_m": math.nan}},
     r"config topo: trans_threshold_m nan must be finite and > 0"),
    ({"topo": {"trans_threshold_m": -20.0}}, r"config topo: trans_threshold_m -20\.0"),
    ({"topo": {"ang_threshold_deg": 0}}, r"config topo: ang_threshold_deg 0\.0"),
    ({"topo": {"ang_threshold_deg": math.inf}}, r"config topo: ang_threshold_deg inf"),
    ({"eval": {"modes": ["BASE", "BASE"]}}, r"config eval: duplicate mode"),
    ({"eval": {"lane_offsets_m": [1.5, 1.5]}}, r"config eval: duplicate lane offset"),
    ({"eval": {"lane_offsets_m": [0.0, -0.0]}}, r"config eval: duplicate lane offset"),
    ({"eval": {"weather": [{"name": "fog", "range_attenuation": 40.0},
                           {"name": "fog", "depth_dropout_prob": 0.1}]}},
     r"config eval: duplicate weather name"),
    ({"eval": {"weather": [{"name": "clean", "depth_noise_sigma": 0.1}]}},
     r"config eval: weather 'clean' must set no perturbation"),
    # distinct values, one report label: lane+1.5
    ({"eval": {"lane_offsets_m": [1.5, 1.5000001]}},
     r"config eval: duplicate condition label in \[.*'lane\+1\.5', 'lane\+1\.5'\]"),
    # each of these used to load and then fail only in the run
    ({"reg": {"hidden": [-3]}}, r"config reg: hidden layer widths \[-3\] must be >= 1"),
    ({"ae": {"hidden": [0]}}, r"config ae: hidden layer widths \[0\] must be >= 1"),
    ({"ae": {"pool": 0}}, r"config ae: pool must be >= 1, got 0"),
    ({"ae": {"pool": 3}}, r"config: ae\.pool 3 does not divide grid\.size 352"),
    ({"grid": {"size": 100}}, r"config: ae\.pool 8 does not divide grid\.size 100"),
    ({"grid": {"size": -1}}, r"config grid: grid size and resolution"),
    ({"grid": {"height_min": 7.0}}, r"config grid: height window"),
    ({"camera": {"cx": 500}}, r"config camera: principal point outside image"),
    ({"camera": {"fx": 0}}, r"config camera: focal lengths"),
    ({"classes": {"keep_set": [0, 300]}}, r"config classes: class ID 0 outside 1\.\.255"),
    ({"split": {"ratio": 1.5}}, r"config split: split ratio 1\.5 outside \(0, 1\)"),
    ({"split": {"ratio": math.nan}}, r"config split: split ratio nan"),
    ({"augment": {"rotations_deg": [5.0, math.nan]}},
     r"config augment: rotations_deg \[5\.0, nan\] must be finite"),
    ({"augment": {"rotations_deg": [-math.inf]}}, r"config augment: rotations_deg"),
    # the clean pass already scores such an entry, so the run dropped it
    ({"eval": {"weather": [{}, {"name": "fog"}]}},
     r"config eval: weather 'fog' sets no perturbation; only 'clean' may"),
    ({"eval": {"weather": [{"name": "fog", "confusion_radius": 3}]}},
     r"config eval: weather 'fog' sets no perturbation"),
    # np.random.SeedSequence takes no negative seed; it raised mid-run
    ({"seed": -1}, r"config: seed -1 must be >= 0"),
    # float(value) raised an untyped OverflowError
    ({"synth": {"route_length": 10**400}},
     r"config synth\.route_length: integer too large for a float"),
    ({"kf": {"q_xy": -10**400}}, r"config kf\.q_xy: integer too large for a float"),
    # nnet.init_net raised numpy's untyped "Maximum allowed dimension exceeded"
    ({"ae": {"latent_dim": 10**20}},
     r"config ae: latent_dim \[100000000000000000000\] must be >= 1 and at most "
     r"numpy's largest dimension, 9223372036854775807"),
    ({"reg": {"hidden": [256, 2**63]}},
     r"config reg: hidden layer widths \[256, 9223372036854775808\] must be >= 1 and at"),
])
def test_bad_section_values_rejected_at_load(doc, message):
    with pytest.raises(InputError, match=message):
        config_from_dict(doc)


@pytest.mark.parametrize("synth", [
    {"route_length": -1}, {"frame_spacing": 0}, {"speed": 0},
    {"route_length": math.nan}, {"camera_height": math.nan}, {"max_range": -5},
    {"camera_height": 0}, {"speed": math.inf}])
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
    ({"reg": {"dropout": "0.2"}}, "reg.dropout"),
    ({"ae": {"activation": 1}}, "ae.activation"),
    ({"classes": {"keep_set": [1.5]}}, "classes.keep_set"),
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


def test_int_accepted_where_float_declared():
    cfg = config_from_dict({"synth": {"speed": 10, "route_length": 60}})
    assert cfg.synth.speed == 10.0 and isinstance(cfg.synth.speed, float)
    train = config_from_dict({"ae": {"train": {"learning_rate": 1}}}).ae.train
    assert train.learning_rate == 1.0 and isinstance(train.learning_rate, float)


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
