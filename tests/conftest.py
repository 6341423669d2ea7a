import dataclasses

import pytest

from sbevloc.config import RunConfig, WeatherDoc

RAIN = WeatherDoc("rain", label_confusion_prob=0.02, confusion_radius=2,
                  depth_dropout_prob=0.05, depth_noise_sigma=0.05)


def tiny_config(**eval_fields) -> RunConfig:
    """A 40 m route seen by an 80x60 camera, every other pixel of a 160x120
    one, on a 176-cell grid, with 1 AE and 2 regressor epochs: about a
    second a run."""
    base = RunConfig(seed=5)
    return dataclasses.replace(
        base,
        synth=dataclasses.replace(base.synth, route_length=40.0),
        camera=dataclasses.replace(base.camera, fx=40.0, fy=40.0, cx=39.75,
                                   cy=29.75, width=80, height=60),
        grid=dataclasses.replace(base.grid, size=176, resolution=0.5),
        ae=dataclasses.replace(base.ae, train=dataclasses.replace(
            base.ae.train, epochs=1)),
        reg=dataclasses.replace(base.reg, train=dataclasses.replace(
            base.reg.train, epochs=2)),
        eval=dataclasses.replace(base.eval, **eval_fields))


@pytest.fixture
def tiny_cfg():
    return tiny_config()
