"""Run configuration: one nested document covering every pipeline stage.

Configs load strictly from JSON (unknown keys are rejected, naming the bad
key path) and serialize with every default materialized, so the resolved
config written next to an output is a complete record of the run. The
synth, augment, ae and reg sections (and ae/reg's `train`) are the dataclasses
their stages read, and check their own values. The camera, grid and classes
sections and each eval.weather entry build their stage's object (Intrinsics,
GridSpec, ClassPolicy, WeatherSpec) when made, so that object's checks, the
one copy of its rules, run at load. `SplitConfig` checks the ratio that
`split_train_test` takes, and `RunConfig` that ae.pool divides grid.size.
Only what the data decides fails later, as an InputError: a keep_set that
keeps no rendered class leaves the autoencoder no live input.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import Intrinsics
from .localizer import AE_MODES, AeConfig, RegConfig
from .sbev import ClassPolicy, GridSpec
from .synthworld import DEFAULT_KEEP_SET, WeatherSpec, WorldSpec
from .topomap import AugmentConfig


def derive_seed(master: int, tag: int) -> int:
    """Stable per-stage seed derivation from the master seed."""
    return int(np.random.SeedSequence([int(master), int(tag)]).generate_state(1)[0])


# stage tags for derive_seed
SEED_WORLD = 1
SEED_SPLIT = 2
SEED_BALANCE = 3
SEED_AE = 4
SEED_REG = 5
SEED_WEATHER = 6
SEED_KF = 7


@dataclass(frozen=True)
class CameraConfig:
    # the even pixels of a 320x240 camera (fx 160, cx 159.5): each intrinsic
    # halved, so pixel (i, j) renders bit for bit as its (2i, 2j) and clean
    # runs match reports made with it byte for byte; hence cx 79.75, not 79.5
    fx: float = 80.0
    fy: float = 80.0
    cx: float = 79.75
    cy: float = 59.75
    width: int = 160
    height: int = 120

    def __post_init__(self):
        self.intrinsics()  # Intrinsics' checks, at load

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy, self.width,
                          self.height)


@dataclass(frozen=True)
class GridConfig:
    size: int = 352
    resolution: float = 0.25
    height_min: float = -2.5
    height_max: float = 6.0

    def __post_init__(self):
        self.grid_spec()  # GridSpec's checks, at load

    def grid_spec(self) -> GridSpec:
        return GridSpec(size=self.size, resolution=self.resolution,
                        height_window=(self.height_min, self.height_max))


@dataclass(frozen=True)
class ClassConfig:
    keep_set: tuple[int, ...] = tuple(sorted(DEFAULT_KEEP_SET))

    def __post_init__(self):
        self.policy()  # ClassPolicy's checks, at load

    def policy(self) -> ClassPolicy:
        return ClassPolicy(keep_set=frozenset(self.keep_set))


@dataclass(frozen=True)
class TopoConfig:
    trans_threshold_m: float = 20.0
    ang_threshold_deg: float = 30.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{f.name} {value} must be finite and > 0")


@dataclass(frozen=True)
class SplitConfig:
    ratio: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:  # also rejects NaN
            raise InputError(f"split ratio {self.ratio} outside (0, 1)")


@dataclass(frozen=True)
class KfConfig:
    q_xy: float = 0.01            # m^2 per second
    q_theta: float = 7.6e-5       # rad^2 per second (~0.5 deg)
    init_sigma_xy: float = 100.0
    init_sigma_theta: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise InputError(f"{f.name} {value} must be finite and >= 0")

    def q(self) -> np.ndarray:
        return np.diag([self.q_xy, self.q_xy, self.q_theta])

    def init_sigma(self) -> np.ndarray:
        return np.diag([self.init_sigma_xy, self.init_sigma_xy,
                        self.init_sigma_theta])


@dataclass(frozen=True)
class WeatherDoc:
    name: str = "clean"
    label_confusion_prob: float = 0.0
    confusion_radius: int = 0
    depth_dropout_prob: float = 0.0
    depth_noise_sigma: float = 0.0
    range_attenuation: float = 0.0

    def __post_init__(self):
        self.weather_spec()  # WeatherSpec's checks, at load

    def is_clean(self) -> bool:
        """No knob perturbs a frame; the clean pass already scores it."""
        return (self.label_confusion_prob == 0 and self.depth_dropout_prob == 0
                and self.depth_noise_sigma == 0 and self.range_attenuation == 0)

    def weather_spec(self) -> WeatherSpec:
        return WeatherSpec(self.label_confusion_prob, self.confusion_radius,
                           self.depth_dropout_prob, self.depth_noise_sigma,
                           self.range_attenuation)


def lane_label(offset: float) -> str:
    """The report's condition label of the pass shifted `offset` m laterally."""
    return f"lane{offset:+g}"


@dataclass(frozen=True)
class EvalConfig:
    modes: tuple[str, ...] = ("BASE",)
    weather: tuple[WeatherDoc, ...] = (WeatherDoc(),)
    lane_offsets_m: tuple[float, ...] = ()
    run_filter: bool = False

    def __post_init__(self):
        for mode in self.modes:
            if mode not in AE_MODES:
                raise InputError(f"mode {mode!r} not one of {AE_MODES}")
        for offset in self.lane_offsets_m:
            if not math.isfinite(offset):
                raise InputError(f"lane offset {offset} must be finite")
        # each label names one condition of the report; 0.0 == -0.0 in a set,
        # and lane_label keeps 6 significant digits, so 1.5 and 1.5000001
        # differ in value but not in label
        names = [w.name for w in self.weather]
        labels = names + [lane_label(offset) for offset in self.lane_offsets_m]
        for what, values in (("mode", self.modes), ("lane offset", self.lane_offsets_m),
                             ("weather name", names), ("condition label", labels)):
            if len(set(values)) != len(values):
                raise InputError(f"duplicate {what} in {list(values)}")
        for w in self.weather:
            if w.name == "clean" and not w.is_clean():
                raise InputError("weather 'clean' must set no perturbation")
            if w.name != "clean" and w.is_clean():
                # the clean pass already scores it, so the run would drop it
                raise InputError(f"weather {w.name!r} sets no perturbation; "
                                 f"only 'clean' may")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    synth: WorldSpec = field(default_factory=WorldSpec)
    camera: CameraConfig = field(default_factory=CameraConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    classes: ClassConfig = field(default_factory=ClassConfig)
    topo: TopoConfig = field(default_factory=TopoConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    ae: AeConfig = field(default_factory=AeConfig)
    reg: RegConfig = field(default_factory=RegConfig)
    kf: KfConfig = field(default_factory=KfConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.grid.size % self.ae.pool:
            raise InputError(f"ae.pool {self.ae.pool} does not divide "
                             f"grid.size {self.grid.size}")


# ---------------------------------------------------------------------------
# strict load / full dump

def _convert(value, hint, path):
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise InputError(f"config {path}: expected object")
        return _from_dict(hint, value, path + ".")
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise InputError(f"config {path}: expected array")
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:  # tuple[X, ...]
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise InputError(f"config {path}: expected {len(args)} items")
        return tuple(_convert(v, a, path) for v, a in zip(value, args))
    if hint in (bool, int, float, str):
        if hint is float and type(value) is int:
            return float(value)
        # bool is an int subclass, but a number field takes no bool
        if not isinstance(value, hint) or (isinstance(value, bool)
                                           and hint is not bool):
            raise InputError(f"config {path}: expected {hint.__name__}, "
                             f"got {type(value).__name__}")
    return value


def _from_dict(cls, doc: dict, prefix: str = ""):
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in names:
            raise InputError(f"unknown config key '{prefix}{key}'")
    kwargs = {f.name: _convert(doc[f.name], hints[f.name], prefix + f.name)
              for f in dataclasses.fields(cls) if f.name in doc}
    try:
        return cls(**kwargs)
    except InputError as e:  # a section's own checks, e.g. WorldSpec's
        section = f" {prefix[:-1]}" if prefix else ""
        raise InputError(f"config{section}: {e}") from None


def config_from_dict(doc: dict) -> RunConfig:
    return _from_dict(RunConfig, doc)


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON ({e})") from None
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config root must be an object")
    return config_from_dict(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def save_resolved_config(path, cfg: RunConfig) -> None:
    with open(path, "w") as f:
        json.dump(config_to_dict(cfg), f, indent=1, sort_keys=True)
        f.write("\n")
