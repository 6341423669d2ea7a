"""Run configuration: one nested document covering every pipeline stage.

Configs load strictly from JSON (unknown keys are rejected, naming the bad
key path) and serialize with every default materialized, so the resolved
config written next to an output is a complete record of the run.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import nnet
from .errors import InputError
from .geometry import Intrinsics
from .sbev import ClassPolicy, GridSpec
from .synthworld import DEFAULT_KEEP_SET, WeatherSpec, WorldSpec


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
SEED_INDEX = 8


@dataclass(frozen=True)
class CameraConfig:
    fx: float = 160.0
    fy: float = 160.0
    cx: float = 159.5
    cy: float = 119.5
    baseline: float = 0.3
    width: int = 320
    height: int = 240

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy, self.baseline,
                          self.width, self.height)


@dataclass(frozen=True)
class SynthConfig:
    route_length: float = 1200.0
    frame_spacing: float = 0.5
    speed: float = 10.0
    curviness: float = 1.0
    primitive_density: float = 0.15
    clearance: float = 5.5
    max_lateral: float = 20.0
    camera_height: float = 1.5
    max_range: float = 48.0

    def world_spec(self) -> WorldSpec:
        return WorldSpec(route_length=self.route_length,
                         frame_spacing=self.frame_spacing, speed=self.speed,
                         curviness=self.curviness,
                         primitive_density=self.primitive_density,
                         clearance=self.clearance, max_lateral=self.max_lateral,
                         camera_height=self.camera_height,
                         max_range=self.max_range)


@dataclass(frozen=True)
class GridConfig:
    size: int = 352
    resolution: float = 0.25
    height_min: float = -2.5
    height_max: float = 6.0
    stride: int = 2

    def grid_spec(self) -> GridSpec:
        return GridSpec(size=self.size, resolution=self.resolution,
                        height_window=(self.height_min, self.height_max),
                        stride=self.stride)


@dataclass(frozen=True)
class ClassConfig:
    keep_set: tuple[int, ...] = tuple(sorted(DEFAULT_KEEP_SET))
    remap: dict | None = None

    def policy(self) -> ClassPolicy:
        remap = None
        if self.remap:
            try:
                remap = {int(k): int(v) for k, v in self.remap.items()}
            except (TypeError, ValueError):
                raise InputError(f"config classes.remap: class ids must be "
                                 f"integers, got {self.remap}") from None
        return ClassPolicy(keep_set=frozenset(self.keep_set), remap=remap)


@dataclass(frozen=True)
class TopoConfig:
    trans_threshold_m: float = 20.0
    ang_threshold_deg: float = 30.0


@dataclass(frozen=True)
class SplitConfig:
    ratio: float = 0.8


@dataclass(frozen=True)
class AugmentConfigDoc:
    enabled: bool = True
    rotations_deg: tuple[float, ...] = (-5.0, 5.0)
    shifts_cells: tuple[tuple[int, int], ...] = (
        (-4, 0), (4, 0), (0, -4), (0, 4), (0, -12), (0, 12))


@dataclass(frozen=True)
class TrainDoc:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 30

    def train_config(self, seed: int, loss_weights=None) -> nnet.TrainConfig:
        return nnet.TrainConfig(optimizer=self.optimizer,
                                learning_rate=self.learning_rate,
                                batch_size=self.batch_size, epochs=self.epochs,
                                seed=seed, loss_weights=loss_weights)


@dataclass(frozen=True)
class AeConfig:
    hidden: tuple[int, ...] = (512,)
    latent_dim: int = 128
    pool: int = 8
    activation: str = "sigmoid"
    train: TrainDoc = field(default_factory=lambda: TrainDoc(epochs=15))


@dataclass(frozen=True)
class RegConfig:
    hidden: tuple[int, ...] = (256, 128)
    dropout: float = 0.2
    loss_weights: tuple[float, ...] | None = None
    train: TrainDoc = field(default_factory=lambda: TrainDoc(epochs=60))


@dataclass(frozen=True)
class KfConfig:
    q_xy: float = 0.01            # m^2 per second
    q_theta: float = 7.6e-5       # rad^2 per second (~0.5 deg)
    r_floor: float = 1e-4
    init_sigma_xy: float = 100.0
    init_sigma_theta: float = 1.0

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

    def weather_spec(self) -> WeatherSpec:
        return WeatherSpec(self.label_confusion_prob, self.confusion_radius,
                           self.depth_dropout_prob, self.depth_noise_sigma,
                           self.range_attenuation)


@dataclass(frozen=True)
class EvalConfig:
    modes: tuple[str, ...] = ("BASE",)
    weather: tuple[WeatherDoc, ...] = (WeatherDoc(),)
    lane_offsets_m: tuple[float, ...] = ()
    index_max_per_node: int | None = None
    run_filter: bool = False


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    synth: SynthConfig = field(default_factory=SynthConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    classes: ClassConfig = field(default_factory=ClassConfig)
    topo: TopoConfig = field(default_factory=TopoConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    augment: AugmentConfigDoc = field(default_factory=AugmentConfigDoc)
    ae: AeConfig = field(default_factory=AeConfig)
    reg: RegConfig = field(default_factory=RegConfig)
    kf: KfConfig = field(default_factory=KfConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


# ---------------------------------------------------------------------------
# strict load / full dump

def _convert(value, hint, path):
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:  # X | None
        if value is None:
            return None
        arg, = (a for a in typing.get_args(hint) if a is not type(None))
        return _convert(value, arg, path)
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise InputError(f"config {path}: expected object")
        return _from_dict(hint, value, path + ".")
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise InputError(f"config {path}: expected array")
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:  # tuple[X, ...]
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise InputError(f"config {path}: expected {len(args)} items")
        return tuple(_convert(v, a, path) for v, a in zip(value, args))
    if hint in (bool, int, float, str, dict):
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
    return cls(**kwargs)


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
