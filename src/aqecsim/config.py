"""Structured configuration files for scenarios and sweeps.

A configuration is a single YAML document with up to five top-level sections:
``device``, ``drive``, ``noise``, ``scenario``, and ``sweep``.  Section keys
map one-to-one onto the corresponding dataclass field names; unknown keys at
any level are hard errors so no physics input can be silently ignored, and so
is a NaN or an infinite number, but for an infinite noise timescale, which
switches its channel off.

Three preset files (the free-decay, four-tone echo, and full correction
parameter columns) ship with the package and can be loaded by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources
from numbers import Integral
from pathlib import Path

import yaml

from .model import LOGICAL_STATES, SWEEP_AXES, DeviceParams, DriveConfig, NoiseModel, named_state

ARMS = ("free_decay", "echo_4qq", "aqec")
_INFINITE_OK = ("t1_ge", "t1_ef", "t_phi", "t1_up", "t_phi_ff")  # noise timescales (us)


class ConfigError(ValueError):
    """Configuration validation failure, with a field-level message."""


def _check_int(name, value, minimum=None):
    """Reject a bool, a float or anything else that is not an integer (of at
    least ``minimum``, if given), naming the field."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class TomographySettings:
    """Per-snapshot tomography request inside a scenario."""

    shots: int = 5000
    seed: int = 0
    confusion: str | None = None
    snapshots: tuple = (0, -1)

    def __post_init__(self):
        _check_int("scenario.tomography.shots", self.shots, 1)
        _check_int("scenario.tomography.seed", self.seed, 0)
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        for idx in self.snapshots:
            _check_int("scenario.tomography.snapshots", idx)


@dataclass(frozen=True)
class Scenario:
    """One experiment arm: initial state, duration, and output requests."""

    name: str
    arm: str
    initial: str
    tmax_us: float
    snapshots: int
    skip_initial_us: float | None = None
    baseline: str | None = None
    tomography: TomographySettings | None = None

    def __post_init__(self):
        if self.arm not in ARMS:
            raise ConfigError(f"scenario.arm: {self.arm!r} is not one of {ARMS}")
        if self.initial not in LOGICAL_STATES:
            raise ConfigError(
                f"scenario.initial: {self.initial!r} is not one of {LOGICAL_STATES}")
        if self.tmax_us < 0:
            raise ConfigError("scenario.tmax_us: must be >= 0")
        _check_int("scenario.snapshots", self.snapshots, 1)
        if (self.snapshots > 1) != (self.tmax_us > 0):
            raise ConfigError("scenario.tmax_us: must be > 0 for several snapshots "
                              "and 0 for one, which is the initial state")
        if self.skip_initial_us is not None and self.skip_initial_us < 0:
            raise ConfigError("scenario.skip_initial_us: must be >= 0")
        for idx in self.tomography.snapshots if self.tomography else ():
            if not -self.snapshots <= idx < self.snapshots:
                raise ConfigError(f"scenario.tomography.snapshots: index {idx} is "
                                  f"outside [-{self.snapshots}, {self.snapshots})")

    @property
    def fit_skip_us(self):
        """Fit skip window: explicit value, else 1.5 us for the correcting arm."""
        if self.skip_initial_us is not None:
            return self.skip_initial_us
        return 1.5 if self.arm == "aqec" else 0.0


@dataclass(frozen=True)
class SweepSpec:
    """Drive-frequency offset sweep request."""

    axis: str
    start: float
    stop: float
    num: int
    tmax_us: float
    snapshots: int
    initial: str = "eg00"

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis: unknown axis {self.axis!r}")
        _check_int("sweep.num", self.num, 1)
        if self.tmax_us <= 0:
            raise ConfigError("sweep.tmax_us: must be > 0")
        # the fringe estimate needs at least 4 samples per offset
        _check_int("sweep.snapshots", self.snapshots, 4)
        try:
            named_state(self.initial)
        except ValueError as exc:
            raise ConfigError(f"sweep.initial: {self.initial!r} names no logical, "
                              f"error or basis state ({exc})") from None


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed configuration document."""

    device: DeviceParams
    drive: DriveConfig
    noise: NoiseModel
    scenario: Scenario | None = None
    sweep: SweepSpec | None = None


_REQUIRED_DRIVES = {
    # arm -> drive fields that must be nonzero
    "free_decay": (),
    "echo_4qq": ("w_r", "w_b"),
    "aqec": ("w_r", "w_b", "nu_r", "nu_b", "omega_qr1", "omega_qr2"),
}


def _build(section, cls, data):
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}; "
                          f"allowed keys are {sorted(allowed)}")
    coerced = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    try:
        obj = cls(**coerced)
    except ConfigError:
        raise  # already names its field
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    for f in fields(obj):
        value = getattr(obj, f.name)
        allowed = (math.inf,) if f.name in _INFINITE_OK else ()
        if any(isinstance(v, float) and not math.isfinite(v) and v not in allowed
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{section}.{f.name}: must be finite, got {value!r}")
    return obj


def _parse_document(doc, source):
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a mapping of sections")
    known = {"device", "drive", "noise", "scenario", "sweep"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{source}: unknown sections {sorted(unknown)}; "
                          f"allowed sections are {sorted(known)}")
    for required in ("device", "noise"):
        if required not in doc:
            raise ConfigError(f"{source}: missing required section {required!r}")

    device = _build("device", DeviceParams, doc["device"])
    drive = _build("drive", DriveConfig, doc.get("drive", {}))
    noise = _build("noise", NoiseModel, doc["noise"])

    scenario = None
    if "scenario" in doc:
        sdata = dict(doc["scenario"]) if isinstance(doc["scenario"], dict) else doc["scenario"]
        if isinstance(sdata, dict) and "tomography" in sdata:
            traw = sdata.pop("tomography")
            if traw in (None, "off", False):
                sdata["tomography"] = None
            else:
                sdata["tomography"] = _build("scenario.tomography",
                                             TomographySettings, traw)
        scenario = _build("scenario", Scenario, sdata)
        missing = [name for name in _REQUIRED_DRIVES[scenario.arm]
                   if getattr(drive, name) == 0.0]
        if missing:
            raise ConfigError(
                f"scenario.arm {scenario.arm!r} requires nonzero drive fields "
                f"{missing}")
        if scenario.arm == "free_decay":
            active = [name for name in ("w_r", "w_b", "omega_qr1", "omega_qr2")
                      if getattr(drive, name) != 0.0]
            if active:
                raise ConfigError(
                    f"scenario.arm 'free_decay' must not set drive fields {active}")

    sweep = None
    if "sweep" in doc:
        sweep = _build("sweep", SweepSpec, doc["sweep"])

    return RunConfig(device, drive, noise, scenario, sweep)


def load_config(path):
    """Parse and validate a configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        # libyaml's parser when PyYAML was built with it, the same safe loader otherwise
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: malformed document: {exc}") from exc
    return _parse_document(doc, str(path))


def preset_path(name):
    """Filesystem path of a bundled preset configuration."""
    ref = resources.files("aqecsim").joinpath(f"presets/{name}.yaml")
    if not ref.is_file():
        available = sorted(p.name[:-5] for p in
                           resources.files("aqecsim").joinpath("presets").iterdir()
                           if p.name.endswith(".yaml"))
        raise ConfigError(f"unknown preset {name!r}; available: {available}")
    return Path(str(ref))


def load_preset(name):
    """Load one of the bundled parameter-column presets."""
    return load_config(preset_path(name))
