"""Experiment configuration document: one JSON file per run.

Sections mirror the module types; unknown keys are rejected with the full
field path so typos fail loudly. The raw bytes of the document are hashed
into the run manifest for auditability.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .correlate import HistogramConfig
from .errors import ValidationError
from .sequence import DutyCycleSpec, HardwareProfile
from .simulate import DetectorConfig, SourceConfig


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1
    source: SourceConfig = field(default_factory=SourceConfig)
    signal_detector: DetectorConfig = field(default_factory=DetectorConfig)
    idler_detector: DetectorConfig = field(default_factory=DetectorConfig)
    duty_cycle: DutyCycleSpec = field(default_factory=DutyCycleSpec)
    hardware: HardwareProfile = field(default_factory=HardwareProfile)
    histogram: HistogramConfig = field(default_factory=HistogramConfig)


_SECTION_TYPES = {
    "source": SourceConfig,
    "signal_detector": DetectorConfig,
    "idler_detector": DetectorConfig,
    "duty_cycle": DutyCycleSpec,
    "hardware": HardwareProfile,
    "histogram": HistogramConfig,
}

_TUPLE_FIELDS = {"always_on_channels"}
_INT_KEY_DICTS = {"analog_levels_v"}


def _build_section(cls, data, path):
    if not isinstance(data, dict):
        raise ValidationError("expected an object", field=path)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)}", field=path)
    kwargs = {}
    for key, value in data.items():
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        if key in _INT_KEY_DICTS and isinstance(value, dict):
            value = {int(k): v for k, v in value.items()}
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(str(exc), field=path) from exc
    except TypeError as exc:
        raise ValidationError(str(exc), field=path) from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be an object", field="")
    unknown = set(data) - (set(_SECTION_TYPES) | {"seed"})
    if unknown:
        raise ValidationError(f"unknown section(s) {sorted(unknown)}", field="")
    kwargs = {}
    if "seed" in data:
        if not isinstance(data["seed"], int):
            raise ValidationError("seed must be an integer", field="seed")
        kwargs["seed"] = data["seed"]
    for name, cls in _SECTION_TYPES.items():
        if name in data:
            kwargs[name] = _build_section(cls, data[name], name)
    return ExperimentConfig(**kwargs)


def load_config(path) -> tuple[ExperimentConfig, str]:
    """Parse a config file; returns the config and the SHA-256 of its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}", field=str(path)) from exc
    return config_from_dict(data), digest
