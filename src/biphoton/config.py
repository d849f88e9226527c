"""Experiment configuration document: one JSON file per run.

Sections mirror the module types, which check each field against its
annotation; unknown keys and bad values are rejected with the section's
path. The raw bytes of the document are hashed into the run manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .correlate import HistogramConfig
from .errors import ValidationError, check_fields
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

    def __post_init__(self):
        check_fields(self)


def _build_section(cls, data, path):
    if not isinstance(data, dict):
        raise ValidationError("expected an object", field=path)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)}", field=path)
    try:
        return cls(**data)
    except ValidationError as exc:
        raise ValidationError(str(exc), field=path) from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config of a parsed document: each section is built by the type
    that is its field's ``default_factory`` in ``ExperimentConfig``."""
    if not isinstance(data, dict):
        raise ValidationError("config root must be an object", field="")
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValidationError(f"unknown section(s) {sorted(unknown)}", field="")
    return ExperimentConfig(**{
        name: value if name == "seed"
        else _build_section(fields[name].default_factory, value, name)
        for name, value in data.items()})


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
