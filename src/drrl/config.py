"""Flat `key = value` run configuration with section headers, strict key
validation and env-var overrides."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .graphmodel import BackboneConfig
from .losses import LossSpec
from .trainer import TrainConfig

ENV_PREFIX = "DRRL_"


@dataclass
class DataConfig:
    input: str = ""  # a split directory written by `drrl split`


@dataclass
class OutputConfig:
    dir: str = "runs/out"


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self):
        errors = []
        for section in (self.backbone, self.loss, self.train):
            try:
                section.validate()
            except ValueError as exc:
                errors.append(str(exc))
        if errors:
            raise ValueError("; ".join(errors))
        return self


_SECTIONS = tuple(f.name for f in fields(RunConfig))


def _coerce(raw, example):
    if isinstance(example, int):
        return int(raw)
    if isinstance(example, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"must be a finite number, got {raw!r}")
        return value
    return raw


def _set(cfg, section, key, raw):
    """Set `section.key` of `cfg` from its raw text; returns the error, or None."""
    if section not in _SECTIONS:
        return f"unknown section [{section}]"
    target = getattr(cfg, section)
    if key not in {f.name for f in fields(target)}:
        return f"unknown key {section}.{key}"
    try:
        setattr(target, key, _coerce(raw, getattr(target, key)))
    except ValueError as exc:
        return f"{section}.{key}: {exc}"


def parse_config(text) -> RunConfig:
    """Parse the flat format, collecting every error before raising. The
    keys of an unknown section are not checked: its header is the error."""
    cfg = RunConfig()
    errors = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`, got {line!r}")
        elif section is None:
            errors.append(f"line {lineno}: key outside any [section]")
        elif section in _SECTIONS:
            key, value = (part.strip() for part in line.split("=", 1))
            error = _set(cfg, section, key, value)
            if error:
                errors.append(f"line {lineno}: {error}")
    if errors:
        raise ValueError("config errors: " + "; ".join(errors))
    return cfg


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    """Override any key through DRRL_<SECTION>__<KEY> variables."""
    environ = os.environ if environ is None else environ
    errors = []
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX) or "__" not in name:
            continue
        section, _, key = name[len(ENV_PREFIX):].lower().partition("__")
        error = _set(cfg, section, key, raw)
        if error:
            errors.append(f"{name}: {error}")
    if errors:
        raise ValueError("env override errors: " + "; ".join(errors))
    return cfg


def load_config(path, with_env=True) -> RunConfig:
    cfg = parse_config(Path(path).read_text())
    if with_env:
        apply_env_overrides(cfg)
    return cfg.validate()


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for section in _SECTIONS:
        target = getattr(cfg, section)
        lines.append(f"[{section}]")
        for f in fields(target):
            lines.append(f"{f.name} = {getattr(target, f.name)}")
        lines.append("")
    return "\n".join(lines)
