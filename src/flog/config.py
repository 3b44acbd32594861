"""Run configuration: YAML loading, validation, defaults, round-trip dump.

Unknown keys are rejected so typos fail loudly; every omitted key falls
back to a documented default, logged at load time. Every value must have
its field's annotated type: an int is no bool, a float may be written as
an int and is kept as written, `X | None` also takes null, a frozenset is
a YAML list, and a dataclass is a nested mapping checked the same way.
"""

from __future__ import annotations

import logging
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import yaml

from .datasets import SyntheticSpec
from .drain import ParserConfig
from .federated import FedConfig
from .model import ModelShape
from .windows import WindowConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatasetConfig:
    format: str = "synthetic"
    path: str | None = None
    max_samples: int | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        if self.format not in ("thunderbird", "bgl", "synthetic"):
            raise ValueError(f"dataset.format must be thunderbird|bgl|synthetic, got {self.format!r}")
        # Each format reads one of path and synthetic; the other must be absent or null.
        if self.format == "synthetic":
            if self.synthetic is None:
                raise ValueError("dataset.synthetic section required for synthetic format")
            if self.path is not None:
                raise ValueError("dataset.path is read only by the thunderbird and bgl "
                                 "formats, not by format synthetic")
        elif self.path is None:
            raise ValueError("dataset.path required for file-based formats")
        elif self.synthetic is not None:
            raise ValueError(f"dataset.synthetic is read only by format synthetic, "
                             f"not by format {self.format}")
        if self.max_samples is not None and self.max_samples < 1:
            raise ValueError("dataset.max_samples must be >= 1 or null")


@dataclass(frozen=True)
class PrivacyConfig:
    target_epsilon: float = 10.0
    delta: float = 1e-5

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError("privacy.delta must be in (0, 1)")


@dataclass(frozen=True)
class EvalConfig:
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("evaluation.test_fraction must be in (0, 1)")


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig
    parser: ParserConfig
    window: WindowConfig
    model: ModelShape
    federated: FedConfig
    privacy: PrivacyConfig
    evaluation: EvalConfig
    output_dir: str = "out"


_SECTIONS = [name for name, tp in typing.get_type_hints(RunConfig).items() if is_dataclass(tp)]


def _mapping(raw, section: str) -> dict:
    """A config section; an absent or null section is empty."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValueError(f"{section} must be a mapping, got {type(raw).__name__}")
    return raw


def _is(tp, value) -> bool:
    """Whether a YAML scalar fits `tp`: int excludes bool, and float admits int."""
    return type(value) is tp or (tp is float and type(value) is int)


def _value(tp, value, key: str):
    """`value` as the field annotated `tp` holds it, or a ValueError naming the key."""
    if is_dataclass(tp):
        return _build(tp, _mapping(value, key), key)
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _value(args[0], value, key)
    if typing.get_origin(tp) is frozenset:
        if not isinstance(value, list) or not all(_is(args[0], v) for v in value):
            raise ValueError(f"{key} must be a list of {args[0].__name__}, got {value!r}")
        return frozenset(value)
    if not _is(tp, value):
        section, _, name = key.rpartition(".")
        raise ValueError(f"invalid value in {section or 'top level'}: {name} must be "
                         f"{tp.__name__}, got {type(value).__name__} {value!r}")
    return value


def _build(cls, raw: dict, section: str):
    """A `cls` from one config mapping, every value checked by `_value`."""
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ValueError(f"unknown key(s) in {section}: {sorted(unknown)}")
    prefix = f"{section}." if section else ""
    for f in fields(cls):
        # A field the command line sets, such as the training seed, is no config key.
        if f.name in raw and "option" in f.metadata:
            raise ValueError(f"{prefix}{f.name} is not a config key; "
                             f"set it with {f.metadata['option']}")
    omitted = [f for f in fields(cls) if f.name not in raw]
    missing = [f.name for f in omitted if f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing required key(s) in {section}: {missing}")
    for f in omitted:
        log.debug("%s%s omitted; using default", prefix, f.name)
    return cls(**{name: _value(hints[name], v, prefix + name) for name, v in raw.items()})


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ValueError(f"cannot load {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown top-level key(s): {sorted(unknown)}")
    # A section left out takes every default, as a null one does.
    cfg = _build(RunConfig, {**dict.fromkeys(_SECTIONS), **raw}, "")
    if cfg.dataset.format != "synthetic" and not Path(cfg.dataset.path).exists():
        raise ValueError(f"dataset.path does not exist: {cfg.dataset.path}")
    return cfg


def dump_config(cfg: RunConfig) -> str:
    """YAML text that load_config reads back to an equal RunConfig."""

    def plain(v):
        if is_dataclass(v):
            return {f.name: plain(getattr(v, f.name)) for f in fields(v)
                    if "option" not in f.metadata}
        return sorted(v) if isinstance(v, frozenset) else v

    return yaml.safe_dump(plain(cfg), sort_keys=False)
