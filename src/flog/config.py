"""Run configuration: YAML loading, validation, defaults, round-trip dump.

Unknown keys are rejected so typos fail loudly; every omitted key falls
back to a documented default, logged at load time.
"""

from __future__ import annotations

import logging
from dataclasses import MISSING, dataclass, fields
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
    min_anomaly_rate_per_node: float | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        if self.format not in ("thunderbird", "bgl", "synthetic"):
            raise ValueError(f"dataset.format must be thunderbird|bgl|synthetic, got {self.format!r}")
        if self.format == "synthetic":
            if self.synthetic is None:
                raise ValueError("dataset.synthetic section required for synthetic format")
        elif self.path is None:
            raise ValueError("dataset.path required for file-based formats")
        if self.max_samples is not None and self.max_samples < 1:
            raise ValueError("dataset.max_samples must be >= 1 or null")
        rate = self.min_anomaly_rate_per_node
        if rate is not None and not (0.0 <= rate <= 1.0):
            raise ValueError("dataset.min_anomaly_rate_per_node must be in [0, 1] or null")


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


def _mapping(raw, section: str) -> dict:
    """A copy of a config section; an absent or null section is empty."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValueError(f"{section} must be a mapping, got {type(raw).__name__}")
    return dict(raw)


def _build(cls, raw: dict, section: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) in {section}: {sorted(unknown)}")
    omitted = [f for f in fields(cls) if f.name not in raw]
    missing = [f.name for f in omitted if f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing required key(s) in {section}: {missing}")
    for f in omitted:
        log.debug("%s.%s omitted; using default", section, f.name)
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ValueError(f"invalid value in {section}: {exc}") from exc


_SECTIONS = {
    "dataset": DatasetConfig,
    "parser": ParserConfig,
    "window": WindowConfig,
    "model": ModelShape,
    "federated": FedConfig,
    "privacy": PrivacyConfig,
    "evaluation": EvalConfig,
}


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ValueError(f"cannot load {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    unknown = set(raw) - set(_SECTIONS) - {"output_dir"}
    if unknown:
        raise ValueError(f"unknown top-level key(s): {sorted(unknown)}")

    sections = {}
    for name, cls in _SECTIONS.items():
        sub = _mapping(raw.get(name), name)
        if name == "dataset" and sub.get("synthetic") is not None:
            synth = _mapping(sub["synthetic"], "dataset.synthetic")
            if "anomaly_template_ids" in synth:
                ids = synth["anomaly_template_ids"]
                if not isinstance(ids, list) or any(type(i) is not int for i in ids):
                    raise ValueError(
                        "dataset.synthetic.anomaly_template_ids must be a list of "
                        f"integers, got {ids!r}"
                    )
                synth["anomaly_template_ids"] = frozenset(ids)
            sub["synthetic"] = _build(SyntheticSpec, synth, "dataset.synthetic")
        sections[name] = _build(cls, sub, name)
    cfg = RunConfig(output_dir=str(raw.get("output_dir", "out")), **sections)
    if cfg.dataset.format != "synthetic" and not Path(cfg.dataset.path).exists():
        raise ValueError(f"dataset.path does not exist: {cfg.dataset.path}")
    return cfg


def dump_config(cfg: RunConfig) -> str:
    """YAML text that load_config reads back to an equal RunConfig."""

    def as_dict(obj):
        out = {}
        for f in fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, SyntheticSpec):
                d = as_dict(v)
                d["anomaly_template_ids"] = sorted(v.anomaly_template_ids)
                v = d
            elif isinstance(v, frozenset):
                v = sorted(v)
            out[f.name] = v
        return out

    doc = {name: as_dict(getattr(cfg, name)) for name in _SECTIONS}
    doc["output_dir"] = cfg.output_dir
    return yaml.safe_dump(doc, sort_keys=False)
