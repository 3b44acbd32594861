"""Run configuration: YAML loading, validation, defaults, round-trip dump.

Unknown keys, and a key given twice in one mapping, are rejected so typos
fail loudly; every omitted key falls back to a documented default, logged
at load time. Every value must have its field's annotated type: an int is
no bool, a float may be written as an int and is kept as written, `X |
None` also takes null, a frozenset is a YAML list, and a dataclass is a
nested mapping checked the same way.
Each int and float must also lie in its field's declared range (`flog.bounds`).
"""

from __future__ import annotations

import logging
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass

import yaml

from .bounds import bounded, check
from .datasets import SyntheticSpec
from .federated import FedConfig
from .model import ModelShape
from .windows import WindowConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatasetConfig:
    """Where the log comes from.

    `format` is `synthetic`, read from the `synthetic` spec, or `thunderbird`
    or `bgl`, read from the file at `path`. Those two name one line layout
    and are read the same way; both are kept so the shipped profiles say
    which log they are for.
    """

    format: str = "synthetic"
    path: str | None = None
    max_samples: int | None = bounded(None, ge=1)
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        check(self)
        if self.format not in ("thunderbird", "bgl", "synthetic"):
            raise ValueError(f"format must be thunderbird|bgl|synthetic, got {self.format!r}")
        # Each format reads one of path and synthetic; the other must be absent or null.
        if self.format == "synthetic":
            if self.synthetic is None:
                raise ValueError("synthetic section required for synthetic format")
            if self.path is not None:
                raise ValueError("path is read only by the thunderbird and bgl "
                                 "formats, not by format synthetic")
        elif self.path is None:
            raise ValueError("path required for file-based formats")
        elif self.synthetic is not None:
            raise ValueError(f"synthetic is read only by format synthetic, "
                             f"not by format {self.format}")


@dataclass(frozen=True)
class PrivacyConfig:
    target_epsilon: float = bounded(10.0, gt=0)
    delta: float = bounded(1e-5, gt=0, lt=1)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class EvalConfig:
    test_fraction: float = bounded(0.2, gt=0, lt=1)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig
    window: WindowConfig
    model: ModelShape
    federated: FedConfig
    privacy: PrivacyConfig
    evaluation: EvalConfig
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.output_dir:  # "" would write every artifact to the working directory
            raise ValueError(f"output_dir must name a directory, got {self.output_dir!r}")


_SECTIONS = [name for name, tp in typing.get_type_hints(RunConfig).items() if is_dataclass(tp)]


def _mapping(raw, section: str) -> dict:
    """A config section, or the root; an absent or null one is empty."""
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
        raise ValueError(f"unknown key(s) in {section or 'top level'}: {sorted(unknown)}")
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
    values = {name: _value(hints[name], v, prefix + name) for name, v in raw.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a key given twice in one mapping; PyYAML keeps the last."""

    def construct_mapping(self, node, deep=False):
        lines = {}
        for key_node, _ in node.value:
            # A merge key (`<<`) is no key of the mapping; PyYAML expands it.
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                if key in lines:
                    raise yaml.constructor.ConstructorError(
                        problem=f"key {key!r} given twice, at lines {lines[key]} and {line}")
                lines[key] = line
        return super().construct_mapping(node, deep)


def load_config(path) -> RunConfig:
    """The RunConfig in the YAML file at `path`, every key checked; reads no other file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except (OSError, yaml.YAMLError) as exc:
        raise ValueError(f"cannot load {path}: {exc}") from exc
    # A section left out takes every default, as a null one does.
    return _build(RunConfig, {**dict.fromkeys(_SECTIONS), **_mapping(raw, "config root")}, "")


def dump_config(cfg: RunConfig) -> str:
    """YAML text that load_config reads back to an equal RunConfig."""

    def plain(v):
        if is_dataclass(v):
            return {f.name: plain(getattr(v, f.name)) for f in fields(v)
                    if "option" not in f.metadata}
        return sorted(v) if isinstance(v, frozenset) else v

    return yaml.safe_dump(plain(cfg), sort_keys=False)
