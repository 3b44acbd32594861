"""Declared ranges of config dataclass fields, and the one check that enforces them."""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, field, fields

_SIGNS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}


def bounded(default=MISSING, *, kw_only=MISSING, metadata=None, **bounds):
    """A dataclass field whose value must be `gt`, `ge`, `lt` and `le` the given bounds."""
    return field(default=default, kw_only=kw_only, metadata={**(metadata or {}), "bounds": bounds})


def check(obj) -> None:
    """Raise ValueError naming the first field of `obj` out of its range, or a float not finite."""
    for f in fields(obj):
        value, bounds = getattr(obj, f.name), f.metadata.get("bounds", {})
        name = f.metadata.get("option", f.name)  # a field set on the command line names its option
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value is not None and not all(getattr(operator, op)(value, b)
                                         for op, b in bounds.items()):
            rule = " and ".join(f"{_SIGNS[op]} {b}" for op, b in bounds.items())
            raise ValueError(f"{name} must be {rule}, got {value!r}")
