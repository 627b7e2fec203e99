"""Declared bounds of the model parameters.

A bounded dataclass field states its bound once, as the JSON-schema
fragment in its metadata: ``x_s: float = field(default=0.05,
metadata=OPEN_FRACTION)``.  :func:`check_bounds` tests those fragments when
the dataclass is built, and :mod:`lyosim.params` uses the same fragment as
the schema of the scenario key read into the field.
"""

from __future__ import annotations

import operator
from dataclasses import fields
from functools import cache

import numpy as np

from .errors import ConfigurationError

__all__ = ["POS", "NONNEG", "FRACTION", "OPEN_FRACTION", "UNIT", "nullable", "check_bounds"]

POS = {"type": "number", "exclusiveMinimum": 0}
NONNEG = {"type": "number", "minimum": 0}
FRACTION = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
OPEN_FRACTION = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
UNIT = {"type": "number", "minimum": 0, "maximum": 1}

# schema keyword -> (test a value must pass, its symbol for messages)
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "exclusiveMinimum": (operator.gt, ">"),
    "maximum": (operator.le, "<="),
    "exclusiveMaximum": (operator.lt, "<"),
}


def nullable(schema: dict) -> dict:
    """``schema`` or null."""
    return {"oneOf": [schema, {"type": "null"}]}


@cache
def _bounded_fields(cls: type) -> tuple:
    """(name, nullable, bounds) of each field of ``cls`` with a schema."""
    out = []
    for f in fields(cls):
        schema = f.metadata
        if not schema:
            continue
        is_nullable = "oneOf" in schema
        if is_nullable:
            schema = schema["oneOf"][0]
        out.append((f.name, is_nullable,
                    tuple((*_BOUNDS[k], schema[k]) for k in _BOUNDS if k in schema)))
    return tuple(out)


def check_bounds(obj) -> None:
    """Raise :class:`ConfigurationError` for the first field of the
    dataclass ``obj`` outside the bound its schema declares.  Each test is
    written so that NaN fails it; an array must pass it everywhere."""
    for name, is_nullable, bounds in _bounded_fields(type(obj)):
        value = getattr(obj, name)
        if value is None and is_nullable:
            continue
        for test, symbol, bound in bounds:
            ok = test(value, bound)
            if ok is not True and not np.all(ok):  # np.all only for arrays
                raise ConfigurationError(
                    f"{name} = {value} must be {symbol} {bound} ({type(obj).__name__})")
