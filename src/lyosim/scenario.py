"""Scenario files: validation, loading, and built-in lookup.

A scenario is a YAML or JSON document overriding any subset of the
baseline parameter dictionary.  The format itself is declared once in
:mod:`lyosim.params`, whose table takes the default and the schema of
most keys from the dataclass field the key is read into.  This module
checks documents against that schema (which rejects unknown keys, so typos
fail loudly instead of silently running the defaults) and merges them over
the defaults, for scenario files and for :func:`default_parameters`
overrides alike.

The check is a walk over ``SCENARIO_SCHEMA`` itself.  It knows the twelve
JSON-schema keywords the table uses: ``type``, ``minimum``,
``exclusiveMinimum``, ``maximum``, ``exclusiveMaximum``, ``enum``,
``items``, ``minItems``, ``maxItems``, ``oneOf``, ``properties`` and
``additionalProperties: false``, and ``required``.  It reads them as JSON
Schema Draft 2020-12 does, with that draft's error messages; the bound
keywords take their tests from :mod:`lyosim.bounds`.  The parser rejects a
mapping key given twice, which YAML would otherwise resolve to its last copy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from numbers import Number
from pathlib import Path
from typing import Any

import yaml

from .bounds import _BOUNDS
from .errors import ScenarioError
from .params import (DEFAULT_SCENARIO, SCENARIO_SCHEMA, ParameterSet, build_parameters,
                     deep_merge)

__all__ = ["Scenario", "load_scenario", "builtin_scenarios", "validate_scenario",
           "default_parameters"]


def _is_number(value: Any) -> bool:
    return (type(value) in (float, int)  # the common case, without the ABC check
            or isinstance(value, Number) and not isinstance(value, bool))


# Draft 2020-12 types: a bool is no number, and a whole-number float such
# as 5.0 is an integer
_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
_OUTSIDE = {"minimum": "less than the minimum",
            "exclusiveMinimum": "less than or equal to the minimum",
            "maximum": "greater than the maximum",
            "exclusiveMaximum": "greater than or equal to the maximum"}


def _finite(value: Number) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the range of a float
        return False


# Each keyword check appends to ``out`` a (path, message) finding for each
# violation of the keyword, in the order jsonschema reports them, and a
# (path, None) finding for each number that a float cannot hold.

def _type(value, name, schema, path, out):
    if not _TYPES[name](value):
        out.append((path, f"{value!r} is not of type {name!r}"))
    elif name == "number" and not _finite(value):
        out.append((path, None))


def _bound(keyword):
    test, _ = _BOUNDS[keyword]

    def check(value, bound, schema, path, out):
        # NaN passes every bound here and is reported as not finite
        if _is_number(value) and value == value and not test(value, bound):
            out.append((path, f"{value!r} is {_OUTSIDE[keyword]} of {bound!r}"))
    return check


def _enum(value, options, schema, path, out):
    if value not in options:
        out.append((path, f"{value!r} is not one of {options!r}"))


def _items(value, item, schema, path, out):
    if isinstance(value, list):
        for i, v in enumerate(value):
            _walk(v, item, path + (i,), out)


def _min_items(value, n, schema, path, out):
    if isinstance(value, list) and len(value) < n:
        out.append((path, f"{value!r} {'should be non-empty' if n == 1 else 'is too short'}"))


def _max_items(value, n, schema, path, out):
    if isinstance(value, list) and len(value) > n:
        out.append((path, f"{value!r} {'is expected to be empty' if n == 0 else 'is too long'}"))


def _one_of(value, branches, schema, path, out):
    passing = []
    for branch in branches:
        found: list = []
        _walk(value, branch, path, found)
        if all(message is None for _, message in found):
            passing.append(found)
    if len(passing) == 1:
        out.extend(passing[0])
    else:
        which = "any" if not passing else "more than one"
        out.append((path, f"{value!r} is not valid under {which} of the given schemas"))


def _properties(value, properties, schema, path, out):
    if isinstance(value, dict):
        for key, v in value.items():
            if key in properties:
                _walk(v, properties[key], path + (key,), out)


def _no_additional(value, allowed, schema, path, out):
    # only ``additionalProperties: false`` occurs in the table
    if isinstance(value, dict):
        extra = sorted((k for k in value if k not in schema["properties"]), key=str)
        if extra:
            names = ", ".join(map(repr, extra))
            verb = "was" if len(extra) == 1 else "were"
            out.append((path, f"Additional properties are not allowed ({names} {verb} unexpected)"))


def _required(value, names, schema, path, out):
    if isinstance(value, dict):
        out.extend((path, f"{name!r} is a required property")
                   for name in names if name not in value)


_KEYWORDS = {
    "type": _type,
    **{keyword: _bound(keyword) for keyword in _OUTSIDE},
    "enum": _enum,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "oneOf": _one_of,
    "properties": _properties,
    "additionalProperties": _no_additional,
    "required": _required,
}


def _walk(value, schema, path, out) -> None:
    """Append the findings of ``value`` against ``schema`` to ``out``."""
    for keyword, argument in schema.items():
        _KEYWORDS[keyword](value, argument, schema, path, out)


def validate_scenario(data: dict[str, Any], *, where: str = "scenario") -> None:
    """Check ``data`` against ``SCENARIO_SCHEMA``; raise :class:`ScenarioError`.

    One walk over the document and the schema's twelve keywords finds every
    violation.  The one reported is the first by sorted path, with the text
    jsonschema would give.  The schema's bounds do not catch NaN (every
    comparison with it is false) or infinity, which YAML's ``.nan`` and
    ``.inf`` produce and JSON cannot express, nor an integer too large for
    a float.  The walk marks each such value the schema types as a number,
    and the first of them in document order is reported when the document
    breaks no schema rule.
    """
    found: list = []
    _walk(data, SCENARIO_SCHEMA, (), found)
    if not found:
        return
    errors = [f for f in found if f[1] is not None]
    path, message = (min(errors, key=lambda f: f[0]) if errors
                     else (found[0][0], "not a finite number"))
    loc = "/".join(map(str, path)) or "<root>"
    raise ScenarioError(f"{where}: invalid value at {loc}: {message}")


class _Loader(yaml.SafeLoader):
    """The safe YAML loader, but a mapping key given twice is an error
    where YAML keeps its last copy.  JSON documents load through it too."""

    def construct_document(self, node):
        self._unique_keys(node, ())
        return super().construct_document(node)

    def _unique_keys(self, node, path, enclosing=()):
        if any(node is n for n in enclosing):
            return  # an alias of an enclosing node
        if isinstance(node, yaml.SequenceNode):
            children = list(enumerate(node.value))
        elif isinstance(node, yaml.MappingNode):
            children, seen = [], set()
            for key_node, value in node.value:
                # a merge key (<<) brings in keys that the mapping may
                # override; an unhashable key is the constructor's error
                if not isinstance(key_node, yaml.ScalarNode) or key_node.tag.endswith(":merge"):
                    continue
                key = self.construct_object(key_node)
                if key in seen:
                    loc = "/".join(map(str, path + (key,)))
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key at {loc}", key_node.start_mark)
                seen.add(key)
                children.append((key, value))
        else:
            return
        for key, child in children:
            self._unique_keys(child, path + (key,), enclosing + (node,))


def _merged(raw: dict[str, Any], where: str) -> dict[str, Any]:
    """``raw`` merged over the defaults, and validated."""
    # one pass does: raw's leaves all appear unchanged in the merge, and no
    # schema object with ``required`` keys has a mapping default to fill in
    merged = deep_merge(DEFAULT_SCENARIO, raw)
    validate_scenario(merged, where=where)
    return merged


def default_parameters(overrides: dict[str, Any] | None = None) -> ParameterSet:
    """Baseline :class:`ParameterSet`, optionally with scenario-style
    overrides, which are validated as a scenario file is."""
    return build_parameters(_merged(overrides or {}, "overrides"))


def builtin_scenarios() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files("lyosim") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


@dataclass
class Scenario:
    """A fully merged scenario plus where it came from."""

    data: dict[str, Any]
    source: Path | None = None

    @property
    def name(self) -> str:
        return self.data["name"]

    def parameters(self) -> ParameterSet:
        return build_parameters(self.data)

    def comparison(self) -> dict[str, Any] | None:
        """Comparison block with the reference path resolved relative to the
        scenario file (or the working directory for built-ins)."""
        block = self.data.get("comparison")
        if block is None:
            return None
        block = dict(block)
        ref = Path(block["reference_csv"])
        if not ref.is_absolute() and self.source is not None:
            ref = self.source.parent / ref
        block["reference_csv"] = str(ref)
        return block

    def transport(self) -> dict[str, Any]:
        return self.data["transport_analysis"]

    def output_directory(self) -> str | None:
        return self.data["output"]["directory"]

    def effective_json(self) -> str:
        """The merged parameter dictionary as pretty JSON, for audit logs."""
        return json.dumps(self.data, indent=2)


def load_scenario(name_or_path: str | Path) -> Scenario:
    """Load and validate a scenario by file path or built-in name.

    The document is merged over the baseline defaults, so partial files
    are fine.  Raises :class:`ScenarioError` on unknown names, parse
    failures, or schema violations.
    """
    p = Path(str(name_or_path))
    source: Path | None = None
    if p.exists() and p.is_file():
        source = p
        try:
            text = p.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {p}: {exc}") from exc
        where = str(p)
    else:
        res = resources.files("lyosim") / "scenarios" / f"{name_or_path}.yaml"
        if "/" in str(name_or_path) or not res.is_file():
            raise ScenarioError(
                f"scenario {name_or_path!r} is neither a file nor a built-in; "
                f"built-ins: {', '.join(builtin_scenarios())}")
        text = res.read_text()
        where = f"built-in scenario {name_or_path!r}"
    try:
        raw = yaml.load(text, Loader=_Loader)  # YAML is a superset of JSON
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{where}: parse error: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: invalid value at <root>: top level must be a mapping")
    merged = _merged(raw, where)
    if "name" not in raw and source is not None:
        merged["name"] = source.stem
    return Scenario(data=merged, source=source)
