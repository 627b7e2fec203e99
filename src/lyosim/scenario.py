"""Scenario files: validation, loading, and built-in lookup.

A scenario is a YAML or JSON document overriding any subset of the
baseline parameter dictionary.  The format itself is declared once in
:mod:`lyosim.params`, whose table takes the default and the schema of
most keys from the dataclass field the key is read into.  This module
checks documents against that schema (which rejects unknown keys, so typos
fail loudly instead of silently running the defaults) and merges them over
the defaults, for scenario files and for :func:`default_parameters`
overrides alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

import jsonschema
import yaml

from .errors import ScenarioError
from .params import (DEFAULT_SCENARIO, SCENARIO_SCHEMA, ParameterSet, build_parameters,
                     deep_merge)

__all__ = ["Scenario", "load_scenario", "builtin_scenarios", "validate_scenario",
           "default_parameters"]


def _non_finite(node: Any, path: tuple = ()) -> tuple | None:
    """Path of the first NaN or infinity in a parsed document, else None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if (found := _non_finite(value, path + (key,))) is not None:
            return found
    return None


def validate_scenario(data: dict[str, Any], *, where: str = "scenario") -> None:
    """Check ``data`` against the scenario schema; raise :class:`ScenarioError`.

    The schema's bounds do not catch NaN (every comparison with it is
    false) or infinity, which YAML's ``.nan`` and ``.inf`` produce and JSON
    cannot express, so any non-finite number is rejected as well.
    """
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ScenarioError(f"{where}: invalid value at {loc}: {e.message}")
    if (path := _non_finite(data)) is not None:
        loc = "/".join(map(str, path))
        raise ScenarioError(f"{where}: invalid value at {loc}: not a finite number")


def _merged(raw: dict[str, Any], where: str) -> dict[str, Any]:
    """``raw`` validated, merged over the defaults, and validated again."""
    validate_scenario(raw, where=where)
    merged = deep_merge(DEFAULT_SCENARIO, raw)
    validate_scenario(merged, where=f"{where} (merged)")
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
        raw = yaml.safe_load(text)  # YAML is a superset of JSON
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
