"""Scenario files: schema, validation, loading, and built-in lookup.

A scenario is a YAML or JSON document overriding any subset of the
baseline parameter dictionary.  Keys carry their units in the name; the
schema rejects unknown keys so typos fail loudly instead of silently
running the defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

import jsonschema
import yaml

from .errors import ScenarioError
from .params import DEFAULT_SCENARIO, ParameterSet, build_parameters, deep_merge

__all__ = ["SCENARIO_SCHEMA", "Scenario", "load_scenario", "builtin_scenarios",
           "validate_scenario"]

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_FRACTION = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
_STRING = {"type": "string"}
# a schedule is either a constant or a list of [time_s, value] breakpoints
_SCHEDULE = {"oneOf": [
    {"type": "number"},
    {"type": "array", "minItems": 1,
     "items": {"type": "array", "items": {"type": "number"},
               "minItems": 2, "maxItems": 2}},
]}


def _nullable(schema: dict) -> dict:
    return {"oneOf": [schema, {"type": "null"}]}


def _obj(properties: dict, required: list[str] | None = None) -> dict:
    out: dict[str, Any] = {"type": "object", "additionalProperties": False,
                           "properties": properties}
    if required:
        out["required"] = required
    return out


SCENARIO_SCHEMA: dict[str, Any] = _obj({
    "name": _STRING,
    "seed": _nullable({"type": "integer", "minimum": 0}),
    "grid": _obj({"n_nodes": {"type": "integer", "minimum": 3}}),
    "integrator": _obj({
        "rtol": _POS,
        "atol": _POS,
        "method": {"enum": ["bdf", "lsoda", "explicit", "rk45"]},
        "max_step_s": _nullable(_POS),
    }),
    "formulation": _obj({
        "solute_mass_fraction": {"type": "number", "exclusiveMinimum": 0,
                                 "exclusiveMaximum": 1},
        "fill_volume_m3": _POS,
        "solute_density_kg_per_m3": _POS,
        "water_density_kg_per_m3": _POS,
        "ice_density_kg_per_m3": _POS,
        "solute_heat_capacity_J_per_kgK": _POS,
        "water_heat_capacity_J_per_kgK": _POS,
        "ice_heat_capacity_J_per_kgK": _POS,
        "solute_conductivity_W_per_mK": _POS,
        "water_conductivity_W_per_mK": _POS,
        "ice_conductivity_W_per_mK": _POS,
        "solute_molar_mass_kg_per_mol": _POS,
        "water_molar_mass_kg_per_mol": _POS,
        "inert_molar_mass_kg_per_mol": _POS,
        "cryoscopic_constant_kgK_per_mol": _POS,
    }),
    "vial": _obj({
        "diameter_m": _POS,
        "product_height_m": _nullable(_POS),
    }),
    "radiation": _obj({
        "glass_emissivity": _FRACTION,
        "transfer_factor_top": {"type": "number", "minimum": 0, "maximum": 1},
        "transfer_factor_side": {"type": "number", "minimum": 0, "maximum": 1},
    }),
    "frozen_matrix": _obj({
        "density_kg_per_m3": _nullable(_POS),
        "heat_capacity_J_per_kgK": _nullable(_POS),
        "conductivity_W_per_mK": _nullable(_POS),
    }),
    "freezing": _obj({
        "initial_temperature_K": _POS,
        "gas_temperature_K": _SCHEDULE,
        "wall_temperature_K": _SCHEDULE,
        "upper_temperature_K": _SCHEDULE,
        "total_pressure_Pa": _SCHEDULE,
        "chamber_water_pressure_Pa": _NONNEG,
        "top_htc_W_per_m2K": _NONNEG,
        "bottom_htc_W_per_m2K": _NONNEG,
        "side_htc_W_per_m2K": _NONNEG,
        "evaporation_coefficient_kg_per_m2s": _NONNEG,
        "depressurization_start_s": _nullable(_NONNEG),
        "nucleation": _obj({
            "mode": {"enum": ["controlled", "stochastic"]},
            "temperature_K": _POS,
            "rate_prefactor_per_m3_s_K": _NONNEG,
            "rate_exponent": _POS,
        }),
        "solidification_fraction": {"type": "number", "minimum": 0.85,
                                    "maximum": 0.95},
        "final_temperature_K": _POS,
        "final_tolerance_K": _POS,
        "heat_of_fusion_J_per_kg": _POS,
        "stage_time_limit_s": _POS,
    }),
    "primary": _obj({
        "initial_temperature_K": _POS,
        "shelf_temperature_K": _SCHEDULE,
        "wall_temperature_K": _SCHEDULE,
        "upper_temperature_K": _SCHEDULE,
        "bottom_htc_W_per_m2K": _POS,
        "chamber_water_pressure_Pa": _NONNEG,
        "cake_resistance_R0_m_per_s": _POS,
        "cake_resistance_R1_m_per_s": _NONNEG,
        "cake_resistance_R2_m": _POS,
        "sublimation_heat_J_per_kg": _POS,
        "dried_density_kg_per_m3": _POS,
        "time_limit_s": _POS,
    }),
    "secondary": _obj({
        "initial_temperature_K": _POS,
        "initial_bound_water_kg_per_kg": {"oneOf": [
            _NONNEG,
            {"type": "array", "items": _NONNEG, "minItems": 2, "maxItems": 2},
        ]},
        "target_bound_water_kg_per_kg": _NONNEG,
        "equilibrium_bound_water_kg_per_kg": _NONNEG,
        "shelf_temperature_K": _SCHEDULE,
        "wall_temperature_K": _SCHEDULE,
        "upper_temperature_K": _SCHEDULE,
        "bottom_htc_W_per_m2K": _POS,
        "desorption_prefactor_per_s": _NONNEG,
        "desorption_activation_energy_J_per_mol": _NONNEG,
        "desorption_heat_J_per_kg": _POS,
        "desorption_density_kg_per_m3": _POS,
        "cake_conductivity_W_per_mK": _POS,
        "cake_density_kg_per_m3": _POS,
        "cake_heat_capacity_J_per_kgK": _POS,
        "time_limit_s": _POS,
    }),
    "chamber": _obj({
        "volume_m3": _POS,
        "condenser_capacity_kg_per_s": _NONNEG,
        "vial_count": {"type": "integer", "minimum": 1},
        "gas_temperature_K": _POS,
        "pressure_setpoint_Pa": _NONNEG,
    }),
    "pipeline": _obj({
        "primary_start": {"enum": ["final_cooling_end", "solidification_end"]},
        "post_heat_duration_s": _NONNEG,
        "samples_per_stage": {"type": "integer", "minimum": 2},
        "consistent_water": {"type": "boolean"},
    }),
    "transport_analysis": _obj({
        "porosity": _FRACTION,
        "tortuosity": {"type": "number", "minimum": 1},
        "pore_radius_m": _POS,
        "gas_diffusivity_m2_per_s": _POS,
        "temperature_K": _POS,
        "molar_mass_g_per_mol": _POS,
        "length_scale_m": _POS,
        "desorption_rate_per_s": _POS,
        "biot": {"type": "array", "items": _obj({
            "label": _STRING,
            "htc_W_per_m2K": _POS,
            "length_m": _POS,
            "conductivity_W_per_mK": _POS,
        }, required=["label", "htc_W_per_m2K", "length_m", "conductivity_W_per_mK"])},
    }),
    "comparison": _nullable(_obj({
        "reference_csv": _STRING,
        "observable": _STRING,
        "time_column": _STRING,
        "value_column": _STRING,
        "thresholds": _obj({
            "rmse": _NONNEG,
            "max_abs": _NONNEG,
            "terminal_time_rel": _NONNEG,
        }),
    }, required=["reference_csv", "observable"])),
    "output": _obj({"directory": _nullable(_STRING)}),
})


def validate_scenario(data: dict[str, Any], *, where: str = "scenario") -> None:
    """Check ``data`` against the scenario schema; raise :class:`ScenarioError`."""
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ScenarioError(f"{where}: invalid value at {loc}: {e.message}")


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

    @property
    def seed(self):
        return self.data.get("seed")

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
        raise ScenarioError(f"{where}: top level must be a mapping")
    validate_scenario(raw, where=where)
    merged = deep_merge(DEFAULT_SCENARIO, raw)
    if "name" not in raw and source is not None:
        merged["name"] = source.stem
    validate_scenario(merged, where=f"{where} (merged)")
    return Scenario(data=merged, source=source)
