"""The scenario format, its defaults, and assembly into typed model objects.

This module owns the scenario format.  ``_TABLE`` declares every scenario
key once.  A section is a dict.  A key read one-to-one into a dataclass
field is a reference to that field, ``_key(Formulation, "x_s")``: its
default and its schema are the field's default and metadata, so each is
stated once, on the dataclass (see :mod:`lyosim.bounds`).  Any other key is
a ``(default, schema)`` pair.  ``DEFAULT_SCENARIO`` (the complete baseline
description of one cycle), ``SCENARIO_SCHEMA`` (which rejects unknown keys,
so typos fail loudly) and the field -> scenario-key map are all split off
that one table.  Scenario files override any subset of the defaults;
:mod:`lyosim.scenario` loads and validates them, and
:func:`build_parameters` turns the merged dictionary into the dataclasses
the stage drivers consume.  Scenario keys carry their units in the name.
"""

from __future__ import annotations

import copy
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .analysis import PorousMedium
from .bounds import NONNEG, POS, nullable
from .chamber import ChamberModel
from .drying_primary import DryingParams
from .drying_secondary import DesorptionKinetics, DryingConditions
from .errors import ConfigurationError, ScenarioError
from .freezing import (
    ControlledNucleation,
    FreezingProtocol,
    FreezingSystem,
    StochasticNucleation,
    VialState,
)
from .schedules import Schedule, as_schedule
from .solver import IntegratorConfig
from .thermo import Formulation, MixtureProperties, RadiationSpec, VialGeometry, mixture_properties

__all__ = ["DEFAULT_SCENARIO", "SCENARIO_SCHEMA", "ParameterSet", "build_parameters",
           "deep_merge"]

_STRING = {"type": "string"}
# a schedule is either a constant or a list of [time_s, value] breakpoints
_SCHEDULE = {"oneOf": [
    {"type": "number"},
    {"type": "array", "minItems": 1,
     "items": {"type": "array", "items": {"type": "number"},
               "minItems": 2, "maxItems": 2}},
]}


def _obj(properties: dict, required: list[str] | None = None) -> dict:
    out: dict[str, Any] = {"type": "object", "additionalProperties": False,
                           "properties": properties}
    if required:
        out["required"] = required
    return out


class _key(NamedTuple):
    """A table leaf read one-to-one into the field ``name`` of ``cls``."""

    cls: type
    name: str


_TABLE: dict[str, Any] = {
    "name": ("defaults", _STRING),
    "seed": (20260815, nullable({"type": "integer", "minimum": 0})),
    "grid": {"n_nodes": (51, {"type": "integer", "minimum": 3})},
    "integrator": {
        "rtol": _key(IntegratorConfig, "rtol"),
        "atol": _key(IntegratorConfig, "atol"),
        "max_step_s": (None, nullable(POS)),
    },
    "formulation": {
        "solute_mass_fraction": _key(Formulation, "x_s"),
        "fill_volume_m3": _key(Formulation, "V_l"),
        "solute_density_kg_per_m3": _key(Formulation, "rho_s"),
        "water_density_kg_per_m3": _key(Formulation, "rho_w"),
        "ice_density_kg_per_m3": _key(Formulation, "rho_i"),
        "solute_heat_capacity_J_per_kgK": _key(Formulation, "Cp_s"),
        "water_heat_capacity_J_per_kgK": _key(Formulation, "Cp_w"),
        "ice_heat_capacity_J_per_kgK": _key(Formulation, "Cp_i"),
        "solute_conductivity_W_per_mK": _key(Formulation, "k_s"),
        "water_conductivity_W_per_mK": _key(Formulation, "k_w"),
        "ice_conductivity_W_per_mK": _key(Formulation, "k_i"),
        "solute_molar_mass_kg_per_mol": _key(Formulation, "M_s"),
        "water_molar_mass_kg_per_mol": _key(Formulation, "M_w"),
        "inert_molar_mass_kg_per_mol": _key(Formulation, "M_in"),
        "cryoscopic_constant_kgK_per_mol": _key(Formulation, "K_f"),
    },
    "vial": {
        "diameter_m": _key(VialGeometry, "d"),
        # null derives the height from the fill volume and frozen density
        "product_height_m": (None, nullable(POS)),
    },
    "radiation": {
        "glass_emissivity": _key(RadiationSpec, "eps_glass"),
        "transfer_factor_top": _key(RadiationSpec, "F_top"),
        "transfer_factor_side": _key(RadiationSpec, "F_side"),
    },
    "frozen_matrix": {
        # measured values; null falls back to the mixing rules
        "density_kg_per_m3": (None, nullable(POS)),
        "heat_capacity_J_per_kgK": (DryingParams.Cp_f, nullable(POS)),
        "conductivity_W_per_mK": (DryingParams.k_f, nullable(POS)),
    },
    "freezing": {
        "initial_temperature_K": (298.15, POS),
        # the vial moves to the depressurized chamber at 3600 s; conditions
        # transition linearly over the 30 s pressure ramp
        "gas_temperature_K": ([[3600.0, 268.0], [3630.0, 230.0]], _SCHEDULE),
        "wall_temperature_K": ([[3600.0, 273.0], [3630.0, 240.0]], _SCHEDULE),
        "upper_temperature_K": ([[3600.0, 273.0], [3630.0, 240.0]], _SCHEDULE),
        "total_pressure_Pa": ([[3600.0, 1.0e5], [3630.0, 1.0e4]], _SCHEDULE),
        "chamber_water_pressure_Pa": _key(FreezingProtocol, "p_w_chamber"),
        "top_htc_W_per_m2K": _key(FreezingProtocol, "h_top"),
        "bottom_htc_W_per_m2K": _key(FreezingProtocol, "h_bottom"),
        "side_htc_W_per_m2K": _key(FreezingProtocol, "h_side"),
        "evaporation_coefficient_kg_per_m2s": _key(FreezingProtocol, "h_mass"),
        "depressurization_start_s": _key(FreezingProtocol, "visf_start_s"),
        "nucleation": {
            "mode": ("controlled", {"enum": ["controlled", "stochastic"]}),
            "temperature_K": _key(ControlledNucleation, "temperature_K"),
            "rate_prefactor_per_m3_s_K": _key(StochasticNucleation, "rate_prefactor"),
            "rate_exponent": _key(StochasticNucleation, "rate_exponent"),
        },
        "solidification_fraction": _key(FreezingProtocol, "solidification_fraction"),
        "final_temperature_K": _key(FreezingProtocol, "final_temperature_K"),
        "final_tolerance_K": _key(FreezingProtocol, "final_tolerance_K"),
        "heat_of_fusion_J_per_kg": _key(FreezingProtocol, "dH_fus"),
        "stage_time_limit_s": _key(FreezingProtocol, "stage_time_limit_s"),
    },
    "primary": {
        "initial_temperature_K": (235.0, POS),
        "shelf_temperature_K": (270.0, _SCHEDULE),
        "wall_temperature_K": (265.0, _SCHEDULE),
        "upper_temperature_K": (265.0, _SCHEDULE),
        "bottom_htc_W_per_m2K": _key(DryingParams, "h_b"),
        "chamber_water_pressure_Pa": _key(DryingParams, "p_w_chamber"),
        "cake_resistance_R0_m_per_s": _key(DryingParams, "Rp0"),
        "cake_resistance_R1_m_per_s": _key(DryingParams, "Rp1"),
        "cake_resistance_R2_m": _key(DryingParams, "Rp2"),
        "sublimation_heat_J_per_kg": _key(DryingParams, "dH_sub"),
        "dried_density_kg_per_m3": _key(DryingParams, "rho_e"),
        "time_limit_s": (1.0e6, POS),
    },
    "secondary": {
        "initial_temperature_K": (273.15, POS),
        "initial_bound_water_kg_per_kg": (0.088, {"oneOf": [
            NONNEG,
            {"type": "array", "items": NONNEG, "minItems": 2, "maxItems": 2},
        ]}),
        "target_bound_water_kg_per_kg": (0.01, NONNEG),
        "equilibrium_bound_water_kg_per_kg": _key(DesorptionKinetics, "c_eq"),
        "shelf_temperature_K": (295.0, _SCHEDULE),
        "wall_temperature_K": (290.0, _SCHEDULE),
        "upper_temperature_K": (290.0, _SCHEDULE),
        "bottom_htc_W_per_m2K": _key(DryingConditions, "h_b"),
        "desorption_prefactor_per_s": _key(DesorptionKinetics, "f_a"),
        "desorption_activation_energy_J_per_mol": _key(DesorptionKinetics, "E_a"),
        "desorption_heat_J_per_kg": _key(DesorptionKinetics, "dH_des"),
        "desorption_density_kg_per_m3": _key(DesorptionKinetics, "rho_d"),
        "cake_conductivity_W_per_mK": _key(DesorptionKinetics, "k_e"),
        "cake_density_kg_per_m3": _key(DesorptionKinetics, "rho_e"),
        "cake_heat_capacity_J_per_kgK": _key(DesorptionKinetics, "Cp_e"),
        "time_limit_s": (1.0e6, POS),
    },
    "chamber": {
        "volume_m3": _key(ChamberModel, "V_c"),
        "condenser_capacity_kg_per_s": _key(ChamberModel, "j_w_max"),
        "vial_count": _key(ChamberModel, "n_vial"),
        "gas_temperature_K": _key(ChamberModel, "T_bar"),
        "pressure_setpoint_Pa": _key(ChamberModel, "p_setpoint"),
    },
    "pipeline": {
        "primary_start": ("final_cooling_end",
                          {"enum": ["final_cooling_end", "solidification_end"]}),
        "post_heat_duration_s": (0.0, NONNEG),
        "samples_per_stage": (300, {"type": "integer", "minimum": 2}),
        # re-derive dried density and initial bound water from the actual
        # end-of-freezing state so all three stages share one water inventory
        "consistent_water": (False, {"type": "boolean"}),
    },
    "transport_analysis": {
        "porosity": _key(PorousMedium, "porosity"),
        "tortuosity": _key(PorousMedium, "tortuosity"),
        "pore_radius_m": _key(PorousMedium, "pore_radius"),
        "gas_diffusivity_m2_per_s": _key(PorousMedium, "D_gas"),
        "temperature_K": (256.0, POS),
        "molar_mass_g_per_mol": (18.0, POS),
        "length_scale_m": (0.01, POS),
        "desorption_rate_per_s": (7.8e-5, POS),
        "biot": ([
            {"label": "gas_film", "htc_W_per_m2K": 8.0, "length_m": 0.012,
             "conductivity_W_per_mK": 2.25},
            {"label": "shelf_contact", "htc_W_per_m2K": 65.0, "length_m": 0.012,
             "conductivity_W_per_mK": 2.25},
        ], {"type": "array", "items": _obj({
            "label": _STRING,
            "htc_W_per_m2K": POS,
            "length_m": POS,
            "conductivity_W_per_mK": POS,
        }, required=["label", "htc_W_per_m2K", "length_m", "conductivity_W_per_mK"])}),
    },
    "comparison": (None, nullable(_obj({
        "reference_csv": _STRING,
        "observable": _STRING,
        "time_column": _STRING,
        "value_column": _STRING,
        "thresholds": _obj({
            "rmse": NONNEG,
            "max_abs": NONNEG,
            "terminal_time_rel": NONNEG,
        }),
    }, required=["reference_csv", "observable"]))),
    "output": {"directory": (None, nullable(_STRING))},
}


def _split(node, path: tuple[str, ...] = ()) -> tuple[Any, Any, dict[type, dict[str, str]]]:
    """(defaults, schema, keys) of a table leaf or section; ``keys`` maps each
    dataclass to {field name: dotted scenario key} of its fields under it."""
    if isinstance(node, _key):
        f = node.cls.__dataclass_fields__[node.name]
        return f.default, dict(f.metadata), {node.cls: {node.name: ".".join(path)}}
    if isinstance(node, tuple):
        return (*node, {})
    defaults, schema, keys = {}, {}, {}
    for name, sub in node.items():
        defaults[name], schema[name], sub_keys = _split(sub, path + (name,))
        for cls, names in sub_keys.items():
            keys.setdefault(cls, {}).update(names)
    return defaults, _obj(schema), keys


DEFAULT_SCENARIO, SCENARIO_SCHEMA, _KEYS = _split(_TABLE)


def deep_merge(base: dict, override: dict) -> dict:
    """Recursively merge ``override`` onto a deep copy of ``base``.

    Dictionaries merge key-by-key; any other value (including lists, which
    encode schedules) replaces the default wholesale.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class ParameterSet:
    """Everything one cycle simulation needs, in model units."""

    formulation: Formulation
    mixture: MixtureProperties
    geometry: VialGeometry
    radiation: RadiationSpec
    freezing: FreezingProtocol
    freezing_initial_T: float
    primary: DryingParams
    primary_initial_T: float
    primary_time_limit_s: float
    secondary: DesorptionKinetics
    secondary_conditions: DryingConditions
    secondary_initial_T: float
    bound_water_initial: float | tuple[float, float]
    bound_water_target: float
    secondary_time_limit_s: float
    chamber: ChamberModel
    integrator: IntegratorConfig
    n_z: int
    seed: int | None
    primary_start: str
    post_heat_duration_s: float
    samples_per_stage: int
    consistent_water: bool

    def freezing_system(self) -> FreezingSystem:
        return FreezingSystem(mixture=self.mixture, radiation=self.radiation,
                              protocol=self.freezing)

    def initial_vial_state(self) -> VialState:
        return VialState(T=self.freezing_initial_T, m_w=self.mixture.m_w0, t=0.0)

    def bound_water_profile(self) -> np.ndarray:
        """Initial bound-water node profile: uniform from a scalar, or a
        top-to-bottom linear gradient from a (top, bottom) pair."""
        if isinstance(self.bound_water_initial, (int, float)):
            return np.full(self.n_z, float(self.bound_water_initial))
        top, bottom = self.bound_water_initial
        return np.linspace(float(top), float(bottom), self.n_z)


@contextmanager
def _scenario_keys(keys: dict[str, str]):
    """Re-raise a dataclass :class:`ConfigurationError` raised inside with
    the field names of its message (the keys of ``keys``) replaced by the
    scenario keys they are read from.  The schema checks each key alone, so
    what reaches here are the cross-field rules of the dataclasses."""
    try:
        yield
    except ConfigurationError as exc:
        fields = re.compile(r"\b(" + "|".join(map(re.escape, keys)) + r")\b")
        raise ConfigurationError(fields.sub(lambda m: keys[m[1]], str(exc))) from exc


def _build(cls, scenario: dict[str, Any], **derived):
    """``cls`` built from ``derived`` and from the scenario keys its other
    fields are read from, an integer field through ``int()``; a
    :class:`ConfigurationError` names the scenario keys."""
    keys = _KEYS[cls]
    values = {}
    for name, key in keys.items():
        value = scenario
        for part in key.split("."):
            value = value[part]
        if cls.__dataclass_fields__[name].metadata.get("type") == "integer":
            value = int(value)
        values[name] = value
    with _scenario_keys(keys):
        return cls(**values, **derived)


def _schedule(scenario: dict[str, Any], key: str) -> Schedule:
    """The schedule at the dotted scenario ``key``; a table that is no
    valid schedule raises a :class:`ConfigurationError` naming the key."""
    section, name = key.split(".")
    try:
        return as_schedule(scenario[section][name])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from exc


def _temperatures(scenario: dict[str, Any], section: str,
                  names=("shelf_temperature", "wall_temperature", "upper_temperature")):
    """The temperature schedules ``names`` of ``section``, each read from
    the key ``<name>_K``."""
    return {name: _schedule(scenario, f"{section}.{name}_K") for name in names}


def _nucleation(scenario: dict[str, Any], seed: int | None):
    mode = scenario["freezing"]["nucleation"]["mode"]
    if mode == "controlled":
        return _build(ControlledNucleation, scenario)
    if mode == "stochastic":
        return _build(StochasticNucleation, scenario, seed=seed)
    raise ScenarioError(f"unknown nucleation mode {mode!r}")


def build_parameters(scenario: dict[str, Any]) -> ParameterSet:
    """Assemble a :class:`ParameterSet` from a fully merged scenario dict.

    Integer keys are converted with ``int()``: JSON Schema counts a
    whole-number float such as ``5.0`` as an integer.
    """
    formulation = _build(Formulation, scenario)
    matrix = scenario["frozen_matrix"]
    mixture = mixture_properties(
        formulation, scenario["vial"]["diameter_m"],
        Cp_f_override=matrix["heat_capacity_J_per_kgK"],
        k_f_override=matrix["conductivity_W_per_mK"],
    )
    height = scenario["vial"]["product_height_m"]
    geometry = _build(VialGeometry, scenario, H=height if height is not None else mixture.H)
    seed = scenario.get("seed")
    seed = None if seed is None else int(seed)

    freezing = _build(
        FreezingProtocol, scenario,
        **_temperatures(scenario, "freezing",
                        ("gas_temperature", "wall_temperature", "upper_temperature")),
        total_pressure=_schedule(scenario, "freezing.total_pressure_Pa"),
        nucleation=_nucleation(scenario, seed),
    )

    rho_f = matrix["density_kg_per_m3"]
    frozen_density = ("frozen_matrix.density_kg_per_m3" if rho_f is not None
                      else "the frozen density from the formulation")
    with _scenario_keys({"rho_f": frozen_density}):
        primary = _build(DryingParams, scenario, **_temperatures(scenario, "primary"),
                         rho_f=rho_f if rho_f is not None else mixture.rho_f,
                         Cp_f=mixture.Cp_f, k_f=mixture.k_f)

    sd = scenario["secondary"]
    c0 = sd["initial_bound_water_kg_per_kg"]
    if isinstance(c0, (list, tuple)):
        if len(c0) != 2:
            raise ScenarioError("initial_bound_water_kg_per_kg must be a scalar or "
                                "a [top, bottom] pair")
        c0 = (float(c0[0]), float(c0[1]))

    max_step = scenario["integrator"]["max_step_s"]
    pr, fz, pl = scenario["primary"], scenario["freezing"], scenario["pipeline"]
    if pl["primary_start"] not in ("final_cooling_end", "solidification_end"):
        raise ScenarioError("pipeline.primary_start must be 'final_cooling_end' or "
                            "'solidification_end'")
    return ParameterSet(
        formulation=formulation,
        mixture=mixture,
        geometry=geometry,
        radiation=_build(RadiationSpec, scenario),
        freezing=freezing,
        freezing_initial_T=fz["initial_temperature_K"],
        primary=primary,
        primary_initial_T=pr["initial_temperature_K"],
        primary_time_limit_s=pr["time_limit_s"],
        secondary=_build(DesorptionKinetics, scenario),
        secondary_conditions=_build(DryingConditions, scenario,
                                    **_temperatures(scenario, "secondary")),
        secondary_initial_T=sd["initial_temperature_K"],
        bound_water_initial=c0,
        bound_water_target=sd["target_bound_water_kg_per_kg"],
        secondary_time_limit_s=sd["time_limit_s"],
        chamber=_build(ChamberModel, scenario, M_w=formulation.M_w),
        integrator=_build(IntegratorConfig, scenario,
                          max_step=float("inf") if max_step is None else max_step),
        n_z=int(scenario["grid"]["n_nodes"]),
        seed=seed,
        primary_start=pl["primary_start"],
        post_heat_duration_s=pl["post_heat_duration_s"],
        samples_per_stage=int(pl["samples_per_stage"]),
        consistent_water=pl["consistent_water"],
    )
