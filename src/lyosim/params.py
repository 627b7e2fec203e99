"""The scenario format, its defaults, and assembly into typed model objects.

This module owns the scenario format.  ``_TABLE`` declares every scenario
key once: a section is a dict, and a leaf is a ``(default, schema)`` pair
whose schema is the JSON-schema fragment the key's value must satisfy.
``DEFAULT_SCENARIO`` (the complete baseline description of one cycle) and
``SCENARIO_SCHEMA`` (which rejects unknown keys, so typos fail loudly) are
both split off that one table.  Scenario files override any subset of the
defaults; :mod:`lyosim.scenario` loads and validates them, and
:func:`build_parameters` turns the merged dictionary into the dataclasses
the stage drivers consume.  Scenario keys carry their units in the name.
"""

from __future__ import annotations

import copy
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

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
           "default_parameters", "deep_merge"]

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_FRACTION = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
_OPEN_FRACTION = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
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


_TABLE: dict[str, Any] = {
    "name": ("defaults", _STRING),
    "seed": (20260815, _nullable({"type": "integer", "minimum": 0})),
    "grid": {"n_nodes": (51, {"type": "integer", "minimum": 3})},
    "integrator": {
        "rtol": (1.0e-6, _POS),
        "atol": (1.0e-9, _POS),
        "max_step_s": (None, _nullable(_POS)),
    },
    "formulation": {
        "solute_mass_fraction": (0.05, _OPEN_FRACTION),
        "fill_volume_m3": (3.0e-6, _POS),
        "solute_density_kg_per_m3": (1587.9, _POS),
        "water_density_kg_per_m3": (1000.0, _POS),
        "ice_density_kg_per_m3": (917.0, _POS),
        "solute_heat_capacity_J_per_kgK": (1204.0, _POS),
        "water_heat_capacity_J_per_kgK": (4187.0, _POS),
        "ice_heat_capacity_J_per_kgK": (2108.0, _POS),
        "solute_conductivity_W_per_mK": (0.126, _POS),
        "water_conductivity_W_per_mK": (0.598, _POS),
        "ice_conductivity_W_per_mK": (2.25, _POS),
        "solute_molar_mass_kg_per_mol": (0.3423, _POS),
        "water_molar_mass_kg_per_mol": (0.018, _POS),
        "inert_molar_mass_kg_per_mol": (0.028, _POS),
        "cryoscopic_constant_kgK_per_mol": (1.86, _POS),
    },
    "vial": {
        "diameter_m": (0.024, _POS),
        # null derives the height from the fill volume and frozen density
        "product_height_m": (None, _nullable(_POS)),
    },
    "radiation": {
        "glass_emissivity": (0.8, _FRACTION),
        "transfer_factor_top": (0.8, _UNIT),
        "transfer_factor_side": (0.624, _UNIT),
    },
    "frozen_matrix": {
        # measured values; null falls back to the mixing rules
        "density_kg_per_m3": (None, _nullable(_POS)),
        "heat_capacity_J_per_kgK": (2163.0, _nullable(_POS)),
        "conductivity_W_per_mK": (2.07, _nullable(_POS)),
    },
    "freezing": {
        "initial_temperature_K": (298.15, _POS),
        # the vial moves to the depressurized chamber at 3600 s; conditions
        # transition linearly over the 30 s pressure ramp
        "gas_temperature_K": ([[3600.0, 268.0], [3630.0, 230.0]], _SCHEDULE),
        "wall_temperature_K": ([[3600.0, 273.0], [3630.0, 240.0]], _SCHEDULE),
        "upper_temperature_K": ([[3600.0, 273.0], [3630.0, 240.0]], _SCHEDULE),
        "total_pressure_Pa": ([[3600.0, 1.0e5], [3630.0, 1.0e4]], _SCHEDULE),
        "chamber_water_pressure_Pa": (0.0, _NONNEG),
        "top_htc_W_per_m2K": (5.0, _NONNEG),
        "bottom_htc_W_per_m2K": (10.0, _NONNEG),
        "side_htc_W_per_m2K": (8.0, _NONNEG),
        "evaporation_coefficient_kg_per_m2s": (6.34e-3, _NONNEG),
        "depressurization_start_s": (3600.0, _nullable(_NONNEG)),
        "nucleation": {
            "mode": ("controlled", {"enum": ["controlled", "stochastic"]}),
            "temperature_K": (268.0, _POS),
            "rate_prefactor_per_m3_s_K": (1.0e-5, _NONNEG),
            "rate_exponent": (10.0, _POS),
        },
        "solidification_fraction": (0.95, {"type": "number", "minimum": 0.85,
                                           "maximum": 0.95}),
        "final_temperature_K": (235.0, _POS),
        "final_tolerance_K": (0.5, _POS),
        "heat_of_fusion_J_per_kg": (3.34e5, _POS),
        "stage_time_limit_s": (1.0e6, _POS),
    },
    "primary": {
        "initial_temperature_K": (235.0, _POS),
        "shelf_temperature_K": (270.0, _SCHEDULE),
        "wall_temperature_K": (265.0, _SCHEDULE),
        "upper_temperature_K": (265.0, _SCHEDULE),
        "bottom_htc_W_per_m2K": (15.0, _POS),
        "chamber_water_pressure_Pa": (3.0, _NONNEG),
        "cake_resistance_R0_m_per_s": (1.5e4, _POS),
        "cake_resistance_R1_m_per_s": (3.0e7, _NONNEG),
        "cake_resistance_R2_m": (10.0, _POS),
        "sublimation_heat_J_per_kg": (2.84e6, _POS),
        "dried_density_kg_per_m3": (215.0, _POS),
        "time_limit_s": (1.0e6, _POS),
    },
    "secondary": {
        "initial_temperature_K": (273.15, _POS),
        "initial_bound_water_kg_per_kg": (0.088, {"oneOf": [
            _NONNEG,
            {"type": "array", "items": _NONNEG, "minItems": 2, "maxItems": 2},
        ]}),
        "target_bound_water_kg_per_kg": (0.01, _NONNEG),
        "equilibrium_bound_water_kg_per_kg": (0.0, _NONNEG),
        "shelf_temperature_K": (295.0, _SCHEDULE),
        "wall_temperature_K": (290.0, _SCHEDULE),
        "upper_temperature_K": (290.0, _SCHEDULE),
        "bottom_htc_W_per_m2K": (15.0, _POS),
        "desorption_prefactor_per_s": (1.5e-3, _NONNEG),
        "desorption_activation_energy_J_per_mol": (6500.0, _NONNEG),
        "desorption_heat_J_per_kg": (2.68e6, _POS),
        "desorption_density_kg_per_m3": (212.21, _POS),
        "cake_conductivity_W_per_mK": (0.217, _POS),
        "cake_density_kg_per_m3": (215.0, _POS),
        "cake_heat_capacity_J_per_kgK": (2590.0, _POS),
        "time_limit_s": (1.0e6, _POS),
    },
    "chamber": {
        "volume_m3": (0.118, _POS),
        "condenser_capacity_kg_per_s": (1.8e-5, _NONNEG),
        "vial_count": (200, {"type": "integer", "minimum": 1}),
        "gas_temperature_K": (260.0, _POS),
        "pressure_setpoint_Pa": (3.0, _NONNEG),
    },
    "pipeline": {
        "primary_start": ("final_cooling_end",
                          {"enum": ["final_cooling_end", "solidification_end"]}),
        "post_heat_duration_s": (0.0, _NONNEG),
        "samples_per_stage": (300, {"type": "integer", "minimum": 2}),
        # re-derive dried density and initial bound water from the actual
        # end-of-freezing state so all three stages share one water inventory
        "consistent_water": (False, {"type": "boolean"}),
    },
    "transport_analysis": {
        "porosity": (0.815, _OPEN_FRACTION),
        "tortuosity": (1.2, {"type": "number", "minimum": 1}),
        "pore_radius_m": (5.0e-6, _POS),
        "gas_diffusivity_m2_per_s": (1.97e-5, _POS),
        "temperature_K": (256.0, _POS),
        "molar_mass_g_per_mol": (18.0, _POS),
        "length_scale_m": (0.01, _POS),
        "desorption_rate_per_s": (7.8e-5, _POS),
        "biot": ([
            {"label": "gas_film", "htc_W_per_m2K": 8.0, "length_m": 0.012,
             "conductivity_W_per_mK": 2.25},
            {"label": "shelf_contact", "htc_W_per_m2K": 65.0, "length_m": 0.012,
             "conductivity_W_per_mK": 2.25},
        ], {"type": "array", "items": _obj({
            "label": _STRING,
            "htc_W_per_m2K": _POS,
            "length_m": _POS,
            "conductivity_W_per_mK": _POS,
        }, required=["label", "htc_W_per_m2K", "length_m", "conductivity_W_per_mK"])}),
    },
    "comparison": (None, _nullable(_obj({
        "reference_csv": _STRING,
        "observable": _STRING,
        "time_column": _STRING,
        "value_column": _STRING,
        "thresholds": _obj({
            "rmse": _NONNEG,
            "max_abs": _NONNEG,
            "terminal_time_rel": _NONNEG,
        }),
    }, required=["reference_csv", "observable"]))),
    "output": {"directory": (None, _nullable(_STRING))},
}


def _split(node) -> tuple[Any, dict[str, Any]]:
    """(defaults, schema) of a table leaf or section."""
    if isinstance(node, tuple):
        return node
    pairs = {key: _split(sub) for key, sub in node.items()}
    return ({key: d for key, (d, _) in pairs.items()},
            _obj({key: s for key, (_, s) in pairs.items()}))


DEFAULT_SCENARIO, SCENARIO_SCHEMA = _split(_TABLE)


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


def _nucleation_from(d: dict, seed: int | None):
    mode = d["mode"]
    if mode == "controlled":
        return ControlledNucleation(temperature_K=d["temperature_K"])
    if mode == "stochastic":
        return StochasticNucleation(
            rate_prefactor=d["rate_prefactor_per_m3_s_K"],
            rate_exponent=d["rate_exponent"],
            seed=seed,
        )
    raise ScenarioError(f"unknown nucleation mode {mode!r}")


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


def _schedule(scenario: dict[str, Any], key: str) -> Schedule:
    """The schedule at the dotted scenario ``key``; a table that is no
    valid schedule raises a :class:`ConfigurationError` naming the key."""
    section, name = key.split(".")
    try:
        return as_schedule(scenario[section][name])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from exc


def build_parameters(scenario: dict[str, Any]) -> ParameterSet:
    """Assemble a :class:`ParameterSet` from a fully merged scenario dict."""
    fd = scenario["formulation"]
    formulation = Formulation(
        x_s=fd["solute_mass_fraction"],
        V_l=fd["fill_volume_m3"],
        rho_s=fd["solute_density_kg_per_m3"],
        rho_w=fd["water_density_kg_per_m3"],
        rho_i=fd["ice_density_kg_per_m3"],
        Cp_s=fd["solute_heat_capacity_J_per_kgK"],
        Cp_w=fd["water_heat_capacity_J_per_kgK"],
        Cp_i=fd["ice_heat_capacity_J_per_kgK"],
        k_s=fd["solute_conductivity_W_per_mK"],
        k_w=fd["water_conductivity_W_per_mK"],
        k_i=fd["ice_conductivity_W_per_mK"],
        M_s=fd["solute_molar_mass_kg_per_mol"],
        M_w=fd["water_molar_mass_kg_per_mol"],
        M_in=fd["inert_molar_mass_kg_per_mol"],
        K_f=fd["cryoscopic_constant_kgK_per_mol"],
    )
    matrix = scenario["frozen_matrix"]
    mixture = mixture_properties(
        formulation, scenario["vial"]["diameter_m"],
        Cp_f_override=matrix["heat_capacity_J_per_kgK"],
        k_f_override=matrix["conductivity_W_per_mK"],
    )
    height = scenario["vial"]["product_height_m"]
    geometry = VialGeometry(d=scenario["vial"]["diameter_m"],
                            H=height if height is not None else mixture.H)
    rd = scenario["radiation"]
    with _scenario_keys({"F_top": "radiation.transfer_factor_top",
                         "F_side": "radiation.transfer_factor_side",
                         "eps_glass": "radiation.glass_emissivity"}):
        radiation = RadiationSpec(F_top=rd["transfer_factor_top"],
                                  F_side=rd["transfer_factor_side"],
                                  eps_glass=rd["glass_emissivity"])
    seed = scenario.get("seed")

    fz = scenario["freezing"]
    with _scenario_keys({"visf_start_s": "freezing.depressurization_start_s"}):
        freezing = FreezingProtocol(
            gas_temperature=_schedule(scenario, "freezing.gas_temperature_K"),
            wall_temperature=_schedule(scenario, "freezing.wall_temperature_K"),
            upper_temperature=_schedule(scenario, "freezing.upper_temperature_K"),
            total_pressure=_schedule(scenario, "freezing.total_pressure_Pa"),
            h_top=fz["top_htc_W_per_m2K"],
            h_bottom=fz["bottom_htc_W_per_m2K"],
            h_side=fz["side_htc_W_per_m2K"],
            h_mass=fz["evaporation_coefficient_kg_per_m2s"],
            p_w_chamber=fz["chamber_water_pressure_Pa"],
            nucleation=_nucleation_from(fz["nucleation"], seed),
            visf_start_s=fz["depressurization_start_s"],
            solidification_fraction=fz["solidification_fraction"],
            final_temperature_K=fz["final_temperature_K"],
            final_tolerance_K=fz["final_tolerance_K"],
            dH_fus=fz["heat_of_fusion_J_per_kg"],
            stage_time_limit_s=fz["stage_time_limit_s"],
        )

    pr = scenario["primary"]
    rho_f = matrix["density_kg_per_m3"]
    frozen_density = ("frozen_matrix.density_kg_per_m3" if rho_f is not None
                      else "the frozen density from the formulation")
    with _scenario_keys({"rho_f": frozen_density, "rho_e": "primary.dried_density_kg_per_m3"}):
        primary = DryingParams(
            shelf_temperature=_schedule(scenario, "primary.shelf_temperature_K"),
            wall_temperature=_schedule(scenario, "primary.wall_temperature_K"),
            upper_temperature=_schedule(scenario, "primary.upper_temperature_K"),
            rho_f=rho_f if rho_f is not None else mixture.rho_f,
            Cp_f=mixture.Cp_f,
            k_f=mixture.k_f,
            rho_e=pr["dried_density_kg_per_m3"],
            h_b=pr["bottom_htc_W_per_m2K"],
            Rp0=pr["cake_resistance_R0_m_per_s"],
            Rp1=pr["cake_resistance_R1_m_per_s"],
            Rp2=pr["cake_resistance_R2_m"],
            dH_sub=pr["sublimation_heat_J_per_kg"],
            p_w_chamber=pr["chamber_water_pressure_Pa"],
        )

    sd = scenario["secondary"]
    secondary = DesorptionKinetics(
        f_a=sd["desorption_prefactor_per_s"],
        E_a=sd["desorption_activation_energy_J_per_mol"],
        c_eq=sd["equilibrium_bound_water_kg_per_kg"],
        rho_d=sd["desorption_density_kg_per_m3"],
        dH_des=sd["desorption_heat_J_per_kg"],
        k_e=sd["cake_conductivity_W_per_mK"],
        rho_e=sd["cake_density_kg_per_m3"],
        Cp_e=sd["cake_heat_capacity_J_per_kgK"],
    )
    secondary_conditions = DryingConditions(
        shelf_temperature=_schedule(scenario, "secondary.shelf_temperature_K"),
        wall_temperature=_schedule(scenario, "secondary.wall_temperature_K"),
        upper_temperature=_schedule(scenario, "secondary.upper_temperature_K"),
        h_b=sd["bottom_htc_W_per_m2K"],
    )
    c0 = sd["initial_bound_water_kg_per_kg"]
    if isinstance(c0, (list, tuple)):
        if len(c0) != 2:
            raise ScenarioError("initial_bound_water_kg_per_kg must be a scalar or "
                                "a [top, bottom] pair")
        c0 = (float(c0[0]), float(c0[1]))

    ch = scenario["chamber"]
    chamber = ChamberModel(
        V_c=ch["volume_m3"],
        j_w_max=ch["condenser_capacity_kg_per_s"],
        n_vial=ch["vial_count"],
        T_bar=ch["gas_temperature_K"],
        p_setpoint=ch["pressure_setpoint_Pa"],
        M_w=formulation.M_w,
    )

    it = scenario["integrator"]
    max_step = it["max_step_s"]
    integrator = IntegratorConfig(
        rtol=it["rtol"],
        atol=it["atol"],
        max_step=float("inf") if max_step is None else max_step,
    )

    pl = scenario["pipeline"]
    if pl["primary_start"] not in ("final_cooling_end", "solidification_end"):
        raise ScenarioError("pipeline.primary_start must be 'final_cooling_end' or "
                            "'solidification_end'")
    return ParameterSet(
        formulation=formulation,
        mixture=mixture,
        geometry=geometry,
        radiation=radiation,
        freezing=freezing,
        freezing_initial_T=fz["initial_temperature_K"],
        primary=primary,
        primary_initial_T=pr["initial_temperature_K"],
        primary_time_limit_s=pr["time_limit_s"],
        secondary=secondary,
        secondary_conditions=secondary_conditions,
        secondary_initial_T=sd["initial_temperature_K"],
        bound_water_initial=c0,
        bound_water_target=sd["target_bound_water_kg_per_kg"],
        secondary_time_limit_s=sd["time_limit_s"],
        chamber=chamber,
        integrator=integrator,
        n_z=scenario["grid"]["n_nodes"],
        seed=seed,
        primary_start=pl["primary_start"],
        post_heat_duration_s=pl["post_heat_duration_s"],
        samples_per_stage=pl["samples_per_stage"],
        consistent_water=pl["consistent_water"],
    )


def default_parameters(overrides: dict[str, Any] | None = None) -> ParameterSet:
    """Baseline :class:`ParameterSet`, optionally with scenario-style overrides."""
    scenario = DEFAULT_SCENARIO if overrides is None else deep_merge(DEFAULT_SCENARIO, overrides)
    return build_parameters(scenario)
