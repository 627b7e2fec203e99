"""Default operating parameters and assembly into typed model objects.

``DEFAULT_SCENARIO`` is the complete baseline description of one cycle:
formulation, vial, radiation factors, and per-stage operating conditions.
Scenario files override any subset of it; :func:`build_parameters` turns
the merged dictionary into the dataclasses the stage drivers consume.
Scenario keys carry their units in the name.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

from .chamber import ChamberModel
from .drying_primary import DryingParams
from .drying_secondary import DesorptionKinetics, DryingConditions
from .errors import ScenarioError
from .freezing import (
    ControlledNucleation,
    FreezingProtocol,
    FreezingSystem,
    StochasticNucleation,
    VialState,
)
from .schedules import as_schedule
from .solver import IntegratorConfig
from .thermo import Formulation, MixtureProperties, RadiationSpec, VialGeometry, mixture_properties

__all__ = ["DEFAULT_SCENARIO", "ParameterSet", "build_parameters",
           "default_parameters", "deep_merge"]


DEFAULT_SCENARIO: dict[str, Any] = {
    "name": "defaults",
    "seed": 20260815,
    "grid": {"n_nodes": 51},
    "integrator": {
        "rtol": 1.0e-6,
        "atol": 1.0e-9,
        "method": "bdf",
        "max_step_s": None,
    },
    "formulation": {
        "solute_mass_fraction": 0.05,
        "fill_volume_m3": 3.0e-6,
        "solute_density_kg_per_m3": 1587.9,
        "water_density_kg_per_m3": 1000.0,
        "ice_density_kg_per_m3": 917.0,
        "solute_heat_capacity_J_per_kgK": 1204.0,
        "water_heat_capacity_J_per_kgK": 4187.0,
        "ice_heat_capacity_J_per_kgK": 2108.0,
        "solute_conductivity_W_per_mK": 0.126,
        "water_conductivity_W_per_mK": 0.598,
        "ice_conductivity_W_per_mK": 2.25,
        "solute_molar_mass_kg_per_mol": 0.3423,
        "water_molar_mass_kg_per_mol": 0.018,
        "inert_molar_mass_kg_per_mol": 0.028,
        "cryoscopic_constant_kgK_per_mol": 1.86,
    },
    "vial": {
        "diameter_m": 0.024,
        # null derives the height from the fill volume and frozen density
        "product_height_m": None,
    },
    "radiation": {
        "glass_emissivity": 0.8,
        "transfer_factor_top": 0.8,
        "transfer_factor_side": 0.624,
    },
    "frozen_matrix": {
        # measured values; null falls back to the mixing rules
        "density_kg_per_m3": None,
        "heat_capacity_J_per_kgK": 2163.0,
        "conductivity_W_per_mK": 2.07,
    },
    "freezing": {
        "initial_temperature_K": 298.15,
        # the vial moves to the depressurized chamber at 3600 s; conditions
        # transition linearly over the 30 s pressure ramp
        "gas_temperature_K": [[3600.0, 268.0], [3630.0, 230.0]],
        "wall_temperature_K": [[3600.0, 273.0], [3630.0, 240.0]],
        "upper_temperature_K": [[3600.0, 273.0], [3630.0, 240.0]],
        "total_pressure_Pa": [[3600.0, 1.0e5], [3630.0, 1.0e4]],
        "chamber_water_pressure_Pa": 0.0,
        "top_htc_W_per_m2K": 5.0,
        "bottom_htc_W_per_m2K": 10.0,
        "side_htc_W_per_m2K": 8.0,
        "evaporation_coefficient_kg_per_m2s": 6.34e-3,
        "depressurization_start_s": 3600.0,
        "nucleation": {
            "mode": "controlled",
            "temperature_K": 268.0,
            "rate_prefactor_per_m3_s_K": 1.0e-5,
            "rate_exponent": 10.0,
        },
        "solidification_fraction": 0.95,
        "final_temperature_K": 235.0,
        "final_tolerance_K": 0.5,
        "heat_of_fusion_J_per_kg": 3.34e5,
        "stage_time_limit_s": 1.0e6,
    },
    "primary": {
        "initial_temperature_K": 235.0,
        "shelf_temperature_K": 270.0,
        "wall_temperature_K": 265.0,
        "upper_temperature_K": 265.0,
        "bottom_htc_W_per_m2K": 15.0,
        "chamber_water_pressure_Pa": 3.0,
        "cake_resistance_R0_m_per_s": 1.5e4,
        "cake_resistance_R1_m_per_s": 3.0e7,
        "cake_resistance_R2_m": 10.0,
        "sublimation_heat_J_per_kg": 2.84e6,
        "dried_density_kg_per_m3": 215.0,
        "time_limit_s": 1.0e6,
    },
    "secondary": {
        "initial_temperature_K": 273.15,
        "initial_bound_water_kg_per_kg": 0.088,
        "target_bound_water_kg_per_kg": 0.01,
        "equilibrium_bound_water_kg_per_kg": 0.0,
        "shelf_temperature_K": 295.0,
        "wall_temperature_K": 290.0,
        "upper_temperature_K": 290.0,
        "bottom_htc_W_per_m2K": 15.0,
        "desorption_prefactor_per_s": 1.5e-3,
        "desorption_activation_energy_J_per_mol": 6500.0,
        "desorption_heat_J_per_kg": 2.68e6,
        "desorption_density_kg_per_m3": 212.21,
        "cake_conductivity_W_per_mK": 0.217,
        "cake_density_kg_per_m3": 215.0,
        "cake_heat_capacity_J_per_kgK": 2590.0,
        "time_limit_s": 1.0e6,
    },
    "chamber": {
        "volume_m3": 0.118,
        "condenser_capacity_kg_per_s": 1.8e-5,
        "vial_count": 200,
        "gas_temperature_K": 260.0,
        "pressure_setpoint_Pa": 3.0,
    },
    "pipeline": {
        "primary_start": "final_cooling_end",
        "post_heat_duration_s": 0.0,
        "samples_per_stage": 300,
        # re-derive dried density and initial bound water from the actual
        # end-of-freezing state so all three stages share one water inventory
        "consistent_water": False,
    },
    "transport_analysis": {
        "porosity": 0.815,
        "tortuosity": 1.2,
        "pore_radius_m": 5.0e-6,
        "gas_diffusivity_m2_per_s": 1.97e-5,
        "temperature_K": 256.0,
        "molar_mass_g_per_mol": 18.0,
        "length_scale_m": 0.01,
        "desorption_rate_per_s": 7.8e-5,
        "biot": [
            {"label": "gas_film", "htc_W_per_m2K": 8.0, "length_m": 0.012,
             "conductivity_W_per_mK": 2.25},
            {"label": "shelf_contact", "htc_W_per_m2K": 65.0, "length_m": 0.012,
             "conductivity_W_per_mK": 2.25},
        ],
    },
    "comparison": None,
    "output": {"directory": None},
}


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
    n_z: int = 51
    seed: int | None = None
    primary_start: str = "final_cooling_end"
    post_heat_duration_s: float = 0.0
    samples_per_stage: int = 300
    consistent_water: bool = False

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
    radiation = RadiationSpec(F_top=rd["transfer_factor_top"],
                              F_side=rd["transfer_factor_side"],
                              eps_glass=rd["glass_emissivity"])
    seed = scenario.get("seed")

    fz = scenario["freezing"]
    freezing = FreezingProtocol(
        gas_temperature=as_schedule(fz["gas_temperature_K"]),
        wall_temperature=as_schedule(fz["wall_temperature_K"]),
        upper_temperature=as_schedule(fz["upper_temperature_K"]),
        total_pressure=as_schedule(fz["total_pressure_Pa"]),
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
    primary = DryingParams(
        shelf_temperature=as_schedule(pr["shelf_temperature_K"]),
        wall_temperature=as_schedule(pr["wall_temperature_K"]),
        upper_temperature=as_schedule(pr["upper_temperature_K"]),
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
        shelf_temperature=as_schedule(sd["shelf_temperature_K"]),
        wall_temperature=as_schedule(sd["wall_temperature_K"]),
        upper_temperature=as_schedule(sd["upper_temperature_K"]),
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
        method=it["method"],
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
