"""Full-cycle driver: freezing -> primary drying -> secondary drying.

Stages chain through their end states: the frozen product temperature
seeds a uniform primary-drying profile, and the primary profile copies
node by node into the secondary grid.  The water inventory is audited
across the whole cycle (surface evaporation during depressurization,
sublimed ice, desorbed and residual bound water).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any

import numpy as np

from .drying_primary import STAGE_PRIMARY, run_primary
from .drying_secondary import STAGE_SECONDARY, run_secondary
from .errors import ConfigurationError
from .freezing import VialState, run_freezing
from .params import ParameterSet
from .thermo import trapezoid_weights
from .trajectory import CycleResult, Trajectory

__all__ = ["run_full_cycle", "consistent_parameters"]


def consistent_parameters(params: ParameterSet, final_state: VialState) -> ParameterSet:
    """Tie the drying stages to an actual end-of-freezing state.

    The dried-layer density is chosen so the mass swept by the moving front
    over the full height equals the frozen mass, and the initial bound
    water is the unfrozen remainder per unit solid.  With these the cycle
    water balance closes up to integration error.
    """
    A_z = params.geometry.A_z
    rho_e = params.primary.rho_f - final_state.m_i / (A_z * params.geometry.H)
    if rho_e <= 0.0:
        raise ConfigurationError(
            "frozen mass exceeds the product capacity; cannot build a "
            "consistent dried-layer density")
    primary = replace(params.primary, rho_e=rho_e)
    c0 = final_state.m_w / params.mixture.m_s
    return replace(params, primary=primary, bound_water_initial=c0)


def run_full_cycle(params: ParameterSet, *,
                   rng: np.random.Generator | None = None,
                   scenario: dict[str, Any] | None = None) -> CycleResult:
    """Simulate one vial through the complete cycle.

    ``rng`` overrides the seeded generator for stochastic nucleation.
    ``scenario`` is stored verbatim on the result for provenance; it does
    not affect the run.  Raises the stage drivers' errors unchanged.
    """
    wall0 = time.perf_counter()
    stop_after = ("solidification" if params.primary_start == "solidification_end"
                  else "final_cooling")
    freeze = run_freezing(params.initial_vial_state(), params.freezing_system(),
                          params.integrator,
                          samples_per_stage=params.samples_per_stage,
                          rng=rng, stop_after=stop_after)
    fs: VialState = freeze.meta["final_state"]

    if params.consistent_water:
        params = consistent_parameters(params, fs)

    primary = run_primary(fs.T, params.primary, params.radiation, params.geometry,
                          n_z=params.n_z, config=params.integrator, t0=fs.t,
                          time_limit_s=params.primary_time_limit_s,
                          samples=params.samples_per_stage)
    ps = primary.meta["final_state"]

    c0 = params.bound_water_profile()
    secondary = run_secondary(ps.T, c0, params.secondary, params.radiation,
                              params.secondary_conditions, params.geometry,
                              c_target=params.bound_water_target, n_z=params.n_z,
                              config=params.integrator, t0=ps.t,
                              time_limit_s=params.secondary_time_limit_s,
                              samples=params.samples_per_stage)
    parts = {"freezing": freeze, STAGE_PRIMARY: primary, STAGE_SECONDARY: secondary}
    end_state = secondary.meta["final_state"]

    if params.post_heat_duration_s > 0.0:
        # conduction-only hold at the secondary conditions; bound water is
        # already at target, so desorption is switched off
        hold = run_secondary(end_state.T, end_state.c_w,
                             replace(params.secondary, f_a=0.0), params.radiation,
                             params.secondary_conditions, params.geometry,
                             c_target=None, n_z=params.n_z, config=params.integrator,
                             t0=end_state.t, time_limit_s=params.post_heat_duration_s,
                             samples=max(2, params.samples_per_stage // 3),
                             stage_label="post_heating")
        parts["post_heating"] = hold
        end_state = hold.meta["final_state"]

    w = trapezoid_weights(params.n_z)
    m_w0 = params.mixture.m_w0
    m_s = params.mixture.m_s
    visf_loss = freeze.meta["visf_water_loss_kg"]
    sublimed = primary.meta["sublimed_mass_kg"]
    c_bar0 = float(c0 @ w)
    c_bar_end = float(end_state.c_w @ w)
    removed = m_s * (c_bar0 - c_bar_end)
    residual = m_s * c_bar_end
    accounted = visf_loss + sublimed + removed + residual
    water_balance = {
        "initial_water_kg": m_w0,
        "evaporated_visf_kg": visf_loss,
        "ice_end_of_freezing_kg": fs.m_i,
        "unfrozen_end_of_freezing_kg": fs.m_w,
        "sublimed_kg": sublimed,
        "bound_water_initial_kg": m_s * c_bar0,
        "bound_water_removed_kg": removed,
        "bound_water_residual_kg": residual,
        "accounted_kg": accounted,
        "closure_residual_kg": m_w0 - accounted,
        "closure_relative": (m_w0 - accounted) / m_w0,
    }

    combined = Trajectory.concatenate(parts)
    stage_times = dict(combined.events)
    stage_times["cycle_end_s"] = float(end_state.t)
    return CycleResult(
        freezing=freeze,
        primary=primary,
        secondary=secondary,
        combined=combined,
        stage_times=stage_times,
        water_balance=water_balance,
        parameters=scenario if scenario is not None else {},
        runtime_s=time.perf_counter() - wall0,
    )
