"""Secondary drying: desorption of bound water from the dried cake.

The cake occupies the fixed domain z in [0, H] (node 0 at the exposed top,
node n_z - 1 at the vial bottom).  Bound water desorbs node-by-node with
first-order linear-driving-force kinetics whose rate constant is Arrhenius
in the local temperature; desorption is endothermic and shows up as a heat
sink in the energy balance.  Heat enters through the bottom film against
the shelf-gas temperature, radiation from the upper surface onto the top,
and distributed radiation from the chamber wall through the glass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import NONNEG, POS, check_bounds
from .errors import ConfigurationError, StageTimeoutError
from .schedules import Schedule
from .solver import (CoupledTridiagonal, EventSpec, IntegrationResult, IntegratorConfig,
                     integrate_adaptive)
from .thermo import (GAS_CONSTANT, STEFAN_BOLTZMANN, RadiationSpec, VialGeometry, as_profile,
                     trapezoid_weights)
from .trajectory import Trajectory

__all__ = [
    "STAGE_SECONDARY",
    "SecondaryState", "DesorptionKinetics", "DryingConditions",
    "desorption_rate", "run_secondary",
]

STAGE_SECONDARY = "secondary_drying"

log = logging.getLogger(__name__)


@dataclass
class SecondaryState:
    """Distributed state: node temperatures (K) and bound-water contents
    (kg water per kg solid), top node first."""

    T: np.ndarray
    c_w: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class DesorptionKinetics:
    """Desorption kinetics and effective dried-cake properties.

    dc_w/dt = -f_a exp(-E_a / (R T)) (c_w - c_eq); ``rho_d`` converts the
    per-solid water content into a volumetric source, ``dH_des`` is the
    desorption heat, and ``k_e``/``rho_e``/``Cp_e`` are the effective
    conduction properties of the cake.
    """

    f_a: float = field(default=1.5e-3, metadata=NONNEG)  # 1/s
    E_a: float = field(default=6500.0, metadata=NONNEG)  # J/mol
    c_eq: float = field(default=0.0, metadata=NONNEG)  # kg/kg equilibrium bound water
    # kg/m^3 solid basis for the desorption heat source
    rho_d: float = field(default=212.21, metadata=POS)
    dH_des: float = field(default=2.68e6, metadata=POS)  # J/kg
    k_e: float = field(default=0.217, metadata=POS)  # W/m/K
    rho_e: float = field(default=215.0, metadata=POS)  # kg/m^3
    Cp_e: float = field(default=2590.0, metadata=POS)  # J/kg/K

    def __post_init__(self) -> None:
        check_bounds(self)

    def rate_constant(self, T):
        """Arrhenius desorption rate constant k_d (1/s); accepts arrays."""
        return self.f_a * np.exp(-self.E_a / (GAS_CONSTANT * np.asarray(T, dtype=float)))


@dataclass(frozen=True)
class DryingConditions:
    """Boundary conditions of a fixed-grid drying stage."""

    shelf_temperature: Schedule
    wall_temperature: Schedule
    upper_temperature: Schedule
    h_b: float = field(default=15.0, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)


def desorption_rate(T, c_w, kin: DesorptionKinetics):
    """dc_w/dt (1/s, per kg solid) of the linear-driving-force model;
    vanishes at equilibrium and is negative above it.  Vectorized."""
    return -kin.rate_constant(T) * (np.asarray(c_w, dtype=float) - kin.c_eq)


def _make_core(kin: DesorptionKinetics, rad: RadiationSpec, cond: DryingConditions,
               geom: VialGeometry, n_z: int, t0: float = 0.0
               ) -> tuple[Callable[[float, np.ndarray], np.ndarray],
                          Callable[[float, np.ndarray], CoupledTridiagonal]]:
    """Build the discretized cake equations on the state y = (T, c_w) and
    their exact Jacobian.

    Returns ``(rhs, jac)``: ``rhs(t, y)`` is (dT/dt, dc_w/dt) stacked, and
    ``jac(t, y)`` its Jacobian as a
    :class:`~lyosim.solver.CoupledTridiagonal`: a tridiagonal T block,
    diagonal T-c_w coupling both ways and a diagonal c_w block.  The
    schedules, read at the stage time t - t0, enter the right-hand side
    additively, so the Jacobian does not depend on time.
    """
    if n_z < 3:
        raise ConfigurationError("need at least 3 grid nodes")
    dz = geom.H / (n_z - 1)
    rho_cp = kin.rho_e * kin.Cp_e
    a = kin.k_e / (rho_cp * dz**2)
    sink = kin.rho_d * kin.dH_des / rho_cp
    # lateral radiation: A_side / V_cake = 4 / d regardless of fill height
    side_rad = STEFAN_BOLTZMANN * rad.F_side * 4.0 / (geom.d * rho_cp)
    # ghost nodes carry the top radiative flux and the bottom film condition
    top_gain = (2.0 * dz / kin.k_e) * STEFAN_BOLTZMANN * rad.F_top
    film_gain = 2.0 * dz * cond.h_b / kin.k_e

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        T = y[:n_z]
        dc = desorption_rate(T, y[n_z:], kin)
        Te = np.empty(n_z + 2)
        Te[1:-1] = T
        Te[0] = T[1] + top_gain * (cond.upper_temperature(t - t0)**4 - T[0]**4)
        Te[-1] = T[n_z - 2] - film_gain * (T[n_z - 1] - cond.shelf_temperature(t - t0))
        diff = (Te[2:] - 2.0 * T + Te[:-2]) * a
        q_rad = side_rad * (cond.wall_temperature(t - t0)**4 - T**4)
        return np.concatenate([diff + sink * dc + q_rad, dc])

    upper = np.full(n_z - 1, a)
    upper[0] = 2.0 * a  # the top ghost node carries T_1 too
    lower = np.full(n_z - 1, a)
    lower[-1] = 2.0 * a  # the bottom ghost node carries T_{n_z-2} too

    def jac(t: float, y: np.ndarray) -> CoupledTridiagonal:
        T = y[:n_z]
        k_d = kin.rate_constant(T)
        dc_dT = -k_d * (kin.E_a / (GAS_CONSTANT * T**2)) * (y[n_z:] - kin.c_eq)
        diag = -2.0 * a + sink * dc_dT - 4.0 * side_rad * T**3
        diag[0] -= a * 4.0 * top_gain * T[0] ** 3
        diag[-1] -= a * film_gain
        return CoupledTridiagonal(lower, diag, upper, -sink * k_d, dc_dT, -k_d)

    return rhs, jac


def run_secondary(initial_temperature: float | np.ndarray,
                  initial_bound_water: float | np.ndarray,
                  kin: DesorptionKinetics, rad: RadiationSpec,
                  cond: DryingConditions, geom: VialGeometry, *,
                  c_target: float | None, n_z: int, time_limit_s: float, samples: int,
                  config: IntegratorConfig = IntegratorConfig(),
                  t0: float = 0.0,
                  stage_label: str = STAGE_SECONDARY) -> Trajectory:
    """Integrate secondary drying from t0 until the volume-averaged bound
    water falls to ``c_target`` (kg/kg).

    ``c_target``, ``n_z``, ``time_limit_s`` and ``samples`` (trajectory
    rows) are the scenario's ``secondary.target_bound_water_kg_per_kg``,
    ``grid.n_nodes``, ``secondary.time_limit_s`` and
    ``pipeline.samples_per_stage``; the schedules of ``cond`` run on stage
    time, t - t0.  Initial fields may be scalars (uniform) or
    length-``n_z`` arrays; the chained start copies the primary-drying
    profile node by node.  A start already below the target completes the
    stage at t0: it takes no step and gives one row, and ``meta["solver"]``
    reports zero counts.  A target not reached within ``time_limit_s``
    raises :class:`StageTimeoutError`.  With ``c_target=None`` the run has
    no target and lasts exactly ``time_limit_s`` (a fixed-duration hold).
    ``stage_label`` renames the stage column and end event, e.g. for
    post-heating holds.
    """
    if samples < 2:
        raise ConfigurationError("need at least 2 trajectory samples")
    T0 = as_profile(initial_temperature, n_z, "initial temperature")
    c0 = as_profile(initial_bound_water, n_z, "initial bound water")
    if np.any(c0 < 0.0):
        raise ConfigurationError("bound water cannot be negative")
    if c_target is not None and c_target < 0.0:
        raise ConfigurationError("bound-water target must be nonnegative")
    w = trapezoid_weights(n_z)
    log.info("%s: start at t = %.6g s", stage_label, t0)

    y0 = np.concatenate([T0, c0])
    done = None if c_target is None else EventSpec(
        lambda t, y: float(y[n_z:] @ w) - c_target, direction=-1.0, name="dry_enough")
    if done is not None and done.reached(t0, y0):
        res = IntegrationResult.at_start(t0, y0, done)
    else:
        rhs, jac = _make_core(kin, rad, cond, geom, n_z, t0=t0)
        res = integrate_adaptive(rhs, (t0, t0 + time_limit_s), y0, config,
                                 events=None if done is None else [done], jac=jac)
    if done is not None and res.event is None:
        c_last = float(res.y_last[n_z:] @ w)
        raise StageTimeoutError(
            f"average bound water only fell to {c_last:.4g} kg/kg (target "
            f"{c_target:.4g}) within the horizon", stage=stage_label, t=res.t[-1])

    # the end of the horizon is the end of a hold without a target
    ts, ys = res.resample(samples)
    t_end = float(ts[-1])
    T_hist = ys[:n_z, :].T
    c_hist = ys[n_z:, :].T
    traj = Trajectory(
        t=ts,
        stage=[stage_label] * ts.shape[0],
        series={
            "temperature_avg_K": T_hist @ w,
            "temperature_bottom_K": T_hist[:, -1].copy(),
            "temperature_top_K": T_hist[:, 0].copy(),
            "bound_water_avg_kg_per_kg": c_hist @ w,
        },
        fields={"temperature_K": T_hist, "bound_water_kg_per_kg": c_hist},
        events={f"{stage_label}_end_s": t_end},
    )
    traj.meta["duration_s"] = float(ts[-1] - ts[0])
    traj.meta["n_z"] = n_z
    traj.meta["final_state"] = SecondaryState(T=T_hist[-1].copy(), c_w=c_hist[-1].copy(),
                                              t=t_end)
    traj.meta["solver"] = res.counters()
    log.info("%s: end at t = %.6g s, solver %s", stage_label, t_end, traj.meta["solver"])
    return traj
