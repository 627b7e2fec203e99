"""Primary drying: a sublimation front recedes through the frozen product.

The frozen region occupies z in [S(t), H], with z measured downward from
the exposed product top, so the front sits at z = S and the vial bottom at
z = H.  The coordinate map xi = (z - S)/(H - S) fixes the moving domain to
[0, 1]; the price is an advection-like term proportional to the front
velocity.  Spatial derivatives are discretized with second-order central
differences on a uniform xi grid (node 0 on the front, node n_z - 1 on the
bottom); both Neumann boundaries are folded in by ghost-node elimination,
which keeps the scheme second order.

Vapor leaving the front crosses the already-dried cake whose resistance
grows with cake depth, R_p(S) = Rp0 + Rp1 S / (Rp2 + S); the flux is
proportional to the gap between the ice saturation pressure at the front
temperature and the chamber water partial pressure, clamped at zero
because recondensation from the chamber is not modeled.  The chamber
partial pressure is either fixed or, when a condenser cannot keep up, a
state of the chamber water balance (:mod:`lyosim.chamber`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import NONNEG, POS, check_bounds
from .chamber import ChamberModel, chamber_pressure_gain, chamber_pressure_rhs
from .errors import ConfigurationError, DomainError, StageTimeoutError
from .schedules import Schedule
from .solver import BorderedTridiagonal, EventSpec, IntegratorConfig, integrate_adaptive
from .thermo import (STEFAN_BOLTZMANN, RadiationSpec, VialGeometry, as_profile,
                     psat_sublimation, psat_sublimation_slope, trapezoid_weights)
from .trajectory import Trajectory

__all__ = [
    "STAGE_PRIMARY",
    "PrimaryState", "DryingParams",
    "cake_resistance", "sublimation_flux", "run_primary",
]

STAGE_PRIMARY = "primary_drying"

# the front-completion margin: the integration stops with this fraction of
# the product height left, where the moving-domain transform nears its
# singularity, and the last sliver is removed by extrapolation
_FRONT_EPSILON_REL = 1.0e-3

log = logging.getLogger(__name__)


@dataclass
class PrimaryState:
    """Distributed state during primary drying: node temperatures T (K,
    node 0 at the sublimation front) and front position S (m, measured
    from the product top)."""

    T: np.ndarray
    S: float
    t: float = 0.0


@dataclass(frozen=True)
class DryingParams:
    """Frozen/dried-region properties and operating conditions.

    ``rho_f``/``Cp_f``/``k_f`` describe the frozen matrix, ``rho_e`` the
    dried cake; their difference sets how much mass one meter of front
    travel removes.  ``shelf_temperature`` drives the bottom film ``h_b``;
    the top exchanges radiatively with ``upper_temperature`` and the side
    with ``wall_temperature``.  Cake-resistance constants: ``Rp0`` (m/s),
    ``Rp1`` (1/s), ``Rp2`` (m).
    """

    shelf_temperature: Schedule
    wall_temperature: Schedule
    upper_temperature: Schedule
    rho_f: float = field(default=937.0, metadata=POS)
    Cp_f: float = field(default=2163.0, metadata=POS)
    k_f: float = field(default=2.07, metadata=POS)
    rho_e: float = field(default=215.0, metadata=POS)
    h_b: float = field(default=15.0, metadata=POS)
    Rp0: float = field(default=1.5e4, metadata=POS)
    Rp1: float = field(default=3.0e7, metadata=NONNEG)
    Rp2: float = field(default=10.0, metadata=POS)
    dH_sub: float = field(default=2.84e6, metadata=POS)
    p_w_chamber: float = field(default=3.0, metadata=NONNEG)

    def __post_init__(self) -> None:
        check_bounds(self)
        if not self.rho_f > self.rho_e:
            raise ConfigurationError(
                f"rho_e = {self.rho_e:g} must lie in (0, rho_f = {self.rho_f:g})")


def cake_resistance(S: float, dp: DryingParams) -> float:
    """Dried-cake resistance to vapor flow (Pa s m^2/kg equivalent, m/s form)."""
    if S < 0.0:
        raise DomainError("front position must be nonnegative")
    return dp.Rp0 + dp.Rp1 * S / (dp.Rp2 + S)


def sublimation_flux(T_interface: float, S: float, dp: DryingParams,
                     p_w_chamber: float) -> float:
    """Sublimation mass flux N_w (kg/m^2/s) off the front against the
    chamber water partial pressure ``p_w_chamber`` (Pa).

    Clamped at zero when the chamber partial pressure exceeds saturation
    at the front; vapor does not recondense onto the product.
    """
    driving = psat_sublimation(T_interface) - p_w_chamber
    if driving <= 0.0:
        return 0.0
    return driving / cake_resistance(S, dp)


def _make_core(dp: DryingParams, rad: RadiationSpec, geom: VialGeometry,
               n_z: int, chamber: ChamberModel | None = None, t0: float = 0.0
               ) -> tuple[Callable[[float, np.ndarray], np.ndarray],
                          Callable[[float, np.ndarray], BorderedTridiagonal]]:
    """Build the discretized equations of :func:`run_primary` on its state
    y = (T_0 ... T_{n_z-1}, S), with the chamber pressure p appended under a
    ``chamber``, and their exact Jacobian.

    Returns ``(rhs, jac)``.  Without a chamber the chamber water partial
    pressure is ``dp.p_w_chamber``; with one it is max(p, setpoint), as the
    controller holds the setpoint from below, and dp/dt is the chamber water
    balance :func:`~lyosim.chamber.chamber_pressure_rhs` under the load of
    ``chamber.n_vial`` vials.  ``rhs(t, y)`` is total: implicit-solver trial
    steps may probe unphysical states, so the flux vanishes for nonpositive
    front temperatures (the continuous limit, since saturation pressure
    vanishes there) and the gap H - S is floored at half the
    front-completion margin of :func:`run_primary` so the 1/gap^2 diffusion
    coefficient stays bounded when a trial step overshoots the terminal
    event.

    ``jac(t, y)`` is a :class:`~lyosim.solver.BorderedTridiagonal`:
    tridiagonal in T_1 ... T_{n_z-1}, bordered by T_0, S and p (every
    equation senses the front temperature through dS/dt and the gap
    through H - S; the front equation senses T_1 through its ghost node;
    the S and p rows hold entries in the border columns only).  It takes
    the branches of ``rhs``, the setpoint clamp among them, each with its
    one-sided derivative, so it is total on the same states.  Both read the
    schedules at stage time, t - t0.
    """
    if n_z < 3:
        raise ConfigurationError("need at least 3 grid nodes")
    H = geom.H
    dxi = 1.0 / (n_z - 1)
    xi = np.linspace(0.0, 1.0, n_z)
    upwind_coef = 1.0 - xi  # advection coefficient (1 - xi_j), zero at the bottom
    k = dp.k_f
    rho_cp = dp.rho_f * dp.Cp_f
    drho = dp.rho_f - dp.rho_e
    side_rad = STEFAN_BOLTZMANN * rad.F_side * 4.0 * H / geom.d  # A_r / (A_z H) folded in
    top_rad = STEFAN_BOLTZMANN * rad.F_top
    gap_floor = 0.5 * _FRONT_EPSILON_REL * H
    n = n_z + 1 if chamber is None else n_z + 2
    border = [0, *range(n_z, n)]  # T_0, S and p
    if chamber is not None:
        load = chamber.n_vial * geom.A_z  # vapor load (kg/s) per unit flux (kg/m^2/s)
        p_set = chamber.p_setpoint

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        T = y[:n_z]
        S = float(y[n_z])
        p = dp.p_w_chamber if chamber is None else max(float(y[n_z + 1]), p_set)
        gap = max(H - S, gap_floor)
        T_front = T[0]
        # T_front > 0 is False for NaN too; both want a dead flux
        N_w = sublimation_flux(T_front, max(S, 0.0), dp, p) if T_front > 0.0 else 0.0
        dS = N_w / drho
        T_b = dp.shelf_temperature(t - t0)
        T_u = dp.upper_temperature(t - t0)
        T_c = dp.wall_temperature(t - t0)
        q_top_rad = top_rad * (T_u**4 - T_front**4)
        Te = np.empty(n_z + 2)
        Te[1:-1] = T
        # ghost nodes fold the front energy balance and the bottom film in
        Te[0] = T[1] - (2.0 * dxi * gap / k) * (N_w * dp.dH_sub - q_top_rad)
        Te[-1] = T[n_z - 2] - (2.0 * dxi * gap * dp.h_b / k) * (T[n_z - 1] - T_b)
        diff = (Te[2:] - 2.0 * T + Te[:-2]) * (k / (rho_cp * gap**2 * dxi**2))
        conv = (Te[2:] - Te[:-2]) * (upwind_coef * dS / (2.0 * dxi * gap))
        q_rad = (side_rad / (rho_cp * gap)) * (T_c**4 - T**4)
        out = np.empty(n)
        out[:n_z] = diff + conv + q_rad
        out[n_z] = dS
        if chamber is not None:
            out[n_z + 1] = chamber_pressure_rhs(p, load * N_w, chamber)
        return out

    def jac(t: float, y: np.ndarray) -> BorderedTridiagonal:
        T = y[:n_z]
        S = float(y[n_z])
        p = dp.p_w_chamber if chamber is None else max(float(y[n_z + 1]), p_set)
        # the branches of rhs: gap floor, dead flux, max(S, 0)
        gap = max(H - S, gap_floor)
        gap_S = -1.0 if H - S >= gap_floor else 0.0
        T_front = T[0]
        N_w = N_T = N_S = N_p = 0.0
        if T_front > 0.0:
            S_eff = max(S, 0.0)
            driving = psat_sublimation(T_front) - p
            if driving > 0.0:
                R = cake_resistance(S_eff, dp)
                N_w = driving / R
                N_T = psat_sublimation_slope(T_front) / R
                N_p = -1.0 / R
                if S >= 0.0:
                    N_S = -N_w * dp.Rp1 * dp.Rp2 / ((dp.Rp2 + S_eff) ** 2 * R)
        T_b = dp.shelf_temperature(t - t0)
        T_u = dp.upper_temperature(t - t0)
        T_c = dp.wall_temperature(t - t0)
        # rhs's coefficients: diffusion a, advection beta, side radiation c
        a = k / (rho_cp * gap**2 * dxi**2)
        beta_N = 1.0 / (drho * 2.0 * dxi * gap)  # d beta / d N_w
        beta = N_w * beta_N
        c = side_rad / (rho_cp * gap)
        front_gain = 2.0 * dxi * gap / k
        film_gain = 2.0 * dxi * gap * dp.h_b / k
        net_front = N_w * dp.dH_sub - top_rad * (T_u**4 - T_front**4)
        ghost_top = T[1] - front_gain * net_front
        ghost_bot = T[n_z - 2] - film_gain * (T[n_z - 1] - T_b)
        left = np.concatenate(([ghost_top], T[:-1]))
        right = np.concatenate((T[1:], [ghost_bot]))
        lap = right - 2.0 * T + left
        u_diff = upwind_coef * (right - left)
        u_beta = upwind_coef * beta
        # derivatives of beta and of the ghost nodes along the border states
        beta_T = N_T * beta_N
        beta_S = N_S * beta_N - beta * gap_S / gap
        top_T = -front_gain * (N_T * dp.dH_sub + 4.0 * top_rad * T_front**3)
        top_S = -(2.0 * dxi / k) * (gap_S * net_front + gap * N_S * dp.dH_sub)
        bot_S = -(2.0 * dxi * dp.h_b / k) * gap_S * (T[n_z - 1] - T_b)
        via_top = a - u_beta[0]  # d f_0 / d ghost_top
        via_bot = a + u_beta[-1]  # d f_{n_z-1} / d ghost_bot

        cols = np.zeros((n, len(border)))  # J[:, border]
        col_T0, col_S = cols[:, 0], cols[:, 1]
        col_T0[:n_z] = u_diff * beta_T
        col_T0[0] += -2.0 * a + via_top * top_T - 4.0 * c * T_front**3
        col_T0[1] += a - u_beta[1]
        col_T0[n_z] = N_T / drho
        # the tridiagonal block in T_1 ... T_{n_z-1}
        upper = a + u_beta[1:-1]
        diag = -2.0 * a - 4.0 * c * T[1:] ** 3
        diag[-1] -= via_bot * film_gain
        lower = a - u_beta[2:]
        lower[-1] = 2.0 * a  # the bottom ghost node carries T_{n_z-2} too
        col_S[:n_z] = (-2.0 * a * gap_S / gap) * lap + u_diff * beta_S \
            - (c * gap_S / gap) * (T_c**4 - T**4)
        col_S[0] += via_top * top_S
        col_S[n_z - 1] += via_bot * bot_S
        col_S[n_z] = N_S / drho
        if chamber is not None:
            dp_dy = 1.0 if y[n_z + 1] >= p_set else 0.0  # zero under the setpoint clamp
            col_p = cols[:, 2]
            col_p[:n_z] = u_diff * (N_p * beta_N)
            col_p[0] -= via_top * front_gain * N_p * dp.dH_sub
            col_p[n_z] = N_p / drho
            col_p *= dp_dy
            # the load row: d(dp/dt)/dN_w times dN_w/d(T_0, S, p)
            gain = load * chamber_pressure_gain(p, load * N_w, chamber)
            col_T0[-1] = gain * N_T
            col_S[-1] = gain * N_S
            col_p[-1] = gain * N_p * dp_dy
        rows = np.zeros((len(border), n_z - 1))  # J[border, T_1 ... T_{n_z-1}]
        rows[0, 0] = 2.0 * a  # the top ghost node carries T_1 too
        return BorderedTridiagonal(lower, diag, upper, border, cols, rows)

    return rhs, jac


def run_primary(initial_temperature: float | np.ndarray,
                dp: DryingParams, rad: RadiationSpec, geom: VialGeometry,
                chamber: ChamberModel | None = None, *,
                n_z: int, time_limit_s: float, samples: int,
                config: IntegratorConfig = IntegratorConfig(),
                t0: float = 0.0) -> Trajectory:
    """Integrate primary drying from t0 until the front, which starts at the
    product top, reaches the vial bottom.

    ``n_z``, ``time_limit_s`` and ``samples`` (trajectory rows) are the
    scenario's ``grid.n_nodes``, ``primary.time_limit_s`` and
    ``pipeline.samples_per_stage``; the schedules of ``dp`` run from t0.
    ``initial_temperature`` may be a scalar (uniform profile, the usual
    chained start) or a length-``n_z`` array.  The moving-domain transform
    is singular at S = H, so the integration stops at the terminal event
    S = H (1 - 1e-3) and the removal of the remaining ice sliver (a
    thousandth of the ice) is completed by linear extrapolation at the
    terminal front speed; the final trajectory row marks completion with
    the front at H, zero flux, and zero ice.  If the horizon elapses
    before the event a :class:`StageTimeoutError` reports whether the
    front stalled for lack of driving force.  The trajectory carries the
    full temperature field under ``fields["temperature_K"]``.

    The mode is the ``chamber`` argument of one state-vector core,
    :func:`_make_core`, whose state is (T, S) or (T, S, p).  Without a
    ``chamber`` the chamber water partial pressure is held at
    ``dp.p_w_chamber``.  With a :class:`~lyosim.chamber.ChamberModel` the
    vial is one of ``chamber.n_vial`` identical vials sharing the chamber
    water balance: the partial pressure p is a state that starts at the
    setpoint, rises whenever the collective sublimation load exceeds the
    condenser capacity and feeds back on the flux of every vial, and
    ``meta`` gains ``peak_pressure_Pa`` and ``peak_load_kg_per_s``.
    """
    H = geom.H
    if samples < 2:
        raise ConfigurationError("need at least 2 trajectory samples")
    S_stop = H * (1.0 - _FRONT_EPSILON_REL)
    T0 = as_profile(initial_temperature, n_z, "initial temperature")
    log.info("%s: start at t = %.6g s", STAGE_PRIMARY, t0)
    rhs, jac = _make_core(dp, rad, geom, n_z, chamber, t0)
    A_z = geom.A_z

    def pressure(y: np.ndarray) -> np.ndarray:
        # the chamber water partial pressure along the states y, as rhs reads it
        if chamber is None:
            return np.full(y.shape[1:], dp.p_w_chamber)
        return np.maximum(y[n_z + 1], chamber.p_setpoint)

    y0 = np.concatenate([T0, [0.0] if chamber is None else [0.0, chamber.p_setpoint]])
    done = EventSpec(lambda t, y: y[n_z] - S_stop, direction=1.0, name="front_complete")
    res = integrate_adaptive(rhs, (t0, t0 + time_limit_s), y0, config,
                             events=[done], jac=jac)
    if res.event is None:
        y_last = res.y_last
        S_last = float(y_last[n_z])
        flux = sublimation_flux(float(y_last[0]), S_last, dp, float(pressure(y_last)))
        detail = ("sublimation driving force is nonpositive (front temperature too "
                  "cold for the chamber pressure)" if flux <= 0.0
                  else f"front still moving at {flux:.3e} kg/m^2/s")
        raise StageTimeoutError(
            f"front reached {S_last / H:.4f} of the product height within the time "
            f"horizon; {detail}", stage=STAGE_PRIMARY, t=res.t[-1])

    # extrapolate removal of the last ice sliver at the terminal front speed
    t_end = float(res.t[-1])
    y_end = res.y_last
    T_end = y_end[:n_z].copy()
    p_end = float(pressure(y_end))
    dS_end = sublimation_flux(T_end[0], S_stop, dp, p_end) / (dp.rho_f - dp.rho_e)
    t_complete = t_end + (H - S_stop) / dS_end if dS_end > 0.0 else t_end

    ts, ys = res.resample(samples - 1)
    T_hist = np.vstack([ys[:n_z, :].T, T_end])  # (n_time, n_z)
    S_hist = np.append(np.clip(ys[n_z, :], 0.0, H), H)
    p_hist = np.append(pressure(ys), p_end)
    ts = np.append(ts, t_complete)
    N_w = np.array([sublimation_flux(T_hist[i, 0], S_hist[i], dp, p_hist[i])
                    for i in range(ts.shape[0] - 1)] + [0.0])
    ice = (dp.rho_f - dp.rho_e) * A_z * (H - S_hist)
    traj = Trajectory(
        t=ts,
        stage=[STAGE_PRIMARY] * ts.shape[0],
        series={
            "temperature_avg_K": T_hist @ trapezoid_weights(n_z),
            "temperature_bottom_K": T_hist[:, -1].copy(),
            "temperature_top_K": T_hist[:, 0].copy(),
            "ice_mass_kg": ice,
            "front_position_m": S_hist.copy(),
            "sublimation_flux_kg_per_m2s": N_w,
            "chamber_water_pressure_Pa": p_hist,
        },
        fields={"temperature_K": T_hist},
        events={"primary_drying_end_s": float(t_complete)},
    )
    traj.meta["final_state"] = PrimaryState(T=T_end, S=H, t=float(t_complete))
    traj.meta["sublimed_mass_kg"] = float((dp.rho_f - dp.rho_e) * A_z * H)
    traj.meta["duration_s"] = float(t_complete - t0)
    if chamber is not None:
        traj.meta["peak_pressure_Pa"] = float(np.max(p_hist))
        traj.meta["peak_load_kg_per_s"] = float(np.max(chamber.n_vial * A_z * N_w))
    traj.meta["n_z"] = n_z
    traj.meta["solver"] = res.counters()
    log.info("%s: end at t = %.6g s, solver %s", STAGE_PRIMARY, t_complete,
             traj.meta["solver"])
    return traj
