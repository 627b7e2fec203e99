"""Chamber water-vapor balance when the condenser cannot keep up.

The drying chamber is normally held at a water partial-pressure setpoint
by the condenser.  If the total sublimation load of all vials exceeds the
condenser's maximum condensation rate, water vapor accumulates and the
chamber pressure rises, which in turn throttles the sublimation flux of
every vial; the coupled system finds a plateau where the vials collectively
sublime exactly at the condenser capacity.  The chamber gas is treated as
ideal and well mixed at a representative temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

from .drying_primary import (
    STAGE_PRIMARY,
    DryingParams,
    _make_core,
    sublimation_flux,
    _volume_average,
)
from .errors import ConfigurationError, StageTimeoutError
from .solver import EventSpec, IntegratorConfig, integrate_adaptive
from .thermo import GAS_CONSTANT, RadiationSpec, VialGeometry
from .trajectory import Trajectory

__all__ = ["ChamberModel", "chamber_pressure_rhs", "chamber_pressure_gain",
           "run_primary_with_condenser"]


@dataclass(frozen=True)
class ChamberModel:
    """Well-mixed chamber gas model and condenser capacity.

    ``j_w_max`` is the maximum condensation mass rate (kg/s) of the
    condenser; ``n_vial`` vials feed vapor into the free volume ``V_c``
    (m^3) at mean gas temperature ``T_bar`` (K).  ``p_setpoint`` (Pa) is
    the controlled water partial pressure while the condenser keeps up.
    """

    V_c: float = 0.118
    j_w_max: float = 1.8e-5
    n_vial: int = 200
    T_bar: float = 260.0
    p_setpoint: float = 3.0
    M_w: float = 0.018

    def __post_init__(self) -> None:
        if self.V_c <= 0.0 or self.T_bar <= 0.0 or self.M_w <= 0.0:
            raise ConfigurationError("chamber volume, temperature, and molar mass must be positive")
        if self.j_w_max < 0.0:
            raise ConfigurationError("condenser capacity must be nonnegative")
        if self.n_vial < 1:
            raise ConfigurationError("need at least one vial")
        if self.p_setpoint < 0.0:
            raise ConfigurationError("pressure setpoint must be nonnegative")


def chamber_pressure_rhs(p_w_c: float, j_w: float, ch: ChamberModel) -> float:
    """dp_w,c/dt (Pa/s) from the ideal-gas water balance of the chamber.

    ``j_w`` is the total vapor load (kg/s).  While the pressure sits at the
    setpoint and the condenser has spare capacity the controller holds the
    setpoint, so the derivative clamps to zero instead of going negative.
    """
    rate = (j_w - ch.j_w_max) * GAS_CONSTANT * ch.T_bar / (ch.V_c * ch.M_w)
    if p_w_c <= ch.p_setpoint and rate < 0.0:
        return 0.0
    return rate


def chamber_pressure_gain(p_w_c: float, j_w: float, ch: ChamberModel) -> float:
    """d(dp_w,c/dt)/dj_w (Pa/kg): the ideal-gas factor R T / (V M), or zero
    while the setpoint clamp of :func:`chamber_pressure_rhs` holds (the
    rate there is negative exactly when the load is under capacity)."""
    if p_w_c <= ch.p_setpoint and j_w < ch.j_w_max:
        return 0.0
    return GAS_CONSTANT * ch.T_bar / (ch.V_c * ch.M_w)


def run_primary_with_condenser(initial_temperature: float | np.ndarray,
                               dp: DryingParams, rad: RadiationSpec,
                               geom: VialGeometry, ch: ChamberModel, *,
                               n_z: int = 51,
                               config: IntegratorConfig = IntegratorConfig(),
                               t0: float = 0.0,
                               S0: float = 0.0,
                               time_limit_s: float = 1.0e6,
                               samples: int = 400,
                               front_epsilon_rel: float = 1.0e-3) -> Trajectory:
    """Primary drying of one representative vial coupled to the chamber
    water balance shared by ``ch.n_vial`` identical vials.

    Identical to :func:`lyosim.drying_primary.run_primary` except that the
    chamber water partial pressure is a state: it starts at the setpoint,
    rises whenever the collective sublimation load exceeds the condenser
    capacity, and feeds back on the flux of every vial.  As there, the last
    ``front_epsilon_rel`` of front travel is completed by extrapolation at
    the terminal front speed.
    """
    H = geom.H
    if samples < 2:
        raise ConfigurationError("need at least 2 trajectory samples")
    if not 0.0 < front_epsilon_rel < 0.1:
        raise ConfigurationError("front_epsilon_rel must lie in (0, 0.1)")
    T0 = np.asarray(initial_temperature, dtype=float)
    if T0.ndim == 0:
        T0 = np.full(n_z, float(T0))
    elif T0.shape != (n_z,):
        raise ConfigurationError(f"initial profile must have shape ({n_z},)")
    core, core_jac = _make_core(dp, rad, geom, n_z, gap_floor_rel=0.5 * front_epsilon_rel,
                                pressure_state=True)
    A_z = geom.A_z
    S_stop = H * (1.0 - front_epsilon_rel)
    if not 0.0 <= S0 < S_stop:
        raise ConfigurationError(
            "initial front position must lie in [0, H (1 - front_epsilon_rel))")

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        p = max(y[n_z + 1], ch.p_setpoint)
        dT, dS, N_w = core(t, y[:n_z], y[n_z], p)
        dpdt = chamber_pressure_rhs(p, ch.n_vial * A_z * N_w, ch)
        return np.concatenate([dT, [dS, dpdt]])

    def jac(t: float, y: np.ndarray) -> csc_matrix:
        p = max(y[n_z + 1], ch.p_setpoint)
        dp_dy = 1.0 if y[n_z + 1] >= ch.p_setpoint else 0.0

        def load_gain(N_w: float) -> float:
            return ch.n_vial * A_z * chamber_pressure_gain(p, ch.n_vial * A_z * N_w, ch)

        return core_jac(t, y[:n_z], y[n_z], p, dp_dy=dp_dy, load_gain=load_gain)

    done = EventSpec(lambda t, y: y[n_z] - S_stop, terminal=True, direction=1.0,
                     name="front_complete")
    y0 = np.concatenate([T0, [S0, ch.p_setpoint]])
    res = integrate_adaptive(rhs, (t0, t0 + time_limit_s), y0, config,
                             events=[done], jac=jac)
    t_end = res.first_event_time("front_complete")
    if t_end is None:
        raise StageTimeoutError(
            f"front reached {float(res.y[n_z, -1]) / H:.4f} of the product height "
            "within the time horizon", stage=STAGE_PRIMARY, t=res.t[-1])

    # extrapolate removal of the last ice sliver at the terminal front speed
    y_end = res.sol(t_end)
    T_end = y_end[:n_z].copy()
    p_end = max(float(y_end[n_z + 1]), ch.p_setpoint)
    dS_end = sublimation_flux(T_end[0], S_stop, dp, p_end) / (dp.rho_f - dp.rho_e)
    t_complete = t_end + (H - S_stop) / dS_end if dS_end > 0.0 else t_end

    ts = np.linspace(t0, t_end, samples - 1)
    ys = res.sol(ts)
    T_hist = np.vstack([ys[:n_z, :].T, T_end])
    S_hist = np.append(np.clip(ys[n_z, :], 0.0, H), H)
    p_hist = np.append(np.maximum(ys[n_z + 1, :], ch.p_setpoint), p_end)
    ts = np.append(ts, t_complete)
    N_w = np.array([
        sublimation_flux(T_hist[i, 0], S_hist[i], dp, p_hist[i])
        for i in range(ts.shape[0] - 1)
    ] + [0.0])
    ice = (dp.rho_f - dp.rho_e) * A_z * (H - S_hist)
    traj = Trajectory(
        t=ts,
        stage=[STAGE_PRIMARY] * ts.shape[0],
        series={
            "temperature_avg_K": _volume_average(T_hist),
            "temperature_bottom_K": T_hist[:, -1].copy(),
            "temperature_top_K": T_hist[:, 0].copy(),
            "ice_mass_kg": ice,
            "front_position_m": S_hist.copy(),
            "sublimation_flux_kg_per_m2s": N_w,
            "chamber_water_pressure_Pa": p_hist.copy(),
        },
        fields={"temperature_K": T_hist},
        events={"primary_drying_end_s": float(t_complete)},
    )
    traj.meta["duration_s"] = float(t_complete - t0)
    traj.meta["peak_pressure_Pa"] = float(np.max(p_hist))
    traj.meta["peak_load_kg_per_s"] = float(np.max(ch.n_vial * A_z * N_w))
    traj.meta["n_z"] = n_z
    traj.meta["solver"] = res.counters()
    return traj
