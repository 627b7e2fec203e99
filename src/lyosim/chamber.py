"""Chamber water-vapor balance when the condenser cannot keep up.

The drying chamber is normally held at a water partial-pressure setpoint
by the condenser.  If the total sublimation load of all vials exceeds the
condenser's maximum condensation rate, water vapor accumulates and the
chamber pressure rises, which in turn throttles the sublimation flux of
every vial; the coupled system finds a plateau where the vials collectively
sublime exactly at the condenser capacity.  The chamber gas is treated as
ideal and well mixed at a representative temperature.

This module holds the chamber model and its water balance; primary drying
under it is :func:`lyosim.drying_primary.run_primary` with ``chamber=``,
which adds the chamber pressure to the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import NONNEG, POS, check_bounds
from .thermo import GAS_CONSTANT, Formulation

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

    V_c: float = field(default=0.118, metadata=POS)
    j_w_max: float = field(default=1.8e-5, metadata=NONNEG)
    n_vial: int = field(default=200, metadata={"type": "integer", "minimum": 1})
    T_bar: float = field(default=260.0, metadata=POS)
    p_setpoint: float = field(default=3.0, metadata=NONNEG)
    M_w: float = field(default=Formulation.M_w, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)


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


def run_primary_with_condenser(initial_temperature, dp, rad, geom, ch, **kwargs):
    """Primary drying coupled to the chamber water balance of ``ch``: the
    same as :func:`lyosim.drying_primary.run_primary` with ``chamber=ch``,
    kept under this name for callers that use it."""
    from .drying_primary import run_primary  # drying_primary imports this module

    return run_primary(initial_temperature, dp, rad, geom, ch, **kwargs)
