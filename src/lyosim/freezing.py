"""Freezing of a suspended vial: five-stage lumped-capacitance model.

The vial hangs without shelf contact, so all heat enters or leaves through
gas films on the top, bottom, and side surfaces plus radiation between the
lateral glass surface and the chamber wall.  The stages are

1. preconditioning: single-phase cooldown of the liquid fill;
2. vacuum-induced surface freezing (optional): the chamber total pressure
   is lowered so surface evaporation chills the liquid to the nucleation
   temperature;
3. nucleation: an instantaneous jump in which just enough ice forms to
   bring the supercooled solution to its depressed freezing point;
4. solidification: quasi-steady ice growth with the product temperature
   slaved to the freezing-point depression of the concentrating solution,
   and with growing conductive resistances of the bottom ice slab and the
   lateral ice annulus;
5. final cooling: sensible cooldown of the fully frozen product.

Nucleation may instead be stochastic, replacing stage 2 entirely: a
Poisson process whose hazard rate lambda grows as a power of supercooling.
Its first event is sampled exactly by the cumulative hazard: one draw
E ~ Exp(1) from a seeded generator, and the cooldown integrates
Lambda(t) = int lambda dt beside the temperature and stops where
Lambda = E (time rescaling: Lambda at the first event is Exp(1)).

Each stage has one or two states and time constants of 1e2-1e3 s against
stage lengths of about 1e3 s, so the stages are not stiff: every stage is
integrated with LSODA (compiled Adams steps that switch to BDF by
themselves if a stage turns stiff) at the configured tolerances.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

from .bounds import NONNEG, POS, check_bounds, nullable
from .errors import ConfigurationError, DomainError, SimulationError, StageTimeoutError
from .schedules import Schedule
from .solver import EventSpec, IntegratorConfig, integrate_adaptive
from .thermo import (
    MixtureProperties,
    RadiationSpec,
    T_FREEZE_WATER,
    freezing_point,
    heat_of_vaporization,
    linearized_radiation_htc,
    overall_htc_cylinder,
    overall_htc_slab,
    psat_evaporation,
    radiation_exchange,
)
from .trajectory import Trajectory

__all__ = [
    "STAGE_PRECONDITIONING", "STAGE_VISF", "STAGE_SOLIDIFICATION", "STAGE_FINAL_COOLING",
    "DH_FUSION",
    "VialState", "ControlledNucleation", "StochasticNucleation", "FreezingProtocol",
    "FreezingSystem",
    "preconditioning_rhs", "visf_rhs", "nucleate_controlled",
    "nucleation_hazard", "first_nucleation_time", "solidification_rhs", "run_freezing",
]

STAGE_PRECONDITIONING = "preconditioning"
STAGE_VISF = "visf"
STAGE_SOLIDIFICATION = "solidification"
STAGE_FINAL_COOLING = "final_cooling"

DH_FUSION = 3.34e5  # J/kg, heat of fusion of water

# fraction of the fill-height scale below which a computed negative bottom
# ice thickness is attributed to surface evaporation loss and clamped to 0
_BOTTOM_ICE_SLACK = 5.0e-3

# lower clip of the VISF temperature at which the evaporation model is
# evaluated: trial states of the integrator may stray far below the range of
# the Antoine correlation, while accepted states end at the nucleation
# temperature well above it
_VISF_T_FLOOR = 150.0

log = logging.getLogger(__name__)


@dataclass
class VialState:
    """Lumped product state during freezing: one temperature, the liquid
    water mass, and the ice mass (kg).  ``t`` is model time (s)."""

    T: float
    m_w: float
    m_i: float = 0.0
    t: float = 0.0


@dataclass(frozen=True)
class ControlledNucleation:
    """Deterministic trigger: nucleation fires when T reaches ``temperature_K``."""

    temperature_K: float = field(default=268.0, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class StochasticNucleation:
    """Poisson nucleation: hazard k_n * (T_eq - T)^b_n * V_liquid.

    ``rate_prefactor`` (k_n) has units 1/(m^3 s K^b_n); ``rate_exponent``
    (b_n) is dimensionless.  The first event is sampled exactly: a generator
    seeded by ``seed`` draws E ~ Exp(1), and nucleation happens when the
    cumulative hazard of the cooldown reaches E.
    """

    rate_prefactor: float = field(default=1.0e-5, metadata=NONNEG)
    rate_exponent: float = field(default=10.0, metadata=POS)
    seed: int | None = None

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class FreezingProtocol:
    """Operating conditions and stage controls for the freezing chambers.

    Temperature and pressure schedules are functions of time measured from
    the start of freezing.  ``h_top``/``h_bottom``/``h_side`` are the gas
    film coefficients of the exposed top, vial bottom, and lateral surface
    (W/m^2/K); ``h_mass`` is the evaporative mass-transfer coefficient
    (kg/m^2/s) active while the chamber is depressurized.
    ``visf_start_s`` schedules the depressurization; ``None`` disables the
    stage (nucleation then triggers directly on temperature, or
    stochastically).
    """

    gas_temperature: Schedule
    wall_temperature: Schedule
    upper_temperature: Schedule
    total_pressure: Schedule
    h_top: float = field(default=5.0, metadata=NONNEG)
    h_bottom: float = field(default=10.0, metadata=NONNEG)
    h_side: float = field(default=8.0, metadata=NONNEG)
    h_mass: float = field(default=6.34e-3, metadata=NONNEG)
    p_w_chamber: float = field(default=0.0, metadata=NONNEG)
    nucleation: ControlledNucleation | StochasticNucleation = ControlledNucleation()
    visf_start_s: float | None = field(default=3600.0, metadata=nullable(NONNEG))
    solidification_fraction: float = field(
        default=0.95, metadata={"type": "number", "minimum": 0.85, "maximum": 0.95})
    final_temperature_K: float = field(default=235.0, metadata=POS)
    final_tolerance_K: float = field(default=0.5, metadata=POS)
    dH_fus: float = field(default=DH_FUSION, metadata=POS)
    stage_time_limit_s: float = field(default=1.0e6, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.visf_start_s is not None and isinstance(self.nucleation, StochasticNucleation):
            raise ConfigurationError(
                "stochastic nucleation replaces the depressurization trigger; "
                "set visf_start_s to null")


@dataclass(frozen=True)
class FreezingSystem:
    """Bundle of everything the freezing operators need: derived mixture
    quantities, radiation factors, and the operating protocol."""

    mixture: MixtureProperties
    radiation: RadiationSpec
    protocol: FreezingProtocol


def _heat_capacity_liquid(m_w: float, mx: MixtureProperties) -> float:
    f = mx.formulation
    return mx.m_s * f.Cp_s + m_w * f.Cp_w


def _plain_heat_total(state: VialState, sys: FreezingSystem) -> float:
    """Sum of film and radiative heat flows (W) with no ice resistance."""
    p, mx, rad = sys.protocol, sys.mixture, sys.radiation
    t, T = state.t, state.T
    A_z = mx.A_z
    A_r = mx.side_area(max(state.m_w, 0.0), max(state.m_i, 0.0))
    T_g = p.gas_temperature(t)
    q = p.h_top * A_z * (p.upper_temperature(t) - T)
    q += p.h_bottom * A_z * (T_g - T)
    q += p.h_side * A_r * (T_g - T)
    q += radiation_exchange(T, p.wall_temperature(t), rad.F_side, A_r, rad.sigma)
    return q


def preconditioning_rhs(state: VialState, sys: FreezingSystem) -> float:
    """dT/dt (K/s) of the single-phase liquid during preconditioning."""
    return _plain_heat_total(state, sys) / _heat_capacity_liquid(state.m_w, sys.mixture)


def _final_cooling_rhs(state: VialState, sys: FreezingSystem) -> float:
    """dT/dt (K/s) of the fully frozen product (ice heat capacity included)."""
    f = sys.mixture.formulation
    C = _heat_capacity_liquid(state.m_w, sys.mixture) + state.m_i * f.Cp_i
    return _plain_heat_total(state, sys) / C


def _vapor_mass_fraction(p_w: float, p_t: float, M_w: float, M_in: float) -> float:
    """Mass fraction of water vapor in a water/inert mixture at partial
    pressure ``p_w`` and total pressure ``p_t``."""
    if not 0.0 <= p_w <= p_t:
        raise DomainError(f"need 0 <= p_w <= p_t, got p_w={p_w}, p_t={p_t}")
    return p_w * M_w / (p_w * M_w + (p_t - p_w) * M_in)


def visf_rhs(state: VialState, sys: FreezingSystem) -> tuple[float, float]:
    """(dT/dt, dm_w/dt) during vacuum-induced surface freezing.

    Evaporation from the exposed top surface is driven by the vapor
    mass-fraction difference between saturation at the product temperature
    and the chamber; the latent heat it carries supplements the film and
    radiative exchange of :func:`preconditioning_rhs`.
    """
    p, mx = sys.protocol, sys.mixture
    f = mx.formulation
    p_t = p.total_pressure(state.t)
    p_sat = psat_evaporation(state.T)
    if p_t <= p_sat:
        raise DomainError(
            f"total pressure {p_t:.3g} Pa is below water saturation {p_sat:.3g} Pa; "
            "the evaporation model needs an inert-gas-rich atmosphere")
    x_sat = _vapor_mass_fraction(p_sat, p_t, f.M_w, f.M_in)
    x_cham = _vapor_mass_fraction(min(p.p_w_chamber, p_t), p_t, f.M_w, f.M_in)
    dm_w = -p.h_mass * mx.A_z * (x_sat - x_cham)
    Q = _plain_heat_total(state, sys)
    dT = (Q + heat_of_vaporization(state.T) * dm_w) / _heat_capacity_liquid(state.m_w, mx)
    return dT, dm_w


def nucleate_controlled(state: VialState, sys: FreezingSystem) -> tuple[float, float]:
    """Instantaneous nucleation jump from the supercooled state.

    Solves the coupled energy balance and cryoscopic relation

        (T_eq - T_n) (m_s Cp_s + m_w Cp_w) = m_i,n dH_fus
        T_eq = T_f,pure - (K_f / M_s) m_s / (m_w - m_i,n)

    for the ice mass ``m_i,n`` formed and the post-nucleation equilibrium
    temperature ``T_eq``.  Raises :class:`DomainError` when the state is not
    supercooled (no solution with positive ice mass exists).
    """
    mx = sys.mixture
    f = mx.formulation
    T_n, m_w = state.T, state.m_w
    D = f.K_f * mx.m_s / f.M_s  # depression constant, K*kg
    C = _heat_capacity_liquid(m_w, mx)
    dH = sys.protocol.dH_fus
    if T_n >= T_FREEZE_WATER - D / m_w:
        raise DomainError(
            f"state at T={T_n:.3f} K is not supercooled below the depressed freezing "
            f"point {T_FREEZE_WATER - D / m_w:.3f} K; nucleation has no solution")

    def g(m_i: float) -> float:
        return (T_FREEZE_WATER - D / (m_w - m_i) - T_n) * C - m_i * dH

    # g(0) > 0 by the supercooling check and g -> -inf as m_i -> m_w
    m_hi = m_w * (1.0 - 1.0e-12)
    m_i_n = float(brentq(g, 0.0, m_hi, xtol=1.0e-25, rtol=8.881784197001252e-16))
    T_eq = T_FREEZE_WATER - D / (m_w - m_i_n)
    return T_eq, m_i_n


def _hazard_rate(m_w: float, sys: FreezingSystem) -> Callable[[Any], Any]:
    """:func:`nucleation_hazard` as a function of T alone, at the fixed
    liquid water mass ``m_w``, with its constants evaluated once."""
    nuc = sys.protocol.nucleation
    if not isinstance(nuc, StochasticNucleation):
        raise ConfigurationError("nucleation_hazard needs a stochastic nucleation spec")
    mx = sys.mixture
    f = mx.formulation
    T_eq = freezing_point(mx.m_s, m_w, f)
    V_liq = mx.m_s / f.rho_s + m_w / f.rho_w
    k_n, b_n = nuc.rate_prefactor, nuc.rate_exponent

    def lam(T):
        return k_n * np.maximum(T_eq - T, 0.0)**b_n * V_liq

    return lam


def nucleation_hazard(T, m_w: float, sys: FreezingSystem):
    """Poisson nucleation rate lambda (1/s); accepts scalar or array T.

    lambda = k_n * max(T_eq - T, 0)^b_n * V_liquid, with the supercooling
    measured from the depressed freezing point of the current solution.
    """
    lam = _hazard_rate(m_w, sys)(np.asarray(T, dtype=float))
    return float(lam) if np.ndim(lam) == 0 else lam


def first_nucleation_time(T: float, m_w: float, sys: FreezingSystem,
                          rng: np.random.Generator, *, t_max: float = 1.0e6) -> float | None:
    """First nucleation time (s) at a held temperature, or None within ``t_max``.

    At a held temperature the hazard lambda is constant, so the waiting time
    is exponential with mean 1/lambda: one draw E ~ Exp(1) from ``rng`` gives
    the time E/lambda exactly.  Returns None when lambda = 0 or
    E/lambda > ``t_max``.
    """
    lam = nucleation_hazard(T, m_w, sys)
    E = rng.standard_exponential()
    if lam <= 0.0 or E / lam > t_max:
        return None
    return E / lam


def _ice_geometry(m_w: float, m_i: float, mx: MixtureProperties) -> tuple[float, float, float]:
    """(bottom slab thickness, liquid core radius, lateral area) during
    solidification.

    The liquid core keeps the fill's aspect ratio and shrinks self-similarly
    with the cube root of its volume; whatever total volume is left over
    below the core is the bottom ice slab.  Tiny negative slab thicknesses
    (surface evaporation removed volume from the top, not the bottom) are
    clamped to zero.
    """
    f = mx.formulation
    V_liq = mx.m_s / f.rho_s + m_w / f.rho_w
    V_tot = V_liq + m_i / f.rho_i
    h_fill = f.V_l / mx.A_z
    scale = (V_liq / f.V_l) ** (1.0 / 3.0)
    ell = V_tot / mx.A_z - h_fill * scale
    if ell < -_BOTTOM_ICE_SLACK * h_fill:
        raise DomainError(
            f"bottom ice thickness {ell:.3e} m is negative beyond the evaporation-loss "
            "allowance; the self-similar core geometry does not describe this state")
    return max(ell, 0.0), (mx.d / 2.0) * scale, 4.0 * V_tot / mx.d


def solidification_rhs(state: VialState, sys: FreezingSystem, *,
                       h_rad_side: float) -> tuple[float, float]:
    """(dm_i/dt, dT/dt) during quasi-steady solidification.

    The product temperature is slaved to the freezing-point depression of
    the concentrating solution, which turns the energy balance into a
    single ODE for the ice mass.  Film coefficients on the bottom and side
    are degraded by the conductive resistance of the growing ice slab and
    annulus; the side radiation link uses the stage-start linearized
    coefficient ``h_rad_side``.
    """
    p, mx, rad = sys.protocol, sys.mixture, sys.radiation
    f = mx.formulation
    t, T, m_w, m_i = state.t, state.T, state.m_w, state.m_i
    if m_w <= 0.0:
        raise DomainError("solidification needs remaining liquid water")
    ell, r_core, A_r = _ice_geometry(m_w, m_i, mx)
    r_o = mx.d / 2.0
    U_bottom = overall_htc_slab(p.h_bottom, ell, f.k_i)
    U_side = overall_htc_cylinder(p.h_side, r_o, r_core, f.k_i)
    U_side_rad = overall_htc_cylinder(h_rad_side, r_o, r_core, f.k_i)
    T_g = p.gas_temperature(t)
    Q = p.h_top * mx.A_z * (p.upper_temperature(t) - T)
    Q += U_bottom * mx.A_z * (T_g - T)
    Q += U_side * A_r * (T_g - T)
    Q += U_side_rad * A_r * (p.wall_temperature(t) - T)
    D = f.K_f * mx.m_s / f.M_s
    C = _heat_capacity_liquid(m_w, mx)
    # dT/dm_i = -D/m_w^2 through the slaved depression relation
    dm_i = -Q / (p.dH_fus + C * D / m_w**2)
    dT = -(D / m_w**2) * dm_i
    return dm_i, dT


def run_freezing(initial: VialState, sys: FreezingSystem,
                 config: IntegratorConfig = IntegratorConfig(), *,
                 samples_per_stage: int = 200,
                 rng: np.random.Generator | None = None,
                 stop_after: str = "final_cooling") -> Trajectory:
    """Drive the freezing stage machine from ``initial`` to the frozen,
    cooled product.

    Returns a :class:`Trajectory` whose events map the stage transitions
    (``preconditioning_end_s``, ``visf_end_s``, ``nucleation_s``,
    ``solidification_end_s``, ``freezing_end_s``) to absolute model times,
    and whose stage column labels each stage's samples; ``stage[-1]`` is
    the stage the run stopped in.  The final state for chaining into drying
    is stored under ``meta["final_state"]`` and the solver counters of the
    stage's integrations under ``meta["solver"]`` (summed, except
    ``min_step_s``, the smallest step of any of them).  Every integration uses LSODA
    with the tolerances and ``max_step`` of ``config``.  Raises
    :class:`StageTimeoutError` when a stage fails to reach its completion
    event within the protocol's horizon.  ``stop_after="solidification"``
    ends the run once the target ice fraction is reached, for protocols that
    move the vial onward without the final cooling hold.
    """
    p, mx = sys.protocol, sys.mixture
    f = mx.formulation
    nuc = p.nucleation
    if stop_after not in ("final_cooling", "solidification"):
        raise ConfigurationError("stop_after must be 'final_cooling' or 'solidification'")
    if initial.m_i != 0.0:
        raise ConfigurationError("freezing must start from an ice-free liquid fill")
    t = float(initial.t)
    T = float(initial.T)
    m_w = float(initial.m_w)
    limit = p.stage_time_limit_s
    stages: dict[str, Trajectory] = {}
    events: dict[str, float] = {}
    solver: dict[str, int | float] = {"steps": 0, "nfev": 0, "njev": 0, "nlu": 0,
                                      "min_step_s": math.inf, "wall_s": 0.0}
    meta: dict[str, Any] = {"solver": solver}
    log.info("freezing: start at t = %.6g s", t)

    def record(ts, Ts, mws, mis, label: str) -> None:
        # read-only views; Trajectory.concatenate copies them once
        n = ts.shape[0]
        Ts = np.broadcast_to(Ts, (n,))
        stages[label] = Trajectory(t=ts, stage=[label] * n, series={
            "temperature_avg_K": Ts,
            "temperature_bottom_K": Ts,
            "temperature_top_K": Ts,
            "water_mass_kg": np.broadcast_to(mws, (n,)),
            "ice_mass_kg": np.broadcast_to(mis, (n,)),
        })

    def integrate(rhs, y0, t_end: float, cfg: IntegratorConfig = config, watch=None):
        res = integrate_adaptive(rhs, (t, t_end), y0, cfg, events=watch, method="LSODA")
        for key, count in res.counters().items():
            solver[key] = min(solver[key], count) if key == "min_step_s" else solver[key] + count
        return res

    def advance(rhs, y0, done: EventSpec, stage: str, timeout: str, *,
                cfg: IntegratorConfig = config,
                guard: tuple[EventSpec, str] | None = None):
        """Integrate from ``t`` to the terminal event ``done`` and resample
        the stretch; returns ``(ts, ys)``.  A missing event raises
        StageTimeoutError(``timeout``), formatted with the last temperature
        ``T_last``; a ``guard`` (event, message) that fires raises
        SimulationError(message) instead."""
        res = integrate(rhs, y0, t + limit, cfg,
                        [done] if guard is None else [done, guard[0]])
        if guard is not None and res.event == guard[0].name:
            raise SimulationError(guard[1], stage=stage, t=res.t[-1])
        if res.event is None:
            raise StageTimeoutError(timeout.format(T_last=res.y_last[0]), stage=stage,
                                    t=res.t[-1])
        return res.resample(samples_per_stage)

    def precond_rhs(tt: float, y: np.ndarray):
        return (preconditioning_rhs(VialState(T=y[0], m_w=m_w, t=tt), sys),)

    # ---- stage 1 + 2: cool down and trigger nucleation -------------------
    if isinstance(nuc, ControlledNucleation):
        T_n = nuc.temperature_K
        reach = EventSpec(lambda tt, y: y[0] - T_n, direction=-1.0,
                          name="reach_nucleation_T")
        if p.visf_start_s is not None:
            t1 = t + p.visf_start_s
            if p.visf_start_s > 0.0:
                ts, ys = integrate(precond_rhs, [T], t1).resample(samples_per_stage)
                record(ts, ys[0], m_w, 0.0, STAGE_PRECONDITIONING)
                T = float(ys[0, -1])
                t = t1
            events["preconditioning_end_s"] = t
            if T > T_n:
                floor = EventSpec(lambda tt, y: y[1] - 1.0e-3 * m_w, direction=-1.0,
                                  name="water_depleted")

                def rhs2(tt: float, y: np.ndarray):
                    s = VialState(T=max(y[0], _VISF_T_FLOOR), m_w=max(y[1], 0.0), t=tt)
                    return visf_rhs(s, sys)

                ts, ys = advance(
                    rhs2, [T, m_w], reach, STAGE_VISF,
                    "depressurized cooling never reached the nucleation temperature",
                    guard=(floor, "surface evaporation exhausted the liquid fill before "
                                  "the nucleation temperature was reached"))
                record(ts, ys[0], ys[1], 0.0, STAGE_VISF)
                T, m_w = float(ys[0, -1]), float(ys[1, -1])
                t = float(ts[-1])
            events["visf_end_s"] = t
        else:
            if T > T_n:
                ts, ys = advance(precond_rhs, [T], reach, STAGE_PRECONDITIONING,
                                 "preconditioning never reached the nucleation temperature")
                record(ts, ys[0], m_w, 0.0, STAGE_PRECONDITIONING)
                T = float(ys[0, -1])
                t = float(ts[-1])
            events["preconditioning_end_s"] = t
            events["visf_end_s"] = t
    else:
        # exact first-event sampling: nucleate where the cumulative hazard
        # Lambda, integrated beside T, reaches one Exp(1) draw E
        E = (rng if rng is not None else np.random.default_rng(nuc.seed)).standard_exponential()
        hazard = _hazard_rate(m_w, sys)

        def rhs1(tt: float, y: np.ndarray):
            return (preconditioning_rhs(VialState(T=y[0], m_w=m_w, t=tt), sys), hazard(y[0]))

        hit = EventSpec(lambda tt, y: y[1] - E, direction=1.0, name="nucleation")
        # Lambda needs rtol accuracy only where it crosses E: atol rtol * E
        ts, ys = advance(rhs1, [T, 0.0], hit, STAGE_PRECONDITIONING,
                         "no stochastic nucleation event within the stage horizon",
                         cfg=replace(config, atol=np.append(config.atol, config.rtol * E)))
        record(ts, ys[0], m_w, 0.0, STAGE_PRECONDITIONING)
        T = float(ys[0, -1])
        t = float(ts[-1])
        events["preconditioning_end_s"] = t
        events["visf_end_s"] = t

    # ---- stage 3: nucleation jump ----------------------------------------
    T_post, m_i_n = nucleate_controlled(VialState(T=T, m_w=m_w, t=t), sys)
    events["nucleation_s"] = t
    m_w_nuc = m_w  # liquid water at the nucleation instant, before the jump
    meta["nucleation"] = {
        "trigger_temperature_K": T,
        "post_temperature_K": T_post,
        "ice_mass_kg": m_i_n,
        "water_mass_kg": m_w_nuc - m_i_n,
    }
    meta["visf_water_loss_kg"] = float(initial.m_w) - m_w
    T = T_post

    # ---- stage 4: solidification ------------------------------------------
    h_rad = linearized_radiation_htc(sys.radiation.F_side,
                                     0.5 * (T + p.wall_temperature(t)),
                                     sys.radiation.sigma)
    # completion: total ice reaches the stated fraction of the water present
    # at nucleation
    m_target = p.solidification_fraction * m_w_nuc
    D = f.K_f * mx.m_s / f.M_s

    def rhs4(tt: float, y: np.ndarray):
        m_i = min(max(y[0], 0.0), m_w_nuc * (1.0 - 1.0e-12))
        m_rem = m_w_nuc - m_i
        s = VialState(T=T_FREEZE_WATER - D / m_rem, m_w=m_rem, m_i=m_i, t=tt)
        return (solidification_rhs(s, sys, h_rad_side=h_rad)[0],)

    done = EventSpec(lambda tt, y: y[0] - m_target, direction=1.0, name="solidified")
    ts, ys = advance(rhs4, [m_i_n], done, STAGE_SOLIDIFICATION,
                     "solidification did not reach the target ice fraction")
    m_is = np.clip(ys[0], 0.0, m_w_nuc)
    m_ws = m_w_nuc - m_is
    Ts = T_FREEZE_WATER - D / m_ws
    record(ts, Ts, m_ws, m_is, STAGE_SOLIDIFICATION)
    t = float(ts[-1])
    m_i = float(m_is[-1])
    m_w = m_w_nuc - m_i
    T = T_FREEZE_WATER - D / m_w
    events["solidification_end_s"] = t

    # ---- stage 5: final cooling --------------------------------------------
    target, tol = p.final_temperature_K, p.final_tolerance_K
    if stop_after == "solidification":
        pass
    elif abs(T - target) > tol:
        falling = T > target  # approach direction decides the band edge crossed

        def rhs5(tt: float, y: np.ndarray):
            return (_final_cooling_rhs(VialState(T=y[0], m_w=m_w, m_i=m_i, t=tt), sys),)

        # the crossing of the near band edge: one step may jump the whole band
        edge = target + tol if falling else target - tol
        band = EventSpec(lambda tt, y: y[0] - edge, direction=-1.0 if falling else 1.0,
                         name="target_band")
        ts, ys = advance(
            rhs5, [T], band, STAGE_FINAL_COOLING,
            f"final cooling never entered the {target} +/- {tol} K band "
            f"({'cooling' if falling else 'heating'} stalled at {{T_last:.2f}} K)")
        record(ts, ys[0], m_w, m_i, STAGE_FINAL_COOLING)
        T = float(ys[0, -1])
        t = float(ts[-1])
    else:
        record(np.array([t]), T, m_w, m_i, STAGE_FINAL_COOLING)
    events["freezing_end_s"] = t

    meta["final_state"] = VialState(T=T, m_w=m_w, m_i=m_i, t=t)
    log.info("freezing: end at t = %.6g s, solver %s", t, solver)
    traj = Trajectory.concatenate(stages)
    # concatenate nests the (empty) stage metas; the run's own replace them
    traj.events, traj.meta = events, meta
    return traj
