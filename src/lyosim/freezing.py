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
integrated with the explicit Dormand-Prince 5(4) pair
(:class:`~lyosim.solver.DormandPrince`) at the configured tolerances.  The
protocol's schedules are piecewise linear, and the RHS kinks where they
do; every step ends on their breakpoints, so that the pair's error
estimate never spans a kink.  Each stage's right-hand side is built once
at the stage start, with its constants evaluated there; :func:`cooling_rhs`
serves preconditioning and final cooling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .bounds import NONNEG, POS, check_bounds, nullable
from .errors import ConfigurationError, DomainError, SimulationError, StageTimeoutError
from .schedules import Schedule
from .solver import EventSpec, IntegrationResult, IntegratorConfig, _brentq, integrate_adaptive
from .thermo import (
    MixtureProperties,
    RadiationSpec,
    STEFAN_BOLTZMANN,
    T_FREEZE_WATER,
    freezing_point,
    heat_of_vaporization,
    linearized_radiation_htc,
    overall_htc_cylinder,
    overall_htc_slab,
    psat_evaporation,
)
from .trajectory import Trajectory

__all__ = [
    "STAGE_PRECONDITIONING", "STAGE_VISF", "STAGE_SOLIDIFICATION", "STAGE_FINAL_COOLING",
    "DH_FUSION",
    "VialState", "ControlledNucleation", "StochasticNucleation", "FreezingProtocol",
    "FreezingSystem",
    "cooling_rhs", "visf_rhs", "nucleate_controlled",
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
    water mass, and the ice mass (kg).

    ``t`` (s) is model time: :func:`run_freezing` starts from and ends on
    such a state.  The stage right-hand sides take their states as arrays
    and their fixed masses as arguments, and build no ``VialState``.
    """

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

    Temperature and pressure schedules are functions of stage time,
    measured from the start of freezing: :func:`run_freezing` reads them at
    t - initial.t, as the drying drivers read theirs at t - t0.
    ``h_top``/``h_bottom``/``h_side`` are the gas film coefficients of the
    exposed top, vial bottom, and lateral surface (W/m^2/K); ``h_mass`` is
    the evaporative mass-transfer coefficient (kg/m^2/s) active while the
    chamber is depressurized.
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


def _heat_flow(sys: FreezingSystem) -> Callable[[float, float, float], float]:
    """``heat(s, T, A_r)``: film and radiative heat flow (W) with no ice
    resistance at stage time ``s``, temperature ``T`` and side area ``A_r``."""
    p = sys.protocol
    top, bottom = p.h_top * sys.mixture.A_z, p.h_bottom * sys.mixture.A_z
    h_side, F = p.h_side, sys.radiation.F_side
    gas, wall, upper = p.gas_temperature, p.wall_temperature, p.upper_temperature

    def heat(s: float, T: float, A_r: float) -> float:
        T_g = gas(s)
        return (top * (upper(s) - T) + bottom * (T_g - T) + h_side * A_r * (T_g - T)
                + STEFAN_BOLTZMANN * A_r * F * (wall(s)**4 - T**4))

    return heat


def cooling_rhs(sys: FreezingSystem, m_w: float, m_i: float = 0.0,
                t0: float = 0.0) -> Callable[[float, Any], tuple[float]]:
    """``rhs(t, y) -> (dT/dt,)`` (K/s) of sensible cooling at fixed phase
    masses, y = (T,): the liquid fill during preconditioning (``m_i`` = 0)
    and the frozen product during final cooling, with the ice heat capacity.
    The schedules are read at stage time t - ``t0``."""
    heat = _heat_flow(sys)
    A_r = sys.mixture.side_area(m_w, m_i)
    C = _heat_capacity_liquid(m_w, sys.mixture) + m_i * sys.mixture.formulation.Cp_i

    def rhs(t: float, y) -> tuple[float]:
        return (heat(t - t0, float(y[0]), A_r) / C,)

    return rhs


def _vapor_mass_fraction(p_w: float, p_t: float, M_w: float, M_in: float) -> float:
    """Mass fraction of water vapor in a water/inert mixture at partial
    pressure ``p_w`` and total pressure ``p_t``."""
    if not 0.0 <= p_w <= p_t:
        raise DomainError(f"need 0 <= p_w <= p_t, got p_w={p_w}, p_t={p_t}")
    return p_w * M_w / (p_w * M_w + (p_t - p_w) * M_in)


def visf_rhs(sys: FreezingSystem, t0: float = 0.0) -> Callable[[float, Any], tuple[float, float]]:
    """``rhs(t, y) -> (dT/dt, dm_w/dt)`` during vacuum-induced surface
    freezing, y = (T, m_w), with the schedules read at stage time t - ``t0``.

    Evaporation from the exposed top surface is driven by the vapor
    mass-fraction difference between saturation at the product temperature
    and the chamber; the latent heat it carries supplements the film and
    radiative exchange of :func:`cooling_rhs`.  A trial state is clipped to
    T >= ``_VISF_T_FLOOR`` and m_w >= 0."""
    p, mx = sys.protocol, sys.mixture
    M_w, M_in = mx.formulation.M_w, mx.formulation.M_in
    heat = _heat_flow(sys)
    pressure, p_w = p.total_pressure, p.p_w_chamber
    mass = -p.h_mass * mx.A_z

    def rhs(t: float, y) -> tuple[float, float]:
        s = t - t0
        T, m_w = max(float(y[0]), _VISF_T_FLOOR), max(float(y[1]), 0.0)
        p_t = pressure(s)
        p_sat = psat_evaporation(T)
        if p_t <= p_sat:
            raise DomainError(
                f"total pressure {p_t:.3g} Pa is below water saturation {p_sat:.3g} Pa; "
                "the evaporation model needs an inert-gas-rich atmosphere")
        x_sat = _vapor_mass_fraction(p_sat, p_t, M_w, M_in)
        x_cham = _vapor_mass_fraction(min(p_w, p_t), p_t, M_w, M_in)
        dm_w = mass * (x_sat - x_cham)
        Q = heat(s, T, mx.side_area(m_w, 0.0))
        return (Q + heat_of_vaporization(T) * dm_w) / _heat_capacity_liquid(m_w, mx), dm_w

    return rhs


def nucleate_controlled(state: VialState, sys: FreezingSystem) -> tuple[float, float]:
    """Instantaneous nucleation jump from the supercooled state.

    Solves the coupled energy balance and cryoscopic relation

        (T_eq - T_n) (m_s Cp_s + m_w Cp_w) = m_i,n dH_fus
        T_eq = T_f,pure - D / (m_w - m_i,n),   D = K_f m_s / M_s

    for the ice mass ``m_i,n`` formed and the post-nucleation equilibrium
    temperature ``T_eq``, with D from
    :attr:`~lyosim.thermo.MixtureProperties.depression_constant`.  Raises
    :class:`DomainError` when the state is not supercooled (no solution
    with positive ice mass exists).
    """
    mx = sys.mixture
    T_n, m_w = state.T, state.m_w
    D = mx.depression_constant  # K*kg
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
    m_i_n = _brentq(g, 0.0, m_hi, 1.0e-25, 8.881784197001252e-16)
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


def solidification_rhs(sys: FreezingSystem, m_w_nuc: float, h_rad_side: float,
                       t0: float = 0.0) -> Callable[[float, Any], tuple[float]]:
    """``rhs(t, y) -> (dm_i/dt,)`` during quasi-steady solidification of
    the water ``m_w_nuc`` present at nucleation, y = (m_i,), with the
    schedules read at stage time t - ``t0``.

    The product temperature is slaved to the freezing-point depression of
    the concentrating solution, T = T_f - D / (m_w_nuc - m_i), which turns
    the energy balance into a single ODE for the ice mass.  Film
    coefficients on the bottom and side are degraded by the conductive
    resistance of the growing ice slab and annulus; the side radiation link
    uses the stage-start linearized coefficient ``h_rad_side``.  A trial
    m_i is clipped to [0, m_w_nuc (1 - 1e-12)]: some liquid always remains."""
    p, mx = sys.protocol, sys.mixture
    f = mx.formulation
    A_z, r_o, k_i = mx.A_z, mx.d / 2.0, f.k_i
    top, h_bottom, h_side, dH = p.h_top * A_z, p.h_bottom, p.h_side, p.dH_fus
    gas, wall, upper = p.gas_temperature, p.wall_temperature, p.upper_temperature
    D = mx.depression_constant
    m_max = m_w_nuc * (1.0 - 1.0e-12)

    def rhs(t: float, y) -> tuple[float]:
        s = t - t0
        m_i = min(max(float(y[0]), 0.0), m_max)
        m_w = m_w_nuc - m_i
        T = T_FREEZE_WATER - D / m_w
        ell, r_core, A_r = _ice_geometry(m_w, m_i, mx)
        U_bottom = overall_htc_slab(h_bottom, ell, k_i)
        U_side = overall_htc_cylinder(h_side, r_o, r_core, k_i)
        U_side_rad = overall_htc_cylinder(h_rad_side, r_o, r_core, k_i)
        T_g = gas(s)
        Q = (top * (upper(s) - T) + U_bottom * A_z * (T_g - T) + U_side * A_r * (T_g - T)
             + U_side_rad * A_r * (wall(s) - T))
        # dT/dm_i = -D/m_w^2 through the slaved depression relation
        return (-Q / (dH + _heat_capacity_liquid(m_w, mx) * D / m_w**2),)

    return rhs


def run_freezing(initial: VialState, sys: FreezingSystem,
                 config: IntegratorConfig = IntegratorConfig(), *,
                 samples_per_stage: int,
                 rng: np.random.Generator | None = None,
                 stop_after: str = "final_cooling") -> Trajectory:
    """Drive the freezing stage machine from ``initial`` to the frozen,
    cooled product.

    Returns a :class:`Trajectory` whose events map the stage transitions
    (``preconditioning_end_s``, ``visf_end_s``, ``nucleation_s``,
    ``solidification_end_s``, ``freezing_end_s``) to absolute model times,
    and whose stage column labels each stage's samples (the scenario's
    ``pipeline.samples_per_stage`` per integrated stage, one for a stage
    that takes no step: one whose start already completes it, or a
    preconditioning of no time before VISF); ``stage[-1]`` is the stage the
    run stopped in.  The protocol's schedules run on stage time,
    t - ``initial.t``.  The final state for chaining into drying is stored
    under ``meta["final_state"]`` and the solver counters of the stage's
    integrations under ``meta["solver"]``: summed from those of a run that
    takes no step, except ``min_step_s``, the smallest step of any of them,
    NaN when none took a step.  Every integration runs on the
    Dormand-Prince pair (``RK45``) with the tolerances of ``config``, and
    ends a step on every breakpoint of the protocol's four schedules.  From nucleation on, the ice mass is
    written as the nucleation inventory less the water mass, so that water
    and ice add up to the inventory exactly.  Raises
    :class:`StageTimeoutError` when a stage fails to
    reach its completion event within the protocol's horizon.
    ``stop_after="solidification"`` ends the run once the target ice
    fraction is reached, for protocols that move the vial onward without
    the final cooling hold.
    """
    p, mx = sys.protocol, sys.mixture
    nuc = p.nucleation
    if samples_per_stage < 2:
        raise ConfigurationError("need at least 2 trajectory samples per stage")
    if stop_after not in ("final_cooling", "solidification"):
        raise ConfigurationError("stop_after must be 'final_cooling' or 'solidification'")
    if initial.m_i != 0.0:
        raise ConfigurationError("freezing must start from an ice-free liquid fill")
    t_start = t = float(initial.t)
    T = float(initial.T)
    m_w = float(initial.m_w)
    limit = p.stage_time_limit_s
    stages: dict[str, Trajectory] = {}
    events: dict[str, float] = {}
    solver = IntegrationResult.at_start(t, [T]).counters()
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

    # the schedules' breakpoints on model time, where the RHS kinks
    knots = t_start + np.unique(np.concatenate([
        s.knots for s in (p.gas_temperature, p.wall_temperature, p.upper_temperature,
                          p.total_pressure)]))

    def integrate(rhs, y0, t_end: float, cfg: IntegratorConfig = config, watch=None):
        res = integrate_adaptive(rhs, (t, t_end), y0, cfg, events=watch, method="RK45",
                                 knots=knots)
        for key, count in res.counters().items():
            if key == "min_step_s":  # fmin skips the NaN of a run without steps
                solver[key] = float(np.fmin(solver[key], count))
            else:
                solver[key] += count
        return res

    def advance(rhs, y0, done: EventSpec, stage: str, timeout: str, *,
                cfg: IntegratorConfig = config,
                guard: tuple[EventSpec, str] | None = None):
        """Integrate from ``t`` to the terminal event ``done``, unless the
        start has already reached it, and resample the stretch; returns
        ``(ts, ys)``.  A missing event raises StageTimeoutError(``timeout``),
        formatted with the last temperature ``T_last``; a ``guard``
        (event, message) that fires raises SimulationError(message)
        instead."""
        if done.reached(t, y0):
            return IntegrationResult.at_start(t, y0, done).resample(samples_per_stage)
        res = integrate(rhs, y0, t + limit, cfg,
                        [done] if guard is None else [done, guard[0]])
        if guard is not None and res.event == guard[0].name:
            raise SimulationError(guard[1], stage=stage, t=res.t[-1])
        if res.event is None:
            raise StageTimeoutError(timeout.format(T_last=res.y_last[0]), stage=stage,
                                    t=res.t[-1])
        return res.resample(samples_per_stage)

    # ---- stage 1 + 2: cool down and trigger nucleation -------------------
    # the nucleation mode sets the cooldown's RHS, start, completion event,
    # timeout message and tolerances
    cool = cooling_rhs(sys, m_w, t0=t_start)
    if isinstance(nuc, ControlledNucleation):
        T_n = nuc.temperature_K
        rhs, y0, cfg = cool, [T], config
        reach = EventSpec(lambda tt, y: y[0] - T_n, direction=-1.0,
                          name="reach_nucleation_T")
        timeout = "preconditioning never reached the nucleation temperature"
    else:
        # exact first-event sampling: nucleate where the cumulative hazard
        # Lambda, integrated beside T, reaches one Exp(1) draw E
        E = (rng if rng is not None else np.random.default_rng(nuc.seed)).standard_exponential()
        hazard = _hazard_rate(m_w, sys)

        def rhs(tt: float, y: np.ndarray):
            return cool(tt, y)[0], hazard(float(y[0]))

        y0 = [T, 0.0]
        # Lambda needs rtol accuracy only where it crosses E: atol rtol * E
        cfg = replace(config, atol=np.append(config.atol, config.rtol * E))
        reach = EventSpec(lambda tt, y: y[1] - E, direction=1.0, name="nucleation")
        timeout = "no stochastic nucleation event within the stage horizon"
    if p.visf_start_s is None:
        ts, ys = advance(rhs, y0, reach, STAGE_PRECONDITIONING, timeout, cfg=cfg)
        record(ts, ys[0], m_w, 0.0, STAGE_PRECONDITIONING)
        T = float(ys[0, -1])
        t = float(ts[-1])
        events["preconditioning_end_s"] = events["visf_end_s"] = t
    else:  # controlled nucleation only: FreezingProtocol rejects VISF with stochastic
        t1 = t + p.visf_start_s
        ts, ys = integrate(cool, [T], t1).resample(samples_per_stage)
        record(ts, ys[0], m_w, 0.0, STAGE_PRECONDITIONING)
        T = float(ys[0, -1])
        t = t1
        events["preconditioning_end_s"] = t
        floor = EventSpec(lambda tt, y: y[1] - 1.0e-3 * m_w, direction=-1.0,
                          name="water_depleted")
        ts, ys = advance(
            visf_rhs(sys, t_start), [T, m_w], reach, STAGE_VISF,
            "depressurized cooling never reached the nucleation temperature",
            guard=(floor, "surface evaporation exhausted the liquid fill before "
                          "the nucleation temperature was reached"))
        record(ts, ys[0], ys[1], 0.0, STAGE_VISF)
        T, m_w = float(ys[0, -1]), float(ys[1, -1])
        t = float(ts[-1])
        events["visf_end_s"] = t

    # ---- stage 3: nucleation jump ----------------------------------------
    T_post, m_i_n = nucleate_controlled(VialState(T=T, m_w=m_w, t=t), sys)
    events["nucleation_s"] = t
    m_w_nuc = m_w  # liquid water at the nucleation instant, before the jump
    # from here on the ice mass is the inventory less the water mass: the
    # two then add up to m_w_nuc exactly (Sterbenz's lemma), which
    # (m_w_nuc - m_i) + m_i need not
    m_w_post = m_w_nuc - m_i_n
    meta["nucleation"] = {
        "trigger_temperature_K": T,
        "post_temperature_K": T_post,
        "ice_mass_kg": m_w_nuc - m_w_post,
        "water_mass_kg": m_w_post,
    }
    meta["visf_water_loss_kg"] = float(initial.m_w) - m_w
    T = T_post

    # ---- stage 4: solidification ------------------------------------------
    h_rad = linearized_radiation_htc(sys.radiation.F_side,
                                     0.5 * (T + p.wall_temperature(t - t_start)))
    # completion: total ice reaches the stated fraction of the water present
    # at nucleation
    m_target = p.solidification_fraction * m_w_nuc
    D = mx.depression_constant
    done = EventSpec(lambda tt, y: y[0] - m_target, direction=1.0, name="solidified")
    ts, ys = advance(solidification_rhs(sys, m_w_nuc, h_rad, t_start), [m_i_n], done,
                     STAGE_SOLIDIFICATION,
                     "solidification did not reach the target ice fraction")
    m_ws = m_w_nuc - np.clip(ys[0], 0.0, m_w_nuc)
    Ts = T_FREEZE_WATER - D / m_ws
    record(ts, Ts, m_ws, m_w_nuc - m_ws, STAGE_SOLIDIFICATION)
    t = float(ts[-1])
    m_w = float(m_ws[-1])
    m_i = m_w_nuc - m_w
    T = T_FREEZE_WATER - D / m_w
    events["solidification_end_s"] = t

    # ---- stage 5: final cooling --------------------------------------------
    if stop_after == "final_cooling":
        target, tol = p.final_temperature_K, p.final_tolerance_K
        falling = T > target  # approach direction decides the band edge crossed
        # the crossing of the near band edge: one step may jump the whole band
        edge = target + tol if falling else target - tol
        band = EventSpec(lambda tt, y: y[0] - edge, direction=-1.0 if falling else 1.0,
                         name="target_band")
        ts, ys = advance(
            cooling_rhs(sys, m_w, m_i, t_start), [T], band, STAGE_FINAL_COOLING,
            f"final cooling never entered the {target} +/- {tol} K band "
            f"({'cooling' if falling else 'heating'} stalled at {{T_last:.2f}} K)")
        record(ts, ys[0], m_w, m_i, STAGE_FINAL_COOLING)
        T = float(ys[0, -1])
        t = float(ts[-1])
    events["freezing_end_s"] = t

    meta["final_state"] = VialState(T=T, m_w=m_w, m_i=m_i, t=t)
    log.info("freezing: end at t = %.6g s, solver %s", t, solver)
    traj = Trajectory.concatenate(stages)
    # concatenate nests the (empty) stage metas; the run's own replace them
    traj.events, traj.meta = events, meta
    return traj
