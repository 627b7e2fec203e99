"""Five-stage freezing model: stage RHS oracles, events, and conservation."""

import copy
import gc
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lyosim import (
    ConfigurationError,
    ControlledNucleation,
    DomainError,
    Formulation,
    FreezingProtocol,
    FreezingSystem,
    IntegratorConfig,
    RadiationSpec,
    Schedule,
    StageTimeoutError,
    StochasticNucleation,
    VialState,
    build_parameters,
    builtin_scenarios,
    integrate_adaptive,
    load_scenario,
    mixture_properties,
    run_freezing,
)
from lyosim import freezing
from lyosim.freezing import (
    cooling_rhs,
    first_nucleation_time,
    nucleate_controlled,
    nucleation_hazard,
    solidification_rhs,
    visf_rhs,
)
from lyosim.thermo import STEFAN_BOLTZMANN, freezing_point


@pytest.fixture(scope="module")
def mix():
    return mixture_properties(Formulation(), Cp_f_override=2163.0, k_f_override=2.07)


def _isothermal_system(mix, T_env, p_t=1.0e4, **kw):
    proto = FreezingProtocol(
        gas_temperature=Schedule.constant(T_env),
        wall_temperature=Schedule.constant(T_env),
        upper_temperature=Schedule.constant(T_env),
        total_pressure=Schedule.constant(p_t),
        **kw,
    )
    return FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)


# --- protocol validation ------------------------------------------------------

def test_protocol_validation(mix):
    base = dict(
        gas_temperature=Schedule.constant(250.0),
        wall_temperature=Schedule.constant(250.0),
        upper_temperature=Schedule.constant(250.0),
        total_pressure=Schedule.constant(1.0e4),
    )
    FreezingProtocol(**base)
    with pytest.raises(ConfigurationError):
        FreezingProtocol(**base, h_top=-1.0)
    with pytest.raises(ConfigurationError):
        FreezingProtocol(**base, solidification_fraction=0.5)
    with pytest.raises(ConfigurationError):
        FreezingProtocol(**base, solidification_fraction=0.99)
    with pytest.raises(ConfigurationError):
        FreezingProtocol(**base, final_tolerance_K=0.0)
    # a stochastic trigger replaces the depressurization stage entirely
    with pytest.raises(ConfigurationError):
        FreezingProtocol(**base, nucleation=StochasticNucleation(), visf_start_s=100.0)
    FreezingProtocol(**base, nucleation=StochasticNucleation(), visf_start_s=None)


def test_nucleation_spec_validation():
    with pytest.raises(ConfigurationError):
        ControlledNucleation(temperature_K=0.0)
    with pytest.raises(ConfigurationError):
        StochasticNucleation(rate_prefactor=-1.0)
    with pytest.raises(ConfigurationError):
        StochasticNucleation(rate_exponent=0.0)


# --- single-phase cooling ------------------------------------------------------

def test_preconditioning_cools_toward_gas(mix):
    rhs = cooling_rhs(_isothermal_system(mix, 250.0), mix.m_w0)
    assert rhs(0.0, [293.15])[0] < 0.0
    # at the environment temperature every driving force vanishes
    assert rhs(0.0, [250.0])[0] == pytest.approx(0.0, abs=1e-15)
    # below it the product warms back up
    assert rhs(0.0, [240.0])[0] > 0.0


def test_final_cooling_oracle(mix):
    # the frozen product at fixed water and ice masses: no driving force in
    # an isothermal environment, and otherwise the film and radiation flows
    # over the lateral area of the whole product divided by the heat
    # capacity of solute, water and ice
    m_i = 0.9 * mix.m_w0
    m_w = mix.m_w0 - m_i
    assert cooling_rhs(_isothermal_system(mix, 240.0), m_w, m_i)(0.0, [240.0]) == (0.0,)
    proto = FreezingProtocol(
        gas_temperature=Schedule.constant(228.0),
        wall_temperature=Schedule.constant(236.0),
        upper_temperature=Schedule.constant(232.0),
        total_pressure=Schedule.constant(1.0e5),
        h_top=4.0, h_bottom=11.0, h_side=7.0,
    )
    sys_ = FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)
    f = mix.formulation
    T = 250.0
    A_r = 4.0 * (mix.m_s / f.rho_s + m_w / f.rho_w + m_i / f.rho_i) / mix.d
    A_z = np.pi * mix.d**2 / 4.0
    Q = (4.0 * A_z * (232.0 - T) + 11.0 * A_z * (228.0 - T) + 7.0 * A_r * (228.0 - T)
         + STEFAN_BOLTZMANN * RadiationSpec().F_side * A_r * (236.0**4 - T**4))
    C = mix.m_s * f.Cp_s + m_w * f.Cp_w + m_i * f.Cp_i
    (dT,) = cooling_rhs(sys_, m_w, m_i, t0=50.0)(75.0, np.array([T]))
    assert dT * C == pytest.approx(Q, rel=1e-12)
    assert dT < 0.0


# --- vacuum-induced surface freezing --------------------------------------------

def test_visf_flux_oracle(mix):
    # environment pinned at the product temperature isolates the latent term:
    # dm_w = -h_m A_z x_sat(268 K), dT = dH_vap dm_w / C
    sys_ = _isothermal_system(mix, 268.0, p_t=1.0e4)
    dT, dm_w = visf_rhs(sys_)(0.0, [268.0, mix.m_w0])
    assert dm_w == pytest.approx(-7.754590684670247e-8, rel=1e-12)
    assert dT == pytest.approx(-0.016044101301645207, rel=1e-12)


def test_visf_cooling_strengthens_at_low_pressure(mix):
    sys_lo = _isothermal_system(mix, 268.0, p_t=5.0e3)
    sys_hi = _isothermal_system(mix, 268.0, p_t=5.0e4)
    dT_lo, dm_lo = visf_rhs(sys_lo)(0.0, [268.0, mix.m_w0])
    dT_hi, dm_hi = visf_rhs(sys_hi)(0.0, [268.0, mix.m_w0])
    assert dm_lo < dm_hi < 0.0
    assert dT_lo < dT_hi < 0.0


def test_visf_rejects_saturated_atmosphere(mix):
    # total pressure below the water saturation pressure
    sys_ = _isothermal_system(mix, 268.0, p_t=100.0)
    with pytest.raises(DomainError):
        visf_rhs(sys_)(0.0, [268.0, mix.m_w0])


def test_visf_evaluates_trial_states_in_its_domain(mix):
    # a trial state below the Antoine range or with negative water is
    # evaluated at the temperature floor and at no water
    rhs = visf_rhs(_isothermal_system(mix, 250.0, p_t=1.0e4), t0=10.0)
    for t in (10.0, 500.0):
        assert rhs(t, [100.0, mix.m_w0]) == rhs(t, [150.0, mix.m_w0])
        assert rhs(t, [260.0, -1.0e-6]) == rhs(t, [260.0, 0.0])
    assert rhs(10.0, [260.0, mix.m_w0]) != rhs(10.0, [260.0, 0.0])


# --- nucleation jump -------------------------------------------------------------

def test_controlled_nucleation_oracle(mix):
    sys_ = _isothermal_system(mix, 268.0)
    T_eq, m_i = nucleate_controlled(VialState(T=268.0, m_w=mix.m_w0), sys_)
    assert T_eq == pytest.approx(272.84521643688333, rel=1e-12)
    assert m_i == pytest.approx(1.7904124950395895e-4, rel=1e-10)


def test_nucleation_jump_is_self_consistent(mix):
    sys_ = _isothermal_system(mix, 260.0)
    f = mix.formulation
    T_n, m_w = 262.0, mix.m_w0
    T_eq, m_i = nucleate_controlled(VialState(T=T_n, m_w=m_w), sys_)
    # post-jump temperature equals the depressed freezing point of what is left
    assert T_eq == pytest.approx(freezing_point(mix.m_s, m_w - m_i, f), abs=1e-9)
    # latent heat released matches the sensible heating, to machine precision
    C = mix.m_s * f.Cp_s + m_w * f.Cp_w
    assert (T_eq - T_n) * C == pytest.approx(m_i * 3.34e5, rel=1e-12)
    # deeper supercooling freezes more water instantly
    T_eq2, m_i2 = nucleate_controlled(VialState(T=258.0, m_w=m_w), sys_)
    assert m_i2 > m_i
    assert T_eq2 < T_eq


def test_nucleation_requires_supercooling(mix):
    sys_ = _isothermal_system(mix, 272.0)
    with pytest.raises(DomainError):
        nucleate_controlled(VialState(T=273.0, m_w=mix.m_w0), sys_)


# --- stochastic nucleation --------------------------------------------------------

def _stochastic_system(mix, T_env, **nuc_kw):
    proto = FreezingProtocol(
        gas_temperature=Schedule.constant(T_env),
        wall_temperature=Schedule.constant(T_env),
        upper_temperature=Schedule.constant(T_env),
        total_pressure=Schedule.constant(1.0e5),
        nucleation=StochasticNucleation(**nuc_kw),
        visf_start_s=None,
    )
    return FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)


def test_hazard_oracle(mix):
    sys_ = _stochastic_system(mix, 250.0)
    T_eq = freezing_point(mix.m_s, mix.m_w0, mix.formulation)
    # lambda = k_n dT^10 V_liq with V_liq = 3.0e-6 m^3
    assert nucleation_hazard(T_eq - 5.0, mix.m_w0, sys_) == pytest.approx(
        2.9296875e-4, rel=1e-12)
    # no supercooling, no hazard
    assert nucleation_hazard(T_eq + 1.0, mix.m_w0, sys_) == 0.0
    lam = nucleation_hazard(np.array([T_eq - 5.0, T_eq, T_eq + 5.0]), mix.m_w0, sys_)
    assert lam[0] > 0.0 and lam[1] == 0.0 and lam[2] == 0.0


def test_hazard_requires_stochastic_spec(mix):
    sys_ = _isothermal_system(mix, 250.0)
    with pytest.raises(ConfigurationError):
        nucleation_hazard(260.0, mix.m_w0, sys_)


def test_first_nucleation_time_reproducible(mix, rng):
    sys_ = _stochastic_system(mix, 250.0)
    T_eq = freezing_point(mix.m_s, mix.m_w0, mix.formulation)
    T_held = T_eq - 9.0
    t1 = first_nucleation_time(T_held, mix.m_w0, sys_, np.random.default_rng(42))
    t2 = first_nucleation_time(T_held, mix.m_w0, sys_, np.random.default_rng(42))
    t3 = first_nucleation_time(T_held, mix.m_w0, sys_, np.random.default_rng(43))
    assert t1 == t2
    assert t1 != t3
    assert t1 is not None and t1 > 0.0


def test_first_nucleation_time_none_without_hazard(mix, rng):
    sys_ = _stochastic_system(mix, 280.0)
    T_eq = freezing_point(mix.m_s, mix.m_w0, mix.formulation)
    assert first_nucleation_time(T_eq + 2.0, mix.m_w0, sys_, rng) is None
    # the held-temperature wait is E / lambda for one Exp(1) draw E; a
    # horizon just short of it gives up
    sys_slow = _stochastic_system(mix, 250.0)
    T_held = T_eq - 0.5
    wait = (np.random.default_rng(5).standard_exponential()
            / nucleation_hazard(T_held, mix.m_w0, sys_slow))
    assert first_nucleation_time(T_held, mix.m_w0, sys_slow, np.random.default_rng(5),
                                 t_max=wait) == wait
    assert first_nucleation_time(T_held, mix.m_w0, sys_slow, np.random.default_rng(5),
                                 t_max=0.999 * wait) is None


# --- solidification ---------------------------------------------------------------

def test_solidification_grows_ice_when_cooled(mix):
    sys_ = _isothermal_system(mix, 230.0)
    _, m_i0 = nucleate_controlled(VialState(T=265.0, m_w=mix.m_w0), sys_)
    (dm_i,) = solidification_rhs(sys_, mix.m_w0, 2.5)(0.0, [m_i0])
    assert dm_i > 0.0


def test_solidification_evaluates_trial_states_in_its_domain(mix):
    # a trial ice mass below zero is evaluated at zero, and one at or past
    # the water present at nucleation just short of it, where the
    # depression, and so the rate, stays finite
    rhs = solidification_rhs(_isothermal_system(mix, 230.0), mix.m_w0, 2.5, t0=10.0)
    assert rhs(20.0, [-1.0e-6]) == rhs(20.0, [0.0])
    full = rhs(20.0, [mix.m_w0])
    assert rhs(20.0, [1.5 * mix.m_w0]) == full
    assert np.isfinite(full[0])


# --- full stage machine -------------------------------------------------------------

@pytest.fixture(scope="module")
def controlled_run(mix):
    proto = FreezingProtocol(
        gas_temperature=Schedule(((3600.0, 268.0), (3630.0, 230.0))),
        wall_temperature=Schedule(((3600.0, 273.0), (3630.0, 240.0))),
        upper_temperature=Schedule(((3600.0, 273.0), (3630.0, 240.0))),
        total_pressure=Schedule(((3600.0, 1.0e5), (3630.0, 1.0e4))),
        visf_start_s=3600.0,
        final_temperature_K=235.0,
        final_tolerance_K=0.5,
    )
    sys_ = FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)
    initial = VialState(T=298.15, m_w=mix.m_w0)
    return run_freezing(initial, sys_, IntegratorConfig(), samples_per_stage=150)


def test_stage_events_ordered(controlled_run):
    ev = controlled_run.events
    order = ["preconditioning_end_s", "visf_end_s", "nucleation_s",
             "solidification_end_s", "freezing_end_s"]
    for name in order:
        assert name in ev
    times = [ev[k] for k in order]
    assert times == sorted(times)
    assert ev["preconditioning_end_s"] == pytest.approx(3600.0)
    assert ev["visf_end_s"] == ev["nucleation_s"]


def test_time_axis_and_stage_labels(controlled_run):
    t = controlled_run.t
    assert np.all(np.diff(t) >= 0.0)
    stages = list(dict.fromkeys(controlled_run.stage))
    assert stages == ["preconditioning", "visf", "solidification", "final_cooling"]


def test_masses_conserved_and_nonnegative(controlled_run, mix):
    m_w = controlled_run.series["water_mass_kg"]
    m_i = controlled_run.series["ice_mass_kg"]
    T = controlled_run.series["temperature_avg_K"]
    assert np.all(m_w >= 0.0) and np.all(m_i >= 0.0)
    assert np.all(T > 0.0)
    # ice only appears at nucleation, water only decreases
    assert m_i[0] == 0.0
    assert np.all(np.diff(m_w) <= 1e-18)
    # during solidification the condensed total is pinned to the
    # post-nucleation inventory exactly
    sol = np.array(controlled_run.stage) == "solidification"
    total = m_w[sol] + m_i[sol]
    nuc = controlled_run.meta["nucleation"]
    expected = nuc["water_mass_kg"] + nuc["ice_mass_kg"]
    assert np.max(np.abs(total - expected)) == 0.0


def test_visf_water_loss_recorded(controlled_run, mix):
    loss = controlled_run.meta["visf_water_loss_kg"]
    assert loss > 0.0
    m_w = controlled_run.series["water_mass_kg"]
    assert m_w[0] == pytest.approx(mix.m_w0)
    nuc = controlled_run.meta["nucleation"]
    # all pre-nucleation loss is evaporation
    assert mix.m_w0 - (nuc["water_mass_kg"] + nuc["ice_mass_kg"]) == pytest.approx(
        loss, rel=1e-9)
    # trigger temperature honors the controlled setting
    assert nuc["trigger_temperature_K"] == pytest.approx(268.0, abs=1e-6)
    assert nuc["post_temperature_K"] > nuc["trigger_temperature_K"]


def test_final_state_in_band(controlled_run):
    fs = controlled_run.meta["final_state"]
    assert controlled_run.stage[-1] == "final_cooling"
    assert abs(fs.T - 235.0) <= 0.5 + 1e-9
    assert fs.m_w < 0.06 * (fs.m_w + fs.m_i)  # ~95% of the water frozen


def test_solidified_fraction_matches_protocol(controlled_run, mix):
    nuc = controlled_run.meta["nucleation"]
    fs = controlled_run.meta["final_state"]
    m_w_nuc = nuc["water_mass_kg"] + nuc["ice_mass_kg"]
    assert fs.m_i == pytest.approx(0.95 * m_w_nuc, rel=1e-9)


def test_stop_after_truncates_stages(mix, stage_settings):
    proto = FreezingProtocol(
        gas_temperature=Schedule.constant(240.0),
        wall_temperature=Schedule.constant(240.0),
        upper_temperature=Schedule.constant(240.0),
        total_pressure=Schedule.constant(1.0e5),
        nucleation=ControlledNucleation(temperature_K=266.0),
        visf_start_s=None,
    )
    sys_ = FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)
    traj = run_freezing(VialState(T=290.0, m_w=mix.m_w0), sys_, IntegratorConfig(),
                        stop_after="solidification", **stage_settings("freezing"))
    # the overall end marker coincides with the truncation point
    assert traj.events["freezing_end_s"] == traj.events["solidification_end_s"]
    assert traj.stage[-1] == "solidification"


def test_stochastic_runs_reproducible(mix):
    def build(seed):
        proto = FreezingProtocol(
            gas_temperature=Schedule.constant(240.0),
            wall_temperature=Schedule.constant(240.0),
            upper_temperature=Schedule.constant(240.0),
            total_pressure=Schedule.constant(1.0e5),
            nucleation=StochasticNucleation(seed=seed),
            visf_start_s=None,
            final_temperature_K=242.0,
            final_tolerance_K=1.0,
        )
        sys_ = FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)
        return run_freezing(VialState(T=285.0, m_w=mix.m_w0), sys_,
                            IntegratorConfig(), samples_per_stage=100)

    a, b, c = build(11), build(11), build(12)
    assert a.events["nucleation_s"] == b.events["nucleation_s"]
    assert np.array_equal(a.t, b.t)
    for k in a.series:
        assert np.array_equal(a.series[k], b.series[k])
    assert c.events["nucleation_s"] != a.events["nucleation_s"]


def test_solver_counters_in_meta(controlled_run, mix, stage_settings):
    stochastic = run_freezing(VialState(T=285.0, m_w=mix.m_w0),
                              _stochastic_system(mix, 230.0, seed=3), IntegratorConfig(),
                              **stage_settings("freezing"))
    for traj in (controlled_run, stochastic):
        counts = traj.meta["solver"]
        assert set(counts) == {"steps", "rejected", "nfev", "njev", "nlu", "min_step_s", "wall_s"}
        assert all(isinstance(counts[k], int) for k in ("steps", "nfev", "njev", "nlu"))
        assert counts["steps"] > 0
        assert 0.0 < counts["min_step_s"] < traj.t_end - traj.t[0]
        assert counts["wall_s"] > 0.0


def test_solver_counters_merge_over_integrations(monkeypatch, mix, stage_settings):
    # counts and wall times add up over the stage's integrations; the
    # smallest step is the smallest of any of them
    results = []

    def recording(*args, **kwargs):
        results.append(integrate_adaptive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(freezing, "integrate_adaptive", recording)
    traj = run_freezing(VialState(T=285.0, m_w=mix.m_w0),
                        _stochastic_system(mix, 230.0, seed=3), IntegratorConfig(),
                        **stage_settings("freezing"))
    counts = traj.meta["solver"]
    assert len(results) == 3  # cooldown to nucleation, solidification, final cooling
    for key in ("steps", "nfev", "njev", "nlu", "wall_s"):
        assert counts[key] == sum(r.counters()[key] for r in results)
    assert counts["min_step_s"] == min(r.min_step_s for r in results)


@pytest.mark.parametrize("name", builtin_scenarios())
def test_schedules_run_on_stage_time(name):
    # the protocol's schedules start with freezing: a later start shifts
    # every event by the same time and changes nothing else
    p = load_scenario(name).parameters()
    initial = p.initial_vial_state()
    runs = [run_freezing(replace(initial, t=t0), p.freezing_system(), p.integrator,
                         samples_per_stage=p.samples_per_stage)
            for t0 in (0.0, 1000.0)]
    duration = runs[0].events["freezing_end_s"]
    for event, t in runs[0].events.items():
        assert runs[1].events[event] - 1000.0 == pytest.approx(t, abs=1.0e-6 * duration), event


def test_nucleation_past_the_ice_target_ends_solidification():
    # nucleation from 190 K freezes about 96 % of the water at once, past the
    # 85 % target: solidification is complete when it starts
    data = copy.deepcopy(load_scenario("defaults").data)
    data["freezing"].update({
        "depressurization_start_s": None, "gas_temperature_K": 150.0,
        "wall_temperature_K": 150.0, "upper_temperature_K": 150.0,
        "nucleation": {"mode": "controlled", "temperature_K": 190.0},
        "solidification_fraction": 0.85, "final_temperature_K": 160.0})
    p = build_parameters(data)
    traj = run_freezing(p.initial_vial_state(), p.freezing_system(), p.integrator,
                        samples_per_stage=p.samples_per_stage)
    ev = traj.events
    nuc = traj.meta["nucleation"]
    assert nuc["ice_mass_kg"] > 0.85 * (nuc["ice_mass_kg"] + nuc["water_mass_kg"])
    assert ev["solidification_end_s"] == ev["nucleation_s"]
    assert traj.stage.count("solidification") == 1
    assert ev["freezing_end_s"] > ev["solidification_end_s"]
    assert traj.meta["final_state"].m_i == nuc["ice_mass_kg"]


def test_stages_complete_at_start_take_no_step(mix, stage_settings):
    # a fill that starts below the nucleation temperature and a final band
    # that holds the post-nucleation temperature: no stage integrates
    proto = FreezingProtocol(
        gas_temperature=Schedule.constant(150.0),
        wall_temperature=Schedule.constant(150.0),
        upper_temperature=Schedule.constant(150.0),
        total_pressure=Schedule.constant(1.0e5),
        nucleation=ControlledNucleation(temperature_K=200.0),
        visf_start_s=None, solidification_fraction=0.85,
        final_temperature_K=260.0, final_tolerance_K=20.0,
    )
    sys_ = FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)
    traj = run_freezing(VialState(T=190.0, m_w=mix.m_w0, t=50.0), sys_, IntegratorConfig(),
                        **stage_settings("freezing"))
    assert set(traj.events.values()) == {50.0}
    assert traj.stage == ["preconditioning", "solidification", "final_cooling"]
    counts = traj.meta["solver"]
    assert [counts[k] for k in ("steps", "nfev", "njev", "nlu")] == [0, 0, 0, 0]
    assert np.isnan(counts["min_step_s"])


def test_visf_from_the_start_records_one_preconditioning_row(mix, stage_settings):
    # depressurization at the start of freezing leaves preconditioning no
    # time: it gives one row at the start, like every stage that takes none
    proto = FreezingProtocol(
        gas_temperature=Schedule.constant(230.0),
        wall_temperature=Schedule.constant(240.0),
        upper_temperature=Schedule.constant(240.0),
        total_pressure=Schedule.constant(1.0e4),
        visf_start_s=0.0,
        final_temperature_K=235.0,
        final_tolerance_K=0.5,
    )
    sys_ = FreezingSystem(mixture=mix, radiation=RadiationSpec(), protocol=proto)
    traj = run_freezing(VialState(T=298.15, m_w=mix.m_w0, t=50.0), sys_, IntegratorConfig(),
                        **stage_settings("freezing"))
    assert list(dict.fromkeys(traj.stage)) \
        == ["preconditioning", "visf", "solidification", "final_cooling"]
    assert traj.stage.count("preconditioning") == 1
    assert traj.t[0] == traj.events["preconditioning_end_s"] == 50.0
    assert traj.series["temperature_avg_K"][0] == 298.15
    assert traj.series["water_mass_kg"][0] == mix.m_w0
    assert type(traj.meta["solver"]["rejected"]) is int


# --- exact stochastic nucleation ---------------------------------------------------

def test_stochastic_nucleation_time_is_exact():
    # a tight integration of (T, Lambda), apart from run_freezing, reaches
    # the seed's Exp(1) draw at the time run_freezing nucleates
    params = load_scenario("stochastic_freezing").parameters()
    sys_ = params.freezing_system()
    initial = params.initial_vial_state()
    cool = cooling_rhs(sys_, initial.m_w, t0=initial.t)

    def rhs(t, y):
        return [cool(t, y)[0], nucleation_hazard(y[0], initial.m_w, sys_)]

    for seed in range(5):
        E = np.random.default_rng(seed).standard_exponential()

        def reach(t, y):
            return y[1] - E

        reach.terminal, reach.direction = True, 1.0
        ref = solve_ivp(rhs, (initial.t, initial.t + 1.0e6), [initial.T, 0.0],
                        method="DOP853", rtol=1.0e-10, atol=1.0e-12, events=reach)
        t_ref = float(ref.t_events[0][0])
        traj = run_freezing(initial, sys_, params.integrator, stop_after="solidification",
                            samples_per_stage=params.samples_per_stage,
                            rng=np.random.default_rng(seed))
        assert traj.events["nucleation_s"] == pytest.approx(t_ref, rel=1.0e-4)


def test_stochastic_timeout_without_supercooling(mix, stage_settings):
    # the fill settles at 275 K, above its freezing point: the hazard stays
    # zero and the stage gives up at its horizon without walking it
    sys_ = _stochastic_system(mix, 275.0, seed=0)
    start = time.perf_counter()
    with pytest.raises(StageTimeoutError):
        run_freezing(VialState(T=285.0, m_w=mix.m_w0), sys_, IntegratorConfig(),
                     **stage_settings("freezing"))
    assert time.perf_counter() - start < 0.1


def test_too_few_samples_rejected(mix, stage_settings):
    # one sample per stage would end the run on a misleading domain error
    sys_ = _stochastic_system(mix, 230.0, seed=3)
    with pytest.raises(ConfigurationError, match="2 trajectory samples"):
        run_freezing(VialState(T=285.0, m_w=mix.m_w0), sys_, IntegratorConfig(),
                     **stage_settings("freezing", samples_per_stage=1))


def test_every_step_ends_on_the_schedule_knots(monkeypatch):
    # each freezing integration has the breakpoints of the protocol's
    # schedules, on model time, among its mesh points
    results = []

    def recording(*args, **kwargs):
        results.append(integrate_adaptive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(freezing, "integrate_adaptive", recording)
    p = load_scenario("visf_study").parameters()
    fp = p.freezing_system().protocol
    initial = replace(p.initial_vial_state(), t=250.0)
    run_freezing(initial, p.freezing_system(), p.integrator,
                 samples_per_stage=p.samples_per_stage)
    knots = set(np.concatenate([s.knots for s in (
        fp.gas_temperature, fp.wall_temperature, fp.upper_temperature,
        fp.total_pressure)]) + 250.0)
    assert len(knots) >= 2
    hit = set()
    for res in results:
        inside = {k for k in knots if res.t[0] < k < res.t[-1]}
        assert inside <= set(res.t.tolist())
        hit |= inside
    assert hit


def test_repeated_runs_retain_no_heap():
    # the solver keeps nothing alive between runs: the heap that survives
    # 200 vials is the heap that survives 50 (an integrator that keeps its
    # work arrays, as scipy's LSODA does, grows it by about 2 KB per vial);
    # traced from the 50th vial on, the heap that survives is the growth
    p = load_scenario("stochastic_freezing").parameters()

    def vials(ks):
        for k in ks:
            run_freezing(p.initial_vial_state(), p.freezing_system(), p.integrator,
                         samples_per_stage=2, rng=np.random.default_rng(k))
        gc.collect()

    vials(range(50))
    tracemalloc.start()
    try:
        vials(range(50, 200))
        growth = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert growth < 150 * 64
