"""Bound-water desorption on a fixed grid."""

import math

import numpy as np
import pytest

from lyosim import (
    ConfigurationError,
    DesorptionKinetics,
    DryingConditions,
    IntegratorConfig,
    RadiationSpec,
    Schedule,
    StageTimeoutError,
    VialGeometry,
    run_secondary,
)
from lyosim import drying_secondary
from lyosim.drying_secondary import desorption_rate
from lyosim.solver import CoupledTridiagonal


def _conditions(T=295.0, **kw):
    return DryingConditions(
        shelf_temperature=Schedule.constant(T),
        wall_temperature=Schedule.constant(kw.pop("T_wall", T)),
        upper_temperature=Schedule.constant(kw.pop("T_upper", T)),
        **kw,
    )


@pytest.fixture(scope="module")
def geom():
    return VialGeometry(d=0.024, H=7.2124292981419705e-3)


# --- kinetics -----------------------------------------------------------------

def test_rate_constant_oracle():
    kin = DesorptionKinetics()
    assert kin.rate_constant(295.0) == pytest.approx(1.0595389945062876e-4, rel=1e-12)
    assert kin.rate_constant(273.15) == pytest.approx(8.571314430547191e-5, rel=1e-12)
    # Arrhenius: faster when hotter
    T = np.linspace(250.0, 320.0, 10)
    k = kin.rate_constant(T)
    assert k.shape == (10,)
    assert np.all(np.diff(k) > 0.0)


def test_desorption_rate_sign():
    kin = DesorptionKinetics(c_eq=0.005)
    assert desorption_rate(295.0, 0.088, kin) < 0.0
    assert desorption_rate(295.0, 0.005, kin) == 0.0
    # linear driving force
    r1 = desorption_rate(295.0, 0.105, kin)
    r2 = desorption_rate(295.0, 0.055, kin)
    assert r1 / r2 == pytest.approx((0.105 - 0.005) / (0.055 - 0.005), rel=1e-12)
    c = np.array([0.005, 0.05, 0.1])
    r = desorption_rate(295.0, c, kin)
    assert r.shape == (3,)
    assert r[0] == 0.0 and np.all(r[1:] < 0.0)


def test_kinetics_validation():
    DesorptionKinetics(f_a=0.0)  # desorption disabled is allowed
    DesorptionKinetics(E_a=0.0)  # temperature-independent rate is allowed
    with pytest.raises(ConfigurationError):
        DesorptionKinetics(f_a=-1.0)
    with pytest.raises(ConfigurationError):
        DesorptionKinetics(E_a=-1.0)
    with pytest.raises(ConfigurationError):
        DesorptionKinetics(c_eq=-0.01)
    with pytest.raises(ConfigurationError):
        DesorptionKinetics(rho_d=0.0)
    with pytest.raises(ConfigurationError):
        _conditions(h_b=0.0)


# --- instantaneous RHS ------------------------------------------------------------

def _rhs(kin, rad, cond, geom, T, c_w, t=0.0):
    """(dT/dt, dc_w/dt) of the discretized cake equations."""
    rhs, _ = drying_secondary._make_core(kin, rad, cond, geom, T.shape[0])
    f = rhs(t, np.concatenate([T, c_w]))
    return f[:T.shape[0]], f[T.shape[0]:]


def test_rhs_heats_toward_shelf(geom):
    kin = DesorptionKinetics()
    dT, dc = _rhs(kin, RadiationSpec(), _conditions(295.0), geom,
                  np.full(21, 273.15), np.full(21, 0.088))
    assert dT.shape == (21,) and dc.shape == (21,)
    assert dT[-1] > 0.0  # bottom film sees the hot shelf
    assert np.all(dc < 0.0)


def test_rhs_desorption_sink_cools(geom):
    # isolated cake, desorption only: every node cools by the latent sink
    kin = DesorptionKinetics()
    cond = _conditions(273.15, h_b=1.0e-12)
    rad = RadiationSpec(F_top=0.0, F_side=0.0)
    dT, dc = _rhs(kin, rad, cond, geom, np.full(21, 273.15), np.full(21, 0.088))
    assert np.all(dT < 0.0)
    assert np.all(dc < 0.0)


# --- full stage ----------------------------------------------------------------------

def test_isothermal_decay_matches_closed_form(geom, stage_settings):
    # negligible desorption heat keeps the cake at the uniform environment
    # temperature, so c(t) = c0 exp(-k t) exactly
    kin = DesorptionKinetics(dH_des=1.0e-6)
    cond = _conditions(295.0)
    k = kin.rate_constant(295.0)
    c0, c_target = 0.088, 0.01
    traj = run_secondary(295.0, c0, kin, RadiationSpec(), cond, geom,
                         **stage_settings("secondary", c_target=c_target, samples=100))
    t_expect = math.log(c0 / c_target) / k
    t_end = traj.events["secondary_drying_end_s"]
    assert t_end == pytest.approx(t_expect, rel=1e-5)
    c = traj.series["bound_water_avg_kg_per_kg"]
    assert c == pytest.approx(c0 * np.exp(-k * traj.t), rel=1e-5)


def test_event_localization_stable_under_rtol_halving(geom, stage_settings):
    kin = DesorptionKinetics(dH_des=1.0e-6)
    cond = _conditions(295.0)
    ends = []
    for rtol in (1.0e-6, 5.0e-7):
        traj = run_secondary(295.0, 0.088, kin, RadiationSpec(), cond, geom,
                             config=IntegratorConfig(rtol=rtol),
                             **stage_settings("secondary", samples=20))
        ends.append(traj.events["secondary_drying_end_s"])
    assert abs(ends[1] - ends[0]) / ends[1] < 1.0e-3


@pytest.mark.parametrize("n_z", [5, 51])
def test_jacobian_matches_central_differences(jacobian_error, geom, n_z):
    kin = DesorptionKinetics(c_eq=0.005)
    cond = _conditions(300.0, T_wall=290.0, T_upper=285.0)
    rhs, jac = drying_secondary._make_core(kin, RadiationSpec(), cond, geom, n_z)
    rng = np.random.default_rng(7)
    y = np.concatenate([275.0 + 20.0 * rng.random(n_z), 0.02 + 0.06 * rng.random(n_z)])
    assert jacobian_error(rhs, jac, 500.0, y) < 1.0e-5
    J = jac(500.0, y)
    assert isinstance(J, CoupledTridiagonal) and J.shape == (2 * n_z, 2 * n_z)
    # tridiagonal T block, T-c_w diagonal both ways and the c_w diagonal
    nodes = np.arange(n_z)
    expected = np.zeros((2 * n_z, 2 * n_z), dtype=bool)
    for i in nodes:
        expected[i, max(i - 1, 0):min(i + 2, n_z)] = True
    expected[nodes, n_z + nodes] = expected[n_z + nodes, nodes] = True
    expected[n_z + nodes, n_z + nodes] = True
    assert np.array_equal(J.toarray() != 0.0, expected)


@pytest.fixture(scope="module")
def heated_run(geom, stage_settings):
    kin = DesorptionKinetics()
    cond = _conditions(295.0, T_wall=290.0, T_upper=290.0)
    return run_secondary(273.15, 0.088, kin, RadiationSpec(), cond, geom,
                         **stage_settings("secondary", samples=150))


def test_bound_water_monotone_nonnegative(heated_run):
    c = heated_run.series["bound_water_avg_kg_per_kg"]
    assert np.all(c >= 0.0)
    assert np.all(np.diff(c) < 0.0)
    assert c[0] == pytest.approx(0.088)
    assert c[-1] == pytest.approx(0.01, rel=1e-6)
    prof = heated_run.fields["bound_water_kg_per_kg"]
    assert np.all(prof >= 0.0)


def test_solver_counters_in_meta(heated_run):
    counts = heated_run.meta["solver"]
    assert set(counts) == {"steps", "rejected", "nfev", "njev", "nlu", "min_step_s", "wall_s"}
    # the Jacobian does not depend on time and changes slowly with the state
    assert 0 < counts["njev"] < counts["steps"] < counts["nfev"]


def test_cake_heats_toward_shelf(heated_run):
    T = heated_run.series["temperature_avg_K"]
    assert T[0] == pytest.approx(273.15)
    assert T[-1] > 290.0
    assert np.all(T <= 295.0 + 1e-6)


def test_grid_doubling_changes_endpoint_under_one_percent(geom, stage_settings):
    kin = DesorptionKinetics()
    cond = _conditions(295.0)
    ends = []
    for n_z in (26, 51):
        traj = run_secondary(273.15, 0.088, kin, RadiationSpec(), cond, geom,
                             **stage_settings("secondary", n_z=n_z, samples=20))
        ends.append(traj.events["secondary_drying_end_s"])
    assert abs(ends[1] - ends[0]) / ends[1] < 0.01


def test_profile_initial_conditions(geom, stage_settings):
    kin = DesorptionKinetics()
    cond = _conditions(295.0)
    T0 = np.linspace(270.0, 276.0, 31)
    c0 = np.linspace(0.080, 0.096, 31)
    settings = stage_settings("secondary", n_z=31, samples=20)
    traj = run_secondary(T0, c0, kin, RadiationSpec(), cond, geom, **settings)
    assert traj.fields["temperature_K"][0] == pytest.approx(T0)
    assert traj.fields["bound_water_kg_per_kg"][0] == pytest.approx(c0)
    with pytest.raises(ConfigurationError, match="initial temperature"):
        run_secondary(T0[:5], 0.088, kin, RadiationSpec(), cond, geom, **settings)
    with pytest.raises(ConfigurationError, match="initial bound water"):
        run_secondary(T0, c0[:5], kin, RadiationSpec(), cond, geom, **settings)
    with pytest.raises(ConfigurationError):
        run_secondary(273.15, -0.01, kin, RadiationSpec(), cond, geom, **settings)


def test_already_dry_returns_immediately(geom, stage_settings):
    kin = DesorptionKinetics()
    traj = run_secondary(280.0, 0.005, kin, RadiationSpec(), _conditions(295.0),
                         geom, t0=100.0, **stage_settings("secondary", c_target=0.01))
    assert traj.t.shape[0] == 1
    assert traj.events["secondary_drying_end_s"] == traj.t[0] == 100.0
    assert traj.meta["duration_s"] == 0.0
    assert traj.meta["final_state"].t == 100.0
    counts = traj.meta["solver"]
    assert [counts[k] for k in ("steps", "nfev", "njev", "nlu")] == [0, 0, 0, 0]
    assert math.isnan(counts["min_step_s"])


def test_no_target_holds_for_time_limit(geom, stage_settings):
    # c_target=None is a fixed-duration hold: no event, no timeout
    kin = DesorptionKinetics()
    traj = run_secondary(273.15, 0.088, kin, RadiationSpec(), _conditions(295.0),
                         geom, stage_label="post_heat",
                         **stage_settings("secondary", c_target=None, time_limit_s=500.0,
                                          samples=20))
    assert traj.t[-1] == pytest.approx(500.0, rel=1e-12)
    assert traj.events == {"post_heat_end_s": traj.t[-1]}
    assert set(traj.stage) == {"post_heat"}
    assert traj.meta["final_state"].t == traj.t[-1]
    assert traj.series["bound_water_avg_kg_per_kg"][-1] > 0.01


def test_unreached_target_times_out(geom, stage_settings):
    kin = DesorptionKinetics()
    with pytest.raises(StageTimeoutError, match="target 0.01") as err:
        run_secondary(273.15, 0.088, kin, RadiationSpec(), _conditions(295.0), geom,
                      **stage_settings("secondary", c_target=0.01, time_limit_s=100.0))
    assert err.value.stage == "secondary_drying"
    # a renamed stage reports its timeout under its own name
    with pytest.raises(StageTimeoutError) as err:
        run_secondary(273.15, 0.088, kin, RadiationSpec(), _conditions(295.0), geom,
                      stage_label="hold2",
                      **stage_settings("secondary", c_target=0.01, time_limit_s=10.0))
    assert err.value.stage == "hold2"


def test_negative_target_rejected(geom, stage_settings):
    kin = DesorptionKinetics()
    with pytest.raises(ConfigurationError):
        run_secondary(273.15, 0.088, kin, RadiationSpec(), _conditions(295.0), geom,
                      **stage_settings("secondary", c_target=-1.0))


def test_schedules_run_on_stage_time(geom, stage_settings):
    # a stage started at t0 reads its schedules from t0 on
    ramp = Schedule(((0.0, 264.0), (5760.0, 312.0)))
    cond = DryingConditions(shelf_temperature=ramp, wall_temperature=ramp,
                            upper_temperature=ramp)
    settings = stage_settings("secondary", samples=20)
    kin = DesorptionKinetics()
    at_zero = run_secondary(264.0, 0.088, kin, RadiationSpec(), cond, geom, **settings)
    later = run_secondary(264.0, 0.088, kin, RadiationSpec(), cond, geom, t0=7043.0,
                          **settings)
    assert later.meta["duration_s"] == pytest.approx(at_zero.meta["duration_s"],
                                                     rel=1.0e-6)
    assert later.series["temperature_avg_K"] == pytest.approx(
        at_zero.series["temperature_avg_K"], rel=1.0e-6)


def test_too_few_samples_rejected(geom, stage_settings):
    # one sample would collapse the stage onto its start time
    kin = DesorptionKinetics()
    with pytest.raises(ConfigurationError, match="2 trajectory samples"):
        run_secondary(273.15, 0.088, kin, RadiationSpec(), _conditions(295.0), geom,
                      **stage_settings("secondary", samples=1))
