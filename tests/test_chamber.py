"""Chamber water balance and condenser-limited primary drying."""

import numpy as np
import pytest

from lyosim import (
    ChamberModel,
    ConfigurationError,
    DryingParams,
    IntegratorConfig,
    RadiationSpec,
    Schedule,
    StageTimeoutError,
    VialGeometry,
    run_primary,
)
from lyosim import drying_primary
from lyosim.chamber import chamber_pressure_gain, chamber_pressure_rhs, \
    run_primary_with_condenser
from lyosim.drying_primary import sublimation_flux


def _default_dp(**kw):
    base = dict(
        shelf_temperature=Schedule.constant(270.0),
        wall_temperature=Schedule.constant(265.0),
        upper_temperature=Schedule.constant(265.0),
    )
    base.update(kw)
    return DryingParams(**base)


@pytest.fixture(scope="module")
def geom():
    return VialGeometry(d=0.024, H=7.2124292981419705e-3)


def test_chamber_model_validation():
    ChamberModel()
    with pytest.raises(ConfigurationError):
        ChamberModel(V_c=0.0)
    with pytest.raises(ConfigurationError):
        ChamberModel(n_vial=0)
    with pytest.raises(ConfigurationError):
        ChamberModel(j_w_max=-1.0)
    with pytest.raises(ConfigurationError):
        ChamberModel(T_bar=-10.0)
    with pytest.raises(ConfigurationError):
        ChamberModel(p_setpoint=-1.0)
    ChamberModel(j_w_max=0.0)  # dead condenser is allowed


def test_pressure_rhs_oracle():
    ch = ChamberModel()
    # ideal-gas factor R T / (V M) converts net kg/s into Pa/s
    factor = 8.314 * 260.0 / (0.118 * 0.018)
    assert chamber_pressure_rhs(10.0, ch.j_w_max + 1.0e-6, ch) == pytest.approx(
        1.0e-6 * factor, rel=1e-12)
    assert chamber_pressure_rhs(10.0, ch.j_w_max + 1.0e-6, ch) == pytest.approx(
        1.0177212806026368, rel=1e-12)
    # balance point: zero derivative exactly at capacity
    assert chamber_pressure_rhs(10.0, ch.j_w_max, ch) == 0.0


def test_pressure_rhs_setpoint_clamp():
    ch = ChamberModel()
    # at or below the setpoint with spare capacity the controller holds
    assert chamber_pressure_rhs(3.0, 0.5 * ch.j_w_max, ch) == 0.0
    assert chamber_pressure_rhs(2.0, 0.0, ch) == 0.0
    # above the setpoint the condenser is free to pull the pressure down
    assert chamber_pressure_rhs(3.1, 0.5 * ch.j_w_max, ch) < 0.0
    # overload raises the pressure regardless
    assert chamber_pressure_rhs(3.0, 2.0 * ch.j_w_max, ch) > 0.0


def test_pressure_gain_follows_the_clamp():
    ch = ChamberModel()
    factor = 8.314 * 260.0 / (0.118 * 0.018)
    # held setpoint: the rate does not respond to the load
    assert chamber_pressure_gain(3.0, 0.5 * ch.j_w_max, ch) == 0.0
    assert chamber_pressure_gain(2.0, 0.0, ch) == 0.0
    for p, load in ((3.1, 0.5 * ch.j_w_max), (3.0, 2.0 * ch.j_w_max), (10.0, ch.j_w_max)):
        assert chamber_pressure_gain(p, load, ch) == pytest.approx(factor, rel=1e-12)


@pytest.mark.parametrize("n_z", [5, 51])
@pytest.mark.parametrize("case", ["setpoint_clamp", "overload"])
def test_jacobian_matches_central_differences(jacobian_error, geom, n_z, case):
    T = np.linspace(240.0, 255.0, n_z)
    S = 0.4 * geom.H
    if case == "setpoint_clamp":
        # state under the setpoint, load under capacity: the controller holds
        ch = ChamberModel(j_w_max=1.0)
        p_state = 2.5
    else:
        ch = ChamberModel()
        p_state = 10.0
    rhs, jac = drying_primary._make_core(_default_dp(), RadiationSpec(), geom, n_z, ch)
    y = np.concatenate([T, [S, p_state]])
    assert jacobian_error(rhs, jac, 1000.0, y) < 1.0e-5
    J = jac(1000.0, y).toarray()
    assert J.shape == (n_z + 2, n_z + 2)
    if case == "setpoint_clamp":
        assert np.all(J[-1] == 0.0) and np.all(J[:, -1] == 0.0)
    else:
        # more load raises the pressure; more pressure throttles the load
        assert J[-1, 0] > 0.0 and J[-1, -1] < 0.0


@pytest.fixture(scope="module")
def failure_run(geom, stage_settings):
    dp = _default_dp()
    ch = ChamberModel()
    return run_primary(235.0, dp, RadiationSpec(), geom, chamber=ch,
                       **stage_settings("primary"))


def test_pressure_rises_to_plateau(failure_run, geom):
    p = failure_run.series["chamber_water_pressure_Pa"]
    assert p[0] == pytest.approx(3.0)
    assert np.all(p >= 3.0 - 1e-12)
    assert p.max() > 10.0  # far above the setpoint
    # plateau: the collective load balances the condenser capacity, so at
    # the pressure peak |n j_w A - j_max| / j_max is small
    ch = ChamberModel()
    dp = _default_dp()
    i = int(np.argmax(p))
    T_front = failure_run.series["temperature_top_K"][i]
    S = float(failure_run.series["front_position_m"][i])
    load = ch.n_vial * geom.A_z * sublimation_flux(T_front, S, dp, float(p[i]))
    assert abs(load - ch.j_w_max) / ch.j_w_max < 1.0e-3


def test_failure_slows_drying_and_heats_product(failure_run, geom, stage_settings):
    base = run_primary(235.0, _default_dp(), RadiationSpec(), geom,
                       **stage_settings("primary", samples=100))
    t_fail = failure_run.events["primary_drying_end_s"]
    t_base = base.events["primary_drying_end_s"]
    assert t_fail > t_base
    assert failure_run.series["temperature_avg_K"].max() > \
        base.series["temperature_avg_K"].max()


def test_solver_counters_in_meta(failure_run):
    counts = failure_run.meta["solver"]
    assert set(counts) == {"steps", "rejected", "nfev", "njev", "nlu", "min_step_s", "wall_s"}
    assert 0 < counts["njev"] < counts["steps"] < counts["nfev"]


def test_front_completes_under_failure(failure_run, geom):
    S = failure_run.series["front_position_m"]
    assert S[-1] == geom.H
    assert np.all(np.diff(S) >= 0.0)
    assert failure_run.series["ice_mass_kg"][-1] == 0.0


def test_oversized_condenser_matches_fixed_pressure(geom, stage_settings):
    # with ample capacity the chamber stays at the setpoint and the run
    # reduces to the uncoupled one; both run at tolerances whose integration
    # error stays well under the compared 1e-6, so a gap left is a gap
    # between the models
    dp = _default_dp()
    ch = ChamberModel(j_w_max=1.0)
    tight = IntegratorConfig(rtol=1.0e-9, atol=1.0e-12)
    settings = stage_settings("primary", samples=50)
    coupled = run_primary(235.0, dp, RadiationSpec(), geom, chamber=ch,
                          config=tight, **settings)
    plain = run_primary(235.0, dp, RadiationSpec(), geom, config=tight, **settings)
    p = coupled.series["chamber_water_pressure_Pa"]
    assert np.all(np.abs(p - 3.0) < 1e-9)
    assert coupled.events["primary_drying_end_s"] == pytest.approx(
        plain.events["primary_drying_end_s"], rel=1e-6)


def test_more_vials_push_pressure_higher(geom, stage_settings):
    dp = _default_dp()
    p_peaks = []
    for n in (150, 300):
        traj = run_primary(235.0, dp, RadiationSpec(), geom,
                           chamber=ChamberModel(n_vial=n),
                           **stage_settings("primary", samples=50))
        p_peaks.append(traj.series["chamber_water_pressure_Pa"].max())
    assert p_peaks[1] > p_peaks[0]


def test_run_validations(geom, stage_settings):
    dp = _default_dp()
    ch = ChamberModel()
    with pytest.raises(ConfigurationError):
        run_primary(235.0, dp, RadiationSpec(), geom, chamber=ch,
                    **stage_settings("primary", samples=1))


def test_final_state_and_sublimed_mass_under_chamber(failure_run, geom):
    dp = _default_dp()
    fs = failure_run.meta["final_state"]
    assert fs.S == geom.H
    assert fs.t == failure_run.events["primary_drying_end_s"]
    assert np.array_equal(fs.T, failure_run.fields["temperature_K"][-1])
    expected = (dp.rho_f - dp.rho_e) * geom.A_z * geom.H
    assert failure_run.meta["sublimed_mass_kg"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p_setpoint, detail", [
    (3.0, "front still moving"),
    # above the ice saturation pressure at the shelf temperature: no flux
    (1000.0, "driving force is nonpositive"),
])
def test_timeout_reports_stall_under_chamber(geom, stage_settings, p_setpoint, detail):
    with pytest.raises(StageTimeoutError, match=detail):
        run_primary(235.0, _default_dp(), RadiationSpec(), geom,
                    chamber=ChamberModel(p_setpoint=p_setpoint),
                    **stage_settings("primary", time_limit_s=60.0, samples=10))


def test_condenser_name_forwards_to_run_primary(geom, stage_settings):
    dp = _default_dp()
    ch = ChamberModel()
    settings = stage_settings("primary", samples=50)
    old = run_primary_with_condenser(235.0, dp, RadiationSpec(), geom, ch, **settings)
    new = run_primary(235.0, dp, RadiationSpec(), geom, chamber=ch, **settings)
    assert np.array_equal(old.t, new.t)
    assert old.series.keys() == new.series.keys()
    for name, values in new.series.items():
        assert np.array_equal(old.series[name], values), name
    assert old.events == new.events
