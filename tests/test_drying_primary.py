"""Moving-front primary drying: flux oracles, invariants, convergence."""

import numpy as np
import pytest

from lyosim import (
    ChamberModel,
    ConfigurationError,
    DomainError,
    DryingParams,
    IntegratorConfig,
    RadiationSpec,
    Schedule,
    StageTimeoutError,
    VialGeometry,
    run_primary,
)
from lyosim import drying_primary
from lyosim.drying_primary import cake_resistance, sublimation_flux
from lyosim.solver import BorderedTridiagonal


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


@pytest.fixture(scope="module")
def baseline(geom, stage_settings):
    dp = _default_dp()
    return run_primary(235.0, dp, RadiationSpec(), geom,
                       **stage_settings("primary", samples=200))


# --- parameter validation -----------------------------------------------------

def test_params_validation():
    _default_dp()
    with pytest.raises(ConfigurationError):
        _default_dp(rho_e=937.0)  # must be strictly below rho_f
    with pytest.raises(ConfigurationError):
        _default_dp(rho_e=0.0)
    with pytest.raises(ConfigurationError):
        _default_dp(Rp0=0.0)
    with pytest.raises(ConfigurationError):
        _default_dp(Rp1=-1.0)
    with pytest.raises(ConfigurationError):
        _default_dp(p_w_chamber=-1.0)
    _default_dp(Rp1=0.0)  # constant-resistance cake is allowed


# --- cake resistance and flux ----------------------------------------------------

def test_cake_resistance_oracle():
    dp = _default_dp()
    assert cake_resistance(0.0, dp) == 1.5e4
    assert cake_resistance(3.6e-3, dp) == pytest.approx(25796.113399176298, rel=1e-12)
    # saturating form: R -> Rp0 + Rp1 as S >> Rp2
    assert cake_resistance(1.0e6, dp) < 1.5e4 + 3.0e7
    S = np.linspace(0.0, 7.2e-3, 50)
    R = np.array([cake_resistance(float(s), dp) for s in S])
    assert np.all(np.diff(R) > 0.0)
    with pytest.raises(DomainError):
        cake_resistance(-1.0e-3, dp)


def test_sublimation_flux_oracle():
    dp = _default_dp()
    p_c = dp.p_w_chamber
    assert sublimation_flux(250.0, 0.0, dp, p_c) == pytest.approx(
        4.871059645883356e-3, rel=1e-12)
    assert sublimation_flux(250.0, 3.6e-3, dp, p_c) == pytest.approx(
        2.8324381102535945e-3, rel=1e-12)
    # saturation below the chamber partial pressure: no recondensation
    assert sublimation_flux(210.0, 0.0, dp, p_c) == 0.0
    # the flux falls with the chamber partial pressure
    assert sublimation_flux(250.0, 0.0, dp, p_w_chamber=76.06589468825034) == 0.0
    assert sublimation_flux(250.0, 0.0, dp, p_w_chamber=0.0) > sublimation_flux(
        250.0, 0.0, dp, p_c)


def test_flux_increases_with_front_temperature():
    dp = _default_dp()
    T = np.linspace(230.0, 260.0, 20)
    N = np.array([sublimation_flux(float(x), 1.0e-3, dp, dp.p_w_chamber) for x in T])
    assert np.all(np.diff(N) > 0.0)


# --- instantaneous RHS ------------------------------------------------------------

def _rhs(dp, rad, geom, T, S, t=0.0):
    """(dT/dt, dS/dt) of the discretized equations at the fixed chamber
    partial pressure ``dp.p_w_chamber``."""
    rhs, _ = drying_primary._make_core(dp, rad, geom, T.shape[0])
    f = rhs(t, np.append(T, S))
    return f[:-1], f[-1]


def test_rhs_shapes_and_front_speed(geom):
    dp = _default_dp()
    n_z = 51
    dT, dS = _rhs(dp, RadiationSpec(), geom, np.full(n_z, 250.0), 0.0)
    assert dT.shape == (n_z,)
    assert dS == pytest.approx(6.746620008148693e-6, rel=1e-12)
    # hot shelf feeds the bottom node
    assert dT[-1] > 0.0


def test_rhs_front_cooling_from_sublimation(geom):
    # with radiation off and environments at the product temperature the
    # only heat flow is the latent sink at the front
    dp = _default_dp(shelf_temperature=Schedule.constant(250.0),
                     wall_temperature=Schedule.constant(250.0),
                     upper_temperature=Schedule.constant(250.0))
    rad = RadiationSpec(F_top=0.0, F_side=0.0)
    dT, dS = _rhs(dp, rad, geom, np.full(51, 250.0), 1.0e-3)
    assert dS > 0.0
    assert dT[0] < 0.0  # front chills
    assert abs(dT[-1]) < abs(dT[0])  # bottom is insulated from the sink


# --- exact Jacobian -----------------------------------------------------------------

def test_jacobian_sparsity_structure(geom):
    n_z = 5
    for chamber in (None, ChamberModel()):
        _, jac = drying_primary._make_core(_default_dp(), RadiationSpec(), geom, n_z,
                                           chamber)
        y = np.concatenate([np.linspace(240.0, 250.0, n_z), [0.4 * geom.H]])
        if chamber is not None:
            y = np.append(y, 10.0)  # over the setpoint: p couples both ways
        J = jac(100.0, y)
        n = y.shape[0]
        border = [0, n_z, n_z + 1][:n - n_z + 1]
        assert isinstance(J, BorderedTridiagonal) and J.shape == (n, n)
        assert J.border.tolist() == border
        # tridiagonal T_1 ... T_{n_z-1}, dense border columns T_0, S (and p),
        # the front row's T_1 entry, border rows in the border columns only
        expected = np.zeros((n, n), dtype=bool)
        for i in range(1, n_z):
            expected[i, max(i - 1, 1):min(i + 2, n_z)] = True
        expected[:, border] = True
        expected[0, 1] = True
        # the advection coefficient vanishes at the bottom node, whose
        # equation senses T_0 and p only through the front speed
        expected[n_z - 1, [0, n_z + 1][:n - n_z]] = False
        assert np.array_equal(J.toarray() != 0.0, expected)


@pytest.mark.parametrize("n_z", [5, 51])
@pytest.mark.parametrize("case", ["mid_drying", "gap_floor", "cold_front", "behind_top"])
def test_jacobian_matches_central_differences(jacobian_error, geom, n_z, case):
    rhs, jac = drying_primary._make_core(_default_dp(), RadiationSpec(), geom, n_z)
    T = np.linspace(240.0, 255.0, n_z)
    S = 0.4 * geom.H
    steps = None
    if case == "gap_floor":
        # H - S under the floor of half the 1e-3 completion margin; the S
        # step stays a quarter of the way to the floor's kink
        S = geom.H * (1.0 - 0.25e-3)
        steps = np.append(1.0e-6 * T, 0.25 * (S - geom.H * (1.0 - 0.5e-3)))
    elif case == "cold_front":
        T[0] = 200.0  # saturation 0.16 Pa, under the 3 Pa chamber: no flux
    elif case == "behind_top":
        S = -1.0e-4  # a trial state above the product: the cake has no depth
    y = np.concatenate([T, [S]])
    assert jacobian_error(rhs, jac, 1000.0, y, steps) < 1.0e-5
    if case == "cold_front":
        assert np.all(jac(1000.0, y).toarray()[n_z] == 0.0)


# --- full stage ----------------------------------------------------------------------

def test_front_reaches_bottom(baseline, geom):
    S = baseline.series["front_position_m"]
    assert S[0] == 0.0
    assert S[-1] == geom.H
    assert np.all(np.diff(S) >= 0.0)
    assert np.all(S <= geom.H + 1e-15)
    ice = baseline.series["ice_mass_kg"]
    assert ice[-1] == 0.0
    assert np.all(np.diff(ice) <= 1e-18)
    assert baseline.meta["final_state"].S == geom.H


def test_sublimed_mass_closes_with_front_travel(baseline, geom):
    dp = _default_dp()
    expected = (dp.rho_f - dp.rho_e) * geom.A_z * geom.H
    assert baseline.meta["sublimed_mass_kg"] == pytest.approx(expected, rel=1e-12)
    ice = baseline.series["ice_mass_kg"]
    assert ice[0] == pytest.approx(expected, rel=1e-12)


def test_temperatures_physical(baseline):
    for key in ("temperature_avg_K", "temperature_bottom_K", "temperature_top_K"):
        T = baseline.series[key]
        assert np.all(T > 200.0)
        assert np.all(T < 300.0)
    # front stays the coldest point while ice remains
    T_top = baseline.series["temperature_top_K"][:-1]
    T_bot = baseline.series["temperature_bottom_K"][:-1]
    assert np.all(T_top <= T_bot + 1e-9)


def test_flux_series_shape(baseline):
    N = baseline.series["sublimation_flux_kg_per_m2s"]
    assert np.all(N >= 0.0)
    assert N[-1] == 0.0  # completion sample
    assert N[0] > 0.0


def test_event_and_duration(baseline):
    t_end = baseline.events["primary_drying_end_s"]
    assert t_end == baseline.t[-1]
    assert baseline.meta["duration_s"] == pytest.approx(t_end - baseline.t[0])
    assert set(baseline.stage) == {"primary_drying"}


def test_solver_counters_in_meta(baseline):
    counts = baseline.meta["solver"]
    assert set(counts) == {"steps", "rejected", "nfev", "njev", "nlu", "min_step_s", "wall_s"}
    assert all(isinstance(counts[k], int) for k in ("steps", "nfev", "njev", "nlu"))
    assert 0.0 < counts["min_step_s"] < baseline.meta["duration_s"]
    assert counts["wall_s"] > 0.0
    # the exact Jacobian is refreshed rarely and never by finite differences
    assert 0 < counts["njev"] < counts["steps"] < counts["nfev"]
    assert counts["nlu"] >= counts["njev"]


def test_grid_doubling_changes_endpoint_under_one_percent(geom, stage_settings):
    dp = _default_dp()
    ends = []
    for n_z in (26, 51):
        traj = run_primary(235.0, dp, RadiationSpec(), geom,
                           **stage_settings("primary", n_z=n_z, samples=50))
        ends.append(traj.events["primary_drying_end_s"])
    assert abs(ends[1] - ends[0]) / ends[1] < 0.01


def test_rtol_halving_moves_endpoint_under_point1_percent(geom, stage_settings):
    dp = _default_dp()
    ends = []
    for rtol in (1.0e-6, 5.0e-7):
        traj = run_primary(235.0, dp, RadiationSpec(), geom,
                           config=IntegratorConfig(rtol=rtol),
                           **stage_settings("primary", samples=50))
        ends.append(traj.events["primary_drying_end_s"])
    assert abs(ends[1] - ends[0]) / ends[1] < 1.0e-3


def test_warmer_shelf_dries_faster(geom, stage_settings):
    settings = stage_settings("primary", samples=50)
    t_cool = run_primary(235.0, _default_dp(shelf_temperature=Schedule.constant(262.0)),
                         RadiationSpec(), geom, **settings)
    t_warm = run_primary(235.0, _default_dp(shelf_temperature=Schedule.constant(278.0)),
                         RadiationSpec(), geom, **settings)
    assert t_warm.events["primary_drying_end_s"] < t_cool.events["primary_drying_end_s"]


def test_profile_initial_condition_array(geom, stage_settings):
    dp = _default_dp()
    settings = stage_settings("primary", samples=50)
    T0 = np.linspace(233.0, 238.0, settings["n_z"])
    traj = run_primary(T0, dp, RadiationSpec(), geom, **settings)
    assert traj.fields["temperature_K"][0] == pytest.approx(T0)


def test_run_validations(geom, stage_settings):
    dp = _default_dp()
    rad = RadiationSpec()
    with pytest.raises(ConfigurationError, match="2 trajectory samples"):
        run_primary(235.0, dp, rad, geom, **stage_settings("primary", samples=1))
    with pytest.raises(ConfigurationError):
        run_primary(235.0, dp, rad, geom, **stage_settings("primary", n_z=2))
    with pytest.raises(ConfigurationError, match="initial temperature"):
        run_primary(np.full(5, 235.0), dp, rad, geom, **stage_settings("primary"))


def test_timeout_raises(geom, stage_settings):
    dp = _default_dp()
    with pytest.raises(StageTimeoutError):
        run_primary(235.0, dp, RadiationSpec(), geom,
                    **stage_settings("primary", time_limit_s=60.0, samples=10))


def test_steady_residual_small_mid_drying(baseline, geom):
    # mid-run the profile is quasi-steady: conduction through the slab
    # nearly balances the boundary fluxes
    dp = _default_dp()
    i = len(baseline.t) // 2
    T = baseline.fields["temperature_K"][i]
    mid = (T, float(baseline.series["front_position_m"][i]), float(baseline.t[i]))
    start = (np.full_like(T, 235.0), 0.0, 0.0)
    r_mid, r_init = (float(np.max(np.abs(_rhs(dp, RadiationSpec(), geom, *s)[0])))
                     for s in (mid, start))
    assert r_mid < 0.1 * r_init
