"""Stiff integrator wrapper: tolerances, events, Jacobians and failures."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse import csc_matrix

from lyosim import (
    ConfigurationError,
    EventSpec,
    IntegratorConfig,
    SolverError,
    default_parameters,
    integrate_adaptive,
    load_scenario,
    run_freezing,
    run_primary,
    run_secondary,
    solver,
)

# stiff linear test system: y0' = -1000 y0, y1' = y0 - y1
_A = np.array([[-1000.0, 0.0], [1.0, -1.0]])


def _stiff_rhs(t, y):
    return _A @ y


def _stiff_exact(t):
    # eigen-decomposition by hand
    y0 = np.exp(-1000.0 * t)
    y1 = (np.exp(-t) - np.exp(-1000.0 * t)) / 999.0
    return np.array([y0, y1])


def test_config_defaults_and_validation():
    c = IntegratorConfig()
    assert c.rtol == 1.0e-6 and c.atol == 1.0e-9
    for bad in (dict(rtol=0.0), dict(rtol=-1.0), dict(atol=0.0),
                dict(atol=np.array([1e-9, 0.0])), dict(max_step=0.0)):
        with pytest.raises(ConfigurationError):
            IntegratorConfig(**bad)


@pytest.mark.parametrize("method, factor", [pytest.param("BDF", 10.0, id="bdf-10.0"),
                                            pytest.param("LSODA", 20.0, id="lsoda-20.0")])
def test_stiff_linear_system_matches_closed_form(method, factor):
    # 10*rtol for the default stiff method; LSODA uses a lower-order dense
    # interpolant and gets a correspondingly looser bound
    cfg = IntegratorConfig(rtol=1.0e-6, atol=1.0e-12)
    res = integrate_adaptive(_stiff_rhs, (0.0, 5.0), np.array([1.0, 0.0]), cfg,
                             method=method)
    assert res.t[-1] == 5.0
    # past the fast initial layer the slow component must track the closed form
    t_check = np.linspace(0.5, 5.0, 20)
    y_num = res.sol(t_check)[1]
    y_ref = _stiff_exact(t_check)[1]
    assert np.max(np.abs(y_num - y_ref) / np.abs(y_ref)) < factor * cfg.rtol
    # terminal values tight in absolute terms
    assert np.allclose(res.sol(5.0), _stiff_exact(5.0), atol=1.0e-8)


def test_stiff_attractor_tracks_closed_form():
    # y' = lam (y - cos t) - sin t rides the attractor y = cos t exactly
    lam = -1000.0

    def rhs(t, y):
        return np.array([lam * (y[0] - math.cos(t)) - math.sin(t)])

    cfg = IntegratorConfig(rtol=1.0e-6, atol=1.0e-12)
    res = integrate_adaptive(rhs, (0.0, 10.0), np.array([1.0]), cfg)
    t = np.linspace(0.1, 10.0, 50)
    err = np.abs(res.sol(t)[0] - np.cos(t)) / np.maximum(np.abs(np.cos(t)), 1.0e-2)
    assert np.max(err) < 10.0 * cfg.rtol


def test_stiff_system_is_cheap_for_bdf():
    # the explicit reference needs orders of magnitude more steps
    y0 = np.array([1.0, 0.0])
    res_bdf = integrate_adaptive(_stiff_rhs, (0.0, 50.0), y0, IntegratorConfig())
    res_rk = integrate_adaptive(_stiff_rhs, (0.0, 50.0), y0, IntegratorConfig(),
                                method="RK45")
    assert res_bdf.nfev < res_rk.nfev / 5


def test_jac_forwarded_to_implicit_methods():
    calls = []

    def jac(t, y):
        calls.append(t)
        return csc_matrix(_A)

    y0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(rtol=1.0e-8, atol=1.0e-12)
    res = integrate_adaptive(_stiff_rhs, (0.0, 5.0), y0, cfg, jac=jac)
    assert np.allclose(res.sol(5.0), _stiff_exact(5.0), atol=1.0e-9)
    # a constant exact Jacobian is evaluated once and never by differences
    assert len(calls) == res.njev == 1
    assert res.nlu >= 1 and res.nfev > 0


def test_terminal_event_stops_at_known_time():
    # y' = -y from 1: crosses 0.5 at t = ln 2
    ev = EventSpec(lambda t, y: y[0] - 0.5, direction=-1.0, name="half_life")
    cfg = IntegratorConfig(rtol=1.0e-10, atol=1.0e-12)
    res = integrate_adaptive(lambda t, y: -y, (0.0, 10.0), np.array([1.0]), cfg,
                             events=[ev])
    t_hit = res.first_event_time("half_life")
    assert t_hit == pytest.approx(math.log(2.0), rel=1.0e-8)
    assert res.t[-1] == pytest.approx(t_hit)
    assert res.y[0, -1] == pytest.approx(0.5, abs=1.0e-9)


def test_event_localization_converges_with_rtol():
    # halving rtol must keep the located time within 0.1%
    ev = EventSpec(lambda t, y: y[0] - 0.25, direction=-1.0, name="quarter")
    times = []
    for rtol in (1.0e-6, 5.0e-7):
        cfg = IntegratorConfig(rtol=rtol, atol=1.0e-12)
        res = integrate_adaptive(lambda t, y: -y, (0.0, 10.0), np.array([1.0]),
                                 cfg, events=[ev])
        times.append(res.first_event_time("quarter"))
    assert abs(times[1] - times[0]) / times[1] < 1.0e-3
    assert times[1] == pytest.approx(math.log(4.0), rel=1.0e-6)


def test_event_direction_filter():
    # y = sin t: rising zero at 2*pi, falling at pi
    rhs = lambda t, y: np.array([math.cos(t)])
    cfg = IntegratorConfig(rtol=1.0e-9, atol=1.0e-12)
    up = EventSpec(lambda t, y: y[0], direction=1.0, name="up")
    res = integrate_adaptive(rhs, (0.1, 10.0), np.array([math.sin(0.1)]), cfg,
                             events=[up], method="RK45")
    assert res.first_event_time("up") == pytest.approx(2.0 * math.pi, rel=1.0e-6)
    down = EventSpec(lambda t, y: y[0], direction=-1.0, name="down")
    res = integrate_adaptive(rhs, (0.1, 10.0), np.array([math.sin(0.1)]), cfg,
                             events=[down], method="RK45")
    assert res.first_event_time("down") == pytest.approx(math.pi, rel=1.0e-6)


def test_missing_event_returns_none():
    ev = EventSpec(lambda t, y: y[0] + 10.0, name="never")
    res = integrate_adaptive(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                             IntegratorConfig(), events=[ev])
    assert res.first_event_time("never") is None
    assert res.first_event_time("unknown") is None


def test_solver_failure_reports_last_state():
    def blows_up(t, y):
        return np.array([y[0] ** 2])

    # finite-time blow-up at t = 1 for y0 = 1
    with pytest.raises(SolverError):
        integrate_adaptive(blows_up, (0.0, 2.0), np.array([1.0]), IntegratorConfig(),
                           method="RK45")


def test_each_stage_driver_fixes_its_method(monkeypatch):
    # freezing runs on LSODA without a Jacobian; drying on BDF with its exact one
    calls = []

    def recording(*args, **kwargs):
        calls.append((kwargs["method"], "jac" in kwargs))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_ivp", recording)

    def methods(run, *args, **kwargs):
        calls.clear()
        run(*args, **kwargs)
        return set(calls)

    p = default_parameters()
    assert p.freezing.visf_start_s is not None  # controlled nucleation after VISF
    assert methods(run_freezing, p.initial_vial_state(), p.freezing_system(),
                   p.integrator) == {("LSODA", False)}
    ps = load_scenario("stochastic_freezing").parameters()
    assert methods(run_freezing, ps.initial_vial_state(), ps.freezing_system(),
                   ps.integrator, rng=np.random.default_rng(3)) == {("LSODA", False)}
    for chamber in (None, p.chamber):
        assert methods(run_primary, p.primary_initial_T, p.primary, p.radiation,
                       p.geometry, chamber, n_z=11, config=p.integrator) == {("BDF", True)}
    assert methods(run_secondary, p.secondary_initial_T, np.full(11, 0.088), p.secondary,
                   p.radiation, p.secondary_conditions, p.geometry, n_z=11,
                   config=p.integrator) == {("BDF", True)}
