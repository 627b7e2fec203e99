"""The integrators and their step loop: tolerances, events, Jacobians,
knots and failures."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import RkDenseOutput
from scipy.optimize import brentq
from scipy.sparse import csr_matrix

from lyosim import (
    ConfigurationError,
    EventSpec,
    IntegratorConfig,
    Schedule,
    SolverError,
    analysis,
    default_parameters,
    drying_primary,
    freezing,
    integrate_adaptive,
    load_scenario,
    run_freezing,
    run_primary,
    run_secondary,
    solver,
)

EPS = np.finfo(float).eps

# stiff linear test system: y0' = -1000 y0, y1' = y0 - y1
_A = np.array([[-1000.0, 0.0], [1.0, -1.0]])


def _stiff_rhs(t, y):
    return _A @ y


def _stiff_jac(t, y):
    return _A


def _stiff_exact(t):
    # eigen-decomposition by hand
    y0 = np.exp(-1000.0 * t)
    y1 = (np.exp(-t) - np.exp(-1000.0 * t)) / 999.0
    return np.array([y0, y1])


def test_config_defaults_and_validation():
    c = IntegratorConfig()
    assert c.rtol == 1.0e-6 and c.atol == 1.0e-9
    for bad in (dict(rtol=0.0), dict(rtol=-1.0), dict(atol=0.0),
                dict(atol=np.array([1e-9, 0.0]))):
        with pytest.raises(ConfigurationError):
            IntegratorConfig(**bad)


@pytest.mark.parametrize("method, factor", [pytest.param("BDF", 10.0, id="bdf-10.0")])
def test_stiff_linear_system_matches_closed_form(method, factor):
    # 10*rtol for the default stiff method
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
    cfg = IntegratorConfig()
    res_bdf = integrate_adaptive(_stiff_rhs, (0.0, 50.0), y0, cfg)
    res_rk = solve_ivp(_stiff_rhs, (0.0, 50.0), y0, method="RK45", rtol=cfg.rtol,
                       atol=cfg.atol)
    assert res_bdf.nfev < res_rk.nfev / 5


def test_jac_forwarded_to_implicit_methods():
    calls = []

    def jac(t, y):
        calls.append(t)
        return _A

    y0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(rtol=1.0e-8, atol=1.0e-12)
    res = integrate_adaptive(_stiff_rhs, (0.0, 5.0), y0, cfg, jac=jac)
    assert np.allclose(res.sol(5.0), _stiff_exact(5.0), atol=1.0e-9)
    # a constant exact Jacobian is evaluated once and never by differences
    assert len(calls) == res.njev == 1
    assert res.nlu >= 1 and res.nfev > 0


def test_rejected_steps_are_counted(monkeypatch):
    y0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(rtol=1.0e-6, atol=1.0e-12)
    # from its own first step BDF never turns a step down on the stiff pair
    res = integrate_adaptive(_stiff_rhs, (0.0, 5.0), y0, cfg, jac=_stiff_jac)
    assert res.counters()["rejected"] == 0

    # started with a 1 s step, a thousand of its fast time constants, the
    # error test turns down the first attempts, and each attempt cuts the
    # step at most five-fold
    class TooLarge(solver.BDF):
        def _initial_step(self, f0):
            return 1.0

    monkeypatch.setitem(solver._METHODS, "BDF", TooLarge)
    res = integrate_adaptive(_stiff_rhs, (0.0, 5.0), y0, cfg, jac=_stiff_jac)
    first = res.t[1] - res.t[0]
    assert res.counters()["rejected"] >= math.log(1.0 / first) / math.log(5.0) > 1.0
    assert np.allclose(res.sol(5.0), _stiff_exact(5.0), atol=1.0e-8)


def test_pair_counts_rejected_steps():
    # the explicit pair on the stiff pair: its error test turns down the
    # steps that leave the stability region, as many as scipy's RK45 takes
    # beyond its accepted ones
    cfg = IntegratorConfig(rtol=1.0e-6, atol=1.0e-12)
    res = integrate_adaptive(_stiff_rhs, (0.0, 1.0), np.array([1.0, 0.0]), cfg,
                             method="RK45")
    ref = solve_ivp(_stiff_rhs, (0.0, 1.0), [1.0, 0.0], method="RK45", rtol=cfg.rtol,
                    atol=cfg.atol)
    rejected = res.counters()["rejected"]
    assert type(rejected) is int and rejected > 0
    assert res.nfev == ref.nfev == 2 + 6 * (res.counters()["steps"] + rejected)


@pytest.mark.parametrize("jac", [
    pytest.param(_A, id="matrix-not-callable"),
    pytest.param(lambda t, y: csr_matrix(_A), id="sparse"),
    pytest.param(lambda t, y: _A.tolist(), id="list"),
    pytest.param(lambda t, y: np.eye(3), id="wrong-shape"),
    pytest.param(lambda t, y: solver.CoupledTridiagonal(*[np.zeros(k) for k in (1, 2, 1, 2, 2, 2)]),
                 id="structured-wrong-shape"),
])
def test_bdf_rejects_a_jacobian_it_cannot_factor(jac):
    with pytest.raises(ConfigurationError):
        integrate_adaptive(_stiff_rhs, (0.0, 1.0), np.array([1.0, 0.0]), IntegratorConfig(),
                           jac=jac)


@pytest.mark.parametrize("options, where", [
    (dict(method="RK45", jac=_stiff_jac), "method='RK45' with jac"),
    (dict(method="BDF", knots=[0.5]), "method='BDF' with knots"),
    (dict(method="LSODA"), "method='LSODA' is not"),
], ids=["rk45-jac", "bdf-knots", "unknown-method"])
def test_options_that_do_not_match_the_method_are_refused(options, where):
    with pytest.raises(ConfigurationError, match=re.escape(where)):
        integrate_adaptive(_stiff_rhs, (0.0, 1.0), np.array([1.0, 0.0]), IntegratorConfig(),
                           **options)


def test_terminal_event_stops_at_known_time():
    # y' = -y from 1: crosses 0.5 at t = ln 2
    ev = EventSpec(lambda t, y: y[0] - 0.5, direction=-1.0, name="half_life")
    cfg = IntegratorConfig(rtol=1.0e-10, atol=1.0e-12)
    res = integrate_adaptive(lambda t, y: -y, (0.0, 10.0), np.array([1.0]), cfg,
                             events=[ev])
    assert res.event == "half_life"
    assert res.t[-1] == pytest.approx(math.log(2.0), rel=1.0e-8)
    assert res.y_last[0] == pytest.approx(0.5, abs=1.0e-9)


def test_event_localization_converges_with_rtol():
    # halving rtol must keep the located time within 0.1%
    ev = EventSpec(lambda t, y: y[0] - 0.25, direction=-1.0, name="quarter")
    times = []
    for rtol in (1.0e-6, 5.0e-7):
        cfg = IntegratorConfig(rtol=rtol, atol=1.0e-12)
        res = integrate_adaptive(lambda t, y: -y, (0.0, 10.0), np.array([1.0]),
                                 cfg, events=[ev])
        assert res.event == "quarter"
        times.append(res.t[-1])
    assert abs(times[1] - times[0]) / times[1] < 1.0e-3
    assert times[1] == pytest.approx(math.log(4.0), rel=1.0e-6)


def test_event_direction_filter():
    # y = sin t: rising zero at 2*pi, falling at pi
    rhs = lambda t, y: np.array([math.cos(t)])
    cfg = IntegratorConfig(rtol=1.0e-9, atol=1.0e-12)
    up = EventSpec(lambda t, y: y[0], direction=1.0, name="up")
    res = integrate_adaptive(rhs, (0.1, 10.0), np.array([math.sin(0.1)]), cfg,
                             events=[up], method="RK45")
    assert res.event == "up"
    assert res.t[-1] == pytest.approx(2.0 * math.pi, rel=1.0e-6)
    down = EventSpec(lambda t, y: y[0], direction=-1.0, name="down")
    res = integrate_adaptive(rhs, (0.1, 10.0), np.array([math.sin(0.1)]), cfg,
                             events=[down], method="RK45")
    assert res.event == "down"
    assert res.t[-1] == pytest.approx(math.pi, rel=1.0e-6)


def test_missing_event_returns_none():
    ev = EventSpec(lambda t, y: y[0] + 10.0, direction=-1.0, name="never")
    res = integrate_adaptive(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                             IntegratorConfig(), events=[ev])
    assert res.event is None and res.t[-1] == 1.0


def test_solver_failure_reports_last_state():
    def blows_up(t, y):
        return np.array([y[0] ** 2])

    def failure(method):
        with np.errstate(over="ignore"), pytest.raises(SolverError) as info:
            integrate_adaptive(blows_up, (0.0, 2.0), np.array([1.0]), IntegratorConfig(),
                               method=method)
        err = info.value
        return err, float(str(err).split("last state [")[1].split("]")[0])

    # finite-time blow-up at t = 1 for y0 = 1: each integrator gives up at
    # it (BDF just short of it, the explicit pair a step past it) at the last
    # mesh point of solve_ivp's failed run, and the message carries that
    # state
    for method in ("BDF", "RK45"):
        err, y_last = failure(method)
        ref = solve_ivp(blows_up, (0.0, 2.0), [1.0], method=method, rtol=1.0e-6, atol=1.0e-9)
        assert ref.status == -1
        assert 0.9 < err.t < 1.001 and err.t == ref.t[-1]
        assert y_last == pytest.approx(ref.y[0, -1], rel=1.0e-6) and y_last > 1.0e6


def test_bdf_refuses_a_start_it_cannot_step_from():
    def jac(t, y):
        return -np.eye(1)

    with pytest.raises(ConfigurationError):
        integrate_adaptive(lambda t, y: -y, (0.0, 1.0), np.array([np.nan]),
                           IntegratorConfig(), jac=jac)
    # a NaN derivative would make a NaN first step
    with pytest.raises(SolverError, match="not finite") as info:
        integrate_adaptive(lambda t, y: np.full(1, np.nan), (2.0, 3.0), np.array([1.0]),
                           IntegratorConfig(), jac=jac)
    assert info.value.t == 2.0


def test_each_stage_driver_fixes_its_method(monkeypatch, stage_settings):
    # freezing runs on the Dormand-Prince pair with the schedules' knots and
    # without a Jacobian; drying on BDF with its exact one in structured form
    calls = []

    def recording(name, cls):
        class Recorded(cls):
            def __init__(self, fun, t0, y0, t_bound, **kwargs):
                jac = kwargs.get("jac")
                calls.append((name, None if jac is None else type(jac(t0, y0)).__name__,
                              "knots" in kwargs))
                super().__init__(fun, t0, y0, t_bound, **kwargs)
        return Recorded

    monkeypatch.setattr(solver, "_METHODS",
                        {name: recording(name, cls) for name, cls in solver._METHODS.items()})

    def methods(run, *args, **kwargs):
        calls.clear()
        run(*args, **kwargs)
        return set(calls)

    p = default_parameters()
    assert p.freezing.visf_start_s is not None  # controlled nucleation after VISF
    freezing = stage_settings("freezing")
    assert methods(run_freezing, p.initial_vial_state(), p.freezing_system(),
                   p.integrator, **freezing) == {("RK45", None, True)}
    # constant schedules have no knots
    ps = load_scenario("stochastic_freezing").parameters()
    assert methods(run_freezing, ps.initial_vial_state(), ps.freezing_system(),
                   ps.integrator, rng=np.random.default_rng(3), **freezing) \
        == {("RK45", None, False)}
    for chamber in (None, p.chamber):
        assert methods(run_primary, p.primary_initial_T, p.primary, p.radiation,
                       p.geometry, chamber, config=p.integrator,
                       **stage_settings("primary", n_z=11)) \
            == {("BDF", "BorderedTridiagonal", False)}
    assert methods(run_secondary, p.secondary_initial_T, np.full(11, 0.088), p.secondary,
                   p.radiation, p.secondary_conditions, p.geometry, config=p.integrator,
                   **stage_settings("secondary", n_z=11)) \
        == {("BDF", "CoupledTridiagonal", False)}


# --- the step loop against solve_ivp -------------------------------------------

# damped oscillator x'' = -x - 0.1 x' as (x, v), with its exact Jacobian
_OSC = np.array([[0.0, 1.0], [-1.0, -0.1]])


def _osc_rhs(t, y):
    return _OSC @ y


def _osc_jac(t, y):
    return _OSC


def _as_solve_ivp_event(spec):
    def event(t, y):
        return spec.func(t, y)

    event.terminal, event.direction = True, spec.direction
    return event


def _matches_solve_ivp(rhs, t_span, y0, specs, method, jac=None):
    """Run integrate_adaptive and solve_ivp on one problem; assert the same
    mesh, event times, interpolant values, last state and counters."""
    cfg = IntegratorConfig(rtol=1.0e-7, atol=1.0e-10)
    res = integrate_adaptive(rhs, t_span, y0, cfg, events=specs, method=method, jac=jac)
    kwargs = {} if jac is None else {"jac": jac}
    ref = solve_ivp(rhs, t_span, y0, method=method, rtol=cfg.rtol, atol=cfg.atol,
                    dense_output=True, events=[_as_solve_ivp_event(s) for s in specs],
                    **kwargs)
    assert ref.status >= 0
    assert np.array_equal(res.t, ref.t)
    # the one event solve_ivp records is the one the result names, at t[-1]
    fired = [(spec.name, te) for spec, te in zip(specs, ref.t_events) if te.size]
    assert [name for name, _ in fired] == ([] if res.event is None else [res.event])
    for _, te in fired:
        assert te.tolist() == [res.t[-1]]
    samples = np.concatenate([np.linspace(ref.t[0], ref.t[-1], 37), ref.t])
    # a mesh point takes the interpolant of the step it starts, as solve_ivp
    # has it for BDF (alt_segment=True; for RK45 solve_ivp takes the step
    # that ends there)
    ref_sol = OdeSolution(ref.t, ref.sol.interpolants, alt_segment=True)
    assert np.array_equal(res.sol(samples), ref_sol(samples))
    assert np.array_equal(res.y_last, ref.y[:, -1])
    assert (res.nfev, res.njev, res.nlu) == (ref.nfev, ref.njev, ref.nlu)
    return res


_LOOP_METHODS = [pytest.param("BDF", _osc_jac, id="bdf-jac"),
                 pytest.param("RK45", None, id="rk45")]


def test_difference_jacobian_matches_solve_ivp():
    # without jac, BDF forms scipy's forward-difference Jacobian, also where
    # the van der Pol oscillator (mu = 10) makes it form it again and again
    _matches_solve_ivp(_stiff_rhs, (0.0, 5.0), np.array([1.0, 0.0]), [], "BDF")

    def van_der_pol(t, y):
        return np.array([y[1], 10.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])

    spec = EventSpec(lambda t, y: y[0] + 1.5, direction=-1.0, name="swing")
    res = _matches_solve_ivp(van_der_pol, (0.0, 30.0), np.array([2.0, 0.0]), [spec], "BDF")
    assert res.event == "swing" and res.njev > 1


@pytest.mark.parametrize("method, jac", _LOOP_METHODS)
@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_loop_matches_solve_ivp_on_direction_filters(method, jac, direction):
    # x starts at 1 moving up: it falls through zero first, then rises
    spec = EventSpec(lambda t, y: y[0], direction=direction, name="zero")
    res = _matches_solve_ivp(_osc_rhs, (0.0, 20.0), np.array([1.0, 0.5]), [spec],
                             method, jac)
    assert res.event == "zero"
    assert (res.y_last[1] > 0.0) == (direction > 0.0)


@pytest.mark.parametrize("method, jac", _LOOP_METHODS)
@pytest.mark.parametrize("guard_first", [False, True])
def test_loop_matches_solve_ivp_on_two_events_in_one_step(method, jac, guard_first):
    # a done/guard pair 1e-9 apart: both cross in one step, the earlier ends
    # the run whichever is listed first, and the other records no time
    done = EventSpec(lambda t, y: y[0] - 0.5, direction=-1.0, name="done")
    guard = EventSpec(lambda t, y: y[0] - 0.5 - 1.0e-9, direction=-1.0, name="guard")
    specs = [guard, done] if guard_first else [done, guard]
    res = _matches_solve_ivp(_osc_rhs, (0.0, 20.0), np.array([1.0, 0.0]), specs,
                             method, jac)
    assert res.event == "guard"
    # an exact tie goes to the event listed first
    twin = EventSpec(specs[0].func, direction=-1.0, name="twin")
    res = _matches_solve_ivp(_osc_rhs, (0.0, 20.0), np.array([1.0, 0.0]),
                             [specs[0], twin], method, jac)
    assert res.event == specs[0].name


@pytest.mark.parametrize("method, jac", _LOOP_METHODS)
def test_loop_matches_solve_ivp_on_event_at_zero_at_start(method, jac):
    # x' = v > 0 at t0 = 1: a rising event that reads zero at t0 fires there,
    # on a mesh of one zero-length segment; a falling one waits for the fall
    y0 = np.array([0.0, 1.0])
    rising = EventSpec(lambda t, y: y[0], direction=1.0, name="rising")
    res = _matches_solve_ivp(_osc_rhs, (1.0, 20.0), y0, [rising], method, jac)
    assert res.t.tolist() == [1.0, 1.0] and res.event == "rising"
    falling = EventSpec(lambda t, y: y[0], direction=-1.0, name="falling")
    res = _matches_solve_ivp(_osc_rhs, (1.0, 20.0), y0, [falling], method, jac)
    assert res.event == "falling" and res.t[-1] > 2.0


@pytest.mark.parametrize("method, jac", _LOOP_METHODS)
def test_loop_matches_solve_ivp_on_root_at_previous_mesh_point(method, jac):
    # (t - c)^2 with c a mesh point touches zero there falling (filtered
    # out), and the next step's rising root is c itself: the run ends at c
    # without a zero-length segment
    y0 = np.array([1.0, 0.0])
    free = integrate_adaptive(_osc_rhs, (0.0, 20.0), y0,
                              IntegratorConfig(rtol=1.0e-7, atol=1.0e-10),
                              method=method, jac=jac)
    c = free.t[5]
    spec = EventSpec(lambda t, y: (t - c) ** 2, direction=1.0, name="touch")
    res = _matches_solve_ivp(_osc_rhs, (0.0, 20.0), y0, [spec], method, jac)
    assert np.array_equal(res.t, free.t[:6])
    assert res.event == "touch" and res.t[-1] == c


def test_event_needs_a_direction():
    # every event watches one direction: rising (+1) or falling (-1)
    for direction in (0.0, 0.5, -2.0, math.nan):
        with pytest.raises(ConfigurationError, match="direction"):
            EventSpec(lambda t, y: y[0], direction=direction, name="zero")
    with pytest.raises(TypeError):
        EventSpec(lambda t, y: y[0], name="zero")


@pytest.mark.parametrize("method, jac", _LOOP_METHODS)
def test_an_empty_span_is_the_at_start_result(method, jac):
    # no step, one form: the mesh [t0], zero counts and no dense output,
    # without a call to rhs or jac (solve_ivp gives [t0, t0] after one RHS
    # call); the state keeps the sign of a -0.0
    calls = []

    def rhs(t, y):
        calls.append("rhs")
        return _osc_rhs(t, y)

    def counted_jac(t, y):
        calls.append("jac")
        return jac(t, y)

    options = {"jac": counted_jac} if method == "BDF" else {"knots": [0.5, 1.0, 2.0]}
    spec = EventSpec(lambda t, y: y[0], direction=-1.0, name="zero")
    res = integrate_adaptive(rhs, (1.0, 1.0), np.array([1.0, -0.0]), IntegratorConfig(),
                             events=[spec], method=method, **options)
    assert calls == []
    assert res.t.tolist() == [1.0] and res.event is None and res.sol is None
    assert res.y_last.tolist() == [1.0, 0.0] and np.signbit(res.y_last[1])
    counters = res.counters()
    assert math.isnan(counters.pop("min_step_s"))
    assert counters == {"steps": 0, "rejected": 0, "nfev": 0, "njev": 0, "nlu": 0,
                        "wall_s": 0.0}
    ts, ys = res.resample(50)
    assert ts.tolist() == [1.0] and ys.shape == (2, 1) and np.signbit(ys[1, 0])
    # a backward span is refused, and so is an option the method does not
    # take, also on an empty span
    with pytest.raises(ConfigurationError, match="backwards"):
        integrate_adaptive(rhs, (1.0, 0.5), np.array([1.0, 0.0]), method=method, **options)
    wrong = {"knots": [0.5]} if method == "BDF" else {"jac": _osc_jac}
    with pytest.raises(ConfigurationError, match="not an allowed combination"):
        integrate_adaptive(rhs, (1.0, 1.0), np.array([1.0, 0.0]), method=method, **wrong)
    # the integrator itself has no step to take on an empty span
    with pytest.raises(ConfigurationError, match="no step to take"):
        solver._METHODS[method](rhs, 1.0, np.array([1.0, 0.0]), 1.0, rtol=1.0e-6,
                                atol=1.0e-9, **options)
    assert calls == []


def test_counters_report_smallest_step_and_wall_time():
    y0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(rtol=1.0e-7, atol=1.0e-10)
    free = integrate_adaptive(_osc_rhs, (0.0, 20.0), y0, cfg)
    assert free.min_step_s == np.min(np.diff(free.t))
    # the segment an event cuts short is not a step: the evented run took
    # the free run's steps up to and including the one the event fell in
    c = free.t[5] + 1.0e-3 * (free.t[6] - free.t[5])
    spec = EventSpec(lambda t, y: t - c, direction=1.0, name="soon")
    res = integrate_adaptive(_osc_rhs, (0.0, 20.0), y0, cfg, events=[spec])
    n = res.t.shape[0] - 1
    assert n == 6 and np.array_equal(res.t[:-1], free.t[:n])
    assert res.min_step_s == np.min(np.diff(free.t)[:n]) > res.t[-1] - res.t[-2]
    counters = res.counters()
    assert set(counters) == {"steps", "rejected", "nfev", "njev", "nlu", "min_step_s", "wall_s"}
    assert counters["steps"] == n and 0.0 < counters["wall_s"] < 1.0


def test_resample_spans_the_mesh_endpoints():
    cfg = IntegratorConfig(rtol=1.0e-7, atol=1.0e-10)
    res = integrate_adaptive(_osc_rhs, (0.5, 20.0), np.array([1.0, 0.5]), cfg)
    ts, ys = res.resample(7)
    assert ts[0] == 0.5 and ts[-1] == res.t[-1] == 20.0
    assert np.array_equal(ts, np.linspace(0.5, 20.0, 7))
    assert ys.shape == (2, 7) and np.array_equal(ys, res.sol(ts))
    # the interpolant meets the last state up to rounding
    assert np.allclose(ys[:, -1], res.y_last, rtol=1.0e-12, atol=0.0)


def test_resample_of_an_empty_span_is_one_point():
    # a rising event that reads zero at t0 ends the run on a zero-length span
    rising = EventSpec(lambda t, y: y[0], direction=1.0, name="rising")
    res = integrate_adaptive(_osc_rhs, (1.0, 20.0), np.array([0.0, 1.0]),
                             IntegratorConfig(), events=[rising])
    ts, ys = res.resample(50)
    assert ts.tolist() == [1.0] and ys.shape == (2, 1)
    # one state component still comes back two-dimensional
    res = integrate_adaptive(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                             IntegratorConfig())
    ts, ys = res.resample(3)
    assert ys.shape == (1, 3) and ys[0, 0] == 1.0


# --- knots ----------------------------------------------------------------------

def test_pair_steps_end_on_knots():
    # y' = r(t) for a ramp r with kinks at 3 and 3.5: every knot inside the
    # span is a mesh point, knots outside it are ignored, and the result
    # integrates the ramp to rounding
    ramp = Schedule(((3.0, 0.0), (3.5, 1.0)))
    knots = [-1.0, 3.0, 3.5, 40.0]
    cfg = IntegratorConfig(rtol=1.0e-6, atol=1.0e-9)
    res = integrate_adaptive(lambda t, y: (ramp(t),), (0.0, 10.0), np.zeros(1), cfg,
                             method="RK45", knots=knots)
    assert {3.0, 3.5} <= set(res.t.tolist()) and res.t[-1] == 10.0
    assert res.y_last[0] == pytest.approx(0.25 + 6.5, rel=1.0e-12)
    # without knots the pair takes the steps of scipy's RK45
    free = integrate_adaptive(lambda t, y: (ramp(t),), (0.0, 10.0), np.zeros(1), cfg,
                              method="RK45")
    ref = solve_ivp(lambda t, y: [ramp(t)], (0.0, 10.0), [0.0], method="RK45",
                    rtol=cfg.rtol, atol=cfg.atol)
    assert np.array_equal(free.t, ref.t) and free.nfev == ref.nfev


def test_backward_span_is_refused():
    with pytest.raises(ConfigurationError, match="backwards"):
        integrate_adaptive(_stiff_rhs, (1.0, 0.0), np.array([1.0, 0.0]), IntegratorConfig())


# --- the ports of scipy's brentq and OdeSolution --------------------------------

def _checked_brentq(monkeypatch, module, calls):
    """Replace ``module._brentq`` by a wrapper that asserts scipy's brentq
    returns the same root, to the last bit, and records each call."""
    original = module._brentq

    def both(f, a, b, xtol, rtol, maxiter=100):
        x = original(f, a, b, xtol, rtol, maxiter)
        assert x == brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        calls.append(x)
        return x

    monkeypatch.setattr(module, "_brentq", both)


@pytest.mark.parametrize("name", ["defaults", "stochastic_freezing", "visf_study"])
def test_brentq_matches_scipy_on_freezing_roots(monkeypatch, name):
    # the stage events on the pair's dense output (nucleation temperature,
    # Lambda = E, target ice, target band) and the nucleation jump's residual
    events, jumps = [], []
    _checked_brentq(monkeypatch, solver, events)
    _checked_brentq(monkeypatch, freezing, jumps)
    p = load_scenario(name).parameters()
    run_freezing(p.initial_vial_state(), p.freezing_system(), p.integrator,
                 samples_per_stage=p.samples_per_stage, rng=np.random.default_rng(5))
    assert len(events) >= 3 and len(jumps) == 1


def test_brentq_matches_scipy_on_cylinder_eigenvalues(monkeypatch):
    calls = []
    _checked_brentq(monkeypatch, analysis, calls)
    for Bi in (1.0e-3, 0.04, 0.35, 2.0, 50.0):
        analysis.cylinder_eigenvalues(Bi, 6)
    assert len(calls) == 30


def test_brentq_end_points_and_errors():
    def line(x):
        return x - 0.25

    # a root at either end point is returned as it is
    for a, b in ((0.25, 1.0), (-1.0, 0.25)):
        assert solver._brentq(line, a, b, 1e-12, 4 * EPS) == brentq(line, a, b) == 0.25
    # no sign change: the ValueError that _root relies on, as scipy's
    with pytest.raises(ValueError, match="different signs"):
        brentq(line, 0.5, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        solver._brentq(line, 0.5, 1.0, 1e-12, 4 * EPS)
    with pytest.raises(ValueError, match="NaN"):
        solver._brentq(lambda x: np.nan if x > 0.5 else -1.0, 0.0, 1.0, 1e-12, 4 * EPS)


def test_brentq_iteration_limit():
    def f(x):
        return math.exp(x) - 2.0

    root, info = brentq(f, 0.0, 3.0, xtol=1e-15, full_output=True)
    n = info.iterations
    assert solver._brentq(f, 0.0, 3.0, 1e-15, 8.881784197001252e-16, maxiter=n) == root
    # one iteration short: scipy reports no convergence at the iterate where
    # _brentq raises
    last, info = brentq(f, 0.0, 3.0, xtol=1e-15, maxiter=n - 1, full_output=True,
                        disp=False)
    assert not info.converged
    with pytest.raises(SolverError, match="did not converge") as err:
        solver._brentq(f, 0.0, 3.0, 1e-15, 8.881784197001252e-16, maxiter=n - 1)
    assert float(str(err.value).split("last iterate ")[1]) == last


def test_dense_solution_matches_ode_solution(monkeypatch, stage_settings):
    # a primary-drying run's BDF interpolants, looked up as OdeSolution does
    # with alt_segment=True, at unsorted, repeated and mesh-point times
    results = []

    def recording(*args, **kwargs):
        results.append(integrate_adaptive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(drying_primary, "integrate_adaptive", recording)
    p = default_parameters()
    run_primary(p.primary_initial_T, p.primary, p.radiation, p.geometry, config=p.integrator,
                **stage_settings("primary", n_z=11))
    res, = results
    ref = OdeSolution(res.t, res.sol.interpolants, alt_segment=True)
    rng = np.random.default_rng(0)
    inside = rng.uniform(res.t[0], res.t[-1], 300)
    times = np.concatenate([inside, inside[:40], res.t, rng.permutation(res.t),
                            [res.t[0] - 1.0, res.t[-1] + 1.0]])
    rng.shuffle(times)
    got, want = res.sol(times), ref(times)
    # the same values in the same memory layout, which decides the rounding
    # of the drivers' later dot products
    assert np.array_equal(got, want) and got.strides == want.strides
    for t in (res.t[0], res.t[7], inside[3], res.t[-1]):
        assert np.array_equal(res.sol(t), ref(t))


def test_pair_segments_match_rk_dense_output(monkeypatch):
    # a seeded stochastic_freezing vial: every Dormand-Prince segment of its
    # three integrations is scipy's RkDenseOutput of the same step, to the
    # last bit, at scalar times and at unsorted array times
    results = []

    def recording(*args, **kwargs):
        results.append(integrate_adaptive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(freezing, "integrate_adaptive", recording)
    p = load_scenario("stochastic_freezing").parameters()
    run_freezing(p.initial_vial_state(), p.freezing_system(), p.integrator,
                 samples_per_stage=p.samples_per_stage, rng=np.random.default_rng(5))
    assert len(results) == 3
    rng = np.random.default_rng(1)
    for res in results:
        refs = []
        last = len(res.sol.interpolants) - 1
        for i, seg in enumerate(res.sol.interpolants):
            t_old, h = seg.shift[0], seg.denom[0]
            assert (seg.shift == t_old).all() and (seg.denom == h).all() and seg.scale == h
            # the step ends on the next mesh point, or past it in the last
            # step, which the event cuts short
            assert t_old == res.t[i]
            assert t_old + h == res.t[i + 1] if i < last else t_old + h >= res.t[i + 1]
            ref = RkDenseOutput(t_old, t_old + h, seg.base, seg.M)
            assert ref.h == h
            refs.append(ref)
            for t in (t_old, t_old + 0.3 * h, t_old + h, rng.uniform(t_old, t_old + h)):
                assert np.array_equal(seg(t), ref(t))
        ode = OdeSolution(res.t, refs, alt_segment=True)
        times = np.concatenate([rng.uniform(res.t[0], res.t[-1], 60), res.t])
        rng.shuffle(times)
        got, want = res.sol(times), ode(times)
        assert np.array_equal(got, want) and got.strides == want.strides
        for t in (res.t[0], times[0], res.t[-1]):
            assert np.array_equal(res.sol(t), ode(t))
