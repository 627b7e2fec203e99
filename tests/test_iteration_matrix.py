"""Structured BDF iteration matrices: the drying Jacobians factor I - cJ
themselves, exactly as a dense solve would and with the dense steps."""

from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lyosim import (
    ChamberModel,
    DesorptionKinetics,
    DryingConditions,
    DryingParams,
    IntegratorConfig,
    RadiationSpec,
    Schedule,
    SolverError,
    VialGeometry,
    default_parameters,
    integrate_adaptive,
    run_primary,
    run_secondary,
)
from lyosim import drying_primary, drying_secondary
from lyosim.solver import BDF, BorderedTridiagonal, CoupledTridiagonal

_GEOM = VialGeometry(d=0.024, H=7.2124292981419705e-3)


class _Captured(Exception):
    pass


def _captured_call(module, run):
    """The arguments that the stage driver ``run()`` of ``module`` hands to
    the integrator, without integrating."""
    seen = {}

    def fake(rhs, t_span, y0, config, *, events=None, method="BDF", jac=None):
        seen.update(rhs=rhs, t_span=t_span, y0=y0, config=config, events=events, jac=jac)
        raise _Captured

    with mock.patch.object(module, "integrate_adaptive", fake), \
            pytest.raises(_Captured):
        run()
    return seen


def _primary_jacobian(case, chamber, n_z):
    """The primary-drying Jacobian at the states of the central-difference
    Jacobian tests, with a fixed pressure, a chamber under its setpoint
    clamp or an overloaded chamber."""
    dp = DryingParams(shelf_temperature=Schedule.constant(270.0),
                      wall_temperature=Schedule.constant(265.0),
                      upper_temperature=Schedule.constant(265.0))
    ch = {"fixed": None, "setpoint_clamp": ChamberModel(j_w_max=1.0),
          "overload": ChamberModel()}[chamber]
    _, jac = drying_primary._make_core(dp, RadiationSpec(), _GEOM, n_z, ch, t0=0.0)
    T = np.linspace(240.0, 255.0, n_z)
    S = {"gap_floor": _GEOM.H * (1.0 - 0.25e-3), "behind_top": -1.0e-4}.get(case, 0.4 * _GEOM.H)
    if case == "cold_front":
        T[0] = 200.0
    y = np.append(T, S)
    if ch is not None:
        y = np.append(y, 2.5 if chamber == "setpoint_clamp" else 10.0)
    return jac(1000.0, y)


def _secondary_jacobian(n_z):
    cond = DryingConditions(shelf_temperature=Schedule.constant(300.0),
                            wall_temperature=Schedule.constant(290.0),
                            upper_temperature=Schedule.constant(285.0))
    _, jac = drying_secondary._make_core(DesorptionKinetics(c_eq=0.005), RadiationSpec(), cond,
                                         _GEOM, n_z, t0=0.0)
    rng = np.random.default_rng(7)
    return jac(500.0, np.concatenate([275.0 + 20.0 * rng.random(n_z),
                                      0.02 + 0.06 * rng.random(n_z)]))


def _assert_solves_as_dense(J, c, seed, forward=True):
    """``J.factor(c).solve(b)`` is backward stable (its normwise backward
    error within 1e-14, where LAPACK's dense LU reaches 3e-16 on these
    matrices) and, with ``forward``, within 1e-10 relative of the dense
    solve."""
    b = np.random.default_rng(seed).standard_normal(J.shape[0])
    M = np.eye(J.shape[0]) - c * J.toarray()
    x = J.factor(c).solve(b)
    norm = np.linalg.norm
    assert norm(b - M @ x, np.inf) \
        <= 1.0e-14 * (norm(M, np.inf) * norm(x, np.inf) + norm(b, np.inf))
    if forward:
        ref = np.linalg.solve(M, b)
        assert norm(x - ref) <= 1.0e-10 * norm(ref)


_N_Z = st.integers(3, 201)
_C = st.floats(1.0e-3, 1.0e4)
_SEED = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("chamber", ["fixed", "setpoint_clamp", "overload"])
@pytest.mark.parametrize("case", ["mid_drying", "gap_floor", "cold_front", "behind_top"])
@settings(max_examples=25, deadline=None)
@given(n_z=_N_Z, c=_C, seed=_SEED)
def test_primary_factor_solves_as_dense(case, chamber, n_z, c, seed):
    J = _primary_jacobian(case, chamber, n_z)
    assert isinstance(J, BorderedTridiagonal)
    # under the gap floor the 1/gap^2 diffusion makes I - cJ so ill
    # conditioned (up to 1e18) that no double-precision solve, the dense
    # one included, is within 1e-10 of the exact solution: the dense solve
    # is off by up to 1.4e-9 from a long-double refined one.  The backward
    # error still holds there.
    _assert_solves_as_dense(J, c, seed, forward=case != "gap_floor")


@settings(max_examples=50, deadline=None)
@given(n_z=_N_Z, c=_C, seed=_SEED)
def test_secondary_factor_solves_as_dense(n_z, c, seed):
    J = _secondary_jacobian(n_z)
    assert isinstance(J, CoupledTridiagonal)
    _assert_solves_as_dense(J, c, seed)


# --- singular iteration matrices ----------------------------------------------

def test_singular_tridiagonal_block_raises_solver_error():
    # I - cJ = [[1, 1, 0], [1, 1, 0], [0, 0, 1]] in the inner states, which
    # eliminates to a zero pivot in the second row
    c = 2.0
    J = BorderedTridiagonal(lower=np.array([-0.5, 0.0]), diag=np.zeros(3),
                            upper=np.array([-0.5, 0.0]), border=[3],
                            cols=np.array([[0.0], [0.0], [0.0], [0.1]]),
                            rows=np.zeros((1, 3)))
    assert np.linalg.matrix_rank(np.eye(4) - c * J.toarray()) == 3
    with pytest.raises(SolverError, match="singular iteration matrix"):
        J.factor(c)
    J.factor(1.0).solve(np.ones(4))  # regular at another c


def test_singular_border_block_raises_solver_error():
    # the inner block is I; the border state's Schur complement is
    # 1 - (c * 1.0) * (c * 1.0) = 0 at c = 1
    J = BorderedTridiagonal(lower=np.zeros(1), diag=np.zeros(2), upper=np.zeros(1),
                            border=[0], cols=np.array([[0.0], [1.0], [0.0]]),
                            rows=np.array([[1.0, 0.0]]))
    assert np.linalg.matrix_rank(np.eye(3) - J.toarray()) == 2
    with pytest.raises(SolverError, match="border block"):
        J.factor(1.0)


def test_singular_coupled_blocks_raise_solver_error():
    m = 3
    # a zero pivot in the diagonal block at c = 1 / g
    J = CoupledTridiagonal(np.zeros(m - 1), np.zeros(m), np.zeros(m - 1),
                           np.zeros(m), np.zeros(m), np.array([0.0, 0.25, 0.0]))
    with pytest.raises(SolverError, match="state 4"):
        J.factor(4.0)
    # a regular diagonal block whose elimination leaves a singular
    # tridiagonal: 1 - c * diag - c^2 e f / g = 0 in the first row
    J = CoupledTridiagonal(np.zeros(m - 1), np.array([0.5, 0.0, 0.0]), np.zeros(m - 1),
                           np.array([0.5, 0.0, 0.0]), np.ones(m), np.zeros(m))
    assert np.linalg.matrix_rank(np.eye(2 * m) - J.toarray()) == 2 * m - 1
    with pytest.raises(SolverError, match="tridiagonal row 0"):
        J.factor(1.0)


def test_singular_dense_matrix_raises_solver_error_at_the_start_time():
    # I - c (I / c) = 0: the dense LU meets a zero pivot in its first row
    c = 0.5
    bdf = BDF(lambda t, y: -y, 3.0, np.ones(2), 10.0, rtol=1.0e-6, atol=1.0e-9,
              jac=lambda t, y: -np.eye(2))
    with pytest.raises(SolverError, match="zero pivot in row 0") as info:
        bdf._factor(np.eye(2) / c, c)
    assert info.value.t == 3.0


def test_singular_factor_in_a_step_reports_the_step_time():
    class Singular(CoupledTridiagonal):
        def factor(self, c):  # every iteration matrix has the zero pivot
            return super().factor(1.0 / self.g[0])

    J = Singular(np.zeros(1), -np.ones(2), np.zeros(1), np.zeros(2), np.zeros(2),
                 -np.ones(2))
    with pytest.raises(SolverError, match="singular iteration matrix") as info:
        integrate_adaptive(lambda t, y: -y, (3.0, 10.0), np.ones(4), IntegratorConfig(),
                           jac=lambda t, y: J)
    assert info.value.t == 3.0


# --- the same steps as a dense Jacobian ------------------------------------------

def _dense_run(monkeypatch, module, run):
    """``run()`` with the stage's structured Jacobian replaced by its dense
    matrix, which scipy's BDF factors itself."""
    def dense(rhs, t_span, y0, config, *, events=None, method="BDF", jac=None):
        return integrate_adaptive(rhs, t_span, y0, config, events=events, method=method,
                                  jac=lambda t, y: jac(t, y).toarray())

    with monkeypatch.context() as m:
        m.setattr(module, "integrate_adaptive", dense)
        return run()


@pytest.mark.parametrize("stage", ["fixed", "chamber", "secondary"])
def test_drying_takes_the_steps_of_the_dense_jacobian(monkeypatch, stage_settings, stage):
    p = default_parameters()
    if stage == "secondary":
        module = drying_secondary

        def run():
            return run_secondary(p.secondary_initial_T, p.bound_water_profile(),
                                 p.secondary, p.radiation, p.secondary_conditions,
                                 p.geometry, config=p.integrator,
                                 **stage_settings("secondary"))
    else:
        module = drying_primary
        chamber = p.chamber if stage == "chamber" else None

        def run():
            return run_primary(p.primary_initial_T, p.primary, p.radiation, p.geometry,
                               chamber, config=p.integrator, **stage_settings("primary"))

    structured, dense = run(), _dense_run(monkeypatch, module, run)
    counts = ("steps", "nfev", "njev", "nlu")
    assert [structured.meta["solver"][k] for k in counts] \
        == [dense.meta["solver"][k] for k in counts]
    assert structured.meta["duration_s"] == pytest.approx(dense.meta["duration_s"],
                                                          rel=1.0e-9)


# --- the steps of scipy's BDF ---------------------------------------------------

def _defaults_stage(stage, stage_settings):
    """``(module, run)``: the ``defaults`` drying stage, primary drying at a
    fixed pressure or under the chamber, or secondary drying, at n_z = 51."""
    p = default_parameters()
    if stage == "secondary":
        return drying_secondary, lambda: run_secondary(
            p.secondary_initial_T, p.bound_water_profile(), p.secondary, p.radiation,
            p.secondary_conditions, p.geometry, config=p.integrator,
            **stage_settings("secondary"))
    return drying_primary, lambda: run_primary(
        p.primary_initial_T, p.primary, p.radiation, p.geometry,
        p.chamber if stage == "chamber" else None, config=p.integrator,
        **stage_settings("primary"))


@pytest.mark.parametrize("stage", ["fixed", "chamber", "secondary"])
def test_dense_jacobian_takes_the_mesh_of_scipys_bdf(stage_settings, stage):
    # lyosim's BDF on the dense Jacobian: solve_ivp's mesh and counts, to
    # the last bit
    call = _captured_call(*_defaults_stage(stage, stage_settings))
    rhs, t_span, y0, config = call["rhs"], call["t_span"], call["y0"], call["config"]

    def dense(t, y):
        return call["jac"](t, y).toarray()

    def terminal(spec):
        def event(t, y):
            return spec.func(t, y)

        event.terminal, event.direction = True, spec.direction
        return event

    res = integrate_adaptive(rhs, t_span, y0, config, events=call["events"], jac=dense)
    ref = solve_ivp(rhs, t_span, y0, method="BDF", rtol=config.rtol, atol=config.atol,
                    jac=dense, events=[terminal(spec) for spec in call["events"] or ()])
    assert ref.status == 1 and res.event is not None
    assert np.array_equal(res.t, ref.t)
    assert (res.nfev, res.njev, res.nlu) == (ref.nfev, ref.njev, ref.nlu)


@pytest.mark.parametrize("stage", ["fixed", "chamber", "secondary"])
def test_drying_runs_without_scipys_bdf(monkeypatch, stage_settings, stage):
    def refuse(self, *args, **kwargs):
        raise AssertionError("scipy's BDF was constructed")

    monkeypatch.setattr(scipy.integrate.BDF, "__init__", refuse)
    _, run = _defaults_stage(stage, stage_settings)
    counts = run().meta["solver"]
    assert counts["steps"] > 0 and counts["rejected"] >= 0
