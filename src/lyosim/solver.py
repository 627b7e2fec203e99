"""Adaptive integration to one terminal event.

:func:`integrate_adaptive` runs its own step loop over one of scipy's
``OdeSolver`` classes, named by the calling stage driver.  The distributed
drying stages are stiff (thermal relaxation times from seconds to hours in
one system, and a moving-front transform that becomes singular near
completion), so they run on the default variable-order BDF family with
their exact Jacobians, built in closed form as sparse CSC matrices whose
fixed structure :class:`CscPattern` builds once per stage.  The lumped
freezing stages are not stiff and run on LSODA, whose compiled Adams steps
switch to BDF by themselves where a problem turns stiff.

After each accepted step the loop keeps the step's dense output and checks
the terminal events (:class:`EventSpec`) for a zero crossing in their
direction; the earliest crossing, located on the dense output, ends the
integration.  Steps, root search, mesh and interpolant are those of
``scipy.integrate.solve_ivp`` with ``dense_output=True`` and terminal
events, so wherever ``solve_ivp`` completes the results agree with it to
the last bit.  Two cases where it does not complete end here instead: a
crossing that the step's end states show but the interpolant misses by
rounding (LSODA's interpolant at the step start) is taken at the nearer
end, and LSODA's zero-length steps past a blow-up raise
:class:`SolverError`.

Every stage driver ends, resamples and packages through the
:class:`IntegrationResult`: its ``event`` names the terminal event that
ended the integration (``None`` at the end of ``t_span``, which a driver
reports as a timeout), the event's time is the last mesh point ``t[-1]``,
and :meth:`IntegrationResult.resample` evaluates the dense output on the
driver's uniform sample grid.  The loop keeps the last state only, not a
mesh of every state.  The result reports the solver's step, RHS, Jacobian
and LU counts, its smallest step and its wall time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import BDF, LSODA, OdeSolution
from scipy.optimize import brentq
from scipy.sparse import csc_matrix

from .errors import ConfigurationError, SolverError

__all__ = ["IntegratorConfig", "EventSpec", "IntegrationResult", "CscPattern",
           "integrate_adaptive"]

log = logging.getLogger(__name__)

_METHODS = {cls.__name__: cls for cls in (BDF, LSODA)}
# the root-search tolerance of solve_ivp
_ROOT_TOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step bound of one integration.

    ``atol`` may be a scalar or a per-component array; ``max_step`` (s)
    bounds every step, for schedules with ramps shorter than the steps the
    tolerances would allow.  The method is not configured: each stage
    driver passes its own to :func:`integrate_adaptive`.
    """

    rtol: float = 1.0e-6
    atol: float | np.ndarray = 1.0e-9
    max_step: float = np.inf

    def __post_init__(self) -> None:
        if self.rtol <= 0.0:
            raise ConfigurationError("rtol must be positive")
        if np.any(np.asarray(self.atol) <= 0.0):
            raise ConfigurationError("atol must be positive")
        if self.max_step <= 0.0:
            raise ConfigurationError("max_step must be positive")


@dataclass
class EventSpec:
    """Terminal scalar event g(t, y) = 0: the integration stops at its
    first zero crossing.

    ``direction`` > 0 triggers only on rising zero crossings, < 0 only on
    falling ones, 0 on any.  ``name`` labels the event in results, logs
    and errors.
    """

    func: Callable[[float, np.ndarray], float]
    direction: float = 0.0
    name: str = "event"

    def crossed(self, g: float, g_new: float) -> bool:
        """Whether the values g at the start and g_new at the end of a step
        bracket a zero crossing this event watches (a value at zero counts
        as either side)."""
        up = g <= 0.0 <= g_new
        down = g >= 0.0 >= g_new
        if self.direction > 0:
            return up
        if self.direction < 0:
            return down
        return up or down


@dataclass
class IntegrationResult:
    """Integration outcome: accepted-step mesh ``t``, last state, dense
    interpolant ``sol``, the ending event and the solver's counters.

    ``event`` is the name of the terminal event that ended the
    integration, at time ``t[-1]``, or ``None`` when it reached the end of
    ``t_span``.
    """

    t: np.ndarray
    y_last: np.ndarray  # state at t[-1]
    sol: OdeSolution
    event: str | None = None
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    min_step_s: float = 0.0
    wall_s: float = 0.0

    def counters(self) -> dict[str, int | float]:
        """Accepted steps (the mesh ``t``), the RHS, Jacobian and LU
        counts, the smallest step the solver took and the wall time of the
        integration."""
        return {"steps": int(self.t.shape[0] - 1), "nfev": int(self.nfev),
                "njev": int(self.njev), "nlu": int(self.nlu),
                "min_step_s": float(self.min_step_s), "wall_s": float(self.wall_s)}

    def resample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` uniform times over [t[0], t[-1]] (only t[0] for an empty
        span) and the dense output there, shape (n_states, n_times)."""
        t0, t1 = self.t[0], self.t[-1]
        ts = self.t[:1] if t1 == t0 else np.linspace(t0, t1, n)
        return ts, np.atleast_2d(self.sol(ts))


class CscPattern:
    """Fixed sparsity structure of a Jacobian, in CSC form.

    ``rows`` and ``cols`` list the structurally nonzero entries, each
    (row, col) pair once, in the order the caller produces their values;
    :meth:`matrix` takes the values in that order and returns the CSC
    matrix.  The index arrays are built here once and shared by every
    matrix, so each Jacobian evaluation only fills ``data``.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int) -> None:
        rows = np.asarray(rows, dtype=np.int32)
        cols = np.asarray(cols, dtype=np.int32)
        self._order = np.lexsort((rows, cols))
        self.indices = rows[self._order]
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])
        self.shape = (n, n)

    def matrix(self, values: np.ndarray) -> csc_matrix:
        return csc_matrix((values[self._order], self.indices, self.indptr),
                          shape=self.shape)


def integrate_adaptive(rhs: Callable[[float, np.ndarray], np.ndarray],
                       t_span: tuple[float, float],
                       y0: np.ndarray,
                       config: IntegratorConfig = IntegratorConfig(), *,
                       events: Sequence[EventSpec] | None = None,
                       method: str = "BDF",
                       jac: Callable[[float, np.ndarray], object] | None = None
                       ) -> IntegrationResult:
    """Integrate ``y' = rhs(t, y)`` over ``t_span`` with dense output.

    ``method`` names a scipy ``OdeSolver`` class: ``BDF`` (the default)
    or ``LSODA``.  ``jac(t, y)`` is the exact Jacobian d rhs / dy, dense
    or sparse.  The integration stops at the earliest zero crossing of any
    of ``events``, which the result's ``event`` names, or at the end of
    ``t_span``.  Returns an :class:`IntegrationResult`; raises :class:`SolverError` when the
    integrator fails (the error reports the last reached time and state).
    """
    wall0 = perf_counter()
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    t0, tf = map(float, t_span)
    kwargs = {} if jac is None else {"jac": jac}
    solver = _METHODS[method](rhs, t0, y0, tf, rtol=config.rtol, atol=config.atol,
                              max_step=config.max_step, **kwargs)
    events = list(events or ())
    g = [ev.func(t0, y0) for ev in events]
    ts = [t0]
    y_last = y0
    interpolants = []
    min_step = np.inf
    event: str | None = None
    while event is None and solver.status == "running":
        message = solver.step()
        t_old, t, y = solver.t_old, solver.t, solver.y
        # past a blow-up LSODA returns zero-length steps without failing
        stalled = t == t_old and solver.status == "running"
        if solver.status == "failed" or stalled:
            raise SolverError(f"integration failed: {message or 'zero-length step'}; "
                              f"last state {np.array2string(y_last, precision=6)}", t=ts[-1])
        min_step = min(min_step, t - t_old)
        sol = solver.dense_output()
        interpolants.append(sol)
        if events:
            g_new = [ev.func(t, y) for ev in events]
            # every bracketed root, the earliest ends the integration (ties
            # go to the first listed event)
            roots = [(_root(ev.func, sol, t_old, t), i) for i, ev in enumerate(events)
                     if ev.crossed(g[i], g_new[i])]
            if roots:
                t_hit, i = min(roots)
                event = events[i].name
                t, y = t_hit, sol(t_hit)
            g = g_new
        if len(ts) > 1 and t == ts[-1]:
            # a root at the previous mesh point adds no zero-length segment
            interpolants.pop()
        else:
            ts.append(t)
            y_last = y
    ts_arr = np.array(ts)
    log.info("%s integration over [%.6g, %.6g] s ended at t = %.6g s by %s",
             method, t0, tf, ts_arr[-1], event or "horizon")
    return IntegrationResult(
        t=ts_arr,
        y_last=y_last,
        sol=OdeSolution(ts_arr, interpolants, alt_segment=True),
        event=event,
        nfev=solver.nfev,
        njev=solver.njev,
        nlu=solver.nlu,
        min_step_s=min_step,
        wall_s=perf_counter() - wall0,
    )


def _root(func: Callable[[float, np.ndarray], float], sol: Callable[[float], np.ndarray],
          t_old: float, t: float) -> float:
    """Zero of ``func(t, sol(t))`` in one step [t_old, t] whose end states
    bracket it."""
    def f(s: float) -> float:
        return func(s, sol(s))

    try:
        return brentq(f, t_old, t, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
    except ValueError:
        f_old, f_new = f(t_old), f(t)
        if f_old * f_new <= 0.0:  # not the bracket: the event's own error
            raise
        # the end states touch zero where the interpolant misses it by
        # rounding (LSODA's at t_old): the root is the end nearer zero
        return t_old if abs(f_old) <= abs(f_new) else t
