"""Adaptive integration to one terminal event.

:func:`integrate_adaptive` runs its own step loop over one of scipy's
``OdeSolver`` classes, named by the calling stage driver.  The distributed
drying stages are stiff (thermal relaxation times from seconds to hours in
one system, and a moving-front transform that becomes singular near
completion), so they run on the default variable-order BDF family with
their exact Jacobians, built in closed form in a structured form that
factors the BDF iteration matrix I - cJ in O(n) (Shampine & Reichelt,
SIAM J. Sci. Comput., 1997): a tridiagonal block with a few border states
(:class:`BorderedTridiagonal`, primary drying) or a tridiagonal block
coupled diagonally to a diagonal block (:class:`CoupledTridiagonal`,
secondary drying).  Both factor with LAPACK's tridiagonal ``dgttrf`` and
solve with ``dgttrs``.  scipy's BDF still takes the steps and Newton
iterations; only the factor and solve behind them change, so a structured
Jacobian takes exactly the steps of its dense form.  A matrix Jacobian runs
on scipy's own factor and solve.  The lumped freezing stages are not stiff
and run on LSODA, whose compiled Adams steps switch to BDF by themselves
where a problem turns stiff.

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
:class:`SolverError`.  So does a structured iteration matrix that is
exactly singular.

Every stage driver ends, resamples and packages through the
:class:`IntegrationResult`: its ``event`` names the terminal event that
ended the integration (``None`` at the end of ``t_span``, which a driver
reports as a timeout), the event's time is the last mesh point ``t[-1]``,
and :meth:`IntegrationResult.resample` evaluates the dense output on the
driver's uniform sample grid.  The loop keeps the last state only, not a
mesh of every state.  The result reports the solver's step, RHS, Jacobian
and LU counts, its smallest step and its wall time.

A stage driver has one completion rule: its completion event is reached
at (t, y) when direction * g(t, y) > 0 (:meth:`EventSpec.reached`).  A
stage whose start has already reached it does not integrate; it takes
:meth:`IntegrationResult.at_start`, a result with the one mesh point t0
and no solver work, and resamples and packages that like any other.  The
step loop itself keeps ``solve_ivp``'s semantics, where an event that
starts past its zero waits for its next crossing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import BDF, LSODA, OdeSolution
from scipy.linalg.lapack import dgetrf, dgetrs, dgttrf, dgttrs
from scipy.optimize import brentq

from .bounds import POS, check_bounds
from .errors import SolverError

__all__ = ["IntegratorConfig", "EventSpec", "IntegrationResult",
           "BorderedTridiagonal", "CoupledTridiagonal", "integrate_adaptive"]

log = logging.getLogger(__name__)

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

    rtol: float = field(default=1.0e-6, metadata=POS)
    atol: float | np.ndarray = field(default=1.0e-9, metadata=POS)
    max_step: float = field(default=np.inf, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class EventSpec:
    """Terminal scalar event g(t, y) = 0: the integration stops at its
    first zero crossing.

    ``direction`` > 0 triggers only on rising zero crossings, < 0 only on
    falling ones, 0 on any.  ``name`` labels the event in results, logs
    and errors.

    As a stage's completion event it is reached at (t, y) when
    direction * g(t, y) > 0 (:meth:`reached`); a start at exactly zero is
    not, and integrates to the root at that start.
    """

    func: Callable[[float, np.ndarray], float]
    direction: float = 0.0
    name: str = "event"

    def reached(self, t: float, y: np.ndarray) -> bool:
        """Whether the state y at t already lies past the zero in this
        event's direction, so that a stage it completes is done before
        it starts (never, for ``direction`` 0)."""
        return self.direction * self.func(t, y) > 0.0

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
    ``t_span``.  ``sol`` is ``None`` for a result of :meth:`at_start`.
    """

    t: np.ndarray
    y_last: np.ndarray  # state at t[-1]
    sol: OdeSolution | None
    event: str | None = None
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    min_step_s: float = 0.0
    wall_s: float = 0.0

    @classmethod
    def at_start(cls, t0: float, y0: np.ndarray, done: EventSpec) -> "IntegrationResult":
        """The result of a stage whose start (t0, y0) has already reached
        its completion event ``done``: the mesh [t0], no steps, RHS,
        Jacobian or LU evaluations, and ``min_step_s`` NaN (no step)."""
        return cls(t=np.array([float(t0)]), y_last=np.asarray(y0, dtype=float), sol=None,
                   event=done.name, min_step_s=np.nan)

    def counters(self) -> dict[str, int | float]:
        """Accepted steps (the mesh ``t``), the RHS, Jacobian and LU
        counts, the smallest step the solver took and the wall time of the
        integration."""
        return {"steps": int(self.t.shape[0] - 1), "nfev": int(self.nfev),
                "njev": int(self.njev), "nlu": int(self.nlu),
                "min_step_s": float(self.min_step_s), "wall_s": float(self.wall_s)}

    def resample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` uniform times over [t[0], t[-1]] and the dense output
        there, shape (n_states, n_times); an empty span gives t[0] and the
        last state, without the interpolant."""
        t0, t1 = self.t[0], self.t[-1]
        if t1 == t0:
            return self.t[:1], self.y_last[:, None]
        ts = np.linspace(t0, t1, n)
        return ts, np.atleast_2d(self.sol(ts))


class BorderedTridiagonal:
    """Jacobian that is tridiagonal but for a few border states.

    The inner states, every index not in ``border`` in order, couple
    tridiagonally: ``lower``, ``diag`` and ``upper`` are the sub-, main and
    superdiagonal of their block.  ``cols`` holds the border columns
    J[:, border] in full (n x k) and ``rows`` the border rows' inner
    entries J[border, inner] (k x m).  :meth:`factor` eliminates the inner
    block by a tridiagonal LU and factors the k x k Schur complement on the
    border densely, in O(n k^2).
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 border: Sequence[int], cols: np.ndarray, rows: np.ndarray) -> None:
        self.lower, self.diag, self.upper = lower, diag, upper
        self.border = np.asarray(border)
        self.cols, self.rows = cols, rows
        n = cols.shape[0]
        self.inner = np.delete(np.arange(n), self.border)
        self.shape = (n, n)

    def toarray(self) -> np.ndarray:
        J = np.zeros(self.shape)
        i = self.inner
        J[i, i] = self.diag
        J[i[1:], i[:-1]] = self.lower
        J[i[:-1], i[1:]] = self.upper
        J[:, self.border] = self.cols
        J[np.ix_(self.border, i)] = self.rows
        return J

    def factor(self, c: float) -> "_BorderedFactor":
        """LU of I - cJ; raises :class:`SolverError` if it is singular."""
        return _BorderedFactor(self, c)


class _BorderedFactor:
    def __init__(self, J: BorderedTridiagonal, c: float) -> None:
        self.inner, self.border = J.inner, J.border
        self.tri = _TridiagonalLU(-c * J.lower, 1.0 - c * J.diag, -c * J.upper)
        self.row = -c * J.rows
        # the inner block's solve of the border columns, and the Schur
        # complement of the border states over it
        self.fill = self.tri.solve(-c * J.cols[self.inner])
        schur = np.eye(self.border.shape[0]) - c * J.cols[self.border] - self.row @ self.fill
        self.schur_lu, self.schur_piv, info = dgetrf(schur)
        if info > 0:
            raise SolverError(f"singular iteration matrix: the border block has a "
                              f"zero pivot at border state {self.border[info - 1]}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        z = self.tri.solve(b[self.inner])
        y_border, _ = dgetrs(self.schur_lu, self.schur_piv, b[self.border] - self.row @ z)
        x = np.empty_like(b)
        x[self.inner] = z - self.fill @ y_border
        x[self.border] = y_border
        return x


class CoupledTridiagonal:
    """Jacobian [[A, diag(e)], [diag(f), diag(g)]] on the states (u, v),
    each of length m, with A tridiagonal: ``lower``, ``diag`` and
    ``upper`` are its sub-, main and superdiagonal.  :meth:`factor`
    eliminates v, which leaves one tridiagonal system in u, in O(m).
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 e: np.ndarray, f: np.ndarray, g: np.ndarray) -> None:
        self.lower, self.diag, self.upper = lower, diag, upper
        self.e, self.f, self.g = e, f, g
        n = 2 * diag.shape[0]
        self.shape = (n, n)

    def toarray(self) -> np.ndarray:
        m = self.diag.shape[0]
        u, v = np.arange(m), np.arange(m, 2 * m)
        J = np.zeros(self.shape)
        J[u, u] = self.diag
        J[u[1:], u[:-1]] = self.lower
        J[u[:-1], u[1:]] = self.upper
        J[u, v] = self.e
        J[v, u] = self.f
        J[v, v] = self.g
        return J

    def factor(self, c: float) -> "_CoupledFactor":
        """LU of I - cJ; raises :class:`SolverError` if it is singular."""
        return _CoupledFactor(self, c)


class _CoupledFactor:
    def __init__(self, J: CoupledTridiagonal, c: float) -> None:
        self.m = J.diag.shape[0]
        self.g = 1.0 - c * J.g  # the v block of I - cJ
        if not np.all(self.g):
            raise SolverError(f"singular iteration matrix: zero pivot at state "
                              f"{self.m + int(np.argmin(np.abs(self.g)))}")
        self.ce, self.cf = c * J.e, c * J.f
        self.tri = _TridiagonalLU(-c * J.lower, 1.0 - c * J.diag - self.ce * self.cf / self.g,
                                  -c * J.upper)

    def solve(self, b: np.ndarray) -> np.ndarray:
        m = self.m
        bu, bv = b[:m], b[m:]
        u = self.tri.solve(bu + self.ce * bv / self.g)
        return np.concatenate([u, (bv + self.cf * u) / self.g])


class _TridiagonalLU:
    """LAPACK ``dgttrf`` LU of a tridiagonal matrix, overwriting the three
    diagonals; raises :class:`SolverError` on an exactly zero pivot.

    scipy's ``dgttrf`` wrapper rejects n = 2, so a smaller matrix is padded
    with identity rows to n = 3.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> None:
        self.m = diag.shape[0]
        self.pad = max(3 - self.m, 0)
        if self.pad:
            zeros = np.zeros(self.pad)
            lower, diag, upper = (np.concatenate([lower, zeros]),
                                  np.concatenate([diag, zeros + 1.0]),
                                  np.concatenate([upper, zeros]))
        *self.lu, info = dgttrf(lower, diag, upper,
                                overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise SolverError(f"singular iteration matrix: zero pivot in tridiagonal "
                              f"row {info - 1}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (shape (m,)) or several (m, k)."""
        if self.pad:
            b = np.concatenate([b, np.zeros((self.pad,) + b.shape[1:])])
        x, _ = dgttrs(*self.lu, b)
        return x[:self.m]


class _Deferred:
    """A structured Jacobian as scipy's BDF step uses it, in ``lu(I - c * J)``:
    ``c * J`` defers the iteration matrix to ``J.factor(c)``, and
    :data:`_PASS_IDENTITY` passes it on to ``lu``."""

    __array_ufunc__ = None  # numpy's scalar c hands c * J to __rmul__

    def __init__(self, J: BorderedTridiagonal | CoupledTridiagonal) -> None:
        self.J = J

    def __rmul__(self, c: float) -> Callable[[], object]:
        return partial(self.J.factor, c)


class _PassIdentity:
    def __sub__(self, factor: Callable[[], object]) -> Callable[[], object]:
        return factor


_PASS_IDENTITY = _PassIdentity()
_STRUCTURED = (BorderedTridiagonal, CoupledTridiagonal)


class _BDF(BDF):
    """scipy's BDF, which lets a structured Jacobian factor I - cJ.

    The steps, Newton iterations and counters are scipy's.  When ``jac``
    returns a :class:`BorderedTridiagonal` or :class:`CoupledTridiagonal`,
    the factor and solve of each iteration matrix are the Jacobian's own,
    and a singular one raises :class:`SolverError` at the step's start
    time.  A matrix Jacobian (or none) runs on scipy's own factor and solve.
    """

    def __init__(self, fun, t0, y0, t_bound, **options) -> None:
        super().__init__(fun, t0, y0, t_bound, **options)
        if isinstance(self.J, _Deferred):
            self.I = _PASS_IDENTITY  # and drop the dense identity scipy built
            self.lu = self._factor
            self.solve_lu = _solve

    def _validate_jac(self, jac, sparsity):
        if not callable(jac):
            return super()._validate_jac(jac, sparsity)
        J = jac(self.t, self.y)
        if not isinstance(J, _STRUCTURED):
            # scipy evaluates the matrix at t0 itself: hand it the one in hand
            first = [J]
            return super()._validate_jac(
                lambda t, y: first.pop() if first else jac(t, y), sparsity)
        self.njev += 1

        def deferred(t: float, y: np.ndarray) -> _Deferred:
            self.njev += 1
            return _Deferred(jac(t, y))

        return deferred, _Deferred(J)

    def _factor(self, factor: Callable[[], object]) -> object:
        self.nlu += 1
        try:
            return factor()
        except SolverError as err:
            raise SolverError(str(err), t=self.t) from None


def _solve(factor, b: np.ndarray) -> np.ndarray:
    return factor.solve(b)


_METHODS = {"BDF": _BDF, "LSODA": LSODA}

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
    or ``LSODA``.  ``jac(t, y)`` is the exact Jacobian d rhs / dy, a dense
    or sparse matrix, or for ``BDF`` a :class:`BorderedTridiagonal` or
    :class:`CoupledTridiagonal`, which then factors each iteration matrix
    itself.  The integration stops at the earliest zero crossing of any
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
