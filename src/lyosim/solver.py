"""Adaptive integration to one terminal event.

:func:`integrate_adaptive` runs its own step loop over the integrator the
calling stage driver names.  The distributed drying stages are stiff
(thermal relaxation times from seconds to hours in one system, and a
moving-front transform that becomes singular near completion), so they run
on :class:`BDF`, lyosim's own variable-order NDF/BDF (Shampine & Reichelt,
SIAM J. Sci. Comput., 1997).  It is scipy's ``BDF`` algorithm with its
constants and its order of floating-point operations, so it takes scipy's
steps to the last bit, without scipy's per-step Python machinery; it also
counts the step attempts it turns down.  The drying stages hand it their
exact Jacobians, built in closed form in a structured form that factors
the iteration matrix I - cJ in O(n): a tridiagonal block with a few border
states (:class:`BorderedTridiagonal`, primary drying) or a tridiagonal
block coupled diagonally to a diagonal block (:class:`CoupledTridiagonal`,
secondary drying).  Both factor with LAPACK's tridiagonal ``dgttrf`` and
solve with ``dgttrs``.  A square ndarray Jacobian factors with LAPACK's
dense ``dgetrf``/``dgetrs``, as scipy's does; without a Jacobian BDF forms
scipy's forward-difference one.  The four LAPACK routines are imported
when a process first factors an iteration matrix, not with this module:
``scipy.linalg`` is about half the import time of ``lyosim.cli``, and a
process that only freezes (a vial-population Monte Carlo, ``lyosim
freeze``) never factors, so it loads no scipy at all.

The lumped freezing stages are not stiff and run on :class:`DormandPrince`,
the explicit Runge-Kutta pair of order 5(4) of Dormand & Prince (J. Comput.
Appl. Math., 1980) with the tableau, error norm, step control and
4th-order dense output of scipy's ``RK45``, taken to the last bit.  Its
steps also end on given knots, the breakpoints of piecewise-linear
schedules, so that no step straddles a kink of a ramp.

Both integrators step forward only, one accepted step per call, to the
end of ``t_span``.  Each accepted step leaves its dense output as one
polynomial segment of a single form, y(t) = base + scale M p(t) with
p_k(t) = prod_{j <= k} (t - shift_j) / denom_j, and one evaluator serves
every segment: a BDF step (its backward differences) and a Dormand-Prince
step (its quartic).  After each accepted step the loop keeps the step's
segment and checks the terminal events (:class:`EventSpec`) for a zero
crossing in their direction; the earliest crossing, located on the segment
by :func:`_brentq` (a port of scipy's ``brentq``), ends the integration.
Steps, root search, mesh and dense output are those of
``scipy.integrate.solve_ivp`` with ``dense_output=True`` and terminal
events, so wherever ``solve_ivp`` completes the results agree with it to
the last bit.  Where it does not, the loop ends cleanly instead: a
crossing that the step's end states show but the segment misses by
rounding is taken at the nearer end, and an iteration matrix that is
exactly singular, a BDF step size that turns NaN and an RHS that is not
finite at the initial state raise :class:`SolverError`, where scipy's BDF
would halve a NaN step forever.

Every stage driver ends, resamples and packages through the
:class:`IntegrationResult`: its ``event`` names the terminal event that
ended the integration (``None`` at the end of ``t_span``, which a driver
reports as a timeout), the event's time is the last mesh point ``t[-1]``,
and :meth:`IntegrationResult.resample` evaluates the dense output
(:class:`DenseSolution`) on the driver's uniform sample grid, straight
into one column-major (n_states, n_times) array, the layout the drivers'
later dot products rely on.  The loop keeps the last state only, not a
mesh of every state.  The result reports the solver's step, rejected-step,
RHS, Jacobian and LU counts, its smallest step and its wall time.

A run that takes no step has one form, :meth:`IntegrationResult.at_start`:
the mesh [t0], no solver work and no dense output.  An empty span (t0, t0)
returns it without an RHS call (``solve_ivp`` gives [t0, t0] after one),
and so does a stage whose start has already reached its completion event:
every event has a direction, +1 or -1, and is reached at (t, y) when
direction * g(t, y) > 0 (:meth:`EventSpec.reached`).  The step loop keeps
``solve_ivp``'s semantics, where an event that starts past its zero waits
for its next crossing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from .bounds import POS, check_bounds
from .errors import ConfigurationError, SolverError

__all__ = ["IntegratorConfig", "EventSpec", "IntegrationResult", "DenseSolution", "BDF",
           "DormandPrince", "BorderedTridiagonal", "CoupledTridiagonal",
           "integrate_adaptive"]

log = logging.getLogger(__name__)

# the root-search tolerance of solve_ivp
_ROOT_TOL = 4.0 * np.finfo(float).eps

# LAPACK's LU routines, bound by _bind_lapack when a process first factors
dgetrf = dgetrs = dgttrf = dgttrs = None


def _bind_lapack() -> None:
    """Import LAPACK's ``dgetrf``, ``dgetrs``, ``dgttrf`` and ``dgttrs``
    into this module's namespace; the factors call it in their
    constructors until it has run once."""
    global dgetrf, dgetrs, dgttrf, dgttrs
    from scipy.linalg.lapack import dgetrf, dgetrs, dgttrf, dgttrs


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of one integration.

    ``atol`` may be a scalar or a per-component array.  Steps are bounded
    by the tolerances alone; a schedule's ramps shorter than the steps are
    met by the Dormand-Prince pair's knots.  The method is not configured:
    each stage driver passes its own to :func:`integrate_adaptive`.
    """

    rtol: float = field(default=1.0e-6, metadata=POS)
    atol: float | np.ndarray = field(default=1.0e-9, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class EventSpec:
    """Terminal scalar event g(t, y) = 0: the integration stops at its
    first zero crossing in ``direction``, +1 for a rising crossing and -1
    for a falling one; any other value raises :class:`ConfigurationError`.
    ``name`` labels the event in results, logs and errors.

    As a stage's completion event it is reached at (t, y) when
    direction * g(t, y) > 0 (:meth:`reached`); a start at exactly zero is
    not, and integrates to the root at that start.
    """

    func: Callable[[float, np.ndarray], float]
    direction: float
    name: str = "event"

    def __post_init__(self) -> None:
        if self.direction not in (1.0, -1.0):
            raise ConfigurationError(f"event {self.name!r} has direction {self.direction!r}, "
                                     "not +1 (rising) or -1 (falling)")

    def reached(self, t: float, y: np.ndarray) -> bool:
        """Whether the state y at t already lies past the zero in this
        event's direction, so that a stage it completes is done before
        it starts."""
        return self.direction * self.func(t, y) > 0.0

    def crossed(self, g: float, g_new: float) -> bool:
        """Whether the values g at the start and g_new at the end of a step
        bracket a zero crossing in this event's direction (a value at zero
        counts as either side)."""
        return self.direction * g <= 0.0 <= self.direction * g_new


@dataclass
class IntegrationResult:
    """Integration outcome: accepted-step mesh ``t``, last state, the dense
    output ``sol`` over its segments, the ending event and the solver's
    counters.

    ``event`` is the name of the terminal event that ended the
    integration, at time ``t[-1]``, or ``None`` when it reached the end of
    ``t_span``.  ``sol`` is ``None`` for a result of :meth:`at_start`.
    """

    t: np.ndarray
    y_last: np.ndarray  # state at t[-1]
    sol: DenseSolution | None
    event: str | None = None
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    rejected: int = 0
    min_step_s: float = 0.0
    wall_s: float = 0.0

    @classmethod
    def at_start(cls, t0: float, y0: np.ndarray,
                 done: EventSpec | None = None) -> "IntegrationResult":
        """The one form of a run that takes no step from (t0, y0): the mesh
        [t0], zero counts, ``min_step_s`` NaN and no dense output.  ``event``
        names ``done``, a completion event that the start has reached."""
        return cls(t=np.array([float(t0)]), y_last=np.asarray(y0, dtype=float), sol=None,
                   event=None if done is None else done.name, min_step_s=np.nan)

    def counters(self) -> dict[str, int | float]:
        """Accepted steps (the mesh ``t``), rejected step attempts, the RHS,
        Jacobian and LU counts, the smallest step the solver took and the
        wall time of the integration."""
        return {"steps": int(self.t.shape[0] - 1), "rejected": int(self.rejected),
                "nfev": int(self.nfev), "njev": int(self.njev), "nlu": int(self.nlu),
                "min_step_s": float(self.min_step_s), "wall_s": float(self.wall_s)}

    def resample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` uniform times over [t[0], t[-1]] and the dense output
        there, one column-major array of shape (n_states, n); an empty span
        gives t[0] and the last state, without the dense output."""
        t0, t1 = self.t[0], self.t[-1]
        if t1 == t0:
            return self.t[:1], self.y_last[:, None]
        ts = np.linspace(t0, t1, n)
        return ts, self.sol(ts)


class DenseSolution:
    """Dense output of an integration: ``interpolants`` holds one polynomial
    segment (``_Segment``, the one form of both integrators) per mesh
    interval [ts[i], ts[i + 1]] of the ascending mesh ``ts``.

    A time is looked up as scipy's ``OdeSolution`` looks it up with
    ``alt_segment=True``: a mesh point belongs to the segment that starts
    there, and times outside the mesh to the nearest end segment.  Sorted
    times that fall in one segment go to it in one call, and their values
    go straight into their columns of one column-major output array, the
    memory layout of ``OdeSolution``'s result; so the values are those of
    ``OdeSolution`` to the last bit.  Returns shape (n_states,) for a
    scalar time and (n_states, n_times) for a 1-D array, an empty one too.
    """

    __slots__ = ("ts", "interpolants")

    def __init__(self, ts: np.ndarray, interpolants: list[_Segment]) -> None:
        self.ts, self.interpolants = ts, interpolants

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        last = len(self.interpolants) - 1
        if t.ndim == 0:
            i = int(np.searchsorted(self.ts, t, side="right")) - 1
            return self.interpolants[min(max(i, 0), last)](t)
        order = np.argsort(t)
        t_sorted = t[order]
        segments = np.searchsorted(self.ts, t_sorted, side="right") - 1
        np.clip(segments, 0, last, out=segments)
        # the first of each run of times in one segment, and the end
        cuts = [*np.flatnonzero(np.diff(segments, prepend=-1)).tolist(), t.shape[0]]
        out = np.empty((self.interpolants[0].base.shape[0], t.shape[0]), order="F")
        for a, b in zip(cuts[:-1], cuts[1:]):
            out[:, order[a:b]] = self.interpolants[segments[a]](t_sorted[a:b])
        return out


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
        self.inner = i = np.delete(np.arange(n), self.border)
        # the inner states as a slice where they are contiguous (primary
        # drying's T_1 ... T_{n_z-1}), which indexes without a copy
        self.take = slice(i[0], i[-1] + 1) if i.size and i[-1] - i[0] == i.size - 1 else i
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
        if dgetrf is None:
            _bind_lapack()
        self.take, self.border = J.take, J.border
        self.tri = _TridiagonalLU(-c * J.lower, 1.0 - c * J.diag, -c * J.upper)
        self.row = -c * J.rows
        # the inner block's solve of the border columns, and the Schur
        # complement of the border states over it
        self.fill = self.tri.solve(-c * J.cols[self.take])
        schur = np.eye(self.border.shape[0]) - c * J.cols[self.border] - self.row @ self.fill
        self.schur_lu, self.schur_piv, info = dgetrf(schur)
        if info > 0:
            raise SolverError(f"singular iteration matrix: the border block has a "
                              f"zero pivot at border state {self.border[info - 1]}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        z = self.tri.solve(b[self.take])
        y_border, _ = dgetrs(self.schur_lu, self.schur_piv, b[self.border] - self.row @ z)
        x = np.empty_like(b)
        x[self.take] = z - self.fill @ y_border
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
        if dgttrf is None:
            _bind_lapack()
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


class _DenseFactor:
    """LU of I - cJ for a square ndarray J: LAPACK's ``dgetrf``/``dgetrs``,
    as scipy's ``lu_factor``/``lu_solve`` call them."""

    __slots__ = ("lu", "piv")

    def __init__(self, J: np.ndarray, c: float) -> None:
        if dgetrf is None:
            _bind_lapack()
        self.lu, self.piv, info = dgetrf(np.identity(J.shape[0]) - c * J, overwrite_a=1)
        if info > 0:
            raise SolverError(f"singular iteration matrix: zero pivot in row {info - 1}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, _ = dgetrs(self.lu, self.piv, b, overwrite_b=1)
        return x


# scipy's BDF constants (scipy.integrate._ivp.bdf): the order range, the
# Newton iterations per attempt and the bounds of a step-size change
_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = np.finfo(float).eps
# the NDF coefficients kappa of Shampine & Reichelt, Table 1, and the BDF
# coefficients derived from them, per order 0 ... 5
_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, _MAX_ORDER + 2)
# scipy's num_jac: the bounds of a usable difference, relative to the RHS
# scale, and the adaptation of each column's step factor
_DIFF_REJECT = _EPS ** 0.875
_DIFF_SMALL = _EPS ** 0.75
_DIFF_BIG = _EPS ** 0.25
_MIN_FACTOR_FD = 1e3 * _EPS
_FACTOR_INCREASE = 10
_FACTOR_DECREASE = 0.1
# 1 ... order as a column and a row, per order, for _compute_R and the
# dense output
_RANGES = [(np.arange(1, order + 1)[:, None], np.arange(1, order + 1))
           for order in range(_MAX_ORDER + 1)]


def _compute_R(order: int, factor: float) -> np.ndarray:
    """The matrix that rescales the difference array to a step ``factor``
    times longer."""
    I, J = _RANGES[order]
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.multiply.accumulate(M, axis=0)  # np.cumprod without its wrapper


_U = [_compute_R(order, 1) for order in range(_MAX_ORDER + 1)]


def _change_D(D: np.ndarray, order: int, factor: float) -> None:
    """Rescale the differences ``D`` in place to a step ``factor`` times
    longer."""
    RU = _compute_R(order, factor).dot(_U[order])
    D[:order + 1] = np.dot(RU.T, D[:order + 1])


class _Segment:
    """Dense output over one accepted step, of either integrator:
    y(t) = base + scale M p(t) with p_k(t) = prod_{j <= k} (t - shift_j) /
    denom_j, the running products that scipy's ``np.cumprod`` forms.

    A BDF step of order q is its backward differences D over the last q + 1
    mesh points, as scipy's ``BdfDenseOutput`` evaluates them: shift_j =
    t - h (j - 1), denom_j = h j, M = D[1:].T, scale 1 and base D[0].  A
    Dormand-Prince step from (t_old, y_old) is scipy's ``RkDenseOutput``:
    every shift t_old, every denom h, M = Q and scale h, so that p is
    (x, x^2, x^3, x^4) with x = (t - t_old) / h.  Every segment has at
    least one term: a run that takes no step has no dense output.
    """

    __slots__ = ("shift", "denom", "M", "scale", "base")

    def __init__(self, shift: np.ndarray, denom: np.ndarray, M: np.ndarray, scale: float,
                 base: np.ndarray) -> None:
        self.shift, self.denom, self.M, self.scale, self.base = shift, denom, M, scale, base

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        if t.ndim == 0:
            p = np.multiply.accumulate((t - self.shift) / self.denom)
            base = self.base
        else:
            p = np.multiply.accumulate((t - self.shift[:, None]) / self.denom[:, None], axis=0)
            base = self.base[:, None]
        y = self.M.dot(p)
        y *= self.scale
        y += base
        return y


def _start_state(y0) -> np.ndarray:
    """``y0`` as a float array, which must be finite and 1-D."""
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ConfigurationError("the initial state must be a finite 1-D array")
    return y


class _Stepper:
    """What both integrators share: the state (``t``, ``y``), the tolerances,
    the first step and the counters.  They step forward only, from t0 to
    ``t_bound`` > t0; an empty span raises :class:`ConfigurationError`.  A
    subclass defines ``step()``, which takes one accepted step, ending on
    ``t_bound`` rather than past it, and returns ``False`` when the step
    would fall below 10 ulps of t, and ``_ERROR_ORDER``, the order of the
    error estimate that sets the first step.  ``nfev``, ``njev`` and ``nlu``
    count the RHS, Jacobian and LU evaluations and ``rejected`` the step
    attempts turned down."""

    _ERROR_ORDER: int

    def __init__(self, fun: Callable[[float, np.ndarray], np.ndarray], t0: float,
                 y0: np.ndarray, t_bound: float, rtol: float, atol: float | np.ndarray) -> None:
        if not t_bound > t0:
            raise ConfigurationError(f"the span [{t0}, {t_bound}] has no step to take")
        self.fun = fun
        self.t = t0
        self.y = y = _start_state(y0)
        self.n = n = y.shape[0]
        self.t_bound = t_bound
        self.nfev = self.njev = self.nlu = self.rejected = 0
        self.rtol = max(rtol, 100 * _EPS)
        atol = np.asarray(atol, dtype=float)
        if atol.ndim > 0 and atol.shape != (n,):
            raise ConfigurationError(f"atol has shape {atol.shape}, the state ({n},)")
        self.atol = float(atol) if atol.ndim == 0 else atol
        self._sqrt_n = n ** 0.5

    def _norm(self, x: np.ndarray) -> float:
        """RMS norm, as ``np.linalg.norm(x) / sqrt(n)`` computes it."""
        return math.sqrt(x.dot(x)) / self._sqrt_n

    def _rhs_at_start(self) -> np.ndarray:
        """The RHS at the initial state; raises :class:`SolverError` if it is
        not finite, which would make a NaN first step."""
        self.nfev += 1
        f = np.asarray(self.fun(self.t, self.y), dtype=float)
        if not np.isfinite(f).all():
            raise SolverError("the right-hand side is not finite at the initial state",
                              t=self.t)
        return f

    def _initial_step(self, f0: np.ndarray) -> float:
        """The first step of Hairer, Norsett & Wanner (Solving Ordinary
        Differential Equations I, Sec. II.4) for an error estimate of order
        ``_ERROR_ORDER``, as scipy's ``select_initial_step``; one RHS call."""
        t0, y0 = self.t, self.y
        interval_length = self.t_bound - t0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = self._norm(y0 / scale)
        d1 = self._norm(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * f0
        self.nfev += 1
        f1 = self.fun(t0 + h0, y1)
        d2 = self._norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (self._ERROR_ORDER + 1))
        return min(100 * h0, h1, interval_length)


class BDF(_Stepper):
    """Variable-order (1 to 5) NDF/BDF with quasi-constant step size
    (Shampine & Reichelt, SIAM J. Sci. Comput., 1997).

    The algorithm, its constants and the order of its floating-point
    operations are those of scipy's ``BDF``, so it takes scipy's steps to
    the last bit: the initial step of Hairer, Norsett & Wanner, the Newton
    iteration with its convergence-rate test, the refresh of a stale
    Jacobian before a step is cut, the error test and the choice of the
    next order and step.  ``jac(t, y)`` returns a
    :class:`BorderedTridiagonal` or :class:`CoupledTridiagonal`, which
    factors each iteration matrix I - cJ itself, or an n x n ndarray,
    factored by LAPACK's dense LU; anything else raises
    :class:`ConfigurationError`, and a singular iteration matrix raises
    :class:`SolverError` at the step's start time.  Without ``jac`` it
    forms scipy's forward-difference Jacobian.  ``fun(t, y)`` returns a
    float ndarray of the state's shape.

    :meth:`step` takes one step (:class:`_Stepper`) and :meth:`dense_output`
    interpolates it; ``rejected`` counts the step attempts that a Newton
    failure or the error test turned down.
    """

    _ERROR_ORDER = 1

    def __init__(self, fun: Callable[[float, np.ndarray], np.ndarray], t0: float,
                 y0: np.ndarray, t_bound: float, *, rtol: float, atol: float | np.ndarray,
                 jac: Callable[[float, np.ndarray], object] | None = None) -> None:
        if jac is None:
            jac = self._difference_jacobian
        elif not callable(jac):
            raise ConfigurationError("BDF takes jac(t, y), a callable returning a "
                                     "BorderedTridiagonal, a CoupledTridiagonal or a square "
                                     "ndarray")
        super().__init__(fun, t0, y0, t_bound, rtol, atol)
        self.jac = jac
        self._fd_factor = None
        f = self._rhs_at_start()
        self.h_abs = self._initial_step(f)
        rtol = self.rtol
        self.newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
        self.J = self._jacobian(t0, self.y)
        self.D = D = np.empty((_MAX_ORDER + 3, self.n))
        D[0] = self.y
        D[1] = f * self.h_abs
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def _jacobian(self, t: float, y: np.ndarray):
        J = self.jac(t, y)
        self.njev += 1
        n = self.n
        if isinstance(J, (BorderedTridiagonal, CoupledTridiagonal)) and J.shape == (n, n):
            return J
        if isinstance(J, np.ndarray) and J.shape == (n, n):
            return np.asarray(J, dtype=float)
        raise ConfigurationError(
            f"jac returned {type(J).__name__} of shape {getattr(J, 'shape', None)}; BDF "
            f"needs a BorderedTridiagonal, a CoupledTridiagonal or an ndarray of shape "
            f"({n}, {n})")

    def _difference_jacobian(self, t: float, y: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobian with adaptive per-column steps, as
        scipy's ``num_jac`` computes it for a dense matrix; its RHS calls
        are not counted in ``nfev``."""
        fun = self.fun
        f = fun(t, y)
        factor = (np.full(self.n, _EPS ** 0.5) if self._fd_factor is None
                  else self._fd_factor.copy())

        def columns(Y: np.ndarray) -> np.ndarray:
            out = np.empty_like(Y)
            for i, yi in enumerate(Y.T):
                out[:, i] = fun(t, yi)
            return out

        # step each state the way its derivative points
        f_sign = 2 * (f >= 0).astype(float) - 1
        y_scale = f_sign * np.maximum(self.atol, np.abs(y))
        h = (y + factor * y_scale) - y
        for i in np.nonzero(h == 0)[0]:
            while h[i] == 0:
                factor[i] *= 10
                h[i] = (y[i] + factor[i] * y_scale[i]) - y[i]

        n = self.n
        h_vecs = np.diag(h)
        f_new = columns(y[:, None] + h_vecs)
        diff = f_new - f[:, None]
        max_ind = np.argmax(np.abs(diff), axis=0)
        r = np.arange(n)
        max_diff = np.abs(diff[max_ind, r])
        scale = np.maximum(np.abs(f[max_ind]), np.abs(f_new[max_ind, r]))
        # columns whose difference drowns in rounding: retry with a 10x step
        # and keep it where the difference is relatively larger
        diff_too_small = max_diff < _DIFF_REJECT * scale
        if np.any(diff_too_small):
            ind, = np.nonzero(diff_too_small)
            new_factor = _FACTOR_INCREASE * factor[ind]
            h_new = (y[ind] + new_factor * y_scale[ind]) - y[ind]
            h_vecs[ind, ind] = h_new
            f_new = columns(y[:, None] + h_vecs[:, ind])
            diff_new = f_new - f[:, None]
            max_ind = np.argmax(np.abs(diff_new), axis=0)
            r = np.arange(ind.shape[0])
            max_diff_new = np.abs(diff_new[max_ind, r])
            scale_new = np.maximum(np.abs(f[max_ind]), np.abs(f_new[max_ind, r]))
            update = max_diff[ind] * scale_new < max_diff_new * scale[ind]
            if np.any(update):
                update, = np.nonzero(update)
                update_ind = ind[update]
                factor[update_ind] = new_factor[update]
                h[update_ind] = h_new[update]
                diff[:, update_ind] = diff_new[:, update]
                scale[update_ind] = scale_new[update]
                max_diff[update_ind] = max_diff_new[update]
        diff /= h
        factor[max_diff < _DIFF_SMALL * scale] *= _FACTOR_INCREASE
        factor[max_diff > _DIFF_BIG * scale] *= _FACTOR_DECREASE
        self._fd_factor = np.maximum(factor, _MIN_FACTOR_FD)
        return diff

    def _factor(self, J, c: float):
        self.nlu += 1
        try:
            return _DenseFactor(J, c) if isinstance(J, np.ndarray) else J.factor(c)
        except SolverError as err:
            raise SolverError(str(err), t=self.t) from None

    def dense_output(self) -> _Segment:
        """Dense output over the last step."""
        t, h, J = self.t, self.h_abs, _RANGES[self.order][1]
        D = self.D[:self.order + 1].copy()
        return _Segment(t - h * (J - 1), h * J, D[1:].T, 1.0, D[0])

    def _newton(self, t_new: float, y_predict: np.ndarray, c: float, psi: np.ndarray,
                LU, scale: np.ndarray) -> tuple[bool, int, np.ndarray, np.ndarray]:
        """scipy's ``solve_bdf_system``: at most NEWTON_MAXITER simplified
        Newton iterations, stopped early when the rate test predicts no
        convergence or when the predicted remaining change is below
        ``newton_tol``."""
        tol = self.newton_tol
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        for k in range(_NEWTON_MAXITER):
            self.nfev += 1
            f = self.fun(t_new, y)
            if not np.isfinite(f).all():
                break
            dy = LU.solve(c * f - psi - d)
            dy_norm = self._norm(dy / scale)
            if dy_norm_old is None:
                rate = None
            else:
                rate = dy_norm / dy_norm_old
            if (rate is not None and (rate >= 1 or
                    rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dy_norm > tol)):
                break
            y += dy
            d += dy
            if (dy_norm == 0 or
                    rate is not None and rate / (1 - rate) * dy_norm < tol):
                converged = True
                break
            dy_norm_old = dy_norm
        return converged, k + 1, y, d

    def step(self) -> bool:
        """Take one accepted step; ``False`` when it would fall below 10
        ulps of t."""
        t = self.t
        D = self.D
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_D(D, self.order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs

        atol, rtol, order = self.atol, self.rtol, self.order
        J = self.J
        LU = self.LU
        current_jac = False

        while True:
            if not h_abs >= min_step:  # a NaN step fails here too
                return False
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
                _change_D(D, order, (t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None
            h_abs = t_new - t

            y_predict = D[:order + 1].sum(axis=0)
            scale = atol + rtol * np.abs(y_predict)
            psi = np.dot(D[1: order + 1].T, _GAMMA[1: order + 1]) / _ALPHA[order]

            converged = False
            c = h_abs / _ALPHA[order]
            while not converged:
                if LU is None:
                    LU = self._factor(J, c)
                converged, n_iter, y_new, d = self._newton(t_new, y_predict, c, psi, LU,
                                                           scale)
                if not converged:
                    if current_jac:
                        break
                    J = self._jacobian(t_new, y_predict)
                    LU = None
                    current_jac = True

            if not converged:
                self.rejected += 1
                factor = 0.5
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
                LU = None
                continue

            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            scale = atol + rtol * np.abs(y_new)
            error = _ERROR_CONST[order] * d
            error_norm = self._norm(error / scale)
            if error_norm > 1:
                # the Newton iteration converged: the step is cut, its LU kept
                self.rejected += 1
                factor = max(_MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
            else:
                break

        self.n_equal_steps += 1
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.J = J
        self.LU = LU

        # d = D^{k+1} y_n: the differences of the new interpolating
        # polynomial follow from D^{j+1} y_n = D^j y_n - D^j y_{n-1}
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return True

        if order > 1:
            error_m = _ERROR_CONST[order - 1] * D[order]
            error_m_norm = self._norm(error_m / scale)
        else:
            error_m_norm = np.inf
        if order < _MAX_ORDER:
            error_p = _ERROR_CONST[order + 1] * D[order + 2]
            error_p_norm = self._norm(error_p / scale)
        else:
            error_p_norm = np.inf

        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide="ignore"):
            factors = error_norms ** (-1 / np.arange(order, order + 3))
        order += int(factors.argmax()) - 1
        self.order = order

        factor = min(_MAX_FACTOR, safety * factors.max())
        self.h_abs *= factor
        _change_D(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None
        return True


# the Dormand-Prince 5(4) tableau as scipy's RK45 writes it: the nodes, the
# stage coefficients, the 5th-order weights, the error weights and the
# coefficients of the 4th-order dense output (Shampine's optimum c_6, Math.
# Comp., 1986)
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# scipy's RK step control: the safety factor, the bounds of a step-size
# change and the exponent of the error norm, -1 / (error order + 1)
_RK_SAFETY = 0.9
_RK_MIN_FACTOR = 0.2
_RK_MAX_FACTOR = 10
_RK_EXPONENT = -1 / 5


class DormandPrince(_Stepper):
    """Explicit Runge-Kutta pair of order 5(4) (Dormand & Prince, J. Comput.
    Appl. Math., 1980), stepping on given knots.

    The tableau, the first step, the error norm, the step control and the
    4th-order dense output are those of scipy's ``RK45``, with its order of
    floating-point operations, so between knots it takes scipy's steps to
    the last bit.  A step that would pass the next of ``knots`` (in any
    order; those outside (t0, t_bound) are ignored) ends on it, as a step
    ends on ``t_bound``.  The breakpoints of a piecewise-linear schedule
    are where the RHS has a kink, across which the error estimate of one
    step does not hold; ending the steps on them keeps a ramp shorter than
    the steps from being stepped over.

    ``fun(t, y)`` returns the derivative as any sequence of floats of the
    state's length, written straight into the array of stages.
    ``rejected`` counts the step attempts that the error test turned
    down; ``njev`` and ``nlu`` stay 0.
    """

    _ERROR_ORDER = 4

    def __init__(self, fun: Callable[[float, np.ndarray], Sequence[float]], t0: float,
                 y0: np.ndarray, t_bound: float, *, rtol: float, atol: float | np.ndarray,
                 knots: Sequence[float] = ()) -> None:
        super().__init__(fun, t0, y0, t_bound, rtol, atol)
        # the stages in rows; row 0 holds the derivative at the step start
        self.K = K = np.empty((7, self.n))
        self._stages = [(s, float(_DP_C[s]), _DP_A[s, :s], K[:s].T) for s in range(1, 6)]
        K[0] = self._rhs_at_start()
        self.h_abs = self._initial_step(K[0])
        # the knots inside the span and t_bound: where the steps must end,
        # and the index of the next one
        self._stops = sorted(float(k) for k in knots if t0 < k < t_bound) + [t_bound]
        self._next = 0
        self._segment: _Segment | None = None

    def step(self) -> bool:
        """Take one accepted step; ``False`` when it would fall below 10
        ulps of t."""
        t, y, K = self.t, self.y, self.K
        fun, atol, rtol = self.fun, self.atol, self.rtol
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        stop = self._stops[self._next]
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = t + h_abs
            if t_new - stop > 0:
                t_new = stop
            h_abs = h = t_new - t
            for s, c, a, KT in self._stages:
                K[s] = fun(t + c * h, y + np.dot(KT, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[6] = fun(t + h, y_new)
            self.nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = self._norm(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _RK_MAX_FACTOR
                else:
                    factor = min(_RK_MAX_FACTOR, _RK_SAFETY * error_norm ** _RK_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            self.rejected += 1
            h_abs *= max(_RK_MIN_FACTOR, _RK_SAFETY * error_norm ** _RK_EXPONENT)
            rejected = True

        if t_new == stop and self._next < len(self._stops) - 1:
            self._next += 1
        # the quartic dense output: y + h Q (x, x^2, x^3, x^4), x = (t' - t) / h
        self._segment = _Segment(np.array((t,) * 4), np.array((h,) * 4), K.T.dot(_DP_P), h, y)
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        K[0] = K[6]
        return True

    def dense_output(self) -> _Segment:
        """Dense output over the last step."""
        return self._segment


_METHODS = {"BDF": BDF, "RK45": DormandPrince}


def integrate_adaptive(rhs: Callable[[float, np.ndarray], np.ndarray],
                       t_span: tuple[float, float],
                       y0: np.ndarray,
                       config: IntegratorConfig = IntegratorConfig(), *,
                       events: Sequence[EventSpec] | None = None,
                       method: str = "BDF",
                       jac: Callable[[float, np.ndarray], object] | None = None,
                       knots: Sequence[float] = ()
                       ) -> IntegrationResult:
    """Integrate ``y' = rhs(t, y)`` forward over ``t_span`` with dense output.

    ``method`` names the integrator: ``BDF`` (the default, :class:`BDF`) or
    ``RK45`` (:class:`DormandPrince`).  ``jac(t, y)``, for ``BDF`` only, is
    the exact Jacobian d rhs / dy, as a :class:`BorderedTridiagonal` or
    :class:`CoupledTridiagonal`, which factors each iteration matrix
    itself, or as a square ndarray; anything else raises
    :class:`ConfigurationError`, and without it BDF forms a difference
    Jacobian.  ``knots``, for ``RK45`` only, are times on which a step must
    end; another method, or an option the method does not take, raises
    :class:`ConfigurationError`, and so does a start state that is not a
    finite 1-D array, on an empty span too.  The integration stops at the
    earliest zero crossing of any of ``events``, which the result's
    ``event`` names, or at the end of ``t_span``.  Returns an
    :class:`IntegrationResult`, the :meth:`~IntegrationResult.at_start` one
    for an empty span, which calls neither ``rhs`` nor ``jac``; raises
    :class:`SolverError` when the integrator fails (the error reports the
    last reached time and state).
    """
    wall0 = perf_counter()
    extra = ("jac" if jac is not None and method != "BDF"
             else "knots" if len(knots) and method != "RK45" else None)
    if method not in _METHODS or extra:
        raise ConfigurationError(
            f"method={method!r}{f' with {extra}' if extra else ''} is not an allowed "
            "combination: method='BDF' with an optional jac, or method='RK45' with "
            "optional knots")
    y0 = _start_state(np.atleast_1d(y0))
    t0, tf = map(float, t_span)
    if tf < t0:
        raise ConfigurationError(f"t_span {t_span} runs backwards")
    if tf == t0:
        return IntegrationResult.at_start(t0, y0)
    kwargs = {} if jac is None else {"jac": jac}
    if len(knots):
        kwargs["knots"] = knots
    solver = _METHODS[method](rhs, t0, y0, tf, rtol=config.rtol, atol=config.atol, **kwargs)
    events = list(events or ())
    g = [ev.func(t0, y0) for ev in events]
    ts, t = [t0], t0
    y = y_last = y0
    segments = []
    min_step = np.inf
    event: str | None = None
    while event is None and t < tf:
        t_old = t
        if solver.step():
            t, y, sol = solver.t, solver.y, solver.dense_output()
        else:
            raise SolverError("integration failed: Required step size is less than "
                              "spacing between numbers.; last state "
                              f"{np.array2string(y_last, precision=6)}", t=ts[-1])
        min_step = min(min_step, t - t_old)
        segments.append(sol)
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
            segments.pop()
        else:
            ts.append(t)
            y_last = y
    ts_arr = np.array(ts)
    log.info("%s integration over [%.6g, %.6g] s ended at t = %.6g s by %s",
             method, t0, tf, ts_arr[-1], event or "horizon")
    return IntegrationResult(
        t=ts_arr,
        y_last=y_last,
        sol=DenseSolution(ts_arr, segments),
        event=event,
        nfev=solver.nfev,
        njev=solver.njev,
        nlu=solver.nlu,
        rejected=solver.rejected,
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
        return _brentq(f, t_old, t, _ROOT_TOL, _ROOT_TOL)
    except ValueError:
        f_old, f_new = f(t_old), f(t)
        if f_old * f_new <= 0.0:  # not the bracket: the event's own error
            raise
        # the end states touch zero where the segment misses it by
        # rounding (a segment need not meet both ends of its step
        # exactly): the root is the end nearer zero
        return t_old if abs(f_old) <= abs(f_new) else t


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A zero of ``f`` in [a, b] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), with the floating-point
    operations of scipy's ``brentq`` (its C ``brentq`` and the NaN check of
    its Python wrapper), so that it returns scipy's root to the last bit.

    Converged when the bracket is narrower than xtol + rtol |x|.  Raises
    ``ValueError`` when f(a) and f(b) have the same sign or f returns NaN,
    and :class:`SolverError` when ``maxiter`` iterations do not converge.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SolverError(f"root search did not converge in {maxiter} iterations; "
                      f"last iterate {xcur!r}")
