"""Adaptive stiff integration with event detection.

Thin, typed wrapper around ``scipy.integrate.solve_ivp``.  The stage models
are stiff (thermal relaxation times from seconds to hours in one system, and
a moving-front transform that becomes singular near completion), so the
default method is the variable-order BDF family.  The distributed stages
supply their exact Jacobians in closed form as sparse CSC matrices, whose
fixed structure :class:`CscPattern` builds once per stage; without one the
implicit methods fall back to scipy's finite-difference Jacobian.  An
explicit Runge-Kutta method is kept available as a cross-check reference.
Terminal events (:class:`EventSpec`) are located by ``solve_ivp`` on the
dense output, and the result reports the solver's step, RHS, Jacobian and
LU counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import csc_matrix

from .errors import ConfigurationError, SolverError

__all__ = ["IntegratorConfig", "EventSpec", "IntegrationResult", "CscPattern",
           "integrate_adaptive"]

_METHODS = {"bdf": "BDF", "lsoda": "LSODA", "explicit": "RK45", "rk45": "RK45"}


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and method selection for one integration.

    ``atol`` may be a scalar or a per-component array.  ``method`` is
    "bdf" (default, stiff), "lsoda", or "explicit"/"rk45" (reference).
    """

    rtol: float = 1.0e-6
    atol: float | np.ndarray = 1.0e-9
    method: str = "bdf"
    max_step: float = np.inf

    def __post_init__(self) -> None:
        if self.rtol <= 0.0:
            raise ConfigurationError("rtol must be positive")
        if np.any(np.asarray(self.atol) <= 0.0):
            raise ConfigurationError("atol must be positive")
        if self.method.lower() not in _METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; choose from {sorted(_METHODS)}")
        if self.max_step <= 0.0:
            raise ConfigurationError("max_step must be positive")

    def scipy_method(self) -> str:
        return _METHODS[self.method.lower()]


@dataclass
class EventSpec:
    """Scalar event g(t, y) = 0 watched during integration.

    ``direction`` > 0 triggers only on rising zero crossings, < 0 only on
    falling ones, 0 on any.  ``terminal`` stops the integration at the
    event.  ``name`` labels the event in results and errors.
    """

    func: Callable[[float, np.ndarray], float]
    terminal: bool = True
    direction: float = 0.0
    name: str = "event"


@dataclass
class IntegrationResult:
    """Integration outcome: accepted-step mesh, dense interpolant, events."""

    t: np.ndarray
    y: np.ndarray  # shape (n_state, n_time)
    sol: Callable[[float | np.ndarray], np.ndarray]
    t_events: dict[str, np.ndarray] = field(default_factory=dict)
    y_events: dict[str, np.ndarray] = field(default_factory=dict)
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    status: int = 0
    message: str = ""

    def counters(self) -> dict[str, int]:
        """Accepted steps (the mesh ``t`` when no ``t_eval`` was given) and
        the RHS, Jacobian and LU counts of the run."""
        return {"steps": int(self.t.shape[0] - 1), "nfev": int(self.nfev),
                "njev": int(self.njev), "nlu": int(self.nlu)}

    def first_event_time(self, name: str) -> float | None:
        te = self.t_events.get(name)
        if te is None or te.size == 0:
            return None
        return float(te[0])


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


def _wrap_events(events: Sequence[EventSpec] | None):
    if not events:
        return None
    wrapped = []
    for ev in events:
        # scipy reads .terminal/.direction attributes off the callable
        def g(t, y, _f=ev.func):
            return _f(t, y)

        g.terminal = ev.terminal
        g.direction = ev.direction
        wrapped.append(g)
    return wrapped


def integrate_adaptive(rhs: Callable[[float, np.ndarray], np.ndarray],
                       t_span: tuple[float, float],
                       y0: np.ndarray,
                       config: IntegratorConfig = IntegratorConfig(),
                       events: Sequence[EventSpec] | None = None,
                       jac: Callable[[float, np.ndarray], object] | None = None,
                       t_eval: np.ndarray | None = None) -> IntegrationResult:
    """Integrate ``y' = rhs(t, y)`` over ``t_span`` with dense output.

    Returns an :class:`IntegrationResult`; raises :class:`SolverError` when
    the integrator fails (the error reports the last reached time and
    state).  ``jac(t, y)`` is the exact Jacobian d rhs / dy, dense or sparse;
    it is forwarded to the implicit methods (BDF, Radau) only, and the
    other methods ignore it.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    method = config.scipy_method()
    kwargs = {}
    if jac is not None and method in ("BDF", "Radau"):
        kwargs["jac"] = jac
    res = solve_ivp(
        rhs,
        t_span,
        y0,
        method=method,
        rtol=config.rtol,
        atol=config.atol,
        max_step=config.max_step,
        dense_output=True,
        events=_wrap_events(events),
        t_eval=t_eval,
        **kwargs,
    )
    if res.status == -1:
        t_last = float(res.t[-1]) if res.t.size else float(t_span[0])
        y_last = res.y[:, -1] if res.t.size else y0
        raise SolverError(
            f"integration failed: {res.message}; last state {np.array2string(y_last, precision=6)}",
            t=t_last,
        )
    t_events: dict[str, np.ndarray] = {}
    y_events: dict[str, np.ndarray] = {}
    if events:
        for ev, te, ye in zip(events, res.t_events, res.y_events):
            t_events[ev.name] = te
            y_events[ev.name] = ye
    return IntegrationResult(
        t=res.t,
        y=res.y,
        sol=res.sol,
        t_events=t_events,
        y_events=y_events,
        nfev=res.nfev,
        njev=res.njev,
        nlu=res.nlu,
        status=res.status,
        message=res.message,
    )

