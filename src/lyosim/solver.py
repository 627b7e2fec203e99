"""Adaptive integration with event detection.

Thin, typed wrapper around ``scipy.integrate.solve_ivp``.  Each stage driver
names its own method.  The distributed drying stages are stiff (thermal
relaxation times from seconds to hours in one system, and a moving-front
transform that becomes singular near completion), so they run on the
default variable-order BDF family with their exact Jacobians, built in
closed form as sparse CSC matrices whose fixed structure
:class:`CscPattern` builds once per stage.  The lumped freezing stages are
not stiff and run on LSODA, whose compiled Adams steps switch to BDF by
themselves where a problem turns stiff.
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
    falling ones, 0 on any.  ``name`` labels the event in results and
    errors.  ``solve_ivp`` calls the spec itself and reads its
    ``terminal`` and ``direction`` attributes.
    """

    func: Callable[[float, np.ndarray], float]
    direction: float = 0.0
    name: str = "event"
    terminal = True

    def __call__(self, t: float, y: np.ndarray) -> float:
        return self.func(t, y)


@dataclass
class IntegrationResult:
    """Integration outcome: accepted-step mesh, dense interpolant, events."""

    t: np.ndarray
    y: np.ndarray  # shape (n_state, n_time)
    sol: Callable[[float | np.ndarray], np.ndarray]
    t_events: dict[str, np.ndarray] = field(default_factory=dict)
    nfev: int = 0
    njev: int = 0
    nlu: int = 0

    def counters(self) -> dict[str, int]:
        """Accepted steps (the mesh ``t``) and the RHS, Jacobian and LU
        counts of the run."""
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


def integrate_adaptive(rhs: Callable[[float, np.ndarray], np.ndarray],
                       t_span: tuple[float, float],
                       y0: np.ndarray,
                       config: IntegratorConfig = IntegratorConfig(), *,
                       events: Sequence[EventSpec] | None = None,
                       method: str = "BDF",
                       jac: Callable[[float, np.ndarray], object] | None = None
                       ) -> IntegrationResult:
    """Integrate ``y' = rhs(t, y)`` over ``t_span`` with dense output.

    ``method`` is a ``solve_ivp`` method name, BDF unless the caller names
    another.  ``jac(t, y)`` is the exact Jacobian d rhs / dy, dense or
    sparse, for a method that uses one.  Returns an
    :class:`IntegrationResult`; raises :class:`SolverError` when the
    integrator fails (the error reports the last reached time and state).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    kwargs = {} if jac is None else {"jac": jac}
    res = solve_ivp(
        rhs,
        t_span,
        y0,
        method=method,
        rtol=config.rtol,
        atol=config.atol,
        max_step=config.max_step,
        dense_output=True,
        events=events,
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
    if events:
        for ev, te in zip(events, res.t_events):
            t_events[ev.name] = te
    return IntegrationResult(
        t=res.t,
        y=res.y,
        sol=res.sol,
        t_events=t_events,
        nfev=res.nfev,
        njev=res.njev,
        nlu=res.nlu,
    )
