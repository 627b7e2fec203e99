"""Piecewise-linear time schedules for operating conditions.

Shelf, gas, and wall temperatures as well as the chamber total pressure are
prescribed quantities.  A :class:`Schedule` maps stage time (s from the
stage start; post-heating holds the end-of-secondary values) onto a value,
interpolating linearly between breakpoints and clamping outside the table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = ["Schedule"]


@dataclass(frozen=True)
class Schedule:
    """Piecewise-linear profile ``value(t)``.

    ``points`` is a sequence of ``(t_s, value)`` pairs with strictly
    increasing times.  A single pair (or :meth:`constant`) yields a constant
    profile.  Evaluation outside ``[t_first, t_last]`` returns the nearest
    endpoint value, so a finite ramp table behaves as ramp-then-hold.
    """

    points: tuple[tuple[float, float], ...]
    _t: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _v: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _const: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("schedule needs at least one (t, value) point")
        t = np.asarray([p[0] for p in self.points], dtype=float)
        v = np.asarray([p[1] for p in self.points], dtype=float)
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ConfigurationError("schedule breakpoints must be finite numbers")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ConfigurationError("schedule times must be strictly increasing")
        object.__setattr__(self, "_t", tuple(t.tolist()))
        object.__setattr__(self, "_v", tuple(v.tolist()))
        const = float(v[0]) if np.all(v == v[0]) else None
        object.__setattr__(self, "_const", const)

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls(((0.0, float(value)),))

    @property
    def knots(self) -> tuple[float, ...]:
        """The breakpoint times, where the profile may kink; none for a
        constant profile."""
        return () if self._const is not None else self._t

    def __call__(self, t: float) -> float:
        """The value at the finite time ``t``: ``np.interp``'s arithmetic on
        one point, without its array overhead."""
        if self._const is not None:
            return self._const
        ts, vs = self._t, self._v
        j = bisect_right(ts, t)
        if j == len(ts):
            return vs[-1]
        if j == 0:
            return vs[0]
        t0, v0 = ts[j - 1], vs[j - 1]
        if t == t0:
            return v0
        return float((vs[j] - v0) / (ts[j] - t0) * (t - t0) + v0)


def as_schedule(value: "Schedule | float | int | list | tuple") -> Schedule:
    """Coerce a scalar or ``[[t, v], ...]`` table into a :class:`Schedule`."""
    if isinstance(value, Schedule):
        return value
    if isinstance(value, (int, float)):
        return Schedule.constant(float(value))
    if isinstance(value, (list, tuple)):
        return Schedule(tuple((float(t), float(v)) for t, v in value))
    raise ConfigurationError(f"cannot interpret {value!r} as a schedule")
