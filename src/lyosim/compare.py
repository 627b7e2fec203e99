"""Comparison of simulated trajectories against reference measurements."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ComparisonError
from .trajectory import Trajectory

__all__ = ["ReferenceSeries", "ComparisonReport", "compare_with_reference"]

KNOWN_METRICS = ("rmse", "max_abs", "terminal_time_rel")


@dataclass(frozen=True)
class ReferenceSeries:
    """A measured (time, value) series to validate a simulation against."""

    t: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.value, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ComparisonError("reference time and value must be 1-d and equal length")
        if t.shape[0] < 2:
            raise ComparisonError("reference series needs at least 2 points")
        if not np.all(np.diff(t) > 0.0):
            raise ComparisonError("reference times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ComparisonError("reference series contains non-finite entries")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", v)

    @classmethod
    def from_csv(cls, path: str | Path, *, time_column: str = "time_s",
                 value_column: str = "value") -> "ReferenceSeries":
        path = Path(path)
        try:
            with path.open(newline="") as fh:
                # a short row's missing cells read as empty, not numeric
                reader = csv.DictReader(fh, restval="")
                cols = reader.fieldnames or []
                if time_column not in cols or value_column not in cols:
                    raise ComparisonError(
                        f"{path}: expected columns {time_column!r} and "
                        f"{value_column!r}, found {cols}")
                rows = [(float(r[time_column]), float(r[value_column])) for r in reader]
        except OSError as exc:
            raise ComparisonError(f"cannot read reference file {path}: {exc}") from exc
        except ValueError as exc:
            raise ComparisonError(f"{path}: missing or non-numeric entry: {exc}") from exc
        if not rows:
            raise ComparisonError(f"{path}: no data rows")
        t, v = zip(*rows)
        return cls(t=np.array(t), value=np.array(v))


@dataclass
class ComparisonReport:
    """Deviation metrics between a simulation and a reference series."""

    observable: str
    metrics: dict[str, float]
    thresholds: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    n_overlap: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"comparison of {self.observable} ({self.n_overlap} overlapping points)"]
        for name in KNOWN_METRICS:
            if name not in self.metrics:
                continue
            mark = ""
            if name in self.thresholds:
                ok = name not in self.failures
                mark = f"  [{'ok' if ok else 'FAIL'} <= {self.thresholds[name]:g}]"
            out.append(f"  {name:18s} {self.metrics[name]:.6g}{mark}")
        return out


def compare_with_reference(trajectory: Trajectory, reference: ReferenceSeries,
                           observable: str, *,
                           thresholds: dict[str, float] | None = None) -> ComparisonReport:
    """Interpolate the simulated ``observable`` onto the reference times and
    score the deviation.

    Metrics: ``rmse`` and ``max_abs`` over the overlapping time window, and
    ``terminal_time_rel``, the relative mismatch of the two end times.
    ``thresholds`` (metric name -> allowed value) marks failures; unknown
    metric names raise :class:`ComparisonError`, as does an empty overlap.
    """
    thresholds = dict(thresholds or {})
    for name in thresholds:
        if name not in KNOWN_METRICS:
            raise ComparisonError(f"unknown comparison metric {name!r}; "
                                  f"expected one of {KNOWN_METRICS}")
    sim_v = trajectory.column(observable)
    finite = np.isfinite(sim_v)
    if not np.any(finite):
        raise ComparisonError(f"simulation has no finite samples of {observable!r}")
    sim_t = trajectory.t[finite]
    sim_v = sim_v[finite]
    lo = max(float(sim_t[0]), float(reference.t[0]))
    hi = min(float(sim_t[-1]), float(reference.t[-1]))
    mask = (reference.t >= lo) & (reference.t <= hi)
    if hi <= lo or int(mask.sum()) < 2:
        raise ComparisonError(
            f"no overlap between simulation [{sim_t[0]:g}, {sim_t[-1]:g}] s and "
            f"reference [{reference.t[0]:g}, {reference.t[-1]:g}] s")
    interp = np.interp(reference.t[mask], sim_t, sim_v)
    diff = interp - reference.value[mask]
    metrics = {
        "rmse": float(np.sqrt(np.mean(diff**2))),
        "max_abs": float(np.max(np.abs(diff))),
        "terminal_time_rel": float(abs(sim_t[-1] - reference.t[-1]) / reference.t[-1]),
    }
    failures = [n for n, limit in thresholds.items() if metrics[n] > limit]
    return ComparisonReport(observable=observable, metrics=metrics,
                            thresholds=thresholds, failures=failures,
                            n_overlap=int(mask.sum()))
