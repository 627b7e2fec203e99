"""Result records shared by the stage drivers and the pipeline."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigurationError

__all__ = ["Trajectory", "CycleResult", "CSV_COLUMNS", "write_trajectory_csv",
           "json_safe", "trajectory_json_dict"]

# Fixed column order of exported trajectory tables.  Quantities that do not
# apply to a stage are written as nan.
CSV_COLUMNS = (
    "time_s",
    "stage",
    "temperature_avg_K",
    "temperature_bottom_K",
    "temperature_top_K",
    "water_mass_kg",
    "ice_mass_kg",
    "front_position_m",
    "bound_water_avg_kg_per_kg",
    "chamber_water_pressure_Pa",
)


@dataclass
class Trajectory:
    """Sampled time history of one stage (or a concatenation of stages).

    ``series`` holds per-sample scalars keyed by CSV column name (without
    ``time_s``/``stage``); ``fields`` holds per-sample spatial profiles,
    shape (n_time, n_nodes); ``events`` maps named instants (stage
    transitions, completion) to absolute model times in seconds.
    """

    t: np.ndarray
    stage: list[str]
    series: dict[str, np.ndarray] = field(default_factory=dict)
    fields: dict[str, np.ndarray] = field(default_factory=dict)
    events: dict[str, float] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.t.shape[0]
        shapes = [("stage labels", (len(self.stage),))]
        shapes += [(f"series {k!r}", v.shape) for k, v in self.series.items()]
        shapes += [(f"field {k!r} leading axis", v.shape[:1]) for k, v in self.fields.items()]
        for name, shape in shapes:
            if shape != (n,):
                raise ConfigurationError(f"{name} has shape {shape}, expected ({n},)")

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def column(self, name: str) -> np.ndarray:
        """Series by CSV column name, nan-filled when absent."""
        if name == "time_s":
            return self.t
        if name in self.series:
            return self.series[name]
        return np.full(self.t.shape, np.nan)

    def rows(self):
        """Iterate CSV rows in the fixed column order."""
        cols = [self.column(c) for c in CSV_COLUMNS if c != "stage"]
        for i in range(self.t.shape[0]):
            row: list[Any] = [cols[0][i], self.stage[i]]
            row.extend(c[i] for c in cols[1:])
            yield row

    @staticmethod
    def concatenate(stages: dict[str, "Trajectory"]) -> "Trajectory":
        """Join stage trajectories, keyed by stage name in time order, into
        one table on a common time axis.

        Series missing from a part are nan-padded; events are merged, and
        each part's meta is kept whole under its stage name, so stages do
        not overwrite each other's solver counters or durations.  Spatial
        fields are not merged because grids differ between stages.
        """
        parts = list(stages.values())
        t = np.concatenate([p.t for p in parts])
        stage: list[str] = []
        for p in parts:
            stage.extend(p.stage)
        names: list[str] = []
        for p in parts:
            for k in p.series:
                if k not in names:
                    names.append(k)
        series = {}
        for name in names:
            series[name] = np.concatenate([
                p.series.get(name, np.full(p.t.shape, np.nan)) for p in parts
            ])
        events: dict[str, float] = {}
        for p in parts:
            events.update(p.events)
        meta = {name: p.meta for name, p in stages.items()}
        return Trajectory(t=t, stage=stage, series=series, events=events, meta=meta)


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write the trajectory table in the fixed column order.

    Floats use their shortest round-tripping representation, so identical
    runs produce byte-identical files.  The bytes are those of a
    ``csv.writer`` with LF line ends, which quotes a stage label holding a
    comma, a double quote or a newline.  Rows are streamed, so the table
    is never held as one string.
    """
    # each column is converted to Python floats once; repr of a Python
    # float is the shortest round-tripping decimal, which needs no quotes
    quoted = {s: _csv_field(s) for s in set(traj.stage)}
    cols = [[quoted[s] for s in traj.stage] if c == "stage" else
            list(map(repr, np.asarray(traj.column(c), dtype=float).tolist()))
            for c in CSV_COLUMNS]
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))


def _csv_field(text: str) -> str:
    """``text`` as the trajectory's ``csv.writer`` writes it in a row of
    several fields (a lone empty field it would quote)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(("", text))
    return buf.getvalue()[1:-1]


def json_safe(obj):
    """``obj`` with numpy numbers as Python ones and nan as None, so that
    ``json.dumps`` writes strict JSON; tuples become lists."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else v
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def trajectory_json_dict(traj: Trajectory) -> dict[str, Any]:
    """The trajectory table as a JSON-ready dict (nan becomes null)."""
    return json_safe({"columns": CSV_COLUMNS, "rows": list(traj.rows()),
                      "events": traj.events})


@dataclass
class CycleResult:
    """Full freeze-drying cycle: per-stage trajectories plus summary data.

    ``stage_times`` holds the named transition instants (absolute model
    seconds); ``water_balance`` is the end-of-cycle mass bookkeeping;
    ``runtime_s`` is the wall-clock cost of the simulation itself.
    """

    freezing: Trajectory | None
    primary: Trajectory | None
    secondary: Trajectory | None
    combined: Trajectory
    stage_times: dict[str, float]
    water_balance: dict[str, float] = field(default_factory=dict)
    runtime_s: float = 0.0
