"""Trajectory records, CSV export, and concatenation."""

import csv
import json
import math

import numpy as np
import pytest

from lyosim import ConfigurationError, Trajectory, write_trajectory_csv
from lyosim.trajectory import CSV_COLUMNS, trajectory_json_dict


def _make(t0=0.0, n=4, stage="freezing", **series):
    t = t0 + np.linspace(0.0, 3.0, n)
    base = {"temperature_avg_K": 250.0 + np.arange(n, dtype=float)}
    base.update({k: np.asarray(v, dtype=float) for k, v in series.items()})
    return Trajectory(t=t, stage=[stage] * n, series=base,
                      events={f"{stage}_end_s": float(t[-1])},
                      meta={"origin": stage})


def test_column_access_and_nan_fill():
    traj = _make()
    assert np.array_equal(traj.column("time_s"), traj.t)
    assert traj.column("temperature_avg_K")[0] == 250.0
    missing = traj.column("front_position_m")
    assert missing.shape == traj.t.shape
    assert np.all(np.isnan(missing))
    assert traj.t_end == 3.0


def test_rows_follow_fixed_column_order():
    traj = _make()
    row = next(iter(traj.rows()))
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == traj.t[0]
    assert row[1] == "freezing"


def test_csv_round_trip(tmp_path):
    traj = _make(water_mass_kg=[2.9e-3, 2.8e-3, 2.7e-3, 2.6e-3])
    path = tmp_path / "out.csv"
    write_trajectory_csv(traj, path)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    # shortest round-tripping repr: exact doubles back
    for i, r in enumerate(rows):
        assert float(r["time_s"]) == traj.t[i]
        assert float(r["water_mass_kg"]) == traj.series["water_mass_kg"][i]
        assert float(r["temperature_avg_K"]) == traj.series["temperature_avg_K"][i]
        assert math.isnan(float(r["front_position_m"]))
        assert r["stage"] == "freezing"
    # header carries the full fixed order
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    assert header == list(CSV_COLUMNS)


def test_csv_deterministic_bytes(tmp_path):
    traj = _make(water_mass_kg=[2.9e-3, 2.8e-3, 2.7e-3, 2.6e-3])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_json_dict_nan_to_null():
    traj = _make()
    d = trajectory_json_dict(traj)
    assert d["columns"] == list(CSV_COLUMNS)
    assert len(d["rows"]) == 4
    # nan encodes as None so the payload is strict JSON
    idx = list(CSV_COLUMNS).index("front_position_m")
    assert d["rows"][0][idx] is None
    json.dumps(d)  # must not raise
    assert d["events"]["freezing_end_s"] == 3.0


def test_concatenate_merges_series_and_events():
    a = _make(stage="freezing", water_mass_kg=[1.0, 2.0, 3.0, 4.0])
    b = _make(t0=3.0, stage="primary_drying", front_position_m=[0.0, 1.0, 2.0, 3.0])
    joined = Trajectory.concatenate({"freezing": a, "primary_drying": b})
    assert joined.t.shape == (8,)
    assert joined.stage[:4] == ["freezing"] * 4
    assert joined.stage[4:] == ["primary_drying"] * 4
    # series missing from one part are nan-padded there
    w = joined.series["water_mass_kg"]
    assert np.all(np.isfinite(w[:4])) and np.all(np.isnan(w[4:]))
    f = joined.series["front_position_m"]
    assert np.all(np.isnan(f[:4])) and np.all(np.isfinite(f[4:]))
    assert set(joined.events) == {"freezing_end_s", "primary_drying_end_s"}
    # each part's meta stays whole under its stage name
    assert joined.meta == {"freezing": {"origin": "freezing"},
                           "primary_drying": {"origin": "primary_drying"}}


def test_shape_mismatch_rejected():
    # a typed error, not an assert that vanishes under python -O
    with pytest.raises(ConfigurationError):
        Trajectory(t=np.array([0.0, 1.0]), stage=["a"],
                   series={})
    with pytest.raises(ConfigurationError):
        Trajectory(t=np.array([0.0, 1.0]), stage=["a", "a"],
                   series={"x": np.array([1.0])})
    with pytest.raises(ConfigurationError):
        Trajectory(t=np.array([0.0, 1.0]), stage=["a", "a"],
                   fields={"T": np.zeros((3, 5))})
