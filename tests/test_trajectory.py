"""Trajectory records, CSV export, and concatenation."""

import csv
import io
import json
import math

import numpy as np
import pytest

from lyosim import ConfigurationError, Trajectory, default_parameters, run_full_cycle, \
    write_trajectory_csv
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


def test_csv_cells_are_float_reprs_of_the_source(tmp_path):
    # awkward doubles, nan/inf, a subnormal, and float32/int series
    a = _make(n=5, water_mass_kg=[0.1 + 0.2, 1.0 / 3.0, -0.0, np.nan, np.inf],
              ice_mass_kg=[5e-324, 1e300, -2.5e-7, 1e16, 123456789.0])
    a.series["front_position_m"] = np.array([0.1, 0.2, 0.3, 0.4, 0.5], dtype=np.float32)
    b = _make(t0=3.0, n=3, stage="primary_drying")
    b.series["bound_water_avg_kg_per_kg"] = np.array([1, 2, 3])
    traj = Trajectory.concatenate({"freezing": a, "primary_drying": b})
    path = tmp_path / "out.csv"
    write_trajectory_csv(traj, path)
    with path.open(newline="") as fh:
        written = list(csv.reader(fh))
    assert written[0] == list(CSV_COLUMNS)
    expected = [[v if isinstance(v, str) else repr(float(v)) for v in row]
                for row in traj.rows()]
    assert written[1:] == expected
    assert {r[1] for r in written[1:]} == {"freezing", "primary_drying"}
    assert "nan" in written[-1] and "inf" in written[5]


def _csv_writer_bytes(traj):
    """The table as ``csv.writer`` writes the float reprs and stage labels."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in row]
                     for row in traj.rows())
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def cycle_table():
    """The combined table of a ``defaults`` cycle."""
    table = run_full_cycle(default_parameters()).combined
    assert {"visf", "primary_drying", "secondary_drying"} <= set(table.stage)
    return table


@pytest.mark.parametrize("rename", [
    None,
    {"primary_drying": "primary, drying"},
    {"secondary_drying": 'secondary "drying"', "visf": ""},
    {"primary_drying": "primary\ndrying", "secondary_drying": "secondary\r\ndrying"},
])
def test_csv_bytes_are_those_of_csv_writer(tmp_path, cycle_table, rename):
    # the streamed rows quote a stage label as csv.writer does, also one
    # holding a delimiter, quotes or a line break
    traj = cycle_table
    if rename is not None:
        traj = Trajectory(t=traj.t, stage=[rename.get(s, s) for s in traj.stage],
                          series=traj.series)
    path = tmp_path / "cycle.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == _csv_writer_bytes(traj)
    with path.open(newline="") as fh:
        assert [row[1] for row in csv.reader(fh)][1:] == traj.stage


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
