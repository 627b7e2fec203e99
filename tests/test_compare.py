"""Simulation-vs-reference comparison metrics."""

import numpy as np
import pytest

from lyosim import ComparisonError, ReferenceSeries, Trajectory, compare_with_reference


def _traj(n=11):
    t = np.linspace(0.0, 100.0, n)
    return Trajectory(t=t, stage=["primary_drying"] * n,
                      series={"temperature_avg_K": 250.0 + 0.1 * t})


def test_reference_series_validation():
    ReferenceSeries(t=np.array([0.0, 1.0]), value=np.array([1.0, 2.0]))
    with pytest.raises(ComparisonError):
        ReferenceSeries(t=np.array([0.0]), value=np.array([1.0]))
    with pytest.raises(ComparisonError):
        ReferenceSeries(t=np.array([0.0, 0.0]), value=np.array([1.0, 2.0]))
    with pytest.raises(ComparisonError):
        ReferenceSeries(t=np.array([1.0, 0.0]), value=np.array([1.0, 2.0]))
    with pytest.raises(ComparisonError):
        ReferenceSeries(t=np.array([0.0, 1.0]), value=np.array([1.0]))
    with pytest.raises(ComparisonError):
        ReferenceSeries(t=np.array([0.0, 1.0]), value=np.array([1.0, np.nan]))


def test_reference_from_csv(tmp_path):
    p = tmp_path / "ref.csv"
    p.write_text("time_s,value\n0.0,250.0\n50.0,255.0\n100.0,260.0\n")
    ref = ReferenceSeries.from_csv(p)
    assert ref.t.shape == (3,)
    assert ref.value[1] == 255.0
    # custom column names
    p2 = tmp_path / "ref2.csv"
    p2.write_text("t,T\n0.0,1.0\n1.0,2.0\n")
    ref2 = ReferenceSeries.from_csv(p2, time_column="t", value_column="T")
    assert ref2.t.shape == (2,)
    with pytest.raises(ComparisonError):
        ReferenceSeries.from_csv(p2)  # wrong default columns
    p3 = tmp_path / "bad.csv"
    p3.write_text("time_s,value\n0.0,cold\n")
    with pytest.raises(ComparisonError):
        ReferenceSeries.from_csv(p3)
    with pytest.raises(ComparisonError):
        ReferenceSeries.from_csv(tmp_path / "missing.csv")


def test_reference_csv_with_a_short_row_raises_comparison_error(tmp_path):
    # csv reads the missing cell as None; it must not reach float() bare
    p = tmp_path / "short.csv"
    p.write_text("time_s,value\n0,1\n5\n10,3\n")
    with pytest.raises(ComparisonError, match="missing or non-numeric entry"):
        ReferenceSeries.from_csv(p)


def test_exact_match_scores_zero():
    traj = _traj()
    ref = ReferenceSeries(t=traj.t.copy(), value=250.0 + 0.1 * traj.t)
    report = compare_with_reference(traj, ref, "temperature_avg_K")
    assert report.metrics["rmse"] == pytest.approx(0.0, abs=1e-12)
    assert report.metrics["max_abs"] == pytest.approx(0.0, abs=1e-12)
    assert report.metrics["terminal_time_rel"] == 0.0
    assert report.passed
    assert report.n_overlap == traj.t.shape[0]


def test_known_offset_metrics():
    traj = _traj()
    ref = ReferenceSeries(t=traj.t.copy(), value=250.0 + 0.1 * traj.t + 2.0)
    report = compare_with_reference(traj, ref, "temperature_avg_K")
    assert report.metrics["rmse"] == pytest.approx(2.0, rel=1e-12)
    assert report.metrics["max_abs"] == pytest.approx(2.0, rel=1e-12)


def test_thresholds_mark_failures():
    traj = _traj()
    ref = ReferenceSeries(t=traj.t.copy(), value=250.0 + 0.1 * traj.t + 2.0)
    report = compare_with_reference(traj, ref, "temperature_avg_K",
                                    thresholds={"max_abs": 1.0, "rmse": 3.0})
    assert report.failures == ["max_abs"]
    assert not report.passed
    lines = report.lines()
    assert any("FAIL" in ln for ln in lines)
    assert any("ok" in ln for ln in lines)
    with pytest.raises(ComparisonError):
        compare_with_reference(traj, ref, "temperature_avg_K",
                               thresholds={"l2_norm": 1.0})


def test_interpolation_between_samples():
    traj = _traj(n=6)  # samples every 20 s
    ref = ReferenceSeries(t=np.array([10.0, 30.0, 50.0]),
                          value=np.array([251.0, 253.0, 255.0]))
    report = compare_with_reference(traj, ref, "temperature_avg_K")
    # the simulated series is linear, so interpolation is exact
    assert report.metrics["max_abs"] == pytest.approx(0.0, abs=1e-12)
    assert report.n_overlap == 3


def test_no_overlap_raises():
    traj = _traj()
    ref = ReferenceSeries(t=np.array([500.0, 600.0]), value=np.array([1.0, 2.0]))
    with pytest.raises(ComparisonError):
        compare_with_reference(traj, ref, "temperature_avg_K")


def test_missing_observable_raises():
    traj = _traj()
    ref = ReferenceSeries(t=traj.t.copy(), value=traj.t)
    with pytest.raises(ComparisonError):
        compare_with_reference(traj, ref, "bound_water_avg_kg_per_kg")
