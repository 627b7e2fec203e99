"""Piecewise-linear schedules."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lyosim import ConfigurationError, Schedule
from lyosim.schedules import as_schedule


def test_constant():
    s = Schedule.constant(250.0)
    assert s(0.0) == 250.0
    assert s(-10.0) == 250.0
    assert s(1.0e6) == 250.0


def test_ramp_and_hold():
    s = Schedule(((0.0, 300.0), (100.0, 200.0)))
    assert s(0.0) == 300.0
    assert s(50.0) == pytest.approx(250.0)
    assert s(100.0) == 200.0
    # clamped outside the table
    assert s(-5.0) == 300.0
    assert s(1.0e4) == 200.0


def test_multi_point_interpolation():
    s = Schedule(((0.0, 1.0), (10.0, 3.0), (20.0, 3.0), (30.0, -1.0)))
    assert s(5.0) == pytest.approx(2.0)
    assert s(15.0) == pytest.approx(3.0)
    assert s(25.0) == pytest.approx(1.0)


def test_validation():
    with pytest.raises(ConfigurationError):
        Schedule(())
    with pytest.raises(ConfigurationError):
        Schedule(((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ConfigurationError):
        Schedule(((10.0, 1.0), (5.0, 2.0)))


def test_single_point_behaves_as_constant():
    s = Schedule(((42.0, 7.0),))
    assert s(0.0) == 7.0
    assert s(100.0) == 7.0


def test_equal_values_detected_as_constant():
    s = Schedule(((0.0, 5.0), (10.0, 5.0)))
    assert s(-1.0) == s(3.7) == s(20.0) == 5.0


def test_as_schedule_coercion():
    assert as_schedule(250).__call__(0.0) == 250.0
    assert as_schedule(250.0)(1.0e6) == 250.0
    s = as_schedule([[0.0, 1.0], [1.0, 2.0]])
    assert s(0.5) == pytest.approx(1.5)
    assert as_schedule(s) is s
    with pytest.raises(ConfigurationError):
        as_schedule("cold")


@given(t=st.floats(-100.0, 1000.0))
def test_ramp_value_always_within_range(t):
    s = Schedule(((0.0, 200.0), (60.0, 260.0)))
    assert 200.0 <= s(t) <= 260.0


@pytest.mark.parametrize("points", [
    ((0.0, 1.0), (float("nan"), 2.0)),
    ((0.0, float("inf")),),
    ((float("-inf"), 1.0), (0.0, 2.0)),
    ((0.0, float("nan")),),
], ids=["nan-time", "inf-value", "inf-time", "nan-value"])
def test_non_finite_breakpoints_rejected(points):
    with pytest.raises(ConfigurationError, match="finite"):
        Schedule(points)


def test_values_are_those_of_np_interp():
    # random tables, at their breakpoints, between them and outside them
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        ts = np.unique(rng.uniform(-1.0e4, 1.0e4, n))
        vs = rng.uniform(-300.0, 300.0, ts.size)
        s = Schedule(tuple(zip(ts.tolist(), vs.tolist())))
        probes = np.concatenate([ts, rng.uniform(ts[0] - 50.0, ts[-1] + 50.0, 20)])
        for t in probes:
            want = float(np.interp(t, ts, vs))
            assert s(float(t)) == want and s(t) == want
            assert type(s(t)) is float
