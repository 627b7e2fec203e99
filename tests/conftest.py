"""Shared fixtures: default parameter sets and cheap integrator configs."""

import numpy as np
import pytest
from hypothesis import settings

from lyosim import (
    IntegratorConfig,
    default_parameters,
)

# property tests draw the same examples on every run (and skip the example
# database), so a failure reproduces and a pass is not luck of the draw
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def params():
    """Default parameter set, shared read-only across tests."""
    return default_parameters()


@pytest.fixture
def fast_config():
    """Looser tolerances for tests that only need qualitative behavior."""
    return IntegratorConfig(rtol=1.0e-5, atol=1.0e-8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class _Captured(Exception):
    """Stops a stage driver at its call of the integrator."""


@pytest.fixture
def driver_system(monkeypatch):
    """``capture(module, run)`` calls ``run()``, a stage driver of ``module``,
    up to its call of ``integrate_adaptive`` and returns the ``(rhs, jac,
    y0)`` the driver hands to the integrator, without integrating."""

    def capture(module, run):
        seen = {}

        def fake(rhs, t_span, y0, config, *, events=None, method="BDF", jac=None):
            seen.update(rhs=rhs, jac=jac, y0=np.asarray(y0, dtype=float))
            raise _Captured

        monkeypatch.setattr(module, "integrate_adaptive", fake)
        with pytest.raises(_Captured):
            run()
        monkeypatch.undo()
        return seen["rhs"], seen["jac"], seen["y0"]

    return capture


@pytest.fixture
def jacobian_error():
    """``error(rhs, jac, t, y, steps=None)``: the largest column-scaled
    difference between ``jac(t, y)`` and central differences of ``rhs``
    with the given steps (default 1e-6 relative).  Each column's error is
    divided by that column's largest finite-difference entry; an all-zero
    column must be zero in both."""

    def error(rhs, jac, t, y, steps=None):
        y = np.asarray(y, dtype=float)
        if steps is None:
            steps = 1.0e-6 * np.maximum(np.abs(y), 1.0e-3)
        J = jac(t, y)
        J = J.toarray() if hasattr(J, "toarray") else np.asarray(J)
        fd = np.empty_like(J)
        for j, h in enumerate(steps):
            e = np.zeros_like(y)
            e[j] = h
            fd[:, j] = (rhs(t, y + e) - rhs(t, y - e)) / (2.0 * h)
        scale = np.abs(fd).max(axis=0)
        diff = np.abs(J - fd).max(axis=0)
        rel = np.divide(diff, scale, out=np.where(diff > 0.0, np.inf, 0.0),
                        where=scale > 0.0)
        return float(rel.max())

    return error
