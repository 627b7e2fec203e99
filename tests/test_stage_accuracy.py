"""Drying-stage end times at the scenario tolerance against tight references.

Each drying stage runs twice from a scenario's stage initial conditions: at
the scenario's integrator settings and at rtol = 1e-9, atol = 1e-12.  The
stage durations must agree within 1e-5 relative, on the default grid and on
a fine one, so an integrator change that trades accuracy for speed shows.
"""

import copy

import pytest

from lyosim import (
    IntegratorConfig,
    build_parameters,
    load_scenario,
    run_primary,
    run_secondary,
)

TIGHT = IntegratorConfig(rtol=1.0e-9, atol=1.0e-12)
STAGES = ("primary", "condenser", "secondary")


def _durations(p, config):
    common = dict(n_z=p.n_z, config=config, samples=p.samples_per_stage)
    runs = {
        "primary": lambda: run_primary(
            p.primary_initial_T, p.primary, p.radiation, p.geometry,
            time_limit_s=p.primary_time_limit_s, **common),
        "condenser": lambda: run_primary(
            p.primary_initial_T, p.primary, p.radiation, p.geometry, chamber=p.chamber,
            time_limit_s=p.primary_time_limit_s, **common),
        "secondary": lambda: run_secondary(
            p.secondary_initial_T, p.bound_water_profile(), p.secondary, p.radiation,
            p.secondary_conditions, p.geometry, c_target=p.bound_water_target,
            time_limit_s=p.secondary_time_limit_s, **common),
    }
    return {stage: runs[stage]().meta["duration_s"] for stage in STAGES}


@pytest.fixture(scope="module", params=[(name, n_z)
                                        for name in ("defaults", "condenser_failure")
                                        for n_z in (51, 201)],
                ids=lambda v: f"{v[0]}-{v[1]}")
def durations(request):
    name, n_z = request.param
    data = copy.deepcopy(load_scenario(name).data)
    data["grid"]["n_nodes"] = n_z
    p = build_parameters(data)
    return _durations(p, p.integrator), _durations(p, TIGHT)


@pytest.mark.parametrize("stage", STAGES)
def test_duration_matches_tight_reference(durations, stage):
    scenario_tol, reference = durations
    assert scenario_tol[stage] == pytest.approx(reference[stage], rel=1.0e-5)
