"""Stage end times at the scenario tolerance against tight references.

Each drying stage runs twice from a scenario's stage initial conditions: at
the scenario's integrator settings and at rtol = 1e-9, atol = 1e-12.  The
stage durations must agree within 1e-5 relative, on the default grid and on
a fine one, so an integrator change that trades accuracy for speed shows.
Freezing runs the same way for every built-in scenario, against
rtol = 1e-10, atol = 1e-13, and each freezing stage's duration must agree
within 1e-3 relative.
"""

import copy

import pytest

from lyosim import (
    IntegratorConfig,
    build_parameters,
    builtin_scenarios,
    load_scenario,
    run_freezing,
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


FREEZING_TIGHT = IntegratorConfig(rtol=1.0e-10, atol=1.0e-13)
# stage name -> (start event, end event); preconditioning starts at t = 0
FREEZING_STAGES = {
    "preconditioning": (None, "preconditioning_end_s"),
    "visf": ("preconditioning_end_s", "visf_end_s"),
    "solidification": ("nucleation_s", "solidification_end_s"),
    "final_cooling": ("solidification_end_s", "freezing_end_s"),
}


def _freeze(p, config):
    return run_freezing(p.initial_vial_state(), p.freezing_system(), config,
                        samples_per_stage=p.samples_per_stage)


def _freezing_durations(p, config):
    ev = _freeze(p, config).events
    return {stage: ev[end] - (ev[start] if start else 0.0)
            for stage, (start, end) in FREEZING_STAGES.items()}


def _scenario_params(name, **freezing):
    data = copy.deepcopy(load_scenario(name).data)
    data["freezing"].update(freezing)
    return build_parameters(data)


@pytest.mark.parametrize("name", builtin_scenarios())
def test_freezing_durations_match_tight_reference(name):
    p = load_scenario(name).parameters()
    scenario_tol = _freezing_durations(p, p.integrator)
    reference = _freezing_durations(p, FREEZING_TIGHT)
    for stage in FREEZING_STAGES:
        assert scenario_tol[stage] == pytest.approx(reference[stage], rel=1.0e-3), stage


def test_strong_side_film_ends_on_the_band_edge():
    p = _scenario_params("defaults", side_htc_W_per_m2K=2000.0)
    fp = p.freezing_system().protocol
    T_end = _freeze(p, p.integrator).meta["final_state"].T
    # cooled from above: the stage ends where T first enters the band
    assert T_end == pytest.approx(fp.final_temperature_K + fp.final_tolerance_K, abs=1.0e-6)


def test_strong_films_complete_freezing():
    p = _scenario_params("defaults", top_htc_W_per_m2K=1000.0,
                         bottom_htc_W_per_m2K=1000.0, side_htc_W_per_m2K=1000.0)
    tr = _freeze(p, p.integrator)
    fp = p.freezing_system().protocol
    assert tr.events["freezing_end_s"] > tr.events["solidification_end_s"]
    assert abs(tr.meta["final_state"].T - fp.final_temperature_K) \
        <= fp.final_tolerance_K * (1.0 + 1.0e-9)
