"""Full-cycle chaining and water bookkeeping."""

import numpy as np
import pytest

from lyosim import default_parameters, load_scenario, run_full_cycle
from lyosim.pipeline import consistent_parameters


@pytest.fixture(scope="module")
def cycle():
    return run_full_cycle(default_parameters())


def test_stage_sequence(cycle):
    stages = list(dict.fromkeys(cycle.combined.stage))
    assert stages == ["preconditioning", "visf", "solidification",
                      "final_cooling", "primary_drying", "secondary_drying"]
    assert np.all(np.diff(cycle.combined.t) >= 0.0)


def test_stage_times_ordered(cycle):
    st = cycle.stage_times
    order = ["preconditioning_end_s", "visf_end_s", "nucleation_s",
             "solidification_end_s", "freezing_end_s",
             "primary_drying_end_s", "secondary_drying_end_s", "cycle_end_s"]
    for k in order:
        assert k in st
    vals = [st[k] for k in order]
    assert vals == sorted(vals)
    assert st["cycle_end_s"] == st["secondary_drying_end_s"]
    assert st["cycle_end_s"] == pytest.approx(cycle.combined.t[-1])


def test_stages_chain_through_states(cycle):
    # primary starts where freezing ends, in time and temperature
    fs = cycle.freezing.meta["final_state"]
    assert cycle.primary.t[0] == pytest.approx(fs.t)
    assert cycle.primary.series["temperature_avg_K"][0] == pytest.approx(fs.T)
    # secondary starts from the primary end profile
    ps = cycle.primary.meta["final_state"]
    assert cycle.secondary.t[0] == pytest.approx(ps.t)
    assert cycle.secondary.fields["temperature_K"][0] == pytest.approx(ps.T)


def test_water_balance_audit_self_consistent(cycle):
    # stock literature values for the dried density and bound water are
    # independent measurements, so the default inventory does not close;
    # the audit must still be internally exact
    wb = cycle.water_balance
    assert wb["initial_water_kg"] == pytest.approx(2.903753918017587e-3, rel=1e-12)
    for key in ("evaporated_visf_kg", "sublimed_kg", "bound_water_removed_kg",
                "bound_water_residual_kg"):
        assert wb[key] >= 0.0
    assert wb["accounted_kg"] == pytest.approx(
        wb["evaporated_visf_kg"] + wb["sublimed_kg"]
        + wb["bound_water_removed_kg"] + wb["bound_water_residual_kg"], rel=1e-12)
    assert wb["closure_residual_kg"] == pytest.approx(
        wb["initial_water_kg"] - wb["accounted_kg"], rel=1e-12)
    assert wb["closure_relative"] == pytest.approx(
        wb["closure_residual_kg"] / wb["initial_water_kg"], rel=1e-12)


def test_consistent_water_mode_closes_exactly():
    params = default_parameters({"pipeline": {"consistent_water": True}})
    cycle = run_full_cycle(params)
    assert cycle.water_balance["closure_residual_kg"] == 0.0
    assert cycle.water_balance["closure_relative"] == 0.0


def test_consistent_parameters_rederivation():
    params = default_parameters()
    base = run_full_cycle(params)
    fs = base.freezing.meta["final_state"]
    tied = consistent_parameters(params, fs)
    # swept mass equals the frozen mass
    A_z = params.geometry.A_z
    swept = (tied.primary.rho_f - tied.primary.rho_e) * A_z * params.geometry.H
    assert swept == pytest.approx(fs.m_i, rel=1e-12)
    # bound water is the unfrozen remainder per unit solid
    assert tied.bound_water_initial == pytest.approx(fs.m_w / params.mixture.m_s,
                                                     rel=1e-12)


def test_post_heat_stage_appended():
    params = default_parameters({"pipeline": {"post_heat_duration_s": 1800.0}})
    cycle = run_full_cycle(params)
    assert cycle.combined.stage[-1] == "post_heating"
    assert "post_heating_end_s" in cycle.stage_times
    dur = cycle.stage_times["post_heating_end_s"] - \
        cycle.stage_times["secondary_drying_end_s"]
    assert dur == pytest.approx(1800.0, rel=1e-6)
    # the hold does not change the residual bound water
    c = cycle.combined.series["bound_water_avg_kg_per_kg"]
    tail = np.array(cycle.combined.stage) == "post_heating"
    assert np.nanmax(np.abs(c[tail] - 0.01)) < 1e-9
    assert cycle.stage_times["cycle_end_s"] == cycle.stage_times["post_heating_end_s"]
    assert cycle.combined.meta["post_heating"]["duration_s"] == pytest.approx(1800.0,
                                                                             rel=1e-6)


def test_combined_meta_namespaced_per_stage(cycle):
    # concatenation keeps every stage's solver counters, not just the last
    meta = cycle.combined.meta
    assert list(meta) == ["freezing", "primary_drying", "secondary_drying"]
    for stage, traj in (("freezing", cycle.freezing), ("primary_drying", cycle.primary),
                        ("secondary_drying", cycle.secondary)):
        assert meta[stage]["solver"] == traj.meta["solver"]
        assert meta[stage]["solver"]["steps"] > 0
    assert meta["freezing"]["solver"] != meta["secondary_drying"]["solver"]


def test_runtime_recorded(cycle):
    assert 0.0 < cycle.runtime_s < 60.0


def test_scenario_stored_verbatim():
    params = default_parameters()
    marker = {"name": "probe", "note": {"demo": 1}}
    cycle = run_full_cycle(params, scenario=marker)
    assert cycle.parameters == marker
    assert run_full_cycle(params).parameters == {}


def test_solidification_end_start_mode():
    params = default_parameters({"pipeline": {"primary_start": "solidification_end"}})
    cycle = run_full_cycle(params)
    stages = list(dict.fromkeys(cycle.combined.stage))
    assert "final_cooling" not in stages
    assert cycle.freezing.meta["final_state"].stage == "solidification"
    # primary begins warmer than the fully cooled product would be
    assert cycle.primary.series["temperature_avg_K"][0] > 250.0


def test_stochastic_cycle_seed_reproducible():
    sc = load_scenario("stochastic_freezing")
    a = run_full_cycle(sc.parameters())
    b = run_full_cycle(sc.parameters())
    assert a.stage_times["nucleation_s"] == b.stage_times["nucleation_s"]
    assert np.array_equal(a.combined.t, b.combined.t)
    c = run_full_cycle(sc.parameters(), rng=np.random.default_rng(999))
    assert c.stage_times["nucleation_s"] != a.stage_times["nucleation_s"]
