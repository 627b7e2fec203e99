"""Scenario schema validation, loading, and parameter assembly."""

import copy
import dataclasses
import inspect
import json

import pytest
import yaml

from lyosim import (
    ControlledNucleation,
    Scenario,
    ScenarioError,
    build_parameters,
    builtin_scenarios,
    default_parameters,
    load_scenario,
    run_freezing,
    run_primary,
    run_secondary,
    validate_scenario,
)
from lyosim.cli import _transport_report
from lyosim.params import _KEYS, DEFAULT_SCENARIO, SCENARIO_SCHEMA, deep_merge


def test_builtin_list_complete():
    names = builtin_scenarios()
    expected = {
        "case1_freezing", "case2a_primary", "case2b_primary",
        "case3a_secondary", "case3b_secondary", "case4a_conventional",
        "case4b_conventional", "case5_conventional", "condenser_failure",
        "defaults", "stochastic_freezing", "visf_study",
    }
    assert expected == set(names)
    assert names == sorted(names)


@pytest.mark.parametrize("name", [
    "defaults", "case1_freezing", "case2a_primary", "case2b_primary",
    "case3a_secondary", "case3b_secondary", "case4a_conventional",
    "case4b_conventional", "case5_conventional", "condenser_failure",
    "stochastic_freezing", "visf_study",
])
def test_builtin_scenarios_validate_and_build(name):
    sc = load_scenario(name)
    params = sc.parameters()  # full dataclass assembly must succeed
    assert params.n_z >= 3
    assert sc.data["name"] == name


def test_load_by_path(tmp_path):
    p = tmp_path / "mine.yaml"
    p.write_text("name: mine\nprimary:\n  shelf_temperature_K: 268.0\n")
    sc = load_scenario(p)
    assert sc.source == p
    assert sc.data["name"] == "mine"
    assert sc.data["primary"]["shelf_temperature_K"] == 268.0
    # untouched keys fall back to the baseline
    assert sc.data["primary"]["bottom_htc_W_per_m2K"] == \
        DEFAULT_SCENARIO["primary"]["bottom_htc_W_per_m2K"]


def test_load_json_scenario(tmp_path):
    p = tmp_path / "mine.json"
    p.write_text(json.dumps({"name": "mine", "chamber": {"vial_count": 60}}))
    sc = load_scenario(p)
    assert sc.parameters().chamber.n_vial == 60


def test_unknown_scenario_name():
    with pytest.raises(ScenarioError):
        load_scenario("does_not_exist")


def test_default_parameters_validates_overrides():
    # a misspelled key would otherwise run the default it meant to override
    with pytest.raises(ScenarioError):
        default_parameters({"primary": {"shelf_temprature_K": 300.0}})
    with pytest.raises(ScenarioError):
        default_parameters({"formulation": {"solute_mass_fraction": 0.0}})
    p = default_parameters({"primary": {"shelf_temperature_K": 300.0}})
    assert p.primary.shelf_temperature(0.0) == 300.0


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError):
        validate_scenario({"primary": {"shelf_temp_K": 270.0}})
    with pytest.raises(ScenarioError):
        validate_scenario({"primaryy": {}})
    # removed with exact nucleation sampling, which has no sampling interval
    with pytest.raises(ScenarioError):
        validate_scenario({"freezing": {"nucleation": {"sampling_interval_s": 0.1}}})
    # removed: each stage driver fixes its own integration method
    with pytest.raises(ScenarioError):
        validate_scenario({"integrator": {"method": "bdf"}})
    # removed: no step bound; the freezing pair ends its steps on the
    # schedules' knots
    with pytest.raises(ScenarioError):
        validate_scenario({"integrator": {"max_step_s": 1.0}})


def test_bad_types_rejected():
    with pytest.raises(ScenarioError):
        validate_scenario({"grid": {"n_nodes": 2}})
    with pytest.raises(ScenarioError):
        validate_scenario({"formulation": {"solute_mass_fraction": 1.5}})
    with pytest.raises(ScenarioError):
        validate_scenario({"freezing": {"solidification_fraction": 0.5}})
    with pytest.raises(ScenarioError):
        validate_scenario({"freezing": {"nucleation": {"mode": "magic"}}})


def test_schedules_accept_scalar_or_table():
    validate_scenario({"primary": {"shelf_temperature_K": 270.0}})
    validate_scenario({"primary": {"shelf_temperature_K": [[0.0, 270.0], [60.0, 280.0]]}})
    with pytest.raises(ScenarioError):
        validate_scenario({"primary": {"shelf_temperature_K": [[0.0], [60.0]]}})
    with pytest.raises(ScenarioError):
        validate_scenario({"primary": {"shelf_temperature_K": "hot"}})


def test_yaml_float_forms(tmp_path):
    # signed-exponent floats parse as numbers under YAML 1.1
    p = tmp_path / "floats.yaml"
    p.write_text("name: floats\nfreezing:\n  total_pressure_Pa: 1.0e+5\n")
    sc = load_scenario(p)
    assert sc.data["freezing"]["total_pressure_Pa"] == 1.0e5


def test_invalid_yaml_reports_scenario_error(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("name: [unclosed\n")
    with pytest.raises(ScenarioError):
        load_scenario(p)
    p2 = tmp_path / "list.yaml"
    p2.write_text("- just\n- a\n- list\n")
    with pytest.raises(ScenarioError):
        load_scenario(p2)


def test_deep_merge_semantics():
    base = {"a": {"x": 1, "y": 2}, "b": 3, "c": [1, 2]}
    override = {"a": {"y": 20, "z": 30}, "c": [9]}
    merged = deep_merge(base, override)
    assert merged == {"a": {"x": 1, "y": 20, "z": 30}, "b": 3, "c": [9]}
    # inputs untouched
    assert base["a"] == {"x": 1, "y": 2}
    assert override["a"] == {"y": 20, "z": 30}


def test_effective_json_is_complete(tmp_path):
    sc = load_scenario("defaults")
    text = sc.effective_json()
    data = json.loads(text)
    # the audit log carries every top-level section of the baseline
    assert set(DEFAULT_SCENARIO) <= set(data)


def test_comparison_block_roundtrip(tmp_path):
    p = tmp_path / "cmp.yaml"
    p.write_text(yaml.safe_dump({
        "name": "cmp",
        "comparison": {
            "reference_csv": "ref.csv",
            "observable": "temperature_avg_K",
            "thresholds": {"max_abs": 3.0},
        },
    }))
    sc = load_scenario(p)
    block = sc.comparison()
    assert block is not None
    assert block["observable"] == "temperature_avg_K"
    assert load_scenario("defaults").comparison() is None


def test_transport_block_defaults():
    sc = load_scenario("defaults")
    block = sc.transport()
    assert block["porosity"] == 0.815
    assert len(block["biot"]) == 2


def test_dataclass_defaults_agree_with_the_table():
    # a key read one-to-one into a field takes the field's own default
    # (params._KEYS); a field filled from a derived key keeps a second copy
    # of its default on the dataclass, which must not drift from the table
    p = build_parameters(DEFAULT_SCENARIO)
    assert p.freezing.nucleation == ControlledNucleation()  # nucleation.mode
    for built in (p.primary, p.freezing, p.secondary_conditions, p.integrator):
        keyed = _KEYS.get(type(built), {})
        for f in dataclasses.fields(built):
            if f.name in keyed or f.name == "rho_f" or not isinstance(f.default, (int, float)):
                continue  # one-to-one, derived from the fill, or not a defaulted scalar
            assert getattr(built, f.name) == f.default, f"{type(built).__name__}.{f.name}"


@pytest.mark.parametrize("driver, settings", [
    (run_freezing, ["samples_per_stage"]),
    (run_primary, ["n_z", "time_limit_s", "samples"]),
    (run_secondary, ["c_target", "n_z", "time_limit_s", "samples"]),
], ids=["freezing", "primary", "secondary"])
def test_drivers_keep_no_copy_of_a_scenario_setting(driver, settings):
    # the scenario table is the one source of these settings; a driver
    # default would be a second copy free to drift from it
    params = inspect.signature(driver).parameters
    for name in settings:
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name
        assert params[name].default is inspect.Parameter.empty, name
    assert "S0" not in params  # primary drying always starts at the product top


_LOWER = ("minimum", "exclusiveMinimum")
_UPPER = ("maximum", "exclusiveMaximum")


def _bounds(schema, keywords, path=()):
    """(path, keyword, bound) of every numeric leaf bound of ``schema``
    under one of ``keywords``, through nullable forms, schedules and
    arrays.  An integer in the path stands for an array of that many copies
    of one item (the array's ``minItems``, at least 1)."""
    for variant in [schema, *schema.get("oneOf", [])]:
        for key, sub in variant.get("properties", {}).items():
            yield from _bounds(sub, keywords, path + (key,))
        if "items" in variant:
            yield from _bounds(variant["items"], keywords,
                               path + (variant.get("minItems", 1),))
        for keyword in keywords:
            if keyword in variant and variant.get("type") in ("number", "integer"):
                yield path, keyword, variant[keyword]


def _set(node, path, value):
    """``node`` with the leaf at ``path`` replaced by ``value``; the dicts
    and lists along the path are new, missing ones are created."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        item = node[0] if isinstance(node, list) and node else {}
        return [_set(item, rest, value)] * key
    node = dict(node) if isinstance(node, dict) else {}
    node[key] = _set(node.get(key), rest, value)
    return node


def _at_bound(path, bound):
    data = copy.deepcopy(DEFAULT_SCENARIO)
    if path[:2] == ("freezing", "nucleation"):
        # the nucleation rate keys are read only in stochastic mode, which
        # excludes vacuum-induced surface freezing
        data["freezing"]["nucleation"]["mode"] = "stochastic"
        data["freezing"]["depressurization_start_s"] = None
    if path[0] == "comparison":
        data["comparison"] = {"reference_csv": "ref.csv", "observable": "temperature_avg_K"}
    if path[0] == "radiation" and bound == 1:
        # a transfer factor of 1 needs fully emissive glass (F_top <= eps_glass)
        data["radiation"]["glass_emissivity"] = 1
    return _set(data, path, bound)


def _check_bound(path, keyword, bound):
    # a value the schema admits must build, also the transport block the
    # way `lyosim analyze` builds it; the dataclass checks must not reject
    # what the schema lets through
    data = _at_bound(path, bound)
    if keyword.startswith("exclusive"):
        with pytest.raises(ScenarioError):
            validate_scenario(data)
    else:
        validate_scenario(data)
        build_parameters(data)
        _transport_report(data["transport_analysis"])


_BOUNDS = list(_bounds(SCENARIO_SCHEMA, _LOWER))
_UPPER_BOUNDS = list(_bounds(SCENARIO_SCHEMA, _UPPER))


def test_schema_bounds_walk_finds_the_known_leaves():
    paths = {p for p, _, _ in _BOUNDS}
    assert len(_BOUNDS) > 60
    assert {("chamber", "vial_count"), ("freezing", "nucleation", "rate_exponent"),
            ("primary", "cake_resistance_R0_m_per_s"),
            ("secondary", "initial_bound_water_kg_per_kg", 2),
            ("transport_analysis", "biot", 1, "htc_W_per_m2K")} <= paths
    assert {p for p, _, _ in _UPPER_BOUNDS} == {
        ("formulation", "solute_mass_fraction"), ("radiation", "glass_emissivity"),
        ("radiation", "transfer_factor_top"), ("radiation", "transfer_factor_side"),
        ("freezing", "solidification_fraction"), ("transport_analysis", "porosity")}


@pytest.mark.parametrize("path, keyword, bound", _BOUNDS,
                         ids=[".".join(map(str, p)) for p, _, _ in _BOUNDS])
def test_schema_bounds_agree_with_parameter_checks(path, keyword, bound):
    _check_bound(path, keyword, bound)


@pytest.mark.parametrize("path, keyword, bound", _UPPER_BOUNDS,
                         ids=[".".join(map(str, p)) for p, _, _ in _UPPER_BOUNDS])
def test_schema_upper_bounds_agree_with_parameter_checks(path, keyword, bound):
    _check_bound(path, keyword, bound)
