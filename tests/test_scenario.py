"""Scenario schema validation, loading, and parameter assembly."""

import copy
import dataclasses
import inspect
import json
import math

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator

from lyosim import (
    ControlledNucleation,
    DryingParams,
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
from lyosim import scenario
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
    # the frozen matrix: each measured value reaches the drying parameters,
    # and null falls back to its mixing rule
    measured = {"density_kg_per_m3": 917.0, "heat_capacity_J_per_kgK": 1967.8,
                "conductivity_W_per_mK": 2.30}
    p = default_parameters({"frozen_matrix": measured})
    assert (p.primary.rho_f, p.primary.Cp_f, p.primary.k_f) == (917.0, 1967.8, 2.30)
    assert p.mixture.Cp_f == pytest.approx(2062.8, rel=1e-12)  # the rule, untouched
    p = default_parameters({"frozen_matrix": dict.fromkeys(measured)})
    mx = p.mixture
    assert (p.primary.rho_f, p.primary.Cp_f, p.primary.k_f) == (mx.rho_f, mx.Cp_f, mx.k_f)


def test_the_chamber_setpoint_is_primary_drying_chamber_pressure():
    # one scenario key and one field: chamber.pressure_setpoint_Pa is read
    # into DryingParams.p_w_chamber, held without a chamber model and the
    # setpoint under one; primary.chamber_water_pressure_Pa is gone
    assert _KEYS[DryingParams]["p_w_chamber"] == "chamber.pressure_setpoint_Pa"
    p = default_parameters({"chamber": {"pressure_setpoint_Pa": 15.0}})
    assert p.primary.p_w_chamber == 15.0
    with pytest.raises(ScenarioError):
        validate_scenario({"primary": {"chamber_water_pressure_Pa": 15.0}})
    for name in ("case4a_conventional", "case4b_conventional"):
        assert load_scenario(name).parameters().primary.p_w_chamber == 15.0


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


@pytest.mark.parametrize("name, text, where", [
    ("twice.yaml", "primary:\n  shelf_temperature_K: 250.0\nprimary:\n  time_limit_s: 5.0e+3\n",
     "duplicate key at primary"),
    ("twice.json", '{"primary": {"shelf_temperature_K": 250.0, "shelf_temperature_K": 240.0}}',
     "duplicate key at primary/shelf_temperature_K"),
    ("twice_in_list.yaml", "transport_analysis:\n  biot:\n    - label: a\n      label: b\n",
     "duplicate key at transport_analysis/biot/0/label"),
], ids=["yaml", "json", "yaml-list-item"])
def test_duplicate_keys_rejected(tmp_path, name, text, where):
    # YAML keeps the last copy of a key given twice, which would drop the
    # first silently
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ScenarioError, match=where):
        load_scenario(p)


def test_merge_keys_may_be_overridden(tmp_path):
    # a key merged in with << and then given again is an override, not a
    # duplicate
    p = tmp_path / "merge.yaml"
    p.write_text("secondary:\n  <<: {time_limit_s: 5.0}\n  time_limit_s: 6.0\n")
    sc = load_scenario(p)
    assert sc.data["secondary"]["time_limit_s"] == 6.0


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
        ("freezing", "solidification_fraction"), ("transport_analysis", "porosity"),
        ("grid", "n_nodes"), ("pipeline", "samples_per_stage")}


@pytest.mark.parametrize("path, keyword, bound", _BOUNDS,
                         ids=[".".join(map(str, p)) for p, _, _ in _BOUNDS])
def test_schema_bounds_agree_with_parameter_checks(path, keyword, bound):
    _check_bound(path, keyword, bound)


@pytest.mark.parametrize("path, keyword, bound", _UPPER_BOUNDS,
                         ids=[".".join(map(str, p)) for p, _, _ in _UPPER_BOUNDS])
def test_schema_upper_bounds_agree_with_parameter_checks(path, keyword, bound):
    _check_bound(path, keyword, bound)


def _keywords(schema):
    """(keyword, argument) of each keyword of ``schema`` and its subschemas."""
    for keyword, argument in schema.items():
        yield keyword, argument
        subschemas = (argument.values() if keyword == "properties"
                      else argument if keyword == "oneOf"
                      else [argument] if keyword == "items" else [])
        for sub in subschemas:
            yield from _keywords(sub)


def test_walker_handles_exactly_the_schema_keywords():
    # a keyword the walker does not know would pass unchecked; one the
    # schema does not use is dead code
    used = list(_keywords(SCENARIO_SCHEMA))
    assert {keyword for keyword, _ in used} == set(scenario._KEYWORDS)
    # the walker reads additionalProperties as false
    assert all(arg is False for keyword, arg in used if keyword == "additionalProperties")


def _keys_where(schema, test, path=()):
    """Paths of the keys whose schema, or a nullable form of it, passes
    ``test``; no such schema may sit in an array."""
    for variant in [schema, *schema.get("oneOf", [])]:
        for key, sub in variant.get("properties", {}).items():
            yield from _keys_where(sub, test, path + (key,))
        if test(variant):
            assert not any(isinstance(key, int) for key in path)
            yield path


_INTEGER_KEYS = set(_keys_where(SCENARIO_SCHEMA, lambda s: s.get("type") == "integer"))
_ENUM_KEYS = sorted(_keys_where(SCENARIO_SCHEMA, lambda s: "enum" in s))
_JSONSCHEMA = Draft202012Validator(SCENARIO_SCHEMA)


def _non_finite(node, path=()):
    """Path of the first NaN or infinity in a parsed document, or of the
    first int beyond the float range outside an integer key, else None."""
    if isinstance(node, float) or (isinstance(node, int) and not isinstance(node, bool)
                                   and path not in _INTEGER_KEYS):
        try:
            return None if math.isfinite(node) else path
        except OverflowError:
            return path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if (found := _non_finite(value, path + (key,))) is not None:
            return found
    return None


def _reference(data):
    """(location, message, keyword) that validation with jsonschema
    reported: its first error by sorted path, else the first non-finite
    number; None for a valid document."""
    errors = sorted(_JSONSCHEMA.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        return "/".join(map(str, e.absolute_path)) or "<root>", e.message, e.validator
    path = _non_finite(data)
    return None if path is None else ("/".join(map(str, path)), "not a finite number", None)


def _nodes(node, path=()):
    """(path, node) of ``node`` and of everything in it."""
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


# the defaults, the defaults with a comparison block (the one object with
# required keys), and built-ins with other schedules and nucleation modes
_BASES = [DEFAULT_SCENARIO, _at_bound(("comparison", "thresholds", "rmse"), 0.5),
          *(load_scenario(name).data for name in ("case4a_conventional", "stochastic_freezing",
                                                  "visf_study"))]
_PROPERTY_NAMES = sorted({name for keyword, arg in _keywords(SCENARIO_SCHEMA)
                          if keyword == "properties" for name in arg})
_LEAVES = (st.sampled_from([0, 1, -1, 2, 3, 0.5, 1.0, 11.0, 2.5, -0.0, 1.0e308, math.nan,
                            math.inf, -math.inf, 10**400, -10**400, True, False, None, "",
                            "controlled", "stochastic", [], {}, [1.0, 2.0], [[0.0, 1.0]],
                            [[0.0, 1.0], [1.0]], [0.1, math.nan]])
           | st.integers() | st.floats() | st.text(max_size=3))


@st.composite
def _mutated(draw):
    """A valid scenario with keys dropped, added and retyped, and values
    pushed to and past their bounds."""
    data = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["drop", "add", "set", "bound", "bound", "enum", "reorder"]))
        if op == "bound":
            path, _, bound = draw(st.sampled_from(_BOUNDS + _UPPER_BOUNDS))
            value = draw(st.sampled_from([bound, float(bound), bound - 1, bound + 1,
                                          math.nextafter(bound, -math.inf),
                                          math.nextafter(bound, math.inf), math.nan,
                                          math.inf, -math.inf, 10**400, True]))
            data = _set(data, path, value)
            continue
        if op == "enum":
            path = draw(st.sampled_from(_ENUM_KEYS))
            data = _set(data, path, draw(st.sampled_from(["controlled", "solidification_end",
                                                          "magic"]) | _LEAVES))
            continue
        path, node = draw(st.sampled_from(list(_nodes(data))[1:]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        elif op == "reorder":
            # the document's key order, not the schema's, decides which
            # of two non-finite numbers is reported
            if isinstance(node, dict):
                parent[path[-1]] = dict(reversed(node.items()))
        elif op == "set":
            parent[path[-1]] = draw(_LEAVES)
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_PROPERTY_NAMES) | st.text(max_size=3))] = draw(_LEAVES)
        elif isinstance(node, list):
            node.append(draw(_LEAVES))
    return data


@settings(max_examples=400, deadline=None)
@given(data=_mutated())
@example(data={"primary": {"time_limit_s": math.nan}, "integrator": {"rtol": math.inf}})
@example(data={"zz": 1, "primary": {}, "aa": 2})
def test_walker_agrees_with_jsonschema(data):
    # the same verdict at the same first path as jsonschema plus the
    # non-finite check, with jsonschema's message except under oneOf
    expected = _reference(data)
    try:
        validate_scenario(data, where="w")
    except ScenarioError as exc:
        got = str(exc)
    else:
        got = None
    if expected is None:
        assert got is None
        return
    loc, message, keyword = expected
    prefix = f"w: invalid value at {loc}: "
    assert got is not None and got.startswith(prefix), (got, expected)
    if keyword != "oneOf":
        assert got == prefix + message
