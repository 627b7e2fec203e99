"""End-to-end tests of the command line interface.

Each test drives ``lyosim.cli.main`` in-process (it returns the exit
code) and inspects the files written to a temporary output directory.
"""

import ast
import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lyosim
from lyosim.cli import main
from lyosim.trajectory import CSV_COLUMNS


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _read_json(path):
    """The file as strict JSON: NaN and Infinity literals fail the test."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def test_freeze_writes_standard_outputs(tmp_path):
    code = main(["freeze", "--scenario", "defaults", "--out", str(tmp_path)])
    assert code == 0

    table = tmp_path / "defaults_freeze_trajectory.csv"
    summary_path = tmp_path / "defaults_freeze_summary.json"
    params_path = tmp_path / "defaults_freeze_parameters.json"
    assert table.is_file() and summary_path.is_file() and params_path.is_file()

    header = table.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)

    summary = _read_json(summary_path)
    assert summary["events"]["preconditioning_end_s"] == 3600.0
    assert 230.0 < summary["final_temperature_K"] < 240.0
    assert summary["final_ice_mass_kg"] > 0.0
    assert summary["end_time_s"] > 3600.0

    params = _read_json(params_path)
    for section in ("formulation", "vial", "freezing", "primary", "secondary",
                    "chamber", "transport_analysis", "output"):
        assert section in params
    assert params["name"] == "defaults"


def test_json_trajectory_format(tmp_path):
    code = main(["freeze", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    table = tmp_path / "defaults_freeze_trajectory.json"
    assert table.is_file()
    assert not (tmp_path / "defaults_freeze_trajectory.csv").exists()
    doc = _read_json(table)
    assert doc["columns"] == list(CSV_COLUMNS)
    assert len(doc["rows"]) > 2 and len(doc["rows"][0]) == len(CSV_COLUMNS)
    assert doc["events"]["preconditioning_end_s"] == 3600.0
    # strict JSON: no NaN literals, missing values are null
    assert "NaN" not in table.read_text()


@pytest.mark.parametrize("command", ["primary", "secondary", "failure"])
def test_single_stage_commands_run(tmp_path, command):
    code = main([command, "--out", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / f"defaults_{command}_summary.json")
    assert summary["end_time_s"] > 0.0
    assert summary["events"]


def test_cycle_summary_contents(tmp_path):
    code = main(["cycle", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "defaults_cycle_summary.json")
    durations = summary["stage_durations_s"]
    assert set(durations) == {"freezing", "primary_drying", "secondary_drying"}
    assert all(v > 0.0 for v in durations.values())
    assert summary["events"]["cycle_end_s"] == summary["end_time_s"]
    assert "water_balance" in summary
    assert 0.0 < summary["runtime_s"] < 60.0


# the counters without wall_s, which differs run to run
COUNTERS = {"steps", "rejected", "nfev", "njev", "nlu", "min_step_s"}


@pytest.mark.parametrize("hold", ["10.0", "1.0e-300"])
def test_cycle_summary_reports_post_heating(tmp_path, hold):
    # the stage durations add up to the cycle's end, post-heating included;
    # a hold shorter than the clock's resolution takes no step
    scn = tmp_path / "hold.yaml"
    scn.write_text(f"pipeline:\n  post_heat_duration_s: {hold}\n")
    assert main(["cycle", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "hold_cycle_summary.json")
    durations, events = summary["stage_durations_s"], summary["events"]
    assert list(durations) == ["freezing", "primary_drying", "secondary_drying",
                               "post_heating"]
    assert durations["post_heating"] == \
        events["post_heating_end_s"] - events["secondary_drying_end_s"]
    assert sum(durations.values()) == pytest.approx(summary["end_time_s"], rel=1.0e-12)
    counters = summary["solver"]["post_heating"]
    assert set(counters) == COUNTERS
    if hold == "10.0":
        assert durations["post_heating"] == pytest.approx(10.0, rel=1.0e-9)
        assert counters["steps"] > 0 and counters["min_step_s"] > 0.0
    else:
        assert durations["post_heating"] == 0.0
        assert [counters[k] for k in ("steps", "rejected", "nfev", "njev", "nlu")] \
            == [0, 0, 0, 0, 0]
        assert counters["min_step_s"] is None


@pytest.mark.parametrize("command", ["freeze", "primary", "secondary", "failure", "cycle"])
def test_summaries_carry_solver_counters(tmp_path, command):
    assert main([command, "--out", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / f"defaults_{command}_summary.json")
    if command == "cycle":
        per_stage = summary["solver"]
        assert set(per_stage) == {"freezing", "primary_drying", "secondary_drying"}
    else:
        per_stage = {command: summary["solver"]}
    for counters in per_stage.values():
        assert set(counters) == COUNTERS
        assert all(type(counters[k]) is int for k in ("steps", "nfev", "njev", "nlu"))
        assert counters["steps"] > 0
        assert type(counters["min_step_s"]) is float and counters["min_step_s"] > 0.0
    if command in ("primary", "secondary", "failure"):
        assert type(summary["n_z"]) is int and summary["n_z"] == 51


def test_summaries_report_rejected_steps(tmp_path):
    # every stage's integrator counts the step attempts it turns down: the
    # Dormand-Prince pair of freezing and the BDF of the drying stages
    assert main(["cycle", "--out", str(tmp_path)]) == 0
    per_stage = _read_json(tmp_path / "defaults_cycle_summary.json")["solver"]
    for stage in ("freezing", "primary_drying", "secondary_drying"):
        rejected = per_stage[stage]["rejected"]
        assert type(rejected) is int and 0 <= rejected < per_stage[stage]["steps"]


# stages that their start already completes: secondary drying at its
# target, solidification past its ice target, and a freezing run where no
# stage integrates
_COMPLETE_AT_START = {
    "secondary-at-target": ("secondary", "secondary:\n  initial_bound_water_kg_per_kg: 0.005\n"),
    "freeze-past-target": ("freeze", "freezing:\n  depressurization_start_s: null\n"
                           "  gas_temperature_K: 150\n  wall_temperature_K: 150\n"
                           "  upper_temperature_K: 150\n  nucleation:\n"
                           "    temperature_K: 190\n  solidification_fraction: 0.85\n"
                           "  final_temperature_K: 160\n"),
    "freeze-no-step": ("freeze", "freezing:\n  initial_temperature_K: 190\n"
                       "  depressurization_start_s: null\n  nucleation:\n"
                       "    temperature_K: 200\n  solidification_fraction: 0.85\n"
                       "  final_temperature_K: 260\n  final_tolerance_K: 20\n"),
}


@pytest.mark.parametrize("case", list(_COMPLETE_AT_START))
def test_stages_complete_at_start_write_strict_summaries(tmp_path, case):
    command, text = _COMPLETE_AT_START[case]
    scn = tmp_path / "scn.yaml"
    scn.write_text(text)
    assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / f"scn_{command}_summary.json")
    counters = summary["solver"]
    assert set(counters) == COUNTERS
    if case == "freeze-past-target":
        events = summary["events"]
        assert events["solidification_end_s"] == events["nucleation_s"]
        assert counters["steps"] > 0 and counters["min_step_s"] > 0.0
    else:
        # a stage that took no step has no smallest step
        assert [counters[k] for k in ("steps", "nfev", "njev", "nlu")] == [0, 0, 0, 0]
        assert counters["min_step_s"] is None
        assert summary["end_time_s"] == 0.0


def test_cycle_diagnostics_flag_open_water_balance(tmp_path):
    # defaults drive drying from the scenario's own dried density and bound
    # water: the balance is 18 % open and the summary names why
    assert main(["cycle", "--out", str(tmp_path / "open")]) == 0
    summary = _read_json(tmp_path / "open" / "defaults_cycle_summary.json")
    closure = summary["water_balance"]["closure_relative"]
    assert closure == pytest.approx(0.183, abs=1.0e-3)
    assert summary["diagnostics"]["flags"] == [{
        "check": "water_balance.closure_relative", "value": closure, "limit": 0.01,
        "cause": "pipeline.consistent_water: false"}]
    # tied to the frozen state the balance closes and nothing is flagged
    scn = tmp_path / "consistent.json"
    scn.write_text(json.dumps({"pipeline": {"consistent_water": True}}))
    assert main(["cycle", "--scenario", str(scn), "--out", str(tmp_path / "closed")]) == 0
    summary = _read_json(tmp_path / "closed" / "consistent_cycle_summary.json")
    assert abs(summary["water_balance"]["closure_relative"]) < 0.01
    assert summary["diagnostics"] == {"flags": []}


@pytest.mark.parametrize("override, keys", [
    ({"radiation": {"transfer_factor_top": 0.9}},
     ["radiation.transfer_factor_top = 0.9", "radiation.glass_emissivity = 0.8"]),
    ({"radiation": {"transfer_factor_side": 0.9}},
     ["radiation.transfer_factor_side = 0.9", "radiation.glass_emissivity = 0.8"]),
    ({"primary": {"dried_density_kg_per_m3": 2000.0}},
     ["primary.dried_density_kg_per_m3 = 2000", "frozen density from the formulation"]),
    ({"primary": {"dried_density_kg_per_m3": 2000.0},
      "frozen_matrix": {"density_kg_per_m3": 1000.0}},
     ["primary.dried_density_kg_per_m3 = 2000", "frozen_matrix.density_kg_per_m3 = 1000"]),
    ({"freezing": {"nucleation": {"mode": "stochastic"}}},
     ["freezing.depressurization_start_s"]),
], ids=["top-factor", "side-factor", "dried-density", "matrix-density", "stochastic-visf"])
def test_cross_field_errors_name_scenario_keys(tmp_path, capsys, override, keys):
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps(override))
    assert main(["primary", "--scenario", str(scn), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for key in keys:
        assert key in err
    # no dataclass field names
    for field in ("F_top", "F_side", "eps_glass", "rho_f", "rho_e", "visf_start_s"):
        assert field not in err


@pytest.mark.parametrize("key, table", [
    ("freezing.gas_temperature_K", [[0.0, 250.0], [0.0, 240.0]]),
    ("primary.shelf_temperature_K", [[10.0, 250.0], [5.0, 240.0]]),
    ("secondary.upper_temperature_K", [[100.0, 290.0], [50.0, 295.0]]),
], ids=["freezing", "primary", "secondary"])
def test_schedule_errors_name_scenario_keys(tmp_path, capsys, key, table):
    section, name = key.split(".")
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps({section: {name: table}}))
    assert main(["primary", "--scenario", str(scn), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {key}: schedule times must be strictly increasing" in err


def test_analyze_report(tmp_path, capsys):
    code = main(["analyze", "--out", str(tmp_path)])
    assert code == 0
    report = _read_json(tmp_path / "defaults_analyze.json")
    by_label = {row["label"]: row for row in report["biot"]}
    assert by_label["gas_film"]["biot"] == pytest.approx(0.042667, rel=1e-4)
    assert by_label["gas_film"]["lumped_capacitance_valid"] is True
    assert by_label["shelf_contact"]["biot"] == pytest.approx(0.34667, rel=1e-4)
    assert by_label["shelf_contact"]["lumped_capacitance_valid"] is False
    assert report["diffusivity"]["effective_m2_per_s"] == pytest.approx(
        1.3237e-5, rel=1e-3)
    assert report["time_scales"]["limiting"] == "desorption"
    out = capsys.readouterr().out
    assert "Bi(gas_film)" in out and "desorption-limited" in out


def test_repeated_runs_are_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["freeze", "--scenario", "stochastic_freezing",
                     "--seed", "99", "--out", str(d)])
        assert code == 0
    name = "stochastic_freezing_freeze"
    for suffix in ("trajectory.csv", "summary.json"):
        a = (dirs[0] / f"{name}_{suffix}").read_bytes()
        b = (dirs[1] / f"{name}_{suffix}").read_bytes()
        assert a == b


def test_seed_flag_changes_stochastic_outcome(tmp_path):
    times = []
    for seed in (1, 2):
        d = tmp_path / f"s{seed}"
        assert main(["freeze", "--scenario", "stochastic_freezing",
                     "--seed", str(seed), "--out", str(d)]) == 0
        summary = _read_json(d / "stochastic_freezing_freeze_summary.json")
        times.append(summary["events"]["nucleation_s"])
    assert times[0] != times[1]


def test_negative_seed_exits_2(tmp_path, capsys):
    code = main(["freeze", "--scenario", "stochastic_freezing", "--seed", "-1",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--seed -1" in err and "seed" in err
    assert not any(tmp_path.iterdir())


def test_sweep_writes_table(tmp_path):
    code = main(["freeze", "--out", str(tmp_path),
                 "--sweep", "freezing.final_temperature_K=233:237:3"])
    assert code == 0
    path = tmp_path / "defaults_freeze_sweep.csv"
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "parameter" and header[1] == "value"
    assert "end_time_s" in header
    values = []
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "freezing.final_temperature_K"
        values.append(float(cells[1]))
    assert values == [233.0, 235.0, 237.0]
    # single-point runs do not write per-run trajectory files
    assert not (tmp_path / "defaults_freeze_trajectory.csv").exists()


@pytest.mark.parametrize("spec", ["nonsense", "freezing.bogus=1:2:2",
                                  "freezing=1:2:2", "freezing.initial_temperature_K=nan:nan:1"])
def test_bad_sweep_spec_exits_2(tmp_path, capsys, spec):
    out = tmp_path / "out"
    code = main(["freeze", "--out", str(out), "--sweep", spec])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text, where", [
    ("primary", "- 1\n- 2\n", "invalid value at <root>: top level must be a mapping"),
    ("primary", "primary: [1, 2\n", "parse error"),
    ("primary", "primray:\n  shelf_temperature_K: 260\n",
     "invalid value at <root>: Additional properties are not allowed"),
    ("primary", "primary:\n  shelf_temperature_K: [[10, 250], [5, 240]]\n",
     "primary.shelf_temperature_K: schedule times must be strictly increasing"),
    ("primary", "primary:\n  shelf_temperature_K: .nan\n",
     "invalid value at primary/shelf_temperature_K: not a finite number"),
    ("primary", "primary:\n  shelf_temperature_K: [[0, 250], [60, .nan]]\n",
     "invalid value at primary/shelf_temperature_K/1/1: not a finite number"),
    ("primary", "integrator:\n  rtol: .nan\n",
     "invalid value at integrator/rtol: not a finite number"),
    ("primary", "primary:\n  time_limit_s: .inf\n",
     "invalid value at primary/time_limit_s: not a finite number"),
    ("freeze", "freezing:\n  initial_temperature_K: .inf\n",
     "invalid value at freezing/initial_temperature_K: not a finite number"),
    ("primary", "primary:\n  wall_temperature_K: -.inf\n",
     "invalid value at primary/wall_temperature_K: not a finite number"),
    ("primary", "primary:\n  time_limit_s: 1" + "0" * 400 + "\n",
     "invalid value at primary/time_limit_s: not a finite number"),
    ("primary", "grid:\n  n_nodes: 1" + "0" * 400 + "\n",
     "invalid value at grid/n_nodes: 1" + "0" * 400 + " is greater than the maximum of 2001"),
    ("primary", "grid:\n  n_nodes: 1.0e+400\n",
     "invalid value at grid/n_nodes: inf is not of type 'integer'"),
    ("primary", "grid:\n  n_nodes: 1000000000000000000\n",
     "invalid value at grid/n_nodes: 1000000000000000000 is greater than the maximum of 2001"),
    ("primary", "grid:\n  n_nodes: 100000000000\n",
     "invalid value at grid/n_nodes: 100000000000 is greater than the maximum of 2001"),
    ("primary", "pipeline:\n  samples_per_stage: 100000000000\n",
     "invalid value at pipeline/samples_per_stage: 100000000000 is greater than the maximum "
     "of 5001"),
], ids=["top-level-list", "broken-yaml", "unknown-key", "unsorted-schedule", "nan-shelf",
        "nan-breakpoint", "nan-rtol", "inf-time-limit", "inf-initial-T", "minus-inf",
        "int-beyond-float", "huge-grid", "inf-grid", "grid-1e18", "grid-1e11",
        "huge-samples"])
def test_malformed_scenario_exits_2(tmp_path, capsys, command, text, where):
    scn = tmp_path / "bad.yaml"
    scn.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not out.exists()  # no output directory for a run that never started


@pytest.mark.parametrize("command, text", [
    ("primary", "grid:\n  n_nodes: 5.0\n"),
    ("primary", "grid:\n  n_nodes: 5\npipeline:\n  samples_per_stage: 30.0\n"),
    ("freeze", "seed: 5.0\nfreezing:\n  depressurization_start_s: null\n"
               "  nucleation:\n    mode: stochastic\n"),
], ids=["n-nodes", "samples-per-stage", "seed"])
def test_whole_number_floats_in_integer_keys_run(tmp_path, command, text):
    # JSON Schema counts 5.0 as an integer; the run matches the one given 5
    outputs = []
    for value in (text, text.replace(".0\n", "\n")):
        out = tmp_path / str(len(outputs))
        scn = tmp_path / "scn.yaml"
        scn.write_text(value)
        assert main([command, "--scenario", str(scn), "--out", str(out)]) == 0
        outputs.append((out / f"scn_{command}_trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_over_an_integer_key(tmp_path):
    code = main(["primary", "--out", str(tmp_path), "--sweep", "grid.n_nodes=11:21:2"])
    assert code == 0
    rows = (tmp_path / "defaults_primary_sweep.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["11.0", "21.0"]


def test_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["freeze", "--scenario", "no_such_scenario",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "no_such_scenario" in capsys.readouterr().err


def test_invalid_scenario_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("freezing:\n  nucleation:\n    mode: magic\n")
    code = main(["freeze", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _comparison_scenario(tmp_path, thresholds):
    ref = tmp_path / "ref.csv"
    ref.write_text("time_s,value\n0.0,400.0\n3000.0,400.0\n")
    scn = tmp_path / "cmp.json"
    scn.write_text(json.dumps({
        "comparison": {
            "reference_csv": str(ref),
            "observable": "temperature_avg_K",
            "thresholds": thresholds,
        },
    }))
    return scn


def test_comparison_failure_without_assert_still_exits_0(tmp_path, capsys):
    scn = _comparison_scenario(tmp_path, {"max_abs": 0.001})
    code = main(["freeze", "--scenario", str(scn), "--out", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "cmp_freeze_summary.json")
    assert summary["comparison"]["passed"] is False
    assert "max_abs" in summary["comparison"]["failures"]
    assert "FAIL" in capsys.readouterr().out


def test_comparison_failure_with_assert_exits_4(tmp_path):
    scn = _comparison_scenario(tmp_path, {"max_abs": 0.001})
    code = main(["freeze", "--scenario", str(scn), "--out", str(tmp_path),
                 "--assert"])
    assert code == 4


def test_comparison_pass_with_assert_exits_0(tmp_path):
    # reference sits 100+ K above the trajectory; a generous bound passes
    scn = _comparison_scenario(tmp_path, {"max_abs": 500.0})
    code = main(["freeze", "--scenario", str(scn), "--out", str(tmp_path),
                 "--assert"])
    assert code == 0
    summary = _read_json(tmp_path / "cmp_freeze_summary.json")
    assert summary["comparison"]["passed"] is True
    assert summary["comparison"]["metrics"]["max_abs"] > 100.0


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LYOSIM_OUTPUT_DIR", str(tmp_path / "envout"))
    code = main(["analyze"])
    assert code == 0
    assert (tmp_path / "envout" / "defaults_analyze.json").is_file()


def test_out_flag_overrides_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LYOSIM_OUTPUT_DIR", str(tmp_path / "envout"))
    explicit = tmp_path / "explicit"
    code = main(["analyze", "--out", str(explicit)])
    assert code == 0
    assert (explicit / "defaults_analyze.json").is_file()
    assert not (tmp_path / "envout").exists()


def test_scenario_output_directory_beats_env_var_and_loses_to_out_flag(tmp_path,
                                                                       monkeypatch):
    monkeypatch.setenv("LYOSIM_OUTPUT_DIR", str(tmp_path / "envout"))
    scn = tmp_path / "dirs.json"
    scn.write_text(json.dumps({"name": "dirs",
                               "output": {"directory": str(tmp_path / "scenario")}}))
    assert main(["analyze", "--scenario", str(scn)]) == 0
    assert (tmp_path / "scenario" / "dirs_analyze.json").is_file()
    explicit = tmp_path / "explicit"
    assert main(["analyze", "--scenario", str(scn), "--out", str(explicit)]) == 0
    assert (explicit / "dirs_analyze.json").is_file()
    assert not (tmp_path / "envout").exists()


@pytest.mark.parametrize("via", ["--out", "output.directory"])
@pytest.mark.parametrize("below", [False, True], ids=["a-file", "under-a-file"])
def test_unusable_output_directory_exits_2(tmp_path, capsys, via, below):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    target = taken / "sub" if below else taken
    if via == "--out":
        argv = ["analyze", "--out", str(target)]
    else:
        scn = tmp_path / "dirs.json"
        scn.write_text(json.dumps({"output": {"directory": str(target)}}))
        argv = ["analyze", "--scenario", str(scn)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"cannot use {target} as the output directory" in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["freeze", "analyze"])
@pytest.mark.parametrize("name", ["../escaped", "a/b", ".", "..", "nul\0name"],
                         ids=["parent", "subdirectory", "dot", "dot-dot", "nul"])
def test_scenario_name_that_is_not_a_file_name_exits_2(tmp_path, capsys, command, name):
    # the name prefixes the output files: it may not lead outside --out
    work = tmp_path / "work"
    work.mkdir()
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"name": name}))
    assert main([command, "--scenario", str(scn), "--out", str(work / "inner")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"scenario name {name!r} is not a plain file name" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scn.json", "work"]


def test_module_entry_point(tmp_path):
    # the child imports the same lyosim as the tests, also when pytest put
    # src/ on sys.path itself rather than through PYTHONPATH
    src = str(Path(lyosim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lyosim", "analyze", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "defaults_analyze.json").is_file()


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """A fresh interpreter that loads the CLI, builds every built-in
    scenario, freezes a stochastic vial, dries and analyzes: its tagged
    output lines, each ``tag: value`` as {tag: value}, and its output
    directory.  It lists the top-level modules it loaded after it started,
    and those that lyosim's own code imported first."""
    out = tmp_path_factory.mktemp("fresh")
    src = str(Path(lyosim.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "started = set(sys.modules)\n"
        "by_lyosim = set()\n"
        "class Importers:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        frame = sys._getframe(1)\n"
        "        while frame.f_globals.get('__name__', '').startswith('importlib'):\n"
        "            frame = frame.f_back\n"
        "        if frame.f_globals.get('__name__', '').split('.')[0] == 'lyosim':\n"
        "            by_lyosim.add(name.split('.')[0])\n"
        "sys.meta_path.insert(0, Importers())\n"
        f"sys.path.insert(0, {src!r})\n"
        "import lyosim.cli\n"
        "from lyosim.drying_primary import run_primary\n"
        "from lyosim.scenario import builtin_scenarios, load_scenario\n"
        "built = [load_scenario(n).parameters() for n in builtin_scenarios()]\n"
        "assert len(built) == 12\n"
        f"code = lyosim.cli.main(['freeze', '--scenario', 'stochastic_freezing', '--out', "
        f"{str(out / 'freeze')!r}])\n"
        "assert code == 0\n"
        "print('scipy:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "p = built[builtin_scenarios().index('defaults')]\n"
        "traj = run_primary(p.primary_initial_T, p.primary, p.radiation, p.geometry,\n"
        "                   n_z=p.n_z, config=p.integrator,\n"
        "                   time_limit_s=p.primary_time_limit_s, samples=p.samples_per_stage)\n"
        "assert traj.meta['solver']['nlu'] > 0\n"
        "print('lapack:', 'scipy.linalg.lapack' in sys.modules)\n"
        f"code = lyosim.cli.main(['analyze', '--scenario', 'visf_study', '--out', "
        f"{str(out / 'child')!r}])\n"
        "assert code == 0\n"
        "top = {m.split('.')[0] for m in sys.modules} - {m.split('.')[0] for m in started}\n"
        "print('loaded:', sorted(top))\n"
        "print('by lyosim:', sorted(by_lyosim & top))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    tags = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                if line.startswith(("scipy:", "lapack:", "loaded:", "by lyosim:")))
    return tags, out


def test_import_path_leaves_out_heavy_scipy_modules(tmp_path, fresh_run):
    # the fresh interpreter imports no scipy module at all until it has
    # built every scenario and frozen a vial; its first primary drying
    # binds LAPACK; the analysis imports scipy.special itself, and its
    # report is the one this process writes.  jsonschema and its
    # dependencies are test-only: nothing loads them
    tags, out = fresh_run
    assert (tags["scipy"], tags["lapack"]) == ("[]", "True"), tags
    loaded = set(ast.literal_eval(tags["loaded"]))
    assert "yaml" in loaded
    assert not loaded & {"jsonschema", "referencing", "rpds", "jsonschema_specifications"}
    assert main(["analyze", "--scenario", "visf_study", "--out", str(tmp_path / "here")]) == 0
    child, here = (d / "visf_study_analyze.json" for d in (out / "child", tmp_path / "here"))
    assert child.read_bytes() == here.read_bytes()


def _distribution(requirement: str) -> str:
    """The normalized distribution name of a requirement string."""
    return re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9._-]+", requirement)[0]).lower()


def test_runtime_dependencies_are_what_the_run_imports(fresh_run):
    # the runtime dependencies of pyproject.toml name exactly the
    # distributions of the third-party modules lyosim's code imports in the
    # fresh run.  Modules that a dependency imports in turn do not count:
    # scipy.special loads numpy.f2py, which loads charset_normalizer where
    # it is installed
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    tags, _ = fresh_run
    by_lyosim = ast.literal_eval(tags["by lyosim"])
    third_party = [m for m in by_lyosim if m not in sys.stdlib_module_names and m != "lyosim"]
    owners = importlib.metadata.packages_distributions()
    imported = {_distribution(d) for m in third_party for d in owners[m]}
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert {_distribution(r) for r in declared} == imported == {"numpy", "scipy", "pyyaml"}
