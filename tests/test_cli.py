"""End-to-end tests of the command line interface.

Each test drives ``lyosim.cli.main`` in-process (it returns the exit
code) and inspects the files written to a temporary output directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lyosim
from lyosim.cli import main
from lyosim.trajectory import CSV_COLUMNS


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


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


COUNTERS = {"steps", "nfev", "njev", "nlu"}


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
        assert all(type(v) is int for v in counters.values())
        assert counters["steps"] > 0
    if command in ("primary", "secondary", "failure"):
        assert type(summary["n_z"]) is int and summary["n_z"] == 51


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
                                  "freezing=1:2:2"])
def test_bad_sweep_spec_exits_2(tmp_path, capsys, spec):
    code = main(["freeze", "--out", str(tmp_path), "--sweep", spec])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
