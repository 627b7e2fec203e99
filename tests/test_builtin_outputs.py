"""The byte-identity check of ``tools/builtin_outputs.py compare`` on small
hand-made output directories (no simulation runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "builtin_outputs", Path(__file__).resolve().parents[1] / "tools" / "builtin_outputs.py")
builtin_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(builtin_outputs)

TRAJECTORY = b"t,stage,temperature_avg_K\n0.0,freezing,293.15\n60.0,freezing,290.5\n"
POPULATION = b"vial,nucleation_s\n0,757.9\n1,812.25\n"


def _write(d: Path, *, trajectory=TRAJECTORY, population=POPULATION, runtime=0.5,
           parameters=None) -> Path:
    d.mkdir()
    (d / "defaults_cycle_trajectory.csv").write_bytes(trajectory)
    (d / "defaults_cycle_summary.json").write_text(
        json.dumps({"runtime_s": runtime, "events": {"freezing_end_s": 5400.0}}))
    (d / "defaults_cycle_parameters.json").write_text(json.dumps(
        parameters or {"grid": {"n_nodes": 51}, "integrator": {"rtol": 1e-6}}))
    (d / builtin_outputs.POPULATION).write_bytes(population)
    return d


def _compare(old: Path, new: Path, *dropped: str) -> int:
    argv = ["compare", str(old), str(new)]
    for key in dropped:
        argv += ["--dropped", key]
    return builtin_outputs.main(argv)


def test_identical_directories_pass(tmp_path, capsys):
    assert _compare(_write(tmp_path / "old"), _write(tmp_path / "new")) == 0
    assert "compared 1 runs" in capsys.readouterr().out


def test_a_summary_that_differs_only_in_runtime_passes(tmp_path):
    assert _compare(_write(tmp_path / "old"), _write(tmp_path / "new", runtime=9.0)) == 0


def test_a_flipped_trajectory_byte_fails(tmp_path, capsys):
    flipped = bytearray(TRAJECTORY)
    flipped[-2] ^= 1  # the last digit of the last temperature
    assert _compare(_write(tmp_path / "old"), _write(tmp_path / "new",
                                                     trajectory=bytes(flipped))) == 1
    assert "defaults_cycle_trajectory.csv differs" in capsys.readouterr().out


def test_a_population_difference_fails(tmp_path, capsys):
    new = _write(tmp_path / "new", population=POPULATION.replace(b"812.25", b"812.26"))
    assert _compare(_write(tmp_path / "old"), new) == 1
    assert f"{builtin_outputs.POPULATION} differs" in capsys.readouterr().out


@pytest.mark.parametrize("still_there", [False, True])
def test_dropped_key_must_be_gone_from_new(tmp_path, capsys, still_there):
    old = _write(tmp_path / "old")
    kept = {"grid": {"n_nodes": 51}, "integrator": {"rtol": 1e-6}}
    if not still_there:
        del kept["integrator"]["rtol"]
    new = _write(tmp_path / "new", parameters=kept)
    assert _compare(old, new, "integrator.rtol") == (1 if still_there else 0)
    out = capsys.readouterr().out
    assert ("integrator.rtol is still in" in out) == still_there
