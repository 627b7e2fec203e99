"""Command-line interface.

Subcommands run a single stage, the full cycle, the condenser-failure
variant, or the transport-scale analysis, all driven by a scenario file
(or built-in scenario name).  Outputs are a trajectory table (CSV or
JSON), a run summary, and the fully merged parameter set for audit.

Exit codes: 0 success, 2 scenario/configuration problem, 3 simulation
failure, 4 comparison failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import PorousMedium, biot_number, cylinder_eigenvalues, \
    effective_diffusivity, time_scales
from .compare import ComparisonReport, ReferenceSeries, compare_with_reference
from .drying_primary import run_primary
from .drying_secondary import run_secondary
from .errors import ComparisonError, ConfigurationError, DomainError, \
    ScenarioError, SimulationError
from .freezing import run_freezing
from .params import ParameterSet, _build
from .pipeline import run_full_cycle
from .scenario import Scenario, builtin_scenarios, load_scenario, validate_scenario
from .trajectory import Trajectory, trajectory_json_dict, write_trajectory_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyosim",
        description="Process simulator for continuous lyophilization of "
                    "suspended vials.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "freeze": "run the freezing stage only",
        "primary": "run primary drying only",
        "secondary": "run secondary drying only",
        "cycle": "run the full freeze-dry cycle",
        "failure": "run primary drying coupled to a saturating condenser",
        "analyze": "report transport numbers and limiting time scales",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--scenario", default="defaults",
                       help="scenario file path or built-in name "
                            f"(built-ins: {', '.join(builtin_scenarios())})")
        p.add_argument("--out", default=None,
                       help="output directory (default: the scenario's "
                            "output.directory, else $LYOSIM_OUTPUT_DIR, else cwd)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario random seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trajectory table format")
        p.add_argument("--assert", action="store_true", dest="check_thresholds",
                       help="exit 4 if comparison thresholds are exceeded")
        if name != "analyze":
            p.add_argument("--sweep", default=None, metavar="PARAM=START:STOP:N",
                           help="repeat the run over a linear sweep of one "
                                "scenario value (dotted path, e.g. "
                                "primary.shelf_temperature_K=260:280:5)")
    return parser


def _output_dir(args, scenario: Scenario) -> Path:
    """Create and return the output directory: ``--out``, else the
    scenario's ``output.directory``, else ``$LYOSIM_OUTPUT_DIR``, else the
    current directory."""
    path = Path(args.out or scenario.output_directory()
                or os.environ.get("LYOSIM_OUTPUT_DIR") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


# a cycle water balance open by more than this fraction of the fill is flagged
WATER_CLOSURE_LIMIT = 0.01


def _solver_counters(meta: dict[str, Any]) -> dict[str, Any]:
    """A stage's solver counters without their wall time, so that repeated
    runs write identical summaries."""
    return {k: v for k, v in meta["solver"].items() if k != "wall_s"}


def _stage_meta(meta: dict[str, Any]) -> dict[str, Any]:
    """A stage's numeric meta entries, as they are, and its solver counters."""
    out = {k: v for k, v in meta.items()
           if isinstance(v, (int, float)) and not isinstance(v, bool)}
    if "solver" in meta:
        out["solver"] = _solver_counters(meta)
    return out


def _cycle_diagnostics(water_balance: dict[str, float],
                       consistent_water: bool) -> dict[str, Any]:
    """Flags for cycle bookkeeping that does not close: a water balance
    open by more than :data:`WATER_CLOSURE_LIMIT`, with its cause when it
    is known."""
    closure = water_balance["closure_relative"]
    flags = []
    if abs(closure) > WATER_CLOSURE_LIMIT:
        flags.append({
            "check": "water_balance.closure_relative",
            "value": closure,
            "limit": WATER_CLOSURE_LIMIT,
            # without it the drying stages start from the scenario's
            # dried-layer density and bound water, not from the frozen vial
            "cause": None if consistent_water else "pipeline.consistent_water: false",
        })
    return {"flags": flags}


def _run_one(command: str, params: ParameterSet) -> tuple[Trajectory, dict[str, Any]]:
    """Run one simulation subcommand; returns (trajectory, summary)."""
    if command == "cycle":
        result = run_full_cycle(params)
        t = result.stage_times
        return result.combined, {
            "events": dict(t),
            "stage_durations_s": {
                "freezing": t["freezing_end_s"],
                "primary_drying": t["primary_drying_end_s"] - t["freezing_end_s"],
                "secondary_drying": t["secondary_drying_end_s"]
                                    - t["primary_drying_end_s"],
            },
            "water_balance": result.water_balance,
            "diagnostics": _cycle_diagnostics(result.water_balance,
                                              params.consistent_water),
            "solver": {stage: _solver_counters(meta)
                       for stage, meta in result.combined.meta.items() if "solver" in meta},
            "runtime_s": result.runtime_s,
            "end_time_s": t["cycle_end_s"],
        }
    if command == "freeze":
        traj = run_freezing(params.initial_vial_state(), params.freezing_system(),
                            params.integrator,
                            samples_per_stage=params.samples_per_stage)
    elif command in ("primary", "failure"):
        # failure: the same stage under the chamber's saturating condenser
        traj = run_primary(params.primary_initial_T, params.primary,
                           params.radiation, params.geometry,
                           params.chamber if command == "failure" else None,
                           n_z=params.n_z, config=params.integrator,
                           time_limit_s=params.primary_time_limit_s,
                           samples=params.samples_per_stage)
    elif command == "secondary":
        traj = run_secondary(params.secondary_initial_T, params.bound_water_profile(),
                             params.secondary, params.radiation,
                             params.secondary_conditions, params.geometry,
                             c_target=params.bound_water_target, n_z=params.n_z,
                             config=params.integrator,
                             time_limit_s=params.secondary_time_limit_s,
                             samples=params.samples_per_stage)
    else:  # pragma: no cover - argparse restricts the choices
        raise ScenarioError(f"unknown command {command!r}")
    summary: dict[str, Any] = {"events": dict(traj.events), **_stage_meta(traj.meta)}
    if command == "freeze":
        fs = traj.meta["final_state"]
        summary.update(nucleation=traj.meta["nucleation"], final_temperature_K=fs.T,
                       final_ice_mass_kg=fs.m_i, final_water_mass_kg=fs.m_w)
    summary["end_time_s"] = traj.t_end
    return traj, summary


def _transport_report(block: dict[str, Any]) -> dict[str, Any]:
    medium = _build(PorousMedium, {"transport_analysis": block})
    diff = effective_diffusivity(medium, block["temperature_K"],
                                 block["molar_mass_g_per_mol"])
    scales = time_scales(block["length_scale_m"], diff.D_e,
                         block["desorption_rate_per_s"])
    biot = []
    for entry in block["biot"]:
        Bi = biot_number(entry["htc_W_per_m2K"], entry["length_m"],
                         entry["conductivity_W_per_mK"])
        lam = cylinder_eigenvalues(Bi, 3)
        biot.append({
            "label": entry["label"],
            "biot": Bi,
            "lumped_capacitance_valid": bool(Bi < 0.1),
            "cylinder_eigenvalues": [float(x) for x in lam],
        })
    return {
        "biot": biot,
        "diffusivity": {
            "knudsen_m2_per_s": diff.D_knudsen,
            "gas_effective_m2_per_s": diff.D_gas_eff,
            "knudsen_effective_m2_per_s": diff.D_knudsen_eff,
            "effective_m2_per_s": diff.D_e,
        },
        "time_scales": scales.as_dict(),
    }


def _print_transport(report: dict[str, Any]) -> None:
    for row in report["biot"]:
        regime = "lumped ok" if row["lumped_capacitance_valid"] else "distributed"
        print(f"  Bi({row['label']}) = {row['biot']:.4g}  [{regime}]")
    d = report["diffusivity"]
    print(f"  D_knudsen = {d['knudsen_m2_per_s']:.4g} m^2/s, "
          f"D_effective = {d['effective_m2_per_s']:.4g} m^2/s")
    t = report["time_scales"]
    print(f"  diffusion {t['diffusion_s']:.4g} s vs desorption "
          f"{t['desorption_s']:.4g} s -> {t['limiting']}-limited "
          f"(ratio {t['desorption_to_diffusion_ratio']:.3g})")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else v
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _flatten(d: dict[str, Any], prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, f"{key}."))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[key] = float(v)
    return out


def _set_by_path(data: dict[str, Any], path: str, value: float) -> None:
    keys = path.split(".")
    node = data
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ScenarioError(f"sweep path {path!r} not found in the scenario")
        node = node[k]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ScenarioError(f"sweep path {path!r} not found in the scenario")
    if not isinstance(node[leaf], (int, float)) or isinstance(node[leaf], bool):
        raise ScenarioError(f"sweep path {path!r} is not a numeric scalar")
    node[leaf] = value


def _parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    try:
        path, rng = spec.split("=", 1)
        lo, hi, n = rng.split(":")
        values = np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ScenarioError(
            f"bad --sweep spec {spec!r}; expected PARAM=START:STOP:N") from exc
    if values.shape[0] < 1:
        raise ScenarioError("sweep needs at least one point")
    return path, values


def _compare(traj: Trajectory, scenario: Scenario) -> ComparisonReport | None:
    block = scenario.comparison()
    if block is None:
        return None
    ref = ReferenceSeries.from_csv(block["reference_csv"],
                                   time_column=block.get("time_column", "time_s"),
                                   value_column=block.get("value_column", "value"))
    return compare_with_reference(traj, ref, block["observable"],
                                  thresholds=block.get("thresholds"))


def _dispatch(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.data["seed"] = args.seed
        validate_scenario(scenario.data, where=f"--seed {args.seed}")
    prefix = f"{scenario.name}_{args.command}"
    # each command builds its inputs before it makes the output directory,
    # so a run that a bad input ends leaves no directory behind

    if args.command == "analyze":
        report = _transport_report(scenario.transport())
        path = _output_dir(args, scenario) / f"{prefix}.json"
        path.write_text(json.dumps(_json_safe(report), indent=2) + "\n")
        print(f"transport analysis ({scenario.name}):")
        _print_transport(report)
        print(f"wrote {path}")
        return 0

    if getattr(args, "sweep", None):
        path_spec, values = _parse_sweep(args.sweep)
        points = []
        for v in values:
            data = copy.deepcopy(scenario.data)
            _set_by_path(data, path_spec, float(v))
            validate_scenario(data, where=f"sweep point {path_spec}={v:g}")
            points.append(Scenario(data, scenario.source).parameters())
        out_dir = _output_dir(args, scenario)
        rows: list[dict[str, float]] = []
        for v, params in zip(values, points):
            traj, summary = _run_one(args.command, params)
            row = {"value": float(v)}
            row.update(_flatten(summary))
            rows.append(row)
            print(f"  {path_spec} = {v:g}: end_time_s = {traj.t_end:g}")
        cols = ["value"]
        for r in rows:
            for k in r:
                if k not in cols:
                    cols.append(k)
        sweep_path = out_dir / f"{prefix}_sweep.csv"
        with sweep_path.open("w", newline="") as fh:
            fh.write(",".join(["parameter"] + cols) + "\n")
            for r in rows:
                cells = [path_spec] + [repr(r[c]) if c in r else "nan" for c in cols]
                fh.write(",".join(cells) + "\n")
        print(f"wrote {sweep_path}")
        return 0

    params = scenario.parameters()
    out_dir = _output_dir(args, scenario)
    traj, summary = _run_one(args.command, params)
    report = _compare(traj, scenario)
    exit_code = 0
    if report is not None:
        summary["comparison"] = {"metrics": report.metrics,
                                 "failures": report.failures,
                                 "passed": report.passed}
        for line in report.lines():
            print(line)
        if args.check_thresholds and not report.passed:
            exit_code = 4

    if args.format == "csv":
        table = out_dir / f"{prefix}_trajectory.csv"
        write_trajectory_csv(traj, table)
    else:
        table = out_dir / f"{prefix}_trajectory.json"
        table.write_text(json.dumps(_json_safe(trajectory_json_dict(traj)), indent=2)
                         + "\n")
    summary_path = out_dir / f"{prefix}_summary.json"
    summary_path.write_text(json.dumps(_json_safe(summary), indent=2) + "\n")
    params_path = out_dir / f"{prefix}_parameters.json"
    params_path.write_text(scenario.effective_json() + "\n")

    for name, t in sorted(traj.events.items(), key=lambda kv: kv[1]):
        print(f"  {name:28s} {t:14.3f}")
    print(f"wrote {table}, {summary_path}, {params_path}")
    if exit_code == 4:
        print("comparison thresholds exceeded", file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ScenarioError, ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComparisonError as exc:
        print(f"comparison error: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
