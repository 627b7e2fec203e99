"""Write and compare the outputs of every built-in scenario.

A change that should not move any result is checked by writing the
outputs of the 12 built-in scenarios under each of the five simulation
commands (``freeze``, ``primary``, ``secondary``, ``cycle``, ``failure``),
60 runs through ``lyosim.cli.main``, and a population of 50
``stochastic_freezing`` vials (``POPULATION``), once in each checkout, and
comparing the two directories::

    python tools/builtin_outputs.py write DIR
    python tools/builtin_outputs.py compare OLD NEW [--dropped KEY ...]

``write`` imports ``lyosim`` from the ``src`` directory beside this
script, so run it from the checkout whose outputs it should write.
``compare`` passes when every ``*_trajectory.csv`` and the population
table are byte-identical, every ``*_summary.json`` is identical apart from
``runtime_s``, and every ``*_parameters.json`` is identical apart from the
dotted keys named by ``--dropped``, which must be in OLD and gone from NEW.
It exits 1 and lists the differences otherwise.  For the summaries that
differ it also prints, for each stage end time under ``events``, the
largest relative shift |new/old - 1| and the run it came from.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

COMMANDS = ("freeze", "primary", "secondary", "cycle", "failure")
KINDS = ("trajectory.csv", "summary.json", "parameters.json")
POPULATION = "stochastic_freezing_population.csv"
VIALS = 50


def write_population(path: Path) -> None:
    """One row per vial of ``stochastic_freezing``, vial k frozen on the
    generator of ``SeedSequence(0, spawn_key=(k,))``, as ``perfbench``
    seeds its vials: nucleation time and temperature, the ends of
    solidification and freezing, the final temperature and the RHS calls,
    floats as ``repr``."""
    import numpy as np
    from lyosim import freezing, scenario

    p = scenario.load_scenario("stochastic_freezing").parameters()
    rows = ["vial,nucleation_s,trigger_temperature_K,solidification_end_s,"
            "freezing_end_s,final_temperature_K,nfev"]
    for k in range(VIALS):
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(k,)))
        traj = freezing.run_freezing(p.initial_vial_state(), p.freezing_system(),
                                     p.integrator, samples_per_stage=p.samples_per_stage,
                                     rng=rng)
        ev, meta = traj.events, traj.meta
        values = (ev["nucleation_s"], meta["nucleation"]["trigger_temperature_K"],
                  ev["solidification_end_s"], ev["freezing_end_s"], meta["final_state"].T)
        rows.append(",".join([str(k), *(repr(float(v)) for v in values),
                              str(meta["solver"]["nfev"])]))
    path.write_text("\n".join(rows) + "\n")


def write(out: Path) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from lyosim.cli import main
    from lyosim.scenario import builtin_scenarios

    out.mkdir(parents=True, exist_ok=True)
    failed = []
    for name in builtin_scenarios():
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--scenario", name, "--out", str(out)])
            if code != 0:
                failed.append(f"{name} {command}: exit {code}")
    write_population(out / POPULATION)
    for line in failed:
        print(line)
    print(f"wrote {len(list(out.glob('*_trajectory.csv')))} runs to {out}")
    return 1 if failed else 0


def _pop(data: dict, dotted: str) -> bool:
    """Remove the entry at the dotted path from ``data``; whether it was
    there."""
    *parents, last = dotted.split(".")
    for part in parents:
        data = data.get(part, {})
    found = last in data
    data.pop(last, None)
    return found


def end_time_shifts(runs) -> dict[str, tuple[float, str]]:
    """{event: (largest |new/old - 1|, run)} over the ``events`` of the
    (run, old summary, new summary) triples in ``runs``; an event in one
    summary only, or at 0 s in the old one, has no relative shift."""
    largest: dict[str, tuple[float, str]] = {}
    for run, a, b in runs:
        for event, t_old in a.get("events", {}).items():
            t_new = b.get("events", {}).get(event)
            if t_new is None or t_old == 0:
                continue
            shift = abs(t_new / t_old - 1.0)
            if event not in largest or shift > largest[event][0]:
                largest[event] = (shift, run)
    return largest


def compare(old: Path, new: Path, dropped: list[str]) -> int:
    problems = []
    moved = []  # (run, old summary, new summary) of the summaries that differ
    names = {kind: sorted(p.name for p in old.glob(f"*_{kind}")) for kind in KINDS}
    for kind in KINDS:
        theirs = sorted(p.name for p in new.glob(f"*_{kind}"))
        if theirs != names[kind]:
            problems.append(f"*_{kind}: {len(names[kind])} files in {old}, "
                            f"{len(theirs)} in {new}, or other names")
    for name in names["trajectory.csv"]:
        if (new / name).exists() and (old / name).read_bytes() != (new / name).read_bytes():
            problems.append(f"{name} differs")
    if not ((old / POPULATION).exists() and (new / POPULATION).exists()):
        problems.append(f"{POPULATION} is missing")
    elif (old / POPULATION).read_bytes() != (new / POPULATION).read_bytes():
        problems.append(f"{POPULATION} differs")
    for name in names["summary.json"]:
        if (new / name).exists():
            a, b = (json.loads((d / name).read_text()) for d in (old, new))
            a.pop("runtime_s", None)  # the wall time of a cycle run
            b.pop("runtime_s", None)
            if a != b:
                problems.append(f"{name} differs apart from runtime_s")
                moved.append((name.removesuffix("_summary.json"), a, b))
    for name in names["parameters.json"]:
        if not (new / name).exists():
            continue
        a, b = (json.loads((d / name).read_text()) for d in (old, new))
        for key in dropped:
            if not _pop(a, key):
                problems.append(f"{name}: {key} is not in {old}")
            if _pop(b, key):
                problems.append(f"{name}: {key} is still in {new}")
        if a != b:
            problems.append(f"{name} differs apart from {', '.join(dropped) or 'nothing'}")
    for line in problems:
        print(line)
    for event, (shift, run) in end_time_shifts(moved).items():
        print(f"largest shift of {event}: {shift:.3e} ({run})")
    print(f"compared {len(names['trajectory.csv'])} runs and {POPULATION}: "
          f"{'identical' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("write", help="write the outputs of every built-in run to DIR")
    p.add_argument("dir", type=Path)
    p = sub.add_parser("compare", help="check the outputs in NEW against those in OLD")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--dropped", action="append", default=[], metavar="KEY",
                   help="dotted parameter key that NEW no longer writes (repeatable)")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.dir)
    return compare(args.old, args.new, args.dropped)


if __name__ == "__main__":
    sys.exit(main())
