"""Write and compare the outputs of every built-in scenario.

A change that should not move any result is checked by writing the
outputs of the 12 built-in scenarios under each of the five simulation
commands (``freeze``, ``primary``, ``secondary``, ``cycle``, ``failure``),
60 runs through ``lyosim.cli.main``, once in each checkout, and comparing
the two directories::

    python tools/builtin_outputs.py write DIR
    python tools/builtin_outputs.py compare OLD NEW [--dropped KEY ...]

``write`` imports ``lyosim`` from the ``src`` directory beside this
script, so run it from the checkout whose outputs it should write.
``compare`` passes when every ``*_trajectory.csv`` is byte-identical, every
``*_summary.json`` is identical apart from ``runtime_s``, and every
``*_parameters.json`` is identical apart from the dotted keys named by
``--dropped``, which must be in OLD and gone from NEW.  It exits 1 and
lists the differences otherwise.
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


def compare(old: Path, new: Path, dropped: list[str]) -> int:
    problems = []
    names = {kind: sorted(p.name for p in old.glob(f"*_{kind}")) for kind in KINDS}
    for kind in KINDS:
        theirs = sorted(p.name for p in new.glob(f"*_{kind}"))
        if theirs != names[kind]:
            problems.append(f"*_{kind}: {len(names[kind])} files in {old}, "
                            f"{len(theirs)} in {new}, or other names")
    for name in names["trajectory.csv"]:
        if (new / name).exists() and (old / name).read_bytes() != (new / name).read_bytes():
            problems.append(f"{name} differs")
    for name in names["summary.json"]:
        if (new / name).exists():
            a, b = (json.loads((d / name).read_text()) for d in (old, new))
            a.pop("runtime_s", None)  # the wall time of a cycle run
            b.pop("runtime_s", None)
            if a != b:
                problems.append(f"{name} differs apart from runtime_s")
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
    print(f"compared {len(names['trajectory.csv'])} runs: "
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
