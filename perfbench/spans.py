"""Span tracing of lyosim from outside the package.

:func:`install` replaces the lyosim functions the benchmark measures, and the
scipy BDF routines that ``solver.integrate_adaptive`` reaches, with wrappers
that record one span per call: its name, start, end and parent span.  Nothing
in the package changes; the wrappers are bound in place of the originals in
every lyosim module that holds a reference to them, and :func:`uninstall`
puts the originals back.  Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the time its child spans cover.
Because every wrapper opens and closes its span on the one call stack, the
self times of all spans of an operation add up to the operation's span.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

# the stage drivers; solver-level spans are charged to the innermost one
STAGES = {
    ("freezing", "run_freezing"): "freezing",
    ("drying_primary", "run_primary"): "drying_primary",
    ("chamber", "run_primary_with_condenser"): "chamber",
    ("drying_secondary", "run_secondary"): "drying_secondary",
}
# other entry points, with the layer name their spans carry
ENTRY_POINTS = {
    ("cli", "main"): "cli.run",
    ("scenario", "load_scenario"): "scenario.load",
    ("params", "build_parameters"): "params.build",
    ("pipeline", "run_full_cycle"): "pipeline.cycle",
    ("trajectory", "write_trajectory_csv"): "trajectory.write_csv",
}
STAGE_METRICS = (
    ("stage_s", "s", "lower"), ("integrate_s", "s", "lower"), ("step_s", "s", "lower"),
    ("steps", "count", "lower"), ("nfev", "count", "lower"), ("njev", "count", "lower"),
    ("rhs_s", "s", "lower"), ("rhs_calls", "count", "lower"), ("jac_s", "s", "lower"),
    ("lu_s", "s", "lower"), ("lu_count", "count", "lower"), ("solve_s", "s", "lower"),
    ("newton_s", "s", "lower"), ("event_s", "s", "lower"), ("resample_s", "s", "lower"),
    ("dense_points", "count", "lower"), ("package_s", "s", "lower"),
)
OTHER_METRICS = (
    ("freezing.useful_step_ratio", "ratio", "higher"),
    ("scenario.load_s", "s", "lower"), ("params.build_s", "s", "lower"),
    ("pipeline.cycle_s", "s", "lower"), ("pipeline.self_s", "s", "lower"),
    ("trajectory.write_csv_s", "s", "lower"),
    ("cli.run_s", "s", "lower"), ("cli.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = [(f"{stage}.{m}", unit, better) for stage in STAGES.values()
           for m, unit, better in STAGE_METRICS]
    return out + list(OTHER_METRICS)


class Tracer:
    """In-memory span recorder.

    A span is ``[layer, kind, start, end, parent, op]``; ``layer`` is the
    stage (or entry-point layer) the call belongs to and ``kind`` what it
    is (``stage``, ``integrate``, ``rhs``, ``lu`` ...).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.op = -1
        self._stack: list[int] = []
        self._layer: list[str] = ["op"]
        # per-op integration records of the freezing stage, for step usefulness
        self._integrations: dict[int, dict] = {}
        self.useful_steps = 0
        self.all_steps = 0

    def open(self, layer: str, kind: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, kind, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def call(self, kind: str, fn, *args, **kwargs):
        i = self.open(self._layer[-1], kind)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def run_op(self, op: int, fn, *args) -> tuple[object, float]:
        """Run one operation under a root span; returns (result, wall s)."""
        self.op = op
        i = self.open("op", "op")
        try:
            result = fn(*args)
        finally:
            self.close(i)
            self._settle_integrations()
        span = self.spans[i]
        return result, span[3] - span[2]

    # ---- wrappers -----------------------------------------------------------

    def stage(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            self._layer.append(layer)
            i = self.open(layer, "stage")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                self._layer.pop()
        return wrapper

    def entry(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            i = self.open(layer, "entry")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def timed(self, kind: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(kind, fn, *args, **kwargs)
        return wrapper

    def integrate(self, fn):
        def wrapper(rhs, t_span, y0, *args, events=None, **kwargs):
            timed_rhs = self.timed("rhs", rhs)
            if events:
                events = [dataclasses.replace(ev, func=self.timed("event", ev.func))
                          for ev in events]
            i = self.open(self._layer[-1], "integrate")
            try:
                res = fn(timed_rhs, t_span, y0, *args, events=events, **kwargs)
            finally:
                self.close(i)
            self.attrs[i] = {"steps": res.t.shape[0] - 1, "nfev": res.nfev,
                             "njev": res.njev}
            if self._layer[-1] == "freezing":
                self._integrations[id(res.sol)] = {"t": res.t, "used": float(res.t[-1])}
            return res
        return wrapper

    def dense_output(self, fn):
        def wrapper(sol, t):
            i = self.open(self._layer[-1], "resample")
            try:
                return fn(sol, t)
            finally:
                self.close(i)
                self.attrs[i] = {"points": int(np.size(t))}
                rec = self._integrations.get(id(sol))
                if rec is not None:  # the last request marks how far it was used
                    rec["used"] = float(np.max(t))
        return wrapper

    def splu(self, fn):
        tracer = self

        class TimedLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, b):
                return tracer.call("solve", self._lu.solve, b)

        def wrapper(A):
            return TimedLU(self.call("lu", fn, A))
        return wrapper

    def _settle_integrations(self) -> None:
        for rec in self._integrations.values():
            step_ends = rec["t"][1:]
            self.useful_steps += int(np.count_nonzero(step_ends <= rec["used"]))
            self.all_steps += int(step_ends.shape[0])
        self._integrations.clear()

    # ---- reporting ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.array([s[3] - s[2] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[4] >= 0:
                own[s[4]] -= d
        return own

    def check_nesting(self) -> list[str]:
        """Errors where spans do not nest or self times do not add up."""
        errors = []
        own = self.self_times()
        roots: dict[int, int] = {}
        sums: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s[4] < 0:
                roots[s[5]] = i
            else:
                p = self.spans[s[4]]
                if not (p[2] <= s[2] <= s[3] <= p[3]):
                    errors.append(f"span {i} ({s[0]}.{s[1]}) lies outside its parent")
            sums[s[5]] = sums.get(s[5], 0.0) + own[i]
        for op, i in roots.items():
            wall = self.spans[i][3] - self.spans[i][2]
            if abs(sums[op] - wall) > 1e-9 * max(wall, 1.0):
                errors.append(f"op {op}: self times add up to {sums[op]!r} s, "
                              f"wall time is {wall!r} s")
        return errors[:5]

    def layer_totals(self) -> dict[str, float]:
        """Per-layer sums over every recorded operation."""
        tot: dict[str, float] = {}

        def add(key: str, v: float) -> None:
            tot[key] = tot.get(key, 0.0) + v

        own = self.self_times()
        for i, s in enumerate(self.spans):
            layer, kind, dur, me = s[0], s[1], s[3] - s[2], own[i]
            if kind == "stage":
                add(f"{layer}.stage_s", dur)
                add(f"{layer}.package_s", me)
            elif kind == "integrate":
                add(f"{layer}.integrate_s", dur)
                add(f"{layer}.step_s", me)
                for k, v in self.attrs.get(i, {}).items():  # none if it raised
                    add(f"{layer}.{k}", v)
            elif kind == "resample":
                add(f"{layer}.resample_s", me)
                add(f"{layer}.dense_points", self.attrs[i]["points"])
            elif kind == "lu":
                add(f"{layer}.lu_s", me)
                add(f"{layer}.lu_count", 1)
            elif kind == "rhs":
                add(f"{layer}.rhs_s", me)
                add(f"{layer}.rhs_calls", 1)
            elif kind in ("jac", "solve", "newton", "event"):
                add(f"{layer}.{kind}_s", me)
            elif kind == "entry":
                add(f"{layer}_s", dur)
                if layer in ("pipeline.cycle", "cli.run"):
                    add(f"{layer.split('.')[0]}.self_s", me)
        return tot

    def write(self, path: Path) -> None:
        """Write the spans as CSV: op, span, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i, s in enumerate(self.spans):
                name = s[0] if s[1] in ("entry", "op") else f"{s[0]}.{s[1]}"
                fh.write(f"{s[5]},{i},{s[4]},{name},{s[2]!r},{s[3]!r}\n")


def _lyosim_modules():
    import lyosim
    mods = [lyosim]
    for info in pkgutil.iter_modules(lyosim.__path__):
        if not info.name.startswith("_"):  # lyosim.__main__ runs the CLI on import
            mods.append(importlib.import_module(f"lyosim.{info.name}"))
    return mods


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Bind the tracing wrappers; returns what :func:`uninstall` restores."""
    from scipy.integrate._ivp import bdf, ivp
    from scipy.integrate._ivp.common import OdeSolution

    patches: list[tuple[object, str, object]] = []

    def patch(obj, attr: str, new) -> None:
        patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    mods = _lyosim_modules()
    targets = [(key, partial(tracer.stage, layer)) for key, layer in STAGES.items()]
    targets += [(key, partial(tracer.entry, layer)) for key, layer in ENTRY_POINTS.items()]
    targets.append((("solver", "integrate_adaptive"), tracer.integrate))
    for (mod, fn), make in targets:
        original = getattr(importlib.import_module(f"lyosim.{mod}"), fn)
        wrapped = make(original)
        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patch(m, attr, wrapped)

    patch(bdf, "num_jac", tracer.timed("jac", bdf.num_jac))
    patch(bdf, "solve_bdf_system", tracer.timed("newton", bdf.solve_bdf_system))
    patch(bdf, "lu_factor", tracer.timed("lu", bdf.lu_factor))
    patch(bdf, "lu_solve", tracer.timed("solve", bdf.lu_solve))
    patch(bdf, "splu", tracer.splu(bdf.splu))
    patch(ivp, "handle_events", tracer.timed("event", ivp.handle_events))
    patch(OdeSolution, "__call__", tracer.dense_output(OdeSolution.__call__))
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for obj, attr, original in reversed(patches):
        setattr(obj, attr, original)
