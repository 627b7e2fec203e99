"""Benchmark of lyosim: one workload per run, closed loop, one thread.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures set-up time, peak heap allocation and
operation latency and throughput with tracing off.  With ``--trace 1`` it
alternates untraced and traced passes over the same operations and reports
per-layer times and counts from the traced passes.  Either way it checks the
outputs of every operation and prints, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# a fresh interpreter imports lyosim, then loads and builds each scenario
SETUP_CODE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
for mod in sys.argv[2].split(","):
    importlib.import_module(mod)
from lyosim.scenario import load_scenario
for name in sys.argv[3:]:
    load_scenario(name).parameters()
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_seconds(w) -> float:
    """Median wall time of fresh interpreters doing the workload's set-up.

    This process has imported lyosim already, so the bytecode caches exist
    and every sample costs the same.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), ",".join(w.setup_modules),
           *w.scenarios]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_alloc_mb(w) -> float:
    """Median over the workload's chosen operations of the peak traced heap."""
    peaks = []
    for k in w.alloc_ops:
        inp = w.prepare(k)
        tracemalloc.start()
        try:
            w.run(inp)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    return statistics.median(peaks)


def _closed_loop(w, seconds: float, failed_errors, run_op):
    """Run whole rounds until ``seconds`` have passed; returns (results, times,
    attempted, elapsed)."""
    from lyosim.errors import LyosimError

    results, times, attempted = [], [], 0
    t_start = time.perf_counter()
    while True:
        for _ in range(w.round_size):
            k = attempted
            attempted += 1
            try:
                out = run_op(k)
            except LyosimError as exc:
                failed_errors.append(f"op {k}: {exc}")
                continue
            results.append(out[0])
            times.append(out[1])
        if time.perf_counter() - t_start >= seconds:
            return results, times, attempted, time.perf_counter() - t_start


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lyosim" / "__init__.py").is_file():
        print(f"error: no lyosim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lyosim
    if Path(lyosim.__file__).resolve().parent != SRC / "lyosim":
        print(f"error: imported lyosim from {lyosim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, work_dir)
        failures: list[str] = []
        metrics: dict[str, dict] = {}
        if args.trace == 0:
            setup_s = _setup_seconds(w)
            peak_mb = _peak_alloc_mb(w)

            def run_op(k):
                inp = w.prepare(k)
                t0 = time.perf_counter()
                out = w.run(inp)
                return out, time.perf_counter() - t0

            results, times, attempted, elapsed = _closed_loop(w, args.seconds, failures,
                                                              run_op)
            if not times:
                print("error: no operation completed", file=sys.stderr)
                return 1
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "op_median_s": _metric(statistics.median(times), "s"),
                "ops_per_s": _metric(len(times) / elapsed, "1/s"),
                "peak_alloc_mb": _metric(peak_mb, "MB"),
            }
            errors = w.check(results)
        else:
            w.run(w.prepare(w.alloc_ops[0]))  # warm-up, as the untraced run's alloc pass
            tracer = spans.Tracer()
            plain_s = traced_s = 0.0

            def run_op(k):
                # the same operation untraced, then traced
                nonlocal plain_s, traced_s
                inp = w.prepare(k)
                t0 = time.perf_counter()
                w.run(inp)
                plain_s += time.perf_counter() - t0
                patches = spans.install(tracer)
                try:
                    out, wall = tracer.run_op(k, w.run, w.prepare(k))
                finally:
                    spans.uninstall(patches)
                traced_s += wall
                return out, wall

            results, times, attempted, elapsed = _closed_loop(w, args.seconds, failures,
                                                              run_op)
            if not times:
                print("error: no operation completed", file=sys.stderr)
                return 1
            attempted *= 2
            tot = tracer.layer_totals()
            for name, unit, _ in spans.per_layer_metrics():
                metrics[name] = _metric(tot.get(name, 0.0) / len(times), unit)
            ratio = tracer.useful_steps / tracer.all_steps if tracer.all_steps else 0.0
            metrics["freezing.useful_step_ratio"] = _metric(ratio, "ratio")
            metrics["trace.overhead_pct"] = _metric(100.0 * (traced_s / plain_s - 1.0), "%")
            errors = w.check(results) + tracer.check_nesting()
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.csv")
        for line in failures + errors:
            print(line, file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {"correct": not errors, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(report))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
