"""One workload in one process: set up, run whole passes for the given time, check, report.

run.py starts this file once per measurement, so every workload runs in a
fresh process with one thread and one caller.  BLAS and OpenMP pools are
pinned to one thread before numpy is imported, and each operation starts
when the previous one returns (a closed loop).  The worker prints READY
once set-up is done (package imported, inputs generated, warm-up run);
unless --setup-only is given it then runs whole passes over its inputs
until --seconds have elapsed, checks the outputs, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import LAYERS, Tracer

# set before anything imports numpy (workloads, checks and the program do, inside main)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def load_program() -> SimpleNamespace:
    """Import pmp_thermo from this checkout's src, never from an installed copy."""
    init = SRC / "pmp_thermo" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: program source not found at {init}")
    sys.path.insert(0, str(SRC))
    import pmp_thermo
    from pmp_thermo import bruteforce, cli, lindblad, planner, pmp, two_level

    if Path(pmp_thermo.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported pmp_thermo from {pmp_thermo.__file__}, not {init}")
    modules = {
        "two_level": two_level,
        "planner": planner,
        "lindblad": lindblad,
        "pmp": pmp,
        "cli": cli,
        "bruteforce": bruteforce,
    }
    return SimpleNamespace(modules=modules, **modules)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tr, outputs: list, passes: int) -> dict:
    """Per-layer metrics of a traced run; per operation unless the name says per call."""
    ops = tr.calls["op"]
    m = {f"{layer}.self_ms": _metric(tr.layer_self_ns[layer] / ops / 1e6, "ms") for layer in LAYERS}

    def per_op(name):
        return tr.calls[name] / ops

    def per_call(name, parent):
        n = tr.calls[parent]
        return tr.calls_within[(name, parent)] / n if n else 0.0

    def total(key):  # over the outputs of one pass that carry `key`
        return sum(o[key] for o in outputs if isinstance(o, dict) and key in o)

    evaluated = total("n_evaluated")
    feasible = total("n_feasible")
    search_s = tr.total_ns["bruteforce.grid_search"] / 1e9
    m.update(
        {
            "two_level.solve_engine.ms": _metric(tr.per_call_ms("two_level.solve_engine"), "ms"),
            "two_level.adiabatic_f_min.calls": _metric(
                per_call("two_level.adiabatic_f_min", "two_level.solve_engine"), "count"
            ),
            "two_level.find_jump_points.calls": _metric(per_op("two_level.find_jump_points"), "count"),
            "two_level.find_jump_points.ms": _metric(tr.per_call_ms("two_level.find_jump_points"), "ms"),
            "planner.plan_for_deadline.ms": _metric(tr.per_call_ms("planner.plan_for_deadline"), "ms"),
            "planner.build_trajectory.calls": _metric(per_op("planner.build_trajectory"), "count"),
            "planner.build_trajectory.ms": _metric(tr.per_call_ms("planner.build_trajectory"), "ms"),
            "planner.sample_plan.ms": _metric(tr.per_call_ms("planner.sample_plan"), "ms"),
            "planner.validate_plan.ms": _metric(tr.per_call_ms("planner.validate_plan"), "ms"),
            "planner.chi.calls": _metric(per_op("planner.chi"), "count"),
            "lindblad.integrate.ms": _metric(tr.per_call_ms("lindblad.integrate"), "ms"),
            "lindblad.lindblad_rhs.calls": _metric(
                per_call("lindblad.lindblad_rhs", "lindblad.integrate"), "count"
            ),
            "pmp.stationarity_residual.calls": _metric(per_op("pmp.stationarity_residual"), "count"),
            "cli.trajectory.ms": _metric(tr.per_call_ms("cli.trajectory"), "ms"),
            "cli.trajectory.out_kb": _metric(total("out_bytes") / len(outputs) / 1024, "KB"),
            "bruteforce.grid_search.ms": _metric(tr.per_call_ms("bruteforce.grid_search"), "ms"),
            "bruteforce.grid_search.mprotocols_per_s": _metric(
                passes * evaluated / search_s / 1e6 if search_s else 0.0, "M/s"
            ),
            "bruteforce.grid_search.feasible_share": _metric(feasible / evaluated if evaluated else 0.0, "1"),
        }
    )
    return m


def measure(wl, prog, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(prog.modules)
    n_inputs = len(wl.inputs)
    durations: list[float] = []
    first: list | None = None
    failed = 0
    errors: list[str] = []
    differing_passes: list[int] = []
    pass_s: list[float] = []
    passes = 0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        outs = []
        for i in range(n_inputs):
            frame = tracer.begin_op(i) if tracer else None
            t0 = time.perf_counter()
            try:
                out = wl.run(i)
            except Exception as exc:  # a failing operation is counted, and the run goes on
                out = None
                failed += 1
                errors.append(f"input {i}: {exc!r}")
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(frame)
            durations.append(t1 - t0)
            outs.append(out)
        pass_s.append(time.perf_counter() - t_pass)
        passes += 1
        if first is None:
            first = outs
        elif outs != first:
            differing_passes.append(passes)
        if time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    try:
        failures = wl.check(first)
    except Exception as exc:  # a check that cannot run counts against correctness
        failures = [f"check raised {exc!r}"]
    if differing_passes:
        failures.append(f"outputs of passes {differing_passes[:5]} differ from the first pass")

    attempted = passes * n_inputs
    ops_per_s = (attempted - failed) / wall
    if tracer:
        metrics = layer_metrics(tracer, first, passes)
    else:
        metrics = {
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "op_p50_ms": _metric(statistics.median(durations) * 1e3, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    detail = {
        "passes": passes,
        "ops_per_pass": n_inputs,
        "wall_s": wall,
        "pass_s": pass_s,
        "ops_per_s": ops_per_s,
        **wl.detail(),
        "failures": failures[:20],
        "errors": errors[:20],
    }
    if tracer:
        summary = tracer.summary()
        detail["unaccounted_share"] = summary["unaccounted_share"]
        path = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
        detail["trace_file"] = str(path.relative_to(HERE.parent))
        tracer.write(path, {"workload": wl.name, "seed": wl.seed, "ops_per_s": ops_per_s})
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    prog = load_program()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, prog, scratch)
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, prog, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
