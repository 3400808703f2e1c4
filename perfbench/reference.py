"""Reference timings of single calls, on the fixed inputs of the ROADMAP baseline table.

    python3 perfbench/reference.py

Runs in one process set up like a benchmark worker (one BLAS/OpenMP thread,
pmp_thermo imported from this checkout's src), times each call with
perf_counter (after one untimed call when it repeats), and prints the median of the repeats
as a Markdown table; the same figures go to perfbench/out/reference.json.
The n=8, L=8 grid search alone takes about half a minute.
"""

from __future__ import annotations

import json
import statistics
import time

from worker import OUT, load_program


def _median_ms(fn, repeats: int) -> float:
    if repeats > 1:
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def main() -> int:
    import numpy as np

    prog = load_program()
    two_level, planner, lindblad, bruteforce = prog.two_level, prog.planner, prog.lindblad, prog.bruteforce
    baths = two_level.Baths.from_ratio(0.3)
    worked = (0.07, 1.0, 0.26, 6.0)
    plan = planner.build_trajectory(*worked, -0.05, 0, baths)
    rho0 = np.diag([0.93, 0.07]).astype(complex)
    model = lindblad.TwoLevelResetModel(baths)
    grid = bruteforce.ProtocolGrid(
        n_intervals=8,
        u_levels=tuple(float(v) for v in np.linspace(0.0, 10.5, 8)),
        bath_patterns=bruteforce.single_switch_patterns(8),
        tau=plan.total_time,
    )
    rows = [
        ("solve_engine(0.3)", lambda: two_level.solve_engine(0.3), 20),
        ("find_jump_points(K=-0.05)", lambda: two_level.find_jump_points(-0.05, baths), 200),
        ("build_trajectory, 0 cycles", lambda: planner.build_trajectory(*worked, -0.05, 0, baths), 200),
        ("build_trajectory, 5 cycles", lambda: planner.build_trajectory(*worked, -0.05, 5, baths), 200),
        ("plan_for_deadline, tau=20", lambda: planner.plan_for_deadline(*worked, 20.0, baths), 3),
        ("plan_for_deadline, tau=50", lambda: planner.plan_for_deadline(*worked, 50.0, baths), 3),
        ("plan_for_deadline, tau=5000", lambda: planner.plan_for_deadline(*worked, 5000.0, baths), 3),
        ("sample_plan, 1000 samples per arc", lambda: planner.sample_plan(plan, 1000), 10),
        ("validate_plan", lambda: planner.validate_plan(plan), 10),
        ("integrate, worked plan", lambda: lindblad.integrate(rho0, planner.plan_to_protocol(plan), model), 10),
        ("grid_search, n=8, L=8", lambda: bruteforce.grid_search(0.07, 0.26, grid, baths, p_tol=1e-3), 1),
    ]
    figures = {}
    print("| call | median ms | repeats |")
    print("|---|---|---|")
    for name, fn, repeats in rows:
        figures[name] = _median_ms(fn, repeats)
        print(f"| {name} | {figures[name]:.4g} | {repeats} |", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "reference.json").write_text(json.dumps(figures, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
