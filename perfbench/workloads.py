"""The four workloads: seeded inputs, one operation, and the checks of its outputs.

Inputs are stratified: each seed draws every input from a fixed stratum
(a z band, a deadline band, a grid size), so all seeds do the same kind and
amount of work and differ only within the strata.  An operation returns
plain, comparable data; the checks in `checks.py` judge it afterwards.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import checks


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _endpoints(rng: random.Random) -> tuple[float, float, float, float]:
    """(p_in, u_in, p_out, u_out) around the worked instance (0.07, 1, 0.26, 6).

    p_in stays below and p_out above the working population p* (0.083 to
    0.106 for z in 0.01..0.99), so a hot arc through p* joins them.
    """
    return (
        rng.uniform(0.06, 0.07),
        rng.uniform(0.5, 1.5),
        rng.uniform(0.25, 0.27),
        rng.uniform(5.0, 7.0),
    )


class Workload:
    name = ""

    def __init__(self, seed: int, prog, scratch: Path):
        self.seed = seed
        self.prog = prog
        self.scratch = scratch
        self.inputs: list = []

    def warm_up(self) -> None:
        """Touch every code path of an operation once, on a reduced input."""

    def run(self, i: int):
        """One operation on input i; returns plain data for the checks."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        """Failure messages for one pass of outputs, in input order."""
        raise NotImplementedError

    def detail(self) -> dict:
        """Figures reported beside the metrics, known once the checks have run."""
        return {}


class EngineCurve(Workload):
    """solve_engine over 16 log-spaced z strata in 1e-4..0.9999, three unit scales each."""

    name = "engine-curve"
    Z_STRATA = 16
    SCALES_PER_Z = 3

    def __init__(self, seed, prog, scratch):
        super().__init__(seed, prog, scratch)
        rng = _rng(self.name, seed)
        lo, hi = -4.0, math.log10(0.9999)
        width = (hi - lo) / self.Z_STRATA
        for i in range(self.Z_STRATA):
            z = 10.0 ** (lo + (i + rng.random()) * width)
            for _ in range(self.SCALES_PER_Z):
                self.inputs.append((z, 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)))

    def warm_up(self):
        self.prog.two_level.solve_engine(0.5)

    def run(self, i):
        z, beta_c, gamma = self.inputs[i]
        sol = self.prog.two_level.solve_engine(z, beta_c=beta_c, gamma=gamma)
        return (sol.K_star, sol.p_star, sol.eta_star, sol.theta)

    def check(self, outputs):
        rows = []
        for (z, bc, g), out in zip(self.inputs, outputs):
            if out is not None:
                k, p, e, th = out
                rows.append({"z": z, "beta_c": bc, "gamma": g, "K_star": k, "p_star": p,
                             "eta_star": e, "theta": th})
        unit_k = {z: self.prog.two_level.solve_engine(z).K_star for z in {r["z"] for r in rows}}
        return checks.check_engine_curve(rows, unit_k)


class DeadlinePlan(Workload):
    """plan_for_deadline with the default max_cycles, from near tau_min to tau = 5000."""

    name = "deadline-plan"
    # (z, deadline band); tau_min is 2.9 to 3.9 at z=0.3 for these endpoints, and
    # z=0.9 near tau=50 stops below the cycle cap (815 cycles on the worked instance)
    CASES = (
        (0.3, 5.0, 6.0),
        (0.9, 49.0, 51.0),
        (0.6, 300.0, 500.0),
        (0.3, 5000.0, 5000.0),
    )

    def __init__(self, seed, prog, scratch):
        super().__init__(seed, prog, scratch)
        rng = _rng(self.name, seed)
        for z, tau_lo, tau_hi in self.CASES:
            self.inputs.append((z, rng.uniform(tau_lo, tau_hi), _endpoints(rng)))
        params = inspect.signature(prog.planner.plan_for_deadline).parameters
        self.tau_rtol = params["tau_rtol"].default if "tau_rtol" in params else 1e-9
        self.max_cycles = params["max_cycles"].default if "max_cycles" in params else None
        self.heat_excess = math.nan

    def warm_up(self):
        baths = self.prog.two_level.Baths.from_ratio(0.3)
        self.prog.planner.plan_for_deadline(0.07, 1.0, 0.26, 6.0, 10.0, baths, max_cycles=2)

    def run(self, i):
        z, tau, ends = self.inputs[i]
        baths = self.prog.two_level.Baths.from_ratio(z)
        plan = self.prog.planner.plan_for_deadline(*ends, tau, baths)
        switch_ps = tuple(sorted({j.p for j in plan.switch_jumps}))
        return (plan.total_time, plan.total_heat, plan.K, plan.n_cycles, switch_ps)

    def check(self, outputs):
        failures = []
        engines = {}
        excess = []
        for (z, tau, ends), out in zip(self.inputs, outputs):
            if out is None:
                continue
            T, Q, K, n, switch_ps = out
            if z not in engines:
                sol = self.prog.two_level.solve_engine(z)
                engines[z] = sol
                failures += checks.check_engine_point(z, 1.0, 1.0, sol.K_star, sol.p_star)
            sol = engines[z]
            p_in, _, p_out, _ = ends
            q_inf = checks.heat_infimum(tau, sol.K_star, sol.p_star, p_in, p_out, 1.0, z, 1.0)
            op = {"tau": tau, "z": z, "beta_c": 1.0, "gamma": 1.0, "T": T, "Q": Q, "K": K,
                  "n_cycles": n, "switch_ps": switch_ps}
            failures += checks.check_deadline(op, q_inf, self.tau_rtol, self.max_cycles)
            excess.append((Q - q_inf) / abs(q_inf))
        self.heat_excess = max(excess, default=math.nan)
        return failures

    def detail(self) -> dict:
        return {"deadline_heat_excess": {"value": self.heat_excess, "unit": "1"}}


class PlanSimulate(Workload):
    """A fixed-K plan with 0..3 inner cycles: CLI export, GKSL simulation, PMP validation."""

    name = "plan-simulate"
    Z_VALUES = (0.2, 0.3, 0.5)
    CYCLES = (0, 1, 2, 3)

    def __init__(self, seed, prog, scratch):
        super().__init__(seed, prog, scratch)
        rng = _rng(self.name, seed)
        for z in self.Z_VALUES:
            # K between 0.6 and 0.7 of K*: both switch populations exist and are crossed
            K = rng.uniform(0.6, 0.7) * prog.two_level.solve_engine(z).K_star
            ends = _endpoints(rng)
            for n in self.CYCLES:
                self.inputs.append((z, K, ends, n))

    def _prefix(self, index: int) -> Path:
        return self.scratch / f"plan{index}"

    def _op(self, inp, prefix: Path, samples: int | None) -> dict:
        prog = self.prog
        z, K, (p_in, u_in, p_out, u_out), n = inp
        argv = ["trajectory", "--z", repr(z), "--K", repr(K),
                "--p-in", repr(p_in), "--u-in", repr(u_in),
                "--p-out", repr(p_out), "--u-out", repr(u_out),
                "--cycles", str(n), "--out-prefix", str(prefix)]
        if samples is not None:
            argv += ["--samples", str(samples)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = prog.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"pmp-thermo {' '.join(argv)} exited {code}")
        baths = prog.two_level.Baths.from_ratio(z)
        plan = prog.planner.build_trajectory(p_in, u_in, p_out, u_out, K, n, baths)
        rho0 = np.diag([1.0 - p_in, p_in]).astype(complex)
        res = prog.lindblad.integrate(
            rho0, prog.planner.plan_to_protocol(plan), prog.lindblad.TwoLevelResetModel(baths)
        )
        report = prog.planner.validate_plan(plan)
        out_bytes = sum(prefix.with_suffix(s).stat().st_size for s in (".json", ".csv"))
        return {
            "plan_time": plan.total_time,
            "plan_heat": plan.total_heat,
            "p_out": p_out,
            "gksl_heat": res.ledger.heat_released,
            "gksl_p_final": float(res.final_state[1, 1].real),
            "first_law": res.ledger.first_law_residual,
            "validate": {k: v for k, v in report.items() if k != "nodes"},
            "out_bytes": out_bytes,
        }

    def warm_up(self):
        self._op(self.inputs[0], self.scratch / "warm-up", samples=10)

    def run(self, i):
        return self._op(self.inputs[i], self._prefix(i), samples=None)

    def check(self, outputs):
        failures = []
        for i, op in enumerate(outputs):
            if op is None:
                continue
            prefix = self._prefix(i)
            with open(prefix.with_suffix(".csv")) as fh:
                last = fh.read().rstrip("\n").rsplit("\n", 1)[-1].split(",")
            with open(prefix.with_suffix(".json")) as fh:
                doc = json.load(fh)
            op = {**op, "csv_last": (float(last[0]), float(last[5])),
                  "json_totals": (doc["total_time"], doc["total_heat"])}
            failures += [f"plan {i}: {msg}" for msg in checks.check_simulation(op)]
        return failures


class OracleSearch(Workload):
    """build_trajectory for tau and q_pmp, then grid_search over single-switch grids."""

    name = "oracle-search"
    # protocols per pattern: 248832 and 1000000 fit in one 2^20 chunk, 2985984 spans three
    GRIDS = ((5, 12), (6, 10), (6, 12))
    ENDPOINT_SETS = 2
    Z = 0.3
    U_MAX = 11.0
    P_TOL = 1e-3

    def __init__(self, seed, prog, scratch):
        super().__init__(seed, prog, scratch)
        rng = _rng(self.name, seed)
        for _ in range(self.ENDPOINT_SETS):
            K = rng.uniform(-0.06, -0.04)  # K* = -0.0719 at z = 0.3
            ends = _endpoints(rng)
            for n, levels in self.GRIDS:
                self.inputs.append((K, ends, n, levels))

    def _op(self, inp, p_tol: float = P_TOL) -> dict:
        prog = self.prog
        K, (p_in, u_in, p_out, u_out), n, levels = inp
        baths = prog.two_level.Baths.from_ratio(self.Z)
        plan = prog.planner.build_trajectory(p_in, u_in, p_out, u_out, K, 0, baths)
        grid = prog.bruteforce.ProtocolGrid(
            n_intervals=n,
            u_levels=tuple(float(v) for v in np.linspace(0.0, self.U_MAX, levels)),
            bath_patterns=prog.bruteforce.single_switch_patterns(n),
            tau=plan.total_time,
        )
        res = prog.bruteforce.grid_search(p_in, p_out, grid, baths, p_tol=p_tol)
        report = prog.bruteforce.comparison_report(plan.total_heat, res)
        return {
            "q_pmp": report["q_pmp"],
            "q_best": report["q_brute"],
            "n_evaluated": report["n_protocols_evaluated"],
            "n_feasible": res.n_feasible,
            "p_final": res.p_final,
            "durations": res.protocol.durations,
            "u_values": res.protocol.u_values,
            "pattern": res.protocol.baths_pattern,
        }

    def warm_up(self):
        K, ends, _, _ = self.inputs[0]
        self._op((K, ends, 4, 6), p_tol=0.05)

    def run(self, i):
        return self._op(self.inputs[i])

    def check(self, outputs):
        failures = []
        for (K, (p_in, _, p_out, _), n, levels), op in zip(self.inputs, outputs):
            if op is None:
                continue
            full = {**op, "z": self.Z, "beta_c": 1.0, "gamma": 1.0, "p_in": p_in, "p_out": p_out,
                    "p_tol": self.P_TOL, "u_max": self.U_MAX, "n_intervals": n, "n_levels": levels}
            failures += [f"grid n={n} L={levels}: {msg}" for msg in checks.check_oracle(full)]
        return failures


WORKLOADS = {w.name: w for w in (EngineCurve, DeadlinePlan, PlanSimulate, OracleSearch)}
