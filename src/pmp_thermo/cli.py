"""Command-line front end: engine solving, sweeps, figure data, verification, oracle runs.

All outputs are deterministic given the flags (fixed 15-significant-digit
formatting, atomic writes); the oracle report's wall_time field is the one
exception.  Exit codes: 0 success, 2 usage, 3 infeasible endpoints or
deadline, 4 solver or integration failure: one table, `_EXIT_CODES`, maps every
typed failure to its code in `main`, apart from isotherm's inadmissible arc (3)
and sweep's per-point `# FAILED` rows (4).  Write errors (OSError) propagate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from typing import Callable, TextIO

import numpy as np

from . import bruteforce, planner, two_level
from .lindblad import IntegrationError, TwoLevelResetModel, integrate
from .planner import _fmt
from .two_level import Baths, SolverError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

# a residual of a correct plan stays within a few of its rounding floor (`planner.validate_plan`)
RATIO_GATE = 1e3

# the first matching row wins, so a subclass takes its base's code; OSError has no row
_EXIT_CODES: dict[type[Exception], int] = {
    SolverError: EXIT_SOLVER,
    IntegrationError: EXIT_SOLVER,
    planner.Unreachable: EXIT_INFEASIBLE,
    planner.DeadlineInfeasible: EXIT_INFEASIBLE,
    bruteforce.InfeasibleTarget: EXIT_INFEASIBLE,
    two_level.NoJumpPoints: EXIT_INFEASIBLE,
    planner.NoCycleExists: EXIT_INFEASIBLE,
    ValueError: EXIT_USAGE,
}


def _atomic_write(*files: tuple[str, Callable[[TextIO], object]]) -> None:
    """Stream each (path, write) pair's `write(fh)` into a temporary file beside
    its path, then rename them all: a writer that raises leaves every path as it
    was.  Each file gets the mode a plain open() would give."""
    # mkstemp creates 0600; the umask can only be read by setting it
    umask = os.umask(0)
    os.umask(umask)
    tmps = []
    try:
        for path, write in files:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".pmp-thermo-")
            tmps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                write(fh)
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _export(path: str | None, write: Callable[[TextIO], object]) -> None:
    """Stream `write` into `path` atomically, or into stdout when no path is given."""
    if path:
        _atomic_write((path, write))
    else:
        write(sys.stdout)


def _engine_json(sol: two_level.EngineSolution) -> str:
    payload = {k: float(v) for k, v in sol.to_dict().items()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_engine(args: argparse.Namespace) -> int:
    sol = two_level.solve_engine(args.z, beta_c=args.beta_c, gamma=args.gamma)
    text = _engine_json(sol)
    _export(args.out, lambda fh: fh.write(text))
    if args.schedule:

        def write_schedule(fh: TextIO) -> None:
            fh.write(
                f"# units: time 1/gamma (gamma={_fmt(args.gamma)}), energy 1/beta_c (beta_c={_fmt(args.beta_c)}); "
                f"square wave between u_h_star and u_c_star, half-period delta_tau={_fmt(args.delta_tau)}\n"
            )
            fh.write("t,u\n")
            t = 0.0
            for _ in range(args.periods):
                for u_val in (sol.u_h_star, sol.u_c_star):
                    fh.write(f"{_fmt(t)},{_fmt(u_val)}\n")
                    t += args.delta_tau
                    fh.write(f"{_fmt(t)},{_fmt(u_val)}\n")

        _atomic_write((args.schedule, write_schedule))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not (0.0 < args.z_min < args.z_max < 1.0):
        raise ValueError("need 0 < z-min < z-max < 1")
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    failed = []

    def write(fh: TextIO) -> None:
        fh.write(
            f"# units: g dimensionless (K_star = -g * gamma/beta_c), efficiencies dimensionless; "
            f"beta_c={_fmt(args.beta_c)}, gamma={_fmt(args.gamma)}\n"
        )
        fh.write("z,g,eta_star,eta_ca,eta_carnot\n")
        for z in np.linspace(args.z_min, args.z_max, args.steps):
            try:
                res = two_level.solve_engine(float(z), beta_c=args.beta_c, gamma=args.gamma)
            except SolverError as exc:
                failed.append(float(z))
                fh.write(f"# FAILED z={_fmt(float(z))}: {exc}\n")
                continue
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (res.z, res.g, res.eta_star, res.eta_curzon_ahlborn, res.eta_carnot)
                )
                + "\n"
            )

    _export(args.out, write)
    if failed:
        raise SolverError(f"solver failed at {len(failed)} grid point(s)")
    return EXIT_OK


def _cmd_isotherm(args: argparse.Namespace) -> int:
    baths = Baths.from_ratio(args.z, beta_c=args.beta_c, gamma=args.gamma)
    branch = two_level.COLD if args.branch == "cold" else two_level.HOT
    if args.K >= 0.0:
        raise ValueError("K must be negative")
    beta = baths.beta(branch.kind)
    mu_val = two_level.mu(args.K, beta, branch, baths.gamma)
    xs = []
    for flag, u in (("--u0", args.u0), ("--u1", args.u1)):
        try:
            xs.append(math.exp(0.5 * beta * u))
        except OverflowError:
            raise ValueError(f"{flag} {u} is out of range: exp(beta*u/2) overflows") from None
        if not math.isfinite(xs[-1]):
            raise ValueError(f"{flag} must be a finite gap, got {u}")
    x0, x1 = xs
    try:
        seg = two_level.make_segment(branch, args.K, baths, x0, x1)
    except ValueError as exc:  # an arc that cannot join the two gaps is infeasible, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    plan = planner.TrajectoryPlan(
        K=args.K, baths=baths, segments=(seg,), n_cycles=0,
        p_in=two_level.isotherm_p(x0, mu_val), u_in=args.u0,
        p_out=two_level.isotherm_p(x1, mu_val), u_out=args.u1,
    )
    _export(args.out, lambda fh: planner.write_plan_csv(plan, fh, samples_per_segment=args.samples))
    return EXIT_OK


def _cmd_trajectory(args: argparse.Namespace) -> int:
    baths = Baths.from_ratio(args.z, beta_c=args.beta_c, gamma=args.gamma)
    ends = (args.p_in, args.u_in, args.p_out, args.u_out)
    if args.deadline is not None:
        plan = planner.plan_for_deadline(*ends, args.deadline, baths, max_cycles=args.max_cycles)
    elif args.K is None:
        raise ValueError("provide --K or --deadline")
    else:
        plan = planner.build_trajectory(*ends, args.K, args.cycles, baths)
    _atomic_write(
        (args.out_prefix + ".csv", lambda fh: planner.write_plan_csv(plan, fh, samples_per_segment=args.samples)),
        (args.out_prefix + ".json", lambda fh: planner.write_plan_json(plan, fh)),
    )
    print(
        f"plan: {len(plan.arcs)} arcs, {len(plan.switch_jumps)} switches, "
        f"tau={_fmt(plan.total_time)}, Q={_fmt(plan.total_heat)}"
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    baths = Baths.from_ratio(args.z, beta_c=args.beta_c, gamma=args.gamma)
    plan = planner.build_trajectory(args.p_in, args.u_in, args.p_out, args.u_out, args.K, 0, baths)
    levels = tuple(float(v) for v in np.linspace(0.0, args.u_max, args.levels))
    grid = bruteforce.ProtocolGrid(
        n_intervals=args.intervals,
        u_levels=levels,
        bath_patterns=bruteforce.single_switch_patterns(args.intervals),
        tau=plan.total_time,
    )
    res = bruteforce.grid_search(args.p_in, args.p_out, grid, baths, p_tol=args.p_tol)
    report = bruteforce.comparison_report(plan.total_heat, res)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _export(args.out, lambda fh: fh.write(text))
    return EXIT_OK


def _verify_checks(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    theta, _ = two_level.asymptotic_limit()
    resid = abs(4 * theta * math.exp(4 * theta) - math.exp(-1.0))
    checks.append(("lambert-w-identity", resid < 1e-14, f"residual {resid:.2e}"))

    sol = two_level.solve_engine(0.3)
    f_res, t_res = two_level.engine_residuals(sol)
    checks.append(
        ("engine-residuals-z0.3", f_res < 1e-10 and t_res < 1e-10, f"|f|={f_res:.2e} tangency={t_res:.2e}")
    )

    zs = np.linspace(0.05, 0.95, 10)
    sols = [two_level.solve_engine(float(z)) for z in zs]
    gs = [s.g for s in sols]
    mono = all(gs[i] > gs[i + 1] for i in range(len(gs) - 1))
    bounds = all(s.eta_star <= s.eta_carnot + 1e-12 and s.eta_curzon_ahlborn <= s.eta_carnot for s in sols)
    checks.append(("g-decreasing-eta-bounded", mono and bounds, f"g range [{gs[-1]:.2e}, {gs[0]:.2e}]"))

    baths = Baths.from_ratio(0.3)
    worst = 0.0
    for _ in range(5):
        K = -float(rng.uniform(0.01, 0.2))
        branch = two_level.COLD if rng.uniform() < 0.5 else two_level.HOT
        beta = baths.beta(branch.kind)
        mu_val = two_level.mu(K, beta, branch, baths.gamma)
        p_hi = 0.45 if branch.kind == "cold" else min(0.45, two_level.isotherm_p(1.0, mu_val) - 0.01)
        pa = float(rng.uniform(0.05, p_hi - 0.02))
        pb = float(rng.uniform(0.02, pa - 0.01)) if branch.kind == "cold" else float(rng.uniform(pa + 0.01, p_hi))
        seg = two_level.segment_from_populations(branch, K, baths, pa, pb)
        plan = planner.TrajectoryPlan(
            K=K, baths=baths, segments=(seg,), n_cycles=0,
            p_in=pa, u_in=two_level.isotherm_u_of_p(pa, mu_val, beta),
            p_out=pb, u_out=two_level.isotherm_u_of_p(pb, mu_val, beta),
        )
        model = TwoLevelResetModel(baths)
        rho0 = np.diag([1.0 - pa, pa]).astype(complex)
        res = integrate(rho0, planner.plan_to_protocol(plan), model)
        worst = max(worst, abs(res.ledger.heat_released - seg.heat) / max(abs(seg.heat), 1e-12))
    checks.append(("closed-form-vs-ode", worst < 1e-10, f"worst rel err {worst:.2e}"))

    plan = planner.build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 0, baths)
    report = planner.validate_plan(plan)
    ok = (
        report["max_dp"] < 1e-12
        and report["max_dq"] < 1e-9
        and report["max_conservation"] < 1e-9
        and report["max_stationarity"] < 1e-9
        and report["max_costate"] < 1e-9
        and report["max_bang_bang_violation"] <= 1e-12
        and all(report[key] <= RATIO_GATE for key in report if key.endswith("_ratio"))
    )
    checks.append(("plan-pmp-residuals", ok, f"conservation {report['max_conservation']:.2e}"))

    p1, p2 = two_level.find_jump_points(-0.05, baths)
    two_roots = p2 - p1 > 1e-3
    try:
        two_level.find_jump_points(-0.2, baths)
        none_below = False
    except two_level.NoJumpPoints:
        none_below = True
    c1, c2 = two_level.find_jump_points(sol.K_star, baths)
    checks.append(
        ("jump-bifurcation", two_roots and none_below and abs(c1 - c2) < 1e-8,
         f"roots ({p1:.4f}, {p2:.4f}), coincident gap {abs(c1 - c2):.1e}")
    )

    gaps = []
    for eps in (1e-3, 1e-4):
        dec = planner.cycle_decomposition(sol.K_star + eps, baths)
        gaps.append(dec.rate - sol.K_star)
    checks.append(
        ("cycle-rate-limit", gaps[0] > gaps[1] > 0.0, f"gaps {gaps[0]:.2e} > {gaps[1]:.2e}")
    )

    text1 = _engine_json(two_level.solve_engine(0.3))
    text2 = _engine_json(two_level.solve_engine(0.3))
    checks.append(("determinism", text1 == text2, "engine JSON byte-identical"))

    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(20240817)
    checks = _verify_checks(rng)
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name.ljust(width)}  {status}  {detail}")
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES present'}")
    return EXIT_OK if all_ok else EXIT_SOLVER


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta-c", type=float, default=1.0, help="cold inverse temperature (default 1)")
    p.add_argument("--gamma", type=float, default=1.0, help="total damping rate (default 1)")
    p.add_argument("--config", type=str, default=None, help="key=value file mirroring the flags; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmp-thermo",
        description="Heat-minimizing control protocols for a thermally driven two-level system",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags stay optional at parse time so the config file can supply them;
    # the per-command `needs` list is enforced after the config merge
    p = sub.add_parser("engine", help="maximum-power working point for one temperature ratio", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--z", type=float, help="temperature ratio beta_h / beta_c in (0, 1)")
    p.add_argument("--out", type=str, default=None, help="write the JSON here instead of stdout")
    p.add_argument("--schedule", type=str, default=None, help="also emit the square-wave gap schedule CSV")
    p.add_argument("--delta-tau", type=float, default=0.1, help="half-period of the schedule (default 0.1)")
    p.add_argument("--periods", type=int, default=3, help="number of full periods in the schedule")
    p.set_defaults(func=_cmd_engine, needs=("z",))

    p = sub.add_parser("sweep", help="engine solution across a grid of temperature ratios", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--z-min", type=float)
    p.add_argument("--z-max", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_sweep, needs=("z_min", "z_max", "steps"))

    p = sub.add_parser("isotherm", help="sample one optimal arc as a CSV time series", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--branch", choices=("cold", "hot"))
    p.add_argument("--z", type=float)
    p.add_argument("--K", type=float, help="conserved rate, negative, units gamma/beta_c")
    p.add_argument("--u0", type=float, help="starting gap, units 1/beta_c")
    p.add_argument("--u1", type=float, help="final gap, units 1/beta_c")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_isotherm, needs=("branch", "z", "K", "u0", "u1"))

    p = sub.add_parser("trajectory", help="plan a full protocol between endpoints", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--z", type=float)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--p-in", type=float)
    p.add_argument("--u-in", type=float)
    p.add_argument("--p-out", type=float)
    p.add_argument("--u-out", type=float)
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--deadline", type=float, default=None, help="total duration; picks (K, cycles) automatically")
    p.add_argument("--max-cycles", type=int, default=1024)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out-prefix", type=str, help="writes <prefix>.json and <prefix>.csv")
    p.set_defaults(func=_cmd_trajectory, needs=("z", "p_in", "u_in", "p_out", "u_out", "out_prefix"))

    p = sub.add_parser("verify", help="run the invariant suite; exit 0 only if all pass", allow_abbrev=False)
    _add_common(p)
    p.set_defaults(func=_cmd_verify, needs=())

    p = sub.add_parser("oracle", help="brute-force search vs the planned heat", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--z", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--p-in", type=float)
    p.add_argument("--u-in", type=float)
    p.add_argument("--p-out", type=float)
    p.add_argument("--u-out", type=float)
    p.add_argument("--intervals", type=int, default=4)
    p.add_argument("--levels", type=int, default=12)
    p.add_argument("--u-max", type=float, default=11.0)
    p.add_argument("--p-tol", type=float, default=1e-3)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_oracle, needs=("z", "K", "p_in", "u_in", "p_out", "u_out"))

    # argparse's default matcher misses exponent notation, so `--K -1e-5` would read as a flag
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"^-\d*\.?\d+(?:[eE][-+]?\d+)?$")
    return parser


def _subcommand_types(parser: argparse.ArgumentParser, command: str) -> dict[str, type | None]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub = action.choices[command]
            return {a.dest: a.type for a in sub._actions}
    return {}


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str]) -> None:
    """Fill non-explicit options from the key=value config file; flags win."""
    if not getattr(args, "config", None):
        return
    explicit = set()
    for token in argv:
        if token.startswith("--"):
            explicit.add(token.split("=", 1)[0].lstrip("-").replace("-", "_"))
    types = _subcommand_types(parser, args.command)
    try:
        with open(args.config) as fh:
            lines = fh.readlines()
    except OSError as exc:  # an unreadable config file is a usage error
        raise ValueError(exc) from exc
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{args.config}:{line_no}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        dest = key.lstrip("-").replace("-", "_")
        if dest in explicit or not hasattr(args, dest) or dest in ("config", "command", "func", "needs"):
            continue
        caster = types.get(dest)
        setattr(args, dest, caster(value) if caster is not None else value)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args, argv)
        missing = [name for name in args.needs if getattr(args, name) is None]
        if missing:
            flags = ", ".join("--" + m.replace("_", "-") for m in missing)
            raise ValueError(f"missing required option(s): {flags}")
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for failure, code in _EXIT_CODES.items() if isinstance(exc, failure))


if __name__ == "__main__":
    sys.exit(main())
