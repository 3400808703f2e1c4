import errno
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pmp_thermo
from pmp_thermo import bruteforce, cli, lindblad, planner, two_level
from pmp_thermo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEngineCommand:
    def test_reference_ratio_json(self, capsys):
        code, out, err = run_cli(capsys, "engine", "--z", "0.3")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "z", "K_star", "p_star", "u_c_star", "u_h_star",
            "eta_star", "eta_carnot", "eta_curzon_ahlborn", "g", "theta",
        }
        assert data["z"] == 0.3
        assert data["eta_carnot"] == pytest.approx(0.7, abs=1e-15)
        assert data["u_h_star"] > data["u_c_star"] > 0.0
        assert abs(data["eta_star"] - data["eta_curzon_ahlborn"]) < 0.03

    def test_close_to_equal_temperatures(self, capsys):
        code, out, err = run_cli(capsys, "engine", "--z", "0.999999")
        assert code == 0 and err == ""
        assert json.loads(out)["K_star"] == pytest.approx(-2.7451843671646192e-14, rel=1e-9)

    def test_out_file_and_schedule(self, capsys, tmp_path):
        out_json = tmp_path / "engine.json"
        sched = tmp_path / "sched.csv"
        code, _, _ = run_cli(
            capsys, "engine", "--z", "0.3", "--out", str(out_json),
            "--schedule", str(sched), "--delta-tau", "0.25", "--periods", "2",
        )
        assert code == 0
        data = json.loads(out_json.read_text())
        lines = sched.read_text().splitlines()
        assert lines[0].startswith("# units:")
        assert lines[1] == "t,u"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2 * 2 * 2  # two points per half-period
        us = sorted({float(r[1]) for r in rows})
        assert us == [pytest.approx(data["u_c_star"]), pytest.approx(data["u_h_star"])]
        assert float(rows[-1][0]) == pytest.approx(4 * 0.25, abs=1e-12)

    def test_out_file_honours_umask(self, capsys, tmp_path):
        out = tmp_path / "e.json"
        previous = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, "engine", "--z", "0.3", "--out", str(out))
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".pmp-thermo-")]

    def test_bad_ratio_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "engine", "--z", "1.5")
        assert code == 2
        assert "error" in err

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "engine")
        assert code == 2
        assert "--z" in err

    def test_solver_failure_exit_code(self, capsys, gate_offset):
        code, out, err = run_cli(capsys, "engine", "--z", "0.3")
        assert code == 4 and out == ""
        assert "did not converge at z=0.3" in err


class TestSweepCommand:
    def test_columns_and_monotone_g(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--z-min", "0.1", "--z-max", "0.9", "--steps", "9", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "z,g,eta_star,eta_ca,eta_carnot"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        assert rows.shape == (9, 5)
        gs = rows[:, 1]
        assert np.all(np.diff(gs) < 0.0)
        np.testing.assert_allclose(rows[:, 4], 1.0 - rows[:, 0], atol=1e-15)
        assert np.all(rows[:, 2] <= rows[:, 4] + 1e-12)

    def test_sweep_csv_pinned(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--z-min", "0.2", "--z-max", "0.8", "--steps", "5", "--out", str(out))
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "8beb546939b9ffdf6a0df27392656231947c009bd6cdfebdb84358a67a74de34"

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--z-min", "0.9", "--z-max", "0.1", "--steps", "5")
        assert code == 2

    def test_solver_failure_rows(self, capsys, gate_offset):
        code, out, err = run_cli(capsys, "sweep", "--z-min", "0.2", "--z-max", "0.8", "--steps", "3")
        assert code == 4
        lines = out.splitlines()
        assert len(lines) == 5 and all(line.startswith("# FAILED z=") for line in lines[2:])
        assert lines[3].startswith("# FAILED z=0.5: engine solve did not converge")
        assert "solver failed at 3 grid point(s)" in err


class TestIsothermCommand:
    def test_cold_arc_profile(self, capsys, tmp_path):
        out = tmp_path / "cold.csv"
        code, _, _ = run_cli(
            capsys, "isotherm", "--branch", "cold", "--z", "0.3", "--K", "-0.05",
            "--u0", "1", "--u1", "6", "--samples", "40", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,u,p,q,branch,Qcum"
        rows = [line.split(",") for line in lines[2:]]
        p = np.array([float(r[2]) for r in rows])
        q_cum = np.array([float(r[5]) for r in rows])
        assert np.all(np.diff(p) < 0.0)  # populations decrease along the cold arc
        assert np.all(np.diff(q_cum) > 0.0)  # heat is released monotonically
        assert all(r[4] == "cold" for r in rows)

    def test_hot_arc_profile(self, capsys, tmp_path):
        out = tmp_path / "hot.csv"
        code, _, _ = run_cli(
            capsys, "isotherm", "--branch", "hot", "--z", "0.3", "--K", "-0.05",
            "--u0", "7", "--u1", "1", "--samples", "40", "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        p = np.array([float(r[2]) for r in rows])
        q_cum = np.array([float(r[5]) for r in rows])
        assert np.all(np.diff(p) > 0.0)
        assert np.all(np.diff(q_cum) < 0.0)  # heat absorbed along the hot arc

    def test_inadmissible_range_infeasible(self, capsys):
        # u0 above the admissible hot window
        code, _, err = run_cli(
            capsys, "isotherm", "--branch", "hot", "--z", "0.3", "--K", "-0.05",
            "--u0", "20", "--u1", "1",
        )
        assert code == 3


class TestTrajectoryCommand:
    def test_worked_instance_files(self, capsys, tmp_path):
        prefix = tmp_path / "plan"
        code, out, _ = run_cli(
            capsys, "trajectory", "--z", "0.3", "--K", "-0.05",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--cycles", "1", "--out-prefix", str(prefix), "--samples", "50",
        )
        assert code == 0
        data = json.loads((tmp_path / "plan.json").read_text())
        kinds = [(s["type"], s.get("branch") or s.get("kind")) for s in data["segments"]]
        # one-cycle plan: entry, cold, loop (switch hot switch cold switch), hot, exit
        assert [k[0] for k in kinds] == [
            "jump", "isotherm", "jump", "isotherm", "jump", "isotherm", "jump", "isotherm", "jump",
        ]
        assert data["n_cycles"] == 1
        csv_lines = (tmp_path / "plan.csv").read_text().splitlines()
        assert csv_lines[1] == "t,u,p,q,branch,Qcum"

    def test_worked_three_cycle_json_pinned(self, capsys, tmp_path):
        # the plan JSON holds no sampled value, so changes to arc sampling leave it byte-identical
        code, _, _ = run_cli(
            capsys, "trajectory", "--z", "0.3", "--K", "-0.05",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--cycles", "3", "--out-prefix", str(tmp_path / "plan"), "--samples", "2",
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / "plan.json").read_bytes()).hexdigest()
        assert digest == "b5c886c75c755e4f155636200b73b1b5ac5005e291c65ea78d99644ca890aab1"

    @pytest.mark.parametrize(
        "cycles, digest",
        [
            ("0", "ef7e40e5dd15f8e1f4de4c0d9141ec1725a2f14cd23116d38f307119142ddd51"),
            ("3", "a0bf33dd30cea99d109165825d9b716b52a7451bd52d0ef9ccdfecefabfe7d3c"),
        ],
    )
    def test_worked_csv_pinned(self, capsys, tmp_path, cycles, digest):
        # every sampled value of the default 1000 samples per arc, to the byte
        code, _, _ = run_cli(
            capsys, "trajectory", "--z", "0.3", "--K", "-0.05",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--cycles", cycles, "--out-prefix", str(tmp_path / "plan"),
        )
        assert code == 0
        assert hashlib.sha256((tmp_path / "plan.csv").read_bytes()).hexdigest() == digest

    def test_unreachable_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "trajectory", "--z", "0.3", "--K", "-0.2",
            "--p-in", "0.1", "--u-in", "1", "--p-out", "0.6", "--u-out", "1",
            "--out-prefix", str(tmp_path / "x"),
        )
        assert code == 3
        assert "unreachable" in err.lower()

    def test_quasi_static_rate_plans(self, capsys, tmp_path):
        # the lower switch population at K = -1e-5 lies near 5e-7; K is given
        # in exponent notation, which the parser must read as a value
        prefix = tmp_path / "slow"
        code, out, err = run_cli(
            capsys, "trajectory", "--z", "0.3", "--K", "-1e-5",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--out-prefix", str(prefix), "--samples", "16",
        )
        assert code == 0, err
        data = json.loads((tmp_path / "slow.json").read_text())
        assert data["K"] == -1e-5
        assert out.startswith("plan: ")

    def test_rate_below_search_floor_usage_error(self, capsys, tmp_path):
        # find_jump_points raises ValueError once the lower switch population
        # would lie under 1e-250
        code, _, err = run_cli(
            capsys, "trajectory", "--z", "0.3", "--K", "-1e-260",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--out-prefix", str(tmp_path / "x"),
        )
        assert code == 2
        assert "too close to 0" in err

    def test_deadline_mode(self, capsys, tmp_path):
        prefix = tmp_path / "dl"
        code, out, _ = run_cli(
            capsys, "trajectory", "--z", "0.3",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--deadline", "20", "--max-cycles", "8", "--out-prefix", str(prefix),
            "--samples", "20",
        )
        assert code == 0
        data = json.loads((tmp_path / "dl.json").read_text())
        assert data["total_time"] == pytest.approx(20.0, rel=1e-8)


class TestVerifyCommand:
    def test_passes_on_clean_build(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "key", ["max_conservation_ratio", "max_stationarity_ratio", "max_costate_ratio", "max_heat_identity_ratio"]
    )
    def test_fails_on_residual_above_its_rounding_floor(self, capsys, monkeypatch, key):
        # a residual far below the absolute bounds still fails at 1e3 times its floor
        validate = planner.validate_plan
        monkeypatch.setattr(planner, "validate_plan", lambda plan: {**validate(plan), key: 1.01 * cli.RATIO_GATE})
        code, out, _ = run_cli(capsys, "verify")
        lines = out.splitlines()
        assert code == 4
        assert [line.split()[0] for line in lines if "  FAIL  " in line] == ["plan-pmp-residuals"]
        assert lines[-1] == "verify: FAILURES present"

    def test_fails_on_costate_residual(self, capsys, monkeypatch):
        validate = planner.validate_plan
        monkeypatch.setattr(planner, "validate_plan", lambda plan: {**validate(plan), "max_costate": 1e-6})
        code, out, _ = run_cli(capsys, "verify")
        lines = out.splitlines()
        assert code == 4
        assert [line.split()[0] for line in lines if "  FAIL  " in line] == ["plan-pmp-residuals"]
        assert lines[-1] == "verify: FAILURES present"


class TestOracleCommand:
    def test_report_fields(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "oracle", "--z", "0.3", "--K", "-0.05",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--intervals", "4", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"q_pmp", "q_brute", "gap", "n_protocols_evaluated", "wall_time"}
        assert report["gap"] >= -1e-3 * 11.0

    def test_worked_oracle_report_pinned(self, capsys, tmp_path):
        # every digit of q_brute and gap; wall_time is the report's one nondeterministic field
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "oracle", "--z", "0.3", "--K", "-0.05",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--intervals", "6", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        del report["wall_time"]
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "0eb7e5d69b60c70e66fbe46463dcd8897812e01b49f6431c68a23e7f0d363056"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--p-tol", "nan", "tolerance"),
            ("--p-tol", "-1", "tolerance"),
            ("--u-max", "nan", "finite"),
            ("--p-in", "1.5", "populations"),
        ],
    )
    def test_bad_search_inputs_usage_error(self, capsys, flag, value, message):
        code, _, err = run_cli(
            capsys, "oracle", "--z", "0.3", "--K", "-0.05",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--intervals", "2", flag, value,
        )
        assert code == 2
        assert message in err


class TestDeterminismAndConfig:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        paths = [tmp_path / f"r{i}.json" for i in range(2)]
        for p in paths:
            run_cli(capsys, "engine", "--z", "0.37", "--out", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        sweeps = [tmp_path / f"s{i}.csv" for i in range(2)]
        for p in sweeps:
            run_cli(capsys, "sweep", "--z-min", "0.2", "--z-max", "0.8", "--steps", "5", "--out", str(p))
        assert sweeps[0].read_bytes() == sweeps[1].read_bytes()
        trajs = [tmp_path / f"t{i}" for i in range(2)]
        for p in trajs:
            run_cli(
                capsys, "trajectory", "--z", "0.3", "--K", "-0.05",
                "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
                "--out-prefix", str(p), "--samples", "64",
            )
        assert (tmp_path / "t0.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()
        assert (tmp_path / "t0.json").read_bytes() == (tmp_path / "t1.json").read_bytes()

    def test_config_file_supplies_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z = 0.5\nperiods = 4\n# comment line\n")
        out1 = tmp_path / "a.json"
        code, _, _ = run_cli(capsys, "engine", "--config", str(cfg), "--out", str(out1))
        assert code == 0
        assert json.loads(out1.read_text())["z"] == 0.5
        out2 = tmp_path / "b.json"
        code, _, _ = run_cli(capsys, "engine", "--config", str(cfg), "--z", "0.3", "--out", str(out2))
        assert code == 0
        assert json.loads(out2.read_text())["z"] == 0.3

    def test_sweep_row_count(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--z-min", "0.3", "--z-max", "0.6", "--steps", "3", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 2 + 3


WORKED_ENDS = ("--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6")
UNREACHABLE_ENDS = ("--p-in", "0.1", "--u-in", "1", "--p-out", "0.6", "--u-out", "1")
WORKED_PLAN = ("trajectory", "--z", "0.3", "--K", "-0.05", *WORKED_ENDS)

# One case per exception type the package defines: its exit code, a command,
# the library call that command makes, and the exception that call is made to
# raise, or None where a real input reaches the type.
TYPED_FAILURES = [
    (two_level.SolverError, 4, ("engine", "--z", "0.3"), (two_level, "solve_engine"),
     two_level.SolverError("engine solve did not converge at z=0.3")),
    (lindblad.IntegrationError, 4, ("verify",), (cli, "integrate"),
     lindblad.IntegrationError("integrator failed: step size too small", t=0.5)),
    (lindblad.TraceDriftError, 4, ("verify",), (cli, "integrate"),
     lindblad.TraceDriftError("trace drift 1.000e-06", t=0.5)),
    (planner.Unreachable, 3, ("oracle", "--z", "0.3", "--K", "-0.5", *UNREACHABLE_ENDS, "--intervals", "2"),
     (planner, "build_trajectory"), None),
    (planner.DeadlineInfeasible, 3, ("trajectory", "--z", "0.3", *WORKED_ENDS, "--deadline", "1"),
     (planner, "plan_for_deadline"), None),
    # the z = 0.7 oracle: evenly spaced levels cannot land within p_tol on this horizon
    (bruteforce.InfeasibleTarget, 3,
     ("oracle", "--z", "0.7", "--K", "-0.0025016301172595444", *WORKED_ENDS, "--intervals", "4"),
     (bruteforce, "grid_search"), None),
    (two_level.NoJumpPoints, 3, WORKED_PLAN, (planner, "build_trajectory"),
     two_level.NoJumpPoints("f stays positive (min 1.000e-03 at p=0.100000) for K=-0.05")),
    (planner.NoCycleExists, 3, WORKED_PLAN, (planner, "build_trajectory"),
     planner.NoCycleExists("f stays positive (min 1.000e-03 at p=0.100000) for K=-0.05")),
    (two_level.DirectionViolation, 2, WORKED_PLAN, (planner, "build_trajectory"),
     two_level.DirectionViolation("negative duration -1.0: endpoints (2.0, 1.0) run against the branch flow")),
]


def _package_exceptions():
    """Every Exception subclass defined in a module of the package."""
    found = set()
    for info in pkgutil.iter_modules(pmp_thermo.__path__):
        module = importlib.import_module(f"pmp_thermo.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == module.__name__
        )
    return found


class TestExitCodes:
    @pytest.mark.parametrize(
        "failure, code, argv, call, injected", TYPED_FAILURES, ids=[case[0].__name__ for case in TYPED_FAILURES]
    )
    def test_typed_failure_exit_code(self, capsys, monkeypatch, tmp_path, failure, code, argv, call, injected):
        module, name = call
        real, raised = getattr(module, name), []

        def spy(*args, **kwargs):
            try:
                if injected is not None:
                    raise injected
                return real(*args, **kwargs)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(module, name, spy)
        if argv[0] == "trajectory":
            argv = (*argv, "--out-prefix", str(tmp_path / "plan"))
        got, _, err = run_cli(capsys, *argv)
        assert type(raised[-1]) is failure
        assert got == code
        assert err == f"error: {raised[-1]}\n"
        assert not list(tmp_path.iterdir())

    def test_every_package_exception_has_a_row(self):
        defined = _package_exceptions()
        assert [cls for cls in defined if not issubclass(cls, tuple(cli._EXIT_CODES))] == []
        assert defined == {case[0] for case in TYPED_FAILURES}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sweep", "--z-min", "0.9", "--z-max", "0.1", "--steps", "5"), "need 0 < z-min < z-max < 1"),
            (("sweep", "--z-min", "0.1", "--z-max", "0.9", "--steps", "1"), "steps must be >= 2"),
            (("isotherm", "--branch", "cold", "--z", "0.3", "--K", "0", "--u0", "1", "--u1", "6"), "K must be negative"),
            (("trajectory", "--z", "0.3", *WORKED_ENDS, "--out-prefix", "plan"), "provide --K or --deadline"),
            (("engine",), "missing required option(s): --z"),
        ],
    )
    def test_usage_check_exit_code(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "branch, u0, u1, flag",
        [("cold", "1", "2000", "--u1 2000.0"), ("hot", "1e308", "1", "--u0 1e+308")],
    )
    def test_isotherm_gap_overflow_usage_error(self, capsys, branch, u0, u1, flag):
        # exp(beta*u/2) overflows a float; the flag is named and no traceback escapes
        code, out, err = run_cli(
            capsys, "isotherm", "--branch", branch, "--z", "0.3", "--K", "-0.05", "--u0", u0, "--u1", u1,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {flag} is out of range: exp(beta*u/2) overflows\n"

    @pytest.mark.parametrize("branch", ["cold", "hot"])
    @pytest.mark.parametrize("u0, u1, flag", [("nan", "1", "--u0"), ("1", "inf", "--u1")])
    def test_isotherm_nonfinite_gap_usage_error(self, capsys, tmp_path, branch, u0, u1, flag):
        # exp(beta*nan/2) is nan and exp(beta*inf/2) is inf, neither an overflow:
        # they wrote a CSV of nan and exited 0
        out = tmp_path / "arc.csv"
        code, stdout, err = run_cli(
            capsys, "isotherm", "--branch", branch, "--z", "0.3", "--K", "-0.05",
            "--u0", u0, "--u1", u1, "--samples", "3", "--out", str(out),
        )
        value = u0 if flag == "--u0" else u1
        assert (code, stdout, err) == (2, "", f"error: {flag} must be a finite gap, got {float(value)}\n")
        assert not out.exists()

    def test_deadline_solver_failure(self, capsys, tmp_path, gate_offset):
        code, out, err = run_cli(
            capsys, "trajectory", "--z", "0.3", *WORKED_ENDS, "--deadline", "20",
            "--out-prefix", str(tmp_path / "plan"),
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: engine solve did not converge at z=0.3")
        assert not list(tmp_path.iterdir())

    def test_unreadable_config_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.cfg"
        code, out, err = run_cli(capsys, "engine", "--z", "0.3", "--config", str(missing))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def _failing_csv(monkeypatch, directory, after_writes=3):
    """Make planner.write_plan_csv raise ENOSPC at its `after_writes`-th write.
    Returns the (name, size) of each temporary file in `directory` at that moment."""
    real = planner.write_plan_csv
    seen = []

    class Failing:
        def __init__(self, fileobj):
            self.fileobj, self.writes = fileobj, 0

        def write(self, text):
            self.fileobj.write(text)
            self.writes += 1
            if self.writes == after_writes:
                self.fileobj.flush()
                tmp = [p for p in directory.iterdir() if p.name.startswith(".pmp-thermo-")]
                seen.extend((p.name, p.stat().st_size) for p in tmp)
                raise OSError(errno.ENOSPC, "No space left on device")

    def write_plan_csv(plan, fileobj, samples_per_segment=1000):
        real(plan, Failing(fileobj), samples_per_segment)

    monkeypatch.setattr(planner, "write_plan_csv", write_plan_csv)
    return seen


class TestStreamedExports:
    def test_failed_trajectory_export_keeps_both_files(self, capsys, tmp_path, monkeypatch):
        argv = ["trajectory", "--z", "0.3", "--K", "-0.05", *WORKED_ENDS, "--out-prefix", str(tmp_path / "plan")]
        code, _, _ = run_cli(capsys, *argv, "--samples", "20")
        assert code == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["plan.csv", "plan.json"]
        seen = _failing_csv(monkeypatch, tmp_path)
        with pytest.raises(OSError, match="No space left"):
            main([*argv, "--cycles", "1", "--samples", "30"])
        # the rows went straight into the temporary file, which is gone with the failure
        assert len(seen) == 1 and seen[0][1] > 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_json_export_keeps_both_files(self, capsys, tmp_path, monkeypatch):
        # both temporary files are written before either is renamed: a JSON writer
        # that fails after the CSV is complete leaves the old pair in place
        argv = ["trajectory", "--z", "0.3", "--K", "-0.05", *WORKED_ENDS, "--out-prefix", str(tmp_path / "plan")]
        code, _, _ = run_cli(capsys, *argv, "--samples", "20")
        assert code == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["plan.csv", "plan.json"]

        def write_plan_json(plan, fileobj):
            fileobj.write("{")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(planner, "write_plan_json", write_plan_json)
        with pytest.raises(OSError, match="No space left"):
            main([*argv, "--cycles", "1", "--samples", "30"])
        # no .pmp-thermo-* temporary file is left either
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_isotherm_export_keeps_file(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "arc.csv"
        argv = ["isotherm", "--branch", "cold", "--z", "0.3", "--K", "-0.05", "--u0", "1", "--u1", "6"]
        argv += ["--out", str(out)]
        code, _, _ = run_cli(capsys, *argv, "--samples", "20")
        assert code == 0
        before = out.read_bytes()
        seen = _failing_csv(monkeypatch, tmp_path)
        with pytest.raises(OSError, match="No space left"):
            main([*argv, "--samples", "30"])
        assert len(seen) == 1 and seen[0][1] > 0
        assert [p.name for p in tmp_path.iterdir()] == ["arc.csv"]
        assert out.read_bytes() == before

    def test_deadline_export_streams(self, capsys, tmp_path):
        # 2 050 arcs, 4 of them distinct: formatted whole in memory before
        # the write, the CSV would cost about 2.8 times its size
        argv = ["trajectory", "--z", "0.3", *WORKED_ENDS, "--deadline", "50", "--samples", "20"]
        argv += ["--out-prefix", str(tmp_path / "plan")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        size = (tmp_path / "plan.csv").stat().st_size
        assert size > 4_000_000
        assert peak < 0.5 * size

    @pytest.mark.parametrize(
        "argv",
        [
            ["isotherm", "--branch", "hot", "--z", "0.3", "--K", "-0.05", "--u0", "7", "--u1", "1"],
            ["sweep", "--z-min", "0.2", "--z-max", "0.8", "--steps", "5"],
            ["engine", "--z", "0.3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_is_the_out_file(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0
        code, to_file, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0 and to_file == ""
        assert printed.encode() == out.read_bytes()


# Run in a fresh interpreter: no command of the CLI, and no simulation, loads scipy.
_IMPORT_PATH_SCRIPT = """
import json, sys
import numpy as np
import pmp_thermo
from pmp_thermo import cli, lindblad, planner

out = sys.argv[1]
ends = ["--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6"]
runs = [
    ["engine", "--z", "0.3", "--out", out + "/engine.json"],
    ["sweep", "--z-min", "0.2", "--z-max", "0.8", "--steps", "5", "--out", out + "/sweep.csv"],
    ["oracle", "--z", "0.3", "--K", "-0.05", *ends, "--intervals", "4", "--out", out + "/oracle.json"],
    ["trajectory", "--z", "0.3", "--K", "-0.05", *ends, "--cycles", "1", "--out-prefix", out + "/plan"],
    ["verify"],
]
codes = [cli.main(argv) for argv in runs]
plan = planner.build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 0, pmp_thermo.Baths.from_ratio(0.3))
rho0 = np.diag([0.93, 0.07]).astype(complex)
lindblad.integrate(rho0, planner.plan_to_protocol(plan), lindblad.TwoLevelResetModel(plan.baths))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


class TestEntryPoint:
    def test_no_scipy_on_any_path(self, tmp_path):
        import pmp_thermo

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pmp_thermo.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"codes": [0, 0, 0, 0, 0], "loaded": []}

    def test_installed_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pmp_thermo.cli", "engine", "--z", "0.3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["z"] == 0.3
