"""Each output check passes on real program output and rejects a slightly perturbed copy."""

import math

import pytest

import checks
import workloads


def _perturbed(op: dict, **changes) -> dict:
    return {**op, **changes}


class TestEngine:
    @pytest.fixture(scope="class")
    def rows(self, prog):
        rows, unit = [], {}
        for z, beta_c, gamma in [(2e-4, 1.0, 1.0), (3e-3, 1e-3, 1e3), (0.3, 1e3, 1e-3), (0.9, 0.5, 20.0)]:
            sol = prog.two_level.solve_engine(z, beta_c=beta_c, gamma=gamma)
            rows.append({"z": z, "beta_c": beta_c, "gamma": gamma, "K_star": sol.K_star,
                         "p_star": sol.p_star, "eta_star": sol.eta_star, "theta": sol.theta})
            unit[z] = prog.two_level.solve_engine(z).K_star
        return rows, unit

    def test_accepts_program_output(self, rows):
        assert checks.check_engine_curve(*rows) == []

    def test_switch_condition_matches_the_program(self, prog):
        baths = prog.two_level.Baths.from_ratio(0.3, beta_c=2.0, gamma=5.0)
        for p in (0.02, 0.1, 0.3):
            ours = checks.switch_condition(p, -0.05, 2.0, 0.6, 5.0)
            assert ours == pytest.approx(prog.two_level.adiabatic_f(p, -0.05, baths), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("key", ["K_star", "p_star"])
    def test_rejects_working_point_off_by_1e6(self, rows, key):
        rows, unit = rows
        bad = [dict(rows[2])]
        bad[0][key] *= 1.0 + 1e-6
        messages = checks.check_engine_curve(bad, unit)
        assert any("|f(p*, K*)|" in m or "tangency" in m for m in messages)

    def test_rejects_broken_scaling(self, rows):
        rows, unit = rows
        unit = {**unit, 0.3: unit[0.3] * (1.0 + 1e-6)}
        assert any("unit-scale" in m for m in checks.check_engine_curve(rows, unit))

    def test_rejects_g_not_falling(self, rows):
        rows, unit = rows
        unit = {**unit, 0.9: unit[0.3] * 1.01}
        assert any("g not falling" in m for m in checks.check_engine_curve(rows, unit))

    def test_rejects_efficiency_above_carnot(self, rows):
        rows, unit = rows
        bad = [_perturbed(rows[3], eta_star=1.0 - 0.9 + 1e-6)]
        assert any("above Carnot" in m for m in checks.check_engine_curve(bad, unit))

    def test_rejects_wrong_theta(self, rows):
        rows, unit = rows
        bad = [_perturbed(rows[0], theta=rows[0]["theta"] * (1.0 + 1e-12))]
        assert any("theta" in m for m in checks.check_engine_curve(bad, unit))

    def test_rejects_z_g_moving_away_from_theta(self, rows):
        rows, unit = rows
        unit = {**unit, 2e-4: unit[2e-4] * 0.9}
        assert any("theta" in m for m in checks.check_engine_curve(rows, unit))


class TestDeadline:
    @pytest.fixture(scope="class")
    def case(self, prog):
        z, tau, ends = 0.3, 10.0, (0.07, 1.0, 0.26, 6.0)
        baths = prog.two_level.Baths.from_ratio(z)
        plan = prog.planner.plan_for_deadline(*ends, tau, baths, max_cycles=8)
        sol = prog.two_level.solve_engine(z)
        q_inf = checks.heat_infimum(tau, sol.K_star, sol.p_star, ends[0], ends[2], 1.0, z, 1.0)
        op = {"tau": tau, "z": z, "beta_c": 1.0, "gamma": 1.0, "T": plan.total_time,
              "Q": plan.total_heat, "K": plan.K, "n_cycles": plan.n_cycles,
              "switch_ps": tuple(sorted({j.p for j in plan.switch_jumps}))}
        assert op["switch_ps"], "the case must contain interior switches"
        return op, q_inf

    def test_accepts_program_output(self, case):
        op, q_inf = case
        assert checks.check_deadline(op, q_inf, 1e-9, 8) == []

    def test_heat_infimum_matches_the_closed_form_limit(self):
        # Q_inf(20) quoted for the worked instance: -2.0142856
        q = checks.heat_infimum(20.0, -0.07190165, 0.088029, 0.07, 0.26, 1.0, 0.3, 1.0)
        assert q == pytest.approx(-2.0142856, abs=2e-6)

    def test_rejects_missed_deadline(self, case):
        op, q_inf = case
        bad = _perturbed(op, T=op["T"] * (1.0 + 1e-6))
        assert any("tau_rtol" in m for m in checks.check_deadline(bad, q_inf, 1e-9, 8))

    def test_rejects_heat_below_infimum(self, case):
        op, q_inf = case
        bad = _perturbed(op, Q=q_inf - 1e-4 * abs(q_inf))
        assert any("infimum" in m for m in checks.check_deadline(bad, q_inf, 1e-9, 8))

    def test_rejects_cycles_above_cap(self, case):
        op, q_inf = case
        assert any("max_cycles" in m for m in checks.check_deadline(op, q_inf, 1e-9, op["n_cycles"] - 1))

    def test_rejects_switch_off_the_root(self, case):
        op, q_inf = case
        bad = _perturbed(op, switch_ps=(op["switch_ps"][0] * (1.0 + 1e-6),) + op["switch_ps"][1:])
        assert any("switch at" in m for m in checks.check_deadline(bad, q_inf, 1e-9, 8))


class TestSimulation:
    @pytest.fixture(scope="class")
    def case(self, prog, tmp_path_factory):
        wl = workloads.PlanSimulate(7, prog, tmp_path_factory.mktemp("plans"))
        i = wl.CYCLES.index(1)  # the first z value, one inner cycle
        outputs = [None] * len(wl.inputs)
        outputs[i] = wl.run(i)
        return wl, outputs, i

    def test_accepts_program_output(self, case):
        wl, outputs, _ = case
        assert wl.check(outputs) == []

    @pytest.mark.parametrize(
        "key, factor, expect",
        [("plan_heat", 1 + 1e-4, "GKSL heat"), ("gksl_p_final", 1 + 1e-4, "final population")],
    )
    def test_rejects_shifted_result(self, case, key, factor, expect):
        wl, outputs, i = case
        bad = list(outputs)
        bad[i] = _perturbed(outputs[i], **{key: outputs[i][key] * factor})
        assert any(expect in m for m in wl.check(bad))

    def test_rejects_open_first_law(self, case):
        wl, outputs, i = case
        bad = list(outputs)
        bad[i] = _perturbed(outputs[i], first_law=1e-6)
        assert any("first-law" in m for m in wl.check(bad))

    def test_rejects_pmp_residual_over_verify_threshold(self, case):
        wl, outputs, i = case
        bad = list(outputs)
        bad[i] = _perturbed(outputs[i], validate={**outputs[i]["validate"], "max_dq": 1e-6})
        assert any("max_dq" in m for m in wl.check(bad))

    def test_rejects_csv_not_ending_at_the_totals(self, case):
        wl, outputs, i = case
        path = wl._prefix(i).with_suffix(".csv")
        text = path.read_text()
        lines = text.rstrip("\n").split("\n")
        row = lines[-1].split(",")
        row[5] = repr(float(row[5]) * (1.0 + 1e-4))
        try:
            path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
            assert any("Qcum" in m for m in wl.check(outputs))
        finally:
            path.write_text(text)


class TestOracle:
    @pytest.fixture(scope="class")
    def case(self, prog, tmp_path_factory):
        wl = workloads.OracleSearch(7, prog, tmp_path_factory.mktemp("oracle"))
        K, ends, _, _ = wl.inputs[0]
        n, levels = 4, 12
        op = wl._op((K, ends, n, levels))
        return {**op, "z": wl.Z, "beta_c": 1.0, "gamma": 1.0, "p_in": ends[0], "p_out": ends[2],
                "p_tol": wl.P_TOL, "u_max": wl.U_MAX, "n_intervals": n, "n_levels": levels}

    def test_accepts_program_output(self, case):
        assert checks.check_oracle(case) == []

    def test_rejects_heat_not_reproduced(self, case):
        bad = _perturbed(case, q_best=case["q_best"] + 1e-4 * abs(case["q_best"]))
        assert any("when stepped" in m for m in checks.check_oracle(bad))

    def test_rejects_oracle_beating_the_plan(self, case):
        bad = _perturbed(case, q_pmp=case["q_best"] + 2 * case["u_max"] * case["p_tol"])
        assert any("beats the plan" in m for m in checks.check_oracle(bad))

    def test_rejects_wrong_protocol_count(self, case):
        bad = _perturbed(case, n_evaluated=case["n_evaluated"] + 1)
        assert any("n_protocols_evaluated" in m for m in checks.check_oracle(bad))

    def test_rejects_target_missed(self, case):
        bad = _perturbed(case, p_out=case["p_final"] + 2 * case["p_tol"])
        assert any("misses p_out" in m for m in checks.check_oracle(bad))


def test_theta_is_lambert_w_of_inverse_e():
    th = checks.theta()
    assert 4 * th * math.exp(4 * th) == pytest.approx(math.exp(-1.0), rel=1e-15)
