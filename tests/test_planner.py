import io
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from pmp_thermo import planner
from pmp_thermo.lindblad import TwoLevelResetModel, integrate
from pmp_thermo.planner import (
    DeadlineInfeasible,
    NoCycleExists,
    Unreachable,
    build_trajectory,
    cycle_decomposition,
    monotonicity_profile,
    plan_for_deadline,
    plan_to_protocol,
    sample_plan,
    validate_plan,
    write_plan_csv,
    write_plan_json,
)
from pmp_thermo.two_level import (
    COLD,
    HOT,
    Baths,
    find_jump_points,
    isotherm_u_of_p,
    mu,
    solve_engine,
)

K_REF = -0.05
ENDPOINTS = dict(p_in=0.07, u_in=1.0, p_out=0.26, u_out=6.0)


@pytest.fixture
def worked_plan(baths03):
    return build_trajectory(0.07, 1.0, 0.26, 6.0, K_REF, 0, baths03)


class TestCycleDecomposition:
    def test_reference_cycle_against_loop_quadrature(self, baths03):
        dec = cycle_decomposition(K_REF, baths03)
        assert dec.q_cycle < 0.0
        assert dec.tau_cycle > 0.0
        # oracle: the loop heat is -(closed path integral of u dp), i.e. the
        # signed area between the two gap profiles over [p_ad1, p_ad2]
        mu_c = mu(K_REF, baths03.beta_c, COLD)
        mu_h = mu(K_REF, baths03.beta_h, HOT)
        area, err = quad(
            lambda p: isotherm_u_of_p(p, mu_c, baths03.beta_c)
            - isotherm_u_of_p(p, mu_h, baths03.beta_h),
            dec.p_ad1,
            dec.p_ad2,
            epsabs=1e-12,
        )
        assert err < 1e-9
        assert dec.q_cycle == pytest.approx(area, rel=1e-9)

    def test_cycle_vanishes_at_threshold(self, baths03):
        sol = solve_engine(baths03.z)
        for eps in (1e-2, 1e-3, 1e-4):
            dec = cycle_decomposition(sol.K_star + eps, baths03)
            assert abs(dec.q_cycle) < abs(cycle_decomposition(K_REF, baths03).q_cycle)
        qs = [abs(cycle_decomposition(sol.K_star + eps, baths03).q_cycle) for eps in (1e-2, 1e-3, 1e-4)]
        assert qs[0] > qs[1] > qs[2]

    def test_rate_approaches_threshold_rate(self, baths03):
        sol = solve_engine(baths03.z)
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5):
            dec = cycle_decomposition(sol.K_star + eps, baths03)
            gaps.append(dec.rate - sol.K_star)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        # gap shrinks at least linearly in eps
        assert gaps[1] <= gaps[0] * 0.2
        assert gaps[2] <= gaps[1] * 0.2

    def test_no_cycle_below_threshold(self, baths03):
        with pytest.raises(NoCycleExists):
            cycle_decomposition(-0.2, baths03)

    def test_isochore_symmetry_near_threshold(self, baths03):
        sol = solve_engine(baths03.z)
        dec = cycle_decomposition(sol.K_star + 1e-6, baths03)
        assert dec.tau_hot == pytest.approx(dec.tau_cold, rel=1e-4)

    def test_degenerate_cycle_rate_is_rate_constant(self, baths03):
        sol = solve_engine(baths03.z)
        dec = cycle_decomposition(sol.K_star, baths03)
        assert dec.tau_cycle == 0.0
        assert dec.rate == sol.K_star


class TestBuildTrajectory:
    def test_empty_plan(self, baths03):
        plan = build_trajectory(0.2, 1.0, 0.2, 1.0, K_REF, 0, baths03)
        assert plan.segments == ()
        assert plan.total_time == 0.0
        assert plan.total_heat == 0.0

    def test_worked_instance_structure(self, worked_plan, baths03):
        # cold descent, one interior switch, hot ascent, with boundary quenches
        assert worked_plan.structure == ("entry", "cold", "switch", "hot", "exit")
        assert len(worked_plan.switch_jumps) == 1
        p1, _ = find_jump_points(K_REF, baths03)
        assert worked_plan.switch_jumps[0].p == pytest.approx(p1, abs=1e-12)
        arcs = worked_plan.arcs
        assert arcs[0].branch.kind == "cold" and arcs[1].branch.kind == "hot"

    def test_worked_instance_beats_direct_route(self, worked_plan, baths03):
        # the single hot arc is admissible too but releases more heat
        from pmp_thermo.two_level import segment_from_populations

        direct = segment_from_populations(HOT, K_REF, baths03, 0.07, 0.26)
        assert worked_plan.total_heat < direct.heat

    def test_one_cycle_adds_exact_increments(self, worked_plan, baths03):
        dec = cycle_decomposition(K_REF, baths03)
        plan1 = build_trajectory(0.07, 1.0, 0.26, 6.0, K_REF, 1, baths03)
        assert plan1.total_time - worked_plan.total_time == pytest.approx(dec.tau_cycle, abs=1e-10)
        assert plan1.total_heat - worked_plan.total_heat == pytest.approx(dec.q_cycle, abs=1e-10)
        assert plan1.n_cycles == 1
        assert len(plan1.switch_jumps) == 3

    def test_continuity_across_switches(self, worked_plan):
        dp, dq = worked_plan.continuity_errors()
        assert dp < 1e-12
        assert dq < 1e-9

    def test_pmp_validation(self, worked_plan):
        report = validate_plan(worked_plan)
        assert report["max_conservation"] < 1e-9
        assert report["max_stationarity"] < 1e-9
        assert report["max_bang_bang_violation"] <= 1e-12

    def test_decomposition_identity(self, baths03, worked_plan):
        # arc sums reproduce the two-part plus cycles closed-form totals
        dec = cycle_decomposition(K_REF, baths03)
        for n in (0, 1, 3):
            plan = build_trajectory(0.07, 1.0, 0.26, 6.0, K_REF, n, baths03)
            expected_tau = worked_plan.total_time + n * dec.tau_cycle
            expected_q = worked_plan.total_heat + n * dec.q_cycle
            assert plan.total_time == pytest.approx(expected_tau, abs=1e-10)
            assert plan.total_heat == pytest.approx(expected_q, abs=1e-10)

    def test_forward_simulation_agreement(self, worked_plan, baths03):
        model = TwoLevelResetModel(baths03)
        rho0 = np.diag([1.0 - 0.07, 0.07]).astype(complex)
        res = integrate(rho0, plan_to_protocol(worked_plan), model)
        assert res.ledger.heat_released == pytest.approx(worked_plan.total_heat, rel=1e-6)
        assert res.final_state[1, 1].real == pytest.approx(0.26, abs=1e-8)

    def test_unreachable_against_flow(self, baths03):
        # raising p needs the hot branch, but the target exceeds its admissible
        # range and no switch populations exist at this K
        mu_h = mu(-0.2, baths03.beta_h, HOT)
        p_hot_max = (1.0 - mu_h) / 2.0
        with pytest.raises(Unreachable):
            build_trajectory(0.1, 1.0, p_hot_max + 0.1, 1.0, -0.2, 0, baths03)

    def test_cycles_require_switch_points(self, baths03):
        # below the threshold rate no switch populations exist, so the same
        # endpoints that work at zero cycles cannot host any
        build_trajectory(0.3, 1.0, 0.1, 2.0, -0.2, 0, baths03)
        with pytest.raises(Unreachable):
            build_trajectory(0.3, 1.0, 0.1, 2.0, -0.2, 1, baths03)

    def test_detour_through_switch_point_when_profitable(self, baths03):
        # even a pure descent can profitably route through the upper switch
        # population and return on the hot branch when that lowers the heat
        plan = build_trajectory(0.3, 1.0, 0.25, 2.0, K_REF, 0, baths03)
        from pmp_thermo.two_level import segment_from_populations

        direct = segment_from_populations(COLD, K_REF, baths03, 0.3, 0.25)
        assert plan.total_heat <= direct.heat + 1e-15

    def test_cycle_on_descending_endpoints(self, baths03):
        # a net descent still hosts cycles; one cycle adds exactly the loop terms
        plan0 = build_trajectory(0.3, 1.0, 0.1, 2.0, K_REF, 0, baths03)
        plan = build_trajectory(0.3, 1.0, 0.1, 2.0, K_REF, 1, baths03)
        assert plan.n_cycles == 1
        assert len(plan.switch_jumps) == len(plan0.switch_jumps) + 2
        dec = cycle_decomposition(K_REF, baths03)
        assert plan.total_heat - plan0.total_heat == pytest.approx(dec.q_cycle, abs=1e-10)
        assert plan.total_time - plan0.total_time == pytest.approx(dec.tau_cycle, abs=1e-10)

    def test_rate_positive_rejected(self, baths03):
        with pytest.raises(ValueError):
            build_trajectory(0.07, 1.0, 0.26, 6.0, 0.0, 0, baths03)


class TestMonotonicityProfile:
    def test_analytic_matches_numeric(self, baths03, rng):
        rows_checked = 0
        for _ in range(20):
            K = -float(rng.uniform(0.01, 0.25))
            branch = COLD if rng.uniform() < 0.5 else HOT
            beta = baths03.beta(branch.kind)
            mu_v = mu(K, beta, branch)
            from pmp_thermo.two_level import isotherm_p

            p_edge = isotherm_p(1.0, mu_v)
            if branch.kind == "cold":
                pa = float(rng.uniform(0.1, p_edge - 0.02))
                pb = float(rng.uniform(0.02, pa - 0.05))
            else:
                pa = float(rng.uniform(0.02, p_edge - 0.07))
                pb = float(rng.uniform(pa + 0.05, p_edge - 0.01))
            rows = monotonicity_profile([K], branch, pa, pb, baths03)
            row = rows[0]
            assert row["dtau_dK_numeric"] == pytest.approx(row["dtau_dK_analytic"], rel=1e-6)
            assert row["dQ_dK_numeric"] == pytest.approx(row["dQ_dK_analytic"], rel=1e-6)
            assert row["dtau_dK_analytic"] > 0.0
            assert row["dQ_dK_analytic"] < 0.0
            rows_checked += 1
        assert rows_checked == 20

    def test_grid_output_shape(self, baths03):
        grid = [-0.08, -0.05, -0.02]
        rows = monotonicity_profile(grid, COLD, 0.3, 0.1, baths03)
        assert [r["K"] for r in rows] == grid


class TestDeadlinePlanner:
    def test_reproduces_fixed_rate_plan(self, baths03, worked_plan):
        plan = plan_for_deadline(0.07, 1.0, 0.26, 6.0, worked_plan.total_time, baths03, max_cycles=0)
        assert plan.K == pytest.approx(K_REF, abs=1e-10)
        assert plan.n_cycles == 0
        assert plan.total_time == pytest.approx(worked_plan.total_time, rel=1e-9)

    def test_heat_decreases_with_deadline(self, baths03):
        heats = [
            plan_for_deadline(0.07, 1.0, 0.26, 6.0, T, baths03, max_cycles=128).total_heat
            for T in (10.0, 20.0, 40.0, 80.0, 160.0)
        ]
        assert all(heats[i] > heats[i + 1] for i in range(len(heats) - 1))

    def test_long_deadline_rate_near_threshold(self, baths03):
        sol = solve_engine(baths03.z)
        plan = plan_for_deadline(0.07, 1.0, 0.26, 6.0, 1000.0, baths03, max_cycles=1024)
        dec = cycle_decomposition(plan.K, baths03)
        assert abs(dec.rate - sol.K_star) < 0.05 * abs(sol.K_star)
        assert plan.n_cycles == 1024

    def test_deadline_matching(self, baths03):
        plan = plan_for_deadline(0.07, 1.0, 0.26, 6.0, 33.0, baths03, max_cycles=64)
        assert plan.total_time == pytest.approx(33.0, rel=1e-9)

    def test_negative_cycle_cap_rejected(self, baths03):
        with pytest.raises(ValueError):
            plan_for_deadline(0.07, 1.0, 0.26, 6.0, 20.0, baths03, max_cycles=-1)

    def test_infeasible_deadline_reports_minimum(self, baths03, worked_plan):
        sol = solve_engine(baths03.z)
        fast = build_trajectory(0.07, 1.0, 0.26, 6.0, sol.K_star * (1 - 1e-9), 0, baths03)
        with pytest.raises(DeadlineInfeasible) as err:
            plan_for_deadline(0.07, 1.0, 0.26, 6.0, fast.total_time * 0.5, baths03)
        assert err.value.tau_min == pytest.approx(fast.total_time, rel=1e-6)


def _scan_deadline_plan(p_in, u_in, p_out, u_out, tau_target, baths, max_cycles, tau_rtol=1e-9):
    """Test oracle: one root solve in K for every cycle count N = 0 ... max_cycles.

    This is the search plan_for_deadline ran before it read the cycle count
    from the closed form: each N gets its own bracketed solve (the bracket
    shrinks as N grows), and among the plans that meet the deadline the
    least heat wins, ties going to the larger N.
    """
    sol = solve_engine(baths.z, beta_c=baths.beta_c, gamma=baths.gamma)
    k_floor = sol.K_star * (1.0 - 1e-9)
    pricer = planner._DeadlinePricer(p_in, u_in, p_out, u_out, baths)

    def solve_k(n, k_hi_seed):
        lo_tau = pricer.tau(k_floor, n)
        if math.isnan(lo_tau) or lo_tau > tau_target * (1.0 + tau_rtol):
            return None
        if abs(lo_tau - tau_target) <= tau_rtol * tau_target:
            return k_floor
        k_hi = k_hi_seed
        hi_tau = pricer.tau(k_hi, n)
        for _ in range(200):
            if math.isnan(hi_tau) or hi_tau >= tau_target:
                break
            k_hi *= 0.6
            hi_tau = pricer.tau(k_hi, n)
        if math.isnan(hi_tau):
            return None
        if abs(hi_tau - tau_target) <= tau_rtol * tau_target:
            return k_hi
        if hi_tau < tau_target:
            return None

        def gap(K):
            t = pricer.tau(K, n)
            return t - tau_target if not math.isnan(t) else math.inf

        return float(brentq(gap, k_floor, k_hi, xtol=1e-15, rtol=8.9e-16))

    best = None
    k_prev = k_floor
    for n in range(max_cycles + 1):
        k_sol = solve_k(n, k_hi_seed=k_prev if n > 0 else k_floor)
        if k_sol is None:
            if n == 0:
                continue
            break
        k_prev = k_sol
        plan = pricer.plan(k_sol, n)
        if plan is None or abs(plan.total_time - tau_target) > max(tau_rtol * tau_target, 1e-9):
            continue
        if best is None or plan.total_heat < best.total_heat or (
            plan.total_heat == best.total_heat and plan.n_cycles >= best.n_cycles
        ):
            best = plan
    return best


def _tau_min(z):
    return build_trajectory(*ENDPOINTS.values(), solve_engine(z).K_star * (1 - 1e-9), 0, Baths.from_ratio(z)).total_time


class TestDeadlineSearch:
    @pytest.mark.parametrize("max_cycles", [8, 64])
    @pytest.mark.parametrize("stretch", [1.05, 10.0])
    @pytest.mark.parametrize("z", [0.3, 0.9])
    def test_no_worse_than_scan(self, z, stretch, max_cycles):
        baths = Baths.from_ratio(z)
        tau = stretch * _tau_min(z)
        plan = plan_for_deadline(*ENDPOINTS.values(), tau, baths, max_cycles=max_cycles)
        scan = _scan_deadline_plan(*ENDPOINTS.values(), tau, baths, max_cycles)
        assert abs(plan.total_time - tau) <= max(1e-9 * tau, 1e-9)
        assert plan.n_cycles <= max_cycles
        assert plan.total_heat <= scan.total_heat + 1e-8 * abs(scan.total_heat)

    @pytest.mark.parametrize("tau", [3.34, 5000.0])
    def test_switch_point_solves_bounded(self, baths03, monkeypatch, tau):
        # a few root solves, not one per cycle count up to max_cycles = 1024;
        # tau_min is 3.18 for these endpoints
        calls = []

        def counted(K, baths):
            calls.append(K)
            return find_jump_points(K, baths)

        monkeypatch.setattr(planner, "find_jump_points", counted)
        plan = plan_for_deadline(*ENDPOINTS.values(), tau, baths03)
        assert abs(plan.total_time - tau) <= 1e-9 * tau
        assert len(calls) <= 150


class TestSamplingAndExport:
    def test_samples_follow_plan(self, worked_plan):
        samples = sample_plan(worked_plan, samples_per_segment=50)
        assert samples.t[0] == 0.0
        assert samples.t[-1] == pytest.approx(worked_plan.total_time, abs=1e-12)
        assert np.all(np.diff(samples.t) >= -1e-12)
        assert samples.q_cum[-1] == pytest.approx(worked_plan.total_heat, abs=1e-10)
        # population trace: down along cold, up along hot
        cold_mask = samples.branch == "cold"
        assert np.all(np.diff(samples.p[cold_mask]) <= 1e-12)
        hot_mask = samples.branch == "hot"
        assert np.all(np.diff(samples.p[hot_mask]) >= -1e-12)

    def test_json_round_trip(self, worked_plan):
        buf = io.StringIO()
        write_plan_json(worked_plan, buf)
        data = json.loads(buf.getvalue())
        assert data["K"] == K_REF
        assert data["n_cycles"] == 0
        assert [s["type"] for s in data["segments"]] == ["jump", "isotherm", "jump", "isotherm", "jump"]
        assert data["total_heat"] == pytest.approx(worked_plan.total_heat, abs=1e-15)

    def test_repeated_cycles_shift_in_time_and_heat(self, baths03):
        # copies of the inner cycle share their arcs; each copy is offset in t and Qcum
        plan = build_trajectory(*ENDPOINTS.values(), K_REF, 3, baths03)
        samples = sample_plan(plan, samples_per_segment=20)
        dec = cycle_decomposition(K_REF, baths03)
        assert np.all(np.diff(samples.t) >= -1e-12)
        assert samples.t[-1] == pytest.approx(plan.total_time, abs=1e-12)
        assert samples.q_cum[-1] == pytest.approx(plan.total_heat, abs=1e-10)
        ends = np.flatnonzero((samples.branch == "hot") & np.isclose(samples.p, dec.p_ad2, rtol=0.0, atol=1e-12))
        assert ends.size == 3
        assert np.diff(samples.t[ends]) == pytest.approx([dec.tau_cycle] * 2, abs=1e-12)
        assert np.diff(samples.q_cum[ends]) == pytest.approx([dec.q_cycle] * 2, abs=1e-12)

    def test_csv_deterministic(self, worked_plan):
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_plan_csv(worked_plan, buf1, samples_per_segment=20)
        write_plan_csv(worked_plan, buf2, samples_per_segment=20)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().splitlines()
        assert lines[0].startswith("# units:")
        assert lines[1] == "t,u,p,q,branch,Qcum"
