import dataclasses
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from pmp_thermo import cli, planner, pmp
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
    IsothermSegment,
    _q_of_x,
    chi,
    find_jump_points,
    isotherm_p,
    isotherm_u_of_p,
    mu,
    segment_from_populations,
    solve_engine,
    xi,
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
    def test_totals_cached_outside_the_fields(self, worked_plan):
        plan = dataclasses.replace(worked_plan)
        arcs, total_time, total_heat = plan.arcs, plan.total_time, plan.total_heat
        assert plan.arcs is arcs and plan.total_time is total_time and plan.total_heat is total_heat
        assert plan == worked_plan and hash(plan) == hash(worked_plan)
        assert dataclasses.asdict(plan).keys() == {f.name for f in dataclasses.fields(plan)}
        assert total_heat == worked_plan.total_heat and total_time == worked_plan.total_time

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


def _reference_cycle_entries(start_branch, start_p, K, baths, p1, p2):
    """The inner loop as plan assembly built it before it rotated one shared
    loop: four steps from (start_branch, start_p), each an arc or a switch."""
    entries = []
    branch, p = start_branch, start_p
    for _ in range(4):
        if branch.kind == "hot":
            if abs(p - p1) <= planner._P_TOL:
                entries.extend(planner._arc_entries(HOT, K, baths, p1, p2))
                branch, p = HOT, p2
            else:
                entries.append(planner._switch(HOT, K, baths, p2))
                branch, p = COLD, p2
        else:
            if abs(p - p2) <= planner._P_TOL:
                entries.extend(planner._arc_entries(COLD, K, baths, p2, p1))
                branch, p = COLD, p1
            else:
                entries.append(planner._switch(COLD, K, baths, p1))
                branch, p = HOT, p1
    return entries


def _cycle_start(plan, p1, p2):
    """(index, branch, p) where a walk along the plan first stands on a switch
    population, branch being that of the entry it is about to take."""
    p = plan.p_in
    for i, entry in enumerate(plan.segments):
        if isinstance(entry, planner.AdiabaticJump):
            if entry.kind == "entry":
                continue
            branch = entry.from_branch
        else:
            branch = entry.branch
        for pj in (p1, p2):
            if abs(p - pj) <= planner._P_TOL:
                return i, branch, pj
        if isinstance(entry, IsothermSegment):
            p = isotherm_p(entry.x1, mu(plan.K, plan.baths.beta(branch.kind), branch, plan.baths.gamma))
    raise AssertionError("the plan never meets a switch population")


def _rotation_case(name):
    """(endpoints, K) at z = 0.3 for each place a leg can meet the loop, and the tangency."""
    sol = solve_engine(0.3)
    if name == "tangency":
        return (0.07, 1.0, 0.26, 6.0), sol.K_star
    K = 0.65 * sol.K_star
    p1, p2 = find_jump_points(K, Baths.from_ratio(0.3))
    lo, mid = 0.5 * p1, 0.5 * (p1 + p2)
    p_in, p_out = {"hot-p1": (lo, lo), "hot-p2": (mid, lo), "cold-p2": (p2, lo), "cold-p1": (mid, mid)}[name]
    return (p_in, 1.0, p_out, 1.0), K


class TestCycleRotation:
    """Plans enter the shared loop where their leg meets it, as the former walk did."""

    @pytest.mark.parametrize("name", ["hot-p1", "hot-p2", "cold-p2", "cold-p1", "tangency"])
    def test_entries_match_reference_walk(self, baths03, name):
        ends, K = _rotation_case(name)
        p1, p2 = find_jump_points(K, baths03)
        if name == "tangency":
            assert p1 == p2
        rest = None
        for n in (1, 2, 3):
            plan = build_trajectory(*ends, K, n, baths03)
            segments = plan.segments
            i, branch, p = _cycle_start(plan, p1, p2)
            if name != "tangency":
                assert f"{branch.kind}-p{1 if p == p1 else 2}" == name
            block = _reference_cycle_entries(branch, p, K, baths03, p1, p2) * n
            assert list(segments[i : i + len(block)]) == block
            outside = segments[:i] + segments[i + len(block) :]
            assert rest is None or outside == rest
            rest = outside

    # endpoints whose legs never run from one switch population to the other,
    # so that only the loop builds these two arcs
    @pytest.mark.parametrize("name", ["worked", "hot-p2", "cold-p1"])
    def test_loop_arcs_built_once(self, baths03, monkeypatch, name):
        """Three cycles and up to six candidates: the loop's two arcs are built once."""
        ends, K = ((0.07, 1.0, 0.26, 6.0), K_REF) if name == "worked" else _rotation_case(name)
        p1, p2 = find_jump_points(K, baths03)
        calls = []
        build = planner.segment_from_populations

        def spy(branch, K, baths, p_from, p_to):
            calls.append((branch.kind, p_from, p_to))
            return build(branch, K, baths, p_from, p_to)

        monkeypatch.setattr(planner, "segment_from_populations", spy)
        build_trajectory(*ends, K, 3, baths03, _jumps=(p1, p2))
        assert calls.count(("hot", p1, p2)) == 1
        assert calls.count(("cold", p2, p1)) == 1


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

    @pytest.mark.parametrize("tau", [1e10, 1e15, 1e20])
    @pytest.mark.parametrize("z", [0.3, 0.9])
    def test_long_deadline_plans(self, z, tau):
        # the root lies near K = -2e-13 at tau = 1e10 (z = 0.3), far below |K*|,
        # where a K tolerance relative to |K*| alone misses 1e-9 * tau
        plan = plan_for_deadline(*ENDPOINTS.values(), tau, Baths.from_ratio(z))
        assert abs(plan.total_time - tau) <= 1e-9 * tau
        assert plan.n_cycles == 1024

    @pytest.mark.parametrize("z", [0.3, 0.9])
    def test_unplanned_long_deadline_is_not_called_short(self, z):
        # the bracket search in K runs out long before tau = 1e30
        with pytest.raises(DeadlineInfeasible) as err:
            plan_for_deadline(*ENDPOINTS.values(), 1e30, Baths.from_ratio(z))
        assert "below" not in str(err.value)
        assert "no plan met the deadline" in str(err.value)
        assert err.value.tau_min == pytest.approx(_tau_min(z), rel=1e-12)


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

    @pytest.mark.parametrize("z", [0.3, 0.9])
    def test_cycle_terms_reuse_the_plan_loop(self, monkeypatch, z):
        # pricing a K builds the 1-cycle plan's arcs and no loop of its own
        baths = Baths.from_ratio(z)
        K = 0.5 * solve_engine(z).K_star
        pricer = planner._DeadlinePricer(*ENDPOINTS.values(), baths)
        jumps = pricer.jumps(K)
        arcs, loops = [], []
        segment_from_populations, cycle_loop = planner.segment_from_populations, planner._cycle_loop
        monkeypatch.setattr(planner, "segment_from_populations", lambda *a: arcs.append(a) or segment_from_populations(*a))
        monkeypatch.setattr(planner, "_cycle_loop", lambda *a: loops.append(a) or cycle_loop(*a))
        tau_arcs, tau_cyc = pricer.cycle_terms(K)
        priced = (len(arcs), len(loops))
        arcs.clear()
        loops.clear()
        plan = build_trajectory(*ENDPOINTS.values(), K, 1, baths, _jumps=jumps)
        assert priced == (len(arcs), len(loops)) == (len(arcs), 1)
        assert tau_cyc > 0.0 and tau_arcs + tau_cyc == pytest.approx(plan.total_time, rel=1e-15)


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


def _reference_arc_x(seg, mu_val, c0, gamma, dt):
    """_arc_xs at one offset dt, as the scalar kernel that the integrator used
    to ask one t at a time: the root of chi(x) = c0 + gamma dt, c0 = chi(x0).

    Newton's method from linear interpolation in dt, bracketed between x0
    (where chi - target < 0) and x1 (where it is > 0); a step that would
    leave the bracket bisects it instead.  The arc ends return x0 and x1.
    """
    if dt <= 0.0:
        return seg.x0
    if dt >= seg.duration:
        return seg.x1
    target = c0 + gamma * dt
    a, b = seg.x0, seg.x1
    x = a + (b - a) * (dt / seg.duration)
    for _ in range(planner._ARC_ITERS):
        g = chi(x, mu_val) - target
        if g == 0.0:
            return x
        if g < 0.0:
            a = x
        else:
            b = x
        x_new = x - g * x * (1.0 + x * x) / planner._chi_slope(x, mu_val)
        if not min(a, b) < x_new < max(a, b):
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= 1e-13 * x:
            return x_new
        x = x_new
    return x


def _reference_arc_rows(seg, baths, samples):
    """_arc_rows as it was before it sampled an arc as one array: a scalar
    inversion and scalar closed forms per sample, one row tuple each."""
    beta = baths.beta(seg.branch.kind)
    mu_val = mu(seg.K, beta, seg.branch, baths.gamma)
    c0 = chi(seg.x0, mu_val)
    xi0 = xi(seg.x0, mu_val)
    rows = []
    for dt in np.linspace(0.0, seg.duration, max(samples, 2)).tolist():
        x = _reference_arc_x(seg, mu_val, c0, baths.gamma, dt)
        u_val = (2.0 / beta) * math.log(x)
        q = _q_of_x(x, u_val, mu_val, beta)
        rows.append((dt, u_val, isotherm_p(x, mu_val), q, (xi(x, mu_val) - xi0) / beta))
    return rows


def _reference_rows_by_arc(plan, samples):
    """Rows of each distinct arc, from _reference_arc_rows."""
    rows = {}
    for entry in plan.segments:
        if isinstance(entry, IsothermSegment) and entry not in rows:
            rows[entry] = _reference_arc_rows(entry, plan.baths, samples)
    return rows


def _reference_sample_plan(plan, samples_per_segment=1000):
    """sample_plan as it was before the row walk: six parallel lists."""
    ts, us, ps, qs, brs, qcums = [], [], [], [], [], []
    t0 = 0.0
    heat_acc = 0.0
    rows = _reference_rows_by_arc(plan, samples_per_segment)
    for entry in plan.segments:
        if isinstance(entry, planner.AdiabaticJump):
            branch_label = (entry.to_branch or entry.from_branch or COLD).kind
            for u_val, q_val in zip((entry.u_from, entry.u_to), planner._quench_q(entry, plan.K, plan.baths)):
                ts.append(t0)
                us.append(u_val)
                ps.append(entry.p)
                qs.append(q_val)
                brs.append(branch_label)
                qcums.append(heat_acc)
            continue
        for dt, u_val, p, q, dq in rows[entry]:
            ts.append(t0 + dt)
            us.append(u_val)
            ps.append(p)
            qs.append(q)
            brs.append(entry.branch.kind)
            qcums.append(heat_acc + dq)
        t0 += entry.duration
        heat_acc += entry.heat
    return planner.PlanSamples(
        t=np.array(ts), u=np.array(us), p=np.array(ps), q=np.array(qs), branch=np.array(brs), q_cum=np.array(qcums)
    )


def _reference_write_plan_csv(plan, fileobj, samples_per_segment=1000):
    """write_plan_csv as it was: an index loop over the arrays of sample_plan."""
    samples = _reference_sample_plan(plan, samples_per_segment)
    fmt = lambda x: f"{x:.15g}"
    fileobj.write(
        f"# units: time 1/gamma (gamma={fmt(plan.baths.gamma)}), "
        f"energy 1/beta_c (beta_c={fmt(plan.baths.beta_c)}); K={fmt(plan.K)}\n"
    )
    fileobj.write("t,u,p,q,branch,Qcum\n")
    for i in range(samples.t.size):
        row = [samples.t[i], samples.u[i], samples.p[i], samples.q[i], samples.branch[i], samples.q_cum[i]]
        fileobj.write(",".join([*map(fmt, row[:4]), str(row[4]), fmt(row[5])]) + "\n")


class TestRowWalkAgainstReference:
    """sample_plan and write_plan_csv give the bits of the former per-column lists."""

    @pytest.mark.parametrize("samples", [2, 1000])
    def test_samples_and_csv(self, reference_plan, samples):
        plan = reference_plan
        got, want = sample_plan(plan, samples), _reference_sample_plan(plan, samples)
        for name in ("t", "u", "p", "q", "branch", "q_cum"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
        buf, ref = io.StringIO(), io.StringIO()
        write_plan_csv(plan, buf, samples)
        _reference_write_plan_csv(plan, ref, samples)
        assert buf.getvalue() == ref.getvalue()

    def test_empty_plan_gives_empty_float_arrays(self, baths03):
        samples = sample_plan(build_trajectory(0.07, 1.0, 0.07, 1.0, K_REF, 0, baths03))
        assert all(getattr(samples, name).shape == (0,) for name in ("t", "u", "p", "q", "branch", "q_cum"))
        assert all(getattr(samples, name).dtype == np.float64 for name in ("t", "u", "p", "q", "branch", "q_cum"))


def _chi_mp(x, mu_val):
    x, mu_val = mp.mpf(x), mp.mpf(mu_val)
    return -(2 / mu_val) * mp.atan(x) + mp.log((x * x + 1) / x)


def _kernel_arcs(z, k_frac):
    """Arcs between the switch populations, and arcs reaching x = 1 (u -> 0) and the
    hot edge x = 1/mu_h (p -> 0)."""
    baths = Baths.from_ratio(z)
    K = k_frac * solve_engine(z).K_star
    p1, p2 = find_jump_points(K, baths)
    p_x1_cold = isotherm_p(1.0 + 1e-9, mu(K, baths.beta_c, COLD))
    p_x1_hot = isotherm_p(1.0 + 1e-9, mu(K, baths.beta_h, HOT))
    segs = [
        segment_from_populations(HOT, K, baths, p1, p2),
        segment_from_populations(COLD, K, baths, p2, p1),
        segment_from_populations(HOT, K, baths, 1e-9, p_x1_hot),
        segment_from_populations(COLD, K, baths, p_x1_cold, 1e-3),
    ]
    return baths, segs


class TestArcKernel:
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.9])
    @pytest.mark.parametrize("k_frac", [0.99, 0.5, 1e-3])
    def test_inversion_against_mpmath(self, z, k_frac):
        # No inversion of chi in doubles beats the rounding of chi itself: an
        # error of eps |chi terms| in chi moves x by that over |x chi'(x)|.  That
        # bound passes 4e-15 relative far from the hot edge and at small |K|;
        # brentq with xtol = 1e-14 reached 3.1 times it on these arcs, Newton 0.92.
        eps = np.finfo(float).eps
        baths, segs = _kernel_arcs(z, k_frac)
        for seg in segs:
            mu_val = mu(seg.K, baths.beta(seg.branch.kind), seg.branch, baths.gamma)
            c0 = chi(seg.x0, mu_val)
            offsets = [seg.duration * f for f in (1e-12, 1e-6, *np.linspace(0.0, 1.0, 23)[1:-1], 1 - 1e-6, 1 - 1e-12)]
            with mp.workdps(40):
                chi0 = _chi_mp(seg.x0, mu_val)
                for dt in offsets:
                    x = _reference_arc_x(seg, mu_val, c0, baths.gamma, dt)
                    target = chi0 + mp.mpf(baths.gamma) * mp.mpf(dt)
                    ref = mp.findroot(lambda xx: _chi_mp(xx, mu_val) - target, mp.mpf(x))
                    terms = abs(2 * math.atan(x) / mu_val) + abs(math.log((x * x + 1) / x)) + abs(c0)
                    slope = abs(planner._chi_slope(x, mu_val)) / (1.0 + x * x)
                    err = float(abs((x - ref) / ref))
                    assert err <= max(4e-15, 2 * eps * terms / slope), (seg, dt, err)

    @pytest.mark.parametrize("z", [0.1, 0.9])
    def test_exact_ends_and_monotone(self, z):
        baths, segs = _kernel_arcs(z, 0.5)
        for seg in segs:
            mu_val = mu(seg.K, baths.beta(seg.branch.kind), seg.branch, baths.gamma)
            c0 = chi(seg.x0, mu_val)
            x_of = lambda dt: _reference_arc_x(seg, mu_val, c0, baths.gamma, dt)
            assert x_of(0.0) == seg.x0 and x_of(-1.0) == seg.x0
            assert x_of(seg.duration) == seg.x1 and x_of(2.0 * seg.duration) == seg.x1
            xs = np.array([x_of(dt) for dt in np.linspace(0.0, seg.duration, 2001)])
            steps = np.diff(xs) if seg.is_cold else -np.diff(xs)  # x rises on cold arcs, falls on hot
            assert np.all(steps >= 0.0)

    def test_sampling_and_simulation_need_no_brentq(self, baths03, monkeypatch):
        # one arc inversion serves all four paths, and none of them calls brentq
        plan = build_trajectory(*ENDPOINTS.values(), K_REF, 3, baths03)

        def forbidden(*args, **kwargs):
            raise AssertionError("brentq called while sampling or simulating a plan")

        monkeypatch.setattr(planner, "brentq", forbidden)
        samples = sample_plan(plan, samples_per_segment=50)
        assert samples.q_cum[-1] == pytest.approx(plan.total_heat, abs=1e-10)
        report = validate_plan(plan, samples_per_segment=20)
        assert report["nodes"] == 20 * len(plan.arcs) and report["max_conservation"] < 1e-9
        rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
        res = integrate(rho0, plan_to_protocol(plan), TwoLevelResetModel(baths03))
        assert res.ledger.heat_released == pytest.approx(plan.total_heat, rel=1e-6)


class TestStackedSampler:
    """_arc_xs and _arc_rows give the bits of the scalar kernel and the scalar row loop."""

    @pytest.mark.parametrize("z", [0.1, 0.3, 0.9])
    @pytest.mark.parametrize("k_frac", [0.99, 0.5, 1e-3])
    @pytest.mark.parametrize("samples", [2, 3, 1000])
    def test_inversion_matches_scalar_kernel(self, z, k_frac, samples):
        # the hot edge (p -> 0), x -> 1 and small |K| are all among these arcs
        baths, segs = _kernel_arcs(z, k_frac)
        for seg in segs:
            mu_val = mu(seg.K, baths.beta(seg.branch.kind), seg.branch, baths.gamma)
            c0 = chi(seg.x0, mu_val)
            dts = np.linspace(0.0, seg.duration, samples)
            want = np.array([_reference_arc_x(seg, mu_val, c0, baths.gamma, dt) for dt in dts.tolist()])
            got = planner._arc_xs(seg, mu_val, c0, baths.gamma, dts)
            assert got.dtype == want.dtype and np.array_equal(got, want), seg
            rows = np.array(_reference_arc_rows(seg, baths, samples)).T
            for got_col, want_col in zip(planner._arc_rows(seg, baths, samples), rows):
                assert got_col.shape == (samples,) and np.array_equal(got_col, want_col), seg

    @pytest.mark.parametrize("iters", [0, 1, 2])
    def test_step_cap_matches_scalar_kernel(self, monkeypatch, iters):
        # elements still active when the cap is reached keep their latest x
        monkeypatch.setattr(planner, "_ARC_ITERS", iters)
        baths, segs = _kernel_arcs(0.3, 0.5)
        for seg in segs:
            mu_val = mu(seg.K, baths.beta(seg.branch.kind), seg.branch, baths.gamma)
            c0 = chi(seg.x0, mu_val)
            dts = np.linspace(0.0, seg.duration, 50)
            want = [_reference_arc_x(seg, mu_val, c0, baths.gamma, dt) for dt in dts.tolist()]
            assert planner._arc_xs(seg, mu_val, c0, baths.gamma, dts).tolist() == want

    def test_offsets_outside_the_arc_give_its_ends(self, baths03):
        seg = build_trajectory(*ENDPOINTS.values(), K_REF, 0, baths03).arcs[0]
        mu_val = mu(seg.K, baths03.beta(seg.branch.kind), seg.branch, baths03.gamma)
        c0 = chi(seg.x0, mu_val)
        dts = np.array([-1.0, 0.0, 0.5 * seg.duration, seg.duration, 2.0 * seg.duration])
        want = [_reference_arc_x(seg, mu_val, c0, baths03.gamma, dt) for dt in dts.tolist()]
        assert planner._arc_xs(seg, mu_val, c0, baths03.gamma, dts).tolist() == want

    @pytest.mark.parametrize("case", ["beyond-hot-edge", "runs-past-hot-edge", "beyond-cold-edge"])
    def test_population_range_check_raises_as_scalar_loop(self, baths03, case):
        # arcs that leave [0, 1]: starting past the hot edge x = 1/mu_h or below the
        # cold edge x = |mu_c|, or running against the flow past the hot edge, where
        # the first failing sample is an interior one
        K = K_REF
        branch = COLD if case == "beyond-cold-edge" else HOT
        mu_val = mu(K, baths03.beta(branch.kind), branch, baths03.gamma)
        x0, x1 = {
            "beyond-hot-edge": (1.01 / mu_val, 0.5 / mu_val),
            "runs-past-hot-edge": (0.9 / mu_val, 1.05 / mu_val),
            "beyond-cold-edge": (0.99 * abs(mu_val), 2.0),
        }[case]
        duration = abs(chi(x1, mu_val) - chi(x0, mu_val)) / baths03.gamma
        seg = IsothermSegment(branch=branch, K=K, x0=x0, x1=x1, duration=duration, heat=0.0)
        with pytest.raises(ValueError) as want:
            _reference_arc_rows(seg, baths03, 50)
        with pytest.raises(ValueError) as got:
            planner._arc_rows(seg, baths03, 50)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert "outside [0, 1]" in str(got.value)


def _reference_log_x_nodes(seg, baths, samples):
    """(x, u, p, q) of the nodes validate_plan checks on one arc, node by node from
    the scalar closed forms: x uniform in log x from x0 to x1, its ends exact."""
    beta = baths.beta(seg.branch.kind)
    mu_val = mu(seg.K, beta, seg.branch, baths.gamma)
    log_xs = np.linspace(math.log(seg.x0), math.log(seg.x1), max(samples, 2)).tolist()
    nodes = []
    for j, log_x in enumerate(log_xs):
        x = seg.x0 if j == 0 else seg.x1 if j == len(log_xs) - 1 else math.exp(log_x)
        u_val = (2.0 / beta) * log_x
        nodes.append((x, u_val, isotherm_p(x, mu_val), _q_of_x(x, u_val, mu_val, beta)))
    return nodes


def _reference_validate(plan, samples_per_segment=200):
    """validate_plan's absolute residuals from the dim-2 matrix functions of pmp,
    node by node on the same log-x nodes, and the scale of the matrix forms'
    largest term, 2 gamma (|q| + |q + u| + 1), over those nodes."""
    model = TwoLevelResetModel(plan.baths)
    gamma = plan.baths.gamma
    cons = stat = costate = worst_sign = scale = 0.0
    for seg in set(plan.arcs):
        beta = plan.baths.beta(seg.branch.kind)
        mu_val = mu(seg.K, beta, seg.branch, gamma)
        rates = dict(gamma_c=gamma, gamma_h=0.0) if seg.is_cold else dict(gamma_c=0.0, gamma_h=gamma)
        for x, u_val, p, q in _reference_log_x_nodes(seg, plan.baths, samples_per_segment):
            rho, pi = np.diag([1.0 - p, p]).astype(complex), np.diag([q, -q]).astype(complex)
            node = pmp.TrajectoryNode(t=0.0, rho=rho, pi=pi, control=pmp.ControlVector(u=[u_val], **rates))
            cons = max(cons, pmp.conserved_k_residual([node], plan.K, model))
            stat = max(stat, pmp.stationarity_residual(node, model))
            qdot = (gamma * mu_val / (2.0 * beta)) * (1.0 + x * x) / x
            pi_dot = pmp.costate_rhs(pi, node.control, model)
            costate = max(costate, float(np.max(np.abs(pi_dot - np.diag([qdot, -qdot])))))
            a = pmp.switching_functional(rho, pi, node.control.u, model)
            worst_sign = max(worst_sign, -a if seg.is_cold else a)
            scale = max(scale, 2.0 * gamma * (abs(q) + abs(q + u_val) + 1.0))
    report = {"max_conservation": cons, "max_stationarity": stat, "max_costate": costate,
              "max_bang_bang_violation": worst_sign}
    return report, scale


def _assert_matches_per_node_loop(plan, samples_per_segment=200):
    report = validate_plan(plan, samples_per_segment)
    want, scale = _reference_validate(plan, samples_per_segment)
    for key, value in want.items():
        assert abs(report[key] - value) <= 8 * np.finfo(float).eps * scale, key
    assert report["max_bang_bang_violation"] == want["max_bang_bang_violation"]
    assert report["nodes"] == max(samples_per_segment, 2) * len(plan.arcs)
    assert (report["max_dp"], report["max_dq"]) == plan.continuity_errors()


def _shifted_rows(monkeypatch, column, shift):
    """validate_plan's samples with one of the columns (x, u, p, q) shifted by `shift`."""
    log_x_rows = planner._log_x_rows

    def shifted(seg, baths, samples):
        rows = list(log_x_rows(seg, baths, samples))
        rows[column] = rows[column] + shift
        return tuple(rows)

    monkeypatch.setattr(planner, "_log_x_rows", shifted)


RATIO_KEYS = ("max_conservation_ratio", "max_stationarity_ratio", "max_costate_ratio", "max_heat_identity_ratio")


class TestStackedValidation:
    """validate_plan checks each distinct arc's samples as one array on a grid
    uniform in log x, with the two-level scalar forms of pmp."""

    @pytest.mark.parametrize("n_cycles", [0, 1, 2, 3])
    def test_matches_per_node_loop(self, baths03, n_cycles):
        # the scalar forms give, to a few ulps of the matrix forms' largest term,
        # the residuals of pmp's matrix functions run node by node
        _assert_matches_per_node_loop(build_trajectory(*ENDPOINTS.values(), K_REF, n_cycles, baths03))

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(
        z=st.floats(min_value=0.1, max_value=0.9),
        k_frac=st.floats(min_value=0.3, max_value=0.9),
        p_in=st.floats(min_value=0.06, max_value=0.07),
        u_in=st.floats(min_value=0.5, max_value=1.5),
        p_out=st.floats(min_value=0.25, max_value=0.27),
        u_out=st.floats(min_value=5.0, max_value=7.0),
        n_cycles=st.integers(min_value=0, max_value=2),
        samples=st.integers(min_value=2, max_value=60),
    )
    def test_matches_per_node_loop_on_property_domain(self, z, k_frac, p_in, u_in, p_out, u_out, n_cycles, samples):
        baths = Baths.from_ratio(z)
        plan = build_trajectory(p_in, u_in, p_out, u_out, k_frac * solve_engine(z).K_star, n_cycles, baths)
        _assert_matches_per_node_loop(plan, samples)

    def test_plan_nodes_match_node_by_node_build(self, reference_plan):
        # the samples validate_plan checks, one array per distinct arc, hold the
        # arc's nodes: uniform in log x, ends exact, the scalar closed forms' bits
        plan = reference_plan
        for seg in set(plan.arcs):
            want = np.array(_reference_log_x_nodes(seg, plan.baths, 20)).T
            got = planner._log_x_rows(seg, plan.baths, 20)
            assert (got[0][0], got[0][-1]) == (seg.x0, seg.x1)
            for got_col, want_col in zip(got, want):
                assert got_col.dtype == np.float64 and np.array_equal(got_col, want_col), seg

    def test_one_stack_per_distinct_arc(self, baths03, monkeypatch):
        # repeated cycles share their arcs, and a residual does not depend on t: one
        # pmp pass per distinct arc, on real arrays, with one switching functional of
        # the arc's stack of states, and three Gibbs evaluations: the arc's bath for
        # the scalar forms, both baths for the switching functional
        plan = build_trajectory(*ENDPOINTS.values(), K_REF, 3, baths03)
        seen, switching, gibbs = [], [], []
        residuals, selector, one_gibbs = pmp.two_level_residuals, pmp.switching_functional, TwoLevelResetModel._gibbs
        monkeypatch.setattr(pmp, "two_level_residuals", lambda *args: seen.append(args) or residuals(*args))
        monkeypatch.setattr(pmp, "switching_functional", lambda *args: switching.append(args) or selector(*args))
        monkeypatch.setattr(TwoLevelResetModel, "_gibbs", lambda self, u, kind: gibbs.append(kind) or one_gibbs(self, u, kind))
        validate_plan(plan, samples_per_segment=20)
        assert len(seen) == len(switching) == len(set(plan.arcs)) < len(plan.arcs)
        assert {args[0] for args in seen} == set(plan.arcs)
        assert all(col.shape == (20,) and col.dtype == np.float64 for args in seen for col in args[3:])
        assert all(a.shape == (20, 2, 2) and a.dtype == np.float64 for args in switching for a in args[:2])
        assert len(gibbs) == 3 * len(set(plan.arcs)) == 12

    def test_costate_residual_sees_a_wrong_costate(self, baths03, monkeypatch):
        # q off by 1e-6 moves the costate velocity gamma (2q + u)/2 by gamma 1e-6,
        # while the exact dq/dt of the arc's x stays put
        plan = build_trajectory(*ENDPOINTS.values(), K_REF, 1, baths03)
        assert validate_plan(plan)["max_costate"] < 1e-14
        _shifted_rows(monkeypatch, 3, 1e-6)
        report = validate_plan(plan)
        assert report["max_costate"] == pytest.approx(1e-6 * baths03.gamma, rel=1e-6)
        assert report["max_costate_ratio"] > 1e6

    def test_conservation_residual_sees_a_wrong_k(self):
        # arcs built at K checked against 2K: the baseline reads 4.7e-2 at 0.65 K*
        plan = build_trajectory(*ENDPOINTS.values(), 0.65 * solve_engine(0.3).K_star, 1, Baths.from_ratio(0.3))
        assert validate_plan(plan)["max_conservation"] < 1e-9
        assert validate_plan(dataclasses.replace(plan, K=2 * plan.K))["max_conservation"] > 1e-2

    def test_stationarity_residual_sees_a_wrong_population(self, baths03, monkeypatch):
        # p off by 1e-6 moves dH/du = gamma (beta e (1 - e)(2q + u) - (e - p)) by gamma 1e-6
        plan = build_trajectory(*ENDPOINTS.values(), K_REF, 1, baths03)
        assert validate_plan(plan)["max_stationarity"] < 1e-9
        _shifted_rows(monkeypatch, 2, 1e-6)
        report = validate_plan(plan)
        assert report["max_stationarity"] == pytest.approx(1e-6 * baths03.gamma, rel=1e-6)
        assert report["max_stationarity_ratio"] > 1e6

    def test_bang_bang_violation_sees_the_wrong_bath(self, baths03, monkeypatch):
        # each arc's samples checked as if the other bath drove them
        plan = build_trajectory(*ENDPOINTS.values(), K_REF, 1, baths03)
        assert validate_plan(plan)["max_bang_bang_violation"] == 0.0
        residuals = pmp.two_level_residuals

        def swapped(seg, *args):
            return residuals(dataclasses.replace(seg, branch=HOT if seg.is_cold else COLD), *args)

        monkeypatch.setattr(pmp, "two_level_residuals", swapped)
        assert validate_plan(plan)["max_bang_bang_violation"] > 0.0

    def test_heat_identity_sees_a_wrong_heat(self, baths03):
        # every arc's heat off by 1e-9 relative: the boundary-term heat
        # <pi0 rho0> - <pi1 rho1> - int lam dt no longer meets it
        plan = build_trajectory(*ENDPOINTS.values(), K_REF, 1, baths03)
        report = validate_plan(plan)
        assert report["max_heat_identity"] < 1e-14 and report["max_heat_identity_ratio"] < 10.0
        wrong = {seg: dataclasses.replace(seg, heat=seg.heat * (1.0 + 1e-9)) for seg in set(plan.arcs)}
        segments = tuple(wrong.get(entry, entry) for entry in plan.segments)
        report = validate_plan(dataclasses.replace(plan, segments=segments))
        assert report["max_heat_identity"] == pytest.approx(1e-9 * max(abs(seg.heat) for seg in wrong), rel=1e-4)
        assert report["max_heat_identity_ratio"] > 1e3

    def test_doubled_k_fails_the_ratio_gate_near_the_quasi_static_limit(self):
        # at K = 1e-8 K* the doubled K moves H by 7.2e-10, under the absolute 1e-9
        # gate, but some 1e15 times its rounding floor
        plan = build_trajectory(*ENDPOINTS.values(), 1e-8 * solve_engine(0.3).K_star, 0, Baths.from_ratio(0.3))
        assert all(validate_plan(plan)[key] <= cli.RATIO_GATE for key in RATIO_KEYS)
        report = validate_plan(dataclasses.replace(plan, K=2 * plan.K))
        assert report["max_conservation"] < 1e-9
        assert report["max_conservation_ratio"] > 1e14

    def test_nearly_empty_upper_level_passes_every_gate(self):
        # a cold arc down to p = 1e-12 spans decades of x; the matrix forms lost
        # the costate velocity there (3.8e-6), the scalar forms keep it
        plan = build_trajectory(0.07, 1.0, 1e-12, 6.0, 0.65 * solve_engine(0.3).K_star, 0, Baths.from_ratio(0.3))
        report = validate_plan(plan)
        assert report["max_conservation"] < 1e-9 and report["max_stationarity"] < 1e-9
        assert report["max_costate"] < 1e-9 and report["max_bang_bang_violation"] <= 1e-12
        assert all(report[key] <= cli.RATIO_GATE for key in RATIO_KEYS)


def test_validate_plan_inverts_nothing_and_builds_no_complex_matrix(baths03, monkeypatch):
    # the log-x grid needs no chi inversion, and the scalar forms and the switching
    # functional's real stacks no complex matrix
    plan = build_trajectory(*ENDPOINTS.values(), K_REF, 3, baths03)
    want = validate_plan(plan)

    def forbidden(*args, **kwargs):
        raise AssertionError("validate_plan inverted an arc or built a complex matrix")

    for module, name in ((planner, "chi"), (planner, "_arc_xs"), (pmp, "_entries"), (pmp, "_from_entries"),
                         (TwoLevelResetModel, "hamiltonian"), (TwoLevelResetModel, "equilibrium")):
        monkeypatch.setattr(module, name, forbidden)
    assert validate_plan(plan) == want


def test_integrate_inverts_nothing(baths03, monkeypatch):
    # an arc's piece is a path in s = log x, where the time is explicit:
    # integrate calls neither chi nor the arc inversion
    plan = build_trajectory(*ENDPOINTS.values(), K_REF, 3, baths03)
    protocol = plan_to_protocol(plan)
    calls = []
    for name in ("chi", "_arc_xs"):
        fn = getattr(planner, name)
        monkeypatch.setattr(planner, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    res = integrate(rho0, protocol, TwoLevelResetModel(baths03))
    assert res.ledger.heat_released == pytest.approx(plan.total_heat, rel=1e-9)
    assert calls == []
    sample_plan(plan, samples_per_segment=5)  # the spies do count the sampler's calls
    assert set(calls) == {"chi", "_arc_xs"}


def test_integrate_inverts_each_time_once(baths03, worked_plan, monkeypatch):
    # integrate evaluates each distinct arc's path in two array passes, at its
    # samples and at the collocation nodes of its steps, and no sigma twice in
    # one pass: neither inverts chi
    monkeypatch.setattr(planner, "chi", lambda *args: pytest.fail("integrate inverted an arc"))
    protocol = plan_to_protocol(worked_plan)
    evaluated = {}
    for piece in {id(p): p for p in protocol.pieces}.values():

        def spy(sigma, piece=piece, path=piece.path):
            evaluated.setdefault(id(piece), []).append(sigma.size)
            assert np.unique(sigma).size == sigma.size
            return path(sigma)

        piece.path = spy
    rho0 = np.diag([1.0 - worked_plan.p_in, worked_plan.p_in]).astype(complex)
    res = integrate(rho0, protocol, TwoLevelResetModel(baths03))
    assert res.ledger.heat_released == pytest.approx(worked_plan.total_heat, rel=1e-12)
    assert len(evaluated) == 2
    for sizes in evaluated.values():
        assert len(sizes) == 2 and sizes[0] == 50 and sizes[1] % 6 == 0 and sizes[1] >= 6 * 49


@pytest.mark.parametrize("p_out", [1e-12, 1e-20, 1e-30])
def test_integrate_near_empty_upper_level(p_out):
    # cold arcs from p = 0.07 down to p_out span many decades of x; steps in
    # log x keep heat and final population within 1e-11 relative (5.1e-13 and
    # 1.3e-13 seen at 1e-30) where a Newton inversion per right-hand side fell
    # short (3.8e2 relative heat error, first law 7.2, at 1e-30)
    baths = Baths.from_ratio(0.3)
    plan = build_trajectory(0.07, 1.0, p_out, 6.0, 0.65 * solve_engine(0.3).K_star, 0, baths)
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    res = integrate(rho0, plan_to_protocol(plan), TwoLevelResetModel(baths))
    assert abs(res.ledger.heat_released - plan.total_heat) <= 1e-11 * abs(plan.total_heat)
    assert abs(res.final_state[1, 1].real - p_out) <= 1e-11 * p_out
    assert abs(res.ledger.first_law_residual) < 1e-10
