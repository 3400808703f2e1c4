"""Acceptance suite: one check per shipped guarantee, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 2 and 3 probe an asymptotic limit at a point where the true values
still sit outside the pinned tolerance; they are implemented exactly as
stated, marked strict-xfail, and discussed in the README's known-limitations
section.
"""

import math
import time

import numpy as np
import pytest

from pmp_thermo.bruteforce import ProtocolGrid, grid_search, single_switch_patterns
from pmp_thermo.cli import main as cli_main
from pmp_thermo.lindblad import TwoLevelResetModel, integrate
from pmp_thermo.planner import (
    TrajectoryPlan,
    build_trajectory,
    cycle_decomposition,
    monotonicity_profile,
    plan_to_protocol,
    validate_plan,
)
from pmp_thermo.two_level import (
    COLD,
    HOT,
    Baths,
    NoJumpPoints,
    asymptotic_limit,
    find_jump_points,
    isotherm_heat,
    isotherm_p,
    isotherm_u_of_p,
    isotherm_x_of_p,
    lambert_w0,
    mu,
    quasi_static_heat,
    segment_from_populations,
    solve_engine,
)

BATHS = Baths.from_ratio(0.3)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def z_grid_solutions():
    return [solve_engine(float(z)) for z in np.linspace(0.02, 0.98, 50)]


def test_criterion_01_lambert_w_constant():
    lambert_w0(math.exp(-1.0))  # warm up
    t0 = time.perf_counter()
    theta = lambert_w0(math.exp(-1.0)) / 4.0
    elapsed = time.perf_counter() - t0
    identity_residual = abs(4.0 * theta * math.exp(4.0 * theta) - math.exp(-1.0))
    ok = identity_residual <= 1e-14 and abs(theta - 0.06961) <= 5e-5 and elapsed < 1e-3
    report(1, ok, f"theta={theta:.7f}, identity residual {identity_residual:.1e}, {elapsed*1e6:.0f} us")
    assert identity_residual <= 1e-14
    assert theta == pytest.approx(0.06961, abs=5e-5)
    assert elapsed < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="z*g(0.01) is 5.7% below the limit constant (the asymptote converges "
    "like z log z; 2% needs z <= 0.003), so the pinned tolerance cannot be met",
)
def test_criterion_02_ultimate_power_limit():
    theta, _ = asymptotic_limit()
    t0 = time.perf_counter()
    sol = solve_engine(0.01)
    elapsed = time.perf_counter() - t0
    rel = abs(sol.z * sol.g - theta) / theta
    ok = rel <= 0.02 and elapsed < 1.0
    report(2, ok, f"z*g={sol.z * sol.g:.6f} vs theta={theta:.6f} (rel {rel:.4f}), {elapsed:.2f} s")
    assert elapsed < 1.0
    assert rel <= 0.02


@pytest.mark.xfail(
    strict=True,
    reason="p*(0.01) is 2.5% below the limiting value (same slow asymptote as "
    "criterion 2), so the pinned 2% tolerance cannot be met",
)
def test_criterion_03_asymptotic_working_point():
    theta, p_lim = asymptotic_limit()
    sol = solve_engine(0.01)
    rel = abs(sol.p_star - p_lim) / p_lim
    ok = rel <= 0.02
    report(3, ok, f"p*={sol.p_star:.6f} vs limit {p_lim:.6f} (rel {rel:.4f})")
    assert rel <= 0.02


def test_criterion_04_linear_response_vanishing(z_grid_solutions):
    g99 = solve_engine(0.99).g
    gs = [s.g for s in z_grid_solutions]
    decreasing = all(gs[i] > gs[i + 1] for i in range(len(gs) - 1))
    ok = g99 < 1e-3 and decreasing
    report(4, ok, f"g(0.99)={g99:.2e}, strictly decreasing on 50-point grid: {decreasing}")
    assert g99 < 1e-3
    assert decreasing


def test_criterion_05_efficiency_structure(z_grid_solutions):
    bounded = all(s.eta_star <= s.eta_carnot + 1e-12 for s in z_grid_solutions)
    near_ca = all(
        abs(s.eta_star - s.eta_curzon_ahlborn) < 0.01 for s in z_grid_solutions if s.z >= 0.9
    )
    ok = bounded and near_ca
    worst_tail = max(
        (abs(s.eta_star - s.eta_curzon_ahlborn) for s in z_grid_solutions if s.z >= 0.9),
        default=0.0,
    )
    report(5, ok, f"eta* <= eta_C everywhere: {bounded}; tail |eta*-eta_CA| max {worst_tail:.2e}")
    assert bounded
    assert near_ca


def test_criterion_06_closed_form_vs_ode():
    rng = np.random.default_rng(61)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        z = float(rng.uniform(0.1, 0.9))
        baths = Baths.from_ratio(z)
        K = -float(rng.uniform(0.01, 0.2))
        branch = COLD if rng.uniform() < 0.5 else HOT
        beta = baths.beta(branch.kind)
        mu_v = mu(K, beta, branch)
        p_edge = isotherm_p(1.0, mu_v)
        if branch.kind == "cold":
            pa = float(rng.uniform(0.1, p_edge - 0.02))
            pb = float(rng.uniform(0.02, pa - 0.05))
        else:
            pa = float(rng.uniform(0.02, p_edge - 0.07))
            pb = float(rng.uniform(pa + 0.05, p_edge - 0.01))
        seg = segment_from_populations(branch, K, baths, pa, pb)
        plan = TrajectoryPlan(
            K=K, baths=baths, segments=(seg,), n_cycles=0,
            p_in=pa, u_in=isotherm_u_of_p(pa, mu_v, beta),
            p_out=pb, u_out=isotherm_u_of_p(pb, mu_v, beta),
        )
        model = TwoLevelResetModel(baths)
        rho0 = np.diag([1.0 - pa, pa]).astype(complex)
        res = integrate(rho0, plan_to_protocol(plan), model, samples_per_piece=2)
        q_err = abs(res.ledger.heat_released - seg.heat) / abs(seg.heat)
        p_err = abs(res.final_state[1, 1].real - pb) / pb
        worst = max(worst, q_err, p_err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(6, ok, f"50 random arcs, worst rel deviation {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_07_conserved_rate_on_all_segments():
    cases = [
        build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 0, BATHS),
        build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 1, BATHS),
        build_trajectory(0.3, 1.0, 0.05, 2.0, -0.1, 0, BATHS),
        build_trajectory(0.05, 1.0, 0.3, 2.0, -0.02, 0, Baths.from_ratio(0.6)),
    ]
    worst = 0.0
    n_segments = 0
    for plan in cases:
        worst = max(worst, validate_plan(plan, 200)["max_conservation"])
        n_segments += len(plan.arcs)
    ok = worst < 1e-9
    report(7, ok, f"{n_segments} segments, max |H(t) - K| = {worst:.2e} at 200 samples each")
    assert worst < 1e-9


def test_criterion_08_quasi_static_limit():
    K = -1e-8
    mu_c = mu(K, 1.0, COLD)
    x0 = isotherm_x_of_p(0.5, mu_c)
    x1 = isotherm_x_of_p(0.1, mu_c)
    q_arc = isotherm_heat(x0, x1, mu_c, 1.0)
    q_rev = quasi_static_heat(0.5, 0.1, 1.0)
    rel = abs(q_arc - q_rev) / abs(q_rev)
    ok = rel <= 1e-3
    report(8, ok, f"arc heat {q_arc:.6f} vs entropy form {q_rev:.6f} (rel {rel:.1e})")
    assert rel <= 1e-3


def test_criterion_09_jump_bifurcation():
    sol = solve_engine(0.3)
    two_roots_ok = True
    for K in (-0.07, -0.05, -0.02, -0.005):
        assert K > sol.K_star
        p1, p2 = find_jump_points(K, BATHS)
        two_roots_ok &= p2 > p1
    none_ok = True
    for K in (-0.08, -0.1, -0.5):
        assert K < sol.K_star
        try:
            find_jump_points(K, BATHS)
            none_ok = False
        except NoJumpPoints:
            pass
    c1, c2 = find_jump_points(sol.K_star, BATHS)
    coincident = abs(c1 - c2) <= 1e-8 and abs(c1 - sol.p_star) <= 1e-8
    ok = two_roots_ok and none_ok and coincident
    report(9, ok, f"two roots above K*, none below, coincident gap {abs(c1 - c2):.1e}")
    assert two_roots_ok
    assert none_ok
    assert coincident


def test_criterion_10_monotonicity_derivatives():
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    signs_ok = True
    for _ in range(20):
        K = -float(rng.uniform(0.01, 0.25))
        branch = COLD if rng.uniform() < 0.5 else HOT
        beta = BATHS.beta(branch.kind)
        p_edge = isotherm_p(1.0, mu(K, beta, branch))
        if branch.kind == "cold":
            pa = float(rng.uniform(0.1, p_edge - 0.02))
            pb = float(rng.uniform(0.02, pa - 0.05))
        else:
            pa = float(rng.uniform(0.02, p_edge - 0.07))
            pb = float(rng.uniform(pa + 0.05, p_edge - 0.01))
        row = monotonicity_profile([K], branch, pa, pb, BATHS)[0]
        worst_rel = max(
            worst_rel,
            abs(row["dtau_dK_numeric"] - row["dtau_dK_analytic"]) / abs(row["dtau_dK_analytic"]),
            abs(row["dQ_dK_numeric"] - row["dQ_dK_analytic"]) / abs(row["dQ_dK_analytic"]),
        )
        signs_ok &= row["dtau_dK_analytic"] > 0.0 and row["dQ_dK_analytic"] < 0.0
    ok = worst_rel <= 1e-6 and signs_ok
    report(10, ok, f"20 segments, worst fd-vs-analytic rel {worst_rel:.2e}, signs ok: {signs_ok}")
    assert worst_rel <= 1e-6
    assert signs_ok


def test_criterion_11_infinitesimal_cycle_rate():
    sol = solve_engine(0.3)
    gaps = []
    for eps in (1e-3, 1e-4, 1e-5):
        dec = cycle_decomposition(sol.K_star + eps, BATHS)
        gaps.append(dec.rate - sol.K_star)
    monotone = gaps[0] > gaps[1] > gaps[2] > 0.0
    linear = gaps[1] <= gaps[0] * 0.15 and gaps[2] <= gaps[1] * 0.15
    ok = monotone and linear
    report(11, ok, f"rate gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}, linear shrink: {linear}")
    assert monotone
    assert linear


def test_criterion_12_isochore_symmetry():
    sol = solve_engine(0.3)
    dec = cycle_decomposition(sol.K_star + 1e-6, BATHS)
    rel = abs(dec.tau_hot - dec.tau_cold) / max(dec.tau_hot, dec.tau_cold)
    ok = rel <= 1e-4
    report(12, ok, f"contact times {dec.tau_hot:.6e} vs {dec.tau_cold:.6e} (rel {rel:.1e})")
    assert rel <= 1e-4


def test_criterion_13_never_beat_oracle():
    t0 = time.perf_counter()
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 0, BATHS)
    q_pmp = plan.total_heat
    p_tol = 1e-3
    levels8 = tuple(float(v) for v in np.linspace(0.0, 10.5, 8))
    levels12 = tuple(float(v) for v in np.arange(0.0, 12.0, 1.0))
    # discretization bound: the landing window can shave at most u_max * p_tol
    slack = p_tol * 12.0

    gaps = {}
    for n, levels in ((4, levels8), (8, levels8), (4, levels12)):
        grid = ProtocolGrid(
            n_intervals=n,
            u_levels=levels,
            bath_patterns=single_switch_patterns(n),
            tau=plan.total_time,
        )
        res = grid_search(0.07, 0.26, grid, BATHS, p_tol=p_tol)
        gaps[(n, len(levels))] = res.q_best - q_pmp
    elapsed = time.perf_counter() - t0
    never_beaten = all(g >= -slack for g in gaps.values())
    shrinks = gaps[(8, 8)] <= gaps[(4, 8)]
    ok = never_beaten and shrinks and elapsed < 300.0
    report(
        13,
        ok,
        f"gaps {{n4: {gaps[(4, 8)]:.4f}, n8: {gaps[(8, 8)]:.4f}, n4-fine: {gaps[(4, 12)]:.4f}}} "
        f">= -{slack:.4f}, doubling shrinks: {shrinks}, {elapsed:.0f} s",
    )
    assert never_beaten
    assert shrinks
    assert elapsed < 300.0


def test_criterion_14_figure_regression(tmp_path):
    def emit(tag: str) -> dict[str, bytes]:
        files = {}
        cold = tmp_path / f"cold_{tag}.csv"
        hot = tmp_path / f"hot_{tag}.csv"
        prefix = tmp_path / f"cycle_{tag}"
        assert cli_main([
            "isotherm", "--branch", "cold", "--z", "0.3", "--K", "-0.05",
            "--u0", "0.5", "--u1", "6", "--samples", "200", "--out", str(cold),
        ]) == 0
        assert cli_main([
            "isotherm", "--branch", "hot", "--z", "0.3", "--K", "-0.05",
            "--u0", "7", "--u1", "0.5", "--samples", "200", "--out", str(hot),
        ]) == 0
        assert cli_main([
            "trajectory", "--z", "0.3", "--K", "-0.05",
            "--p-in", "0.07", "--u-in", "1", "--p-out", "0.26", "--u-out", "6",
            "--cycles", "1", "--out-prefix", str(prefix), "--samples", "200",
        ]) == 0
        for name, path in (("cold", cold), ("hot", hot)):
            files[name] = path.read_bytes()
        files["cycle_json"] = (tmp_path / f"cycle_{tag}.json").read_bytes()
        files["cycle_csv"] = (tmp_path / f"cycle_{tag}.csv").read_bytes()
        return files

    first, second = emit("a"), emit("b")
    stable = all(first[k] == second[k] for k in first)

    def final_qcum(blob: bytes) -> float:
        return float(blob.decode().splitlines()[-1].split(",")[-1])

    cold_area = final_qcum(first["cold"])
    hot_area = final_qcum(first["hot"])
    dec = cycle_decomposition(-0.05, BATHS)
    ok = stable and cold_area > 0.0 and hot_area < 0.0 and dec.q_cycle < 0.0
    report(
        14,
        ok,
        f"byte-stable: {stable}; cold area {cold_area:.4f} > 0, hot area {hot_area:.4f} < 0, "
        f"cycle heat {dec.q_cycle:.4f} < 0",
    )
    assert stable
    assert cold_area > 0.0
    assert hot_area < 0.0
    assert dec.q_cycle < 0.0
