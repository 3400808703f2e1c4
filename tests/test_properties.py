"""Property tests of the engine, switch-point and deadline solvers, the plans and the brute-force oracle.

z spans 1e-4 ... 0.9999 and beta_c, gamma span 1e-3 ... 1e3 (log-uniform).
Runs are derandomized, so the drawn cases repeat from run to run.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmp_thermo.bruteforce import (
    InfeasibleTarget,
    ProtocolGrid,
    grid_search,
    simulate_bang_protocol,
    single_switch_patterns,
)
from pmp_thermo.lindblad import TwoLevelResetModel, integrate
from pmp_thermo.planner import Unreachable, build_trajectory, plan_for_deadline, plan_to_protocol, validate_plan
from pmp_thermo.two_level import HOT, Baths, adiabatic_f, engine_residuals, find_jump_points, mu, solve_engine

ratios = st.floats(min_value=1e-4, max_value=0.9999)
scales = st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)).map(math.exp)
fractions = st.floats(min_value=0.0, max_value=1.0)

prop = settings(derandomize=True, deadline=None, max_examples=60)


@prop
@given(z=ratios, beta_c=scales, gamma=scales)
def test_engine_residuals(z, beta_c, gamma):
    sol = solve_engine(z, beta_c=beta_c, gamma=gamma)
    f_res, t_res = engine_residuals(sol, beta_c=beta_c, gamma=gamma)
    assert f_res <= 1e-13
    assert t_res <= 1e-13


@prop
@given(z=ratios, beta_c=scales, gamma=scales)
def test_engine_unit_scaling(z, beta_c, gamma):
    ref = solve_engine(z)
    sol = solve_engine(z, beta_c=beta_c, gamma=gamma)
    assert abs(sol.K_star * beta_c / gamma - ref.K_star) <= 1e-12 * abs(ref.K_star)
    assert sol.p_star == ref.p_star
    assert sol.g == ref.g


@prop
@given(z=ratios, beta_c=scales, gamma=scales, t=fractions)
def test_jump_points_bracket_working_point(z, beta_c, gamma, t):
    # K runs log-uniformly from K*(1 - 1e-3) up to -1e-12 in units gamma/beta_c,
    # near the quasi-static limit.  Closer to K*, min f can lie within the 1e-9
    # tangency tolerance (about -1.2e-4 (K - K*)/K* at z = 0.9999), where
    # find_jump_points returns the coincident pair by design.
    sol = solve_engine(z, beta_c=beta_c, gamma=gamma)
    unit = gamma / beta_c
    lo, hi = math.log(-sol.K_star * (1.0 - 1e-3)), math.log(1e-12 * unit)
    K = -math.exp(lo + t * (hi - lo))
    baths = Baths.from_ratio(z, beta_c=beta_c, gamma=gamma)
    p1, p2 = find_jump_points(K, baths)
    assert abs(adiabatic_f(p1, K, baths)) <= 1e-10
    assert abs(adiabatic_f(p2, K, baths)) <= 1e-10
    assert p1 < sol.p_star < p2


@prop
@given(
    z=st.floats(min_value=0.02, max_value=0.98),
    beta_c=scales,
    gamma=scales,
    stretch=st.floats(min_value=math.log(1.01), max_value=math.log(100.0)).map(math.exp),
    max_cycles=st.integers(min_value=0, max_value=8),
)
def test_deadline_unit_scaling(z, beta_c, gamma, stretch, max_cycles):
    # the worked endpoints; gaps scale as 1/beta_c, the deadline as 1/gamma
    p_in, u_in, p_out, u_out = 0.07, 1.0, 0.26, 6.0
    unit = Baths.from_ratio(z)
    k_fast = solve_engine(z).K_star * (1.0 - 1e-9)
    tau = stretch * build_trajectory(p_in, u_in, p_out, u_out, k_fast, 0, unit).total_time
    ref = plan_for_deadline(p_in, u_in, p_out, u_out, tau, unit, max_cycles=max_cycles)
    baths = Baths.from_ratio(z, beta_c=beta_c, gamma=gamma)
    plan = plan_for_deadline(p_in, u_in / beta_c, p_out, u_out / beta_c, tau / gamma, baths, max_cycles=max_cycles)
    assert abs(plan.total_time * gamma - tau) <= 1e-9 * tau
    assert abs(plan.total_heat * beta_c - ref.total_heat) <= 1e-8 * abs(ref.total_heat)


@prop
@given(
    z=st.floats(min_value=0.1, max_value=0.9),
    k_frac=st.floats(min_value=0.3, max_value=0.9),
    p_in=st.floats(min_value=0.06, max_value=0.07),
    u_in=st.floats(min_value=0.5, max_value=1.5),
    p_out=st.floats(min_value=0.25, max_value=0.27),
    u_out=st.floats(min_value=5.0, max_value=7.0),
)
def test_oracle_never_beats_plan(z, k_frac, p_in, u_in, p_out, u_out):
    # endpoints around the worked instance; p* lies between p_in and p_out.  Six
    # even levels plus the gaps that hold p_out on either bath: long horizons
    # relax each interval almost to Gibbs, and evenly spaced levels alone
    # rarely land within p_tol for z above 0.3
    p_tol = 1e-3
    baths = Baths.from_ratio(z)
    plan = build_trajectory(p_in, u_in, p_out, u_out, k_frac * solve_engine(z).K_star, 0, baths)
    holds = [math.log(1.0 / p_out - 1.0) / baths.beta(kind) for kind in ("cold", "hot")]
    levels = tuple(sorted([float(u) for u in np.linspace(0.0, 11.0, 6)] + holds))
    grid = ProtocolGrid(
        n_intervals=4, u_levels=levels, bath_patterns=single_switch_patterns(4), tau=plan.total_time
    )
    try:
        res = grid_search(p_in, p_out, grid, baths, p_tol=p_tol)
    except InfeasibleTarget:
        assume(False)
    # the landing window can shave at most u_max * p_tol off the heat
    assert res.q_best >= plan.total_heat - max(levels) * p_tol
    p_final, heat = simulate_bang_protocol(p_in, res.protocol, baths)
    assert abs(heat - res.q_best) <= 1e-12
    assert abs(p_final - res.p_final) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    z=st.floats(min_value=0.1, max_value=0.9),
    k_frac=st.floats(min_value=0.3, max_value=0.9),
    p_in=st.floats(min_value=0.06, max_value=0.07),
    u_in=st.floats(min_value=0.5, max_value=1.5),
    p_out=st.floats(min_value=0.25, max_value=0.27),
    u_out=st.floats(min_value=5.0, max_value=7.0),
    n_cycles=st.integers(min_value=0, max_value=2),
    beta_c=scales,
    gamma=scales,
)
def test_plan_invariants(z, k_frac, p_in, u_in, p_out, u_out, n_cycles, beta_c, gamma):
    # endpoints around the worked instance
    _assert_plan_invariants(z, k_frac, p_in, u_in, p_out, u_out, n_cycles, beta_c, gamma)


def _assert_plan_invariants(z, k_frac, p_in, u_in, p_out, u_out, n_cycles, beta_c, gamma):
    # gaps in units 1/beta_c; the master equation along the plan reproduces its
    # heat and endpoint, and the sampled nodes meet the PMP conditions.  Heats
    # and costates scale as 1/beta_c, K as gamma/beta_c, so do the bounds.  The
    # stationarity residual pairs an energy (1/beta_c) with a rate times a
    # derivative in the gap (gamma beta_c), so it scales as gamma alone; the
    # costate residual is a costate velocity, gamma/beta_c.
    baths = Baths.from_ratio(z, beta_c=beta_c, gamma=gamma)
    K = k_frac * solve_engine(z, beta_c=beta_c, gamma=gamma).K_star
    plan = build_trajectory(p_in, u_in / beta_c, p_out, u_out / beta_c, K, n_cycles, baths)
    rho0 = np.diag([1.0 - p_in, p_in]).astype(complex)
    res = integrate(rho0, plan_to_protocol(plan), TwoLevelResetModel(baths))
    assert abs(res.ledger.heat_released - plan.total_heat) <= 1e-6 * abs(plan.total_heat)
    assert abs(res.ledger.first_law_residual) <= 1e-8 / beta_c
    assert abs(res.final_state[1, 1].real - p_out) <= 1e-8
    report = validate_plan(plan)
    assert report["max_dp"] < 1e-12
    assert report["max_dq"] < 1e-9 / beta_c
    assert report["max_conservation"] < 1e-9 * gamma / beta_c
    assert report["max_stationarity"] < 1e-9 * gamma
    assert report["max_costate"] < 1e-9 * gamma / beta_c
    assert report["max_bang_bang_violation"] <= 1e-12 / beta_c


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    z=st.floats(min_value=0.02, max_value=0.98),
    k_frac=st.floats(min_value=0.1, max_value=0.95),
    p_in=st.floats(min_value=8e-4, max_value=0.07),
    u_in=st.floats(min_value=0.1, max_value=3.0),
    p_out=st.floats(min_value=0.15, max_value=0.45),
    u_out=st.floats(min_value=3.0, max_value=10.0),
    n_cycles=st.integers(min_value=0, max_value=2),
    beta_c=scales,
    gamma=scales,
)
def test_plan_invariants_wide(z, k_frac, p_in, u_in, p_out, u_out, n_cycles, beta_c, gamma):
    # far from the worked instance: p_in down to 8e-4, z near 0 and 1, K from 0.1
    # to 0.95 K*.  A hot arc with a non-negative gap raises p to at most
    # (1 - mu_h)/2, so above that p_out is unreachable, and only there may the
    # planner say so.
    try:
        _assert_plan_invariants(z, k_frac, p_in, u_in, p_out, u_out, n_cycles, beta_c, gamma)
    except Unreachable:
        K = k_frac * solve_engine(z, beta_c=beta_c, gamma=gamma).K_star
        assert p_out > 0.5 * (1.0 - mu(K, z * beta_c, HOT, gamma))
