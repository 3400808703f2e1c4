"""Property tests of the engine, switch-point and deadline solvers over the admissible domain.

z spans 1e-4 ... 0.9999 and beta_c, gamma span 1e-3 ... 1e3 (log-uniform).
Runs are derandomized, so the drawn cases repeat from run to run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from pmp_thermo.planner import build_trajectory, plan_for_deadline
from pmp_thermo.two_level import Baths, adiabatic_f, engine_residuals, find_jump_points, solve_engine

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
