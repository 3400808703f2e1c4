"""Property tests of the engine and switch-point solvers over the admissible domain.

z spans 1e-4 ... 0.9999 and beta_c, gamma span 1e-3 ... 1e3 (log-uniform).
Runs are derandomized, so the drawn cases repeat from run to run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
