import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import lambertw as scipy_lambertw

from pmp_thermo.two_level import (
    COLD,
    COLD_NEG,
    HOT,
    HOT_NEG,
    Baths,
    DirectionViolation,
    NoJumpPoints,
    SolverError,
    adiabatic_f,
    asymptotic_limit,
    binary_entropy,
    chi,
    engine_residuals,
    find_jump_points,
    isotherm_heat,
    isotherm_p,
    isotherm_q_of_p,
    isotherm_time,
    isotherm_u_of_p,
    isotherm_x_of_p,
    lambert_w0,
    make_segment,
    mu,
    quasi_static_heat,
    segment_from_populations,
    solve_engine,
    xi,
)
from pmp_thermo import two_level
from pmp_thermo._roots import brentq
from pmp_thermo.two_level import EngineSolution, _f_and_df_dk, _log_p_kernels, _mu_pair, adiabatic_f_min, tangency_residual

K_REF = -0.05


def ode_arc_oracle(mu_val, beta, x0, x1, gamma=1.0):
    """Independent arc oracle: integrate the control ODE and the heat quadrature.

    dx/dt = gamma (x^2+1) x / (x^2 - 2x/mu - 1), and heat -int u dp along it;
    the duration comes from an event on x, never from the chi closed form.
    """

    def rhs(t, y):
        x = y[0]
        dx = gamma * (x * x + 1.0) * x / (x * x - 2.0 * x / mu_val - 1.0)
        u = (2.0 / beta) * math.log(x)
        dp_dx = (mu_val * x * x - 2.0 * x - mu_val) / (1.0 + x * x) ** 2
        return [dx, -u * dp_dx * dx]

    hit = lambda t, y: y[0] - x1
    hit.terminal = True
    hit.direction = 0
    sol = solve_ivp(rhs, [0.0, 1e3 / gamma], [x0, 0.0], rtol=1e-12, atol=1e-14, events=hit)
    assert sol.t_events[0].size == 1, "oracle integration never reached x1"
    return float(sol.t_events[0][0]), float(sol.y_events[0][0][1])


class TestMu:
    def test_zero_rate(self):
        assert mu(0.0, 1.0, COLD) == 0.0

    def test_reference_values(self):
        assert mu(K_REF, 1.0, COLD) == pytest.approx(-math.sqrt(0.05), abs=1e-15)
        assert mu(K_REF, 0.3, HOT) == pytest.approx(math.sqrt(0.015), abs=1e-15)

    def test_positive_rate_rejected(self):
        with pytest.raises(ValueError):
            mu(0.1, 1.0, COLD)

    def test_negative_gap_swaps_signs(self):
        assert mu(K_REF, 1.0, COLD_NEG) == -mu(K_REF, 1.0, COLD)
        assert mu(K_REF, 0.3, HOT_NEG) == -mu(K_REF, 0.3, HOT)


class TestIsothermPopulation:
    def test_zero_gap_zero_rate(self):
        assert isotherm_p(1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_large_x_limit(self):
        assert isotherm_p(1e8, mu(K_REF, 1.0, COLD)) == pytest.approx(0.0, abs=1e-7)

    def test_against_dynamical_integration(self):
        # evolve the coupled (x, p) equations from a consistent starting point
        # and check the algebraic population relation at a later control value
        mu_c = mu(K_REF, 1.0, COLD)
        x_start, x_probe = math.exp(0.25), math.exp(0.5)
        p_start = (1.0 - mu_c * x_start) / (1.0 + x_start * x_start)

        def rhs(t, y):
            x, p = y
            dx = (x * x + 1.0) * x / (x * x - 2.0 * x / mu_c - 1.0)
            dp = 1.0 / (1.0 + x * x) - p
            return [dx, dp]

        hit = lambda t, y: y[0] - x_probe
        hit.terminal = True
        sol = solve_ivp(rhs, [0.0, 50.0], [x_start, p_start], rtol=1e-12, atol=1e-14, events=hit)
        p_oracle = float(sol.y_events[0][0][1])
        assert isotherm_p(x_probe, mu_c) == pytest.approx(p_oracle, abs=1e-9)
        assert isotherm_p(x_probe, mu_c) == pytest.approx(0.3681, abs=2e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            isotherm_p(0.01, mu(K_REF, 1.0, COLD))  # p > 1 below the admissible range


class TestGapInversion:
    def test_zero_rate_midpoint(self):
        assert isotherm_x_of_p(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert isotherm_u_of_p(0.5, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_inverse_of_reference_point(self):
        mu_c = mu(K_REF, 1.0, COLD)
        p = isotherm_p(math.exp(0.5), mu_c)
        assert isotherm_u_of_p(p, mu_c, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_both_gap_signs(self, rng):
        for _ in range(100):
            p = float(rng.uniform(0.01, 0.99))
            mu_val = float(rng.uniform(-0.8, 0.8))
            x = isotherm_x_of_p(p, mu_val)
            assert isotherm_p(x, mu_val) == pytest.approx(p, abs=1e-12)

    def test_singular_populations_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                isotherm_x_of_p(p, -0.2)


# 40-digit references for the closed-form kernels where they could cancel:
# x near 1, small |mu| of either sign, populations near 0 and 1.  The bound is
# ULPS ulps of the largest term of each formula; the worst seen were 1.70 (chi),
# 1.75 (xi, x >= 0.1) and 1.00 (x(p), where the largest term is x itself).
ULPS = 4.0
KERNEL_MUS = [s * m for m in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.3, 3.0) for s in (1.0, -1.0)]
KERNEL_PS = [1e-12, 1e-9, 1e-6, 0.3, 0.5, 0.7, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
NEAR_ONE = [1.0] + [1.0 + s * 10.0**-k for k in range(1, 16) for s in (1.0, -1.0)]
KERNEL_XS = NEAR_ONE + [0.1, 0.3, 2.0, 1e3, 1e6] + [isotherm_x_of_p(p, m) for p in KERNEL_PS for m in KERNEL_MUS]


def _chi_terms(x, m):
    return [-(2 / m) * mp.atan(x), mp.log((x * x + 1) / x)]


def _xi_terms(x, m):
    return [-2 * m * mp.atan(x), 2 * x * (x + m) / (1 + x * x) * mp.log(x), -mp.log(1 + x * x)]


def _worst_ulps(fn, terms, xs):
    """Largest error of fn over xs x KERNEL_MUS, in ulps of the largest term."""
    worst = 0.0
    with mp.workdps(40):
        for x, m in ((x, m) for x in xs for m in KERNEL_MUS):
            parts = terms(mp.mpf(x), mp.mpf(m))
            scale = max(abs(v) for v in parts)
            worst = max(worst, float(abs(fn(x, m) - sum(parts)) / (scale * np.finfo(float).eps)))
    return worst


class TestKernelsAgainstMpmath:
    def test_chi(self):
        assert _worst_ulps(chi, _chi_terms, KERNEL_XS) <= ULPS

    def test_xi(self):
        assert _worst_ulps(xi, _xi_terms, [x for x in KERNEL_XS if x >= 0.1]) <= ULPS

    @pytest.mark.xfail(strict=True, reason="xi takes log(1 + x*x), not log1p(x*x): below x = 1e-3 the "
                       "rounding of 1 + x*x costs 9.7 to 1.2e13 ulps of the largest term")
    def test_xi_small_x(self):
        assert _worst_ulps(xi, _xi_terms, [1e-3, 1e-6, 1e-9]) <= ULPS

    def test_x_of_p(self):
        worst = 0.0
        with mp.workdps(40):
            for p, m in ((mp.mpf(p), mp.mpf(m)) for p in KERNEL_PS for m in KERNEL_MUS):
                ref = (mp.sqrt(m * m + 4 * p * (1 - p)) - m) / (2 * p)
                err = abs(isotherm_x_of_p(float(p), float(m)) - ref) / (ref * np.finfo(float).eps)
                worst = max(worst, float(err))
        assert worst <= ULPS


class TestArcTimeAndHeat:
    def test_empty_arc(self):
        mu_c = mu(K_REF, 1.0, COLD)
        assert isotherm_time(2.0, 2.0, mu_c) == 0.0
        assert isotherm_heat(2.0, 2.0, mu_c, 1.0) == 0.0

    def test_reference_cold_arc_against_ode(self):
        mu_c = mu(K_REF, 1.0, COLD)
        x0, x1 = math.exp(0.5), math.exp(1.0)
        t_oracle, q_oracle = ode_arc_oracle(mu_c, 1.0, x0, x1)
        assert isotherm_time(x0, x1, mu_c) == pytest.approx(t_oracle, rel=1e-9)
        assert isotherm_heat(x0, x1, mu_c, 1.0) == pytest.approx(q_oracle, rel=1e-9)
        assert isotherm_time(x0, x1, mu_c) == pytest.approx(2.0372, abs=1e-3)
        assert isotherm_heat(x0, x1, mu_c, 1.0) == pytest.approx(0.257, abs=1e-3)

    def test_quasi_static_indicator(self):
        assert isotherm_time(2.0, 3.0, 0.0) == math.inf
        assert isotherm_time(2.0, 2.0, 0.0) == 0.0

    def test_direction_violation(self):
        mu_c = mu(K_REF, 1.0, COLD)
        with pytest.raises(DirectionViolation):
            isotherm_time(3.0, 2.0, mu_c)  # x decreases on a cold arc: wrong way

    def test_heat_sign_law(self, rng, baths03):
        for _ in range(100):
            K = -float(rng.uniform(0.005, 0.3))
            if rng.uniform() < 0.5:
                mu_v = mu(K, baths03.beta_c, COLD)
                p_hi = isotherm_p(1.0, mu_v)
                pa = float(rng.uniform(0.05, p_hi - 1e-3))
                pb = float(rng.uniform(0.01, pa - 1e-3))
                seg = segment_from_populations(COLD, K, baths03, pa, pb)
                assert seg.heat >= 0.0
            else:
                mu_v = mu(K, baths03.beta_h, HOT)
                p_hi = isotherm_p(1.0, mu_v)
                pa = float(rng.uniform(0.01, p_hi - 2e-3))
                pb = float(rng.uniform(pa + 1e-3, p_hi))
                seg = segment_from_populations(HOT, K, baths03, pa, pb)
                assert seg.heat <= 0.0

    def test_closed_forms_match_ode_on_random_arcs(self, rng):
        for _ in range(10):
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
            t_oracle, q_oracle = ode_arc_oracle(mu_v, beta, seg.x0, seg.x1)
            assert seg.duration == pytest.approx(t_oracle, rel=1e-6)
            assert seg.heat == pytest.approx(q_oracle, rel=1e-6)


class TestQuasiStaticHeat:
    def test_no_motion(self):
        assert quasi_static_heat(0.3, 0.3, 1.0) == 0.0

    def test_reference_value(self):
        expected = math.log(2.0) - (0.1 * math.log(10.0) + 0.9 * math.log(10.0 / 9.0))
        q = quasi_static_heat(0.5, 0.1, 1.0)
        assert q == pytest.approx(expected, abs=1e-15)
        assert q == pytest.approx(0.3680, abs=1e-4)

    def test_matches_vanishing_rate_arc(self):
        # reversible limit of the finite-rate closed form
        K = -1e-8
        mu_c = mu(K, 1.0, COLD)
        x0 = isotherm_x_of_p(0.5, mu_c)
        x1 = isotherm_x_of_p(0.1, mu_c)
        q_arc = isotherm_heat(x0, x1, mu_c, 1.0)
        assert q_arc == pytest.approx(quasi_static_heat(0.5, 0.1, 1.0), rel=1e-3)

    def test_antisymmetry(self, rng):
        for _ in range(20):
            p0, p1 = rng.uniform(0.01, 0.99, size=2)
            assert quasi_static_heat(p0, p1, 2.0) == pytest.approx(
                -quasi_static_heat(p1, p0, 2.0), abs=1e-15
            )

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)


def q_continuity_mismatch(p, K, baths):
    """Independent branch-switch condition: costate equality across the quench."""
    q_c = isotherm_q_of_p(p, mu(K, baths.beta_c, COLD), baths.beta_c)
    q_h = isotherm_q_of_p(p, mu(K, baths.beta_h, HOT), baths.beta_h)
    return q_c - q_h


class TestSwitchCondition:
    def test_monotone_decreasing_in_rate(self, baths03):
        values = [adiabatic_f(0.15, K, baths03) for K in np.linspace(-0.2, -0.01, 50)]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))

    def test_roots_match_costate_continuity(self, baths03):
        # roots of f must coincide with the zero set of the independent
        # costate-equality condition across the quench
        p1, p2 = find_jump_points(K_REF, baths03)
        assert abs(q_continuity_mismatch(p1, K_REF, baths03)) < 1e-10
        assert abs(q_continuity_mismatch(p2, K_REF, baths03)) < 1e-10

    def test_two_roots_at_reference_rate(self, baths03):
        grid = np.linspace(1e-6, 1 - 1e-6, 10_001)
        vals = np.array([adiabatic_f(p, K_REF, baths03) for p in grid])
        crossings = np.where(np.diff(np.sign(vals)) != 0)[0]
        assert crossings.size == 2
        p1, p2 = find_jump_points(K_REF, baths03)
        assert grid[crossings[0]] <= p1 <= grid[crossings[0] + 1]
        assert grid[crossings[1]] <= p2 <= grid[crossings[1] + 1]
        assert p1 == pytest.approx(0.0239155314874, abs=1e-10)
        assert p2 == pytest.approx(0.2062190044270, abs=1e-10)

    def test_no_roots_below_threshold(self, baths03):
        grid = np.linspace(1e-6, 1 - 1e-6, 10_001)
        vals = np.array([adiabatic_f(p, -0.2, baths03) for p in grid])
        assert np.all(vals > 0.0)
        with pytest.raises(NoJumpPoints):
            find_jump_points(-0.2, baths03)

    def test_switch_points_vanish_f(self, baths03):
        p1, p2 = find_jump_points(K_REF, baths03)
        assert abs(adiabatic_f(p1, K_REF, baths03)) < 1e-10
        assert abs(adiabatic_f(p2, K_REF, baths03)) < 1e-10

    def test_coincident_at_threshold(self, baths03):
        sol = solve_engine(baths03.z)
        c1, c2 = find_jump_points(sol.K_star, baths03)
        assert abs(c1 - c2) < 1e-8
        assert c1 == pytest.approx(sol.p_star, abs=1e-8)

    @pytest.mark.parametrize(
        "K, z, p1_ref, p2_ref",
        [(-1e-5, 0.3, 4.99489e-7, 0.496170), (-3e-5, 0.1, 3.13575e-7, 0.497467)],
    )
    def test_roots_near_quasi_static_limit(self, K, z, p1_ref, p2_ref):
        # the lower root shrinks like |K| and lies below any fixed floor on p
        baths = Baths.from_ratio(z)
        p1, p2 = find_jump_points(K, baths)
        assert p1 == pytest.approx(p1_ref, rel=1e-5)
        assert p2 == pytest.approx(p2_ref, rel=1e-5)
        assert abs(adiabatic_f(p1, K, baths)) < 1e-10
        assert abs(adiabatic_f(p2, K, baths)) < 1e-10

    def test_below_search_floor_raises_value_error(self, baths03):
        # the documented limit: the lower root would lie under p = 1e-250
        with pytest.raises(ValueError, match="too close to 0"):
            find_jump_points(-1e-260, baths03)

    def test_no_jump_points_only_when_f_positive(self, baths03):
        sol = solve_engine(baths03.z)
        p_grid = np.geomspace(1e-250, 1 - 1e-15, 20_001)
        below, above = 1.001 * sol.K_star, 0.999 * sol.K_star
        assert min(adiabatic_f(float(p), below, baths03) for p in p_grid) > 0.0
        with pytest.raises(NoJumpPoints):
            find_jump_points(below, baths03)
        assert min(adiabatic_f(float(p), above, baths03) for p in p_grid) < 0.0
        p1, p2 = find_jump_points(above, baths03)
        assert p1 < sol.p_star < p2

    def test_tangency_has_sign_of_slope(self, baths03):
        # the engine and switch-point searches rely on this: h shares the sign
        # of df/dp and changes sign once, at the minimum of f
        s = np.linspace(math.log(1e-200), math.log1p(-1e-12), 4001)
        s_mid = 0.5 * (s[1:] + s[:-1])
        for K in (-0.2, 1.001 * solve_engine(0.3).K_star, -0.05, -1e-6):
            f_s, h_s = _log_p_kernels(K, baths03)
            f = np.array([f_s(float(v)) for v in s])
            h = np.array([h_s(float(v)) for v in s_mid])
            slope = np.diff(f)
            resolved = np.abs(slope) > 1e-9 * np.maximum(np.abs(f[1:]), 1.0)
            assert np.all(np.sign(slope[resolved]) == np.sign(h[resolved]))
            assert np.count_nonzero(np.diff(np.sign(h)) != 0) == 1


def engine_grid_oracle(z, k_lo, k_hi, n_rounds=40, n_p=10_000):
    """Tangency by pure grid refinement: bisect on the sign of min_p f."""
    baths = Baths.from_ratio(z)
    grid = np.linspace(1e-6, 1 - 1e-6, n_p)
    for _ in range(n_rounds):
        k_mid = 0.5 * (k_lo + k_hi)
        vals = np.array([adiabatic_f(p, k_mid, baths) for p in grid])
        if vals.min() < 0.0:
            k_hi = k_mid
        else:
            k_lo = k_mid
    return 0.5 * (k_lo + k_hi)


def _switch_terms_mpmath(p, K, z):
    """mu_c, mu_h, x_c, x_h and f at (p, K) in mpmath, at beta_c = gamma = 1."""
    beta_c, beta_h = mp.mpf(1), mp.mpf(z)
    mu_c, mu_h = -mp.sqrt(-beta_c * K), mp.sqrt(-beta_h * K)
    x_c = (mp.sqrt(mu_c**2 + 4 * p * (1 - p)) - mu_c) / (2 * p)
    x_h = 2 * (1 - p) / (mp.sqrt(mu_h**2 + 4 * p * (1 - p)) + mu_h)
    r = x_c / x_h
    f = r - 1 / r + 2 * mp.sqrt(beta_c * beta_h) * (mp.log(x_c) / beta_c - mp.log(x_h) / beta_h)
    return mu_c, mu_h, x_c, x_h, f


def _k_star_mpmath(z, p0, k0):
    """K* at 50 digits: the root of f = 0 and the merging condition in (p, K),
    with K = k0 c so that both unknowns are of order one."""
    with mp.workdps(50):

        def equations(p, c):
            mu_c, mu_h, x_c, x_h, f = _switch_terms_mpmath(p, mp.mpf(k0) * c, z)
            merge = (x_c + 1 / x_c) / mu_c + (x_h + 1 / x_h) / mu_h
            return f / mu_c**2, merge * mu_c

        _, c = mp.findroot(equations, (mp.mpf(p0), mp.mpf(1)))
        return float(mp.mpf(k0) * c)


def _reference_solve_engine(z, beta_c=1.0, gamma=1.0):
    """The engine solve as it was before the Newton solve in K, kept to check
    it against: one brentq in K, each evaluation a brentq in log p
    (adiabatic_f_min), then one more adiabatic_f_min at K* for p*."""
    scaled = Baths.from_ratio(z, beta_c=beta_c, gamma=gamma)
    baths = Baths.from_ratio(z)

    theta = lambert_w0(math.exp(-1.0)) / 4.0
    lo = -3.0 * theta / z
    hi = -min(1e-12, 1e-3 * (1.0 - z) ** 2)
    f_lo = adiabatic_f_min(lo, baths)[0]
    if f_lo < 0.0:
        raise SolverError(f"failed to bracket the root-merging K for z={z}")
    K = brentq(lambda k: f_lo if k == lo else adiabatic_f_min(k, baths)[0], lo, hi, xtol=1e-18 * abs(hi), rtol=1e-15)
    p = adiabatic_f_min(K, baths, xatol=1e-15)[1]

    f_res = abs(adiabatic_f(p, K, baths))
    t_res = tangency_residual(p, K, baths)
    if f_res > 1e-10 or t_res > 1e-10:
        raise SolverError(
            f"engine solve did not converge at z={z}: |f|={f_res:.3e}, tangency={t_res:.3e}",
            residuals=(f_res, t_res),
        )

    mu_c_val, mu_h_val = _mu_pair(K, baths)
    u_c = isotherm_u_of_p(p, mu_c_val, scaled.beta_c)
    u_h = isotherm_u_of_p(p, mu_h_val, scaled.beta_h)
    return EngineSolution(
        z=z,
        K_star=K * (gamma / beta_c),
        p_star=p,
        u_c_star=u_c,
        u_h_star=u_h,
        eta_star=1.0 - u_c / u_h,
        eta_carnot=1.0 - z,
        eta_curzon_ahlborn=1.0 - math.sqrt(z),
        g=-K,
        theta=theta,
    )


# float.hex of (K*, p*) for (z, beta_c, gamma): z at the middle of each of the
# benchmark's 16 engine-curve strata (log-spaced in 1e-4 ... 0.9999), one z
# near 1, and a far unit scale at z = 0.3
ENGINE_BITS = [
    (0.000133352, 1.0, 1.0, '-0x1.04b4acbc802ddp+9', '0x1.bdc5ad4d8a895p-4'),
    (0.000237135, 1.0, 1.0, '-0x1.24f782fbf1705p+8', '0x1.bd923629fd886p-4'),
    (0.00042169, 1.0, 1.0, '-0x1.4907bd7c82dbfp+7', '0x1.bd3e1ded639a4p-4'),
    (0.000749878, 1.0, 1.0, '-0x1.712e2353a9e83p+6', '0x1.bcb5c66972916p-4'),
    (0.00133348, 1.0, 1.0, '-0x1.9d92f71088097p+5', '0x1.bbdac8be565c3p-4'),
    (0.00237129, 1.0, 1.0, '-0x1.ce16f56505f90p+4', '0x1.ba7f03af337f1p-4'),
    (0.00421679, 1.0, 1.0, '-0x1.01092006fae1ep+4', '0x1.b85e73017eea0p-4'),
    (0.00749859, 1.0, 1.0, '-0x1.1bee17a39f3efp+3', '0x1.b518ab77d04e4p-4'),
    (0.0133345, 1.0, 1.0, '-0x1.3605e42e713c1p+2', '0x1.b02cbdc632b5ap-4'),
    (0.0237123, 1.0, 1.0, '-0x1.4c2892a4bbd94p+1', '0x1.a8fda2c843b59p-4'),
    (0.0421669, 1.0, 1.0, '-0x1.58fa74f249c65p+0', '0x1.9eeaed94b8725p-4'),
    (0.074984, 1.0, 1.0, '-0x1.54429948dad92p-1', '0x1.918fad690ce15p-4'),
    (0.133342, 1.0, 1.0, '-0x1.3338f9687af19p-2', '0x1.8137e01095ddap-4'),
    (0.237117, 1.0, 1.0, '-0x1.d801b0da0af81p-4', '0x1.6f7f126f6a79dp-4'),
    (0.421658, 1.0, 1.0, '-0x1.00b674b6993a3p-5', '0x1.5fb25d69d6c37p-4'),
    (0.749822, 1.0, 1.0, '-0x1.5834c6b22e936p-9', '0x1.5629072c290a2p-4'),
    (0.999999999, 1.0, 1.0, '-0x1.034669829b43bp-65', '0x1.54e058e63732ap-4'),
    (0.3, 250.0, 0.02, '-0x1.8204dea671cf2p-18', '0x1.68916e3eb8a5cp-4'),
]


class TestEngineSolver:
    def test_residuals_at_reference_ratio(self):
        sol = solve_engine(0.3)
        f_res, t_res = engine_residuals(sol)
        assert f_res <= 1e-10
        assert t_res <= 1e-10

    def test_against_grid_refinement_oracle(self):
        sol = solve_engine(0.3)
        k_oracle = engine_grid_oracle(0.3, -0.2, -0.01)
        assert sol.K_star == pytest.approx(k_oracle, abs=5e-8)

    def test_efficiency_near_curzon_ahlborn(self):
        sol = solve_engine(0.3)
        assert sol.eta_curzon_ahlborn == pytest.approx(0.4523, abs=1e-4)
        assert abs(sol.eta_star - sol.eta_curzon_ahlborn) < 0.03

    def test_working_point_consistency(self, baths03):
        sol = solve_engine(0.3)
        assert 0.0 < sol.p_star < 1.0
        assert sol.u_h_star > sol.u_c_star > 0.0
        assert 0.0 <= sol.eta_star <= sol.eta_carnot < 1.0
        assert sol.K_star == pytest.approx(-sol.g, abs=1e-15)
        # gap values are the arc inversions at the working point
        assert sol.u_c_star == pytest.approx(
            isotherm_u_of_p(sol.p_star, mu(sol.K_star, 1.0, COLD), 1.0), abs=1e-12
        )
        assert sol.u_h_star == pytest.approx(
            isotherm_u_of_p(sol.p_star, mu(sol.K_star, 0.3, HOT), 0.3), abs=1e-12
        )

    def test_linear_response_vanishing(self):
        assert solve_engine(0.99).g < 1e-3

    def test_near_degenerate_temperatures(self):
        # close to equal temperatures the engine output collapses and the
        # maximum-power efficiency sits at half the reversible bound
        sol = solve_engine(0.999)
        assert sol.g < 1e-5
        assert sol.eta_star == pytest.approx(sol.eta_curzon_ahlborn, abs=1e-5)
        assert sol.eta_curzon_ahlborn == pytest.approx(sol.eta_carnot / 2.0, rel=1e-3)

    def test_unit_scaling(self):
        ref = solve_engine(0.3)
        scaled = solve_engine(0.3, beta_c=2.0, gamma=5.0)
        assert scaled.g == pytest.approx(ref.g, rel=1e-9)
        assert scaled.K_star == pytest.approx(ref.K_star * 5.0 / 2.0, rel=1e-9)
        assert scaled.u_c_star == pytest.approx(ref.u_c_star / 2.0, rel=1e-9)
        assert scaled.eta_star == pytest.approx(ref.eta_star, rel=1e-9)

    @pytest.mark.parametrize("z", [0.999999, 1.0 - 1e-9])
    def test_close_to_equal_temperatures(self, z):
        # K* ~ -0.0275 (1 - z)^2 lies above a fixed bracket end of -1e-12 here
        sol = solve_engine(z)  # raises SolverError if a residual exceeds 1e-10
        assert max(engine_residuals(sol)) <= 1e-10
        ref = _k_star_mpmath(z, sol.p_star, sol.K_star)
        assert abs(sol.K_star - ref) <= 1e-6 * abs(ref)

    def test_invalid_ratio_rejected(self):
        for z in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                solve_engine(z)

    @pytest.mark.parametrize("z, beta_c, gamma, k_hex, p_hex", ENGINE_BITS)
    def test_pinned_bits(self, z, beta_c, gamma, k_hex, p_hex):
        sol = solve_engine(z, beta_c=beta_c, gamma=gamma)
        assert (sol.K_star.hex(), sol.p_star.hex()) == (k_hex, p_hex)

    @pytest.mark.parametrize("z", [1e-6, 3e-6, 1e-5, 5e-5])
    def test_accuracy_at_small_ratio(self, z):
        sol = solve_engine(z)
        ref = _k_star_mpmath(z, sol.p_star, sol.K_star)
        assert abs(sol.K_star - ref) <= 2e-15 * abs(ref)

    def test_gate_raises_on_residual(self, gate_offset):
        with pytest.raises(SolverError, match="did not converge at z=0.3") as err:
            solve_engine(0.3)
        assert err.value.residuals[0] <= 1e-10 < err.value.residuals[1]


# the ENGINE_BITS rows up to z = 0.9 and the unit scales of tests/test_roots.py
ENGINE_ZS = sorted({row[0] for row in ENGINE_BITS if row[0] <= 0.9})
UNIT_SCALES = [(1.0, 1.0), (1e-3, 7.0), (250.0, 0.02)]


class TestNewtonInK:
    @pytest.mark.parametrize("z", [1e-4, 1e-2, 0.3, 0.7, 0.9, 0.99])
    def test_df_dk_against_mpmath(self, z):
        baths = Baths.from_ratio(z)
        for s in (-20.0, -5.0, -2.4, -0.5, -1e-3):
            for K in (-5.0, -0.05, -1e-3, -1e-6):
                with mp.workdps(40):
                    ref = mp.diff(lambda k: _switch_terms_mpmath(mp.exp(s), k, z)[4], mp.mpf(K))
                df_dk = _f_and_df_dk(s, K, baths)[1]
                assert abs(df_dk - ref) <= 1e-13 * abs(ref), (s, K)

    @pytest.mark.parametrize("z", [1e-4, 0.3, 0.9])
    def test_wrong_signed_derivative_raises(self, monkeypatch, z):
        f_and_df_dk = two_level._f_and_df_dk

        def flipped(s, K, baths):
            f, df_dk, level = f_and_df_dk(s, K, baths)
            return f, -df_dk, level

        monkeypatch.setattr(two_level, "_f_and_df_dk", flipped)
        with pytest.raises(SolverError, match=f"did not converge at z={z}"):
            solve_engine(z)

    @pytest.mark.parametrize("beta_c, gamma", UNIT_SCALES)
    @pytest.mark.parametrize("z", ENGINE_ZS)
    def test_matches_nested_brentq_and_mpmath(self, z, beta_c, gamma):
        sol = solve_engine(z, beta_c=beta_c, gamma=gamma)
        ref = _reference_solve_engine(z, beta_c=beta_c, gamma=gamma)
        k_unit = sol.K_star * beta_c / gamma
        k_mp = _k_star_mpmath(z, sol.p_star, k_unit) * (gamma / beta_c)
        # Both solves stop where the rounding of f hides its sign, a band of
        # relative width level / |K df/dK| around K* (2.2e-15 at z = 0.75).
        # Each is held to 2e-15 of the 50-digit K*, or to two bands if wider.
        _, df_dk, level = _f_and_df_dk(math.log(sol.p_star), k_unit, Baths.from_ratio(z))
        tol = max(2e-15, 2.0 * level / abs(df_dk * k_unit))
        assert abs(sol.K_star - k_mp) <= tol * abs(k_mp)
        assert abs(sol.K_star - ref.K_star) <= 2.0 * tol * abs(ref.K_star)
        assert abs(sol.p_star - ref.p_star) <= 4e-15 * ref.p_star

    @pytest.mark.parametrize("z", ENGINE_ZS)
    def test_evaluation_budget(self, monkeypatch, z):
        # one _x_pair call per evaluation of f, h or df/dK; the nested brentq
        # solve made 200 to 286 of them at these z
        calls = []
        x_pair = two_level._x_pair

        def counted(*args):
            calls.append(args)
            return x_pair(*args)

        monkeypatch.setattr(two_level, "_x_pair", counted)
        solve_engine(z)
        assert len(calls) <= 120


@pytest.fixture(scope="module")
def sweep():
    return [solve_engine(float(z)) for z in np.linspace(0.02, 0.98, 50)]


class TestEngineCurves:

    def test_g_strictly_decreasing(self, sweep):
        gs = [s.g for s in sweep]
        assert all(gs[i] > gs[i + 1] for i in range(len(gs) - 1))

    def test_efficiency_ordering(self, sweep):
        for s in sweep:
            assert s.eta_curzon_ahlborn <= s.eta_carnot
            assert s.eta_star <= s.eta_carnot + 1e-12

    def test_weak_dissipation_convergence(self, sweep):
        for s in sweep:
            if s.z >= 0.9:
                assert abs(s.eta_star - s.eta_curzon_ahlborn) < 0.01

    def test_fixed_gradient_power_decreasing(self):
        ys = np.geomspace(0.05, 10.0, 12)
        vals = [y * solve_engine(float(y / (1.0 + y))).g for y in ys]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_low_ratio_limit_approached(self):
        theta, p_lim = asymptotic_limit()
        sol = solve_engine(1e-4)
        assert sol.z * sol.g == pytest.approx(theta, rel=2e-3)
        assert sol.p_star == pytest.approx(p_lim, rel=2e-3)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-15)

    def test_reference_value_vs_bisection(self):
        target = math.exp(-1.0)
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < target:
                lo = mid
            else:
                hi = mid
        w_oracle = 0.5 * (lo + hi)
        assert lambert_w0(target) == pytest.approx(w_oracle, abs=1e-14)
        assert lambert_w0(target) == pytest.approx(0.27846, abs=1e-5)

    def test_defining_identity_across_range(self):
        for x in np.geomspace(1e-8, 1e8, 33):
            w = lambert_w0(float(x))
            assert w * math.exp(w) == pytest.approx(float(x), rel=1e-14)
        for x in (-0.3, -0.1, -0.05, -1 / math.e + 1e-9):
            w = lambert_w0(x)
            assert w * math.exp(w) == pytest.approx(x, abs=1e-14)

    def test_matches_scipy(self):
        for x in (-0.25, 0.1, 1.0, 7.3, 1e4):
            assert lambert_w0(x) == pytest.approx(float(scipy_lambertw(x).real), abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0)


class TestAsymptoticLimit:
    def test_theta_value(self):
        theta, _ = asymptotic_limit()
        assert theta == pytest.approx(0.06961, abs=5e-5)

    def test_theta_identity(self):
        theta, _ = asymptotic_limit()
        assert 4 * theta * math.exp(4 * theta) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_limit_population(self):
        theta, p_lim = asymptotic_limit()
        assert p_lim == pytest.approx(2 * theta / (1 + 4 * theta), abs=1e-15)
        assert p_lim == pytest.approx(0.10891, abs=5e-5)


class TestSegments:
    def test_rate_positive_rejected(self, baths03):
        with pytest.raises(ValueError):
            make_segment(COLD, 0.1, baths03, 2.0, 3.0)

    def test_hot_range_enforced(self, baths03):
        mu_h = mu(K_REF, baths03.beta_h, HOT)
        with pytest.raises(ValueError):
            make_segment(HOT, K_REF, baths03, 1.0 / mu_h * 1.5, 1.0)

    def test_hot_branch_empty_at_large_rate(self):
        baths = Baths.from_ratio(0.5)
        with pytest.raises(ValueError):
            make_segment(HOT, -4.1, baths, 1.0, 1.2)  # mu_h > 1

    @pytest.mark.parametrize("branch", [COLD, HOT], ids=["cold", "hot"])
    @pytest.mark.parametrize("x0, x1", [(math.nan, 2.0), (2.0, math.inf), (math.inf, 2.0), (2.0, math.nan)])
    def test_nonfinite_endpoint_rejected(self, baths03, branch, x0, x1):
        # nan passes every range comparison, and chi(inf) is nan: without the check
        # both gave a segment of nan duration and heat
        with pytest.raises(ValueError, match="control endpoints must be finite"):
            make_segment(branch, K_REF, baths03, x0, x1)

    def test_negative_gap_segment(self, baths03):
        mu_cn = mu(K_REF, baths03.beta_c, COLD_NEG)
        x0 = isotherm_x_of_p(0.7, mu_cn)
        x1 = isotherm_x_of_p(0.8, mu_cn)
        assert x0 < 1.0 and x1 < 1.0  # negative gaps
        seg = make_segment(COLD_NEG, K_REF, baths03, x0, x1)
        assert seg.duration > 0.0

    def test_conserved_rate_along_arcs(self, baths03, rng):
        # the pseudo-Hamiltonian scalar -(2q+u) dp/dt equals K everywhere
        for branch in (COLD, HOT, COLD_NEG, HOT_NEG):
            beta = baths03.beta(branch.kind)
            mu_v = mu(K_REF, beta, branch)
            for _ in range(20):
                p = float(rng.uniform(0.05, 0.9))
                x = isotherm_x_of_p(p, mu_v)
                u = (2.0 / beta) * math.log(x)
                q = isotherm_q_of_p(p, mu_v, beta)
                pdot = baths03.gamma * (1.0 / (1.0 + x * x) - p)
                assert -(2.0 * q + u) * pdot == pytest.approx(K_REF, abs=1e-12)
