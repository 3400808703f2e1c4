import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from pmp_thermo.lindblad import ControlVector, DiagonalResetModel, TwoLevelResetModel, _sum, lindblad_rhs
from pmp_thermo.pmp import (
    TrajectoryNode,
    adjoint_generator,
    conserved_k_residual,
    costate_rhs,
    gauge_lambda,
    pseudo_hamiltonian,
    stationarity_residual,
    switching_functional,
)
from pmp_thermo.planner import build_trajectory, validate_plan
from pmp_thermo.two_level import (
    COLD,
    Baths,
    chi,
    isotherm_p,
    isotherm_q_of_p,
    isotherm_u_of_p,
    mu,
    segment_from_populations,
)

K_REF = -0.05


def cold_ctrl(u_val, gamma=1.0):
    return ControlVector(u=np.array([u_val]), gamma_c=gamma, gamma_h=0.0)


def diag_state(p):
    return np.diag([1.0 - p, p]).astype(complex)


def diag_costate(q):
    """Two-level traceless costate q (|0><0| - |1><1|)."""
    return np.diag([q, -q]).astype(complex)


class TestPseudoHamiltonian:
    def test_zero_at_fixed_point(self, baths03):
        model = TwoLevelResetModel(baths03)
        u = np.array([1.4])
        rho = model.equilibrium(u, "cold")
        pi = diag_costate(0.3)
        value = pseudo_hamiltonian(rho, pi, cold_ctrl(1.4), model)
        assert abs(value) < 1e-14

    def test_conserved_along_optimal_arc(self, baths03):
        model = TwoLevelResetModel(baths03)
        mu_c = mu(K_REF, baths03.beta_c, COLD)
        for p in np.linspace(0.05, 0.5, 12):
            q = isotherm_q_of_p(p, mu_c, baths03.beta_c)
            u_val = isotherm_u_of_p(p, mu_c, baths03.beta_c)
            value = pseudo_hamiltonian(diag_state(p), diag_costate(q), cold_ctrl(u_val), model)
            assert value == pytest.approx(K_REF, abs=1e-10)

    def test_matches_scalar_trace_arithmetic(self, baths03, rng):
        # dense-matrix evaluation vs the hand-reduced scalar -(2q+u) dp/dt
        model = TwoLevelResetModel(baths03)
        for _ in range(25):
            p = float(rng.uniform(0.01, 0.99))
            q = float(rng.uniform(-2.0, 2.0))
            u_val = float(rng.uniform(0.0, 4.0))
            kind = "cold" if rng.uniform() < 0.5 else "hot"
            beta = baths03.beta(kind)
            gammas = (1.0, 0.0) if kind == "cold" else (0.0, 1.0)
            ctrl = ControlVector(u=np.array([u_val]), gamma_c=gammas[0], gamma_h=gammas[1])
            x = math.exp(0.5 * beta * u_val)
            pdot = baths03.gamma * (1.0 / (1.0 + x * x) - p)
            expected = -(2.0 * q + u_val) * pdot
            value = pseudo_hamiltonian(diag_state(p), diag_costate(q), ctrl, model)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch_rejected(self, baths03):
        model = TwoLevelResetModel(baths03)
        with pytest.raises(ValueError):
            pseudo_hamiltonian(diag_state(0.3), np.eye(3, dtype=complex), cold_ctrl(1.0), model)


class TestCostateRhs:
    def test_scalar_reduction_exact(self, baths03, rng):
        # general adjoint machinery reproduces dq/dt = (gamma/2)(2q + u)
        model = TwoLevelResetModel(baths03)
        for _ in range(25):
            q = float(rng.uniform(-3.0, 3.0))
            u_val = float(rng.uniform(0.0, 5.0))
            kind = "cold" if rng.uniform() < 0.5 else "hot"
            gammas = (1.0, 0.0) if kind == "cold" else (0.0, 1.0)
            ctrl = ControlVector(u=np.array([u_val]), gamma_c=gammas[0], gamma_h=gammas[1])
            pi = diag_costate(q)
            pi_dot = costate_rhs(pi, ctrl, model)
            dq = 0.5 * (pi_dot[0, 0] - pi_dot[1, 1]).real
            assert dq == pytest.approx(0.5 * baths03.gamma * (2.0 * q + u_val), abs=1e-12)
            assert abs(np.trace(pi_dot)) < 1e-14

    def test_reference_arithmetic(self, baths03):
        model = TwoLevelResetModel(baths03)
        ctrl = cold_ctrl(1.0)
        pi = diag_costate(0.25)
        pi_dot = costate_rhs(pi, ctrl, model)
        dq = 0.5 * (pi_dot[0, 0] - pi_dot[1, 1]).real
        assert dq == pytest.approx(0.75, abs=1e-14)

    def test_costate_equal_hamiltonian(self, baths03):
        # pi = H_u makes the adjoint argument vanish, and with it the multiplier
        model = TwoLevelResetModel(baths03)
        u = np.array([2.0])
        pi = model.hamiltonian(u)
        ctrl = ControlVector(u=u, gamma_c=1.0, gamma_h=0.0)
        assert gauge_lambda(pi, ctrl, model) == 0.0
        pi_dot = costate_rhs(pi, ctrl, model)
        assert np.max(np.abs(pi_dot)) < 1e-15

    @pytest.mark.parametrize(
        "call",
        [
            lambda model: pseudo_hamiltonian(diag_state(0.3), diag_costate(0.1), cold_ctrl(1.0), model),
            lambda model: costate_rhs(diag_costate(0.1), cold_ctrl(1.0), model),
            lambda model: gauge_lambda(diag_costate(0.1), cold_ctrl(1.0), model),
            lambda model: switching_functional(diag_state(0.3), diag_costate(0.1), np.array([1.0]), model),
            lambda model: stationarity_residual(
                TrajectoryNode(t=0.0, rho=diag_state(0.3), pi=diag_costate(0.1), control=cold_ctrl(1.0)), model
            ),
        ],
        ids=["pseudo_hamiltonian", "costate_rhs", "gauge_lambda", "switching_functional", "stationarity_residual"],
    )
    def test_foreign_model_fatal(self, call):
        # a model other than the reset model has no adjoint generator and no gap derivative
        with pytest.raises(TypeError, match="DiagonalResetModel"):
            call(object())

    def test_missing_adjoint_fatal(self):
        class NoAdjoint:
            dim = 2

            def hamiltonian(self, u):
                return np.zeros((2, 2), dtype=complex)

        with pytest.raises(TypeError):
            costate_rhs(diag_costate(0.1), cold_ctrl(1.0), NoAdjoint())


class TestGaugeMultiplier:
    def test_consistency_with_trace_gauge(self, baths03, rng):
        # lam from the fixed-point pairing, -<rho_eq pi_dot>, equals the traceless-gauge value
        model = TwoLevelResetModel(baths03)
        for _ in range(10):
            u_val = float(rng.uniform(0.2, 4.0))
            q = float(rng.uniform(-1.0, 1.0))
            ctrl = cold_ctrl(u_val)
            pi = diag_costate(q)
            lam = gauge_lambda(pi, ctrl, model)
            pi_dot = costate_rhs(pi, ctrl, model)
            rho_eq = model.equilibrium(ctrl.u, "cold")
            assert np.max(np.abs(lindblad_rhs(rho_eq, ctrl, model))) < 1e-15
            lam_back = -np.trace(rho_eq @ pi_dot).real
            assert lam_back == pytest.approx(lam, abs=1e-12)

    def test_traceless_gauge_preserved_under_cointegration(self, baths03):
        # co-integrate state and costate matrices along an optimal arc: the
        # costate trace stays pinned at zero and q matches the closed form
        model = TwoLevelResetModel(baths03)
        mu_c = mu(K_REF, baths03.beta_c, COLD)
        seg = segment_from_populations(COLD, K_REF, baths03, 0.35, 0.12)
        c0 = chi(seg.x0, mu_c)

        def u_of_t(t):
            from scipy.optimize import brentq

            target = c0 + baths03.gamma * min(max(t, 0.0), seg.duration)
            lo, hi = min(seg.x0, seg.x1), max(seg.x0, seg.x1)
            x = brentq(lambda xx: chi(xx, mu_c) - target, lo, hi, xtol=1e-14)
            return (2.0 / baths03.beta_c) * math.log(x)

        def rhs(t, y):
            rho = (y[:4] + 1j * y[4:8]).reshape(2, 2)
            pi = (y[8:12] + 1j * y[12:16]).reshape(2, 2)
            ctrl = cold_ctrl(u_of_t(t))
            rho_dot = lindblad_rhs(rho, ctrl, model)
            pi_dot = costate_rhs(pi, ctrl, model)
            return np.concatenate(
                [rho_dot.reshape(-1).real, rho_dot.reshape(-1).imag, pi_dot.reshape(-1).real, pi_dot.reshape(-1).imag]
            )

        p0 = 0.35
        q0 = isotherm_q_of_p(p0, mu_c, baths03.beta_c)
        y0 = np.concatenate(
            [
                diag_state(p0).reshape(-1).real,
                diag_state(p0).reshape(-1).imag,
                diag_costate(q0).reshape(-1).real,
                diag_costate(q0).reshape(-1).imag,
            ]
        )
        sol = solve_ivp(rhs, [0.0, seg.duration], y0, rtol=1e-11, atol=1e-13, dense_output=False,
                        t_eval=np.linspace(0.0, seg.duration, 20))
        for i in range(sol.t.size):
            pi = (sol.y[8:12, i] + 1j * sol.y[12:16, i]).reshape(2, 2)
            assert abs(np.trace(pi)) < 1e-10
        pi_end = (sol.y[8:12, -1] + 1j * sol.y[12:16, -1]).reshape(2, 2)
        q_end = 0.5 * (pi_end[0, 0] - pi_end[1, 1]).real
        assert q_end == pytest.approx(isotherm_q_of_p(0.12, mu_c, baths03.beta_c), abs=1e-7)


class TestQMinFormula:
    def test_matches_arc_heat(self, baths03):
        # the boundary-term heat <pi0 rho0> - <pi1 rho1> - int lam dt reproduces
        # the arc heat (gap swept from 1 to 2 in cold-temperature units)
        mu_c = mu(K_REF, baths03.beta_c, COLD)
        p0 = isotherm_p(math.exp(0.5), mu_c)
        p1 = isotherm_p(math.exp(1.0), mu_c)
        seg = segment_from_populations(COLD, K_REF, baths03, p0, p1)

        def lam_of_x(x):
            u_val = (2.0 / baths03.beta_c) * math.log(x)
            q = isotherm_q_of_p(isotherm_p(x, mu_c), mu_c, baths03.beta_c)
            p_eq = 1.0 / (1.0 + x * x)
            return 0.5 * baths03.gamma * (2.0 * q + u_val) * (2.0 * p_eq - 1.0)

        def dt_dx(x):
            return (x * x - 2.0 * x / mu_c - 1.0) / (baths03.gamma * (x * x + 1.0) * x)

        lam_integral, err = quad(lambda x: lam_of_x(x) * dt_dx(x), seg.x0, seg.x1, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-9
        q0 = isotherm_q_of_p(p0, mu_c, baths03.beta_c)
        q1 = isotherm_q_of_p(p1, mu_c, baths03.beta_c)
        boundary = [np.trace(diag_costate(q) @ diag_state(p)).real for p, q in ((p0, q0), (p1, q1))]
        value = boundary[0] - boundary[1] - lam_integral
        assert value == pytest.approx(seg.heat, rel=1e-6)
        assert value == pytest.approx(0.257, abs=2e-3)


class TestSwitchingFunctional:
    def test_zero_gap(self, baths03):
        model = TwoLevelResetModel(baths03)
        a = switching_functional(diag_state(0.3), diag_costate(0.5), np.array([0.0]), model)
        assert abs(a) < 1e-15

    def test_equal_temperatures(self):
        baths = Baths(beta_c=1.0, beta_h=1.0)
        model = TwoLevelResetModel(baths)
        a = switching_functional(diag_state(0.3), diag_costate(0.5), np.array([1.5]), model)
        assert abs(a) < 1e-15

    def test_matches_closed_form(self, baths03, rng):
        # two-level closed form (2q + u) [n_c(u) - n_h(u)], n_b = 1 / (1 + e^{beta_b u})
        model = TwoLevelResetModel(baths03)
        for _ in range(25):
            p = float(rng.uniform(0.01, 0.99))
            q = float(rng.uniform(-2.0, 2.0))
            u_val = float(rng.uniform(0.0, 6.0))
            a_matrix = switching_functional(diag_state(p), diag_costate(q), np.array([u_val]), model)
            n = lambda beta: 1.0 / (1.0 + math.exp(beta * u_val))
            a_scalar = (2.0 * q + u_val) * (n(baths03.beta_c) - n(baths03.beta_h))
            assert a_matrix == pytest.approx(a_scalar, abs=1e-13)

    @pytest.mark.parametrize("u_val", [0.0, 11.0, 40.0, 80.0, 700.0])
    def test_closed_form_against_mpmath(self, u_val):
        # D_h - D_c taken as a difference of two dissipators was 4.5e-9 relative
        # off at u = 40 and gave 0 instead of -3.4e-16 at u = 80, losing the
        # bang-bang sign
        baths = Baths(beta_c=1.0, beta_h=0.5)
        p, q = 0.1, 0.3
        got = switching_functional(diag_state(p), diag_costate(q), np.array([u_val]), TwoLevelResetModel(baths))
        with mp.workdps(40):
            n = lambda beta: 1 / (1 + mp.exp(mp.mpf(beta) * u_val))
            want = (2 * mp.mpf(q) + u_val) * (n(baths.beta_c) - n(baths.beta_h))
        if u_val == 0.0:
            assert got == 0.0
        else:
            assert got < 0.0
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_sign_set_by_costate_combination(self, baths03):
        # at u = 1: 2q + u < 0 admits the cold bath (A > 0) and vice versa
        model = TwoLevelResetModel(baths03)
        u_val = 1.0
        a_cold = switching_functional(diag_state(0.3), diag_costate(-1.0), np.array([u_val]), model)
        a_hot = switching_functional(diag_state(0.3), diag_costate(+0.2), np.array([u_val]), model)
        assert a_cold > 0.0  # q < -u/2
        assert a_hot < 0.0  # q > -u/2


class TestStackedResiduals:
    """Stacked states give, sample by sample, the values of single-state calls."""

    @staticmethod
    def check_stack(model, rho, pi, u, gammas):
        n, dim = len(u), model.dim
        ctrl = ControlVector(u=u, gamma_c=gammas[0], gamma_h=gammas[1])
        ph = pseudo_hamiltonian(rho, pi, ctrl, model)
        a = switching_functional(rho, pi, u, model)
        lam = gauge_lambda(pi, ctrl, model)
        pi_dot = costate_rhs(pi, ctrl, model)
        stack = TrajectoryNode(t=np.zeros(n), rho=rho, pi=pi, control=ctrl)
        stat = stationarity_residual(stack, model)
        assert ph.shape == a.shape == lam.shape == (n,) and pi_dot.shape == (n, dim, dim)
        nodes = []
        for j in range(n):
            ctrl_j = ControlVector(u=u[j], gamma_c=gammas[0], gamma_h=gammas[1])
            value = pseudo_hamiltonian(rho[j], pi[j], ctrl_j, model)
            assert type(value) is float and value == ph[j]
            value = switching_functional(rho[j], pi[j], u[j], model)
            assert type(value) is float and value == a[j]
            value = gauge_lambda(pi[j], ctrl_j, model)
            assert type(value) is float and value == lam[j]
            assert np.array_equal(costate_rhs(pi[j], ctrl_j, model), pi_dot[j])
            nodes.append(TrajectoryNode(t=0.0, rho=rho[j], pi=pi[j], control=ctrl_j))
        assert stat == max(stationarity_residual(node, model) for node in nodes)
        # the conservation residual of a stack is the maximum over its samples
        cons = conserved_k_residual([stack], K_REF, model)
        assert type(cons) is float and cons == conserved_k_residual(nodes, K_REF, model)
        assert conserved_k_residual([stack, nodes[0]], K_REF, model) == cons

    @pytest.mark.parametrize("gammas", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.4)])
    def test_match_single_states(self, baths03, rng, gammas):
        n = 24
        p = rng.uniform(0.0, 1.0, n)
        q = rng.uniform(-3.0, 3.0, n)
        u = rng.uniform(-2.0, 40.0, (n, 1))
        rho = np.array([diag_state(v) for v in p])
        pi = np.array([diag_costate(v) for v in q])
        self.check_stack(TwoLevelResetModel(baths03), rho, pi, u, gammas)

    @pytest.mark.parametrize("dim", [3, 4, 5, 8])
    @pytest.mark.parametrize("gammas", [(1.0, 0.0), (0.6, 0.4)])
    def test_match_single_states_at_higher_dims(self, baths03, rng, dim, gammas):
        # diagonal states whose traces round off one, and Hermitian costates; from
        # dim 4 on, a trace summed pairwise across the stack would round differently
        n = 15
        pops = rng.uniform(0.0, 1.0, (n, dim))
        rho = np.array([np.diag(v / v.sum()) for v in pops]).astype(complex)
        a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
        pi = a + np.conj(np.swapaxes(a, -1, -2))
        u = rng.uniform(-8.0, 12.0, (n, dim - 1))
        self.check_stack(DiagonalResetModel(baths03, dim), rho, pi, u, gammas)

    @pytest.mark.parametrize("gammas", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.4)])
    def test_two_leading_axes_keep_their_order(self, baths03, rng, gammas):
        model = TwoLevelResetModel(baths03)
        rho = np.array([diag_state(v) for v in rng.uniform(0.0, 1.0, 12)])
        pi = np.array([diag_costate(v) for v in rng.uniform(-3.0, 3.0, 12)])
        u = rng.uniform(-2.0, 40.0, (12, 1))
        flat = ControlVector(u=u, gamma_c=gammas[0], gamma_h=gammas[1])
        grid = ControlVector(u=u.reshape(3, 4, 1), gamma_c=gammas[0], gamma_h=gammas[1])
        rho2, pi2 = rho.reshape(3, 4, 2, 2), pi.reshape(3, 4, 2, 2)
        ph = pseudo_hamiltonian(rho2, pi2, grid, model)
        assert np.array_equal(ph, pseudo_hamiltonian(rho, pi, flat, model).reshape(3, 4))
        a = switching_functional(rho2, pi2, grid.u, model)
        assert np.array_equal(a, switching_functional(rho, pi, u, model).reshape(3, 4))
        lam = gauge_lambda(pi2, grid, model)
        assert np.array_equal(lam, gauge_lambda(pi, flat, model).reshape(3, 4))
        pi_dot = costate_rhs(pi2, grid, model)
        assert np.array_equal(pi_dot, costate_rhs(pi, flat, model).reshape(3, 4, 2, 2))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("stack", [(), (7,), (3, 4)])
    def test_adjoint_commutator_matches_matrix_form(self, baths03, rng, dim, stack):
        # entry by entry, i[H, a] has the values of 1j (H a - a H) for any a
        model = DiagonalResetModel(baths03, dim)
        a = rng.normal(size=stack + (dim, dim)) * 1e3 + 1j * rng.normal(size=stack + (dim, dim))
        u = rng.uniform(-2.0, 40.0, stack + (dim - 1,))
        h = model.hamiltonian(u)
        got = adjoint_generator(a, ControlVector(u=u, gamma_c=0.0, gamma_h=0.0), model)
        assert np.array_equal(got, 1j * (h @ a - a @ h))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("rates", [(1.0, 0.0), (0.0, 2.0), (0.6, 0.4)])
    def test_adjoint_generator_matches_matrix_form(self, baths03, rng, dim, rates):
        # the adjoint reset map tr(eta a) 1 - a as the former matrix form gave it,
        # tr(eta a) summed level by level from 0
        model = DiagonalResetModel(baths03, dim)
        a = rng.normal(size=(12, dim, dim)) + 1j * rng.normal(size=(12, dim, dim))
        u = rng.uniform(-2.0, 40.0, (12, dim - 1))

        def matrix_form(a, u):
            h = model.hamiltonian(u)
            out = 1j * (h @ a - a @ h)
            for kind, gamma in zip(("cold", "hot"), rates):
                if gamma > 0.0:
                    eta = model.equilibrium(u, kind)
                    mean = np.asarray(_sum(eta.T[i, i] * a.T[i, i] for i in range(dim))).T
                    out = out + gamma * (np.multiply.outer(mean, np.eye(dim)) - a)
            return out

        for a_, u_ in [(a[j], u[j]) for j in range(12)] + [(a, u), (a.reshape(3, 4, dim, dim), u.reshape(3, 4, dim - 1))]:
            got = adjoint_generator(a_, ControlVector(u=u_, gamma_c=rates[0], gamma_h=rates[1]), model)
            assert got.shape == a_.shape and np.array_equal(got, matrix_form(a_, u_))

    def test_shape_mismatch_rejected(self, baths03):
        model = TwoLevelResetModel(baths03)
        rho = np.array([diag_state(0.3)] * 3)
        with pytest.raises(ValueError, match="costate shape"):
            pseudo_hamiltonian(rho, diag_costate(0.1), cold_ctrl(1.0), model)


class TestResiduals:
    def test_analytic_arc_conservation(self, baths03):
        plan = build_trajectory(0.07, 1.0, 0.26, 6.0, K_REF, 0, baths03)
        assert validate_plan(plan, samples_per_segment=100)["max_conservation"] < 1e-9

    def test_perturbation_grows_linearly(self, baths03):
        model = TwoLevelResetModel(baths03)
        mu_c = mu(K_REF, baths03.beta_c, COLD)
        p = 0.2
        q = isotherm_q_of_p(p, mu_c, baths03.beta_c)
        u_val = isotherm_u_of_p(p, mu_c, baths03.beta_c)

        def residual_with(dq):
            node = TrajectoryNode(
                t=0.0, rho=diag_state(p), pi=diag_costate(q + dq), control=cold_ctrl(u_val)
            )
            return conserved_k_residual([node], K_REF, model)

        r1, r2 = residual_with(1e-3), residual_with(2e-3)
        assert r1 > 1e-5
        assert r2 == pytest.approx(2.0 * r1, rel=1e-3)

    def test_equilibrium_trajectory_residual_is_rate(self, baths03):
        model = TwoLevelResetModel(baths03)
        u = np.array([1.2])
        rho_eq = model.equilibrium(u, "cold")
        node = TrajectoryNode(t=0.0, rho=rho_eq, pi=diag_costate(0.4), control=cold_ctrl(1.2))
        assert conserved_k_residual([node], K_REF, model) == pytest.approx(abs(K_REF), abs=1e-13)

    def test_full_residual_report(self, baths03):
        plan = build_trajectory(0.07, 1.0, 0.26, 6.0, K_REF, 0, baths03)
        report = validate_plan(plan, samples_per_segment=200)
        assert report["max_conservation"] < 1e-9
        assert report["max_stationarity"] < 1e-9
        assert report["max_costate"] < 1e-9
        assert report["nodes"] == 200 * len(plan.arcs)
        assert set(report) == {
            "max_dp", "max_dq", "max_conservation", "max_stationarity", "max_costate",
            "max_bang_bang_violation", "nodes",
        }
