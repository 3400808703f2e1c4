import dataclasses
import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import linregress

from pmp_thermo import lindblad, planner, two_level
from pmp_thermo.lindblad import (
    ControlVector,
    DiagonalResetModel,
    IntegrationError,
    IntegrationResult,
    Protocol,
    ProtocolPiece,
    ThermoLedger,
    TraceDriftError,
    TwoLevelResetModel,
    check_density_matrix,
    integrate,
    lindblad_rhs,
)
from pmp_thermo.pmp import TrajectoryNode, pseudo_hamiltonian, stationarity_residual
from pmp_thermo.two_level import COLD, Baths, mu, segment_from_populations
from pmp_thermo.planner import TrajectoryPlan, build_trajectory, plan_to_protocol


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


class _ClosedFormTwoLevel:
    """The former two-level reset model, closed forms through tanh, kept as a reference."""

    def __init__(self, baths):
        self.baths = baths

    def equilibrium(self, u, kind):
        p_eq = 0.5 * (1.0 - math.tanh(0.5 * self.baths.beta(kind) * float(np.atleast_1d(u)[0])))
        return np.diag([1.0 - p_eq, p_eq]).astype(complex)


def _cold_reset(rho, u, model):
    """The cold reset map of rho: lindblad_rhs with the cold bath alone at rate 1,
    on a diagonal state, whose commutator with the diagonal H_u is exactly zero."""
    return lindblad_rhs(rho, ControlVector(u=u, gamma_c=1.0, gamma_h=0.0), model)


class TestTwoLevelReset:
    """The reset model at dim 2, the only two-level implementation."""

    def model(self):
        return DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.5), 2)

    def test_gibbs_fixed_point(self):
        p_eq = 1.0 / (1.0 + math.exp(2.0))
        eta = np.diag([1.0 - p_eq, p_eq]).astype(complex)
        assert np.max(np.abs(_cold_reset(eta, 2.0, self.model()))) < 1e-15

    def test_zero_gap_from_ground(self):
        out = _cold_reset(np.diag([1.0, 0.0]).astype(complex), 0.0, self.model())
        assert out[0, 0].real == pytest.approx(-0.5, abs=1e-15)
        assert out[1, 1].real == pytest.approx(0.5, abs=1e-15)

    def test_rate_toward_equilibrium(self):
        # instantaneous rate from the maximally mixed state, cross-checked by
        # integrating to the long-time limit
        rho = np.diag([0.5, 0.5]).astype(complex)
        out = _cold_reset(rho, 2.0, self.model())
        expected = 1.0 / (1.0 + math.exp(2.0)) - 0.5
        assert out[1, 1].real == pytest.approx(expected, abs=1e-12)
        assert out[1, 1].real == pytest.approx(-0.3808, abs=1e-4)

        def rhs(t, y):
            return [1.0 / (1.0 + math.exp(2.0)) - y[0]]

        sol = solve_ivp(rhs, [0.0, 40.0], [0.5], rtol=1e-12, atol=1e-14)
        assert sol.y[0, -1] == pytest.approx(1.0 / (1.0 + math.exp(2.0)), abs=1e-10)

    def test_nonfinite_gap_rejected(self):
        # 1e308 is finite, but beta_c * u overflows at beta_c = 2
        model = DiagonalResetModel(Baths(beta_c=2.0, beta_h=0.5), 2)
        for u in (math.inf, -math.inf, math.nan, 1e308):
            with pytest.raises(ValueError, match="non-finite"):
                _cold_reset(np.eye(2, dtype=complex) / 2, u, model)

    @pytest.mark.parametrize("beta_u", [-800.0, -40.0, 0.0, 11.0, 40.0, 700.0, 800.0])
    @pytest.mark.parametrize("kind", ["cold", "hot"])
    @pytest.mark.parametrize("two_level", [True, False])
    def test_equilibrium_matches_mpmath(self, beta_u, kind, two_level):
        # both populations to 1e-15 relative, down to the smallest double; 0.5 (1 - tanh(beta u / 2))
        # was 1.5e-12 off at beta u = 11 and gave 0 for 4.25e-18 at beta u = 40, and
        # unshifted weights overflow at |beta u| = 800
        model = TwoLevelResetModel(self.model().baths) if two_level else self.model()
        eta = model.equilibrium(beta_u / model.baths.beta(kind), kind)
        with mp.workdps(40):
            excited = 1 / (1 + mp.exp(beta_u))
            ref = [1 - excited, excited]
            for got, want in zip(eta.diagonal(), ref):
                assert got.imag == 0.0
                assert abs(mp.mpf(got.real) - want) <= 1e-15 * want + 2.0**-1074

    def test_matches_closed_forms(self, rng):
        baths = Baths(beta_c=1.0, beta_h=0.3)
        model, ref = TwoLevelResetModel(baths), _ClosedFormTwoLevel(baths)
        for _ in range(20):
            u = np.array([float(rng.uniform(-8.0, 12.0))])
            for kind in ("cold", "hot"):
                got, want = model.equilibrium(u, kind), ref.equilibrium(u, kind)
                # two ulps of the largest entry: each form rounds on its own
                scale = max(1.0, float(np.max(np.abs(want))))
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps * scale


class TestStackedModel:
    """A leading stack axis gives, state by state, the bits of single-state calls."""

    @staticmethod
    def stack(rng, dim, n=16):
        u = rng.uniform(-8.0, 12.0, size=(n, dim - 1))
        u[0] = 0.0  # degenerate levels
        u[1, 0] = 700.0  # a level whose Gibbs weight is near the smallest double
        rho = np.array([random_density(rng, dim) for _ in range(n)])
        a = np.array([random_hermitian(rng, dim) for _ in range(n)])
        return u, rho, a

    # from dim 4 on a stacked trace summed pairwise would round differently
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("kind", ["cold", "hot"])
    def test_methods_match_single_states(self, rng, dim, kind):
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.3), dim)
        u, _, _ = self.stack(rng, dim)
        stacked = {"hamiltonian": model.hamiltonian(u), "equilibrium": model.equilibrium(u, kind)}
        for j in range(len(u)):
            single = {"hamiltonian": model.hamiltonian(u[j]), "equilibrium": model.equilibrium(u[j], kind)}
            for name, want in single.items():
                assert np.array_equal(stacked[name][j], want), (name, j)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_generator_matches_single_states(self, rng, dim):
        # lindblad_rhs takes one state; state by state it gives the matrix-form
        # generator built from the rows of the stacked hamiltonian and equilibrium
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.3), dim)
        u, rho, _ = self.stack(rng, dim)
        h, etas = model.hamiltonian(u), {kind: model.equilibrium(u, kind) for kind in ("cold", "hot")}
        for gamma_c, gamma_h in ((1.0, 0.0), (0.0, 2.0), (0.6, 0.4)):
            for j in range(len(u)):
                want = -1j * (h[j] @ rho[j] - rho[j] @ h[j])
                for kind, gamma in (("cold", gamma_c), ("hot", gamma_h)):
                    if gamma > 0.0:
                        want = want + gamma * (etas[kind][j] * lindblad._trace(rho[j]) - rho[j])
                got = lindblad_rhs(rho[j], ControlVector(u=u[j], gamma_c=gamma_c, gamma_h=gamma_h), model)
                assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="state shape"):
            lindblad_rhs(rho, ControlVector(u=u[0], gamma_c=1.0, gamma_h=0.0), model)
        # a stack of control vectors is refused where it is built, naming its shape
        with pytest.raises(ValueError, match=r"one control vector, got controls of shape \(\d+, \d\)"):
            ControlVector(u=u, gamma_c=1.0, gamma_h=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gap_derivative_matches_finite_difference(self, rng, dim):
        # the reset map's gap derivative lives in pmp's stationarity residual, which is
        # max_k |d<(pi - H_u) L_u[rho]>/du_k|: against a central difference of the
        # pseudo-Hamiltonian, control by control, at a node that is not stationary
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.3), dim)
        u, rho, pi = self.stack(rng, dim, n=6)
        h = 1e-6
        for j in range(2, 6):  # gaps away from the degenerate and the 700 rows
            rho_j = rho[j] * np.eye(dim)
            for rates in ((1.0, 0.0), (0.6, 0.4)):
                ctrl = lambda v: ControlVector(u=v, gamma_c=rates[0], gamma_h=rates[1])
                fd = []
                for k in range(dim - 1):
                    step = np.zeros(dim - 1)
                    step[k] = h
                    up, down = (pseudo_hamiltonian(rho_j, pi[j], ctrl(u[j] + s), model) for s in (step, -step))
                    fd.append(abs(up - down) / (2 * h))
                got = stationarity_residual(TrajectoryNode(t=0.0, rho=rho_j, pi=pi[j], control=ctrl(u[j])), model)
                assert max(fd) > 1e-3
                assert abs(got - max(fd)) < 1e-8

    def test_two_leading_axes(self, rng):
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.3), 3)
        u, _, _ = self.stack(rng, 3, n=12)
        assert np.array_equal(model.equilibrium(u.reshape(3, 4, 2), "hot").reshape(12, 3, 3), model.equilibrium(u, "hot"))

    def test_nonfinite_gap_in_stack_rejected(self):
        # the Gibbs populations of a stack check beta * u as one state's do
        model = DiagonalResetModel(Baths(beta_c=2.0, beta_h=0.5), 2)
        for bad in (math.inf, -math.inf, math.nan, 1e308):
            u = np.array([[1.0], [bad], [2.0]])
            with pytest.raises(ValueError, match="non-finite"):
                model.equilibrium(u, "cold")


def _reference_dissipator(rho, u, model, kind):
    """The former reset map eta tr(rho) - rho, the trace taken as lindblad._trace takes it."""
    return model.equilibrium(u, kind) * lindblad._trace(rho) - rho


def _reference_generator(rho, control, model):
    """The generator in its former matrix form: -1j (H rho - rho H) + gamma_c D_c + gamma_h D_h."""
    rho = np.asarray(rho, dtype=complex)
    h = model.hamiltonian(control.u)
    out = -1j * (h @ rho - rho @ h)
    for kind, gamma in (("cold", control.gamma_c), ("hot", control.gamma_h)):
        if gamma > 0.0:
            out = out + gamma * _reference_dissipator(rho, control.u, model, kind)
    return out


class TestAgainstMatrixForm:
    """lindblad_rhs and its reset map give the values of the former matrix form."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("rates", [(1.0, 0.0), (0.0, 2.0), (0.6, 0.4), (0.0, 0.0)])
    def test_generator(self, rng, dim, rates):
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.3), dim)
        u, rho, _ = TestStackedModel.stack(rng, dim)
        # diagonal states too, whose coherences are exactly zero
        u = np.concatenate([u, u])
        rho = np.concatenate([rho, rho * np.eye(dim)])
        for r, v in zip(rho, u):  # the degenerate and the 700 rows among them
            control = ControlVector(u=v, gamma_c=rates[0], gamma_h=rates[1])
            got = lindblad_rhs(r, control, model)
            want = _reference_generator(r, control, model)
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_dissipator(self, rng, dim):
        # the reset kernel alone, on the full states
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.3), dim)
        u, rho, _ = TestStackedModel.stack(rng, dim)

        def reset(r, v, kind):
            pops = model._gibbs(model._controls(v), kind)
            return lindblad._from_entries(lindblad._reset(lindblad._entries(r), pops), dim)

        for kind in ("cold", "hot"):
            for j in range(len(u)):
                assert np.array_equal(reset(rho[j], u[j], kind), _reference_dissipator(rho[j], u[j], model, kind))


class TestLindbladRhs:
    def test_gibbs_fixed_point_single_bath(self, baths03):
        model = TwoLevelResetModel(baths03)
        u = np.array([1.7])
        rho = model.equilibrium(u, "cold")
        ctrl = ControlVector(u=u, gamma_c=baths03.gamma, gamma_h=0.0)
        assert np.max(np.abs(lindblad_rhs(rho, ctrl, model))) < 1e-15

    def test_two_level_population_rate(self, baths03, rng):
        # excited population obeys dp/dt = gamma [1/(1+x^2) - p], x = e^{beta u / 2}
        model = TwoLevelResetModel(baths03)
        for kind, gammas in (("cold", (1.0, 0.0)), ("hot", (0.0, 1.0))):
            beta = baths03.beta(kind)
            for _ in range(10):
                p = float(rng.uniform(0.0, 1.0))
                u_val = float(rng.uniform(0.0, 5.0))
                x = math.exp(0.5 * beta * u_val)
                rho = np.diag([1.0 - p, p]).astype(complex)
                ctrl = ControlVector(u=np.array([u_val]), gamma_c=gammas[0], gamma_h=gammas[1])
                out = lindblad_rhs(rho, ctrl, model)
                assert out[1, 1].real == pytest.approx(1.0 / (1.0 + x * x) - p, abs=1e-14)

    def test_traceless_on_random_hermitian(self, baths03, rng):
        model = TwoLevelResetModel(baths03)
        ctrl = ControlVector(u=np.array([0.0]), gamma_c=0.6, gamma_h=0.4)
        for _ in range(10):
            rho = random_hermitian(rng)
            out = lindblad_rhs(rho, ctrl, model)
            assert abs(np.trace(out)) < 1e-14
            assert np.max(np.abs(out - out.conj().T)) < 1e-13

    def test_dimension_mismatch_fatal(self, baths03):
        model = TwoLevelResetModel(baths03)
        ctrl = ControlVector(u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0)
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(3, dtype=complex) / 3, ctrl, model)

    def test_negative_rate_fatal(self):
        with pytest.raises(ValueError):
            ControlVector(u=np.array([1.0]), gamma_c=-0.1, gamma_h=0.0)


class TestIntegrate:
    def test_constant_gibbs_stays_put(self, baths03):
        model = TwoLevelResetModel(baths03)
        u = np.array([1.3])
        rho0 = model.equilibrium(u, "cold")
        proto = Protocol(pieces=[ProtocolPiece(duration=3.0, u=u, gamma_c=1.0, gamma_h=0.0)])
        res = integrate(rho0, proto, model)
        assert abs(res.ledger.heat_released) < 1e-10
        assert abs(res.ledger.work_done) < 1e-10
        assert np.max(np.abs(res.states - rho0[None, :, :])) < 1e-9

    def test_sudden_quench_work(self, baths03):
        # detached from both baths, a gap quench a -> b does work -p (b - a)
        model = TwoLevelResetModel(baths03)
        p = 0.37
        rho0 = np.diag([1.0 - p, p]).astype(complex)
        a, b = 1.0, 2.5
        proto = Protocol(
            pieces=[
                ProtocolPiece(duration=0.4, u=np.array([a]), gamma_c=0.0, gamma_h=0.0),
                ProtocolPiece(duration=0.4, u=np.array([b]), gamma_c=0.0, gamma_h=0.0),
            ]
        )
        res = integrate(rho0, proto, model)
        assert res.ledger.heat_released == pytest.approx(0.0, abs=1e-12)
        assert res.ledger.work_done == pytest.approx(-p * (b - a), abs=1e-12)
        assert abs(res.ledger.first_law_residual) < 1e-12

    def test_cold_arc_heat_matches_closed_form(self, baths03):
        seg = segment_from_populations(COLD, -0.05, baths03, 0.3681, 0.1)
        mu_c = mu(-0.05, 1.0, COLD)
        plan = TrajectoryPlan(
            K=-0.05, baths=baths03, segments=(seg,), n_cycles=0,
            p_in=0.3681, u_in=2.0 * math.log(seg.x0), p_out=0.1, u_out=2.0 * math.log(seg.x1),
        )
        model = TwoLevelResetModel(baths03)
        rho0 = np.diag([1.0 - 0.3681, 0.3681]).astype(complex)
        res = integrate(rho0, plan_to_protocol(plan), model)
        assert res.ledger.heat_released == pytest.approx(seg.heat, rel=1e-6)
        assert abs(res.ledger.first_law_residual) < 1e-8

    def test_first_law_on_piecewise_protocol(self, baths03, rng):
        model = TwoLevelResetModel(baths03)
        rho0 = random_density(rng)
        pieces = []
        for _ in range(4):
            kind = rng.uniform() < 0.5
            pieces.append(
                ProtocolPiece(
                    duration=float(rng.uniform(0.2, 1.0)),
                    u=(lambda a, b: (lambda t: np.array([a + b * math.sin(t)])))(
                        float(rng.uniform(0.5, 3.0)), float(rng.uniform(-0.5, 0.5))
                    ),
                    gamma_c=1.0 if kind else 0.0,
                    gamma_h=0.0 if kind else 1.0,
                )
            )
        res = integrate(rho0, Protocol(pieces=pieces), model)
        assert abs(res.ledger.first_law_residual) < 1e-8

    def test_trace_and_hermiticity_preserved(self, baths03, rng):
        model = TwoLevelResetModel(baths03)
        rho0 = random_density(rng)
        proto = Protocol(
            pieces=[ProtocolPiece(duration=5.0, u=lambda t: np.array([1.0 + 0.5 * math.cos(t)]), gamma_c=1.0, gamma_h=0.0)]
        )
        res = integrate(rho0, proto, model)
        for state in res.states:
            assert abs(np.trace(state).real - 1.0) < 1e-8
            assert np.max(np.abs(state - state.conj().T)) < 1e-10

    def test_single_bath_exponential_convergence(self, baths03, rng):
        # distance to the reset fixed point decays as e^{-gamma t}
        model = TwoLevelResetModel(baths03)
        rho0 = random_density(rng)
        u = np.array([1.0])
        eta = model.equilibrium(u, "cold")
        proto = Protocol(pieces=[ProtocolPiece(duration=6.0, u=u, gamma_c=1.0, gamma_h=0.0)])
        res = integrate(rho0, proto, model, samples_per_piece=100)
        dist = np.array([np.linalg.norm(s - eta) for s in res.states])
        keep = dist > 1e-9
        fit = linregress(res.t[keep], np.log(dist[keep]))
        assert fit.slope == pytest.approx(-baths03.gamma, rel=0.01)

    def test_integrator_failure_reports_time(self, baths03):
        model = TwoLevelResetModel(baths03)
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        blow_up = lambda t: np.array([1.0 / max(1e-300, 0.5 - t)])
        proto = Protocol(pieces=[ProtocolPiece(duration=1.0, u=blow_up, gamma_c=1.0, gamma_h=0.0)])
        with pytest.raises(Exception):
            integrate(rho0, proto, model)


class TestDiagonalResetModel:
    def test_gibbs_fixed_point(self):
        baths = Baths(beta_c=1.0, beta_h=0.25)
        model = DiagonalResetModel(baths, dim=4)
        u = np.array([0.5, 1.5, 2.5])
        rho = model.equilibrium(u, "hot")
        ctrl = ControlVector(u=u, gamma_c=0.0, gamma_h=1.0)
        assert np.max(np.abs(lindblad_rhs(rho, ctrl, model))) < 1e-15

    def test_first_law_multilevel(self, rng):
        baths = Baths(beta_c=1.0, beta_h=0.25)
        model = DiagonalResetModel(baths, dim=4)
        rho0 = random_density(rng, dim=4)
        proto = Protocol(
            pieces=[
                ProtocolPiece(duration=0.8, u=lambda t: np.array([0.5 + 0.2 * t, 1.5, 2.5 - 0.3 * t]), gamma_c=1.0, gamma_h=0.0),
                ProtocolPiece(duration=0.8, u=np.array([1.0, 2.0, 3.0]), gamma_c=0.0, gamma_h=1.0),
            ]
        )
        res = integrate(rho0, proto, model)
        assert abs(res.ledger.first_law_residual) < 1e-8
        assert abs(np.trace(res.final_state).real - 1.0) < 1e-9

    def test_relaxation_to_equilibrium(self, rng):
        baths = Baths(beta_c=2.0, beta_h=1.0)
        model = DiagonalResetModel(baths, dim=3)
        u = np.array([1.0, 2.0])
        rho0 = random_density(rng, dim=3)
        proto = Protocol(pieces=[ProtocolPiece(duration=30.0, u=u, gamma_c=1.0, gamma_h=0.0)])
        res = integrate(rho0, proto, model)
        assert np.max(np.abs(res.final_state - model.equilibrium(u, "cold"))) < 1e-9


class TestValidationAndExport:
    def test_density_checks(self, rng):
        check_density_matrix(random_density(rng))
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([0.7, 0.7]).astype(complex))  # trace 1.4
        with pytest.raises(ValueError):
            check_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))  # not Hermitian
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.2, -0.2]).astype(complex))  # negative eigenvalue


def _reference_integrate(rho0, protocol, model, samples_per_piece=50, rtol=1e-9, atol=1e-12):
    """integrate as it was before it built its result from the stacked solution:
    per-sample unpacking, a per-sample trace check and seven per-piece lists.
    It solves every piece, recurring or not, on the full state by solve_ivp,
    and asks each piece's callables at the time since its start, t - t_lo.  A
    path piece carries sigma after Q and W, with dsigma/dt = 1 / t'(sigma), is
    sampled at the times t(sigma) of its samples uniform in sigma, takes its
    output u at the solution's sigma and ends at its control at sigma = 1."""
    dim = model.dim
    m = 2 * dim * dim + 2

    def pack(rho, q, w):
        flat = rho.reshape(-1)
        return np.concatenate([flat.real, flat.imag, [q, w]])

    def unpack(y):
        n = dim * dim
        return (y[:n] + 1j * y[n : 2 * n]).reshape(dim, dim), y[2 * n], y[2 * n + 1]

    def start_control(piece):
        return piece.u_at(0.0) if piece.path is None else piece.path(np.zeros(1))[2][0]

    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0)
    if not protocol.pieces:
        raise ValueError("protocol has no pieces")
    ts, states, us, gcs, ghs, qs, ws = [], [], [], [], [], [], []
    t_lo = protocol.t0
    rho = rho0
    q_acc, w_acc = 0.0, 0.0
    h0 = model.hamiltonian(start_control(protocol.pieces[0]))
    energy_initial = float(np.trace(rho0 @ h0).real)
    u_end = None
    for piece in protocol.pieces:
        if piece.duration < 0.0:
            raise ValueError(f"negative piece duration {piece.duration}")
        if u_end is not None:
            h_prev = model.hamiltonian(u_end)
            h_next = model.hamiltonian(start_control(piece))
            w_acc += -float(np.trace(rho @ (h_next - h_prev)).real)
        if piece.duration == 0.0:
            u_end = start_control(piece)
            continue
        t_hi = t_lo + piece.duration
        on_path = piece.path is not None

        def control(t, y, piece=piece, t_lo=t_lo, on_path=on_path):
            """u, du/dt and dsigma/dt at (t, y)."""
            if not on_path:
                return piece.u_at(t - t_lo), piece.dudt_at(t - t_lo), []
            _, slope, u, du = piece.path(np.array([y[m]]))
            return u[0], du[0] / slope[0], [1.0 / slope[0]]

        def rhs(t, y, control=control):
            rho_t, _, _ = unpack(y)
            u_t, dudt, dsigma = control(t, y)
            ctrl = ControlVector(u=u_t, gamma_c=piece.gamma_c, gamma_h=piece.gamma_h)
            ldot = lindblad_rhs(rho_t, ctrl, model)
            dq = -lindblad._trace(model.hamiltonian(u_t) @ ldot).real
            dh = np.eye(dim, dtype=complex)[1:, :, None] * np.eye(dim)  # dH/du_k projects on level k + 1
            dw = -sum(v * lindblad._trace(rho_t @ dh[k]) for k, v in enumerate(dudt.tolist())).real
            flat = ldot.reshape(-1)
            return np.concatenate([flat.real, flat.imag, [dq, dw], dsigma])

        samples = max(samples_per_piece, 2)
        if on_path:
            t_eval = t_lo + piece.path(np.linspace(0.0, 1.0, samples))[0]
        else:
            t_eval = np.linspace(t_lo, t_hi, samples)
        sol = solve_ivp(
            rhs, (t_lo, t_hi), np.concatenate([pack(rho, q_acc, w_acc), [0.0] if on_path else []]),
            method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval, dense_output=False,
        )
        if not sol.success:
            raise IntegrationError(f"integrator failed: {sol.message}", t=float(sol.t[-1]) if len(sol.t) else t_lo)
        for i, t in enumerate(sol.t):
            rho_t, _, _ = unpack(sol.y[:, i])
            drift = abs(np.trace(rho_t).real - 1.0)
            if drift > 1e-8:
                raise TraceDriftError(f"trace drift {drift:.3e}", t=float(t))
        ts.append(sol.t)
        states.append(np.array([unpack(sol.y[:, i])[0] for i in range(sol.t.size)]))
        us.append(np.array([ControlVector(control(t, y)[0], piece.gamma_c, piece.gamma_h).u for t, y in zip(sol.t, sol.y.T)]))
        gcs.append(np.full(sol.t.size, piece.gamma_c))
        ghs.append(np.full(sol.t.size, piece.gamma_h))
        qs.append(sol.y[2 * dim * dim, :].copy())
        ws.append(sol.y[2 * dim * dim + 1, :].copy())
        rho, q_acc, w_acc = unpack(sol.y[:, -1])
        u_end = piece.path(np.ones(1))[2][0] if on_path else piece.u_at(t_hi - t_lo)
        t_lo = t_hi
    h_final = model.hamiltonian(u_end)
    ledger = ThermoLedger(
        heat_released=q_acc, work_done=w_acc, energy_initial=energy_initial,
        energy_final=float(np.trace(rho @ h_final).real),
    )
    return IntegrationResult(
        t=np.concatenate(ts), states=np.concatenate(states, axis=0), u=np.concatenate(us, axis=0),
        gamma_c=np.concatenate(gcs), gamma_h=np.concatenate(ghs), q_cum=np.concatenate(qs),
        w_cum=np.concatenate(ws), ledger=ledger,
    )


def _outcome(fn, *args, **kwargs):
    """The result of fn, or the type, message and time of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "t", None)


def _blow_up():
    """A piece whose gap jumps to 1e100 halfway: DOP853's step size collapses there."""
    return ProtocolPiece(duration=1.0, u=lambda s: np.array([1e100 if s > 0.5 else 1.0]), gamma_c=1.0, gamma_h=0.0)


def _ladder_path(duration, a, b):
    """A path with t = duration (sigma + sigma^2) / 2 and u = a + b sin(3 sigma)."""

    def path(sigma):
        t = duration * 0.5 * (sigma + sigma * sigma)
        return t, duration * (0.5 + sigma), a + b * np.sin(3.0 * sigma)[:, None], 3.0 * b * np.cos(3.0 * sigma)[:, None]

    return path


def _assert_near_outcome(bound, *args, **kwargs):
    """integrate's outcome against the reference's at rtol 1e-11: the same error,
    or the same sample times and every sampled array and ledger value within bound."""
    want = _outcome(_reference_integrate, *args, rtol=1e-11, atol=1e-14, **kwargs)
    got = _outcome(integrate, *args, **kwargs)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert np.array_equal(got.t, want.t)
    for name in ("states", "u", "gamma_c", "gamma_h", "q_cum", "w_cum"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= bound, name
    for a, b in zip(dataclasses.astuple(got.ledger), dataclasses.astuple(want.ledger)):
        assert abs(a - b) <= bound
    return got


def _assert_same_outcome(*args, **kwargs):
    want = _outcome(_reference_integrate, *args, **kwargs)
    got = _outcome(integrate, *args, **kwargs)
    if isinstance(want, tuple):
        assert got == want
        return want
    for name in ("t", "states", "u", "gamma_c", "gamma_h", "q_cum", "w_cum"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert got.ledger == want.ledger
    return want


class _LeakyModel(DiagonalResetModel):
    """Reset map that loses trace at rate 1e-6 while a bath is coupled: its
    populations sum to 1 - 1e-6."""

    def _gibbs(self, u, kind):
        return [(1.0 - 1e-6) * p for p in super()._gibbs(u, kind)]


def _distinct(protocol):
    """The protocol with a distinct piece object for each occurrence, which
    `integrate` solves step by step."""
    return Protocol(pieces=[dataclasses.replace(piece) for piece in protocol.pieces], t0=protocol.t0)


class TestIntegrateAgainstReference:
    """integrate gives the bits of _reference_integrate on pieces with u, and
    raises what it raises; on path pieces it lands within the reference's own
    error at rtol 1e-11."""

    def test_plans(self, reference_plan):
        # the reference's sampling error sets the bound (2.1e-10 seen on q_cum); heat,
        # final population and first law within 1e-12 relative of the plan's closed forms
        # (4.6e-15, 6.4e-16 and 2.2e-15 seen on the worked plan)
        plan = reference_plan
        rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
        res = _assert_near_outcome(1e-9, rho0, plan_to_protocol(plan), TwoLevelResetModel(plan.baths))
        if plan.arcs:
            assert abs(res.ledger.heat_released - plan.total_heat) <= 1e-12 * abs(plan.total_heat)
            assert abs(res.final_state[1, 1].real - plan.p_out) <= 1e-12 * plan.p_out
            assert abs(res.ledger.first_law_residual) <= 1e-12 * max(1.0, abs(plan.total_heat))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_path_pieces_from_a_coherent_start(self, rng, dim):
        # coherences take their exact factor, a recurring path piece is mapped from
        # a coherent state, and a path piece of zero duration is a quench to its start
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.25), dim)
        a = rng.uniform(0.5, 2.5, dim - 1)
        b = rng.uniform(-0.5, 0.5, dim - 1)
        cold = ProtocolPiece(duration=0.8, u=None, gamma_c=1.0, gamma_h=0.0, path=_ladder_path(0.8, a, b))
        hot = ProtocolPiece(duration=0.6, u=a + 0.3, gamma_c=0.0, gamma_h=1.0)
        both = ProtocolPiece(duration=1.3, u=None, gamma_c=0.4, gamma_h=0.6, path=_ladder_path(1.3, a, -b))
        zero = ProtocolPiece(duration=0.0, u=None, gamma_c=1.0, gamma_h=0.0, path=_ladder_path(0.0, a + 1.0, b))
        protocol = Protocol(pieces=[cold, hot, cold, zero, both, cold], t0=1.7)
        res = _assert_near_outcome(1e-9, random_density(rng, dim), protocol, model)
        assert np.max(np.abs(res.states[-1] - res.states[-1].conj().T)) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("t0", [0.0, 1.7])
    def test_piecewise_protocols(self, rng, dim, t0):
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.25), dim)
        a = rng.uniform(0.5, 2.5, dim - 1)
        b = rng.uniform(-0.5, 0.5, dim - 1)
        constant = ProtocolPiece(duration=0.7, u=a, gamma_c=1.0, gamma_h=0.0)
        zero = ProtocolPiece(duration=0.0, u=a + 1.0, gamma_c=0.0, gamma_h=1.0)
        wavy = ProtocolPiece(duration=0.9, u=lambda t: a + b * math.sin(3.0 * t), gamma_c=0.0, gamma_h=1.0)
        ramp = ProtocolPiece(duration=0.5, u=lambda s: a + 0.1 * a * s, gamma_c=0.4, gamma_h=0.6)
        rho0 = random_density(rng, dim)
        for pieces, samples in (
            ([constant, zero, wavy, ramp, zero], 50),
            ([zero, wavy, zero, zero, constant], 7),
            ([ramp], 2),
            ([zero, zero], 50),  # nothing to sample
        ):
            _assert_same_outcome(rho0, Protocol(pieces=pieces, t0=t0), model, samples_per_piece=samples)

    def test_error_paths(self, baths03):
        model = TwoLevelResetModel(baths03)
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        detached = ProtocolPiece(duration=0.5, u=np.array([1.0]), gamma_c=0.0, gamma_h=0.0)
        coupled = ProtocolPiece(duration=1.0, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0)
        t_bad = float(np.linspace(0.0, 1.0, 50)[17])
        nan_at_sample = ProtocolPiece(
            duration=1.0, u=lambda t: np.array([math.nan if t == t_bad else 1.0]), gamma_c=1.0, gamma_h=0.0
        )
        blow_up = _blow_up()
        backwards = ProtocolPiece(duration=-1.0, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0)
        cases = (
            (_LeakyModel(baths03, 2), [detached, coupled], TraceDriftError),
            (model, [blow_up], IntegrationError),
            (model, [detached, backwards], ValueError),
            (model, [nan_at_sample], ValueError),
            (model, [], ValueError),
        )
        for m, pieces, error in cases:
            kind, message, t = _assert_same_outcome(rho0, Protocol(pieces=pieces), m)
            assert issubclass(kind, error), (kind, message)
        # the drift passes 1e-8 at t = 0.51 (0.01 into the coupled piece): the
        # first output sample after that is the second one of the piece
        kind, _, t = _outcome(integrate, rho0, Protocol(pieces=[detached, coupled]), _LeakyModel(baths03, 2))
        assert kind is TraceDriftError and t == float(np.linspace(0.5, 1.5, 50)[1])
        with pytest.raises(ValueError, match="non-finite control vector"):
            integrate(rho0, Protocol(pieces=[nan_at_sample]), model)

    def test_step_failure_reports_last_sample_reached(self, baths03):
        # the step size collapses at t = 0.5, between samples 24 (0.4898) and 25 (0.5102)
        # of linspace(0, 1, 50): the error carries the last sample reached, not 0.5
        blow_up = _blow_up()
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        with pytest.raises(IntegrationError) as err:
            integrate(rho0, Protocol(pieces=[blow_up]), TwoLevelResetModel(baths03))
        assert type(err.value) is IntegrationError
        assert err.value.t == float(np.linspace(0.0, 1.0, 50)[24])


class TestRecurringPieces:
    """A path piece that occurs more than once is solved once, and every
    occurrence is the affine map of its start state; a piece with u is solved
    at every occurrence."""

    @pytest.mark.parametrize(
        "reference_plan", [f"z={z}-cycles={n}" for z in (0.2, 0.3, 0.5, 0.9) for n in (2, 3)], indirect=True
    )
    def test_plans_with_cycles(self, reference_plan):
        # one piece object per distinct arc gives the bits of one per occurrence: each
        # occurrence is the same map; heat and first law within 1e-12 relative, and the
        # gap on the log-x grid of the arc's closed forms
        plan = reference_plan
        rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
        model = TwoLevelResetModel(plan.baths)
        protocol = plan_to_protocol(plan)
        res = integrate(rho0, protocol, model)
        twin = integrate(rho0, _distinct(protocol), model)
        for name in ("t", "states", "u", "q_cum", "w_cum"):
            assert np.array_equal(getattr(res, name), getattr(twin, name)), name
        assert res.ledger == twin.ledger
        assert abs(res.ledger.heat_released - plan.total_heat) <= 1e-12 * abs(plan.total_heat)
        assert abs(res.ledger.first_law_residual) <= 1e-12 * max(1.0, abs(plan.total_heat))
        exact = np.concatenate([planner._log_x_rows(seg, plan.baths, 50)[1] for seg in plan.arcs])
        assert np.all(np.abs(res.u[:, 0] - exact) <= 1e-14 * np.abs(exact))

    def test_leaky_model(self, baths03):
        # the leak changes the trace by 3e-9 between occurrences of the cold piece,
        # so the trace ratio c is 1 - 3e-9: with c = 1 the states would be 1.3e-11
        # off, where the map stays within 1e-13 (2.8e-16 seen) of the step-by-step run
        model = _LeakyModel(baths03, 3)
        cold = ProtocolPiece(duration=0.002, u=lambda s: np.array([1.0 + 40.0 * s, 2.0 - 30.0 * s]), gamma_c=1.0, gamma_h=0.0)
        hot = ProtocolPiece(duration=0.001, u=np.array([1.5, 2.5]), gamma_c=0.0, gamma_h=1.0)
        protocol = Protocol(pieces=[cold, hot, cold, hot, cold], t0=1.7)
        rho0 = np.diag([0.6, 0.3, 0.1]).astype(complex)
        res = integrate(rho0, protocol, model)
        twin = integrate(rho0, _distinct(protocol), model)
        assert np.max(np.abs(res.states - twin.states)) <= 1e-13
        for name in ("q_cum", "w_cum"):
            assert np.max(np.abs(getattr(res, name) - getattr(twin, name))) <= 1e-11, name
        assert np.array_equal(res.t, twin.t) and np.array_equal(res.u, twin.u)

    def test_coherent_start_steps(self, baths03, rng):
        # a recurring piece with u is solved at every occurrence, with the bits of
        # the protocol of distinct pieces
        model = TwoLevelResetModel(baths03)
        cold = ProtocolPiece(duration=0.6, u=lambda s: np.array([1.0 + 0.5 * s]), gamma_c=1.0, gamma_h=0.0)
        hot = ProtocolPiece(duration=0.4, u=np.array([2.0]), gamma_c=0.0, gamma_h=1.0)
        protocol = Protocol(pieces=[cold, hot, cold, hot])
        rho0 = random_density(rng)
        res = integrate(rho0, protocol, model)
        twin = _assert_same_outcome(rho0, _distinct(protocol), model)
        for name in ("t", "states", "u", "gamma_c", "gamma_h", "q_cum", "w_cum"):
            assert np.array_equal(getattr(res, name), getattr(twin, name)), name
        assert res.ledger == twin.ledger

    def test_step_failure_in_first_occurrence(self, baths03):
        # the gap jumps to 1e100 halfway through the recurring piece: its first
        # solve fails there, and the error carries the last sample reached in it
        blow_up = _blow_up()
        hot = ProtocolPiece(duration=0.4, u=np.array([1.0]), gamma_c=0.0, gamma_h=1.0)
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        protocol = Protocol(pieces=[hot, blow_up, hot, blow_up], t0=1.7)
        kind, message, t = _outcome(integrate, rho0, protocol, TwoLevelResetModel(baths03))
        assert kind is IntegrationError and "integrator failed" in message
        assert t == float(np.linspace(2.1, 3.1, 50)[24])
        assert _outcome(integrate, rho0, _distinct(protocol), TwoLevelResetModel(baths03)) == (kind, message, t)

    def test_trace_drift_in_later_occurrence(self, baths03):
        # the leak of 1e-6 per unit time passes 1e-8 after 0.01 on the cold piece:
        # 0.006 into its first occurrence and 0.004 into its second
        model = _LeakyModel(baths03, 2)
        cold = ProtocolPiece(duration=0.006, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0)
        detached = ProtocolPiece(duration=0.5, u=np.array([2.0]), gamma_c=0.0, gamma_h=0.0)
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        protocol = Protocol(pieces=[cold, detached, cold])
        kind, _, t = _outcome(integrate, rho0, protocol, model)
        samples = np.linspace(0.506, 0.512, 50)
        assert kind is TraceDriftError and t == float(samples[np.searchsorted(samples, 0.510)])
        assert _outcome(integrate, rho0, _distinct(protocol), model) == _outcome(integrate, rho0, protocol, model)

    def test_repeated_samples_checked_per_occurrence(self, baths03):
        # at t = 1e8 the float spacing (1.5e-8) exceeds the piece's sample step
        # (2e-11): its first occurrence is solved, its second refused at its start
        short = ProtocolPiece(duration=1e-9, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0)
        long = ProtocolPiece(duration=1e8, u=np.array([1.0]), gamma_c=0.0, gamma_h=0.0)
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        with pytest.raises(IntegrationError, match="repeated sample times") as err:
            integrate(rho0, Protocol(pieces=[short, long, short]), TwoLevelResetModel(baths03))
        assert err.value.t == 1e-9 + 1e8

    def test_one_solve_per_distinct_arc(self, baths03, monkeypatch):
        # a count, not a clock: the worked plan makes one collocation solve per
        # distinct arc at any number of cycles, the same path evaluations at 200
        # cycles as at 2, and no DOP853 solve
        solves, evaluated = [], []
        solve_path = lindblad._solve_path
        monkeypatch.setattr(lindblad, "dop853", lambda *args: pytest.fail("a path piece went to DOP853"))

        def counting(piece, *args):
            solves.append(None)
            path = piece.path
            piece = dataclasses.replace(piece, path=lambda sigma: evaluated.append(sigma.size) or path(sigma))
            return solve_path(piece, *args)

        monkeypatch.setattr(lindblad, "_solve_path", counting)
        calls = {}
        for cycles in (2, 3, 20, 200):
            plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, cycles, baths03)
            rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
            solves.clear()
            evaluated.clear()
            res = integrate(rho0, plan_to_protocol(plan), TwoLevelResetModel(baths03))
            assert len(solves) == 4 and len(plan.arcs) == 2 * cycles + 2
            assert abs(res.ledger.heat_released - plan.total_heat) <= 1e-12 * abs(plan.total_heat)
            calls[cycles] = list(evaluated)
        assert calls[200] == calls[2]


def test_difference_fallback_late_in_a_protocol(baths03):
    # at t0 = 1e5 the float spacing (1.5e-11) exceeds the fallback's step 1e-12:
    # in global time t +- h rounded to t and du/dt was 0/0.  In local time it is
    # not: the work matches the run at t0 = 0 within the difference's rounding
    # error, eps |u| / (h |du/ds|) = 2e-7 per evaluation (9e-8 seen).  The
    # duration 2^-20 is a whole number of float spacings at 1e5, so that both
    # runs span the same interval.
    piece = ProtocolPiece(duration=2.0**-20, u=lambda s: np.array([1.0 + 1e3 * s]), gamma_c=1.0, gamma_h=0.0)
    rho0 = np.diag([0.8, 0.2]).astype(complex)
    model = TwoLevelResetModel(baths03)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        late = integrate(rho0, Protocol(pieces=[piece], t0=1e5), model)
    early = integrate(rho0, Protocol(pieces=[piece]), model)
    assert late.ledger.work_done == pytest.approx(early.ledger.work_done, rel=1e-6)


def test_piece_takes_u_or_path():
    # a path gives the controls, so a piece with both, or with neither, is refused
    path = _ladder_path(1.0, np.array([1.0]), np.array([0.5]))
    for u, p in ((lambda s: np.array([1.0 + s]), path), (None, None)):
        with pytest.raises(ValueError, match=r"a piece takes either u or path\(sigma\), not both or neither"):
            ProtocolPiece(duration=1.0, u=u, gamma_c=1.0, gamma_h=0.0, path=p)


def test_rates_checked_once_per_piece(baths03, monkeypatch):
    # a piece's rates are fixed, so integrate validates them with one ControlVector
    # per solve: once per distinct path piece, and once per occurrence of positive
    # duration of a piece with u, whose right-hand side checks only that u is finite
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 3, baths03)
    protocol = plan_to_protocol(plan)
    built = []

    class Spy(ControlVector):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(lindblad, "ControlVector", Spy)
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    integrate(rho0, protocol, TwoLevelResetModel(baths03))
    assert len(built) == len({id(piece) for piece in protocol.pieces}) == 4 < len(protocol.pieces)
    built.clear()
    hot = ProtocolPiece(duration=0.4, u=np.array([1.0]), gamma_c=0.0, gamma_h=1.0)
    zero = ProtocolPiece(duration=0.0, u=np.array([2.0]), gamma_c=1.0, gamma_h=0.0)
    integrate(rho0, Protocol(pieces=[hot, zero, hot]), TwoLevelResetModel(baths03))
    assert len(built) == 2


def test_controls_converted_once_per_rhs(baths03, monkeypatch):
    # the right-hand side converts u once for the energies and both baths'
    # Gibbs populations; hamiltonian at the piece's two ends adds one each
    model = TwoLevelResetModel(baths03)
    piece = ProtocolPiece(duration=2.0, u=lambda t: np.array([1.0 + 0.5 * t]), gamma_c=0.6, gamma_h=0.4)
    controls, rhs_calls = [], []
    convert, generator = DiagonalResetModel._controls, lindblad._generator

    def counting_controls(self, u):
        controls.append(None)
        return convert(self, u)

    def counting_generator(*args):
        rhs_calls.append(None)
        return generator(*args)

    monkeypatch.setattr(DiagonalResetModel, "_controls", counting_controls)
    monkeypatch.setattr(lindblad, "_generator", counting_generator)
    integrate(np.diag([0.8, 0.2]).astype(complex), Protocol(pieces=[piece]), model)
    assert len(rhs_calls) > 50
    assert len(controls) <= len(rhs_calls) + 2


def test_arc_inversion_gets_float_times(baths03):
    # the right-hand side takes float(t): a callable u(s), such as an arc inversion,
    # runs slower on np.float64 arithmetic, with the same bits
    s_types = []

    def u(s):
        s_types.append(type(s))
        return np.array([1.0 + 0.5 * s])

    piece = ProtocolPiece(duration=2.0, u=u, gamma_c=1.0, gamma_h=0.0)
    integrate(np.diag([0.8, 0.2]).astype(complex), Protocol(pieces=[piece], t0=1.7), TwoLevelResetModel(baths03))
    assert s_types and set(s_types) == {float}


def test_samples_follow_the_closed_forms(reference_plan):
    # at every sample, p and q_cum match the arc's closed forms (1 - mu x)/(1 + x^2)
    # and the xi heat so far within 1e-12 relative (2.9e-15 and 1.4e-15 seen): the
    # samples are step ends, with no interpolant between them
    plan = reference_plan
    if not plan.arcs:
        return
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    res = integrate(rho0, plan_to_protocol(plan), TwoLevelResetModel(plan.baths))
    blocks = np.split(np.arange(res.t.size), len(plan.arcs))
    heat_before = 0.0
    for seg, rows in zip(plan.arcs, blocks):
        beta = plan.baths.beta(seg.branch.kind)
        mu_val = planner._mu_on(seg.branch, seg.K, plan.baths)
        for k in rows:
            x = math.exp(0.5 * beta * float(res.u[k, 0]))
            p = (1.0 - mu_val * x) / (1.0 + x * x)
            q = heat_before + (two_level.xi(x, mu_val) - two_level.xi(seg.x0, mu_val)) / beta
            assert abs(res.states[k, 1, 1].real - p) <= 1e-12 * p
            assert abs(res.q_cum[k] - q) <= 1e-12 * max(abs(q), abs(seg.heat))
        heat_before += seg.heat


def test_gauss_collocation_constants():
    # the nodes are the roots of P6 on [0, 1] and the weights its Gauss weights, to
    # 1e-16; the rule integrates degree 11 exactly, and the stage matrix degree 5
    # from 0 to each node, to rounding
    c, b, a = lindblad._NODES, lindblad._WEIGHTS, lindblad._STAGES
    with mp.workdps(40):
        for node, weight in zip(c.tolist(), b.tolist()):
            root = mp.findroot(lambda x: mp.legendre(6, x), 2 * mp.mpf(node) - 1)
            assert abs(mp.mpf(node) - (root + 1) / 2) <= 1e-16
            want = 1 / ((1 - root**2) * mp.diff(lambda x: mp.legendre(6, x), root) ** 2)
            assert abs(mp.mpf(weight) - want) <= 1e-16
    assert max(abs(b @ c ** (k - 1) - 1.0 / k) for k in range(1, 13)) <= 2e-16
    assert max(np.max(np.abs(a @ c ** (k - 1) - c**k / k)) for k in range(1, 7)) <= 4e-16


def test_chunks_do_not_change_the_map(monkeypatch, rng):
    # a piece of gamma T = 40 in chunks of 7 steps: the same states and ledgers
    # as in one chunk, to rounding (2.2e-16 seen), coherences included
    model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.25), 3)
    a, b = rng.uniform(0.5, 2.5, 2), rng.uniform(-0.5, 0.5, 2)
    piece = ProtocolPiece(duration=40.0, u=None, gamma_c=1.0, gamma_h=0.0, path=_ladder_path(40.0, a, b))
    rho0 = random_density(rng, 3)
    whole = integrate(rho0, Protocol(pieces=[piece, piece]), model)
    monkeypatch.setattr(lindblad, "_CHUNK", 7)
    chunked = integrate(rho0, Protocol(pieces=[piece, piece]), model)
    for name in ("states", "q_cum", "w_cum"):
        assert np.max(np.abs(getattr(whole, name) - getattr(chunked, name))) <= 1e-14, name


def test_many_cycles_keep_the_first_law(baths03):
    # each mapped occurrence is one product with stored coefficients, exact to
    # rounding: at 1024 cycles the first law holds within 1e-10 max(1, |Q|)
    # (4.8e-15 seen; 2.6e-9 when each occurrence copied its solve's error)
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 1024, baths03)
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    res = integrate(rho0, plan_to_protocol(plan), TwoLevelResetModel(baths03))
    heat = res.ledger.heat_released
    assert abs(res.ledger.first_law_residual) <= 1e-10 * max(1.0, abs(heat))
    assert abs(heat - plan.total_heat) <= 1e-12 * abs(plan.total_heat)


# integrate on the worked plan (z = 0.3, K = -0.05, endpoints (0.07, 1, 0.26, 6)),
# each arc a distinct piece object: the sha256 of the bytes of t, states, u, q_cum
# and w_cum, and the ledger's values and types (what its repr shows), each arc
# solved by collocation in sigma
WORKED_PLAN_BITS = {
    0: (
        {
            "t": "c94c9474f16a4d70cc07e82d43b1545d752ade046a83c11f387e1041a572106a",
            "states": "a61b18dd3044b3d43f7e00461fdd9a2ef712760a7586226d30eb619bc4fb7e0c",
            "u": "0661849a6918a153b18cb3012fa21601b82795e9e1f2fae22aee82da06606ae1",
            "q_cum": "fab5a3b974a0ee6154a25e98de12ee49aaaa230e55b88b990399cfa9fb29bd32",
            "w_cum": "d874822291e9a97609320f03f81e508c5300064170ba84470388d0ecbbd27fb9",
        },
        (-1.037543714874745, 0.6128515050608229, 0.24060438473808426, 0.665296594552006),
    ),
    3: (
        {
            "t": "cccfb7605ee0e1619d9173ad413562481a11fbcd68bc312e754bb09f4939df7f",
            "states": "bd78621d210c20240ab051112d646642535f5b0ca10275980c58d814be0325a9",
            "u": "935dae27d7cf7f24dc574187e60ed12c3f150c7c461d62bd00b34c8813263193",
            "q_cum": "5273b6c9f87e8938dc6796535ab182e694c77ef4420dcbcd2c7b7b7de6ca8d44",
            "w_cum": "ab2048ca8cf715cd05554f2e932184552072a7b232c52523f209df8689b493fe",
        },
        (-2.6302272580771415, 2.2055350482632208, 0.24060438473808426, 0.665296594552006),
    ),
}


# the same on plan_to_protocol's pieces, one object per distinct arc, solved once:
# every occurrence is the same map, so the bits are those of distinct pieces
WORKED_PLAN_MAPPED_BITS = {3: WORKED_PLAN_BITS[3]}


def _worked_plan_bits(baths, cycles, distinct):
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, cycles, baths)
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    protocol = plan_to_protocol(plan)
    res = integrate(rho0, _distinct(protocol) if distinct else protocol, TwoLevelResetModel(baths))
    names = ("t", "states", "u", "q_cum", "w_cum")
    got = {name: hashlib.sha256(np.ascontiguousarray(getattr(res, name)).tobytes()).hexdigest() for name in names}
    values = dataclasses.astuple(res.ledger)
    assert [type(v) for v in values] == [np.float64, np.float64, float, float]
    return got, values


@pytest.mark.parametrize("cycles", sorted(WORKED_PLAN_BITS))
def test_worked_plan_bits(baths03, cycles):
    assert _worked_plan_bits(baths03, cycles, distinct=True) == WORKED_PLAN_BITS[cycles]


@pytest.mark.parametrize("cycles", sorted(WORKED_PLAN_MAPPED_BITS))
def test_worked_plan_mapped_bits(baths03, cycles):
    assert _worked_plan_bits(baths03, cycles, distinct=False) == WORKED_PLAN_MAPPED_BITS[cycles]


def test_sum_adds_left_to_right():
    # sum() gives 1.0000000000000002 here from Python 3.12 on (compensated summation)
    assert lindblad._sum([1.0, 1e-16, 1e-16]) == 1.0
    assert lindblad._sum([-0.0]) == 0.0 and math.copysign(1.0, lindblad._sum([-0.0])) == 1.0
    # an empty plan's totals stay the int 0, which its JSON writes as 0
    assert lindblad._sum([]) == 0 and type(lindblad._sum([])) is int
