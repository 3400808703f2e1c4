import dataclasses
import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import linregress

from pmp_thermo import lindblad, planner
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
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.3), dim)
        u, rho, _ = self.stack(rng, dim)
        for gamma_c, gamma_h in ((1.0, 0.0), (0.0, 2.0), (0.6, 0.4)):
            out = lindblad_rhs(rho, ControlVector(u=u, gamma_c=gamma_c, gamma_h=gamma_h), model)
            for j in range(len(u)):
                want = lindblad_rhs(rho[j], ControlVector(u=u[j], gamma_c=gamma_c, gamma_h=gamma_h), model)
                assert np.array_equal(out[j], want)

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
    tr = np.asarray(lindblad._trace(rho)).T[..., np.newaxis, np.newaxis]
    return model.equilibrium(u, kind) * tr - rho


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
        cases = [(rho[j], u[j]) for j in range(len(u))]  # the degenerate and the 700 rows among them
        cases += [(rho, u), (rho.reshape(4, 8, dim, dim), u.reshape(4, 8, dim - 1))]
        for r, v in cases:
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
            assert np.array_equal(reset(rho, u, kind), _reference_dissipator(rho, u, model, kind))
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


def _reference_integrate(rho0, protocol, model, samples_per_piece=50):
    """integrate as it was before it built its result from the stacked solution:
    per-sample unpacking, a per-sample trace check and seven per-piece lists.
    It solves every piece, recurring or not, and asks each piece's callables
    at the time since its start, t - t_lo.  A piece with dudt carries its u
    after Q and W, and its output u and end gap come from the solution."""
    dim = model.dim
    m = 2 * dim * dim + 2

    def pack(rho, q, w):
        flat = rho.reshape(-1)
        return np.concatenate([flat.real, flat.imag, [q, w]])

    def unpack(y):
        n = dim * dim
        return (y[:n] + 1j * y[n : 2 * n]).reshape(dim, dim), y[2 * n], y[2 * n + 1]

    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0)
    if not protocol.pieces:
        raise ValueError("protocol has no pieces")
    ts, states, us, gcs, ghs, qs, ws = [], [], [], [], [], [], []
    t_lo = protocol.t0
    rho = rho0
    q_acc, w_acc = 0.0, 0.0
    h0 = model.hamiltonian(protocol.pieces[0].u_at(0.0))
    energy_initial = float(np.trace(rho0 @ h0).real)
    u_end = None
    for piece in protocol.pieces:
        if piece.duration < 0.0:
            raise ValueError(f"negative piece duration {piece.duration}")
        if u_end is not None:
            h_prev = model.hamiltonian(u_end)
            h_next = model.hamiltonian(piece.u_at(0.0))
            w_acc += -float(np.trace(rho @ (h_next - h_prev)).real)
        if piece.duration == 0.0:
            u_end = piece.u_at(0.0)
            continue
        t_hi = t_lo + piece.duration
        carried = piece.dudt is not None
        control_of = lambda t, piece=piece, t_lo=t_lo: ControlVector(
            u=piece.u_at(t - t_lo), gamma_c=piece.gamma_c, gamma_h=piece.gamma_h
        )

        def rhs(t, y, piece=piece, t_lo=t_lo, carried=carried):
            rho_t, _, _ = unpack(y)
            u_t = y[m:] if carried else piece.u_at(t - t_lo)
            ctrl = ControlVector(u=u_t, gamma_c=piece.gamma_c, gamma_h=piece.gamma_h)
            ldot = lindblad_rhs(rho_t, ctrl, model)
            dq = -lindblad._trace(model.hamiltonian(u_t) @ ldot).real
            dh = np.eye(dim, dtype=complex)[1:, :, None] * np.eye(dim)  # dH/du_k projects on level k + 1
            dudt = np.array(piece.dudt(t - t_lo, u_t), dtype=float, ndmin=1) if carried else piece.dudt_at(t - t_lo)
            dw = -sum(v * lindblad._trace(rho_t @ dh[k]) for k, v in enumerate(dudt.tolist())).real
            flat = ldot.reshape(-1)
            return np.concatenate([flat.real, flat.imag, [dq, dw], dudt if carried else []])

        start = np.concatenate([pack(rho, q_acc, w_acc), piece.u_at(0.0) if carried else []])
        sol = solve_ivp(
            rhs, (t_lo, t_hi), start, method="DOP853", rtol=5e-10 if carried else 1e-9, atol=1e-12,
            t_eval=np.linspace(t_lo, t_hi, max(samples_per_piece, 2)), dense_output=False,
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
        us.append(sol.y[m:].T if carried else np.array([control_of(t).u for t in sol.t]))
        gcs.append(np.full(sol.t.size, piece.gamma_c))
        ghs.append(np.full(sol.t.size, piece.gamma_h))
        qs.append(sol.y[2 * dim * dim, :].copy())
        ws.append(sol.y[2 * dim * dim + 1, :].copy())
        rho, q_acc, w_acc = unpack(sol.y[:, -1])
        u_end = us[-1][-1] if carried else piece.u_at(t_hi - t_lo)
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
    """integrate gives the bits of _reference_integrate, and raises what it raises."""

    def test_plans(self, reference_plan):
        plan = reference_plan
        rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
        _assert_same_outcome(rho0, _distinct(plan_to_protocol(plan)), TwoLevelResetModel(plan.baths))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("t0", [0.0, 1.7])
    def test_piecewise_protocols(self, rng, dim, t0):
        model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.25), dim)
        a = rng.uniform(0.5, 2.5, dim - 1)
        b = rng.uniform(-0.5, 0.5, dim - 1)
        constant = ProtocolPiece(duration=0.7, u=a, gamma_c=1.0, gamma_h=0.0)
        zero = ProtocolPiece(duration=0.0, u=a + 1.0, gamma_c=0.0, gamma_h=1.0)
        no_dudt = ProtocolPiece(duration=0.9, u=lambda t: a + b * math.sin(3.0 * t), gamma_c=0.0, gamma_h=1.0)
        exact = ProtocolPiece(duration=0.5, u=a, gamma_c=0.4, gamma_h=0.6, dudt=lambda s, u: 0.1 * a)
        rho0 = random_density(rng, dim)
        for pieces, samples in (
            ([constant, zero, no_dudt, exact, zero], 50),
            ([zero, no_dudt, zero, zero, constant], 7),
            ([exact], 2),
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
        # a control velocity that jumps by 1e100 halfway: the step size collapses there
        blow_up = ProtocolPiece(
            duration=1.0, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0, dudt=lambda s, u: np.array([1e100 if s > 0.5 else 1.0])
        )
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
        blow_up = ProtocolPiece(
            duration=1.0, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0, dudt=lambda s, u: np.array([1e100 if s > 0.5 else 1.0])
        )
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        with pytest.raises(IntegrationError) as err:
            integrate(rho0, Protocol(pieces=[blow_up]), TwoLevelResetModel(baths03))
        assert type(err.value) is IntegrationError
        assert err.value.t == float(np.linspace(0.0, 1.0, 50)[24])


class TestRecurringPieces:
    """A piece object that occurs more than once is solved once, from its first
    diagonal start, and its later diagonal starts are mapped from that solve."""

    @pytest.mark.parametrize(
        "reference_plan", [f"z={z}-cycles={n}" for z in (0.2, 0.3, 0.5, 0.9) for n in (2, 3)], indirect=True
    )
    def test_plans_with_cycles(self, reference_plan):
        # heat within 1e-9 relative of the closed form (1.1e-12 seen), states within
        # 1e-8 of the step-by-step run (6.8e-10 seen), first law within 1e-10 (3.0e-11 seen),
        # and the integrated gap of either run within 1e-9 relative of the arc's exact
        # gap (7.1e-11 seen)
        plan = reference_plan
        rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
        model = TwoLevelResetModel(plan.baths)
        protocol = plan_to_protocol(plan)
        res = integrate(rho0, protocol, model)
        twin = integrate(rho0, _distinct(protocol), model)
        assert abs(res.ledger.heat_released - plan.total_heat) <= 1e-9 * abs(plan.total_heat)
        assert np.max(np.abs(res.states - twin.states)) <= 1e-8
        assert abs(res.ledger.first_law_residual) <= 1e-10
        assert np.array_equal(res.t, twin.t)
        exact = np.concatenate([planner._arc_rows(seg, plan.baths, 50)[1] for seg in plan.arcs])
        for u in (res.u, twin.u):
            assert np.all(np.abs(u[:, 0] - exact) <= 1e-9 * np.abs(exact))
        for name in ("q_cum", "w_cum"):
            assert np.max(np.abs(getattr(res, name) - getattr(twin, name))) <= 1e-8, name

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
        # a start with coherences is not mapped: every occurrence is solved, with
        # the bits of the protocol of distinct pieces
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
        # the control velocity jumps by 1e100 halfway through the recurring piece: its
        # one solve fails there, and the error carries the last sample reached in it
        blow_up = ProtocolPiece(
            duration=1.0, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0, dudt=lambda s, u: np.array([1e100 if s > 0.5 else 1.0])
        )
        hot = ProtocolPiece(duration=0.4, u=np.array([1.0]), gamma_c=0.0, gamma_h=1.0)
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        protocol = Protocol(pieces=[hot, blow_up, hot, blow_up], t0=1.7)
        kind, message, t = _outcome(integrate, rho0, protocol, TwoLevelResetModel(baths03))
        assert kind is IntegrationError and "integrator failed" in message
        assert t == float(np.linspace(2.1, 3.1, 50)[24])
        assert _outcome(integrate, rho0, _distinct(protocol), TwoLevelResetModel(baths03)) == (kind, message, t)

    def test_trace_drift_in_later_occurrence(self, baths03):
        # the leak of 1e-6 per unit time passes 1e-8 after 0.01 on the cold piece:
        # 0.006 into its first occurrence and 0.004 into its second, which is mapped
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
        # a count, not a clock: the worked plan makes one solve per distinct arc
        # at any number of cycles, and 200 cycles cost at most 1.1 times the
        # right-hand sides of 2
        solves, rhs_calls = [], []
        dop853 = lindblad.dop853

        def counting(fun, *args):
            solves.append(None)

            def counted(t, y):
                rhs_calls.append(None)
                return fun(t, y)

            return dop853(counted, *args)

        monkeypatch.setattr(lindblad, "dop853", counting)
        calls = {}
        for cycles in (2, 3, 20, 200):
            plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, cycles, baths03)
            rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
            solves.clear()
            rhs_calls.clear()
            res = integrate(rho0, plan_to_protocol(plan), TwoLevelResetModel(baths03))
            assert len(solves) == 4 and len(plan.arcs) == 2 * cycles + 2
            assert abs(res.ledger.heat_released - plan.total_heat) <= 1e-9 * abs(plan.total_heat)
            calls[cycles] = len(rhs_calls)
        assert calls[200] <= 1.1 * calls[2]


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


def test_callable_u_with_dudt_is_refused():
    # dudt(s, u) integrates u from its start value: a callable u(s) beside it,
    # the former contract, is refused rather than misread
    with pytest.raises(ValueError, match=r"dudt\(s, u\) takes u as its constant start value, not a callable u\(s\)"):
        ProtocolPiece(duration=1.0, u=lambda s: np.array([1.0 + s]), gamma_c=1.0, gamma_h=0.0, dudt=lambda s, u: 1.0)


def test_rates_checked_once_per_piece(baths03, monkeypatch):
    # a piece's rates are fixed, so integrate validates them with one ControlVector
    # per piece of positive duration; the right-hand side checks only that u is
    # finite, and so does one check of each piece's output samples
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 3, baths03)
    protocol = plan_to_protocol(plan)
    built = []
    rhs_calls = []

    class Spy(ControlVector):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    generator = lindblad._generator

    def counting_generator(*args):
        rhs_calls.append(None)
        return generator(*args)

    monkeypatch.setattr(lindblad, "ControlVector", Spy)
    monkeypatch.setattr(lindblad, "_generator", counting_generator)
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    res = integrate(rho0, protocol, TwoLevelResetModel(baths03))
    assert len(built) == sum(piece.duration > 0.0 for piece in protocol.pieces) > 0
    assert len(rhs_calls) > res.t.size


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
    # the right-hand side takes float(t): an arc's velocity, which stands in
    # for the arc inversion, runs slower on np.float64 arithmetic, with the same bits
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 3, baths03)
    protocol = plan_to_protocol(plan)
    s_types = []
    for piece in {id(p): p for p in protocol.pieces}.values():

        def spy(s, u, dudt=piece.dudt):
            s_types.append(type(s))
            return dudt(s, u)

        piece.dudt = spy
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    integrate(rho0, protocol, TwoLevelResetModel(baths03))
    assert s_types and set(s_types) == {float}


# integrate on the worked plan (z = 0.3, K = -0.05, endpoints (0.07, 1, 0.26, 6)),
# each arc a distinct piece object: the sha256 of the bytes of t, states, u, q_cum
# and w_cum, and the ledger's values and types (what its repr shows), with each
# arc's gap carried as a solution component
WORKED_PLAN_BITS = {
    0: (
        {
            "t": "9d15a13f02b6380f9812396318cb8a79b6fbc1091afe7512cdfa3bbe807df43e",
            "states": "36128c12924c6e266e9b99386f4cf31dd38437b8c0de598920380b1712f5af57",
            "u": "63407f797c63dbcf42afe84709306f0b5cd9a8d8dc42ee18e2291510e8b5c0f0",
            "q_cum": "737402ab15c5b423e9f6b6574db8aeb7e0112e178269e965237242b3868fde62",
            "w_cum": "55204ca876b63c6535a8acac57b2f596784282fc36bf6c5eb9ff470bcacd20a4",
        },
        (-1.0375437148768143, 0.6128515050604488, 0.24060438473808426, 0.6652965945563994),
    ),
    3: (
        {
            "t": "fa9cd883676fb5af595343e92044be8412c8ba99ad5b0d1be15ac2423a1bf611",
            "states": "91ccf76d2731250b2f87e15dfc29e250b7fb7d3a98cf7192933d784f9dc07eac",
            "u": "22182f4628c0b3e8904a56ff431d5293372419dfeeff78da1e8c5d158e199194",
            "q_cum": "4a0c81b438a1df4bdd679baf5fea7c1077904e6825e59eca4c4bbb66289808c0",
            "w_cum": "be766b6abe43a89e5844574b150fa02c1c2942c1f5566e5a5a3a91a2eeec3816",
        },
        (-2.6302272580681265, 2.2055350482717637, 0.24060438473808426, 0.6652965945639361),
    ),
}


# the same on plan_to_protocol's pieces, one object per distinct arc: each
# recurring arc's later occurrences mapped from its first
WORKED_PLAN_MAPPED_BITS = {
    3: (
        {
            "t": "fa9cd883676fb5af595343e92044be8412c8ba99ad5b0d1be15ac2423a1bf611",
            "states": "0d472eccd0bd2085518b97c77fb5fbc72ab633a972d076c0cb3708180404830e",
            "u": "3cfb938bf9356058de1f31c7a0589410b6f5c629884366110a57ab8571e64228",
            "q_cum": "511b1e0b477deac4131c21a62cee03ed4c2b642e973f9895acee7709d26d5edc",
            "w_cum": "96e781de7a1e3879469fb9e32b081626338a29828ed98088fe3080e890ccf9f4",
        },
        (-2.6302272580742283, 2.205535048265947, 0.24060438473808426, 0.6652965945639309),
    ),
}


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
