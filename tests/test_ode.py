"""The numpy DOP853 port against scipy.integrate.solve_ivp, bit for bit.

Both solvers run with integrate's tolerances, and each comparison checks the
sample times and states (dtype, shape and bytes), success or failure with
its message or error, and every point at which the right-hand side is
called, as (t, y.tobytes()).  Most cases run through `integrate`, with its
call of the port replaced by one that runs both and compares them.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pmp_thermo import _ode, lindblad
from pmp_thermo.lindblad import (
    DiagonalResetModel,
    IntegrationError,
    Protocol,
    ProtocolPiece,
    TwoLevelResetModel,
    integrate,
)
from pmp_thermo.planner import plan_to_protocol
from pmp_thermo.two_level import Baths


def _scipy_dop853(fun, t0, t1, y0, t_eval, rtol, atol):
    sol = solve_ivp(fun, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval)
    # with no sample reached, solve_ivp gives empty lists
    return np.asarray(sol.t), np.asarray(sol.y).reshape(len(y0), -1), None if sol.success else sol.message


def _outcome(solver, fun, *args):
    """The solver's (t, y, message) or its error, and every right-hand side call."""
    calls = []

    def traced(t, y):
        calls.append((float(t).hex(), y.tobytes()))
        return fun(t, y)

    try:
        return solver(traced, *args), calls
    except ValueError as exc:
        return (type(exc), str(exc)), calls


def assert_same(fun, *args):
    """The port's outcome, after checking that scipy's is the same to the bit."""
    ours, ours_calls = _outcome(_ode.dop853, fun, *args)
    theirs, their_calls = _outcome(_scipy_dop853, fun, *args)
    assert ours_calls == their_calls
    if isinstance(theirs[0], type):
        assert ours == theirs
        return ours, ours_calls
    for a, b in zip(ours[:2], theirs[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert ours[2] == theirs[2]
    return ours, ours_calls


@pytest.fixture
def compared(monkeypatch):
    """Every solve integrate makes, run by both solvers and compared; the
    fixture lists each one's (result or error, right-hand side calls)."""
    solves = []

    def both(fun, *args):
        solves.append(assert_same(fun, *args))
        if isinstance(solves[-1][0][0], type):
            kind, message = solves[-1][0]
            raise kind(message)
        return solves[-1][0]

    monkeypatch.setattr(lindblad, "dop853", both)
    return solves


@pytest.fixture
def error_norms(monkeypatch):
    """Every error norm the port's step control sees."""
    seen = []
    error_norm = _ode._error_norm

    def recorded(*args):
        seen.append(error_norm(*args))
        return seen[-1]

    monkeypatch.setattr(_ode, "_error_norm", recorded)
    return seen


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _ramps(plan):
    """The plan's arcs as pieces with a callable u(s): each arc's rates and
    duration, and a gap ramped linearly between its end gaps."""
    pieces = []
    for seg in plan.arcs:
        beta, kind = plan.baths.beta(seg.branch.kind), seg.branch.kind
        u0, u1 = (2.0 / beta) * math.log(seg.x0), (2.0 / beta) * math.log(seg.x1)
        u = lambda s, u0=u0, u1=u1, d=seg.duration: np.array([u0 + (u1 - u0) * (s / d)])
        pieces.append(ProtocolPiece(seg.duration, u, plan.baths.gamma * (kind == "cold"), plan.baths.gamma * (kind == "hot")))
    return Protocol(pieces=pieces)


def test_plans(compared, reference_plan):
    # the plan's arcs as gap ramps, pieces with a callable u(s): integrate solves every arc by DOP853
    plan = reference_plan
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    protocol = _ramps(plan)
    if protocol.pieces:
        integrate(rho0, protocol, TwoLevelResetModel(plan.baths))
    assert len(compared) == sum(piece.duration > 0.0 for piece in protocol.pieces)


@pytest.mark.parametrize(
    "reference_plan", [f"z={z}-cycles={n}" for z in (0.2, 0.3, 0.5, 0.9) for n in (2, 3)], indirect=True
)
def test_plans_mapped(compared, reference_plan):
    # plan_to_protocol's path pieces are solved by collocation and mapped: no DOP853 solve
    plan = reference_plan
    rho0 = np.diag([1.0 - plan.p_in, plan.p_in]).astype(complex)
    protocol = plan_to_protocol(plan)
    res = integrate(rho0, protocol, TwoLevelResetModel(plan.baths))
    assert compared == [] and res.t.size == 50 * len(protocol.pieces)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("samples", [2, 7, 50])
def test_ladder_pieces(compared, rng, dim, samples):
    model = DiagonalResetModel(Baths(beta_c=1.0, beta_h=0.25), dim)
    a = rng.uniform(0.5, 2.5, dim - 1)
    b = rng.uniform(-0.5, 0.5, dim - 1)
    pieces = [
        ProtocolPiece(duration=0.7, u=a, gamma_c=1.0, gamma_h=0.0),
        ProtocolPiece(duration=0.9, u=lambda t: a + b * math.sin(3.0 * t), gamma_c=0.0, gamma_h=1.0),
        ProtocolPiece(duration=0.5, u=lambda s: a + 0.1 * a * s, gamma_c=0.4, gamma_h=0.6),
    ]
    integrate(_random_density(rng, dim), Protocol(pieces=pieces, t0=1.7), model, samples_per_piece=samples)
    assert len(compared) == 3
    for (t, y, message), _ in compared:
        assert message is None and t.size == samples == y.shape[1]


def test_short_piece_clamps_the_first_step(compared, baths03):
    # the first trial step, about 0.01 |y| / |y'|, is longer than the piece: it is
    # cut to the piece, so the initial-step probe evaluates at the piece's end
    piece = ProtocolPiece(duration=1e-4, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0)
    integrate(np.diag([0.8, 0.2]).astype(complex), Protocol(pieces=[piece], t0=1.7), TwoLevelResetModel(baths03))
    (_, calls), = compared
    assert calls[1][0] == (1.7 + 1e-4).hex()


def test_gibbs_state_has_zero_error(compared, error_norms, baths03):
    # the cold Gibbs state under its bath, with populations that sum to 1 exactly,
    # does not move: every stage is zero, and so is the error
    model = DiagonalResetModel(baths03, 3)
    piece = ProtocolPiece(duration=2.0, u=np.array([0.5, 1.5]), gamma_c=1.0, gamma_h=0.0)
    rho0 = model.equilibrium(piece.u, "cold")
    res = integrate(rho0, Protocol(pieces=[piece]), model)
    assert error_norms and set(error_norms) == {0.0}
    assert np.array_equal(res.final_state, rho0)


def test_rejected_steps(compared, error_norms, baths03):
    # a gap that jumps by 4 within 0.002: steps across the jump are rejected and retried shorter
    piece = ProtocolPiece(duration=2.0, u=lambda t: np.array([3.0 + 2.0 * math.tanh(1e3 * (t - 1.0))]),
                          gamma_c=1.0, gamma_h=0.0)
    integrate(np.diag([0.8, 0.2]).astype(complex), Protocol(pieces=[piece]), TwoLevelResetModel(baths03))
    rejected = [i for i, e in enumerate(error_norms) if e >= 1.0]
    assert rejected and compared[0][0][2] is None
    # some rejection is followed by an accepted step that could have grown the step size
    assert any(error_norms[i + 1] < (1.0 / 0.9) ** -8 for i in rejected if i + 1 < len(error_norms))


def test_step_size_collapse(compared, baths03):
    # a gap that jumps to 1e100 halfway: the step size collapses there
    piece = ProtocolPiece(duration=1.0, u=lambda s: np.array([1e100 if s > 0.5 else 1.0]), gamma_c=1.0, gamma_h=0.0)
    with pytest.raises(lindblad.IntegrationError, match=_ode.TOO_SMALL_STEP):
        integrate(np.diag([0.8, 0.2]).astype(complex), Protocol(pieces=[piece]), TwoLevelResetModel(baths03))
    (t, y, message), _ = compared[0]
    assert message == _ode.TOO_SMALL_STEP and t.size == 25 == y.shape[1]


def test_empty_span():
    # 1e17 + 1 == 1e17: one right-hand side, no step and no sample
    (t, y, message), calls = assert_same(lambda t, y: -y, 1e17, 1e17 + 1.0, np.ones(3), np.full(5, 1e17),
                                         lindblad._RTOL, lindblad._ATOL)
    assert t.shape == (0,) and y.shape == (3, 0) and message is None and len(calls) == 1


def test_repeated_samples():
    # a span a few floats long has repeated samples, which solve_ivp refuses
    t_eval = np.linspace(1.7, 1.7 + 1e-15, 50)
    (kind, message), calls = assert_same(lambda t, y: -y, 1.7, 1.7 + 1e-15, np.ones(3), t_eval,
                                         lindblad._RTOL, lindblad._ATOL)
    assert kind is ValueError and "not properly sorted" in message and not calls


@pytest.mark.parametrize("t0, duration", [(1.7, 1e-15), (1e17, 1.0)])
def test_piece_without_distinct_samples(compared, baths03, t0, duration):
    # 1.7 + 1e-15 is a few floats on, and 1e17 + 1.0 == 1e17: integrate
    # refuses such a piece at its start, before any solve
    piece = ProtocolPiece(duration=duration, u=np.array([1.0]), gamma_c=1.0, gamma_h=0.0)
    with pytest.raises(IntegrationError, match="repeated sample times") as err:
        integrate(np.diag([0.8, 0.2]).astype(complex), Protocol(pieces=[piece], t0=t0), TwoLevelResetModel(baths03))
    assert err.value.t == t0 and not compared


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_start(bad):
    (kind, message), calls = assert_same(lambda t, y: -y, 0.0, 1.0, np.array([1.0, bad]), np.linspace(0.0, 1.0, 5),
                                          lindblad._RTOL, lindblad._ATOL)
    assert kind is ValueError and "must be finite" in message and not calls


def test_oscillator():
    # a stiff-ish oscillator at samples not on the steps, from a negative start
    (t, y, message), calls = assert_same(lambda t, y: np.array([y[1], -50.0 * y[0]]), -3.0, 7.0, np.array([1.0, 0.0]),
                                         np.linspace(-3.0, 7.0, 13), lindblad._RTOL, lindblad._ATOL)
    assert message is None and len(calls) > 1000
    assert np.allclose(y[0], np.cos(math.sqrt(50.0) * (t + 3.0)), atol=1e-6)
