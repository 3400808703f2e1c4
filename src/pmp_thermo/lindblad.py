"""Finite-dimensional GKSL forward simulator with thermal reset dissipators.

Dynamics: drho/dt = -i[H_u, rho] + gamma_c * D_c[rho] + gamma_h * D_h[rho],
with D_b[rho] = eta_b(u) tr(rho) - rho the single-bath reset map toward the
instantaneous Gibbs state.  Heat and work are accumulated as extra ODE
components so their quadrature rides on the same adaptive grid as the state,
keeping first-law closure at integrator order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ._ode import dop853
from .two_level import Baths

__all__ = [
    "ControlVector",
    "ThermoLedger",
    "TwoLevelResetModel",
    "DiagonalResetModel",
    "ProtocolPiece",
    "Protocol",
    "IntegrationResult",
    "IntegrationError",
    "TraceDriftError",
    "check_density_matrix",
    "lindblad_rhs",
    "integrate",
]

_TRACE_DRIFT_LIMIT = 1e-8
_RTOL = 1e-9
# For a piece that carries u, whose stage values feed the rates of rho and Q: at _RTOL,
# two solves of one plan differed by 1.5e-8 in sampled heat, at half of it by 4.9e-9
_CARRIED_RTOL = _RTOL / 2
_ATOL = 1e-12


class IntegrationError(RuntimeError):
    """Adaptive integration failed.

    `t` is the last output sample the integrator reached, not the time at
    which it failed: the piece's start when it reached none.
    """

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t})")
        self.t = t


class TraceDriftError(IntegrationError):
    """Trace of the state drifted beyond the allowed bound."""


def _check_finite(u: np.ndarray) -> None:
    """Raise ValueError unless every entry of the float array u is finite; for
    a stack (..., n_controls), the message names the first vector that is not."""
    if not all(map(math.isfinite, u.ravel().tolist())):
        bad = next(v for v in u.reshape(-1, u.shape[-1]) if not all(map(math.isfinite, v.tolist())))
        raise ValueError(f"non-finite control vector {bad}")


@dataclass(frozen=True)
class ControlVector:
    """Instantaneous controls: Hamiltonian parameters and the two damping rates.

    u is one control vector, (n_controls,).  Construction checks that u is
    one finite vector and the rates finite and non-negative.  `integrate` builds one per
    occurrence of a piece, for its rates; its right-hand side checks and
    converts u once each, with the same message, so that it does not pay for
    a construction per evaluation.
    """

    u: np.ndarray
    gamma_c: float
    gamma_h: float

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        object.__setattr__(self, "u", u)
        if u.ndim != 1:
            raise ValueError(f"expected one control vector, got controls of shape {u.shape}")
        _check_finite(u)
        if self.gamma_c < 0.0 or self.gamma_h < 0.0:
            raise ValueError(f"damping rates must be non-negative, got {self.gamma_c}, {self.gamma_h}")
        if not (math.isfinite(self.gamma_c) and math.isfinite(self.gamma_h)):
            raise ValueError("damping rates must be finite")


@dataclass
class ThermoLedger:
    """Accumulated heat released, work done by the system, and energy bookkeeping."""

    heat_released: float = 0.0
    work_done: float = 0.0
    energy_initial: float = 0.0
    energy_final: float = 0.0

    @property
    def first_law_residual(self) -> float:
        """(E_final - E_initial) + W + Q; zero when the ledger is consistent."""
        return (self.energy_final - self.energy_initial) + self.work_done + self.heat_released


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise unless rho is square, Hermitian to 1e-12, of trace 1 to 1e-10 and
    has no eigenvalue below -1e-10."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 1e-12:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"trace {tr} differs from 1 beyond 1e-10")
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if evals.min() < -1e-10:
        raise ValueError(f"negative eigenvalue {evals.min():.3e}")


def _sum(values: Iterable) -> float | complex | np.ndarray:
    """values added left to right from 0, as sum() adds them up to Python 3.11;
    from 3.12 on, sum() compensates a float sum and rounds differently.  An
    empty input gives the int 0, as sum() does."""
    total = 0
    for v in values:
        total = total + v
    return total


def _trace(m: np.ndarray) -> complex:
    """Trace of one matrix, summed left to right from 0 as `_reset` sums it."""
    return _sum(m.T[i, i] for i in range(m.shape[-1]))


class DiagonalResetModel:
    """N-level ladder with controllable level energies relaxing to Gibbs at unit rate.

    Level 0 is pinned at zero energy; the control vector holds the energies of
    levels 1..n-1.  Beyond two levels this is an artifact generalization used
    for cross-checks, not a physical claim.

    Every method also takes a stack of controls (..., n_controls), for the
    oracle's gap levels and the samples of an arc in `pmp.two_level_residuals`.
    The methods loop over levels only, through m.T[i, i] and u.T[k], which
    index one entry of one state or that entry across a stack (its leading
    axes reversed): a few float operations per level, or one array operation.
    """

    def __init__(self, baths: Baths, dim: int):
        if dim < 2:
            raise ValueError(f"need dim >= 2, got {dim}")
        self.baths = baths
        self.dim = dim
        self.n_controls = dim - 1

    def _controls(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            u = u.reshape(1)
        if u.shape[-1] != self.n_controls:
            raise ValueError(f"expected {self.n_controls} controls, got {u.shape[-1]}")
        return u

    def _gibbs(self, u: np.ndarray, kind: str) -> list[float] | np.ndarray:
        """Populations exp(beta (E_min - E_i)) / sum, indexed by level first: no
        overflow, and tiny ones keep their relative accuracy.

        u is as `_controls` returns it, which every caller has run.  One state
        gives a list of floats, which costs a quarter of the array passes; a
        stack gives an array indexed like u.T.
        """
        beta = self.baths.beta(kind)
        if u.ndim == 1:
            scaled = [0.0] + [beta * e for e in u.tolist()]
            for a in scaled:
                if not math.isfinite(a):
                    raise ValueError(f"non-finite beta*u = {a}")
            low = min(scaled)
            weights = [math.exp(low - a) for a in scaled]
            total = _sum(weights)
            return [w / total for w in weights]
        # a float product, so that an overflowing beta*u raises here without a numpy warning
        if not math.isfinite(beta * float(np.abs(u).max())):
            bad = next(a for a in (beta * e for e in u.ravel().tolist()) if not math.isfinite(a))
            raise ValueError(f"non-finite beta*u = {bad}")
        scaled = np.zeros((self.dim,) + u.T.shape[1:])
        np.multiply(beta, u.T, out=scaled[1:])
        shifted = scaled.min(axis=0) - scaled
        # math.exp, as for one state: np.exp rounds about 5 % of arguments differently,
        # and each state of a stack must get the bits it gets alone
        weights = np.array([math.exp(a) for a in shifted.ravel().tolist()]).reshape(shifted.shape)
        return weights / weights.sum(axis=0)

    def hamiltonian(self, u: np.ndarray) -> np.ndarray:
        u = self._controls(u)
        h = np.zeros(u.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for k in range(self.n_controls):
            h.T[k + 1, k + 1] = u.T[k]
        return h

    def equilibrium(self, u: np.ndarray, kind: str) -> np.ndarray:
        u = self._controls(u)
        eta = np.zeros(u.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for i, p in enumerate(self._gibbs(u, kind)):
            eta.T[i, i] = p
        return eta


class TwoLevelResetModel(DiagonalResetModel):
    """Two-level system with gap control u: the ladder model at dim 2."""

    def __init__(self, baths: Baths):
        super().__init__(baths, 2)


def lindblad_rhs(rho: np.ndarray, control: ControlVector, model: DiagonalResetModel) -> np.ndarray:
    """Full generator action on one state (dim, dim): -i[H_u, rho] + gamma_c D_c[rho] + gamma_h D_h[rho]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {rho.shape} does not match model dim {model.dim}")
    energies, resets = _terms(control.u, control.gamma_c, control.gamma_h, model)
    return _from_entries(_generator(_entries(rho), energies, resets), model.dim)


# The only implementation of each reset-model map works entry by entry on a flat
# list y of Python floats: the real parts of one matrix's entries row by row,
# then their imaginary parts.  That costs a fraction of 2x2 complex matrix algebra.


def _entries(rho: np.ndarray) -> list:
    """The flat entry list of one complex state (dim, dim)."""
    return rho.real.ravel().tolist() + rho.imag.ravel().tolist()


def _from_entries(y: list, dim: int) -> np.ndarray:
    """The complex matrix (dim, dim) of a flat entry list."""
    n = dim * dim
    out = np.empty(n, dtype=complex)
    out.real, out.imag = y[:n], y[n : 2 * n]
    return out.reshape(dim, dim)


def _terms(u: np.ndarray, gamma_c: float, gamma_h: float, model: DiagonalResetModel) -> tuple[list, list]:
    """The energies [0, *u] and the pairs (gamma_b, Gibbs populations) of the
    coupled baths, as floats, for one control vector."""
    u = model._controls(u)
    energies = [0.0, *u.tolist()]
    resets = [(gamma, model._gibbs(u, kind)) for kind, gamma in (("cold", gamma_c), ("hot", gamma_h)) if gamma > 0.0]
    return energies, resets


def _commutator(y: list, energies: list) -> list:
    """Entries of -i[diag(energies), rho], rounded as (-1j) (H rho - rho H) rounds them."""
    n = len(energies) ** 2
    re, im = [], []
    k = 0
    for ei in energies:
        for ej in energies:
            a, b = y[k], y[n + k]
            re.append(ei * b - ej * b)
            im.append(ej * a - ei * a)
            k += 1
    return re + im


def _reset(y: list, pops: list) -> list:
    """Entries of the reset map diag(pops) tr(rho) - rho, tr(rho) summed from y
    left to right from 0, as `_trace` sums it."""
    dim = len(pops)
    n = dim * dim
    out = [-v for v in y[: 2 * n]]
    tr_re = tr_im = 0.0
    for k in range(0, n, dim + 1):
        tr_re = tr_re + y[k]
        tr_im = tr_im + y[n + k]
    for i, p in enumerate(pops):
        k = i * (dim + 1)
        out[k] = p * tr_re - y[k]
        out[n + k] = p * tr_im - y[n + k]
    return out


def _adjoint_reset(y: list, pops: list) -> list:
    """Entries of the adjoint reset map tr(diag(pops) a) 1 - a, tr(diag(pops) a)
    summed level by level from 0."""
    dim = len(pops)
    n = dim * dim
    diag = range(0, n, dim + 1)
    mean_re = _sum(p * y[k] for p, k in zip(pops, diag))
    mean_im = _sum(p * y[n + k] for p, k in zip(pops, diag))
    out = [-v for v in y[: 2 * n]]
    for k in diag:
        out[k] = mean_re - y[k]
        out[n + k] = mean_im - y[n + k]
    return out


def _generator(y: list, energies: list, resets: list) -> list:
    """Entries of -i[diag(energies), rho] + sum_b gamma_b (diag(eta_b) tr(rho) - rho).

    energies is [0, *u] and resets holds (gamma_b, eta_b) for each coupled bath,
    eta_b its Gibbs populations (`_terms`).  Items of y past rho's entries are
    ignored.  Each entry rounds as the matrix form does; a zero entry may differ
    from it in sign.
    """
    out = _commutator(y, energies)
    for gamma, pops in resets:
        out = [x + gamma * d for x, d in zip(out, _reset(y, pops))]
    return out


def _adjoint_generator(y: list, energies: list, resets: list) -> list:
    """Entries of the adjoint +i[diag(energies), a] + sum_b gamma_b (tr(diag(eta_b) a) 1 - a),
    for energies and resets as `_generator` takes them; +i[H, a] is -`_commutator`."""
    out = [-c for c in _commutator(y, energies)]
    for gamma, pops in resets:
        out = [x + gamma * d for x, d in zip(out, _adjoint_reset(y, pops))]
    return out


@dataclass
class ProtocolPiece:
    """Smooth stretch of a control schedule; boundaries are declared discontinuities.

    s below is the time since the piece's start.  Without `dudt`, `u` is a
    constant vector or a callable u(s), whose velocity is a central difference
    clamped to [0, duration].  With `dudt`, `u` is the constant control at the
    piece's start and du/ds = dudt(s, u): `integrate` carries u as solution
    components, so a velocity given by the control itself needs no inversion.
    One piece object can stand for every occurrence of a recurring arc, and
    `integrate` solves it once.
    """

    duration: float
    u: np.ndarray | float | Callable[[float], np.ndarray]
    gamma_c: float
    gamma_h: float
    dudt: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dudt is not None and callable(self.u):
            raise ValueError("a piece with dudt(s, u) takes u as its constant start value, not a callable u(s)")

    def u_at(self, s: float) -> np.ndarray:
        """u(s); with `dudt`, the start value at any s."""
        if callable(self.u):
            return np.array(self.u(s), dtype=float, ndmin=1)
        return np.atleast_1d(np.asarray(self.u, dtype=float))

    def dudt_at(self, s: float) -> np.ndarray:
        """du/ds of a piece without `dudt`."""
        if not callable(self.u):
            return np.zeros_like(self.u_at(s))
        h = max(1e-7 * self.duration, 1e-12)
        a = max(s - h, 0.0)
        b = min(s + h, self.duration)
        return (self.u_at(b) - self.u_at(a)) / (b - a)


@dataclass
class Protocol:
    """Ordered piecewise-smooth control schedule starting at t0."""

    pieces: Sequence[ProtocolPiece]
    t0: float = 0.0


@dataclass
class IntegrationResult:
    """Sampled trajectory plus the accumulated thermodynamic ledger."""

    t: np.ndarray
    states: np.ndarray  # (n_samples, dim, dim)
    u: np.ndarray  # (n_samples, n_controls)
    gamma_c: np.ndarray
    gamma_h: np.ndarray
    q_cum: np.ndarray
    w_cum: np.ndarray
    ledger: ThermoLedger = field(default_factory=ThermoLedger)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class _Solved:
    """The solved occurrence a of a recurring piece, from a diagonal start: its
    sample times s since its start, its solution rows y (rho entries, Q, W,
    atol I_k, atol J_k, then u_k for a piece with `dudt`; the first column is
    the start), its output u and the piece's total rate gamma_c + gamma_h."""

    s: np.ndarray
    y: np.ndarray
    u: np.ndarray
    rate: float

    def map(self, rho: np.ndarray, q: float, w: float) -> np.ndarray:
        """The rows (rho entries, Q, W) of an occurrence b from the diagonal state
        rho with ledgers q and w, exactly as the ODE gives them.

        The commutator's diagonal is zero, so the populations obey
        dp_i/ds = sum_b gamma_b eta_i^b(u) tr rho - Gamma p_i, Gamma = `rate`.
        With c = tr rho_b(0) / tr rho_a(0), which carries over the source term,
        and delta = p_b(0) - c p_a(0), which decays at rate Gamma:
        p_b(s) = c p_a(s) + e^{-Gamma s} delta,
        Q_b(s) - Q_b(0) = c (Q_a(s) - Q_a(0)) + Gamma sum_k delta_k I_k(s),
        W_b(s) - W_b(0) = c (W_a(s) - W_a(0)) - sum_k delta_k J_k(s),
        k over the levels 1..dim-1.
        """
        dim = rho.shape[0]
        n = dim * dim
        y, pops_a = self.y, self.y[: n : dim + 1]
        pops = rho.diagonal().real
        c = pops.sum() / pops_a[:, 0].sum()
        delta = pops - c * pops_a[:, 0]
        out = np.zeros((2 * n + 2, self.s.size))
        out[: n : dim + 1] = c * pops_a + np.multiply.outer(delta, np.exp(-self.rate * self.s))
        i_k, j_k = y[2 * n + 2 : 2 * n + 1 + dim] / _ATOL, y[2 * n + 1 + dim : 2 * n + 2 * dim] / _ATOL
        out[2 * n] = q + c * (y[2 * n] - y[2 * n, 0]) + self.rate * (delta[1:] @ i_k)
        out[2 * n + 1] = w + c * (y[2 * n + 1] - y[2 * n + 1, 0]) - delta[1:] @ j_k
        return out


def integrate(
    rho0: np.ndarray,
    protocol: Protocol,
    model,
    samples_per_piece: int = 50,
) -> IntegrationResult:
    """Adaptively integrate the master equation along a piecewise protocol.

    The state is continuous across control jumps; instantaneous quenches
    contribute work -<rho dH> at piece boundaries and no heat.  A piece is
    solved by DOP853 at rtol 1e-9 and atol 1e-12 on the vector (re rho,
    im rho, Q, W), stepping in global time t and asking its callables at
    t - t_start.  A piece with `dudt` appends its controls u_k to the vector,
    after any extras below, and is solved at rtol 5e-10: its output u and the
    gap where it ends come from the solution.  A piece object that occurs
    more than once is solved once, at its first occurrence from an exactly
    diagonal state, with the integrals I_k = int E_k e^{-Gamma s} ds and
    J_k = int (du_k/ds) e^{-Gamma s} ds (Gamma = gamma_c + gamma_h) as extra
    components; a later occurrence from a diagonal state, which the model
    keeps diagonal, is mapped from that solution exactly (`_Solved.map`), its
    u the solved one's, and one from any other state is solved.
    Raises ValueError for an invalid initial state, IntegrationError on step
    failure or for an occurrence whose sample times round to repeated
    values, and TraceDriftError when |tr rho - 1| exceeds 1e-8.  The error's
    `t` is an output sample: for a step failure the last sample reached
    before it (the occurrence's start if none or if the samples repeat), for
    trace drift the first sample past the bound, in the occurrence where the
    drift first passes it.
    """
    dim = model.dim
    n = dim * dim
    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0)
    pieces = protocol.pieces
    if not pieces:
        raise ValueError("protocol has no pieces")
    recurring = {key for key, count in Counter(map(id, pieces)).items() if count > 1}

    t_lo = protocol.t0
    rho, q_acc, w_acc = rho0, 0.0, 0.0
    # h is the Hamiltonian where the latest piece ended (at first, where the first one starts)
    h = model.hamiltonian(pieces[0].u_at(0.0))
    energy_initial = float(np.trace(rho0 @ h).real)
    solved: dict[int, _Solved] = {}  # by id of a recurring piece
    blocks = []  # (piece, sample times, rows of rho entries, Q and W, u) of each occurrence of positive duration

    for i, piece in enumerate(pieces):
        if piece.duration < 0.0:
            raise ValueError(f"negative piece duration {piece.duration}")
        if i:
            # instantaneous quench: state frozen, work picks up the gap change
            w_acc += -float(np.trace(rho @ (model.hamiltonian(piece.u_at(0.0)) - h)).real)
        t_hi = t_lo + piece.duration
        carried = piece.dudt is not None
        u_end = piece.u_at(t_hi - t_lo)
        if piece.duration > 0.0:
            # the rates are fixed along a piece: checked here once, with u at its start
            ControlVector(piece.u_at(0.0), piece.gamma_c, piece.gamma_h)
            # at large t or tiny durations the grid can round to repeated times
            t_eval = np.linspace(t_lo, t_hi, max(samples_per_piece, 2))
            if not np.all(np.diff(t_eval) > 0.0):
                raise IntegrationError(f"piece of duration {piece.duration} has repeated sample times", t=t_lo)
            # a recurring piece is solved once from a diagonal start, which stays diagonal, then mapped
            diagonal = id(piece) in recurring and not np.count_nonzero(rho - np.diag(rho.diagonal().real))
            first = solved.get(id(piece)) if diagonal else None
            m = 2 * n + 2 + 2 * (dim - 1) * diagonal  # where a carried u starts
            if first is not None:
                ts, ys, u = t_eval, first.map(rho, q_acc, w_acc), first.u
            else:

                def rhs(t, y, piece=piece, t_lo=t_lo, extra=diagonal, carried=carried, m=m):
                    # plain floats: a piece's callables run faster on them than on np.float64, same bits
                    s = float(t) - t_lo
                    u_t = y[m:] if carried else piece.u_at(s)
                    _check_finite(u_t)
                    energies, resets = _terms(u_t, piece.gamma_c, piece.gamma_h, model)
                    dudt = (np.array(piece.dudt(s, u_t), dtype=float, ndmin=1) if carried else piece.dudt_at(s)).tolist()
                    y = y.tolist()
                    ldot = _generator(y, energies, resets)
                    # -sum_i E_i ldot_ii and -sum_k (du_k/dt) rho_{k+1,k+1}, summed from 0 as _trace sums
                    dq = 0.0
                    for i, e in enumerate(energies):
                        dq = dq + e * ldot[i * (dim + 1)]
                    dw = 0.0
                    for k, v in enumerate(dudt):
                        dw = dw + v * y[(k + 1) * (dim + 1)]
                    out = ldot + [-dq, -dw]
                    if extra:
                        # I_k and J_k times atol: the step control weighs a component by
                        # atol + rtol |y|, so it all but ignores them.  Unscaled, they let
                        # DOP853 take steps about 25 % longer, with 10 times the first-law error
                        decay = _ATOL * math.exp(-(piece.gamma_c + piece.gamma_h) * s)
                        out += [e * decay for e in energies[1:]] + [v * decay for v in dudt]
                    if carried:
                        out += dudt
                    return np.array(out)

                flat = rho.reshape(-1)
                extras = [np.zeros(2 * (dim - 1) * diagonal), piece.u_at(0.0) if carried else ()]
                start = np.concatenate([flat.real, flat.imag, [q_acc, w_acc], *extras])
                ts, ys, failure = dop853(rhs, t_lo, t_hi, start, t_eval, _CARRIED_RTOL if carried else _RTOL, _ATOL)
                if failure:
                    raise IntegrationError(f"integrator failed: {failure}", t=float(ts[-1]) if ts.size else t_lo)
            drift = np.abs(ys[:n : dim + 1].sum(axis=0) - 1.0)
            bad = np.flatnonzero(drift > _TRACE_DRIFT_LIMIT)
            if bad.size:
                raise TraceDriftError(f"trace drift {drift[bad[0]]:.3e}", t=float(ts[bad[0]]))
            if first is None:
                u = ys[m:].T if carried else np.array([piece.u_at(t - t_lo) for t in ts.tolist()])
                _check_finite(u)
                if diagonal:
                    solved[id(piece)] = _Solved(ts - t_lo, ys, u, piece.gamma_c + piece.gamma_h)
            blocks.append((piece, ts, ys[: 2 * n + 2], u))
            end = ys[:, -1]
            rho = (end[:n] + 1j * end[n : 2 * n]).reshape(dim, dim)
            q_acc, w_acc = end[2 * n : 2 * n + 2]
            if carried:
                u_end = u[-1]
        h = model.hamiltonian(u_end)
        t_lo = t_hi

    y = np.concatenate([ys for _, _, ys, _ in blocks], axis=1)
    sizes = [ts.size for _, ts, _, _ in blocks]
    ledger = ThermoLedger(
        heat_released=q_acc,
        work_done=w_acc,
        energy_initial=energy_initial,
        energy_final=float(np.trace(rho @ h).real),
    )
    return IntegrationResult(
        t=np.concatenate([ts for _, ts, _, _ in blocks]),
        states=(y[:n] + 1j * y[n : 2 * n]).T.reshape(-1, dim, dim),
        u=np.concatenate([u for *_, u in blocks], axis=0),
        gamma_c=np.repeat([piece.gamma_c for piece, *_ in blocks], sizes),
        gamma_h=np.repeat([piece.gamma_h for piece, *_ in blocks], sizes),
        q_cum=y[2 * n],
        w_cum=y[2 * n + 1],
        ledger=ledger,
    )
