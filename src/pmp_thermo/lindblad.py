"""Finite-dimensional GKSL forward simulator with thermal reset dissipators.

Dynamics: drho/dt = -i[H_u, rho] + gamma_c * D_c[rho] + gamma_h * D_h[rho],
with D_b[rho] = eta_b(u) tr(rho) - rho the single-bath reset map toward the
instantaneous Gibbs state.  Heat and work are accumulated beside the state,
on the same steps, keeping first-law closure at the integrator's order.
"""

from __future__ import annotations

import math
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
_ATOL = 1e-12
# steps of a path piece in sigma, in chunks of at most this many: memory stays flat in gamma T
_CHUNK = 4096


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

    A piece takes exactly one of `u` and `path`.  `u` is a constant vector or
    a callable u(s) of the time s since the piece's start, whose velocity is a
    central difference clamped to [0, duration]; `integrate` solves such a
    piece by DOP853.  `path` maps an array of sigma in [0, 1] to the arrays
    (t, dt/dsigma, u, du/dsigma): t is the time since the piece's start, rising
    from 0 at sigma = 0 to `duration` at sigma = 1, and u and du/dsigma have
    the shape (sigma.size, n_controls).  `integrate` steps a path piece in
    sigma, so it inverts no t(sigma), and solves it once however often the
    same piece object occurs.
    """

    duration: float
    u: np.ndarray | float | Callable[[float], np.ndarray] | None
    gamma_c: float
    gamma_h: float
    path: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if (self.u is None) == (self.path is None):
            raise ValueError("a piece takes either u or path(sigma), not both or neither")

    def u_at(self, s: float) -> np.ndarray:
        """u(s) of a piece without `path`."""
        if callable(self.u):
            return np.array(self.u(s), dtype=float, ndmin=1)
        return np.atleast_1d(np.asarray(self.u, dtype=float))

    def dudt_at(self, s: float) -> np.ndarray:
        """du/ds of a piece without `path`."""
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


def _stage_matrix(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Collocation's stage matrix A on the nodes c: A_jl is the integral from 0
    to c_j of the l-th Lagrange polynomial on c, by the rule (c, b) scaled to
    [0, c_j], which is exact at that degree."""
    at = np.multiply.outer(c, c)
    lagrange = [np.prod([(at - c[m]) / (c[l] - c[m]) for m in range(c.size) if m != l], axis=0) for l in range(c.size)]
    return c[:, None] * (np.array(lagrange) @ b).T


# Gauss-Legendre nodes and weights of 6 points on [0, 1], the roots of the Legendre polynomial
# P6 mapped from [-1, 1], to 20 digits: Gauss collocation on them is of order 12 and A-stable
# (Hairer and Wanner, Solving ODEs II, section IV.5)
_NODES = np.array([
    0.033765242898423986094, 0.16939530676686774317, 0.38069040695840154568,
    0.61930959304159845432, 0.83060469323313225683, 0.96623475710157601391,
])
_WEIGHTS = np.array([
    0.08566224618958517252, 0.18038078652406930378, 0.23395696728634552369,
    0.23395696728634552369, 0.18038078652406930378, 0.08566224618958517252,
])
_STAGES = _stage_matrix(_NODES, _WEIGHTS)


@dataclass
class _PathMap:
    """A path piece solved once, at its output samples: the times t since its
    start and the controls u there, and the affine map of its start state.
    `coef`, (samples (dim + 3), dim + 3), takes (p_0, ..., p_{dim-1}, tr rho, Q, W)
    at the start to the same at each sample, one sample after the other.
    `phase` holds int E_i dt at each sample, `rate` is Gamma, and h_start and
    h_end are the Hamiltonians at the piece's ends."""

    t: np.ndarray
    u: np.ndarray
    coef: np.ndarray
    phase: np.ndarray
    rate: float
    h_start: np.ndarray
    h_end: np.ndarray

    def occurrence(self, rho: np.ndarray, q: float, w: float, t_lo: float) -> tuple[np.ndarray, ...]:
        """(sample times, states, Q, W) of an occurrence from rho with ledgers q
        and w at t_lo: one product with the stored coefficients, and where rho
        has coherences, their factor e^{-Gamma t - i int (E_i - E_j) dt}."""
        dim = rho.shape[0]
        ts = t_lo + self.t
        if not (ts[1:] > ts[:-1]).all():
            raise IntegrationError(f"piece of duration {self.t[-1]} has repeated sample times", t=t_lo)
        pops = rho.diagonal().real
        rows = (self.coef @ np.concatenate([pops, [pops.sum(), q, w]])).reshape(-1, dim + 3)
        states = np.zeros((rows.shape[0], dim, dim))
        states[:, range(dim), range(dim)] = rows[:, :dim]
        coherences = rho - np.diag(rho.diagonal())
        if coherences.any():
            turn = self.phase[:, :, None] - self.phase[:, None, :]
            states = states + coherences * np.exp(-self.rate * self.t[:, None, None] - 1j * turn)
        return ts, states, rows[:, dim + 1], rows[:, dim + 2]


def _solve_path(piece: ProtocolPiece, model: DiagonalResetModel, samples: int) -> _PathMap:
    """Gauss collocation of a path piece in sigma, as the affine map of its start state.

    The commutator has no diagonal, so the populations obey
    dp_i/dsigma = t'(sigma) (sum_b gamma_b eta_i^b(u) tr rho - Gamma p_i),
    Gamma = gamma_c + gamma_h, and the ledgers dQ/dsigma = -sum_i E_i dp_i/dsigma
    and dW/dsigma = -sum_k (du_k/dsigma) p_{k+1}: all linear in (p, tr rho),
    with tr rho held at its start value, as a reset model's Gibbs populations,
    which sum to 1, hold it.  The steps end at the samples, uniform in sigma,
    each split until Gamma dt <= 1, dt the Gauss rule's integral of t'.  One
    6 x 6 stage system per step serves every level and makes the step a matrix
    on (p, tr rho, Q, W); the running products of the steps, by doubling, are
    the map at the samples.  Q and W are quadratures of the stage values, so
    the first law holds to rounding where the energies are polynomials of
    degree 5 or less in sigma.  The steps go in chunks of at most _CHUNK.
    """
    dim, size = model.dim, model.dim + 3
    rate = piece.gamma_c + piece.gamma_h
    sigma = np.linspace(0.0, 1.0, samples)
    t, slope, u, _ = piece.path(sigma)
    u = model._controls(u)
    _check_finite(u)
    h_start = model.hamiltonian(u[0])
    if not piece.duration > 0.0:
        return _PathMap(t, u, np.empty(0), np.empty(0), rate, h_start, h_start)
    ControlVector(u[0], piece.gamma_c, piece.gamma_h)  # the rates, checked once
    baths = [(gamma, kind) for kind, gamma in (("cold", piece.gamma_c), ("hot", piece.gamma_h)) if gamma > 0.0]
    # steps per sample interval from its larger end slope, which bounds a monotone t' inside;
    # first[k] is the step that sample k starts
    counts = np.ceil(rate / (samples - 1) * np.maximum(slope[:-1], slope[1:]))
    counts = np.append(np.maximum(counts, 1.0).astype(np.int64), 1)
    first = np.concatenate([[0], np.cumsum(counts)])
    total, edges = int(first[-2]), np.append(sigma, 1.0)
    coef = np.empty((samples, size, size))
    coef[0] = carry = np.eye(size)
    phase = np.zeros((samples, dim))
    turned = np.zeros(dim - 1)
    for lo in range(0, total, _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, total) + 1)
        k = np.searchsorted(first, i, side="right") - 1
        ends = edges[k] + (edges[k + 1] - edges[k]) * ((i - first[k]) / counts[k])
        sample = np.where(i == first[k], k, -1)
        while True:
            h = np.diff(ends)
            _, tau, un, dun = piece.path((ends[:-1, None] + h[:, None] * _NODES).ravel())
            tau = tau.reshape(-1, 6)
            parts = np.ceil(rate * h * (tau @ _WEIGHTS))
            if not (parts > 1.0).any():
                break
            parts = np.maximum(parts, 1.0).astype(np.int64)
            j = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
            ends = np.append(np.repeat(ends[:-1], parts) + np.repeat(h / parts, parts) * j, ends[-1])
            sample = np.append(np.where(j == 0, np.repeat(sample[:-1], parts), -1), sample[-1])
        un = model._controls(un)
        _check_finite(un)
        n = h.size
        source = np.zeros((dim, un.shape[0]))
        for gamma, kind in baths:
            source += gamma * model._gibbs(un, kind)
        un, dun = un.reshape(n, 6, dim - 1), dun.reshape(n, 6, dim - 1)
        # stage derivatives per unit tr rho (columns :dim) and per unit p_i (column dim),
        # and the stage values less the step's start
        stage = np.eye(6) + (rate * h)[:, None, None] * tau[:, :, None] * _STAGES
        rhs = np.concatenate([tau[..., None] * source.T.reshape(n, 6, dim), -rate * tau[..., None]], axis=2)
        x = np.linalg.solve(stage, rhs)
        ax = h[:, None, None] * (_STAGES @ x)
        hb = h[:, None] * _WEIGHTS
        # the step's matrix; level 0 has energy 0
        step = np.tile(np.eye(size), (n, 1, 1))
        step[:, range(dim), range(dim)] += (hb * x[..., dim]).sum(axis=1)[:, None]
        step[:, :dim, dim] = np.einsum("nj,nji->ni", hb, x[..., :dim])
        step[:, dim + 1, 1:dim] = -np.einsum("nj,nji->ni", hb * x[..., dim], un)
        step[:, dim + 1, dim] = -np.einsum("nj,nji,nji->n", hb, un, x[..., 1:dim])
        step[:, dim + 2, 1:dim] = -np.einsum("nj,nji->ni", hb * (1.0 + ax[..., dim]), dun)
        step[:, dim + 2, dim] = -np.einsum("nj,nji,nji->n", hb, dun, ax[..., 1:dim])
        span = 1
        while span < n:
            step[span:] = step[span:] @ step[:-span]
            span *= 2
        step = step @ carry
        turns = turned + np.cumsum(np.einsum("nj,nji->ni", hb * tau, un), axis=0)
        hit = np.flatnonzero(sample[1:] >= 0)
        coef[sample[1:][hit]] = step[hit]
        phase[sample[1:][hit], 1:] = turns[hit]
        carry, turned = step[-1], turns[-1]
    return _PathMap(t, u, coef.reshape(-1, size), phase, rate, h_start, model.hamiltonian(u[-1]))


def _solve_steps(piece: ProtocolPiece, model: DiagonalResetModel, rho: np.ndarray, q: float, w: float,
                 t_lo: float, samples: int) -> tuple[np.ndarray, ...]:
    """(sample times, states, Q, W, u) of an occurrence of a piece with u, from
    rho with ledgers q and w at t_lo: DOP853 on (re rho, im rho, Q, W)."""
    dim = model.dim
    n = dim * dim
    # the rates are fixed along a piece: checked here once, with u at its start
    ControlVector(piece.u_at(0.0), piece.gamma_c, piece.gamma_h)
    # at large t or tiny durations the grid can round to repeated times
    t_eval = np.linspace(t_lo, t_lo + piece.duration, samples)
    if not np.all(np.diff(t_eval) > 0.0):
        raise IntegrationError(f"piece of duration {piece.duration} has repeated sample times", t=t_lo)

    def rhs(t, y):
        # plain floats: a piece's callables run faster on them than on np.float64, same bits
        s = float(t) - t_lo
        u_t = piece.u_at(s)
        _check_finite(u_t)
        energies, resets = _terms(u_t, piece.gamma_c, piece.gamma_h, model)
        dudt = piece.dudt_at(s).tolist()
        y = y.tolist()
        ldot = _generator(y, energies, resets)
        # -sum_i E_i ldot_ii and -sum_k (du_k/dt) rho_{k+1,k+1}, summed from 0 as _trace sums
        dq = 0.0
        for i, e in enumerate(energies):
            dq = dq + e * ldot[i * (dim + 1)]
        dw = 0.0
        for k, v in enumerate(dudt):
            dw = dw + v * y[(k + 1) * (dim + 1)]
        return np.array(ldot + [-dq, -dw])

    flat = rho.reshape(-1)
    start = np.concatenate([flat.real, flat.imag, [q, w]])
    ts, ys, failure = dop853(rhs, t_lo, t_lo + piece.duration, start, t_eval, _RTOL, _ATOL)
    if failure:
        raise IntegrationError(f"integrator failed: {failure}", t=float(ts[-1]) if ts.size else t_lo)
    u = np.array([piece.u_at(t - t_lo) for t in ts.tolist()])
    _check_finite(u)
    return ts, (ys[:n] + 1j * ys[n : 2 * n]).T.reshape(-1, dim, dim), ys[2 * n], ys[2 * n + 1], u


def integrate(
    rho0: np.ndarray,
    protocol: Protocol,
    model,
    samples_per_piece: int = 50,
) -> IntegrationResult:
    """Integrate the master equation along a piecewise protocol.

    The state is continuous across control jumps; instantaneous quenches
    contribute work -<rho dH> at piece boundaries and no heat.  A piece of
    zero duration is a quench to its start control.

    A piece with `u` is solved by DOP853 at rtol 1e-9 and atol 1e-12 on the
    vector (re rho, im rho, Q, W), stepping in global time t and asking u at
    t - t_start, with samples uniform in t.  A piece with `path` is solved
    once, at its first occurrence, by 6-stage Gauss collocation in sigma on
    its populations, Q and W (`_solve_path`), with samples uniform in sigma
    and t(sigma) reported; its coherences get their exact factor
    e^{-Gamma t - i int (E_i - E_j) dt}.  Every occurrence, the first one
    included, is then the affine map of its start state (p, tr rho, Q, W,
    coherences) through the stored coefficients.

    Raises ValueError for an invalid initial state, a negative duration or a
    non-finite control, IntegrationError on a DOP853 step failure or for an
    occurrence whose sample times round to repeated values, and
    TraceDriftError when |tr rho - 1| exceeds 1e-8.  The error's `t` is an
    output sample: for a step failure the last sample reached before it (the
    occurrence's start if none, or if the samples repeat), for trace drift
    the first sample past the bound.
    """
    dim = model.dim
    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0)
    pieces = protocol.pieces
    if not pieces:
        raise ValueError("protocol has no pieces")
    samples = max(samples_per_piece, 2)

    t_lo = protocol.t0
    rho, q_acc, w_acc = rho0, 0.0, 0.0
    # h is the Hamiltonian where the latest piece ended
    h = energy_initial = None
    solved: dict[int, _PathMap] = {}  # by id of a path piece
    blocks = []  # (piece, sample times, states, Q, W, u) of each occurrence of positive duration

    for piece in pieces:
        if piece.duration < 0.0:
            raise ValueError(f"negative piece duration {piece.duration}")
        if piece.path is None:
            h_start = model.hamiltonian(piece.u_at(0.0))
        else:
            if id(piece) not in solved:
                solved[id(piece)] = _solve_path(piece, model, samples)
            path = solved[id(piece)]
            h_start = path.h_start
        if h is None:
            energy_initial = float(np.trace(rho0 @ h_start).real)
        else:
            # instantaneous quench: state frozen, work picks up the gap change
            w_acc += -float(np.trace(rho @ (h_start - h)).real)
        h = h_start
        t_hi = t_lo + piece.duration
        if piece.duration > 0.0:
            if piece.path is None:
                ts, states, q, w, u = _solve_steps(piece, model, rho, q_acc, w_acc, t_lo, samples)
                h = model.hamiltonian(piece.u_at(t_hi - t_lo))
            else:
                (ts, states, q, w), u, h = path.occurrence(rho, q_acc, w_acc, t_lo), path.u, path.h_end
            drift = np.abs(states.diagonal(axis1=1, axis2=2).real.sum(axis=1) - 1.0)
            bad = np.flatnonzero(drift > _TRACE_DRIFT_LIMIT)
            if bad.size:
                raise TraceDriftError(f"trace drift {drift[bad[0]]:.3e}", t=float(ts[bad[0]]))
            blocks.append((piece, ts, states, q, w, u))
            rho, q_acc, w_acc = states[-1], q[-1], w[-1]
        t_lo = t_hi

    sizes = [ts.size for _, ts, *_ in blocks]
    ledger = ThermoLedger(
        heat_released=q_acc,
        work_done=w_acc,
        energy_initial=energy_initial,
        energy_final=float(np.trace(rho @ h).real),
    )
    return IntegrationResult(
        t=np.concatenate([block[1] for block in blocks]),
        states=np.concatenate([block[2] for block in blocks], dtype=complex),
        u=np.concatenate([block[5] for block in blocks], axis=0),
        gamma_c=np.repeat([piece.gamma_c for piece, *_ in blocks], sizes),
        gamma_h=np.repeat([piece.gamma_h for piece, *_ in blocks], sizes),
        q_cum=np.concatenate([block[3] for block in blocks]),
        w_cum=np.concatenate([block[4] for block in blocks]),
        ledger=ledger,
    )
