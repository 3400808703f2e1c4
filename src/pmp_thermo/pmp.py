"""Costate dynamics and residual checkers for the minimum-principle conditions.

Three conditions characterize a rate-optimal trajectory: the costate evolves
under the adjoint generator with a gauge multiplier keeping it traceless, the
pseudo-Hamiltonian is stationary under the gap control, and its value is a
constant K.  The matrix functions here state them for one state of the
N-level reset model, entry by entry with `lindblad`'s kernels, which the
forward simulation runs too.  For the two-level system they reduce to
scalars: with rho = diag(1 - p, p), pi = diag(q, -q), sigma = 2q + u and e_b
bath b's excited Gibbs population, H = -sum_b gamma_b (e_b - p) sigma,
dH/du = sum_b gamma_b (beta_b e_b (1 - e_b) sigma - (e_b - p)) and
dq/dt = (gamma_c + gamma_h) sigma / 2.  `two_level_residuals` checks an arc
in these forms, on real arrays, and with `switching_functional`, the one
implementation of A = -sigma (e_h - e_c), on the arc's stack of states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import (
    ControlVector,
    DiagonalResetModel,
    _adjoint_generator,
    _commutator,
    _entries,
    _from_entries,
    _generator,
    _sum,
    _terms,
    _trace,
    lindblad_rhs,  # unused here; kept as pmp.lindblad_rhs, which perfbench/tracer.py rebinds
)
from .two_level import IsothermSegment, mu

__all__ = [
    "TrajectoryNode",
    "pseudo_hamiltonian",
    "adjoint_generator",
    "costate_rhs",
    "gauge_lambda",
    "switching_functional",
    "conserved_k_residual",
    "stationarity_residual",
    "two_level_residuals",
    "RESIDUAL_KEYS",
]

_EPS = float(np.finfo(float).eps)


def _pass(rho: np.ndarray | None, pi: np.ndarray, control: ControlVector, model) -> tuple[list | None, list, list, list]:
    """One `_terms` pass for a state (None for none) and costate: the entries of rho and
    of a = pi - H_u, the energies [0, *u] and the coupled baths (gamma_b, eta_b);
    TypeError for a model other than the reset model, ValueError unless both are
    one (dim, dim) matrix."""
    if not isinstance(model, DiagonalResetModel):
        raise TypeError(f"model {model!r} is not a DiagonalResetModel")
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != (model.dim, model.dim) or (rho is not None and np.shape(rho) != pi.shape):
        raise ValueError(f"costate shape {pi.shape} and state shape {np.shape(rho)} are not one {model.dim}-level state")
    energies, resets = _terms(control.u, control.gamma_c, control.gamma_h, model)
    y = None if rho is None else _entries(np.asarray(rho, dtype=complex))
    return y, _entries(pi - model.hamiltonian(control.u)), energies, resets


def pseudo_hamiltonian(rho: np.ndarray, pi: np.ndarray, control: ControlVector, model) -> float:
    """<(pi - H_u) L_u[rho]>; the conserved scalar on optimal arcs."""
    y, a, energies, resets = _pass(rho, pi, control, model)
    return float(_trace(_from_entries(a, model.dim) @ _from_entries(_generator(y, energies, resets), model.dim)).real)


def adjoint_generator(a: np.ndarray, control: ControlVector, model: DiagonalResetModel) -> np.ndarray:
    """Adjoint action L_u^dag[a] = +i[H_u, a] + sum_b gamma_b (tr(eta_b a) 1 - a)
    of the reset model on one (dim, dim) matrix a; TypeError for any other model."""
    if not isinstance(model, DiagonalResetModel):
        raise TypeError(f"model {model!r} provides no adjoint generator")
    if np.shape(a) != (model.dim, model.dim):
        raise ValueError(f"argument shape {np.shape(a)} is not one ({model.dim}, {model.dim}) matrix")
    energies, resets = _terms(control.u, control.gamma_c, control.gamma_h, model)
    return _from_entries(_adjoint_generator(_entries(np.asarray(a, dtype=complex)), energies, resets), model.dim)


def _costate(a: list, energies: list, resets: list, dim: int) -> tuple[np.ndarray, float]:
    """The costate velocity -(L_u^dag[a] + lam 1) of a = pi - H_u and the multiplier
    lam = -tr(L_u^dag[a]) / dim that keeps the costate traceless, from one adjoint pass."""
    adj = _from_entries(_adjoint_generator(a, energies, resets), dim)
    lam = -float(_trace(adj).real) / dim
    return -(adj + lam * np.eye(dim)), lam


def costate_rhs(pi: np.ndarray, control: ControlVector, model) -> np.ndarray:
    """Costate velocity -(L_u^dag[pi - H_u] + lam 1), lam the multiplier
    `gauge_lambda` gives, taken from the same adjoint pass."""
    return _costate(*_pass(None, pi, control, model)[1:], model.dim)[0]


def gauge_lambda(pi: np.ndarray, control: ControlVector, model) -> float:
    """Multiplier that keeps the costate traceless: -tr(L^dag[pi - H]) / dim."""
    return _costate(*_pass(None, pi, control, model)[1:], model.dim)[1]


def switching_functional(rho: np.ndarray, pi: np.ndarray, u: np.ndarray | float, model) -> float | np.ndarray:
    """Bang-bang selector: A = <(pi - H_u)(D_h - D_c)[rho]> of one state, a float,
    or of each state of a stack, rho and pi (..., dim, dim) with u (..., dim - 1).
    TypeError for a model other than the reset model, ValueError for shapes that
    do not match.

    (D_h - D_c)[rho] = (eta_h - eta_c) tr(rho) for the diagonal Gibbs states
    eta_b, and eta_h - eta_c sums to zero, so A = tr(rho) sum_i (a_ii - a_kk)
    (eta_h - eta_c)_i with a = pi - H_u and k the lowest level of each state.
    The term of level k, whose populations cancel at a large gap, drops out,
    so A keeps its relative accuracy and its sign at any finite gap.  A state
    of a stack gets the bits it gets alone.
    """
    if not isinstance(model, DiagonalResetModel):
        raise TypeError(f"model {model!r} is not a DiagonalResetModel")
    u = model._controls(u)
    rho, pi = np.asarray(rho), np.asarray(pi)
    if not rho.shape == pi.shape == (*u.shape[:-1], model.dim, model.dim):
        raise ValueError(f"state shape {rho.shape} and costate shape {pi.shape} do not match controls {u.shape}")
    # level first, leading axes reversed, as the model's methods index a stack
    energies = np.array([np.zeros(u.T.shape[1:]), *u.T])
    a = np.array([pi.T[i, i] for i in range(model.dim)]) - energies
    low = np.take_along_axis(a, np.argmin(energies, axis=0)[None], 0)[0]
    eta_h, eta_c = model._gibbs(u, "hot"), model._gibbs(u, "cold")
    value = (_trace(rho) * _sum((a_ii - low) * (h - c) for a_ii, h, c in zip(a, eta_h, eta_c))).real
    return float(value) if u.ndim == 1 else value.T


@dataclass(frozen=True)
class TrajectoryNode:
    """One sample of a candidate optimal trajectory: one state, costate and control vector."""

    t: float
    rho: np.ndarray
    pi: np.ndarray
    control: ControlVector


def conserved_k_residual(nodes: Sequence[TrajectoryNode], K: float, model) -> float:
    """max_t |<(pi - H_u) L_u[rho]> - K| over the sampled nodes.

    K comes from the trajectory metadata; the residual tests consistency of
    the samples against it rather than re-estimating the constant.
    """
    return max([0.0] + [abs(pseudo_hamiltonian(n.rho, n.pi, n.control, model) - K) for n in nodes])


def stationarity_residual(node: TrajectoryNode, model) -> float:
    """Gap-control stationarity: max_k |<(pi-H) d_k L[rho]> - <L[rho] d_k H>|.

    d_k H projects on level k, so <L[rho] d_k H> is L[rho]'s entry (k, k), and
    d_k D_b[rho] = diag(beta_b eta_i (eta_k - delta_ik)) tr(rho).  Only the
    Hamiltonian controls enter; the damping rates are set bang-bang by the
    sign of the switching function rather than by a stationarity condition.
    """
    y, a, energies, resets = _pass(node.rho, node.pi, node.control, model)
    control, dim = node.control, model.dim
    n = dim * dim
    a, ldot = _from_entries(a, dim), _generator(y, energies, resets)
    diag = range(0, n, dim + 1)
    betas = [model.baths.beta(kind) for kind, rate in (("cold", control.gamma_c), ("hot", control.gamma_h)) if rate > 0.0]
    tr_re, tr_im = _sum(y[j] for j in diag), _sum(y[n + j] for j in diag)
    worst = 0.0
    for k in range(1, dim):
        dl = _commutator(y, [float(i == k) for i in range(dim)])
        for (rate, pops), beta in zip(resets, betas):
            for i, j in enumerate(diag):
                d = beta * pops[i] * (pops[k] - (i == k))
                dl[j], dl[n + j] = dl[j] + rate * (d * tr_re), dl[n + j] + rate * (d * tr_im)
        worst = max(worst, abs(float(_trace(a @ _from_entries(dl, dim)).real) - ldot[k * (dim + 1)]))
    return worst


def _two_level_forms(p: np.ndarray, q: np.ndarray, u: np.ndarray, gamma_c: float, gamma_h: float, model) -> tuple:
    """H, dH/du and dq/dt of the two-level forms (module docstring) at samples
    (p, q, u), e_b from `model._gibbs` for each coupled bath, then the rounding
    floors of H and dH/du."""
    sigma, size = 2.0 * q + u, np.abs(2.0 * q) + np.abs(u)
    h, dh, h_floor, dh_floor = 0.0, 0.0, 0.0, 0.0
    for kind, rate in (("cold", gamma_c), ("hot", gamma_h)):
        if rate > 0.0:
            e = model._gibbs(u[:, None], kind)[1]
            slope = model.baths.beta(kind) * e * (1.0 - e)
            h, dh = h - rate * (e - p) * sigma, dh + rate * (slope * sigma - (e - p))
            h_floor, dh_floor = h_floor + rate * (e + p) * size, dh_floor + rate * (slope * size + e + p)
    return h, dh, (gamma_c + gamma_h) * sigma / 2.0, _EPS * h_floor, _EPS * dh_floor


RESIDUAL_KEYS = ("max_conservation", "max_stationarity", "max_costate", "max_bang_bang_violation", "max_heat_identity",
                 "max_conservation_ratio", "max_stationarity_ratio", "max_costate_ratio", "max_heat_identity_ratio")


def two_level_residuals(
    seg: IsothermSegment, K: float, model: DiagonalResetModel, x: np.ndarray, u: np.ndarray, p: np.ndarray, q: np.ndarray
) -> dict[str, float]:
    """The minimum-principle checks of one two-level arc on its samples (x, u, p, q),
    x = exp(beta u/2), the first and last at the arc's ends, keyed by `RESIDUAL_KEYS`:
    the worst |H - K|, |dH/du|, |dq/dt - gamma mu (1 + x^2)/(2 beta x)| (the arc's
    exact costate velocity), bang-bang violation (`switching_functional` A >= 0
    on a cold arc, <= 0 on a hot one) and heat identity
    |<pi0 rho0> - <pi1 rho1> - int lam dt - seg.heat|, with
    int lam dt = (mu/2beta)[-x + 1/x + 4 atan x - (2/mu)(log x - log1p(x^2))]
    from x0 to x1; then the first three and the last over their rounding floors
    eps gamma (e + p)(|2q| + |u|), eps gamma (beta e (1 - e)(|2q| + |u|) + e + p),
    eps (gamma |q| + gamma |u| + |dq/dt|) and eps times the heat terms' sizes.
    """
    kind = seg.branch.kind
    beta, gamma = model.baths.beta(kind), model.baths.gamma
    mu_val = mu(seg.K, beta, seg.branch, gamma)
    h, dh, qdot, h_floor, dh_floor = _two_level_forms(p, q, u, *((gamma, 0.0) if kind == "cold" else (0.0, gamma)), model)
    qdot_arc = (gamma * mu_val / (2.0 * beta)) * (1.0 + x * x) / x
    costate, costate_floor = np.abs(qdot - qdot_arc), _EPS * (gamma * np.abs(q) + gamma * np.abs(u) + np.abs(qdot_arc))
    rho, pi = np.zeros((2, p.size, 2, 2))
    rho[:, 0, 0], rho[:, 1, 1], pi[:, 0, 0], pi[:, 1, 1] = 1.0 - p, p, q, -q
    a = switching_functional(rho, pi, u[:, None], model)
    c = mu_val / (2.0 * beta)
    # <pi rho> = q (1 - 2p) and the antiderivative of lam dt, at x0 less at x1, less the heat
    terms = [
        sign * v
        for sign, i in ((1.0, 0), (-1.0, -1))
        for v in (q[i] * (1.0 - 2.0 * p[i]), -c * x[i], c / x[i], 4.0 * c * math.atan(x[i]),
                  -math.log(x[i]) / beta, math.log1p(x[i] * x[i]) / beta)
    ] + [-seg.heat]
    heat, heat_floor = abs(_sum(terms)), _EPS * _sum(map(abs, terms))
    return dict(zip(RESIDUAL_KEYS, map(float, (
        np.abs(h - K).max(), np.abs(dh).max(), costate.max(), max(0.0, (-a if kind == "cold" else a).max()), heat,
        (np.abs(h - K) / h_floor).max(), (np.abs(dh) / dh_floor).max(), (costate / costate_floor).max(), heat / heat_floor,
    )), strict=True))
