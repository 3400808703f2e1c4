"""Costate dynamics and residual checkers for the minimum-principle conditions.

Three conditions characterize a rate-optimal trajectory: the costate evolves
under the adjoint generator with a gauge multiplier keeping it traceless, the
pseudo-Hamiltonian is stationary under the gap control, and its value is a
constant K.  This module gives the costate velocity, the pseudo-Hamiltonian,
the bang-bang switching function and the residuals of the last two
conditions; `planner.validate_plan` checks all three on every sampled arc.

Every function also takes stacks: states and costates of shape
(..., dim, dim) with controls of shape (..., n_controls) are evaluated in one
array pass, and each state of a stack gets the bits it gets alone.  The
commutator with the diagonal H_u or dH/du, the reset map and its adjoint come
from `lindblad`'s entry-wise kernels, which the forward simulation runs too.
"""

from __future__ import annotations

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
    _sum,
    _terms,
    _trace,
    lindblad_rhs,
)

__all__ = [
    "TrajectoryNode",
    "pseudo_hamiltonian",
    "adjoint_generator",
    "costate_rhs",
    "gauge_lambda",
    "switching_functional",
    "conserved_k_residual",
    "stationarity_residual",
]


def _real(value: complex | np.ndarray) -> float | np.ndarray:
    """Real part of traces: a float for one state; for a stack, an array in the
    stack's axis order, which _trace reverses."""
    value = np.real(value)
    return float(value) if np.ndim(value) == 0 else value.T


def pseudo_hamiltonian(rho: np.ndarray, pi: np.ndarray, control: ControlVector, model) -> float | np.ndarray:
    """<(pi - H_u) L_u[rho]>; the conserved scalar on optimal arcs."""
    rho = np.asarray(rho, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != rho.shape:
        raise ValueError(f"costate shape {pi.shape} does not match state shape {rho.shape}")
    h = model.hamiltonian(control.u)
    ldot = lindblad_rhs(rho, control, model)
    return _real(_trace((pi - h) @ ldot))


def adjoint_generator(a: np.ndarray, control: ControlVector, model: DiagonalResetModel) -> np.ndarray:
    """Adjoint action L_u^dag[a] = +i[H_u, a] + sum_b gamma_b (tr(eta_b a) 1 - a)
    of the reset model; TypeError for any other model."""
    if not isinstance(model, DiagonalResetModel):
        raise TypeError(f"model {model!r} provides no adjoint generator")
    energies, resets = _terms(control.u, control.gamma_c, control.gamma_h, model)
    return _from_entries(_adjoint_generator(_entries(np.asarray(a, dtype=complex)), energies, resets), model.dim)


def _adjoint_pass(pi: np.ndarray, control: ControlVector, model) -> tuple[np.ndarray, float | np.ndarray]:
    """L_u^dag[pi - H_u] and the multiplier -tr(L_u^dag[pi - H_u]) / dim that
    keeps the costate traceless, from one adjoint pass."""
    adj = adjoint_generator(np.asarray(pi, dtype=complex) - model.hamiltonian(control.u), control, model)
    return adj, -_real(_trace(adj)) / model.dim


def costate_rhs(pi: np.ndarray, control: ControlVector, model) -> np.ndarray:
    """Costate velocity -(L_u^dag[pi - H_u] + lam 1), lam the multiplier
    `gauge_lambda` gives, taken from the same adjoint pass."""
    adj, lam = _adjoint_pass(pi, control, model)
    return -(adj + np.multiply.outer(lam, np.eye(model.dim, dtype=complex)))


def gauge_lambda(pi: np.ndarray, control: ControlVector, model) -> float | np.ndarray:
    """Multiplier that keeps the costate traceless: -tr(L^dag[pi - H]) / dim."""
    return _adjoint_pass(pi, control, model)[1]


def switching_functional(rho: np.ndarray, pi: np.ndarray, u: np.ndarray | float, model) -> float | np.ndarray:
    """Bang-bang selector: A = <(pi - H_u)(D_h - D_c)[rho]>.

    (D_h - D_c)[rho] = (eta_h - eta_c) tr(rho) for the diagonal Gibbs states
    eta_b, and eta_h - eta_c sums to zero, so A = tr(rho) sum_i (a_ii - a_kk)
    (eta_h - eta_c)_i with a = pi - H_u and k the lowest level of each sample.
    The term of level k, whose populations cancel at a large gap, drops out,
    so A keeps its relative accuracy and its sign at any finite gap.
    """
    rho = np.asarray(rho, dtype=complex)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = model.hamiltonian(u)
    a = np.asarray(pi, dtype=complex) - h
    diag = np.array([a.T[i, i] for i in range(model.dim)])
    lowest = np.argmin([h.T[i, i].real for i in range(model.dim)], axis=0)
    low = np.take_along_axis(diag, lowest[None], 0)[0]
    eta_h, eta_c = model.equilibrium(u, "hot"), model.equilibrium(u, "cold")
    total = _sum((a_ii - low) * (eta_h.T[i, i] - eta_c.T[i, i]) for i, a_ii in enumerate(diag))
    return _real(_trace(rho) * total)


@dataclass(frozen=True)
class TrajectoryNode:
    """One sample of a candidate optimal trajectory.

    `stationarity_residual` also takes a node whose rho, pi and control.u carry
    a leading sample axis, with one pair of damping rates for all samples.
    """

    t: float | np.ndarray
    rho: np.ndarray
    pi: np.ndarray
    control: ControlVector


def conserved_k_residual(nodes: Sequence[TrajectoryNode], K: float, model) -> float:
    """max_t |<(pi - H_u) L_u[rho]> - K| over the sampled nodes.

    K comes from the trajectory metadata; the residual tests consistency of
    the samples against it rather than re-estimating the constant.  On a
    stacked node the maximum also runs over the samples.
    """
    worst = 0.0
    for node in nodes:
        value = pseudo_hamiltonian(node.rho, node.pi, node.control, model)
        worst = max(worst, float(np.max(np.abs(value - K))))
    return worst


def stationarity_residual(node: TrajectoryNode, model) -> float:
    """Gap-control stationarity: max_k |<(pi-H) d_k L[rho]> - <L[rho] d_k H>|.

    Only the Hamiltonian controls enter; the damping rates are set bang-bang
    by the sign of the switching function rather than by a stationarity
    condition.  On a stacked node the maximum also runs over the samples.
    """
    rho, pi, ctrl = np.asarray(node.rho, dtype=complex), node.pi, node.control
    h = model.hamiltonian(ctrl.u)
    dh = model.dh_du(ctrl.u)
    ldot = lindblad_rhs(rho, ctrl, model)
    y = _entries(rho)
    ddiss = [
        rate * model.ddissipator_du(rho, ctrl.u, kind)
        for kind, rate in (("cold", ctrl.gamma_c), ("hot", ctrl.gamma_h))
        if rate > 0.0
    ]
    worst = 0.0
    for k in range(model.n_controls):
        dl = _from_entries(_commutator(y, np.diagonal(dh[k]).real.tolist()), model.dim)
        for d in ddiss:
            dl = dl + d[..., k, :, :]
        lhs = _trace((pi - h) @ dl).real
        rhs = _trace(ldot @ dh[k]).real
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
