"""Costate dynamics and residual checkers for the minimum-principle conditions.

Three conditions characterize a rate-optimal trajectory: the costate evolves
under the adjoint generator with a gauge multiplier keeping it traceless, the
pseudo-Hamiltonian is stationary under the gap control, and its value is a
constant K.  This module gives the costate velocity, the pseudo-Hamiltonian,
the bang-bang switching function and the residuals of the last two
conditions; `planner.validate_plan` checks all three on every sampled arc.

Every function also takes stacks: states and costates of shape
(..., dim, dim) with controls of shape (..., n_controls) are evaluated in one
array pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import ControlVector, _sum, _trace, lindblad_rhs

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


def _diag_commutator(d: np.ndarray, a: np.ndarray) -> np.ndarray:
    """[D, a] for the diagonal matrix D (or stack) d: D_ii a_ij - a_ij D_jj entry
    by entry, which has the values of the matrix form D a - a D."""
    e = np.diagonal(d, axis1=-2, axis2=-1)
    return e[..., :, None] * a - a * e[..., None, :]


def adjoint_generator(a: np.ndarray, control: ControlVector, model) -> np.ndarray:
    """Adjoint action L_u^dag[a] = +i[H_u, a] + sum_b gamma_b D_b^dag[a], for the
    reset model's diagonal H_u."""
    a = np.asarray(a, dtype=complex)
    out = 1j * _diag_commutator(model.hamiltonian(control.u), a)
    if control.gamma_c > 0.0:
        out = out + control.gamma_c * model.adjoint_dissipator(a, control.u, "cold")
    if control.gamma_h > 0.0:
        out = out + control.gamma_h * model.adjoint_dissipator(a, control.u, "hot")
    return out


def costate_rhs(pi: np.ndarray, control: ControlVector, model, lam: float | np.ndarray) -> np.ndarray:
    """Costate velocity: -(L_u^dag[pi - H_u] + lam * 1); lam has the stack's shape."""
    pi = np.asarray(pi, dtype=complex)
    if not hasattr(model, "adjoint_dissipator"):
        raise TypeError(f"model {model!r} provides no adjoint generator")
    h = model.hamiltonian(control.u)
    return -(adjoint_generator(pi - h, control, model) + np.multiply.outer(lam, np.eye(model.dim, dtype=complex)))


def gauge_lambda(pi: np.ndarray, control: ControlVector, model) -> float | np.ndarray:
    """Multiplier that keeps the costate traceless: -tr(L^dag[pi - H]) / dim."""
    h = model.hamiltonian(control.u)
    return -_real(_trace(adjoint_generator(pi - h, control, model))) / model.dim


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
    rho, pi, ctrl = node.rho, node.pi, node.control
    h = model.hamiltonian(ctrl.u)
    dh = model.dh_du(ctrl.u)
    ldot = lindblad_rhs(rho, ctrl, model)
    ddiss = [
        rate * model.ddissipator_du(rho, ctrl.u, kind)
        for kind, rate in (("cold", ctrl.gamma_c), ("hot", ctrl.gamma_h))
        if rate > 0.0
    ]
    worst = 0.0
    for k in range(model.n_controls):
        dl = -1j * _diag_commutator(dh[k], rho)
        for d in ddiss:
            dl = dl + d[..., k, :, :]
        lhs = _trace((pi - h) @ dl).real
        rhs = _trace(ldot @ dh[k]).real
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
