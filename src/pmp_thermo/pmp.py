"""Costate dynamics and residual checkers for the minimum-principle conditions.

Three conditions characterize a rate-optimal trajectory: the costate evolves
under the adjoint generator with a gauge multiplier keeping it traceless, the
pseudo-Hamiltonian is stationary under the gap control, and its value is a
constant K.  This module gives the costate velocity, the pseudo-Hamiltonian,
the bang-bang switching function and the residuals of the last two
conditions; `arc_residuals` computes them all from one pass over a sampled
arc, which `planner.validate_plan` runs once per distinct arc.

Every function also takes stacks: states and costates of shape
(..., dim, dim) with controls of shape (..., n_controls) are evaluated in one
array pass, and each state of a stack gets the bits it gets alone.  The
commutator with the diagonal H_u or dH/du, the reset map, its adjoint and its
gap derivative are taken entry by entry with `lindblad`'s kernels, which the
forward simulation runs too.
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
    _generator,
    _sum,
    _terms,
    _trace,
    lindblad_rhs,  # unused here; kept as pmp.lindblad_rhs, which perfbench/tracer.py rebinds
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
    "arc_residuals",
]


def _real(value: complex | np.ndarray) -> float | np.ndarray:
    """Real part of traces: a float for one state, for a stack an array in the stack's axis order."""
    value = np.real(value)
    return float(value) if np.ndim(value) == 0 else value.T


def _pass(rho: np.ndarray | None, pi: np.ndarray, control: ControlVector, model) -> tuple[list | None, list, list, list]:
    """One `_terms` pass for a state (None for none) and costate: the entries of rho and
    of a = pi - H_u, the energies [0, *u] and the coupled baths (gamma_b, eta_b);
    TypeError for a model other than the reset model."""
    if not isinstance(model, DiagonalResetModel):
        raise TypeError(f"model {model!r} is not a DiagonalResetModel")
    pi = np.asarray(pi, dtype=complex)
    if rho is not None and np.shape(rho) != pi.shape:
        raise ValueError(f"costate shape {pi.shape} does not match state shape {np.shape(rho)}")
    energies, resets = _terms(control.u, control.gamma_c, control.gamma_h, model)
    y = None if rho is None else _entries(np.asarray(rho, dtype=complex))
    return y, _entries(pi - model.hamiltonian(control.u)), energies, resets


def pseudo_hamiltonian(rho: np.ndarray, pi: np.ndarray, control: ControlVector, model) -> float | np.ndarray:
    """<(pi - H_u) L_u[rho]>; the conserved scalar on optimal arcs."""
    y, a, energies, resets = _pass(rho, pi, control, model)
    return _real(_trace(_from_entries(a, model.dim) @ _from_entries(_generator(y, energies, resets), model.dim)))


def adjoint_generator(a: np.ndarray, control: ControlVector, model: DiagonalResetModel) -> np.ndarray:
    """Adjoint action L_u^dag[a] = +i[H_u, a] + sum_b gamma_b (tr(eta_b a) 1 - a)
    of the reset model; TypeError for any other model."""
    if not isinstance(model, DiagonalResetModel):
        raise TypeError(f"model {model!r} provides no adjoint generator")
    energies, resets = _terms(control.u, control.gamma_c, control.gamma_h, model)
    return _from_entries(_adjoint_generator(_entries(np.asarray(a, dtype=complex)), energies, resets), model.dim)


def _costate(a: list, energies: list, resets: list, dim: int) -> tuple[np.ndarray, float | np.ndarray]:
    """The costate velocity -(L_u^dag[a] + lam 1) of a = pi - H_u and the multiplier
    lam = -tr(L_u^dag[a]) / dim that keeps the costate traceless, from one adjoint pass."""
    adj = _from_entries(_adjoint_generator(a, energies, resets), dim)
    lam = -_real(_trace(adj)) / dim
    return -(adj + np.multiply.outer(lam, np.eye(dim, dtype=complex))), lam


def costate_rhs(pi: np.ndarray, control: ControlVector, model) -> np.ndarray:
    """Costate velocity -(L_u^dag[pi - H_u] + lam 1), lam the multiplier
    `gauge_lambda` gives, taken from the same adjoint pass."""
    return _costate(*_pass(None, pi, control, model)[1:], model.dim)[0]


def gauge_lambda(pi: np.ndarray, control: ControlVector, model) -> float | np.ndarray:
    """Multiplier that keeps the costate traceless: -tr(L^dag[pi - H]) / dim."""
    return _costate(*_pass(None, pi, control, model)[1:], model.dim)[1]


def switching_functional(rho: np.ndarray, pi: np.ndarray, u: np.ndarray | float, model) -> float | np.ndarray:
    """Bang-bang selector: A = <(pi - H_u)(D_h - D_c)[rho]>; TypeError for a model
    other than the reset model.

    (D_h - D_c)[rho] = (eta_h - eta_c) tr(rho) for the diagonal Gibbs states
    eta_b, and eta_h - eta_c sums to zero, so A = tr(rho) sum_i (a_ii - a_kk)
    (eta_h - eta_c)_i with a = pi - H_u and k the lowest level of each sample.
    The term of level k, whose populations cancel at a large gap, drops out,
    so A keeps its relative accuracy and its sign at any finite gap.
    """
    if not isinstance(model, DiagonalResetModel):
        raise TypeError(f"model {model!r} is not a DiagonalResetModel")
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

    The residual checkers also take a node whose rho, pi and control.u carry a
    leading sample axis, with one pair of damping rates for all samples.
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
    return max([0.0] + [float(np.max(np.abs(pseudo_hamiltonian(n.rho, n.pi, n.control, model) - K))) for n in nodes])


def _stationarity(y: list, a: np.ndarray, ldot: list, resets: list, control: ControlVector, model) -> float:
    """max_k |<a d_k L[rho]> - <L[rho] d_k H>| from rho's entries, a = pi - H_u and
    ldot = L_u[rho]'s entries.  d_k H projects on level k, so <L[rho] d_k H> is
    ldot's entry (k, k), and d_k D_b[rho] = diag(beta_b eta_i (eta_k - delta_ik)) tr(rho)."""
    dim, n = model.dim, model.dim**2
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
        worst = max(worst, float(np.max(np.abs(_trace(a @ _from_entries(dl, dim)).real - ldot[k * (dim + 1)]))))
    return worst


def stationarity_residual(node: TrajectoryNode, model) -> float:
    """Gap-control stationarity: max_k |<(pi-H) d_k L[rho]> - <L[rho] d_k H>|.

    Only the Hamiltonian controls enter; the damping rates are set bang-bang
    by the sign of the switching function rather than by a stationarity
    condition.  On a stacked node the maximum also runs over the samples.
    """
    y, a, energies, resets = _pass(node.rho, node.pi, node.control, model)
    return _stationarity(y, _from_entries(a, model.dim), _generator(y, energies, resets), resets, node.control, model)


def arc_residuals(node: TrajectoryNode, K: float, model) -> tuple[float, float, np.ndarray, float | np.ndarray]:
    """`conserved_k_residual([node], K)`, `stationarity_residual(node)`, and the
    `costate_rhs` and `switching_functional` values of a node, from one `_terms` pass."""
    y, a, energies, resets = _pass(node.rho, node.pi, node.control, model)
    ldot, a_mat = _generator(y, energies, resets), _from_entries(a, model.dim)
    conservation = float(np.max(np.abs(_real(_trace(a_mat @ _from_entries(ldot, model.dim))) - K)))
    stationarity = _stationarity(y, a_mat, ldot, resets, node.control, model)
    pi_dot = _costate(a, energies, resets, model.dim)[0]
    return conservation, stationarity, pi_dot, switching_functional(node.rho, node.pi, node.control.u, model)
