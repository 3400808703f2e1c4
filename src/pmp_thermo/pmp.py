"""Costate dynamics and residual checkers for the minimum-principle conditions.

Three conditions characterize a rate-optimal trajectory: the costate evolves
under the adjoint generator with a gauge multiplier keeping it traceless, the
pseudo-Hamiltonian is stationary under the gap control, and its value is a
constant K.  This module evaluates all three on sampled trajectories and
implements the bang-bang bath selector.

The pseudo-Hamiltonian, the switching function, the stationarity residual and
the generator also take stacks: states and costates of shape (..., dim, dim)
with controls of shape (..., n_controls) are evaluated in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import ControlVector, TwoLevelResetModel, _trace, lindblad_rhs
from .two_level import Baths

__all__ = [
    "BathChoice",
    "PmpResiduals",
    "TrajectoryNode",
    "costate_matrix",
    "pseudo_hamiltonian",
    "adjoint_generator",
    "costate_rhs",
    "gauge_lambda",
    "lambda_from_gauge",
    "q_min_formula",
    "switching_functional",
    "switching_functional_scalar",
    "select_bath",
    "conserved_k_residual",
    "stationarity_residual",
    "evaluate_residuals",
]

_FIXED_POINT_TOL = 1e-8
_TIE_TOL = 1e-12


def costate_matrix(q: float) -> np.ndarray:
    """Two-level traceless costate q * (|0><0| - |1><1|)."""
    return np.diag([q, -q]).astype(complex)


def _real(value: complex | np.ndarray) -> float | np.ndarray:
    """Real part of traces: a float for one state; for a stack, an array in the
    stack's axis order, which _trace reverses."""
    value = np.real(value)
    return float(value) if np.ndim(value) == 0 else value.T


def pseudo_hamiltonian(
    rho: np.ndarray, pi: np.ndarray, control: ControlVector, model, lam: float = 0.0
) -> float | np.ndarray:
    """<(pi - H_u) L_u[rho]> + lam * (tr rho - 1); the conserved scalar on optimal arcs."""
    rho = np.asarray(rho, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != rho.shape:
        raise ValueError(f"costate shape {pi.shape} does not match state shape {rho.shape}")
    h = model.hamiltonian(control.u)
    ldot = lindblad_rhs(rho, control, model)
    return _real(_trace((pi - h) @ ldot) + lam * (_trace(rho) - 1.0))


def adjoint_generator(a: np.ndarray, control: ControlVector, model) -> np.ndarray:
    """Adjoint action L_u^dag[a] = +i[H_u, a] + sum_b gamma_b D_b^dag[a]."""
    a = np.asarray(a, dtype=complex)
    h = model.hamiltonian(control.u)
    out = 1j * (h @ a - a @ h)
    if control.gamma_c > 0.0:
        out = out + control.gamma_c * model.adjoint_dissipator(a, control.u, "cold")
    if control.gamma_h > 0.0:
        out = out + control.gamma_h * model.adjoint_dissipator(a, control.u, "hot")
    return out


def costate_rhs(pi: np.ndarray, control: ControlVector, model, lam: float) -> np.ndarray:
    """Costate velocity: -(L_u^dag[pi - H_u] + lam * 1)."""
    pi = np.asarray(pi, dtype=complex)
    if not hasattr(model, "adjoint_dissipator"):
        raise TypeError(f"model {model!r} provides no adjoint generator")
    h = model.hamiltonian(control.u)
    return -(adjoint_generator(pi - h, control, model) + lam * np.eye(model.dim, dtype=complex))


def gauge_lambda(pi: np.ndarray, control: ControlVector, model) -> float:
    """Multiplier that keeps the costate traceless: -tr(L^dag[pi - H]) / dim."""
    h = model.hamiltonian(control.u)
    return -float(np.trace(adjoint_generator(pi - h, control, model)).real) / model.dim


def lambda_from_gauge(pi_dot: np.ndarray, rho_eq: np.ndarray, control: ControlVector | None = None, model=None) -> float:
    """Multiplier read off a costate velocity, lam = -<rho_eq pi_dot>.

    When the generator is supplied, rho_eq is verified to be its fixed point
    (residual below 1e-8) before use.
    """
    rho_eq = np.asarray(rho_eq, dtype=complex)
    pi_dot = np.asarray(pi_dot, dtype=complex)
    if model is not None:
        if control is None:
            raise ValueError("fixed-point validation needs the control vector")
        resid = float(np.max(np.abs(lindblad_rhs(rho_eq, control, model))))
        if resid > _FIXED_POINT_TOL:
            raise ValueError(f"rho_eq is not a fixed point: generator residual {resid:.3e}")
    return -float(np.trace(rho_eq @ pi_dot).real)


def q_min_formula(pi0: np.ndarray, rho0: np.ndarray, pi_tau: np.ndarray, rho_tau: np.ndarray, lambda_integral: float) -> float:
    """Minimum released heat from boundary terms: <pi0 rho0> - <pi_tau rho_tau> - int lam dt."""
    a = float(np.trace(np.asarray(pi0) @ np.asarray(rho0)).real)
    b = float(np.trace(np.asarray(pi_tau) @ np.asarray(rho_tau)).real)
    return a - b - lambda_integral


def switching_functional(rho: np.ndarray, pi: np.ndarray, u: np.ndarray | float, model) -> float | np.ndarray:
    """Bang-bang selector: A = <(pi - H_u)(D_h - D_c)[rho]>."""
    rho = np.asarray(rho, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = model.hamiltonian(u)
    diff = model.dissipator(rho, u, "hot") - model.dissipator(rho, u, "cold")
    return _real(_trace((pi - h) @ diff))


def switching_functional_scalar(p: float, q: float, u: float, baths: Baths) -> float:
    """Two-level closed form of the selector, (2q+u) [n_c(u) - n_h(u)].

    n_b(u) = 1/(1 + e^{beta_b u}) is the excited Gibbs weight, taken from the
    reset model's shifted exponentials, so each weight keeps its relative
    accuracy and the selector its sign at any finite gap.
    """
    model = TwoLevelResetModel(baths)
    n_c, n_h = (float(model.equilibrium(u, kind)[1, 1].real) for kind in ("cold", "hot"))
    return (2.0 * q + u) * (n_c - n_h)


@dataclass(frozen=True)
class BathChoice:
    """Outcome of the bang-bang selection under gamma_c + gamma_h = Gamma."""

    label: str  # "cold" | "hot"
    gamma_c: float
    gamma_h: float


def select_bath(a: float, current: str = "cold", gamma: float = 1.0) -> BathChoice:
    """Full coupling to the cold bath for A > 0, hot for A < 0, sticky at ties.

    A vanishing selector (|A| <= 1e-12) is measure-zero along optimal
    trajectories; switching there is governed by the planner's jump
    conditions, so ties keep the currently active bath.
    """
    if current not in ("cold", "hot"):
        raise ValueError(f"current bath must be 'cold' or 'hot', got {current!r}")
    if a > _TIE_TOL:
        label = "cold"
    elif a < -_TIE_TOL:
        label = "hot"
    else:
        label = current
    if label == "cold":
        return BathChoice(label="cold", gamma_c=gamma, gamma_h=0.0)
    return BathChoice(label="hot", gamma_c=0.0, gamma_h=gamma)


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


@dataclass(frozen=True)
class PmpResiduals:
    """Worst-case deviations from the three optimality conditions."""

    conservation_residual: float
    stationarity_residual: float
    costate_ode_residual: float
    nodes: int

    def to_dict(self) -> dict:
        return {
            "max_conservation": self.conservation_residual,
            "max_stationarity": self.stationarity_residual,
            "max_costate_ode": self.costate_ode_residual,
            "nodes": self.nodes,
        }


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

    Only the Hamiltonian controls enter; the damping rates are handled by the
    bang-bang selector rather than a stationarity condition.  On a stacked
    node the maximum also runs over the samples.
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
        dl = -1j * (dh[k] @ rho - rho @ dh[k])
        for d in ddiss:
            dl = dl + d[..., k, :, :]
        lhs = _trace((pi - h) @ dl).real
        rhs = _trace(ldot @ dh[k]).real
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _fd_derivative(values: np.ndarray, t: np.ndarray, i: int) -> np.ndarray:
    """Fourth-order one-sided/centered derivative on a uniform grid."""
    n = len(t)
    h = t[1] - t[0]
    if 2 <= i <= n - 3:
        return (-values[i + 2] + 8 * values[i + 1] - 8 * values[i - 1] + values[i - 2]) / (12 * h)
    if i < 2:
        return (
            -25 * values[i] + 48 * values[i + 1] - 36 * values[i + 2] + 16 * values[i + 3] - 3 * values[i + 4]
        ) / (12 * h)
    return (
        25 * values[i] - 48 * values[i - 1] + 36 * values[i - 2] - 16 * values[i - 3] + 3 * values[i - 4]
    ) / (12 * h)


def evaluate_residuals(nodes: Sequence[TrajectoryNode], K: float, model) -> PmpResiduals:
    """All three optimality residuals over a uniformly sampled trajectory.

    The costate-equation residual compares a finite-difference time
    derivative of the sampled costate against the adjoint-generator velocity
    with the traceless-gauge multiplier; it needs at least five uniform
    samples and is skipped (reported as 0) on shorter inputs.

    The conserved-rate check presumes all time dependence enters through the
    controls; for a model with explicit time dependence of its own the
    numbers are still computed but carry no optimality meaning.
    """
    cons = conserved_k_residual(nodes, K, model)
    stat = max(stationarity_residual(node, model) for node in nodes)
    ode = 0.0
    if len(nodes) >= 5:
        t = np.array([node.t for node in nodes])
        dt = np.diff(t)
        if dt.size and np.allclose(dt, dt[0], rtol=1e-8, atol=1e-12) and dt[0] > 0:
            pis = np.array([node.pi for node in nodes])
            for i, node in enumerate(nodes):
                lam = gauge_lambda(node.pi, node.control, model)
                expected = costate_rhs(node.pi, node.control, model, lam)
                numeric = _fd_derivative(pis, t, i)
                ode = max(ode, float(np.max(np.abs(numeric - expected))))
    return PmpResiduals(
        conservation_residual=cons,
        stationarity_residual=stat,
        costate_ode_residual=ode,
        nodes=len(nodes),
    )
