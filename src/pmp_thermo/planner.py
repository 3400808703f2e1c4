"""Assemble full optimal protocols in the (p, u) plane and their cycle structure.

A plan is an ordered list of isothermal arcs and instantaneous gap quenches.
Interior quenches switch the active bath and are admissible only at the two
populations where state and costate stay continuous; entry and exit quenches
at the protocol boundary are free because the costate endpoints are not
constrained there.  Among the handful of admissible arc sequences joining
the endpoints, the planner keeps the one releasing the least heat.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from . import pmp
from .lindblad import Protocol, ProtocolPiece, TwoLevelResetModel
from .two_level import (
    COLD,
    HOT,
    Baths,
    Branch,
    IsothermSegment,
    NoJumpPoints,
    adiabatic_f,  # unused here; kept importable as planner.adiabatic_f, which perfbench/tracer.py rebinds
    chi,
    find_jump_points,
    isotherm_p,
    isotherm_q_of_p,
    isotherm_u_of_p,
    isotherm_x_of_p,
    mu,
    segment_from_populations,
    solve_engine,
    xi,
)

__all__ = [
    "AdiabaticJump",
    "TrajectoryPlan",
    "CycleDecomposition",
    "Unreachable",
    "NoCycleExists",
    "DeadlineInfeasible",
    "cycle_decomposition",
    "build_trajectory",
    "monotonicity_profile",
    "plan_for_deadline",
    "sample_plan",
    "plan_to_protocol",
    "plan_nodes",
    "validate_plan",
    "write_plan_json",
    "write_plan_csv",
]

_P_TOL = 1e-13


class Unreachable(Exception):
    """No admissible arc sequence joins the endpoints at this K."""

    def __init__(self, K: float, reason: str):
        super().__init__(f"endpoints unreachable at K={K}: {reason}")
        self.K = K


class NoCycleExists(Exception):
    """K lies below the threshold where branch switches are admissible."""


class DeadlineInfeasible(Exception):
    """Requested duration is shorter than the fastest admissible plan."""

    def __init__(self, tau_target: float, tau_min: float):
        super().__init__(
            f"deadline {tau_target} below the minimal feasible duration {tau_min}"
        )
        self.tau_min = tau_min


@dataclass(frozen=True)
class AdiabaticJump:
    """Instantaneous gap quench at fixed population (zero duration, zero heat).

    kind is "switch" for interior bath switches (admissible only at roots of
    the continuity condition), "entry"/"exit" for the free boundary quenches.
    """

    p: float
    u_from: float
    u_to: float
    from_branch: Branch | None
    to_branch: Branch | None
    kind: str = "switch"


PlanEntry = IsothermSegment | AdiabaticJump


@dataclass(frozen=True)
class TrajectoryPlan:
    """Ordered arcs and quenches joining (p_in, u_in) to (p_out, u_out)."""

    K: float
    baths: Baths
    segments: tuple[PlanEntry, ...]
    n_cycles: int
    p_in: float
    u_in: float
    p_out: float
    u_out: float

    @property
    def endpoints(self) -> tuple[float, float, float, float]:
        return (self.p_in, self.u_in, self.p_out, self.u_out)

    @property
    def arcs(self) -> tuple[IsothermSegment, ...]:
        return tuple(s for s in self.segments if isinstance(s, IsothermSegment))

    @property
    def jumps(self) -> tuple[AdiabaticJump, ...]:
        return tuple(s for s in self.segments if isinstance(s, AdiabaticJump))

    @property
    def switch_jumps(self) -> tuple[AdiabaticJump, ...]:
        return tuple(j for j in self.jumps if j.kind == "switch")

    @property
    def total_time(self) -> float:
        return sum(a.duration for a in self.arcs)

    @property
    def total_heat(self) -> float:
        return sum(a.heat for a in self.arcs)

    @property
    def structure(self) -> tuple[str, ...]:
        out = []
        for s in self.segments:
            if isinstance(s, IsothermSegment):
                out.append(s.branch.kind)
            else:
                out.append(s.kind)
        return tuple(out)

    def continuity_errors(self) -> tuple[float, float]:
        """Worst |dp| and |dq| across interior switches (q from both branches)."""
        worst_dp, worst_dq = 0.0, 0.0
        for j in self.switch_jumps:
            q_from = isotherm_q_of_p(
                j.p,
                mu(self.K, self.baths.beta(j.from_branch.kind), j.from_branch, self.baths.gamma),
                self.baths.beta(j.from_branch.kind),
            )
            q_to = isotherm_q_of_p(
                j.p,
                mu(self.K, self.baths.beta(j.to_branch.kind), j.to_branch, self.baths.gamma),
                self.baths.beta(j.to_branch.kind),
            )
            worst_dq = max(worst_dq, abs(q_from - q_to))
            # p is shared by construction; recompute from both arcs' x to expose drift
            x_from = isotherm_x_of_p(j.p, mu(self.K, self.baths.beta(j.from_branch.kind), j.from_branch, self.baths.gamma))
            x_to = isotherm_x_of_p(j.p, mu(self.K, self.baths.beta(j.to_branch.kind), j.to_branch, self.baths.gamma))
            p_from = isotherm_p(x_from, mu(self.K, self.baths.beta(j.from_branch.kind), j.from_branch, self.baths.gamma))
            p_to = isotherm_p(x_to, mu(self.K, self.baths.beta(j.to_branch.kind), j.to_branch, self.baths.gamma))
            worst_dp = max(worst_dp, abs(p_from - p_to))
        return worst_dp, worst_dq


@dataclass(frozen=True)
class CycleDecomposition:
    """Closed-form pieces of one inner cycle between the two switch populations."""

    K: float
    p_ad1: float
    p_ad2: float
    tau_hot: float
    tau_cold: float
    q_hot: float
    q_cold: float

    @property
    def tau_cycle(self) -> float:
        return self.tau_hot + self.tau_cold

    @property
    def q_cycle(self) -> float:
        return self.q_hot + self.q_cold

    @property
    def rate(self) -> float:
        """Heat per unit time of the cycle; equals K in the degenerate limit."""
        if self.tau_cycle == 0.0:
            return self.K
        return self.q_cycle / self.tau_cycle


def cycle_decomposition(K: float, baths: Baths) -> CycleDecomposition:
    """Inner cycle: hot arc p_ad1 -> p_ad2, quench, cold arc back, quench."""
    try:
        p1, p2 = find_jump_points(K, baths)
    except NoJumpPoints as exc:
        raise NoCycleExists(str(exc)) from exc
    if p2 - p1 <= _P_TOL:
        return CycleDecomposition(K=K, p_ad1=p1, p_ad2=p2, tau_hot=0.0, tau_cold=0.0, q_hot=0.0, q_cold=0.0)
    hot = segment_from_populations(HOT, K, baths, p1, p2)
    cold = segment_from_populations(COLD, K, baths, p2, p1)
    return CycleDecomposition(
        K=K,
        p_ad1=p1,
        p_ad2=p2,
        tau_hot=hot.duration,
        tau_cold=cold.duration,
        q_hot=hot.heat,
        q_cold=cold.heat,
    )


def _u_on(branch: Branch, K: float, baths: Baths, p: float) -> float:
    beta = baths.beta(branch.kind)
    return isotherm_u_of_p(p, mu(K, beta, branch, baths.gamma), beta)


def _other(branch: Branch) -> Branch:
    return HOT if branch.kind == "cold" else COLD


def _direction_ok(branch: Branch, p_from: float, p_to: float) -> bool:
    if branch.kind == "cold":
        return p_from >= p_to - _P_TOL
    return p_to >= p_from - _P_TOL


def _arc_entries(branch: Branch, K: float, baths: Baths, p_from: float, p_to: float) -> list[PlanEntry]:
    """Arc as a plan entry list; zero-length arcs collapse to nothing."""
    if abs(p_from - p_to) <= _P_TOL:
        return []
    return [segment_from_populations(branch, K, baths, p_from, p_to)]


def _switch(branch_from: Branch, K: float, baths: Baths, p: float) -> AdiabaticJump:
    branch_to = _other(branch_from)
    return AdiabaticJump(
        p=p,
        u_from=_u_on(branch_from, K, baths, p),
        u_to=_u_on(branch_to, K, baths, p),
        from_branch=branch_from,
        to_branch=branch_to,
        kind="switch",
    )


def _cycle_entries(start_branch: Branch, start_p: float, K: float, baths: Baths, p1: float, p2: float) -> list[PlanEntry]:
    """One full inner loop beginning and ending at (start_branch, start_p)."""
    entries: list[PlanEntry] = []
    branch, p = start_branch, start_p
    for _ in range(4):
        if branch.kind == "hot":
            if abs(p - p1) <= _P_TOL:
                entries.extend(_arc_entries(HOT, K, baths, p1, p2))
                branch, p = HOT, p2
            else:
                entries.append(_switch(HOT, K, baths, p2))
                branch, p = COLD, p2
        else:
            if abs(p - p2) <= _P_TOL:
                entries.extend(_arc_entries(COLD, K, baths, p2, p1))
                branch, p = COLD, p1
            else:
                entries.append(_switch(COLD, K, baths, p1))
                branch, p = HOT, p1
    return entries


def _first_touch(branch: Branch, p_from: float, p_to: float, jump_ps: tuple[float, float] | None) -> float | None:
    """Earliest switch population met while riding the arc p_from -> p_to."""
    if jump_ps is None:
        return None
    lo, hi = min(p_from, p_to), max(p_from, p_to)
    inside = [p for p in jump_ps if lo - _P_TOL <= p <= hi + _P_TOL]
    if not inside:
        return None
    # cold arcs descend in p, hot arcs ascend
    return max(inside) if branch.kind == "cold" else min(inside)


def _assemble(
    K: float,
    baths: Baths,
    p_in: float,
    u_in: float,
    p_out: float,
    u_out: float,
    legs: list[tuple[Branch, float, float]],
    switches: list[tuple[Branch, float]],
    n_cycles: int,
    jumps: tuple[float, float] | None,
) -> TrajectoryPlan | None:
    """Build one candidate plan from its leg list, inserting requested cycles."""
    entries: list[PlanEntry] = []
    cycles_placed = n_cycles == 0
    try:
        for i, (branch, p_a, p_b) in enumerate(legs):
            if not _direction_ok(branch, p_a, p_b):
                return None
            if not cycles_placed:
                touch = _first_touch(branch, p_a, p_b, jumps)
                if touch is not None:
                    entries.extend(_arc_entries(branch, K, baths, p_a, touch))
                    loop = _cycle_entries(branch, touch, K, baths, *jumps)
                    for _ in range(n_cycles):
                        entries.extend(loop)
                    entries.extend(_arc_entries(branch, K, baths, touch, p_b))
                    cycles_placed = True
                else:
                    entries.extend(_arc_entries(branch, K, baths, p_a, p_b))
            else:
                entries.extend(_arc_entries(branch, K, baths, p_a, p_b))
            if i < len(switches):
                sw_branch, sw_p = switches[i]
                entries.append(_switch(sw_branch, K, baths, sw_p))
    except ValueError:
        return None
    if not cycles_placed:
        return None

    first_branch = legs[0][0]
    last_branch = legs[-1][0]
    u_start = _u_on(first_branch, K, baths, p_in)
    u_end = _u_on(last_branch, K, baths, p_out)
    if abs(u_start - u_in) > 1e-12:
        entries.insert(
            0,
            AdiabaticJump(p=p_in, u_from=u_in, u_to=u_start, from_branch=None, to_branch=first_branch, kind="entry"),
        )
    if abs(u_end - u_out) > 1e-12:
        entries.append(
            AdiabaticJump(p=p_out, u_from=u_end, u_to=u_out, from_branch=last_branch, to_branch=None, kind="exit"),
        )
    return TrajectoryPlan(
        K=K, baths=baths, segments=tuple(entries), n_cycles=n_cycles,
        p_in=p_in, u_in=u_in, p_out=p_out, u_out=u_out,
    )


def _candidate_plans(
    K: float,
    baths: Baths,
    p_in: float,
    u_in: float,
    p_out: float,
    u_out: float,
    n_cycles: int,
    jumps: tuple[float, float] | None,
) -> list[TrajectoryPlan]:
    candidates: list[TrajectoryPlan] = []
    for branch in (COLD, HOT):
        plan = _assemble(K, baths, p_in, u_in, p_out, u_out, [(branch, p_in, p_out)], [], n_cycles, jumps)
        if plan is not None:
            candidates.append(plan)
    if jumps is not None:
        for branch in (COLD, HOT):
            for pj in dict.fromkeys(jumps):  # dedupe coincident points, keep order
                legs = [(branch, p_in, pj), (_other(branch), pj, p_out)]
                plan = _assemble(K, baths, p_in, u_in, p_out, u_out, legs, [(branch, pj)], n_cycles, jumps)
                if plan is not None:
                    candidates.append(plan)
    return candidates


def build_trajectory(
    p_in: float,
    u_in: float,
    p_out: float,
    u_out: float,
    K: float,
    n_cycles: int = 0,
    baths: Baths | None = None,
    _jumps: tuple[float, float] | None = None,
) -> TrajectoryPlan:
    """Minimum-heat admissible plan joining the endpoints at conserved rate K.

    All admissible arc sequences (two direct ones and up to four routed
    through a switch population) are enumerated exhaustively and the one
    releasing the least heat wins; ties go to the plan with fewer entries.
    Raises Unreachable when no sequence honors the branch flow directions,
    or when cycles are requested but no switch population is crossed.
    """
    baths = baths or Baths()
    if not (0.0 < p_in < 1.0 and 0.0 < p_out < 1.0):
        raise ValueError("populations must lie strictly inside (0, 1)")
    if K >= 0.0:
        raise ValueError(f"planning requires K < 0, got {K} (K = 0 is the quasi-static limit)")
    if n_cycles < 0:
        raise ValueError(f"cycle count must be non-negative, got {n_cycles}")

    if abs(p_in - p_out) <= _P_TOL and abs(u_in - u_out) <= 1e-12 and n_cycles == 0:
        return TrajectoryPlan(
            K=K, baths=baths, segments=(), n_cycles=0,
            p_in=p_in, u_in=u_in, p_out=p_out, u_out=u_out,
        )

    if _jumps is None:
        try:
            _jumps = find_jump_points(K, baths)
        except NoJumpPoints:
            _jumps = None
    candidates = _candidate_plans(K, baths, p_in, u_in, p_out, u_out, n_cycles, _jumps)
    if not candidates:
        if _jumps is None:
            raise Unreachable(K, "no switch populations exist and no single arc joins the endpoints")
        raise Unreachable(K, "no admissible arc sequence honors the flow directions")
    candidates.sort(key=lambda plan: (plan.total_heat, len(plan.segments)))
    return candidates[0]


def monotonicity_profile(
    K_grid: Sequence[float],
    branch: Branch,
    p0: float,
    p1: float,
    baths: Baths | None = None,
    rel_step: float = 1e-5,
) -> list[dict]:
    """Sensitivity of arc duration and heat to K at fixed endpoint populations.

    Rows carry the closed-form derivatives, d(tau)/dK = [atan x1 - atan x0]
    / (gamma K mu) and dQ/dK = K d(tau)/dK, next to central finite
    differences of the arc formulas.
    """
    baths = baths or Baths()
    beta = baths.beta(branch.kind)
    rows = []
    for K in K_grid:
        mu_val = mu(K, beta, branch, baths.gamma)
        x0 = isotherm_x_of_p(p0, mu_val)
        x1 = isotherm_x_of_p(p1, mu_val)
        dtau_analytic = (math.atan(x1) - math.atan(x0)) / (baths.gamma * K * mu_val)
        dq_analytic = K * dtau_analytic
        h = rel_step * abs(K)
        seg_plus = segment_from_populations(branch, K + h, baths, p0, p1)
        seg_minus = segment_from_populations(branch, K - h, baths, p0, p1)
        rows.append(
            {
                "K": K,
                "dtau_dK_analytic": dtau_analytic,
                "dtau_dK_numeric": (seg_plus.duration - seg_minus.duration) / (2 * h),
                "dQ_dK_analytic": dq_analytic,
                "dQ_dK_numeric": (seg_plus.heat - seg_minus.heat) / (2 * h),
            }
        )
    return rows


class _DeadlinePricer:
    """Memoized (tau, Q) evaluator for deadline planning.

    Candidate selection is independent of the cycle count (every candidate
    shifts by the same N * cycle terms), so one zero-cycle build plus the
    cycle closed forms price every N at a given K.  Each part is built on
    first use, as most Ks are priced for one cycle count only.
    """

    def __init__(self, p_in: float, u_in: float, p_out: float, u_out: float, baths: Baths):
        self.args = (p_in, u_in, p_out, u_out)
        self.baths = baths
        self._jumps: dict[float, tuple[float, float] | None] = {}
        self._tau0: dict[float, float] = {}
        self._cycles: dict[float, tuple[float, float] | None] = {}

    def jumps(self, K: float) -> tuple[float, float] | None:
        if K not in self._jumps:
            try:
                self._jumps[K] = find_jump_points(K, self.baths)
            except NoJumpPoints:
                self._jumps[K] = None
        return self._jumps[K]

    def cycle_terms(self, K: float) -> tuple[float, float] | None:
        """(tau_arcs, tau_cyc) with tau(K, N) = tau_arcs + N tau_cyc for N >= 1."""
        if K not in self._cycles:
            jumps = self.jumps(K)
            terms = None
            if jumps is not None:
                base1 = self.plan(K, 1)
                if base1 is not None:
                    p1, p2 = jumps
                    hot = segment_from_populations(HOT, K, self.baths, p1, p2)
                    cold = segment_from_populations(COLD, K, self.baths, p2, p1)
                    tau_cyc = hot.duration + cold.duration
                    terms = (base1.total_time - tau_cyc, tau_cyc)
            self._cycles[K] = terms
        return self._cycles[K]

    def tau(self, K: float, n: int) -> float:
        if n == 0:
            if K not in self._tau0:
                plan0 = self.plan(K, 0)
                self._tau0[K] = plan0.total_time if plan0 is not None else math.nan
            return self._tau0[K]
        terms = self.cycle_terms(K)
        if terms is None:
            return math.nan
        tau_arcs, tau_cyc = terms
        return tau_arcs + n * tau_cyc

    def plan(self, K: float, n: int) -> TrajectoryPlan | None:
        try:
            return build_trajectory(*self.args, K, n, self.baths, _jumps=self.jumps(K))
        except Unreachable:
            return None


def plan_for_deadline(
    p_in: float,
    u_in: float,
    p_out: float,
    u_out: float,
    tau_target: float,
    baths: Baths | None = None,
    max_cycles: int = 1024,
    tau_rtol: float = 1e-9,
) -> TrajectoryPlan:
    """Minimum-heat plan meeting an exact total duration.

    At a fixed cycle count N the duration tau(K, N) = tau_arcs(K) + N
    tau_cyc(K) rises with K, so K is pinned by a bracketed root solve.  The
    largest N that fits the deadline is read from that closed form at a
    floor k_c = K*(1 - r) on K, capped at max_cycles.  Close to K* the
    deadline equation is ill-conditioned in K (one ulp of K can move tau by
    more than the tolerance), so when the plan solved at that N misses the
    deadline, r grows fourfold and N is read again.  The plan found this way
    and the zero-cycle plan compete: the smaller heat wins, ties go to the
    larger N.
    """
    if max_cycles < 0:
        raise ValueError(f"max_cycles must be non-negative, got {max_cycles}")
    baths = baths or Baths()
    sol = solve_engine(baths.z, beta_c=baths.beta_c, gamma=baths.gamma)
    k_floor = sol.K_star * (1.0 - 1e-9)  # just above the tangency
    pricer = _DeadlinePricer(p_in, u_in, p_out, u_out, baths)

    tau_min = pricer.tau(k_floor, 0)
    if math.isnan(tau_min):
        raise Unreachable(k_floor, "endpoints unreachable even at the fastest admissible rate")
    if tau_target < tau_min * (1.0 - 1e-12):
        raise DeadlineInfeasible(tau_target, tau_min)
    tau_hi = tau_target * (1.0 + tau_rtol)

    def solve(n: int, k_lo: float) -> TrajectoryPlan | None:
        """Plan with n cycles at the K >= k_lo where it meets the deadline."""
        lo_tau = pricer.tau(k_lo, n)
        if math.isnan(lo_tau) or lo_tau > tau_hi:
            return None
        if abs(lo_tau - tau_target) <= tau_rtol * tau_target:
            k_sol = k_lo
        else:
            k_hi, hi_tau = k_lo, lo_tau
            for _ in range(200):
                if math.isnan(hi_tau) or hi_tau >= tau_target:
                    break
                k_hi *= 0.6
                hi_tau = pricer.tau(k_hi, n)
            if math.isnan(hi_tau):
                return None
            if abs(hi_tau - tau_target) <= tau_rtol * tau_target:
                k_sol = k_hi
            elif hi_tau < tau_target:
                return None
            else:

                def gap(K: float) -> float:
                    t = pricer.tau(K, n)
                    return t - tau_target if not math.isnan(t) else math.inf

                # K to a few ulps: relative to K*, so the solve is the same at any unit scale
                k_sol = float(brentq(gap, k_lo, k_hi, xtol=1e-15 * abs(sol.K_star), rtol=8.9e-16))
        plan = pricer.plan(k_sol, n)
        if plan is None or abs(plan.total_time - tau_target) > max(tau_rtol * tau_target, 1e-9):
            return None
        return plan

    best = solve(0, k_floor)
    r, n_missed = 1e-9, max_cycles + 1
    while max_cycles > 0 and r < 1.0:
        k_c = sol.K_star * (1.0 - r)
        r *= 4.0
        terms = pricer.cycle_terms(k_c)
        if terms is None:
            break
        tau_arcs, tau_cyc = terms
        n = max_cycles if tau_cyc == 0.0 else int(min(max_cycles, (tau_hi - tau_arcs) // tau_cyc))
        if n < 1:
            break
        if n == n_missed:  # same equation, same ill-conditioned root
            continue
        plan = solve(n, k_c)
        if plan is not None:
            if best is None or plan.total_heat <= best.total_heat:
                best = plan
            break
        n_missed = n
    if best is None:
        raise DeadlineInfeasible(tau_target, tau_min)
    return best


def _x_at_times(seg: IsothermSegment, baths: Baths, local_t: np.ndarray) -> np.ndarray:
    """Invert the time potential chi along one arc for an array of offsets."""
    beta = baths.beta(seg.branch.kind)
    mu_val = mu(seg.K, beta, seg.branch, baths.gamma)
    c0 = chi(seg.x0, mu_val)
    lo, hi = min(seg.x0, seg.x1), max(seg.x0, seg.x1)
    out = np.empty_like(local_t)
    for i, dt in enumerate(local_t):
        if dt <= 0.0:
            out[i] = seg.x0
            continue
        if dt >= seg.duration:
            out[i] = seg.x1
            continue
        target = c0 + baths.gamma * dt
        out[i] = brentq(lambda x: chi(x, mu_val) - target, lo, hi, xtol=1e-14)
    return out


@dataclass(frozen=True)
class PlanSamples:
    """Uniform time series along a plan, suitable for export and re-plotting."""

    t: np.ndarray
    u: np.ndarray
    p: np.ndarray
    q: np.ndarray
    branch: np.ndarray  # "cold" / "hot" strings
    q_cum: np.ndarray


def _arc_rows(seg: IsothermSegment, baths: Baths, samples: int) -> list[tuple[float, float, float, float, float]]:
    """(local t, u, p, q, heat since arc start) on a uniform grid along one arc."""
    beta = baths.beta(seg.branch.kind)
    mu_val = mu(seg.K, beta, seg.branch, baths.gamma)
    local = np.linspace(0.0, seg.duration, max(samples, 2))
    xi0 = xi(seg.x0, mu_val)
    rows = []
    for dt, x in zip(local, _x_at_times(seg, baths, local)):
        u_val = (2.0 / beta) * math.log(x)
        q = 0.5 * ((mu_val / beta) * (1.0 + x * x) / x - u_val)
        rows.append((dt, u_val, isotherm_p(x, mu_val), q, (xi(x, mu_val) - xi0) / beta))
    return rows


def _rows_by_arc(plan: TrajectoryPlan, samples: int) -> dict[IsothermSegment, list[tuple]]:
    """Rows of each distinct arc of the plan; repeated cycles share their arcs."""
    rows: dict[IsothermSegment, list[tuple]] = {}
    for entry in plan.segments:
        if isinstance(entry, IsothermSegment) and entry not in rows:
            rows[entry] = _arc_rows(entry, plan.baths, samples)
    return rows


def sample_plan(plan: TrajectoryPlan, samples_per_segment: int = 1000) -> PlanSamples:
    """Sample every arc on a uniform local grid; quenches contribute twin points."""
    ts, us, ps, qs, brs, qcums = [], [], [], [], [], []
    t0 = 0.0
    heat_acc = 0.0
    rows = _rows_by_arc(plan, samples_per_segment)
    for entry in plan.segments:
        if isinstance(entry, AdiabaticJump):
            branch_label = (entry.to_branch or entry.from_branch or COLD).kind
            for u_val in (entry.u_from, entry.u_to):
                ts.append(t0)
                us.append(u_val)
                ps.append(entry.p)
                qs.append(_q_at(plan, entry, u_val))
                brs.append(branch_label)
                qcums.append(heat_acc)
            continue
        for dt, u_val, p, q, dq in rows[entry]:
            ts.append(t0 + dt)
            us.append(u_val)
            ps.append(p)
            qs.append(q)
            brs.append(entry.branch.kind)
            qcums.append(heat_acc + dq)
        t0 += entry.duration
        heat_acc += entry.heat
    return PlanSamples(
        t=np.array(ts),
        u=np.array(us),
        p=np.array(ps),
        q=np.array(qs),
        branch=np.array(brs),
        q_cum=np.array(qcums),
    )


def _q_at(plan: TrajectoryPlan, jump: AdiabaticJump, u_val: float) -> float:
    """Costate at a quench endpoint: from the adjacent arc when one exists."""
    branch = jump.from_branch if u_val == jump.u_from else jump.to_branch
    if branch is None:
        branch = jump.to_branch or jump.from_branch
    if branch is None:
        return 0.0
    beta = plan.baths.beta(branch.kind)
    return isotherm_q_of_p(jump.p, mu(plan.K, beta, branch, plan.baths.gamma), beta)


def _arc_controls(seg: IsothermSegment, baths: Baths, t_start: float) -> tuple[Callable, Callable]:
    """Exact u(t) and du/dt callables for one arc starting at global time t_start."""
    beta = baths.beta(seg.branch.kind)
    mu_val = mu(seg.K, beta, seg.branch, baths.gamma)
    c0 = chi(seg.x0, mu_val)
    lo, hi = min(seg.x0, seg.x1), max(seg.x0, seg.x1)
    gamma = baths.gamma

    def x_of_t(t: float) -> float:
        dt = min(max(t - t_start, 0.0), seg.duration)
        if dt <= 0.0:
            return seg.x0
        if dt >= seg.duration:
            return seg.x1
        target = c0 + gamma * dt
        return brentq(lambda xx: chi(xx, mu_val) - target, lo, hi, xtol=1e-14)

    def u_of_t(t: float) -> float:
        return (2.0 / beta) * math.log(x_of_t(t))

    def dudt_of_t(t: float) -> float:
        x = x_of_t(t)
        denom = x * x - 2.0 * x / mu_val - 1.0
        return (2.0 * gamma / beta) * (x * x + 1.0) / denom

    return u_of_t, dudt_of_t


def plan_to_protocol(plan: TrajectoryPlan) -> Protocol:
    """Control schedule of the plan for the forward simulator.

    Quenches collapse into piece boundaries; each arc carries the exact
    control velocity so work quadrature stays at integrator order.
    """
    pieces: list[ProtocolPiece] = []
    t0 = 0.0
    baths = plan.baths
    for entry in plan.segments:
        if isinstance(entry, AdiabaticJump):
            continue
        u_of_t, dudt_of_t = _arc_controls(entry, baths, t0)
        pieces.append(
            ProtocolPiece(
                duration=entry.duration,
                u=u_of_t,
                gamma_c=baths.gamma if entry.branch.kind == "cold" else 0.0,
                gamma_h=baths.gamma if entry.branch.kind == "hot" else 0.0,
                dudt=dudt_of_t,
            )
        )
        t0 += entry.duration
    return Protocol(pieces=pieces)


def plan_nodes(plan: TrajectoryPlan, samples_per_segment: int = 50) -> list[pmp.TrajectoryNode]:
    """Uniformly sampled (rho, pi, control) nodes for the residual checkers."""
    nodes: list[pmp.TrajectoryNode] = []
    t0 = 0.0
    rows = _rows_by_arc(plan, samples_per_segment)
    for entry in plan.segments:
        if isinstance(entry, AdiabaticJump):
            continue
        ctrl_kwargs = (
            {"gamma_c": plan.baths.gamma, "gamma_h": 0.0}
            if entry.branch.kind == "cold"
            else {"gamma_c": 0.0, "gamma_h": plan.baths.gamma}
        )
        for dt, u_val, p, q, _ in rows[entry]:
            nodes.append(
                pmp.TrajectoryNode(
                    t=t0 + dt,
                    rho=np.diag([1.0 - p, p]).astype(complex),
                    pi=pmp.costate_matrix(q),
                    control=pmp.ControlVector(u=np.array([u_val]), **ctrl_kwargs),
                )
            )
        t0 += entry.duration
    return nodes


def validate_plan(plan: TrajectoryPlan, samples_per_segment: int = 200) -> dict:
    """Continuity, bang-bang sign consistency and PMP residuals of a plan."""
    model = TwoLevelResetModel(plan.baths)
    dp, dq = plan.continuity_errors()
    worst_sign = 0.0
    nodes = plan_nodes(plan, samples_per_segment)
    cons = pmp.conserved_k_residual(nodes, plan.K, model)
    stat = max((pmp.stationarity_residual(n, model) for n in nodes), default=0.0)
    for node in nodes:
        a = pmp.switching_functional(node.rho, node.pi, node.control.u, model)
        on_cold = node.control.gamma_c > 0.0
        # cold arcs need A >= 0, hot arcs A <= 0, up to a tie tolerance
        violation = max(0.0, -a) if on_cold else max(0.0, a)
        worst_sign = max(worst_sign, violation)
    return {
        "max_dp": dp,
        "max_dq": dq,
        "max_conservation": cons,
        "max_stationarity": stat,
        "max_bang_bang_violation": worst_sign,
        "nodes": len(nodes),
    }


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def plan_to_dict(plan: TrajectoryPlan) -> dict:
    entries = []
    for entry in plan.segments:
        if isinstance(entry, IsothermSegment):
            entries.append(
                {
                    "type": "isotherm",
                    "branch": entry.branch.kind,
                    "x0": entry.x0,
                    "x1": entry.x1,
                    "duration": entry.duration,
                    "heat": entry.heat,
                }
            )
        else:
            entries.append(
                {
                    "type": "jump",
                    "kind": entry.kind,
                    "p": entry.p,
                    "u_from": entry.u_from,
                    "u_to": entry.u_to,
                    "from_branch": entry.from_branch.kind if entry.from_branch else None,
                    "to_branch": entry.to_branch.kind if entry.to_branch else None,
                }
            )
    return {
        "K": plan.K,
        "z": plan.baths.z,
        "beta_c": plan.baths.beta_c,
        "gamma": plan.baths.gamma,
        "n_cycles": plan.n_cycles,
        "endpoints": {
            "p_in": plan.p_in,
            "u_in": plan.u_in,
            "p_out": plan.p_out,
            "u_out": plan.u_out,
        },
        "total_time": plan.total_time,
        "total_heat": plan.total_heat,
        "segments": entries,
    }


def write_plan_json(plan: TrajectoryPlan, fileobj: io.TextIOBase) -> None:
    json.dump(plan_to_dict(plan), fileobj, indent=2, sort_keys=True)
    fileobj.write("\n")


def write_plan_csv(plan: TrajectoryPlan, fileobj: io.TextIOBase, samples_per_segment: int = 1000) -> None:
    """Time series `t,u,p,q,branch,Qcum` at 15 significant digits."""
    samples = sample_plan(plan, samples_per_segment)
    fileobj.write(
        f"# units: time 1/gamma (gamma={_fmt(plan.baths.gamma)}), "
        f"energy 1/beta_c (beta_c={_fmt(plan.baths.beta_c)}); K={_fmt(plan.K)}\n"
    )
    fileobj.write("t,u,p,q,branch,Qcum\n")
    for i in range(samples.t.size):
        fileobj.write(
            ",".join(
                [
                    _fmt(samples.t[i]),
                    _fmt(samples.u[i]),
                    _fmt(samples.p[i]),
                    _fmt(samples.q[i]),
                    str(samples.branch[i]),
                    _fmt(samples.q_cum[i]),
                ]
            )
            + "\n"
        )
