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
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import pmp
from ._roots import brentq
from .lindblad import Protocol, ProtocolPiece, TwoLevelResetModel, _sum
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
    _q_of_x,
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
    """No admissible plan meets the requested duration: it is shorter than the
    fastest plan, or (far above it) the search in K found none that meets it."""

    def __init__(self, tau_target: float, tau_min: float):
        if tau_target < tau_min:
            message = f"deadline {tau_target} below the minimal feasible duration {tau_min}"
        else:
            message = f"no plan met the deadline {tau_target} (minimal feasible duration {tau_min})"
        super().__init__(message)
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

    # the arcs and totals are computed once per plan: cached_property writes the
    # instance __dict__, which leaves the frozen fields, ==, hash and replace alone
    @cached_property
    def arcs(self) -> tuple[IsothermSegment, ...]:
        return tuple(s for s in self.segments if isinstance(s, IsothermSegment))

    @property
    def jumps(self) -> tuple[AdiabaticJump, ...]:
        return tuple(s for s in self.segments if isinstance(s, AdiabaticJump))

    @property
    def switch_jumps(self) -> tuple[AdiabaticJump, ...]:
        return tuple(j for j in self.jumps if j.kind == "switch")

    @cached_property
    def total_time(self) -> float:
        return _sum(a.duration for a in self.arcs)

    @cached_property
    def total_heat(self) -> float:
        return _sum(a.heat for a in self.arcs)

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
            q_from, q_to = _quench_q(j, self.K, self.baths)
            worst_dq = max(worst_dq, abs(q_from - q_to))
            mu_from = _mu_on(j.from_branch, self.K, self.baths)
            mu_to = _mu_on(j.to_branch, self.K, self.baths)
            # p is shared by construction; recompute from both arcs' x to expose drift
            p_from = isotherm_p(isotherm_x_of_p(j.p, mu_from), mu_from)
            p_to = isotherm_p(isotherm_x_of_p(j.p, mu_to), mu_to)
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
    """Inner cycle: hot arc p_ad1 -> p_ad2, quench, cold arc back, quench.

    Its arcs are those of `_cycle_loop`, which every plan with cycles repeats.
    """
    try:
        p1, p2 = find_jump_points(K, baths)
    except NoJumpPoints as exc:
        raise NoCycleExists(str(exc)) from exc
    loop = _cycle_loop(K, baths, p1, p2)
    if not loop:
        return CycleDecomposition(K=K, p_ad1=p1, p_ad2=p2, tau_hot=0.0, tau_cold=0.0, q_hot=0.0, q_cold=0.0)
    hot, _, cold, _ = loop
    return CycleDecomposition(
        K=K,
        p_ad1=p1,
        p_ad2=p2,
        tau_hot=hot.duration,
        tau_cold=cold.duration,
        q_hot=hot.heat,
        q_cold=cold.heat,
    )


def _mu_on(branch: Branch, K: float, baths: Baths) -> float:
    return mu(K, baths.beta(branch.kind), branch, baths.gamma)


def _u_on(branch: Branch, K: float, baths: Baths, p: float) -> float:
    return isotherm_u_of_p(p, _mu_on(branch, K, baths), baths.beta(branch.kind))


def _quench_q(jump: AdiabaticJump, K: float, baths: Baths) -> tuple[float, float]:
    """Costate (before, after) a quench, each from the arc on its side; a
    boundary quench takes both from its one arc."""
    before = jump.from_branch or jump.to_branch
    after = jump.to_branch or jump.from_branch
    return tuple(isotherm_q_of_p(jump.p, _mu_on(b, K, baths), baths.beta(b.kind)) for b in (before, after))


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


def _cycle_loop(K: float, baths: Baths, p1: float, p2: float) -> list[PlanEntry]:
    """The inner cycle between the switch populations p1 < p2, starting hot at p1.

    [hot arc p1 -> p2, switch hot -> cold at p2, cold arc p2 -> p1, switch
    cold -> hot at p1]; empty when the populations coincide (the tangency).
    A plan takes its cycles from here, rotated to where its leg meets them.
    """
    if p2 - p1 <= _P_TOL:
        return []
    return [
        segment_from_populations(HOT, K, baths, p1, p2),
        _switch(HOT, K, baths, p2),
        segment_from_populations(COLD, K, baths, p2, p1),
        _switch(COLD, K, baths, p1),
    ]


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
    loop: list[PlanEntry],
) -> TrajectoryPlan | None:
    """Build one candidate plan from its leg list, inserting requested cycles.

    n_cycles copies of `loop` (`_cycle_loop`) go in where a leg first meets a
    switch population, rotated to start there: a hot leg at p1 / p2 enters at
    the hot arc / the hot -> cold switch, a cold leg at p2 / p1 at the cold
    arc / the cold -> hot switch.  That leg is split there even if loop is [].
    """
    entries: list[PlanEntry] = []
    cycles_placed = n_cycles == 0
    try:
        for i, (branch, p_a, p_b) in enumerate(legs):
            if not _direction_ok(branch, p_a, p_b):
                return None
            touch = None if cycles_placed else _first_touch(branch, p_a, p_b, jumps)
            if touch is None:
                entries.extend(_arc_entries(branch, K, baths, p_a, p_b))
            else:
                start = int(touch != jumps[0]) if branch.kind == "hot" else 2 + int(touch != jumps[1])
                entries.extend(_arc_entries(branch, K, baths, p_a, touch))
                entries.extend((loop[start:] + loop[:start]) * n_cycles)
                entries.extend(_arc_entries(branch, K, baths, touch, p_b))
                cycles_placed = True
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


def _plan_loop(K: float, baths: Baths, n_cycles: int, jumps: tuple[float, float] | None) -> list[PlanEntry] | None:
    """The loop the candidates with n_cycles repeat: [] when they have no
    cycles or no switch populations, None when it cannot be built (every
    candidate with cycles would fail on it)."""
    if n_cycles == 0 or jumps is None:
        return []
    try:
        return _cycle_loop(K, baths, *jumps)
    except ValueError:
        return None


def _least_heat_plan(
    K: float,
    baths: Baths,
    ends: tuple[float, float, float, float],
    n_cycles: int,
    jumps: tuple[float, float] | None,
    loop: list[PlanEntry] | None,
) -> TrajectoryPlan | None:
    """The candidate releasing the least heat, ties to fewer entries; None when
    no candidate is admissible.  ends is (p_in, u_in, p_out, u_out)."""
    if loop is None:
        return None
    p_in, u_in, p_out, u_out = ends
    candidates: list[TrajectoryPlan] = []
    for branch in (COLD, HOT):
        plan = _assemble(K, baths, p_in, u_in, p_out, u_out, [(branch, p_in, p_out)], [], n_cycles, jumps, loop)
        if plan is not None:
            candidates.append(plan)
    if jumps is not None:
        for branch in (COLD, HOT):
            for pj in dict.fromkeys(jumps):  # dedupe coincident points, keep order
                legs = [(branch, p_in, pj), (_other(branch), pj, p_out)]
                plan = _assemble(K, baths, p_in, u_in, p_out, u_out, legs, [(branch, pj)], n_cycles, jumps, loop)
                if plan is not None:
                    candidates.append(plan)
    return min(candidates, key=lambda plan: (plan.total_heat, len(plan.segments)), default=None)


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
    loop = _plan_loop(K, baths, n_cycles, _jumps)
    plan = _least_heat_plan(K, baths, (p_in, u_in, p_out, u_out), n_cycles, _jumps, loop)
    if plan is None:
        if _jumps is None:
            raise Unreachable(K, "no switch populations exist and no single arc joins the endpoints")
        raise Unreachable(K, "no admissible arc sequence honors the flow directions")
    return plan


def monotonicity_profile(
    K_grid: Sequence[float],
    branch: Branch,
    p0: float,
    p1: float,
    baths: Baths | None = None,
) -> list[dict]:
    """Sensitivity of arc duration and heat to K at fixed endpoint populations.

    Rows carry the closed-form derivatives, d(tau)/dK = [atan x1 - atan x0]
    / (gamma K mu) and dQ/dK = K d(tau)/dK, next to central finite
    differences of the arc formulas, with step 1e-5 |K|.
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
        h = 1e-5 * abs(K)
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
                # the 1-cycle plan and tau_cyc share one loop
                loop = _plan_loop(K, self.baths, 1, jumps)
                base1 = _least_heat_plan(K, self.baths, self.args, 1, jumps, loop)
                if base1 is not None:
                    tau_cyc = loop[0].duration + loop[2].duration if loop else 0.0
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


# relative tolerance on the plan duration against the deadline
_TAU_RTOL = 1e-9


def plan_for_deadline(
    p_in: float,
    u_in: float,
    p_out: float,
    u_out: float,
    tau_target: float,
    baths: Baths | None = None,
    max_cycles: int = 1024,
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
    tau_hi = tau_target * (1.0 + _TAU_RTOL)

    def solve(n: int, k_lo: float) -> TrajectoryPlan | None:
        """Plan with n cycles at the K >= k_lo where it meets the deadline."""
        lo_tau = pricer.tau(k_lo, n)
        if math.isnan(lo_tau) or lo_tau > tau_hi:
            return None
        if abs(lo_tau - tau_target) <= _TAU_RTOL * tau_target:
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
            if abs(hi_tau - tau_target) <= _TAU_RTOL * tau_target:
                k_sol = k_hi
            elif hi_tau < tau_target:
                return None
            else:

                def gap(K: float) -> float:
                    t = pricer.tau(K, n)
                    return t - tau_target if not math.isnan(t) else math.inf

                # K to a few ulps of |K*|, or of the bracket's end nearer 0 once a long deadline
                # takes it far below |K*|; both scale with the units, so the solve is the same at any scale
                xtol = 1e-15 * min(abs(sol.K_star), 100.0 * abs(k_hi))
                k_sol = float(brentq(gap, k_lo, k_hi, xtol=xtol, rtol=8.9e-16))
        plan = pricer.plan(k_sol, n)
        if plan is None or abs(plan.total_time - tau_target) > max(_TAU_RTOL * tau_target, 1e-9):
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


# Step cap of one inversion.  Bisection alone brings the bracket below 1e-13 x
# within 64 steps on any arc whose ends differ by less than a factor 1e6.
_ARC_ITERS = 64


def _chi_slope(x: float, mu_val: float) -> float:
    """x (1 + x^2) dchi/dx; it keeps one sign along every arc."""
    return x * x - 2.0 * x / mu_val - 1.0


def _math_map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn of each element through the scalar math function: np.log and np.arctan
    round some arguments differently, and each sample must keep its scalar bits."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _arc_xs(seg: IsothermSegment, mu_val: float, c0: float, gamma: float, dts: np.ndarray) -> np.ndarray:
    """Control x at each offset dt of dts into the arc: the root of
    chi(x) = c0 + gamma dt, c0 = chi(x0), the one inversion of chi.

    Newton's method from linear interpolation in dt, bracketed between x0
    (where chi - target < 0) and x1 (where it is > 0); a step that would
    leave the bracket bisects it instead.  The offsets run in lockstep, each
    with its own bracket, start, steps and stop rule, and those that have
    stopped drop out of the active set.  The arc ends return x0 and x1.  chi
    is evaluated in the order of two_level.chi, with atan and log element by
    element.
    """
    x = np.where(dts <= 0.0, seg.x0, seg.x1)
    idx = np.flatnonzero((dts > 0.0) & (dts < seg.duration))
    target = c0 + gamma * dts[idx]
    a = np.full(idx.size, seg.x0)
    b = np.full(idx.size, seg.x1)
    xa = seg.x0 + (seg.x1 - seg.x0) * (dts[idx] / seg.duration)
    coef = -(2.0 / mu_val)
    for _ in range(_ARC_ITERS):
        if not idx.size:
            break
        g = (coef * _math_map(math.atan, xa) + _math_map(math.log, (xa * xa + 1.0) / xa)) - target
        root = g == 0.0
        low = g < 0.0
        a = np.where(low, xa, a)
        b = np.where(low, b, xa)
        x_new = xa - g * xa * (1.0 + xa * xa) / _chi_slope(xa, mu_val)
        x_new = np.where((np.minimum(a, b) < x_new) & (x_new < np.maximum(a, b)), x_new, 0.5 * (a + b))
        stop = ~root & (np.abs(x_new - xa) <= 1e-13 * xa)
        x[idx[root]] = xa[root]
        x[idx[stop]] = x_new[stop]
        keep = ~(root | stop)
        idx, target, a, b, xa = idx[keep], target[keep], a[keep], b[keep], x_new[keep]
    else:
        x[idx] = xa
    return x


@dataclass(frozen=True)
class PlanSamples:
    """Uniform time series along a plan, suitable for export and re-plotting."""

    t: np.ndarray
    u: np.ndarray
    p: np.ndarray
    q: np.ndarray
    branch: np.ndarray  # "cold" / "hot" strings
    q_cum: np.ndarray


def _arc_rows(seg: IsothermSegment, baths: Baths, samples: int) -> tuple[np.ndarray, ...]:
    """Columns (local t, u, p, q, heat since arc start, dq/dt) on a uniform grid along one arc.

    Each column holds the bits that isotherm_p, _q_of_x and xi give at the
    sample's x; a population outside [0, 1] raises isotherm_p's ValueError
    for the first sample where it occurs.  With q = ((mu/beta)(1 + x^2)/x - u)/2
    and gamma t = chi(x) - chi(x0), the costate velocity is exactly
    dq/dt = gamma mu (1 + x^2) / (2 beta x).
    """
    beta = baths.beta(seg.branch.kind)
    mu_val = _mu_on(seg.branch, seg.K, baths)
    c0 = chi(seg.x0, mu_val)
    xi0 = xi(seg.x0, mu_val)
    dt = np.linspace(0.0, seg.duration, max(samples, 2))
    x = _arc_xs(seg, mu_val, c0, baths.gamma, dt)
    x2 = x * x
    log_x = _math_map(math.log, x)
    u = (2.0 / beta) * log_x
    p = (1.0 - mu_val * x) / (1.0 + x2)
    bad = np.flatnonzero((p < -1e-12) | (p > 1.0 + 1e-12))
    if bad.size:
        isotherm_p(float(x[bad[0]]), mu_val)  # raises its range error for this sample
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    atan_x = _math_map(math.atan, x)
    xi_x = (-2.0 * mu_val * atan_x + (2.0 * x * (x + mu_val) / (1.0 + x2)) * log_x) - _math_map(math.log, 1.0 + x2)
    qdot = (baths.gamma * mu_val / (2.0 * beta)) * (1.0 + x2) / x
    return dt, u, p, _q_of_x(x, u, mu_val, beta), (xi_x - xi0) / beta, qdot


def _rows_by_arc(plan: TrajectoryPlan, samples: int) -> dict[IsothermSegment, tuple[np.ndarray, ...]]:
    """Sample columns of each distinct arc of the plan; repeated cycles share their arcs."""
    rows: dict[IsothermSegment, tuple[np.ndarray, ...]] = {}
    for entry in plan.segments:
        if isinstance(entry, IsothermSegment) and entry not in rows:
            rows[entry] = _arc_rows(entry, plan.baths, samples)
    return rows


def _plan_blocks(
    plan: TrajectoryPlan, rows: dict[IsothermSegment, tuple[np.ndarray, ...]]
) -> Iterator[tuple[PlanEntry, np.ndarray, np.ndarray, np.ndarray, np.ndarray, str, np.ndarray]]:
    """(entry, t, u, p, q, branch, heat so far) for each plan entry, from the
    arc samples `rows`; a quench gives twin rows.  Equal entries give equal
    u, p, q and branch: only t and the heat so far move between recurrences.
    """
    t0 = 0.0
    heat_acc = 0.0
    for entry in plan.segments:
        if isinstance(entry, AdiabaticJump):
            u = np.array([entry.u_from, entry.u_to])
            q = np.array(_quench_q(entry, plan.K, plan.baths))
            branch = (entry.to_branch or entry.from_branch or COLD).kind
            yield entry, np.full(2, t0), u, np.full(2, entry.p), q, branch, np.full(2, heat_acc)
            continue
        dt, u, p, q, dq, _ = rows[entry]
        yield entry, t0 + dt, u, p, q, entry.branch.kind, heat_acc + dq
        t0 += entry.duration
        heat_acc += entry.heat


def sample_plan(plan: TrajectoryPlan, samples_per_segment: int = 1000) -> PlanSamples:
    """Sample every arc on a uniform local grid; quenches contribute twin points."""
    blocks = [
        (t, u, p, q, np.full(t.size, branch), q_cum)
        for _, t, u, p, q, branch, q_cum in _plan_blocks(plan, _rows_by_arc(plan, samples_per_segment))
    ]
    # an empty plan gives six empty float arrays
    columns = zip(*blocks) if blocks else [[np.array(())]] * 6
    return PlanSamples(*map(np.concatenate, columns))


def plan_to_protocol(plan: TrajectoryPlan) -> Protocol:
    """Control schedule of the plan for the forward simulator.

    Quenches collapse into piece boundaries.  Each arc starts at its gap u0
    and carries its exact velocity du/dt = (2 gamma/beta)(x^2 + 1)/(x^2 - 2x/mu - 1),
    x = exp(beta u/2), the arc relation gamma t = chi(x) - chi(x0)
    differentiated, so `integrate` carries the gap as a solution component
    and inverts nothing.  Every occurrence of an arc is the same
    `ProtocolPiece` object, so `integrate` solves each distinct arc once and
    maps its recurrences.
    """
    pieces: dict[IsothermSegment, ProtocolPiece] = {}
    baths, arcs = plan.baths, plan.arcs
    gamma = baths.gamma
    for seg in arcs:
        if seg not in pieces:
            beta = baths.beta(seg.branch.kind)
            mu_val = _mu_on(seg.branch, seg.K, baths)

            def dudt(s: float, u: np.ndarray, beta: float = beta, mu_val: float = mu_val) -> float:
                x = math.exp(0.5 * beta * u[0])
                return (2.0 * gamma / beta) * (x * x + 1.0) / _chi_slope(x, mu_val)

            pieces[seg] = ProtocolPiece(
                duration=seg.duration,
                u=[(2.0 / beta) * math.log(seg.x0)],
                gamma_c=gamma if seg.branch.kind == "cold" else 0.0,
                gamma_h=gamma if seg.branch.kind == "hot" else 0.0,
                dudt=dudt,
            )
    return Protocol(pieces=[pieces[seg] for seg in arcs])


def _diagonal_stack(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """The 2x2 complex matrices diag(d0[j], d1[j]), stacked along a leading axis."""
    out = np.zeros((d0.size, 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 1, 1] = d0, d1
    return out


def _arc_stack(seg: IsothermSegment, rows: tuple[np.ndarray, ...], gamma: float) -> pmp.TrajectoryNode:
    """The samples of one arc as one node: rho, pi and u stacked along a leading
    axis, t the local times."""
    dt, u, p, q = rows[:4]
    cold = seg.branch.kind == "cold"
    control = pmp.ControlVector(u=u[:, None], gamma_c=gamma if cold else 0.0, gamma_h=0.0 if cold else gamma)
    return pmp.TrajectoryNode(t=dt, rho=_diagonal_stack(1.0 - p, p), pi=_diagonal_stack(q, -q), control=control)


def validate_plan(plan: TrajectoryPlan, samples_per_segment: int = 200) -> dict:
    """Continuity, bang-bang sign consistency and PMP residuals of a plan.

    The residuals do not depend on t, so each distinct arc is checked once, as
    one stack of samples in one `pmp.arc_residuals` pass; `nodes` still counts
    every sample of every arc.  `max_costate` compares the costate velocity
    under the adjoint generator, with the traceless-gauge multiplier, against
    the arc's exact diag(dq/dt, -dq/dt) (`_arc_rows`).
    """
    model = TwoLevelResetModel(plan.baths)
    dp, dq = plan.continuity_errors()
    cons = stat = worst_sign = costate = 0.0
    for seg, rows in _rows_by_arc(plan, samples_per_segment).items():
        stack = _arc_stack(seg, rows, plan.baths.gamma)
        arc_cons, arc_stat, pi_dot, a = pmp.arc_residuals(stack, plan.K, model)
        cons, stat = max(cons, arc_cons), max(stat, arc_stat)
        # cold arcs need A >= 0, hot arcs A <= 0, up to a tie tolerance
        worst_sign = max(worst_sign, float(np.max(-a if stack.control.gamma_c > 0.0 else a)))
        costate = max(costate, float(np.max(np.abs(pi_dot - _diagonal_stack(rows[5], -rows[5])))))
    return {
        "max_dp": dp,
        "max_dq": dq,
        "max_conservation": cons,
        "max_stationarity": stat,
        "max_costate": costate,
        "max_bang_bang_violation": worst_sign,
        "nodes": len(plan.arcs) * max(samples_per_segment, 2),
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
    """Time series `t,u,p,q,branch,Qcum` at 15 significant digits, one plan entry at a time.

    Every arc is sampled before the first byte is written, so a sample out of
    range raises with nothing written.  The u, p, q and branch columns of a
    recurring entry are formatted once.
    """
    rows = _rows_by_arc(plan, samples_per_segment)
    fileobj.write(
        f"# units: time 1/gamma (gamma={_fmt(plan.baths.gamma)}), "
        f"energy 1/beta_c (beta_c={_fmt(plan.baths.beta_c)}); K={_fmt(plan.K)}\n"
    )
    fileobj.write("t,u,p,q,branch,Qcum\n")
    middles: dict[PlanEntry, list[str]] = {}
    for entry, t, u, p, q, branch, q_cum in _plan_blocks(plan, rows):
        middle = middles.get(entry)
        if middle is None:
            middle = middles[entry] = [
                f",{_fmt(u_val)},{_fmt(p_val)},{_fmt(q_val)},{branch},"
                for u_val, p_val, q_val in zip(u.tolist(), p.tolist(), q.tolist())
            ]
        lines = [f"{_fmt(t_val)}{mid}{_fmt(c)}\n" for t_val, mid, c in zip(t.tolist(), middle, q_cum.tolist())]
        fileobj.write("".join(lines))
