"""Exhaustive protocol search validating that planned heats are not beatable.

Piecewise-constant two-level protocols admit exact exponential stepping
(populations relax as p -> p_eq + (p - p_eq) e^{-gamma dt} and heat is
-u * dp per interval), so desk-scale enumeration needs no ODE solver.  The
search is evidence at grid resolution, not an optimality proof.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .two_level import Baths

__all__ = [
    "ProtocolGrid",
    "BangProtocol",
    "GridSearchResult",
    "InfeasibleTarget",
    "single_switch_patterns",
    "all_patterns",
    "simulate_bang_protocol",
    "grid_search",
    "local_refine",
    "comparison_report",
]

_MAX_INTERVALS = 8
_MAX_LEVELS = 12
_CHUNK = 1 << 20  # protocols held in memory at once; at least _MAX_LEVELS


class InfeasibleTarget(Exception):
    """No searched protocol reached the target population within tolerance."""

    def __init__(self, closest: float, target: float):
        super().__init__(
            f"no protocol reached the target: closest final population {closest} vs target {target}"
        )
        self.closest_approach = closest


def single_switch_patterns(n_intervals: int) -> tuple[tuple[str, ...], ...]:
    """Bath patterns cold^k hot^(n-k), matching the one-switch plan topology."""
    out = []
    for k in range(n_intervals + 1):
        out.append(tuple(["cold"] * k + ["hot"] * (n_intervals - k)))
    return tuple(out)


def all_patterns(n_intervals: int) -> tuple[tuple[str, ...], ...]:
    """Every bath assignment; 2^n patterns, meant for small n only."""
    return tuple(itertools.product(("cold", "hot"), repeat=n_intervals))


@dataclass(frozen=True)
class ProtocolGrid:
    """Discretized search space: equal-duration intervals, gap levels, bath patterns."""

    n_intervals: int
    u_levels: tuple[float, ...]
    bath_patterns: tuple[tuple[str, ...], ...]
    tau: float

    def __post_init__(self):
        if not 1 <= self.n_intervals <= _MAX_INTERVALS:
            raise ValueError(f"n_intervals must lie in [1, {_MAX_INTERVALS}], got {self.n_intervals}")
        if not 1 <= len(self.u_levels) <= _MAX_LEVELS:
            raise ValueError(f"need 1..{_MAX_LEVELS} gap levels, got {len(self.u_levels)}")
        if not all(math.isfinite(u) for u in self.u_levels):
            raise ValueError(f"gap levels must be finite, got {self.u_levels}")
        if not self.tau > 0.0:
            raise ValueError(f"horizon must be positive, got {self.tau}")
        if not self.bath_patterns:
            raise ValueError("need at least one bath pattern")
        for pattern in self.bath_patterns:
            if len(pattern) != self.n_intervals:
                raise ValueError(f"pattern {pattern} does not match n_intervals={self.n_intervals}")
            if any(b not in ("cold", "hot") for b in pattern):
                raise ValueError(f"pattern entries must be 'cold'/'hot': {pattern}")

    @property
    def n_protocols(self) -> int:
        return len(self.bath_patterns) * len(self.u_levels) ** self.n_intervals


@dataclass(frozen=True)
class BangProtocol:
    """One piecewise-constant protocol: per-interval duration, gap and bath."""

    durations: tuple[float, ...]
    u_values: tuple[float, ...]
    baths_pattern: tuple[str, ...]

    def __post_init__(self):
        if not len(self.durations) == len(self.u_values) == len(self.baths_pattern):
            raise ValueError("durations, gaps and baths must have equal lengths")

    @property
    def tau(self) -> float:
        return sum(self.durations)


def _p_eq(u: float, beta: float) -> float:
    return 0.5 * (1.0 - math.tanh(0.5 * beta * u))


def simulate_bang_protocol(p0: float, protocol: BangProtocol, baths: Baths) -> tuple[float, float]:
    """Exact final population and released heat of one protocol."""
    p = p0
    heat = 0.0
    for dt, u, kind in zip(protocol.durations, protocol.u_values, protocol.baths_pattern):
        beta = baths.beta(kind)
        peq = _p_eq(u, beta)
        p_new = peq + (p - peq) * math.exp(-baths.gamma * dt)
        heat += -u * (p_new - p)
        p = p_new
    return p, heat


@dataclass(frozen=True)
class GridSearchResult:
    q_best: float
    protocol: BangProtocol
    p_final: float
    n_evaluated: int
    n_feasible: int
    wall_time: float


def _relax(p: np.ndarray, peq: np.ndarray, decay: float) -> np.ndarray:
    """Populations after one interval: a row per prefix, a column per gap level."""
    return peq + (p[:, None] - peq) * decay


def _step(p: np.ndarray, q: np.ndarray, peq: np.ndarray, levels: np.ndarray, decay: float):
    """Advance every prefix by one interval at every gap level, the level varying fastest."""
    p_new = _relax(p, peq, decay)
    q_new = q[:, None] - levels * (p_new - p[:, None])
    return p_new.reshape(-1), q_new.reshape(-1)


def grid_search(
    p_in: float,
    p_out: float,
    grid: ProtocolGrid,
    baths: Baths,
    p_tol: float = 1e-3,
) -> GridSearchResult:
    """Minimal released heat over the full grid, ties broken lexicographically.

    Enumeration is exhaustive in lexicographic order (patterns outer, gap
    digits inner with the first interval most significant); identical grids
    therefore yield identical results bit for bit.  Each pattern is expanded
    one interval at a time, so every prefix is stepped once: the first
    `depth` intervals in full, the rest in blocks of whole prefixes holding
    at most _CHUNK protocols.  The last interval steps only the population;
    heat is taken for the protocols that land within p_tol.
    """
    if not 0.0 <= p_in <= 1.0 or not 0.0 <= p_out <= 1.0:
        raise ValueError(f"populations must lie in [0, 1], got p_in={p_in}, p_out={p_out}")
    if not p_tol >= 0.0:
        raise ValueError(f"landing tolerance must be non-negative, got {p_tol}")
    t_start = time.perf_counter()
    n = grid.n_intervals
    levels = np.asarray(grid.u_levels, dtype=float)
    n_levels = levels.size
    dt = grid.tau / n
    decay = math.exp(-baths.gamma * dt)
    depth = next(s for s in range(n) if n_levels ** (n - s) <= _CHUNK)
    leaves = n_levels ** (n - depth)  # protocols under one prefix of length depth
    per_block = _CHUNK // leaves

    peq_by_kind = {
        kind: np.array([_p_eq(u, baths.beta(kind)) for u in levels]) for kind in ("cold", "hot")
    }

    best_q = math.inf
    best_key: tuple[int, int] | None = None  # (pattern_index, protocol_index)
    best_p = math.nan
    closest = math.inf
    n_feasible = 0

    for ip, pattern in enumerate(grid.bath_patterns):
        peqs = [peq_by_kind[kind] for kind in pattern]
        prefix_p, prefix_q = np.array([p_in], dtype=float), np.zeros(1)
        for peq in peqs[:depth]:
            prefix_p, prefix_q = _step(prefix_p, prefix_q, peq, levels, decay)
        for start in range(0, prefix_p.size, per_block):
            p, q = prefix_p[start : start + per_block], prefix_q[start : start + per_block]
            for peq in peqs[depth:-1]:
                p, q = _step(p, q, peq, levels, decay)
            leaf_p = _relax(p, peqs[-1], decay).reshape(-1)
            miss = np.abs(leaf_p - p_out)
            closest = min(closest, float(miss.min()))
            hits = np.flatnonzero(miss <= p_tol)
            n_feasible += hits.size
            if hits.size:
                parent, digit = np.divmod(hits, n_levels)
                q_hit = q[parent] - levels[digit] * (leaf_p[hits] - p[parent])
                k = int(np.argmin(q_hit))  # first minimum = lexicographically first
                if q_hit[k] < best_q:
                    best_q = float(q_hit[k])
                    best_key = (ip, start * leaves + int(hits[k]))
                    best_p = float(leaf_p[hits[k]])

    wall = time.perf_counter() - t_start
    if best_key is None:
        raise InfeasibleTarget(closest=closest, target=p_out)
    ip, code = best_key
    digits = np.unravel_index(code, (n_levels,) * n)
    protocol = BangProtocol(
        durations=tuple([dt] * n),
        u_values=tuple(float(levels[d]) for d in digits),
        baths_pattern=grid.bath_patterns[ip],
    )
    return GridSearchResult(
        q_best=best_q,
        protocol=protocol,
        p_final=best_p,
        n_evaluated=grid.n_protocols,
        n_feasible=n_feasible,
        wall_time=wall,
    )


def local_refine(
    protocol: BangProtocol,
    p_in: float,
    p_out: float,
    baths: Baths,
    p_tol: float = 1e-3,
    step_schedule: Sequence[float] = (0.1, 0.03, 0.01, 0.003, 0.001),
    history: list[float] | None = None,
) -> tuple[BangProtocol, float]:
    """Deterministic coordinate descent on gap levels and interior boundaries.

    Each move must keep the target reachable and strictly lower the heat, so
    the returned heat never exceeds the seed's.  Durations trade time between
    neighboring intervals, preserving the total.  Each step size sweeps until
    a sweep improves nothing, at most 40 times.  When `history` is given,
    the heat after every accepted move is appended to it.
    """
    def q_of(proto: BangProtocol) -> float:
        p_final, heat = simulate_bang_protocol(p_in, proto, baths)
        if abs(p_final - p_out) > p_tol:
            return math.inf
        return heat

    current = protocol
    q_current = q_of(current)
    if not math.isfinite(q_current):
        raise InfeasibleTarget(closest=abs(simulate_bang_protocol(p_in, current, baths)[0] - p_out), target=p_out)
    if history is not None:
        history.append(q_current)

    def accept(cand: BangProtocol, q_cand: float):
        nonlocal current, q_current
        current, q_current = cand, q_cand
        if history is not None:
            history.append(q_cand)

    n = len(current.durations)
    for step in step_schedule:
        for _ in range(40):
            improved = False
            for i in range(n):
                for delta in (+step, -step):
                    u_try = list(current.u_values)
                    u_try[i] = max(0.0, u_try[i] * (1.0 + delta)) if u_try[i] != 0.0 else max(0.0, delta)
                    cand = replace(current, u_values=tuple(u_try))
                    q_cand = q_of(cand)
                    if q_cand < q_current:
                        accept(cand, q_cand)
                        improved = True
            for i in range(n - 1):
                shift = step * current.tau / n
                for delta in (+shift, -shift):
                    d_try = list(current.durations)
                    if d_try[i] + delta <= 0.0 or d_try[i + 1] - delta <= 0.0:
                        continue
                    d_try[i] += delta
                    d_try[i + 1] -= delta
                    cand = replace(current, durations=tuple(d_try))
                    q_cand = q_of(cand)
                    if q_cand < q_current:
                        accept(cand, q_cand)
                        improved = True
            if not improved:
                break
    return current, q_current


def comparison_report(q_pmp: float, result: GridSearchResult) -> dict:
    return {
        "q_pmp": q_pmp,
        "q_brute": result.q_best,
        "gap": result.q_best - q_pmp,
        "n_protocols_evaluated": result.n_evaluated,
        "wall_time": result.wall_time,
    }
