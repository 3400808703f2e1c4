"""Exhaustive protocol search validating that planned heats are not beatable.

Piecewise-constant two-level protocols admit exact exponential stepping
(populations relax as p -> p_eq + (p - p_eq) e^{-gamma dt} and heat is
-u * dp per interval), so desk-scale enumeration needs no ODE solver.  The
search is evidence at grid resolution, not an optimality proof.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .lindblad import TwoLevelResetModel, _sum
from .two_level import Baths

__all__ = [
    "ProtocolGrid",
    "BangProtocol",
    "GridSearchResult",
    "InfeasibleTarget",
    "single_switch_patterns",
    "simulate_bang_protocol",
    "grid_search",
    "comparison_report",
]

_MAX_INTERVALS = 8
_MAX_LEVELS = 12
_CHUNK = 1 << 20  # pairs of half protocols held in memory at once
# The affine second halves round below 1e-15 for n <= 8, as every population
# and equilibrium lies in [0, 1]; pairs whose affine landing is within _SLACK
# of the tolerance edge are re-stepped exactly.
_SLACK = 1e-12


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
        return _sum(self.durations)


def simulate_bang_protocol(p0: float, protocol: BangProtocol, baths: Baths) -> tuple[float, float]:
    """Exact final population and released heat of one protocol.

    Each interval relaxes toward the reset model's excited Gibbs weight, which
    keeps its relative accuracy at any finite gap.
    """
    model = TwoLevelResetModel(baths)
    p = p0
    heat = 0.0
    for dt, u, kind in zip(protocol.durations, protocol.u_values, protocol.baths_pattern):
        peq = float(model.equilibrium(u, kind)[1, 1].real)
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


def _first_halves(p_in: float, peqs, levels: np.ndarray, decay: float):
    """Every first half stepped from p_in, sorted by midpoint population: (P, Q, prefix index)."""
    p, q = np.array([p_in], dtype=float), np.zeros(1)
    for peq in peqs:
        p, q = _step(p, q, peq, levels, decay)
    order = np.argsort(p, kind="stable")
    return p[order], q[order], order


def _second_halves(peqs, levels: np.ndarray, decay: float):
    """Every second half as an affine map of its midpoint population p, one entry per suffix.

    The landing population is A*p + c and the released heat a + b*p; c and a
    are stepped from p = 0 like a population and its heat.
    """
    A, c, a, b = 1.0, np.zeros(1), np.zeros(1), np.zeros(1)
    for peq in peqs:
        c, a = _step(c, a, peq, levels, decay)
        b = (b[:, None] - levels * (A * decay - A)).reshape(-1)
        A *= decay
    return A, c, a, b


def _windows(landing: np.ndarray, target: np.ndarray, radius: float):
    """Per suffix, the positions [lo, hi) of sorted first halves whose landing lies within radius of target."""
    lo = np.searchsorted(landing, target - radius, side="left")
    hi = np.searchsorted(landing, target + radius, side="right")
    return lo, np.maximum(hi, lo)


def _pair_blocks(lo: np.ndarray, hi: np.ndarray):
    """Every pair (suffix, sorted first-half position) inside the windows, in blocks of at most _CHUNK pairs."""
    edges = np.concatenate(([0], np.cumsum(hi - lo)))  # pairs of suffix i are numbered edges[i]..edges[i+1]-1
    for start in range(0, int(edges[-1]), _CHUNK):
        counts = np.diff(np.clip(edges, start, start + _CHUNK))
        s = np.repeat(np.arange(lo.size), counts)
        yield s, np.arange(start, start + s.size) + np.repeat(lo - edges[:-1], counts)


def _restep(p: np.ndarray, q: np.ndarray, suffix: np.ndarray, peqs, levels: np.ndarray, decay: float):
    """Step each pair's second half exactly from its first half, with the arithmetic of _step."""
    n_levels = levels.size
    for k, peq in enumerate(peqs):
        digit = suffix // n_levels ** (len(peqs) - 1 - k) % n_levels
        p_new = peq[digit] + (p - peq[digit]) * decay
        q = q - levels[digit] * (p_new - p)
        p = p_new
    return p, q


def grid_search(
    p_in: float,
    p_out: float,
    grid: ProtocolGrid,
    baths: Baths,
    p_tol: float = 1e-3,
) -> GridSearchResult:
    """Minimal released heat over the full grid, ties broken lexicographically.

    The result is that of stepping every protocol from p_in, bit for bit:
    the least heat among protocols landing within p_tol of p_out, ties going
    to the first bath pattern and then to the first protocol with the first
    interval's gap digit most significant.  The search meets in the middle.
    Each pattern splits into a first half of ceil(n/2) intervals, stepped
    from p_in and sorted by midpoint population, and a second half, stepped
    as an affine map of the midpoint population.  Per second half, sorted
    windows give the first halves whose affine landing lies within p_tol;
    pairs near the window edges, and pairs whose affine heat lies within a
    rounding margin of the least, are re-stepped exactly from their first
    half.  Halves are shared between patterns, and pairs are taken in
    blocks of at most _CHUNK.
    """
    if not 0.0 <= p_in <= 1.0 or not 0.0 <= p_out <= 1.0:
        raise ValueError(f"populations must lie in [0, 1], got p_in={p_in}, p_out={p_out}")
    if not p_tol >= 0.0:
        raise ValueError(f"landing tolerance must be non-negative, got {p_tol}")
    t_start = time.perf_counter()
    n = grid.n_intervals
    h1 = (n + 1) // 2
    levels = np.asarray(grid.u_levels, dtype=float)
    n_levels = levels.size
    n_suffixes = n_levels ** (n - h1)
    dt = grid.tau / n
    decay = math.exp(-baths.gamma * dt)
    # affine heats round at about 1e-14 (|q| + max |u|); sure pairs within
    # 1e-9 (1 + |q| + max |u|) of the least affine heat are re-stepped
    heat_scale = 1.0 + float(np.abs(levels).max())

    # excited Gibbs weights per level, with the bits simulate_bang_protocol gets one level at a time
    model = TwoLevelResetModel(baths)
    peq_by_kind = {kind: model.equilibrium(levels[:, None], kind)[:, 1, 1].real for kind in ("cold", "hot")}
    firsts, seconds = {}, {}  # halves by bath sequence, shared between patterns

    best = (math.inf, 0, 0)  # (heat, pattern index, protocol code)
    best_p = math.nan
    closest = math.inf
    n_feasible = 0

    for ip, pattern in enumerate(grid.bath_patterns):
        head, tail = pattern[:h1], pattern[h1:]
        tail_peqs = [peq_by_kind[kind] for kind in tail]
        if head not in firsts:
            firsts[head] = _first_halves(p_in, [peq_by_kind[kind] for kind in head], levels, decay)
        if tail not in seconds:
            seconds[tail] = _second_halves(tail_peqs, levels, decay)
        P, Q, prefix = firsts[head]
        A, c, a, b = seconds[tail]
        landing = A * P  # non-decreasing, as P is sorted and A >= 0
        target = p_out - c

        def exact(s, pos):
            p, q = _restep(P[pos], Q[pos], s, tail_peqs, levels, decay)
            return p, q, np.abs(p - p_out)

        def take(s, pos):
            """Re-step pairs exactly and keep the least heat landing within p_tol; returns the feasible count."""
            nonlocal best, best_p
            p, q, miss = exact(s, pos)
            ok = np.flatnonzero(miss <= p_tol)
            if ok.size:
                q_ok = q[ok]
                tied = ok[q_ok == q_ok.min()]
                code = prefix[pos[tied]] * n_suffixes + s[tied]
                j = int(np.argmin(code))
                key = (float(q[tied[j]]), ip, int(code[j]))
                if key < best:
                    best, best_p = key, float(p[tied[j]])
            return ok.size

        sure_lo, sure_hi = _windows(landing, target, p_tol - _SLACK)
        edge_lo, edge_hi = _windows(landing, target, p_tol + _SLACK)
        n_feasible += int((sure_hi - sure_lo).sum())
        for lo, hi in ((edge_lo, sure_lo), (sure_hi, edge_hi)):
            for s, pos in _pair_blocks(lo, hi):
                n_feasible += take(s, pos)
        least = math.inf
        for s, pos in _pair_blocks(sure_lo, sure_hi):
            heat = Q[pos] + a[s] + b[s] * P[pos]
            least = min(least, float(heat.min()))
            near = np.flatnonzero(heat <= least + 1e-9 * (abs(least) + heat_scale))
            take(s[near], pos[near])

        if n_feasible == 0:
            # nearest affine landing of each suffix, then the exact miss of every pair that could beat it
            j = np.searchsorted(landing, target)
            nearest = np.minimum(
                np.abs(landing[np.maximum(j - 1, 0)] - target),
                np.abs(landing[np.minimum(j, landing.size - 1)] - target),
            )
            for s, pos in _pair_blocks(*_windows(landing, target, float(nearest.min()) + _SLACK)):
                closest = min(closest, float(exact(s, pos)[2].min()))

    wall = time.perf_counter() - t_start
    if best[0] == math.inf:
        raise InfeasibleTarget(closest=closest, target=p_out)
    _, ip, code = best
    digits = np.unravel_index(code, (n_levels,) * n)
    protocol = BangProtocol(
        durations=tuple([dt] * n),
        u_values=tuple(float(levels[d]) for d in digits),
        baths_pattern=grid.bath_patterns[ip],
    )
    return GridSearchResult(
        q_best=best[0],
        protocol=protocol,
        p_final=best_p,
        n_evaluated=grid.n_protocols,
        n_feasible=n_feasible,
        wall_time=wall,
    )


def comparison_report(q_pmp: float, result: GridSearchResult) -> dict:
    return {
        "q_pmp": q_pmp,
        "q_brute": result.q_best,
        "gap": result.q_best - q_pmp,
        "n_protocols_evaluated": result.n_evaluated,
        "wall_time": result.wall_time,
    }
