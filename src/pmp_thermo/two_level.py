"""Closed-form optimal isotherms and the maximum-power engine for a driven two-level system.

The system has Hamiltonian u(t)|1><1| and relaxes toward the instantaneous
Gibbs state of the active bath at total rate gamma.  Along a rate-optimal
arc the excited population p, the costate scalar q and the control u are
linked algebraically through the conserved emission rate K <= 0.  All arcs
are parametrized by x = exp(beta*u/2); durations and heats follow from the
implicit integrals chi(x) and xi(x), so no ODE is ever solved here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from ._roots import brentq

__all__ = [
    "Baths",
    "Branch",
    "COLD",
    "HOT",
    "COLD_NEG",
    "HOT_NEG",
    "EngineSolution",
    "IsothermSegment",
    "NoJumpPoints",
    "SolverError",
    "DirectionViolation",
    "mu",
    "isotherm_p",
    "isotherm_x_of_p",
    "isotherm_u_of_p",
    "isotherm_q_of_p",
    "chi",
    "xi",
    "isotherm_time",
    "isotherm_heat",
    "quasi_static_heat",
    "binary_entropy",
    "adiabatic_f",
    "adiabatic_f_min",
    "find_jump_points",
    "tangency_residual",
    "solve_engine",
    "engine_residuals",
    "lambert_w0",
    "asymptotic_limit",
    "make_segment",
    "segment_from_populations",
]


class NoJumpPoints(Exception):
    """No admissible branch-switch populations exist at this K."""


class SolverError(Exception):
    """Engine solver failed to converge; carries the final residuals."""

    def __init__(self, message: str, residuals: tuple[float, float] | None = None):
        super().__init__(message)
        self.residuals = residuals


class DirectionViolation(ValueError):
    """Segment endpoints ordered against the flow direction of its branch."""


@dataclass(frozen=True)
class Baths:
    """Two-reservoir setting: inverse temperatures and the total coupling rate."""

    beta_c: float = 1.0
    beta_h: float = 0.3
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.beta_c >= self.beta_h > 0.0):
            raise ValueError(f"need beta_c >= beta_h > 0, got {self.beta_c}, {self.beta_h}")
        if not self.gamma > 0.0:
            raise ValueError(f"total rate must be positive, got {self.gamma}")

    @property
    def z(self) -> float:
        return self.beta_h / self.beta_c

    def beta(self, kind: str) -> float:
        if kind == "cold":
            return self.beta_c
        if kind == "hot":
            return self.beta_h
        raise ValueError(f"unknown bath kind {kind!r}")

    @classmethod
    def from_ratio(cls, z: float, beta_c: float = 1.0, gamma: float = 1.0) -> "Baths":
        if not 0.0 < z < 1.0:
            raise ValueError(f"temperature ratio must lie in (0, 1), got {z}")
        return cls(beta_c=beta_c, beta_h=z * beta_c, gamma=gamma)


@dataclass(frozen=True)
class Branch:
    """Arc type: which bath is active and the sign of the admissible gap."""

    kind: str  # "cold" | "hot"
    gap_sign: str = "nonneg"  # "nonneg" | "neg"

    def __post_init__(self):
        if self.kind not in ("cold", "hot"):
            raise ValueError(f"branch kind must be 'cold' or 'hot', got {self.kind!r}")
        if self.gap_sign not in ("nonneg", "neg"):
            raise ValueError(f"gap_sign must be 'nonneg' or 'neg', got {self.gap_sign!r}")

    @property
    def mu_sign(self) -> float:
        # cold carries mu < 0 and hot mu > 0 for non-negative gaps; swapped otherwise
        s = -1.0 if self.kind == "cold" else +1.0
        return s if self.gap_sign == "nonneg" else -s


COLD = Branch("cold")
HOT = Branch("hot")
COLD_NEG = Branch("cold", "neg")
HOT_NEG = Branch("hot", "neg")


def mu(K: float, beta: float, branch: Branch, gamma: float = 1.0) -> float:
    """Dimensionless rate parameter of an optimal arc, mu = sign * sqrt(-beta*K/gamma)."""
    if K > 0.0:
        raise ValueError(f"conserved rate must satisfy K <= 0, got {K}")
    if beta <= 0.0 or gamma <= 0.0:
        raise ValueError("beta and gamma must be positive")
    return branch.mu_sign * math.sqrt(-beta * K / gamma)


def isotherm_p(x: float, mu_val: float) -> float:
    """Excited population along an optimal arc, p = (1 - mu*x) / (1 + x^2)."""
    if x <= 0.0:
        raise ValueError(f"x = exp(beta*u/2) must be positive, got {x}")
    p = (1.0 - mu_val * x) / (1.0 + x * x)
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ValueError(f"population {p} outside [0, 1]: x={x} beyond the admissible range")
    return min(max(p, 0.0), 1.0)


def isotherm_x_of_p(p: float, mu_val: float) -> float:
    """Invert the arc population relation; unique positive root of p*x^2 + mu*x + p - 1 = 0."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"inversion is singular at p in {{0, 1}}, got p={p}")
    delta = math.sqrt(mu_val * mu_val + 4.0 * p * (1.0 - p))
    if mu_val <= 0.0:
        return (delta - mu_val) / (2.0 * p)
    # equivalent form that avoids cancellation when mu > 0
    return 2.0 * (1.0 - p) / (delta + mu_val)


def isotherm_u_of_p(p: float, mu_val: float, beta: float) -> float:
    """Gap value on the arc at population p, u = (2/beta) ln x(p)."""
    return (2.0 / beta) * math.log(isotherm_x_of_p(p, mu_val))


def isotherm_q_of_p(p: float, mu_val: float, beta: float) -> float:
    """Costate scalar on the arc, from 2q + u = (mu/beta)(1 + x^2)/x."""
    x = isotherm_x_of_p(p, mu_val)
    return _q_of_x(x, (2.0 / beta) * math.log(x), mu_val, beta)


def _q_of_x(x: float, u: float, mu_val: float, beta: float) -> float:
    return 0.5 * ((mu_val / beta) * (1.0 + x * x) / x - u)


def chi(x: float, mu_val: float) -> float:
    """Time potential of an arc: gamma*t = chi(x) up to a constant."""
    if mu_val == 0.0:
        raise ZeroDivisionError("chi is singular at mu = 0 (quasi-static limit)")
    return -(2.0 / mu_val) * math.atan(x) + math.log((x * x + 1.0) / x)


def xi(x: float, mu_val: float) -> float:
    """Heat potential of an arc: beta*Q = xi(x1) - xi(x0)."""
    x2 = x * x
    return (
        -2.0 * mu_val * math.atan(x)
        + (2.0 * x * (x + mu_val) / (1.0 + x2)) * math.log(x)
        - math.log(1.0 + x2)
    )


def isotherm_time(x0: float, x1: float, mu_val: float, gamma: float = 1.0) -> float:
    """Arc duration between control points x0 -> x1 (time order)."""
    if mu_val == 0.0:
        return math.inf if x0 != x1 else 0.0
    dt = (chi(x1, mu_val) - chi(x0, mu_val)) / gamma
    if dt < -1e-12:
        raise DirectionViolation(
            f"negative duration {dt}: endpoints ({x0}, {x1}) run against the branch flow"
        )
    return max(dt, 0.0)


def isotherm_heat(x0: float, x1: float, mu_val: float, beta: float) -> float:
    """Heat released by the system along the arc x0 -> x1 (time order)."""
    if mu_val != 0.0:
        # reuse the duration sign check: same direction criterion for both integrals
        isotherm_time(x0, x1, mu_val)
    return (xi(x1, mu_val) - xi(x0, mu_val)) / beta


def binary_entropy(p: float) -> float:
    """Shannon entropy of a biased bit, natural log."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability outside [0, 1]: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def quasi_static_heat(p0: float, p1: float, beta: float) -> float:
    """Reversible-limit heat released between populations, [H(p0) - H(p1)] / beta."""
    if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0):
        raise ValueError("populations must lie strictly inside (0, 1)")
    return (binary_entropy(p0) - binary_entropy(p1)) / beta


def _mu_pair(K: float, baths: Baths) -> tuple[float, float]:
    return (
        mu(K, baths.beta_c, COLD, baths.gamma),
        mu(K, baths.beta_h, HOT, baths.gamma),
    )


def _x_pair(p: float, q: float, mu_c_val: float, mu_h_val: float) -> tuple[float, float]:
    """Arc controls x_c(p) and x_h(p), given p and q = 1 - p.

    Both forms avoid cancellation: mu_c <= 0 on the cold branch, and the hot
    factor is written as 2q / (delta_h + mu_h) instead of (delta_h - mu_h) / 2p.
    """
    four_pq = 4.0 * p * q
    x_c = (math.sqrt(mu_c_val * mu_c_val + four_pq) - mu_c_val) / (2.0 * p)
    x_h = 2.0 * q / (math.sqrt(mu_h_val * mu_h_val + four_pq) + mu_h_val)
    return x_c, x_h


def _f_of_x(x_c: float, x_h: float, baths: Baths) -> float:
    r = x_c / x_h
    root_bb = math.sqrt(baths.beta_c * baths.beta_h)
    return r - 1.0 / r + 2.0 * root_bb * (
        math.log(x_c) / baths.beta_c - math.log(x_h) / baths.beta_h
    )


def _tangency_terms(x_c: float, x_h: float, mu_c_val: float, mu_h_val: float) -> tuple[float, float]:
    """The two sides (1 + x^2) / (mu x) of the merging condition, one per branch."""
    return (x_c + 1.0 / x_c) / mu_c_val, (x_h + 1.0 / x_h) / mu_h_val


def adiabatic_f(p: float, K: float, baths: Baths) -> float:
    """Branch-switch condition: costate continuity across a gap quench holds iff f = 0.

    Written in terms of x_c(p) and x_h(p), which keeps the hot-branch factor
    stable where delta_h - mu_h would cancel for small p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"population must lie in (0, 1), got {p}")
    if K >= 0.0:
        raise ValueError(f"branch switches require K < 0, got {K}")
    return _f_of_x(*_x_pair(p, 1.0 - p, *_mu_pair(K, baths)), baths)


# Searches run in s = log p over [log 1e-250, log(1 - 1e-15)]: the lower switch
# population shrinks like |K| toward the quasi-static limit, so no fixed floor
# on p would do.
_S_LO = math.log(1e-250)
_S_HI = math.log1p(-1e-15)


def _log_p_kernels(K: float, baths: Baths):
    """f and the tangency function h as functions of s = log p at fixed K.

    h has the sign of df/dp and changes sign once, at the minimum of f.  It
    is returned times p(1 - p), which tends to -1 and +1 at the two ends and
    so keeps brentq's interpolation steps useful there.
    """
    mu_c_val, mu_h_val = _mu_pair(K, baths)

    def f(s: float) -> float:
        return _f_of_x(*_x_pair(math.exp(s), -math.expm1(s), mu_c_val, mu_h_val), baths)

    def h(s: float) -> float:
        p, q = math.exp(s), -math.expm1(s)
        a_c, a_h = _tangency_terms(*_x_pair(p, q, mu_c_val, mu_h_val), mu_c_val, mu_h_val)
        return p * q * (a_c + a_h)

    return f, h


def _tangency_root(h, xatol: float, s0: float | None = None) -> float:
    """The sign change of the tangency function h in s = log p, to `xatol`.

    Without a start, brentq over the whole search range; a minimum below
    p = 1e-250 is reported there.  With a start s0, brentq over s0 +- w, where
    w starts at 1e-3 max(1, |s0|) and grows 8-fold until h changes sign in
    the bracket; the whole range is searched once the bracket leaves it.
    """
    if s0 is not None:
        w = 1e-3 * max(1.0, abs(s0))
        while _S_LO <= s0 - w and s0 + w <= _S_HI:
            a, b = s0 - w, s0 + w
            h_a, h_b = h(a), h(b)
            if h_a <= 0.0 <= h_b:  # brentq's first two points are a and b: it gets these values
                return brentq(lambda s: h_a if s == a else h_b if s == b else h(s), a, b, xtol=xatol)
            w *= 8.0
    return _S_LO if h(_S_LO) >= 0.0 else brentq(h, _S_LO, _S_HI, xtol=xatol)


def adiabatic_f_min(K: float, baths: Baths, xatol: float = 1e-13) -> tuple[float, float]:
    """Minimum of f(., K) over p and its location.

    The minimum is the one sign change of the tangency function in s = log p,
    found by brentq to `xatol` in s (a relative tolerance on p).  h > 0 at
    p = 1 - 1e-15 for every K < 0; a minimum below p = 1e-250, which occurs
    only for |K| near 1e-250 and below, is reported at 1e-250.
    """
    if K >= 0.0:
        raise ValueError(f"branch switches require K < 0, got {K}")
    f, h = _log_p_kernels(K, baths)
    s = _tangency_root(h, xatol)
    return f(s), math.exp(s)


_UNIT_ROUNDOFF = 0.5 * sys.float_info.epsilon


def _f_and_df_dk(s: float, K: float, baths: Baths) -> tuple[float, float, float]:
    """f at (p = e^s, K), its partial derivative in K and its rounding level, from one kernel evaluation.

    With D = sqrt(mu^2 + 4pq), d(log x)/dK = -mu / (2 K D) on both branches
    (dmu/dK = mu / 2K and dx/dmu = -x / D), which gives df/dK term by term.
    The rounding level is the unit roundoff times the sum of the magnitudes
    of f's terms.
    """
    mu_c_val, mu_h_val = _mu_pair(K, baths)
    p, q = math.exp(s), -math.expm1(s)
    x_c, x_h = _x_pair(p, q, mu_c_val, mu_h_val)
    four_pq = 4.0 * p * q
    a_c = -mu_c_val / (2.0 * K * math.sqrt(mu_c_val * mu_c_val + four_pq))
    a_h = -mu_h_val / (2.0 * K * math.sqrt(mu_h_val * mu_h_val + four_pq))
    r = x_c / x_h
    root_bb = math.sqrt(baths.beta_c * baths.beta_h)
    df_dk = (r + 1.0 / r) * (a_c - a_h) + 2.0 * root_bb * (a_c / baths.beta_c - a_h / baths.beta_h)
    level = _UNIT_ROUNDOFF * (
        r + 1.0 / r + 2.0 * root_bb * (abs(math.log(x_c)) / baths.beta_c + abs(math.log(x_h)) / baths.beta_h)
    )
    return _f_of_x(x_c, x_h, baths), df_dk, level


# |f at its minimum| below this counts as tangency (coincident switch points)
_TANGENT_FTOL = 1e-9


def find_jump_points(K: float, baths: Baths) -> tuple[float, float]:
    """The two populations where a branch switch preserves state and costate.

    Returns (p_ad1, p_ad2) with p_ad1 <= p_ad2, each located to 1e-15 in
    log p.  Raises NoJumpPoints when the switch condition has no zero (K
    below the root-merging threshold).  At the threshold itself both values
    coincide.

    The lower root shrinks like |K| and is searched for no lower than
    p = 1e-250.  Closer to the quasi-static limit than that (at beta_c =
    gamma = 1, |K| below about 5.6e-246 at z = 0.01, 1.3e-247 at z = 0.3 and
    1.8e-250 at z = 0.99) this raises ValueError, which the CLI reports as a
    usage error (exit 2).
    """
    fmin, pm = adiabatic_f_min(K, baths)
    if fmin > _TANGENT_FTOL:
        raise NoJumpPoints(f"f stays positive (min {fmin:.3e} at p={pm:.6f}) for K={K}")
    if abs(fmin) <= _TANGENT_FTOL:
        return pm, pm
    f, _ = _log_p_kernels(K, baths)
    if f(_S_LO) <= 0.0:
        raise ValueError(f"K={K} is too close to 0: the lower switch population lies below 1e-250")
    sm = math.log(pm)
    p1 = math.exp(brentq(f, _S_LO, sm, xtol=1e-15))
    p2 = math.exp(brentq(f, sm, _S_HI, xtol=1e-15))
    return p1, p2


def _tangency_pair(p: float, K: float, baths: Baths) -> tuple[float, float]:
    mu_c_val, mu_h_val = _mu_pair(K, baths)
    return _tangency_terms(*_x_pair(p, 1.0 - p, mu_c_val, mu_h_val), mu_c_val, mu_h_val)


def tangency_residual(p: float, K: float, baths: Baths) -> float:
    """Normalized residual of the switch-point merging condition.

    The two roots of f(., K) merge where (1+x_c^2)/(mu_c x_c) and
    -(1+x_h^2)/(mu_h x_h) agree; returns their imbalance scaled by the
    magnitudes so the value is comparable across temperature ratios.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"population must lie in (0, 1), got {p}")
    a_c, a_h = _tangency_pair(p, K, baths)
    return abs(a_c + a_h) / max(abs(a_c), abs(a_h), 1.0)


@dataclass(frozen=True)
class EngineSolution:
    """Maximum-power working point of the cyclic two-level engine."""

    z: float
    K_star: float
    p_star: float
    u_c_star: float
    u_h_star: float
    eta_star: float
    eta_carnot: float
    eta_curzon_ahlborn: float
    g: float
    theta: float

    def to_dict(self) -> dict:
        return asdict(self)


# Newton steps in K before SolverError.  A solve takes 4 to 9 for z in
# 1e-4 ... 0.9999, and at most 15 in a random draw of 6000 z in 1e-12 ...
# 1 - 3e-16; bisection alone needs about 50 to bring K to the rounding level
# of f, so a run of Newton steps that keep leaving the bracket fails here
# instead of ending as a bisection.
_NEWTON_MAXITER = 30


def solve_engine(z: float, beta_c: float = 1.0, gamma: float = 1.0) -> EngineSolution:
    """Solve for the lowest admissible emission rate K* and its working point.

    f and the tangency depend on K only through beta_c*K/gamma, so the solve
    runs at unit scale and K* is scaled back at the end.  K* is the zero of
    F(K) = min_p f(p, K), which falls through zero as K rises.  By the
    envelope theorem F'(K) is the partial derivative df/dK at the minimiser,
    which has a closed form (_f_and_df_dk) and is negative for every K < 0,
    so K* is found by Newton's method in K.  Each step minimises f over
    log p by brentq on the tangency function, started from the previous
    minimiser, and p* is the last minimiser (to 1e-15 in log p).  The steps
    keep a sign bracket in K; one that leaves it is replaced by a bisection,
    geometric while the ends differ by more than a factor of 2.  The solve
    stops when |F| is within the rounding level of f, or after taking a step
    within 4 ulps of K, and raises SolverError after _NEWTON_MAXITER steps.

    The SolverError gate is absolute (|f| and the tangency residual at most
    1e-10), while f scales like |K*|, about 0.0275 (1 - z)^2 near z = 1; there
    the gate certifies nothing.  Against a 50-digit mpmath solve, K* is off by
    5.5e-6 relative at z = 1 - 1e-10, 8.2e-5 at 1 - 1e-11 and 5.8e-4 at
    1 - 1e-12: there the rounding of f alone leaves K* uncertain by about
    1.3e-15 / (1 - z) relative.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"temperature ratio must lie in (0, 1), got {z}")
    scaled = Baths.from_ratio(z, beta_c=beta_c, gamma=gamma)
    baths = Baths.from_ratio(z)

    theta = lambert_w0(math.exp(-1.0)) / 4.0
    # K* satisfies -K* <= theta/z, so 3x that brackets from below.  Near z = 1,
    # K* behaves like -0.0275 (1 - z)^2, so the upper end shrinks with it.
    # Newton starts from -theta (1 - z)^2 / z: K* as z -> 0, and 2.5 K* as z -> 1.
    lo = -3.0 * theta / z
    hi = -min(1e-12, 1e-3 * (1.0 - z) ** 2)
    K, s = -theta * (1.0 - z) ** 2 / z, None
    for _ in range(_NEWTON_MAXITER):
        s = _tangency_root(_log_p_kernels(K, baths)[1], 1e-15, s)
        F, dF, level = _f_and_df_dk(s, K, baths)
        if abs(F) <= level:
            break
        if F > 0.0:
            lo = K
        else:
            hi = K
        K_next = K - F / dF
        if not lo < K_next < hi:
            K_next = -math.sqrt(lo * hi) if lo < 2.0 * hi else 0.5 * (lo + hi)
        # a step within 4 ulps is the last, and taken: at z below about 1e-10 one
        # ulp of K moves f by more than its rounding level.  p* stays the
        # minimiser at the K before it.
        done = abs(K_next - K) <= 8.0 * _UNIT_ROUNDOFF * abs(K)
        K = K_next
        if done:
            break
    else:
        raise SolverError(f"engine solve did not converge at z={z}: no Newton step in K met the tolerance")
    p = math.exp(s)

    f_res = abs(adiabatic_f(p, K, baths))
    t_res = tangency_residual(p, K, baths)
    if f_res > 1e-10 or t_res > 1e-10:
        raise SolverError(
            f"engine solve did not converge at z={z}: |f|={f_res:.3e}, tangency={t_res:.3e}",
            residuals=(f_res, t_res),
        )

    mu_c_val, mu_h_val = _mu_pair(K, baths)
    u_c = isotherm_u_of_p(p, mu_c_val, scaled.beta_c)
    u_h = isotherm_u_of_p(p, mu_h_val, scaled.beta_h)
    return EngineSolution(
        z=z,
        K_star=K * (gamma / beta_c),
        p_star=p,
        u_c_star=u_c,
        u_h_star=u_h,
        eta_star=1.0 - u_c / u_h,
        eta_carnot=1.0 - z,
        eta_curzon_ahlborn=1.0 - math.sqrt(z),
        g=-K,
        theta=theta,
    )


def engine_residuals(sol: EngineSolution, beta_c: float = 1.0, gamma: float = 1.0) -> tuple[float, float]:
    """Residuals (|f|, tangency) of the two defining equations at the solution."""
    baths = Baths.from_ratio(sol.z, beta_c=beta_c, gamma=gamma)
    return (
        abs(adiabatic_f(sol.p_star, sol.K_star, baths)),
        tangency_residual(sol.p_star, sol.K_star, baths),
    )


def lambert_w0(x: float) -> float:
    """Principal branch of w*exp(w) = x for x >= -1/e, by Halley iteration.

    Seeded with the log asymptote for large x and a branch-point series near
    -1/e; converges to full double precision in a handful of steps.
    """
    if math.isnan(x):
        raise ValueError("lambert_w0 needs a real argument, got nan")
    branch_point = -math.exp(-1.0)
    if x < branch_point - 1e-15:
        raise ValueError(f"lambert_w0 domain is [-1/e, inf), got {x}")
    if x == 0.0:
        return 0.0
    if x <= branch_point:
        return -1.0
    if abs(x - branch_point) < 1e-6:
        t = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + t - t * t / 3.0 + 11.0 * t ** 3 / 72.0
    elif x < 1.0:
        w = x * (1.0 - x + 1.5 * x * x)  # series around 0
        if x < -0.2:
            t = math.sqrt(2.0 * (math.e * x + 1.0))
            w = -1.0 + t - t * t / 3.0
    else:
        lx = math.log(x)
        llx = math.log(lx) if lx > 0 else 0.0
        w = lx - llx
    for _ in range(50):
        ew = math.exp(w)
        resid = w * ew - x
        if resid == 0.0:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * resid / (2.0 * wp1)
        dw = resid / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def asymptotic_limit() -> tuple[float, float]:
    """Low-temperature-ratio limit constants: theta = W(1/e)/4 and the limiting p*."""
    theta = lambert_w0(math.exp(-1.0)) / 4.0
    return theta, 2.0 * theta / (1.0 + 4.0 * theta)


@dataclass(frozen=True)
class IsothermSegment:
    """One optimal arc: branch, conserved rate, control endpoints, duration and heat.

    x0 -> x1 is time order: x increases along cold arcs and decreases along
    hot arcs (non-negative gap), so the duration integral is non-negative in
    both cases.
    """

    branch: Branch
    K: float
    x0: float
    x1: float
    duration: float
    heat: float

    @property
    def is_cold(self) -> bool:
        return self.branch.kind == "cold"


def _check_branch_range(branch: Branch, x: float, mu_val: float) -> None:
    tol = 1e-9
    if branch.gap_sign == "nonneg":
        if x < 1.0 - tol:
            raise ValueError(f"non-negative gaps need x >= 1, got x={x}")
        if branch.kind == "cold":
            if x < abs(mu_val) - tol:
                raise ValueError(f"cold arc needs x >= |mu|={abs(mu_val)} to keep p <= 1, got {x}")
        else:
            if mu_val >= 1.0:
                raise ValueError(f"hot arc empty: mu_h={mu_val} >= 1 leaves no admissible x")
            if x > 1.0 / mu_val + tol:
                raise ValueError(f"hot arc needs x <= 1/mu_h={1.0 / mu_val}, got {x}")
    else:
        if x > 1.0 + tol:
            raise ValueError(f"negative gaps need x <= 1, got x={x}")


def make_segment(branch: Branch, K: float, baths: Baths, x0: float, x1: float) -> IsothermSegment:
    """Build and validate a segment from control endpoints in time order."""
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"control endpoints must be finite, got x0={x0}, x1={x1}")
    if K > 0.0:
        raise ValueError(f"segments require K <= 0, got {K}")
    beta = baths.beta(branch.kind)
    mu_val = mu(K, beta, branch, baths.gamma)
    _check_branch_range(branch, x0, mu_val)
    _check_branch_range(branch, x1, mu_val)
    duration = isotherm_time(x0, x1, mu_val, baths.gamma)
    heat = isotherm_heat(x0, x1, mu_val, beta)
    return IsothermSegment(branch=branch, K=K, x0=x0, x1=x1, duration=duration, heat=heat)


def segment_from_populations(
    branch: Branch, K: float, baths: Baths, p0: float, p1: float
) -> IsothermSegment:
    """Build a segment between populations in time order (cold: p0 >= p1, hot: p0 <= p1)."""
    beta = baths.beta(branch.kind)
    mu_val = mu(K, beta, branch, baths.gamma)
    x0 = isotherm_x_of_p(p0, mu_val)
    x1 = isotherm_x_of_p(p1, mu_val)
    return make_segment(branch, K, baths, x0, x1)
