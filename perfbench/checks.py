"""Output checks computed apart from the program.

Every check takes plain numbers and returns a list of failure messages
(empty when the output passes).  The references are evaluated here, in
extended precision with mpmath, from the paper's closed forms and from the
master equation itself; nothing is compared against stored program output.

Closed forms used (one arc at conserved rate K <= 0, bath b with inverse
temperature beta_b, total rate gamma, x = exp(beta_b u / 2)):

- population   p = (1 - mu x) / (1 + x^2),   mu = -/+ sqrt(-beta_b K / gamma)
  for the cold / hot branch with non-negative gap, so x(p) is the positive
  root of p x^2 + mu x + p - 1 = 0;
- costate      q = [(mu / beta_b)(x + 1/x) - u] / 2;
- a bath switch at population p keeps the costate continuous, so the switch
  condition is f(p; K) = 2 sqrt(beta_c beta_h) (q_hot(p) - q_cold(p)) = 0,
  and the two switch populations merge (K = K*, p = p*) where also
  dq_hot/dp = dq_cold/dp;
- the reset dynamics dp/dt = gamma (p_eq(u) - p), p_eq(u) = 1 / (1 + e^{beta u}),
  give an arc's duration as the integral of dp / (gamma (p_eq - p)) and the
  heat it releases as the integral of -u dp.
"""

from __future__ import annotations

import math

import mpmath as mp
from scipy.special import lambertw

DPS = 40

# thresholds of `pmp-thermo verify` for a planned protocol
VERIFY_LIMITS = {
    "max_dp": 1e-12,
    "max_dq": 1e-9,
    "max_conservation": 1e-9,
}
BANG_BANG_LIMIT = 1e-12


def theta() -> float:
    """Low-ratio limit of z*g, W(1/e)/4, from scipy's Lambert W."""
    return float(lambertw(math.exp(-1.0)).real) / 4.0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# --- closed forms in extended precision -------------------------------------


def _mu(K, beta, gamma, kind: str):
    s = -1 if kind == "cold" else 1
    return s * mp.sqrt(-mp.mpf(beta) * mp.mpf(K) / mp.mpf(gamma))


def _x_of_p(p, mu):
    p = mp.mpf(p)
    return (-mu + mp.sqrt(mu * mu + 4 * p * (1 - p))) / (2 * p)


def costate(p, K, beta, gamma, kind: str):
    mu = _mu(K, beta, gamma, kind)
    x = _x_of_p(p, mu)
    u = 2 * mp.log(x) / beta
    return ((mu / beta) * (x + 1 / x) - u) / 2


def switch_condition(p, K, beta_c, beta_h, gamma) -> float:
    """f(p; K) from costate continuity across a gap quench at population p."""
    with mp.workdps(DPS):
        bc, bh = mp.mpf(beta_c), mp.mpf(beta_h)
        f = 2 * mp.sqrt(bc * bh) * (costate(p, K, bh, gamma, "hot") - costate(p, K, bc, gamma, "cold"))
        return float(f)


def tangency(p, K, beta_c, beta_h, gamma) -> float:
    """Relative mismatch of dq/dp on the two branches; zero where the switch points merge."""
    with mp.workdps(DPS):
        bc, bh = mp.mpf(beta_c), mp.mpf(beta_h)
        p = mp.mpf(p)
        dqc = mp.diff(lambda s: costate(s, K, bc, gamma, "cold"), p)
        dqh = mp.diff(lambda s: costate(s, K, bh, gamma, "hot"), p)
        return float(abs(dqh - dqc) / max(abs(dqh), abs(dqc)))


def arc(kind: str, K, beta, gamma, p0, p1) -> tuple[float, float] | None:
    """(duration, heat released) of the optimal arc p0 -> p1, or None if inadmissible.

    Admissible means the arc runs with its bath's flow (cold arcs lower p,
    hot arcs raise it) and keeps a non-negative gap (x >= 1) at both ends.
    """
    if (kind == "cold" and p1 > p0) or (kind == "hot" and p1 < p0):
        return None
    with mp.workdps(25):
        beta, gamma = mp.mpf(beta), mp.mpf(gamma)
        mu = _mu(K, beta, gamma, kind)
        if _x_of_p(p0, mu) < 1 or _x_of_p(p1, mu) < 1:
            return None
        if p0 == p1:
            return 0.0, 0.0

        def u(p):
            return 2 * mp.log(_x_of_p(p, mu)) / beta

        def rate(p):
            return gamma * (1 / (1 + mp.exp(beta * u(p))) - p)

        a, b = mp.mpf(p0), mp.mpf(p1)
        tau = mp.quad(lambda p: 1 / rate(p), [a, b])
        heat = mp.quad(lambda p: -u(p), [a, b])
        return float(tau), float(heat)


def heat_infimum(tau, K_star, p_star, p_in, p_out, beta_c, beta_h, gamma) -> float:
    """Many-cycle infimum Q_inf(tau) = Q_arcs(K*) + K* (tau - tau_arcs(K*)).

    The routes are the admissible arc sequences at K* that pass through p*,
    where the infinitesimal cycle of rate K* runs; the cheapest one wins.
    """
    beta = {"cold": beta_c, "hot": beta_h}
    other = {"cold": "hot", "hot": "cold"}
    routes = []
    if min(p_in, p_out) <= p_star <= max(p_in, p_out):
        routes += [[(kind, p_in, p_out)] for kind in ("cold", "hot")]
    routes += [[(kind, p_in, p_star), (other[kind], p_star, p_out)] for kind in ("cold", "hot")]
    best = math.inf
    for legs in routes:
        parts = [arc(kind, K_star, beta[kind], gamma, a, b) for kind, a, b in legs]
        if any(part is None for part in parts):
            continue
        tau_r = sum(t for t, _ in parts)
        q_r = sum(q for _, q in parts)
        best = min(best, q_r + K_star * (tau - tau_r))
    return best


def step_protocol(p_in, durations, u_values, pattern, beta_c, beta_h, gamma) -> tuple[float, float]:
    """Exact exponential update of a piecewise-constant protocol: (p_final, heat released)."""
    with mp.workdps(30):
        p = mp.mpf(p_in)
        heat = mp.mpf(0)
        for dt, u, kind in zip(durations, u_values, pattern):
            beta = mp.mpf(beta_c if kind == "cold" else beta_h)
            u = mp.mpf(u)
            p_eq = 1 / (1 + mp.exp(beta * u))
            p_new = p_eq + (p - p_eq) * mp.exp(-mp.mpf(gamma) * mp.mpf(dt))
            heat += -u * (p_new - p)
            p = p_new
        return float(p), float(heat)


# --- per-workload checks -----------------------------------------------------


def check_engine_point(z, beta_c, gamma, K_star, p_star) -> list[str]:
    """Switch condition and tangency at a returned working point, both <= 1e-10."""
    beta_h = z * beta_c
    out = []
    f = switch_condition(p_star, K_star, beta_c, beta_h, gamma)
    if not abs(f) <= 1e-10:
        out.append(f"z={z}: |f(p*, K*)| = {abs(f):.3e} > 1e-10")
    t = tangency(p_star, K_star, beta_c, beta_h, gamma)
    if not t <= 1e-10:
        out.append(f"z={z}: tangency residual {t:.3e} > 1e-10")
    return out


def check_engine_curve(rows: list[dict], unit_k: dict[float, float]) -> list[str]:
    """rows: one solve each (z, beta_c, gamma, K_star, p_star, eta_star, theta);
    unit_k: K* of the unit-scale solve (beta_c = gamma = 1) for every z in rows."""
    th = theta()
    out = []
    for r in rows:
        z = r["z"]
        out += check_engine_point(z, r["beta_c"], r["gamma"], r["K_star"], r["p_star"])
        k_unit = unit_k[z]
        scaled = r["K_star"] * r["beta_c"] / r["gamma"]
        if not _rel(scaled, k_unit) <= 1e-9:
            out.append(f"z={z}: K* beta_c/gamma = {scaled!r} vs unit-scale {k_unit!r}")
        if not r["eta_star"] <= (1.0 - z) + 1e-12:
            out.append(f"z={z}: eta* = {r['eta_star']} above Carnot {1.0 - z}")
        if not abs(r["theta"] - th) <= 1e-15:
            out.append(f"reported theta {r['theta']!r} vs W(1/e)/4 = {th!r}")
    zs = sorted(unit_k)
    gs = [-unit_k[z] for z in zs]
    for (z0, g0), (z1, g1) in zip(zip(zs, gs), zip(zs[1:], gs[1:])):
        if not g1 < g0:
            out.append(f"g not falling: g({z0}) = {g0!r}, g({z1}) = {g1!r}")
    gaps = [abs(z * g - th) for z, g in zip(zs, gs) if z <= 1e-2]
    if any(not b > a for a, b in zip(gaps, gaps[1:])):
        out.append(f"|z g - theta| does not shrink as z falls: {gaps}")
    if gaps and not gaps[0] <= 1e-2 * th:
        out.append(f"z g at z={zs[0]} is {gaps[0] / th:.2%} from theta")
    return out


def check_deadline(op: dict, q_inf: float, tau_rtol: float, max_cycles: int | None) -> list[str]:
    """op: tau, z, beta_c, gamma, T, Q, K, n_cycles, switch_ps."""
    out = []
    tau, T = op["tau"], op["T"]
    if not abs(T - tau) <= max(tau_rtol * tau, 1e-9):
        out.append(f"tau={tau}: |T - tau| = {abs(T - tau):.3e} beyond tau_rtol={tau_rtol}")
    if not op["Q"] >= q_inf - 1e-9 * abs(q_inf):
        out.append(f"tau={tau}: Q = {op['Q']!r} below the many-cycle infimum {q_inf!r}")
    if max_cycles is not None and not op["n_cycles"] <= max_cycles:
        out.append(f"tau={tau}: {op['n_cycles']} cycles above max_cycles={max_cycles}")
    beta_h = op["z"] * op["beta_c"]
    for p in op["switch_ps"]:
        f = switch_condition(p, op["K"], op["beta_c"], beta_h, op["gamma"])
        if not abs(f) <= 1e-10:
            out.append(f"tau={tau}: switch at p={p!r} has |f| = {abs(f):.3e}")
    return out


def check_simulation(op: dict) -> list[str]:
    """op: plan_time, plan_heat, p_out, gksl_heat, gksl_p_final, first_law, validate,
    csv_last (t, Qcum), json_totals (total_time, total_heat)."""
    out = []
    if not _rel(op["gksl_heat"], op["plan_heat"]) <= 1e-6:
        out.append(f"GKSL heat {op['gksl_heat']!r} vs plan {op['plan_heat']!r}")
    if not _rel(op["gksl_p_final"], op["p_out"]) <= 1e-6:
        out.append(f"GKSL final population {op['gksl_p_final']!r} vs p_out {op['p_out']!r}")
    if not abs(op["first_law"]) <= 1e-8 * max(1.0, abs(op["plan_heat"])):
        out.append(f"first-law residual {op['first_law']:.3e}")
    v = op["validate"]
    for key, limit in VERIFY_LIMITS.items():
        if not v[key] < limit:
            out.append(f"validate_plan {key} = {v[key]:.3e} not below {limit}")
    if not v["max_bang_bang_violation"] <= BANG_BANG_LIMIT:
        out.append(f"validate_plan bang-bang violation {v['max_bang_bang_violation']:.3e}")
    t_last, q_last = op["csv_last"]
    if not _rel(t_last, op["plan_time"]) <= 1e-12:
        out.append(f"CSV ends at t={t_last!r}, plan total_time {op['plan_time']!r}")
    if not _rel(q_last, op["plan_heat"]) <= 1e-12:
        out.append(f"CSV ends with Qcum={q_last!r}, plan total_heat {op['plan_heat']!r}")
    j_time, j_heat = op["json_totals"]
    if not (_rel(j_time, op["plan_time"]) <= 1e-12 and _rel(j_heat, op["plan_heat"]) <= 1e-12):
        out.append(f"JSON totals ({j_time!r}, {j_heat!r}) differ from the plan")
    return out


def check_oracle(op: dict) -> list[str]:
    """op: z, beta_c, gamma, p_in, p_out, p_tol, u_max, n_intervals, n_levels,
    q_pmp, q_best, p_final, durations, u_values, pattern, n_evaluated."""
    out = []
    if not op["q_best"] >= op["q_pmp"] - op["u_max"] * op["p_tol"]:
        out.append(f"brute force beats the plan: {op['q_best']!r} < {op['q_pmp']!r} - u_max*p_tol")
    p, q = step_protocol(
        op["p_in"], op["durations"], op["u_values"], op["pattern"],
        op["beta_c"], op["z"] * op["beta_c"], op["gamma"],
    )
    if not abs(q - op["q_best"]) <= 1e-10 * max(1.0, abs(q)):
        out.append(f"winning protocol releases {q!r} when stepped, reported {op['q_best']!r}")
    if not abs(p - op["p_final"]) <= 1e-10:
        out.append(f"winning protocol ends at p={p!r}, reported {op['p_final']!r}")
    if not abs(p - op["p_out"]) <= op["p_tol"]:
        out.append(f"winning protocol misses p_out by {abs(p - op['p_out']):.3e} > p_tol")
    n, levels = op["n_intervals"], op["n_levels"]
    expected = (n + 1) * levels**n  # single-switch patterns cold^k hot^(n-k), k = 0..n
    if op["n_evaluated"] != expected:
        out.append(f"n_protocols_evaluated {op['n_evaluated']} != {n + 1} x {levels}^{n}")
    return out
