import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmp_thermo import bruteforce
from pmp_thermo.bruteforce import (
    BangProtocol,
    GridSearchResult,
    InfeasibleTarget,
    ProtocolGrid,
    comparison_report,
    grid_search,
    simulate_bang_protocol,
    single_switch_patterns,
)
from pmp_thermo.lindblad import TwoLevelResetModel
from pmp_thermo.planner import build_trajectory
from pmp_thermo.two_level import Baths

K_REF = -0.05
LEVELS_COARSE = tuple(float(v) for v in np.arange(0.0, 12.0, 2.0))  # 6 values
LEVELS_FINE = tuple(float(v) for v in np.arange(0.0, 12.0, 1.0))  # 12, superset


@pytest.fixture(scope="module")
def worked():
    baths = Baths.from_ratio(0.3)
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, K_REF, 0, baths)
    return baths, plan


def all_patterns(n_intervals):
    """Every bath assignment, 2^n patterns."""
    return tuple(itertools.product(("cold", "hot"), repeat=n_intervals))


def excited_weight(u, kind, baths):
    """The reset model's excited Gibbs weight, one level at a time."""
    return float(TwoLevelResetModel(baths).equilibrium(u, kind)[1, 1].real)


def _reference_grid_search(p_in, p_out, grid, baths, p_tol=1e-3):
    """The digit-decoding enumeration: every protocol index decoded and stepped from p_in."""
    chunk = 1 << 20
    n = grid.n_intervals
    levels = np.asarray(grid.u_levels, dtype=float)
    n_levels = levels.size
    dt = grid.tau / n
    decay = math.exp(-baths.gamma * dt)
    total = n_levels**n
    peq_by_kind = {kind: np.array([excited_weight(u, kind, baths) for u in levels]) for kind in ("cold", "hot")}
    best_q, best_key, best_p = math.inf, None, math.nan
    closest = math.inf
    n_feasible = 0
    for ip, pattern in enumerate(grid.bath_patterns):
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            p = np.full(idx.shape, p_in)
            q = np.zeros(idx.shape)
            for k, kind in enumerate(pattern):
                digit = (idx // (n_levels ** (n - 1 - k))) % n_levels
                u_k = levels[digit]
                peq = peq_by_kind[kind][digit]
                p_new = peq + (p - peq) * decay
                q -= u_k * (p_new - p)
                p = p_new
            miss = np.abs(p - p_out)
            closest = min(closest, float(miss.min()))
            feasible = miss <= p_tol
            n_feasible += int(feasible.sum())
            if feasible.any():
                qf = np.where(feasible, q, math.inf)
                j = int(np.argmin(qf))
                if qf[j] < best_q:
                    best_q = float(qf[j])
                    best_key = (ip, int(idx[j]))
                    best_p = float(p[j])
    if best_key is None:
        raise InfeasibleTarget(closest=closest, target=p_out)
    ip, code = best_key
    digits = [(code // (n_levels ** (n - 1 - k))) % n_levels for k in range(n)]
    protocol = BangProtocol(
        durations=tuple([dt] * n),
        u_values=tuple(float(levels[d]) for d in digits),
        baths_pattern=grid.bath_patterns[ip],
    )
    return GridSearchResult(best_q, protocol, best_p, grid.n_protocols, n_feasible, 0.0)


def assert_matches_reference(p_in, p_out, grid, baths, p_tol):
    """grid_search agrees bit for bit with the reference, infeasible outcomes included."""
    try:
        ref = _reference_grid_search(p_in, p_out, grid, baths, p_tol)
    except InfeasibleTarget as exc:
        with pytest.raises(InfeasibleTarget) as err:
            grid_search(p_in, p_out, grid, baths, p_tol)
        assert err.value.closest_approach == exc.closest_approach
        return None
    res = grid_search(p_in, p_out, grid, baths, p_tol)
    assert res.q_best == ref.q_best
    assert res.protocol == ref.protocol
    assert res.p_final == ref.p_final
    assert res.n_feasible == ref.n_feasible
    assert res.n_evaluated == ref.n_evaluated
    return res


class TestSimulation:
    def test_gibbs_stays_put(self):
        baths = Baths.from_ratio(0.3)
        u = 2.0
        p_eq = 1.0 / (1.0 + math.exp(baths.beta_c * u))
        proto = BangProtocol(durations=(1.0, 2.0), u_values=(u, u), baths_pattern=("cold", "cold"))
        p_final, heat = simulate_bang_protocol(p_eq, proto, baths)
        assert p_final == pytest.approx(p_eq, abs=1e-15)
        assert heat == pytest.approx(0.0, abs=1e-15)

    def test_exact_exponential_step(self):
        baths = Baths.from_ratio(0.3)
        u, dt, p0 = 1.5, 0.7, 0.4
        p_eq = 1.0 / (1.0 + math.exp(baths.beta_h * u))
        proto = BangProtocol(durations=(dt,), u_values=(u,), baths_pattern=("hot",))
        p_final, heat = simulate_bang_protocol(p0, proto, baths)
        expected = p_eq + (p0 - p_eq) * math.exp(-dt)
        assert p_final == pytest.approx(expected, abs=1e-15)
        assert heat == pytest.approx(-u * (expected - p0), abs=1e-15)

    @pytest.mark.parametrize("kind", ["cold", "hot"])
    @pytest.mark.parametrize("beta_u", [11.0, 40.0, 80.0, 700.0])
    def test_large_gap_against_mpmath(self, kind, beta_u):
        # 0.5 (1 - tanh(beta u / 2)) was 1.5e-12 relative off at beta u = 11 and
        # rounded the weight to 0 at 40 and 80, leaving only the e^{-200} memory of p0
        baths = Baths(beta_c=1.0, beta_h=0.5)
        u = beta_u / baths.beta(kind)
        proto = BangProtocol(durations=(200.0,), u_values=(u,), baths_pattern=(kind,))
        p_final, _ = simulate_bang_protocol(0.5, proto, baths)
        with mp.workdps(40):
            peq = 1 / (1 + mp.exp(mp.mpf(beta_u)))
            want = peq + (mp.mpf(0.5) - peq) * mp.exp(-200)
        assert abs(p_final - want) <= 1e-15 * want

    def test_search_weights_match_single_levels(self, worked, monkeypatch):
        # grid_search takes the weights of all levels as one stack; each must have the bits of one level alone
        baths, plan = worked
        levels = (0.0, 0.5, 3.0, 11.0, 40.0, 80.0, 700.0)
        seen = []
        relax = bruteforce._relax

        def spy(p, peq, decay):
            seen.append(peq)
            return relax(p, peq, decay)

        monkeypatch.setattr(bruteforce, "_relax", spy)
        grid = ProtocolGrid(1, levels, (("cold",), ("hot",)), plan.total_time)
        grid_search(0.07, 0.26, grid, baths, p_tol=1.0)
        assert len(seen) == 2  # one first half per bath, no second half
        for kind, peq in zip(("cold", "hot"), seen):
            assert np.array_equal(peq, [excited_weight(u, kind, baths) for u in levels])


class TestGridSearch:
    def test_single_bath_equilibrium_start(self):
        # starting from the Gibbs population of an available constant level,
        # doing nothing is optimal and releases exactly zero heat
        baths = Baths(beta_c=1.0, beta_h=1.0)
        u_star = 2.0
        p_eq = 1.0 / (1.0 + math.exp(u_star))
        grid = ProtocolGrid(
            n_intervals=3,
            u_levels=(0.0, 1.0, u_star, 3.0),
            bath_patterns=(("cold",) * 3,),
            tau=2.0,
        )
        res = grid_search(p_eq, p_eq, grid, baths, p_tol=1e-9)
        assert res.q_best == pytest.approx(0.0, abs=1e-12)
        assert res.protocol.u_values == (u_star, u_star, u_star)

    def test_never_beats_planned_heat(self, worked):
        baths, plan = worked
        grid = ProtocolGrid(
            n_intervals=6,
            u_levels=LEVELS_FINE,
            bath_patterns=single_switch_patterns(6),
            tau=plan.total_time,
        )
        res = grid_search(0.07, 0.26, grid, baths, p_tol=1e-3)
        slack = 1e-3 * max(LEVELS_FINE)  # target tolerance can shave at most u*dp
        assert res.q_best >= plan.total_heat - slack
        report = comparison_report(plan.total_heat, res)
        assert set(report) == {"q_pmp", "q_brute", "gap", "n_protocols_evaluated", "wall_time"}
        assert report["gap"] >= -slack

    def test_denser_levels_never_increase_heat(self, worked):
        baths, plan = worked
        q = {}
        for levels in (LEVELS_COARSE, LEVELS_FINE):
            grid = ProtocolGrid(
                n_intervals=6,
                u_levels=levels,
                bath_patterns=single_switch_patterns(6),
                tau=plan.total_time,
            )
            q[len(levels)] = grid_search(0.07, 0.26, grid, baths, p_tol=1e-3).q_best
        assert q[12] <= q[6]

    def test_deterministic_bit_for_bit(self, worked):
        baths, plan = worked
        grid = ProtocolGrid(
            n_intervals=4,
            u_levels=LEVELS_FINE,
            bath_patterns=single_switch_patterns(4),
            tau=plan.total_time,
        )
        r1 = grid_search(0.07, 0.26, grid, baths)
        r2 = grid_search(0.07, 0.26, grid, baths)
        assert r1.q_best == r2.q_best
        assert r1.protocol == r2.protocol
        assert r1.n_feasible == r2.n_feasible

    def test_infeasible_reports_closest(self, worked):
        baths, plan = worked
        grid = ProtocolGrid(
            n_intervals=2,
            u_levels=(0.0, 10.0),
            bath_patterns=all_patterns(2),
            tau=plan.total_time,
        )
        with pytest.raises(InfeasibleTarget) as err:
            grid_search(0.07, 0.26, grid, baths, p_tol=1e-6)
        assert 0.0 < err.value.closest_approach < 1.0

    def test_grid_bounds_enforced(self):
        with pytest.raises(ValueError):
            ProtocolGrid(n_intervals=9, u_levels=(0.0, 1.0), bath_patterns=(("cold",) * 9,), tau=1.0)
        with pytest.raises(ValueError):
            ProtocolGrid(n_intervals=2, u_levels=tuple(np.linspace(0, 1, 13)), bath_patterns=(("cold",) * 2,), tau=1.0)


class TestLayeredEnumeration:
    """grid_search against the digit-decoding reference, across block layouts."""

    @pytest.mark.parametrize(
        "n, levels, patterns, p_tol",
        [
            (1, LEVELS_FINE, all_patterns(1), 0.05),
            (4, (5.0,), single_switch_patterns(4), 0.5),
            (4, LEVELS_FINE, all_patterns(4), 1e-3),
            (6, LEVELS_FINE, single_switch_patterns(6), 1e-3),
        ],
        ids=["n1", "L1", "all-patterns-4", "multi-block-6x12"],
    )
    def test_matches_reference(self, worked, n, levels, patterns, p_tol):
        baths, plan = worked
        grid = ProtocolGrid(n_intervals=n, u_levels=levels, bath_patterns=patterns, tau=plan.total_time)
        assert assert_matches_reference(0.07, 0.26, grid, baths, p_tol) is not None

    @pytest.mark.parametrize("n, levels", [(2, (0.0, 10.0)), (5, LEVELS_FINE)])
    def test_infeasible_matches_reference(self, worked, n, levels):
        baths, plan = worked
        grid = ProtocolGrid(n_intervals=n, u_levels=levels, bath_patterns=all_patterns(n), tau=plan.total_time)
        assert assert_matches_reference(0.07, 0.26, grid, baths, 0.0) is None

    @pytest.mark.parametrize("chunk", [64, 100])
    @pytest.mark.parametrize(
        "levels, patterns",
        [
            (LEVELS_FINE, single_switch_patterns(4)),
            ((0.0, 3.0, 3.0, 6.0, 9.0, 9.0, 10.5), all_patterns(4)),  # repeated levels tie across blocks
        ],
        ids=["L12", "L7-repeated"],
    )
    def test_small_blocks_match_reference(self, worked, monkeypatch, chunk, levels, patterns):
        baths, plan = worked
        monkeypatch.setattr(bruteforce, "_CHUNK", chunk)
        grid = ProtocolGrid(n_intervals=4, u_levels=levels, bath_patterns=patterns, tau=plan.total_time)
        assert assert_matches_reference(0.07, 0.26, grid, baths, 1e-2) is not None

    def test_tie_goes_to_first_pattern(self, worked):
        # with equal bath temperatures every pattern releases the same heats
        _, plan = worked
        baths = Baths(beta_c=1.0, beta_h=1.0)
        p_out = excited_weight(4.0, "cold", baths)
        grid = ProtocolGrid(n_intervals=4, u_levels=LEVELS_FINE, bath_patterns=all_patterns(4), tau=plan.total_time)
        res = assert_matches_reference(0.07, p_out, grid, baths, 1e-3)
        assert res.protocol.baths_pattern == grid.bath_patterns[0]

    def test_exact_landing_is_feasible_at_zero_tolerance(self):
        # staying at a Gibbs population lands with zero miss, which p_tol = 0 admits
        baths = Baths(beta_c=1.0, beta_h=1.0)
        p_eq = excited_weight(2.0, "cold", baths)
        grid = ProtocolGrid(n_intervals=3, u_levels=(0.0, 1.0, 2.0, 3.0), bath_patterns=all_patterns(3), tau=2.0)
        res = assert_matches_reference(p_eq, p_eq, grid, baths, 0.0)
        assert res.q_best == 0.0
        assert res.protocol.u_values == (2.0, 2.0, 2.0)

    def test_blocks_hold_at_most_chunk_protocols(self, worked, monkeypatch):
        baths, plan = worked
        sizes = []
        relax = bruteforce._relax

        def spy(p, peq, decay):
            out = relax(p, peq, decay)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(bruteforce, "_relax", spy)
        grid = ProtocolGrid(
            n_intervals=6, u_levels=LEVELS_FINE, bath_patterns=single_switch_patterns(6)[:1], tau=plan.total_time
        )
        grid_search(0.07, 0.26, grid, baths)
        assert max(sizes) <= bruteforce._CHUNK
        assert sum(sizes) < 1.1 * len(LEVELS_FINE) ** 6  # each prefix stepped once


def assert_same_bits(p_in, p_out, grid, baths, p_tol):
    """grid_search and the reference agree on every field by repr, so signed zeros count too.

    Returns the search result, or the InfeasibleTarget it raised."""

    def outcome(search):
        try:
            res = search(p_in, p_out, grid, baths, p_tol)
        except InfeasibleTarget as exc:
            return exc, repr(exc.closest_approach)
        return res, repr((res.q_best, res.protocol, res.p_final, res.n_feasible, res.n_evaluated))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, got = outcome(grid_search)
    assert got == outcome(_reference_grid_search)[1]
    return res


class TestMeetInTheMiddle:
    """The split search against the digit-decoding reference, bit for bit."""

    @pytest.mark.parametrize("n, n_levels", [(1, 12), (3, 9), (5, 6), (7, 4), (8, 4)])
    def test_odd_and_even_splits(self, worked, n, n_levels):
        baths, plan = worked
        levels = tuple(float(v) for v in np.linspace(0.0, 11.0, n_levels))
        grid = ProtocolGrid(n, levels, single_switch_patterns(n), plan.total_time)
        res = assert_same_bits(0.07, 0.26, grid, baths, 1e-2)
        assert isinstance(res, GridSearchResult)

    @pytest.mark.parametrize("rate_time", [300.0, 800.0])  # e^{-gamma dt}^h2 underflows; at 800 e^{-gamma dt} does
    @pytest.mark.parametrize("p_tol", [0.0, 1e-3])
    def test_underflowing_slope(self, rate_time, p_tol):
        # every interval relaxes fully, so the landings are the Gibbs populations of the last level
        baths = Baths.from_ratio(0.3)
        levels = tuple(float(v) for v in np.linspace(0.0, 11.0, 6))
        grid = ProtocolGrid(6, levels, all_patterns(6), tau=6 * rate_time)
        assert math.exp(-rate_time) ** 3 == 0.0
        res = assert_same_bits(0.07, excited_weight(levels[2], "hot", baths), grid, baths, p_tol)
        assert isinstance(res, GridSearchResult)
        assert isinstance(assert_same_bits(0.07, 0.26, grid, baths, p_tol), InfeasibleTarget)

    @pytest.mark.parametrize("n", [4, 5])
    def test_equal_baths_tie_across_halves(self, worked, n):
        # equal temperatures make every pattern's halves release the same heats,
        # and repeated levels tie protocols inside a pattern too
        _, plan = worked
        baths = Baths(beta_c=1.0, beta_h=1.0)
        levels = (0.0, 3.0, 3.0, 6.0, 9.0, 9.0)
        grid = ProtocolGrid(n, levels, all_patterns(n), plan.total_time)
        res = assert_same_bits(0.07, excited_weight(3.0, "cold", baths), grid, baths, 1e-3)
        assert res.protocol.baths_pattern == grid.bath_patterns[0]

    @pytest.mark.parametrize("p_tol", [0.0, 1.0])
    def test_tolerance_extremes(self, worked, p_tol):
        baths, plan = worked
        grid = ProtocolGrid(5, LEVELS_COARSE, single_switch_patterns(5), plan.total_time)
        out = assert_same_bits(0.07, 0.26, grid, baths, p_tol)
        if p_tol == 1.0:
            assert out.n_feasible == grid.n_protocols
        else:
            assert isinstance(out, InfeasibleTarget)

    @pytest.mark.parametrize("n", [3, 6, 7])
    def test_infeasible_grids(self, worked, n):
        baths, plan = worked
        grid = ProtocolGrid(n, (0.0, 2.5, 10.0), all_patterns(n), plan.total_time)
        assert isinstance(assert_same_bits(0.07, 0.26, grid, baths, 1e-9), InfeasibleTarget)

    @pytest.mark.parametrize(
        "levels, p_tol",
        [(LEVELS_FINE, 0.05), ((0.0, 3.0, 3.0, 6.0, 9.0, 9.0, 10.5), 1e-2), (LEVELS_COARSE, 1.0)],
        ids=["L12", "L7-repeated", "every-pair"],
    )
    def test_small_pair_blocks(self, worked, monkeypatch, levels, p_tol):
        baths, plan = worked
        monkeypatch.setattr(bruteforce, "_CHUNK", 64)
        grid = ProtocolGrid(5, levels, single_switch_patterns(5), plan.total_time)
        assert isinstance(assert_same_bits(0.07, 0.26, grid, baths, p_tol), GridSearchResult)

    def test_pair_blocks_hold_at_most_chunk_pairs(self, worked, monkeypatch):
        baths, plan = worked
        sizes = []
        pair_blocks = bruteforce._pair_blocks

        def spy(lo, hi):
            for s, pos in pair_blocks(lo, hi):
                assert s.shape == pos.shape
                sizes.append(s.size)
                yield s, pos

        monkeypatch.setattr(bruteforce, "_CHUNK", 1000)
        monkeypatch.setattr(bruteforce, "_pair_blocks", spy)
        grid = ProtocolGrid(6, LEVELS_COARSE, single_switch_patterns(6), plan.total_time)
        res = grid_search(0.07, 0.26, grid, baths, p_tol=1.0)  # every protocol lands
        assert res.n_feasible == grid.n_protocols
        assert max(sizes) <= 1000
        assert sum(sizes) >= grid.n_protocols

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        n=st.integers(min_value=1, max_value=5),
        levels=st.lists(st.sampled_from([0.0, 0.5, 2.0, 3.0, 5.5, 8.0, 11.0]), min_size=1, max_size=5),
        tau=st.floats(min_value=math.log(0.1), max_value=math.log(3000.0)).map(math.exp),
        z=st.sampled_from([0.3, 0.9, 1.0]),
        p_in=st.floats(min_value=0.0, max_value=1.0),
        p_out=st.floats(min_value=0.0, max_value=0.5),
        p_tol=st.sampled_from([0.0, 1e-4, 1e-3, 0.02, 1.0]),
        every_pattern=st.booleans(),
    )
    def test_small_grids(self, n, levels, tau, z, p_in, p_out, p_tol, every_pattern):
        patterns = all_patterns(n) if every_pattern else single_switch_patterns(n)
        grid = ProtocolGrid(n, tuple(levels), patterns, tau)
        assert_same_bits(p_in, p_out, grid, Baths.from_ratio(z) if z < 1.0 else Baths(1.0, 1.0), p_tol)


class TestInputChecks:
    def test_grid_rejects_empty_patterns(self):
        with pytest.raises(ValueError, match="bath pattern"):
            ProtocolGrid(n_intervals=2, u_levels=(0.0, 1.0), bath_patterns=(), tau=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_grid_rejects_non_finite_levels(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProtocolGrid(n_intervals=2, u_levels=(0.0, bad), bath_patterns=(("cold",) * 2,), tau=1.0)

    def test_grid_rejects_nan_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ProtocolGrid(n_intervals=2, u_levels=(0.0, 1.0), bath_patterns=(("cold",) * 2,), tau=math.nan)

    @pytest.mark.parametrize("p_tol", [math.nan, -1.0, -1e-12])
    def test_search_rejects_bad_tolerance(self, worked, p_tol):
        baths, _ = worked
        grid = ProtocolGrid(n_intervals=2, u_levels=(0.0, 1.0), bath_patterns=all_patterns(2), tau=1.0)
        with pytest.raises(ValueError, match="tolerance"):
            grid_search(0.07, 0.26, grid, baths, p_tol=p_tol)

    @pytest.mark.parametrize("p_in, p_out", [(1.5, 0.2), (-0.1, 0.2), (math.nan, 0.2), (0.2, 1.5), (0.2, math.nan)])
    def test_search_rejects_populations_outside_unit_interval(self, worked, p_in, p_out):
        baths, _ = worked
        grid = ProtocolGrid(n_intervals=2, u_levels=(0.0, 1.0), bath_patterns=all_patterns(2), tau=1.0)
        with pytest.raises(ValueError, match="populations"):
            grid_search(p_in, p_out, grid, baths, p_tol=1.0)
