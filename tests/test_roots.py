"""The stdlib Brent port against scipy.optimize.brentq, bit for bit.

Roots and every point at which f is evaluated are compared by float.hex,
so a different sign of zero also fails.  Errors are compared by type and
message.
"""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from pmp_thermo import _roots, planner, two_level
from pmp_thermo._roots import brentq
from pmp_thermo.two_level import Baths, _S_HI, _S_LO, _log_p_kernels, adiabatic_f_min, solve_engine

ZS = (0.01, 0.3, 0.9, 0.99)
K_FRACTIONS = (0.999999, 0.9, 0.5, 1e-3, 1e-8)


def _outcome(solver, f, a, b, **tols):
    """The root's bits or the error, and every point at which f was evaluated."""
    visited = []

    def traced(x):
        visited.append(x.hex())
        return f(x)

    try:
        return solver(traced, a, b, **tols).hex(), visited
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), visited


def assert_same(f, a, b, **tols):
    """Root (or error) of the port, after checking that scipy took the same steps to it."""
    ours = _outcome(brentq, f, a, b, **tols)
    assert ours == _outcome(scipy_brentq, f, a, b, **tols)
    return ours[0]


@pytest.fixture
def compared(monkeypatch):
    """Every brentq call of two_level and planner, run by both solvers and compared."""
    calls = []

    def both(f, a, b, **tols):
        calls.append(assert_same(f, a, b, **tols))
        return brentq(f, a, b, **tols)

    monkeypatch.setattr(two_level, "brentq", both)
    monkeypatch.setattr(planner, "brentq", both)
    return calls


class TestCallSites:
    @pytest.mark.parametrize("z", ZS)
    @pytest.mark.parametrize("frac", K_FRACTIONS)
    def test_log_p_kernels(self, z, frac):
        baths = Baths.from_ratio(z)
        K = frac * solve_engine(z).K_star
        f, h = _log_p_kernels(K, baths)
        for xatol in (1e-13, 1e-15):  # adiabatic_f_min's default, and solve_engine's
            assert_same(h, _S_LO, _S_HI, xtol=xatol)
        sm = math.log(adiabatic_f_min(K, baths)[1])
        if f(sm) < 0.0:
            assert_same(f, _S_LO, sm, xtol=1e-15)
            assert_same(f, sm, _S_HI, xtol=1e-15)

    @pytest.mark.parametrize("z", (1e-4, *ZS, 0.9999, 1 - 1e-9))
    @pytest.mark.parametrize("beta_c, gamma", [(1.0, 1.0), (1e-3, 7.0), (250.0, 0.02)])
    def test_solve_engine(self, compared, monkeypatch, z, beta_c, gamma):
        steps = []
        f_and_df_dk = two_level._f_and_df_dk

        def counted(*args):
            steps.append(args)
            return f_and_df_dk(*args)

        monkeypatch.setattr(two_level, "_f_and_df_dk", counted)
        sol = solve_engine(z, beta_c=beta_c, gamma=gamma)
        assert len(compared) >= len(steps) > 0  # a brentq in log p for each Newton step in K
        assert all(isinstance(c, str) for c in compared)
        assert sol.K_star < 0.0

    @pytest.mark.parametrize("z", ZS)
    @pytest.mark.parametrize("frac", K_FRACTIONS)
    def test_find_jump_points(self, compared, z, frac):
        two_level.find_jump_points(frac * solve_engine(z).K_star, Baths.from_ratio(z))
        assert compared

    @pytest.mark.parametrize("z", (0.1, 0.3, 0.9))
    @pytest.mark.parametrize("stretch", (1.02, 3.0, 40.0))
    def test_deadline_gap(self, compared, z, stretch):
        baths = Baths.from_ratio(z)
        ends = (0.07, 1.0, 0.26, 6.0)
        k_floor = solve_engine(z).K_star * (1.0 - 1e-9)
        tau_min = planner._DeadlinePricer(*ends, baths).tau(k_floor, 0)
        compared.clear()
        planner.plan_for_deadline(*ends, tau_min * stretch, baths)
        assert any(isinstance(c, str) for c in compared)

    def test_infinite_values(self):
        # the deadline gap maps an unreachable (NaN) duration to +inf
        def gap(x):
            return x - 0.3 if x < 0.7 else math.inf

        assert_same(gap, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert_same(lambda x: -math.inf if x < 0.1 else x - 0.55, 0.0, 1.0)


smooth = {
    "cubic": lambda r, c: lambda x: (x - r) * (1.0 + c * (x - r) ** 2),
    "exp": lambda r, c: lambda x: math.expm1(c * (x - r)),
    "tanh": lambda r, c: lambda x: math.tanh(c * (x - r)),
    "odd power": lambda r, c: lambda x: (x - r) ** 3 + 1e-3 * c * (x - r),
    "log": lambda r, c: lambda x: math.log1p(c * (x - r) / (1.0 + c * abs(x - r))),
    "atan": lambda r, c: lambda x: math.atan(c * (x - r)) + 0.1 * (x - r),
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(sorted(smooth)),
    r=st.floats(min_value=-50.0, max_value=50.0),
    c=st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)).map(math.exp),
    left=st.floats(min_value=math.log(1e-9), max_value=math.log(30.0)).map(math.exp),
    right=st.floats(min_value=math.log(1e-9), max_value=math.log(30.0)).map(math.exp),
    xtol=st.floats(min_value=math.log(1e-300), max_value=math.log(1e-2)).map(math.exp),
    rtol=st.floats(min_value=math.log(4 * 2.220446049250313e-16), max_value=math.log(1e-6)).map(math.exp),
    flip=st.booleans(),
)
def test_smooth_functions(kind, r, c, left, right, xtol, rtol, flip):
    a, b = r - left, r + right
    if flip:
        a, b = b, a
    assert_same(smooth[kind](r, c), a, b, xtol=xtol, rtol=max(rtol, _roots._RTOL))


def _polyline(xs, ys):
    """Piecewise-linear function through dyadic knots, so its values are exact."""

    def f(x):
        for j in range(len(xs) - 1):
            if xs[j] <= x <= xs[j + 1]:
                return ys[j] + (ys[j + 1] - ys[j]) * ((x - xs[j]) / (xs[j + 1] - xs[j]))
        return ys[-1]

    return f


# Found by search: at these xtol one step's test ties exactly, so `<` and `<=` differ.
TIES = {
    "2|stry| ties with 3|sbis| - delta": (
        [0.0, 0.25, 0.46875, 0.6875, 0.734375, 1.0], [-1.3125, -0.3125, 1.625, 0.25, 1.875, 0.6875],
        1.0, 0.0, "0x1.197c078217f73p-4",
    ),
    "|spre| ties with delta": (
        [0.0, 0.390625, 0.46875, 0.5625, 0.96875, 1.0], [-0.6875, 0.4375, 1.75, 1.5625, 3.5625, 0.125],
        0.0, 1.0, "0x1.3b13b13b13b11p-2",
    ),
}


@pytest.mark.parametrize("case", sorted(TIES))
def test_step_rule_ties(case):
    xs, ys, a, b, xtol = TIES[case]
    assert isinstance(assert_same(_polyline(xs, ys), a, b, xtol=float.fromhex(xtol)), str)


class TestErrors:
    def test_equal_signs(self):
        for a, b in ((2.0, 3.0), (-3.0, -2.0)):
            out = assert_same(lambda x: x * x - 1.0, a, b)
            assert out == (ValueError, "f(a) and f(b) must have different signs")

    @pytest.mark.parametrize("a, b, root", [(1.0, 3.0, 1.0), (-2.0, 1.0, 1.0), (-1.0, 0.5, -1.0), (-0.0, 2.0, -0.0)])
    def test_exact_zero_at_an_end(self, a, b, root):
        f = lambda x: x * (x * x - 1.0)  # noqa: E731
        assert assert_same(f, a, b) == root.hex()

    @pytest.mark.parametrize("f", [
        lambda x: math.nan if x == 0.0 else x - 0.6,  # at a
        lambda x: math.nan if x == 1.0 else x - 0.6,  # at b
        lambda x: math.nan if 0.2 < x < 0.8 else x - 0.6,  # inside
    ])
    def test_nan(self, f):
        out = assert_same(f, 0.0, 1.0)
        assert out[0] is ValueError and out[1].endswith("is NaN; solver cannot continue.")

    def test_tolerance_floors(self):
        assert assert_same(lambda x: x, -1.0, 2.0, xtol=0.0) == (ValueError, "xtol too small (0 <= 0)")
        assert assert_same(lambda x: x, -1.0, 2.0, rtol=1e-16)[0] is ValueError

    def test_iteration_cap(self, monkeypatch):
        assert _roots._MAXITER == 100
        assert "maxiter" not in inspect.signature(brentq).parameters

        def stubborn(x):  # so flat a root at 0 that 100 steps do not reach xtol
            return math.copysign(abs(x) ** 0.05, x)

        assert assert_same(stubborn, -1.0, 3.0, xtol=1e-300) == (
            RuntimeError, "Failed to converge after 100 iterations.")
        # the same bracket converges at a coarse xtol, and then fails at a lower cap
        tols = {"xtol": 1e-6}
        assert isinstance(assert_same(stubborn, -1.0, 3.0, **tols), str)
        ours, theirs = brentq(stubborn, -1.0, 3.0, **tols), scipy_brentq(stubborn, -1.0, 3.0, **tols)
        assert ours == theirs
        monkeypatch.setattr(_roots, "_MAXITER", 5)
        message = "^Failed to converge after 5 iterations.$"
        with pytest.raises(RuntimeError, match=message):
            brentq(stubborn, -1.0, 3.0, **tols)
        with pytest.raises(RuntimeError, match=message):
            scipy_brentq(stubborn, -1.0, 3.0, maxiter=5, **tols)
