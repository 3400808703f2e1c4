import math

import numpy as np
import pytest

from pmp_thermo import two_level
from pmp_thermo.planner import TrajectoryPlan, build_trajectory
from pmp_thermo.two_level import COLD, HOT, Baths, isotherm_p, make_segment, mu, solve_engine


@pytest.fixture
def baths03() -> Baths:
    """Reference two-bath setting used throughout: z = 0.3, beta_c = gamma = 1."""
    return Baths.from_ratio(0.3)


@pytest.fixture
def gate_offset(monkeypatch):
    """Adds 1e-9 to the tangency residual.  The searches use _log_p_kernels, so
    only solve_engine's SolverError gate sees the offset."""
    residual = two_level.tangency_residual
    monkeypatch.setattr(two_level, "tangency_residual", lambda p, K, baths: residual(p, K, baths) + 1e-9)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _isotherm_plan(branch, K, baths, u0, u1):
    """One arc from gap u0 to u1, built as the CLI's isotherm command builds it."""
    beta = baths.beta(branch.kind)
    mu_val = mu(K, beta, branch, baths.gamma)
    x0, x1 = math.exp(0.5 * beta * u0), math.exp(0.5 * beta * u1)
    return TrajectoryPlan(
        K=K, baths=baths, segments=(make_segment(branch, K, baths, x0, x1),), n_cycles=0,
        p_in=isotherm_p(x0, mu_val), u_in=u0, p_out=isotherm_p(x1, mu_val), u_out=u1,
    )


@pytest.fixture(
    params=[f"z={z}-cycles={n}" for z in (0.2, 0.3, 0.5, 0.9) for n in range(4)]
    + ["empty", "isotherm-cold", "isotherm-hot"]
)
def reference_plan(request) -> TrajectoryPlan:
    """Plans on which sampling and simulation are compared with their former code:
    K = 0.65 K* at four z with 0-3 cycles, the empty plan, and one arc per branch."""
    ends = (0.07, 1.0, 0.26, 6.0)
    baths = Baths.from_ratio(0.3)
    if request.param == "empty":
        return build_trajectory(0.07, 1.0, 0.07, 1.0, -0.05, 0, baths)
    if request.param == "isotherm-cold":
        return _isotherm_plan(COLD, -0.05, baths, 1.0, 6.0)
    if request.param == "isotherm-hot":
        return _isotherm_plan(HOT, -0.05, baths, 6.0, 1.0)
    z, n = (float(v) for v in request.param[2:].split("-cycles="))
    return build_trajectory(*ends, 0.65 * solve_engine(z).K_star, int(n), Baths.from_ratio(z))
