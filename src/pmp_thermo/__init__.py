"""Optimal thermodynamic control of a two-bath driven open quantum system.

Minimum-principle machinery (conserved emission rate, costate dynamics,
bang-bang switching function) together with the complete closed-form solution
for the thermally reset two-level system: optimal isotherms, branch-switch
populations, the maximum-power engine, trajectory planning and brute-force
validation.
"""

from .two_level import (
    Baths,
    Branch,
    COLD,
    HOT,
    EngineSolution,
    IsothermSegment,
    NoJumpPoints,
    SolverError,
    adiabatic_f,
    asymptotic_limit,
    find_jump_points,
    isotherm_heat,
    isotherm_p,
    isotherm_time,
    isotherm_u_of_p,
    lambert_w0,
    mu,
    quasi_static_heat,
    solve_engine,
)
from .lindblad import (
    ControlVector,
    DiagonalResetModel,
    Protocol,
    ProtocolPiece,
    ThermoLedger,
    TwoLevelResetModel,
    integrate,
    lindblad_rhs,
)
from .pmp import costate_rhs, pseudo_hamiltonian, switching_functional
from .planner import (
    AdiabaticJump,
    DeadlineInfeasible,
    NoCycleExists,
    TrajectoryPlan,
    Unreachable,
    build_trajectory,
    cycle_decomposition,
    monotonicity_profile,
    plan_for_deadline,
)
from .bruteforce import BangProtocol, ProtocolGrid, grid_search

__version__ = "0.1.0"
