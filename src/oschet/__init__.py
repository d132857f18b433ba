"""Heteroclinic connections of a nonlocal oscillation energy.

The package studies the energy

    E(u) = (1/(2 r^2)) integral osc_{(x-r, x+r)}(u)^2 dx + integral W(u) dx

for a double-well potential W: step functions on uniform grids, the
discrete lattice reduction and its minimizers, the infinite-lattice
connection as a box solve with a transparent end, the explicit
Dirichlet solver for the nonlocal second difference D_r, and the
classical continuum limit.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    NoBracketError,
    PreconditionError,
    UnsupportedOperationError,
)
from .potential import (
    DoubleWell,
    ValidationReport,
    compute_cw,
    custom,
    eval_dw,
    eval_w,
    pendulum,
    quartic,
    validate_double_well,
)
from .sampled import (
    EnergyBreakdown,
    SampledFunction,
    energy_E,
    energy_F,
    truncate,
    window_oscillation,
)
from .heteroclinic import (
    EnergyUpperBounds,
    LatticeProfile,
    SolveReport,
    SolverOptions,
    WitnessReport,
    discrete_energy,
    el_residual,
    energy_upper_bounds,
    lift_profile,
    recurrence_step,
    shoot_heteroclinic,
    solve_discrete_dirichlet,
    solve_symmetric_bond,
    solve_symmetric_node,
    step_is_not_minimal,
)
from .dirichlet import (
    CheckReport,
    DrProblem,
    DrSolution,
    RegularityReport,
    dr_apply,
    kbar,
    kunder,
    max_principle_check,
    regularity_bounds,
    residual_check,
    solve_dr_explicit,
    solve_dr_on_grid,
)
from .asymptotics import (
    ClassicalHeteroclinic,
    ConvergenceRow,
    ConvergenceTable,
    classical_heteroclinic,
    convergence_study,
)

__version__ = "0.1.0"
