"""Symmetry-preserving variational solver for second-order initial value problems.

Discretizes the world-line action of a point particle in a potential with
summation-by-parts operators, doubles the degrees of freedom to make the
variational problem causal, and finds the critical point with Newton's
method and a backtracking line search.  The continuum time-translation
symmetry survives the discretization, so the associated conserved charge
stays exactly constant in the interior of the simulated window.
"""

from .action import (
    DiscreteAction,
    InvalidConfig,
    Potential,
    ProblemConfig,
    StateVector,
    custom_potential,
    free_potential,
    linear_potential,
    metric_g00,
    quartic_potential,
)
from .diagnostics import (
    DiagnosticsReport,
    PhysicalLimitViolation,
    diagnose,
)
from .reference import (
    ConvergenceRow,
    ConvergenceTable,
    PhysicalTrajectory,
    ReferenceTrajectory,
    StiffnessSuspected,
    SuperluminalVelocity,
    convergence_study,
    scaled_tdot_study,
    solve_geodesic_ode,
    solve_physical_eom,
)
from .sbp import (
    SbpOperator,
    build_operator,
    regularize,
)
from .solver import (
    NonConvergence,
    SingularSystem,
    Solution,
    SolveOptions,
    StepFailure,
    continuation_solve,
    initial_guess,
    solve,
)

__version__ = "0.1.0"
