"""Higher-order numerical solution of the fractional relaxation-oscillation
equation in its integral form y + I^alpha y = F.

The package provides real-argument special functions (specfun), end-corrected
quadratures for fractional integrals (fracint), five explicit time-stepping
schemes with stability bounds (solver), closed-form benchmark problems
(problems), reference convergence tables (tables) and a CLI (fracrelax).
"""

# Defined before the submodule imports: report reads it at import time.
__version__ = "0.1.0"

from .fracint import (
    STARTUP_ZEROS,
    EndpointDerivatives,
    SchemeCoefficients,
    UniformGrid,
    corrected_sum_I,
    corrected_trapezoid_K,
    frac_integral_exact_power,
    riemann_left_I,
    scheme_coefficients,
    sum_of_powers,
    trapezoid_K,
)
from .problems import (
    BenchmarkProblem,
    make_exp_problem,
    make_ml_problem,
    make_power_problem,
    residual_check,
)
from .report import ConvergenceReport, ConvergenceRow, empirical_order
from .solver import (
    StabilityConstants,
    claim5_partial_sum_check,
    claim8_window_check,
    max_error,
    solve,
    solve_with_coefficients,
    theorem6_bound,
    theorem11_constants,
)
from .specfun import (
    bernoulli_numbers,
    gamma,
    mittag_leffler,
    zeta,
)
from .tables import check_table, reproduce_table

__all__ = [
    "__version__",
    "BenchmarkProblem",
    "ConvergenceReport",
    "ConvergenceRow",
    "EndpointDerivatives",
    "STARTUP_ZEROS",
    "SchemeCoefficients",
    "StabilityConstants",
    "UniformGrid",
    "bernoulli_numbers",
    "check_table",
    "claim5_partial_sum_check",
    "claim8_window_check",
    "corrected_sum_I",
    "corrected_trapezoid_K",
    "empirical_order",
    "frac_integral_exact_power",
    "gamma",
    "make_exp_problem",
    "make_ml_problem",
    "make_power_problem",
    "max_error",
    "mittag_leffler",
    "reproduce_table",
    "residual_check",
    "riemann_left_I",
    "scheme_coefficients",
    "solve",
    "solve_with_coefficients",
    "sum_of_powers",
    "theorem6_bound",
    "theorem11_constants",
    "trapezoid_K",
    "zeta",
]
