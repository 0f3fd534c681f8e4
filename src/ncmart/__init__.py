"""Numerical quantum stochastic calculus on finite tracial matrix algebras.

Martingales, trace-preserving conditional expectations, stochastic integral
sums, quadratic variation and Doob-Meyer decompositions on block matrix
algebras, with every exactly-testable identity checked to machine precision
and the inequality constants estimated by seeded sweeps.
"""

from .algebra import (AlgElement, Projection, TracialAlgebra, abs2, hermitian_apply,
                      hermiticity_defect, lp_norm, min_eigenvalue, proj_meet, psd_sqrt,
                      spectral_projection, stack, trace)
from .conditional import SubalgebraLevel
from .doob_meyer import (Decomposition, bracket_via_integrals, compensator,
                         cross_variation, doob_meyer_decompose, naturality_gap,
                         naturality_pairing, quadratic_variation_sum,
                         uniqueness_residual)
from .errors import (ConfigError, DomainError, IdentityViolation,
                     IllConditionedBasisError, StructureError, UndefinedRatioError)
from .inequalities import (ChebyshevCertificate, ProjectionCertificate, bg_ratio,
                           chebyshev_projection, dual_doob_ratio,
                           epsilon_from_percentile, kolmogorov_projection,
                           segal_modulus, square_function_ratios)
from .integrals import (integral_process, integrand_bound, left_sum, refinement_table,
                        right_sum)
from .processes import (AdaptedProcess, Filtration, TimeGrid, full_partition, increments,
                        lift_process, martingale_from_terminal, random_element,
                        random_stack, refine_times, refined_filtration, spawn_generators,
                        submartingale_abs2_defect)

__version__ = "0.1.0"

__all__ = [
    "AdaptedProcess", "AlgElement", "ChebyshevCertificate", "ConfigError",
    "Decomposition", "DomainError", "Filtration", "IdentityViolation",
    "IllConditionedBasisError", "Projection", "ProjectionCertificate", "StructureError",
    "SubalgebraLevel", "TimeGrid", "TracialAlgebra", "UndefinedRatioError", "abs2",
    "bg_ratio", "bracket_via_integrals", "chebyshev_projection", "compensator",
    "cross_variation", "doob_meyer_decompose", "dual_doob_ratio",
    "epsilon_from_percentile", "full_partition", "hermitian_apply", "hermiticity_defect",
    "increments", "integral_process", "integrand_bound", "kolmogorov_projection",
    "left_sum", "lift_process", "lp_norm", "martingale_from_terminal", "min_eigenvalue",
    "naturality_gap", "naturality_pairing", "proj_meet", "psd_sqrt",
    "quadratic_variation_sum", "random_element", "random_stack", "refine_times",
    "refined_filtration", "refinement_table", "right_sum", "segal_modulus",
    "spawn_generators", "spectral_projection", "square_function_ratios", "stack",
    "submartingale_abs2_defect", "trace", "uniqueness_residual",
]
