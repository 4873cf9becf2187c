"""Affinely adjustable robust solutions of linear complementarity
problems under box uncertainty.

The public surface: nominal LCP solving (lcp), the three robust
pathways for uncertain q (robust_q), the enumeration pathway for
uncertain M (robust_m), market model assembly (market), the plain-text
file format (instances), and solver dispatch with reports (reporting).
"""

from .lcp import (LcpSolution, LemkeOutcome, NominalLcp, compute_support_P,
                  describe_solution_set, lcp_residuals, solve_block_pivoting,
                  solve_lemke)
from .linalg import NumericalError, SingularMatrixError, is_psd
from .lp import (IterationLimitError, LinearProgram, LpOutcome,
                 check_feasibility, check_point, solve_lp)
from .mip import (MipOutcome, MixedBinaryProgram, NodeLimitError,
                  solve_mip_feasibility)
from .boxopt import BoxBudgetError, min_affine_over_box, min_quadratic_over_box
from .robust_q import (AffineSolutionQ, ConditionCheck, MipPathOutcome,
                       PsdPathOutcome, SizeLimitError, UncertainLcpQ,
                       VerificationReport, check_char_system, default_big_m,
                       sample_violation_q, solve_enumeration, solve_mip_q,
                       solve_psd, uniqueness_check_psd, verify_affine_q)
from .robust_m import (AffineSolutionM, EnumerationOutcomeM, UncertainLcpM,
                       check_box_conditions, check_kernel_condition,
                       characterize_for_J, sample_violation_m,
                       solve_enumeration_m, solve_enumeration_m_detailed,
                       uniqueness_m, verify_affine_m)
from .market import MarketBlockMap, MarketModel, build_lcp
from .instances import (InstanceFormatError, generate_random, parse_instance,
                        serialize_instance)
from .reporting import (DispatchError, SolveReport, auto_pathway,
                        dispatch_solve)

__version__ = "0.1.0"

__all__ = [
    "NominalLcp", "LcpSolution", "LemkeOutcome", "solve_lemke",
    "solve_block_pivoting",
    "lcp_residuals", "compute_support_P", "describe_solution_set",
    "SingularMatrixError", "NumericalError", "is_psd",
    "LinearProgram", "LpOutcome", "solve_lp", "check_feasibility",
    "check_point", "IterationLimitError",
    "MixedBinaryProgram", "MipOutcome", "solve_mip_feasibility",
    "NodeLimitError",
    "min_affine_over_box", "min_quadratic_over_box", "BoxBudgetError",
    "UncertainLcpQ", "AffineSolutionQ", "ConditionCheck",
    "VerificationReport", "verify_affine_q", "check_char_system",
    "solve_enumeration", "solve_mip_q", "MipPathOutcome", "solve_psd",
    "PsdPathOutcome", "uniqueness_check_psd", "sample_violation_q",
    "default_big_m", "SizeLimitError",
    "UncertainLcpM", "AffineSolutionM", "EnumerationOutcomeM",
    "characterize_for_J", "check_kernel_condition",
    "check_box_conditions", "verify_affine_m", "solve_enumeration_m",
    "solve_enumeration_m_detailed", "uniqueness_m", "sample_violation_m",
    "MarketModel", "MarketBlockMap", "build_lcp",
    "InstanceFormatError", "parse_instance", "serialize_instance",
    "generate_random",
    "SolveReport", "DispatchError", "auto_pathway", "dispatch_solve",
    "__version__",
]
