"""Exact verification engine for the coefficient algebra.

ring:   sparse polynomials, rational functions, quadratic-surd root checks.
terms:  the formal integral calculus and its axioms.
checks: the derivation-chain verifiers and their reports.
"""

from .checks import (
    PassReport,
    StepCheck,
    run_all,
    verify_antihol_completion_bound,
    verify_base_chain,
    verify_chain_consistency,
    verify_grad_box_elimination,
    verify_midpoint_obstruction,
    verify_mixed_completion_bound,
    verify_radical_gap_monotone,
    verify_refined_chain,
    verify_substitution_identities,
)
from .ring import (
    Poly,
    RadExpr,
    RationalFunction,
    rf,
    rf_equal,
    v,
)
from .terms import (
    ANTICROSS_IDENTITY,
    CAUCHY_SCHWARZ_DEFECT,
    EQ_IN_BOXSQ,
    EQ_IN_GRADBOX,
    MIXCROSS_IDENTITY,
    PURE_HESSIAN_UPPER_BOUND,
    FormalExpr,
    FormalTerm,
    J,
    K,
    ibp,
)

__all__ = [
    "ANTICROSS_IDENTITY",
    "CAUCHY_SCHWARZ_DEFECT",
    "EQ_IN_BOXSQ",
    "EQ_IN_GRADBOX",
    "MIXCROSS_IDENTITY",
    "PURE_HESSIAN_UPPER_BOUND",
    "FormalExpr",
    "FormalTerm",
    "J",
    "K",
    "PassReport",
    "Poly",
    "RadExpr",
    "RationalFunction",
    "StepCheck",
    "ibp",
    "rf",
    "rf_equal",
    "run_all",
    "v",
    "verify_antihol_completion_bound",
    "verify_base_chain",
    "verify_chain_consistency",
    "verify_grad_box_elimination",
    "verify_midpoint_obstruction",
    "verify_mixed_completion_bound",
    "verify_radical_gap_monotone",
    "verify_refined_chain",
    "verify_substitution_identities",
]
