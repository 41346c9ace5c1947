"""Exact symbolic Green's operators and Green's functions for Stieltjes
boundary problems: multi-point, higher-order and nonlocal boundary
conditions, solved in a noncommutative integro-differential operator ring
with all results verified symbolically."""

from .boundary import (
    BoundaryProblem,
    FundamentalSystem,
    StieltjesCondition,
    evaluation_matrix,
    fri_derivative,
    fundamental_right_inverse,
    fundamental_system,
    greens_operator,
    is_regular,
    kernel_relations,
    projector,
)
from .constants import Constant, const_arith
from .errors import (
    DegenerateDomainError,
    FundamentalSystemError,
    NotEquitableError,
    NotRegularError,
    ParseError,
    SolverError,
    VerificationError,
    WronskianError,
)
from .exppoly import (
    BivariateExpPoly,
    ExpPoly,
    bivariate_ops,
    derive,
    eval_at,
    integrate_from,
)
from .greens import GreensFunction, apply_greens, eval_functional, extract, render
from .operators import Operator, apply, op_add, op_mul, to_equitable, to_standard
from .parsing import parse_bivariate, parse_exppoly, parse_rational

__all__ = [
    "BivariateExpPoly",
    "BoundaryProblem",
    "Constant",
    "DegenerateDomainError",
    "ExpPoly",
    "FundamentalSystem",
    "FundamentalSystemError",
    "GreensFunction",
    "NotEquitableError",
    "NotRegularError",
    "Operator",
    "ParseError",
    "SolverError",
    "StieltjesCondition",
    "VerificationError",
    "WronskianError",
    "apply",
    "apply_greens",
    "bivariate_ops",
    "const_arith",
    "derive",
    "eval_at",
    "eval_functional",
    "evaluation_matrix",
    "extract",
    "fri_derivative",
    "fundamental_right_inverse",
    "fundamental_system",
    "greens_operator",
    "integrate_from",
    "is_regular",
    "kernel_relations",
    "op_add",
    "op_mul",
    "parse_bivariate",
    "parse_exppoly",
    "parse_rational",
    "projector",
    "render",
    "to_equitable",
    "to_standard",
]
