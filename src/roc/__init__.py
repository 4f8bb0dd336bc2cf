"""roc: a robustification compiler for uncertain linear models.

Parse a `.roc` model, reduce it to canonical row-wise uncertain form, derive
the tractable robust counterpart through support-function conjugates and
linear decision rules, lower norm terms to LP rows and norm rows, solve,
and verify against sampling and cutting-plane oracles.
"""

__version__ = "0.1.0"

from .errors import (DimensionError, LoweringError, ModelError, RocError,
                     SolverError, UnsupportedSetError)
from .model import (Constraint, Intersection, LinExpr, MinkowskiSum, Model,
                    NormBall, NormTerm, Polyhedral, RhsUncertainty,
                    UncertainBlock, VariableDecl, expr_add, expr_negate)
from .parser import ParseError, SourceSpan, parse_model, parse_uncertainty_spec
from .canonicalize import CanonicalModel, canonicalize
from .rc import (RcModel, SupportResult, dual_norm, robustify_model,
                 robustify_row, support_conjugate)
from .aro import apply_ldr
from .lower import DeterministicModel, NormRow, lower_norms
from .solver import (PessimizationResult, Solution, cutting_plane_solve,
                     pessimize, simplex_solve, solve_deterministic)
from .verify import VerificationReport, sample_set, stress_points, verify_solution
from .emit import emit_json, emit_lp, model_from_json, to_jsonable

__all__ = [
    "CanonicalModel", "Constraint", "DeterministicModel", "DimensionError",
    "Intersection", "LinExpr", "LoweringError", "MinkowskiSum",
    "Model", "ModelError", "NormBall", "NormRow", "NormTerm", "ParseError",
    "PessimizationResult", "Polyhedral", "RcModel", "RhsUncertainty",
    "RocError", "Solution", "SolverError", "SourceSpan",
    "SupportResult", "UncertainBlock", "UnsupportedSetError",
    "VariableDecl", "VerificationReport", "apply_ldr", "canonicalize",
    "cutting_plane_solve", "dual_norm", "emit_json", "emit_lp", "expr_add",
    "expr_negate", "lower_norms", "model_from_json", "parse_model",
    "parse_uncertainty_spec", "pessimize", "robustify_model", "robustify_row",
    "sample_set", "simplex_solve", "solve_deterministic", "stress_points",
    "support_conjugate", "to_jsonable", "verify_solution",
]
