"""Robust-counterpart derivation via conjugate support functions.

Each uncertain row (a + P z)^T x <= b, z in Z, becomes the deterministic row
a^T x + d*(P^T x | Z) <= b; certain "<=" and "=" rows pass through as they
are.  The support-function conjugate d*(w | Z) is
evaluated symbolically per set kind:

  norm ball   ||z||_p <= rho    ->  rho * ||w||_q  with 1/p + 1/q = 1
  polyhedron  D z <= d          ->  d^T u  with  D^T u = w,  u >= 0
  intersection of Z_i           ->  sum_i d*(w_i | Z_i)  with  sum_i w_i = w
  Minkowski sum of Z_i          ->  sum_i d*(w | Z_i)          (same argument)

Norm terms are kept symbolic for the lowering stage; polyhedral multipliers
and intersection splitters become fresh auxiliary variables with equality
rows, which the simplex takes as they are.
"""
from __future__ import annotations

from dataclasses import dataclass

from .canonicalize import CanonicalModel
from .errors import ModelError, UnsupportedSetError
from .model import (EQ, GE, INF, LE, Constraint, Intersection, LinExpr,
                    MinkowskiSum, NormBall, NormTerm, Polyhedral,
                    UncertaintySet, VariableDecl, expr_add)


def dual_norm(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1; dual(1) = inf, dual(inf) = 1."""
    p = float(p)
    if p < 1.0:
        raise ModelError(f"dual norm undefined for p = {p} < 1")
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class SupportResult:
    """Symbolic value of d*(arg | Z): norm terms + affine part + aux rows."""

    norm_terms: tuple[NormTerm, ...] = ()
    affine: LinExpr = LinExpr()
    aux_vars: tuple[VariableDecl, ...] = ()
    aux_rows: tuple[Constraint, ...] = ()

    def merged(self, other: "SupportResult") -> "SupportResult":
        return SupportResult(
            norm_terms=self.norm_terms + other.norm_terms,
            affine=self.affine + other.affine,
            aux_vars=self.aux_vars + other.aux_vars,
            aux_rows=self.aux_rows + other.aux_rows,
        )


class NameGen:
    """Monotone counter for auxiliary variable / row ids (collision-free)."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> int:
        self._next += 1
        return self._next


def _equality_rows(tag: str, idx: int, lhs_exprs, rhs_exprs) -> tuple[Constraint, ...]:
    """Rows lhs_l = rhs_l, stored with all variables on the left."""
    rows = []
    for l, (lhs, rhs) in enumerate(zip(lhs_exprs, rhs_exprs)):
        expr = lhs - rhs
        rows.append(Constraint(id=f"_{tag}{idx}_eq{l + 1}", lhs=expr, sense=EQ, rhs=0.0))
    return tuple(rows)


def support_conjugate(uset: UncertaintySet, arg: tuple[LinExpr, ...],
                      names: NameGen) -> SupportResult:
    """Symbolic d*(arg | Z) for every catalog set kind."""
    if len(arg) != uset.dim:
        raise ModelError(
            f"support argument has {len(arg)} coordinates but the set has dimension {uset.dim}")

    if isinstance(uset, NormBall):
        return SupportResult(norm_terms=(NormTerm(uset.radius, dual_norm(uset.p), tuple(arg)),))

    if isinstance(uset, Polyhedral):
        k = uset.D.shape[0]
        idx = names.fresh()
        u_ids = [f"_u{idx}_{i + 1}" for i in range(k)]
        aux_vars = tuple(VariableDecl(uid, lower=0.0) for uid in u_ids)
        affine = LinExpr.of({uid: float(uset.d[i]) for i, uid in enumerate(u_ids)})
        # D^T u = arg, coordinate by coordinate.
        dtu = [LinExpr.of({uid: float(uset.D[i, l]) for i, uid in enumerate(u_ids)})
               for l in range(uset.dim)]
        return SupportResult(affine=affine, aux_vars=aux_vars,
                             aux_rows=_equality_rows("u", idx, dtu, arg))

    if isinstance(uset, Intersection):
        idx = names.fresh()
        result = SupportResult()
        splitter_sum = [LinExpr() for _ in range(uset.dim)]
        for i, member in enumerate(uset.members):
            w_ids = [f"_w{idx}_{i + 1}_{l + 1}" for l in range(uset.dim)]
            result = result.merged(SupportResult(
                aux_vars=tuple(VariableDecl(w) for w in w_ids)))
            w_exprs = tuple(LinExpr.of({w: 1.0}) for w in w_ids)
            splitter_sum = [expr_add(s, w) for s, w in zip(splitter_sum, w_exprs)]
            result = result.merged(support_conjugate(member, w_exprs, names))
        return result.merged(SupportResult(
            aux_rows=_equality_rows("w", idx, splitter_sum, arg)))

    if isinstance(uset, MinkowskiSum):
        result = SupportResult()
        for member in uset.members:
            result = result.merged(support_conjugate(member, tuple(arg), names))
        return result

    raise UnsupportedSetError(f"no robust-counterpart rule for set kind {uset.kind!r}")


@dataclass(frozen=True)
class RcModel:
    """Robust counterpart: certain rows, possibly with symbolic norm terms."""

    vars: tuple[VariableDecl, ...]
    objective: LinExpr
    rows: tuple[Constraint, ...]


def robustify_row(row: Constraint, names: NameGen) -> tuple[Constraint, tuple[VariableDecl, ...], tuple[Constraint, ...]]:
    """Robust counterpart of one canonical row: "<=", or "=" and certain.

    Returns the main row plus any auxiliary variables and equality rows.
    Certain rows pass through unchanged.
    """
    if row.sense == GE:
        raise ModelError(f"row {row.id}: robustification expects canonical '<=' or '=' rows")
    if row.adaptive is not None:
        raise ModelError(f"row {row.id}: adaptive rows must go through the decision-rule stage first")
    if row.uncertainty is None:
        return row, (), ()

    sr = support_conjugate(row.uncertainty.uset, row.uncertainty.arg_exprs(), names)
    main = Constraint(row.id, row.lhs + sr.affine, LE, row.rhs, norm_terms=sr.norm_terms)
    return main, sr.aux_vars, sr.aux_rows


def robustify_model(model: CanonicalModel) -> RcModel:
    """Apply robustify_row across a canonical model."""
    names = NameGen()
    variables = list(model.vars)
    rows: list[Constraint] = []
    for row in model.rows:
        main, aux_vars, aux_rows = robustify_row(row, names)
        rows.append(main)
        variables.extend(aux_vars)
        rows.extend(aux_rows)
    return RcModel(vars=tuple(variables), objective=model.objective, rows=tuple(rows))
