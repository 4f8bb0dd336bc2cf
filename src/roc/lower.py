"""Lowering symbolic norm terms to LP rows or norm rows.

  rho*||w||_1   ->  rho * sum_i t_i   with  t_i >= w_i, t_i >= -w_i
  rho*||w||_inf ->  rho * t           with  t >= w_i, t >= -w_i  for all i
  rho*||w||_q   ->  rho * t           with  t >= ||w||_q (a norm row), any other q

Zero-weight terms vanish.  Norm rows (second-order cones for q = 2) are
enforced by the solver's cutting loop.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import INF, LE, Constraint, LinExpr, VariableDecl, expr_negate
from .rc import RcModel


@dataclass(frozen=True)
class NormRow:
    """t >= ||arg||_q with t >= 0, for q other than 1 and inf."""

    q: float
    t: str
    arg: tuple[LinExpr, ...]


@dataclass(frozen=True, eq=False)
class DeterministicModel:
    """Fully deterministic model: linear rows plus explicit norm rows."""

    vars: tuple[VariableDecl, ...]
    objective: LinExpr
    linear_rows: tuple[Constraint, ...]  # "<=" or "=" rows, no optional fields
    soc_rows: tuple[NormRow, ...] = ()

    def __eq__(self, other):
        return (isinstance(other, DeterministicModel)
                and self.vars == other.vars
                and self.objective == other.objective
                and self.linear_rows == other.linear_rows
                and self.soc_rows == other.soc_rows)


def _abs_rows(row_id: str, term_idx: int, t_id: str, i: int, w: LinExpr) -> tuple[Constraint, Constraint]:
    # t >= w and t >= -w, stored as "<=" rows.
    t = LinExpr.of({t_id: 1.0})
    return (
        Constraint(f"{row_id}_a{term_idx}_{i}p", w - t, LE, 0.0),
        Constraint(f"{row_id}_a{term_idx}_{i}n", expr_negate(w) - t, LE, 0.0),
    )


def lower_norms(model: RcModel) -> DeterministicModel:
    """Replace every symbolic norm term by auxiliary variables and rows."""
    variables = list(model.vars)
    lin_rows: list[Constraint] = []
    soc_rows: list[NormRow] = []
    counter = 0

    for row in model.rows:
        lhs = row.lhs
        sign_rows: list[Constraint] = []
        for k, term in enumerate(row.norm_terms, start=1):
            if term.weight == 0.0:
                continue
            counter += 1
            if term.q == 1.0:
                t_ids = [f"_t{counter}_{i + 1}" for i in range(len(term.arg))]
                variables.extend(VariableDecl(t, lower=0.0) for t in t_ids)
                lhs = lhs + LinExpr.of({t: term.weight for t in t_ids})
                for i, (t_id, w) in enumerate(zip(t_ids, term.arg), start=1):
                    sign_rows.extend(_abs_rows(row.id, k, t_id, i, w))
            elif term.q == INF:
                t_id = f"_t{counter}"
                variables.append(VariableDecl(t_id, lower=0.0))
                lhs = lhs + LinExpr.of({t_id: term.weight})
                for i, w in enumerate(term.arg, start=1):
                    sign_rows.extend(_abs_rows(row.id, k, t_id, i, w))
            else:
                t_id = f"_t{counter}"
                variables.append(VariableDecl(t_id, lower=0.0))
                lhs = lhs + LinExpr.of({t_id: term.weight})
                soc_rows.append(NormRow(term.q, t_id, term.arg))
        lin_rows.append(Constraint(row.id, lhs, row.sense, row.rhs))
        lin_rows.extend(sign_rows)

    return DeterministicModel(
        vars=tuple(variables),
        objective=model.objective,
        linear_rows=tuple(lin_rows),
        soc_rows=tuple(soc_rows),
    )
