"""Reduction to the canonical uncertain form.

A canonical model minimizes a certain objective subject to row-wise "<="
constraints whose variable coefficients may carry an uncertain block, and
certain "=" rows, which pass through whole.  Maximization is negated, ">="
rows are flipped, an uncertain (or adaptive) objective moves behind an
epigraph variable and uncertain right-hand sides fold into the coefficient
of a variable pinned to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError
from .model import (GE, HERE_AND_NOW, LE, MAX, WAIT_AND_SEE,
                    Constraint, LdrAssignment, LinExpr, Model, RhsUncertainty,
                    UncertainBlock, VariableDecl, expr_negate)

EPIGRAPH_VAR = "_t"
PINNED_VAR = "_one"


@dataclass(frozen=True)
class CanonicalModel:
    """Minimization over "<=" rows of form (a + P z)^T x [+ d^T y] <= b and
    certain "=" rows a^T x = b (`Constraint` keeps uncertainty off "=" rows)."""

    vars: tuple[VariableDecl, ...]
    objective: LinExpr
    rows: tuple[Constraint, ...]
    ldr: LdrAssignment | None = None

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if row.sense == GE:
                raise ModelError(f"canonical row {row.id} has sense {row.sense!r}")
            if row.rhs_uncertainty is not None:
                raise ModelError(f"canonical row {row.id} still carries rhs uncertainty")
        pinned = [v for v in self.vars if v.pinned_one]
        if len(pinned) > 1:
            raise ModelError("more than one pinned [1,1] variable")

    def wait_and_see(self) -> tuple[VariableDecl, ...]:
        return tuple(v for v in self.vars if v.stage == WAIT_AND_SEE)


def _split_objective(model: Model) -> tuple[LinExpr, LinExpr]:
    """Separate here-and-now from wait-and-see terms of the objective."""
    stages = {v.id: v.stage for v in model.vars}
    here = {v: c for v, c in model.objective.terms if stages[v] == HERE_AND_NOW}
    wait = {v: c for v, c in model.objective.terms if stages[v] == WAIT_AND_SEE}
    return (LinExpr.of(here, model.objective.constant), LinExpr.of(wait))


def _flip_row(row: Constraint) -> Constraint:
    """Turn a ">=" row into "<=" by negating both sides (and P, p, and d)."""
    return Constraint(
        id=row.id,
        lhs=expr_negate(row.lhs),
        sense=LE,
        rhs=-row.rhs,
        uncertainty=row.uncertainty.negated() if row.uncertainty else None,
        adaptive=expr_negate(row.adaptive) if row.adaptive else None,
        rhs_uncertainty=(RhsUncertainty(-row.rhs_uncertainty.p, row.rhs_uncertainty.uset)
                         if row.rhs_uncertainty else None),
    )


def canonicalize(model: Model | CanonicalModel) -> CanonicalModel:
    """Reduce a parsed model to canonical form.

    A canonical model is returned as it is, the same object.
    """
    if isinstance(model, CanonicalModel):
        return model

    variables = list(model.vars)
    obj_here, obj_wait = _split_objective(model)
    obj_block = model.objective_uncertainty

    if model.objective_sense == MAX:
        obj_here = expr_negate(obj_here)
        obj_wait = expr_negate(obj_wait)
        obj_block = obj_block.negated() if obj_block else None

    rows: list[Constraint] = []
    objective = obj_here

    # Epigraph: needed when the objective is uncertain (Eq-style c^T x <= t)
    # or carries wait-and-see terms (worst-case recourse cost).
    if obj_block is not None or not obj_wait.is_zero():
        t = VariableDecl(EPIGRAPH_VAR)
        variables.append(t)
        if obj_block is not None:
            epi_lhs = obj_here + LinExpr.of({t.id: -1.0})
            objective = LinExpr.of({t.id: 1.0})
        else:
            epi_lhs = LinExpr.of({t.id: -1.0})
            objective = obj_here + LinExpr.of({t.id: 1.0})
        rows.append(Constraint(
            id="_obj_epi", lhs=epi_lhs, sense=LE, rhs=0.0,
            uncertainty=obj_block,
            adaptive=None if obj_wait.is_zero() else obj_wait,
        ))

    pinned: VariableDecl | None = next((v for v in variables if v.pinned_one), None)

    def pinned_var() -> VariableDecl:
        nonlocal pinned
        if pinned is None:
            pinned = VariableDecl(PINNED_VAR, lower=1.0, upper=1.0, pinned_one=True)
            variables.append(pinned)
        return pinned

    for row in model.constraints:
        if row.sense == GE:
            row = _flip_row(row)
        rub = row.rhs_uncertainty
        if rub is not None:
            # lhs <= b + p^T z for all z  <=>  lhs - b*x1 + (-p^T z)*x1 <= 0, x1 = 1.
            xp = pinned_var()
            row = Constraint(
                id=row.id,
                lhs=row.lhs + LinExpr.of({xp.id: -row.rhs}),
                sense=LE,
                rhs=0.0,
                uncertainty=UncertainBlock((xp.id,), -rub.p.reshape(1, -1), rub.uset),
                adaptive=row.adaptive,
            )
        rows.append(row)

    return CanonicalModel(vars=tuple(variables), objective=objective, rows=tuple(rows))
