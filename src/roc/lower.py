"""Lowering symbolic norm terms to LP rows or norm rows.

  rho*||w||_1   ->  rho * sum_i t_i   with  t_i >= w_i, t_i >= -w_i
  rho*||w||_inf ->  rho * t           with  t >= w_i, t >= -w_i  for all i
  rho*||w||_q   ->  rho * t           with  t >= ||w||_q (a norm row), any other q

Sign rule: a coordinate w_i whose interval over the variable bounds lies in
[0, inf) has sign s_i = +1, one in (-inf, 0] has s_i = -1 (the interval, or
Soyster, case of the support function).  Then |w_i| = s_i * w_i exactly, so
for q = 1 the coordinate adds rho * s_i * w_i to the row with no t_i and no
rows, and for q = inf only the row t >= s_i * w_i stays; its other half is
implied by t >= 0.  Coordinates of unknown sign lower as above.

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


@dataclass(frozen=True)
class DeterministicModel:
    """Fully deterministic model: linear rows plus explicit norm rows."""

    vars: tuple[VariableDecl, ...]
    objective: LinExpr
    linear_rows: tuple[Constraint, ...]  # "<=" or "=" rows, no optional fields
    soc_rows: tuple[NormRow, ...] = ()


def _sign(w: LinExpr, bounds: dict[str, tuple[float, float]]) -> int:
    """+1 if w >= 0 on the variable box, -1 if w <= 0, 0 if unknown."""
    lo = hi = w.constant
    for v, c in w.terms:
        lower, upper = bounds[v]
        if c > 0.0:
            lo, hi = lo + c * lower, hi + c * upper
        elif c < 0.0:
            lo, hi = lo + c * upper, hi + c * lower
    return 1 if lo >= 0.0 else -1 if hi <= 0.0 else 0


def _abs_rows(row_id: str, term_idx: int, t_id: str, i: int, w: LinExpr,
              sign: int) -> list[Constraint]:
    # w - t <= 0 and -w - t <= 0; a known sign keeps one half.  The sort puts
    # t among w's names (`_` sorts between upper- and lower-case letters).
    halves = [("p", w)] if sign >= 0 else []
    if sign <= 0:
        halves.append(("n", expr_negate(w)))
    return [Constraint(f"{row_id}_a{term_idx}_{i}{half}",
                       LinExpr(tuple(sorted(e.terms + ((t_id, -1.0),))), e.constant), LE, 0.0)
            for half, e in halves]


def lower_norms(model: RcModel) -> DeterministicModel:
    """Replace every symbolic norm term by auxiliary variables and rows."""
    variables = list(model.vars)
    bounds = {v.id: (v.lower, v.upper) for v in model.vars}
    lin_rows: list[Constraint] = []
    soc_rows: list[NormRow] = []
    counter = 0

    for row in model.rows:
        # one dict per row, sorted once; each variable's terms add in the
        # order a term-by-term sum would add them, so every sum is the same
        coeffs = row.lhs.coeffs()
        constant = row.lhs.constant
        sign_rows: list[Constraint] = []
        for k, term in enumerate(row.norm_terms, start=1):
            if term.weight == 0.0:
                continue
            counter += 1
            if term.q == 1.0:
                for i, w in enumerate(term.arg, start=1):
                    sign = _sign(w, bounds)
                    if sign:
                        scale = sign * term.weight
                        for v, c in w.terms:
                            coeffs[v] = coeffs.get(v, 0.0) + scale * c
                        constant += scale * w.constant
                        continue
                    t_id = f"_t{counter}_{i}"
                    variables.append(VariableDecl(t_id, lower=0.0))
                    coeffs[t_id] = term.weight
                    sign_rows.extend(_abs_rows(row.id, k, t_id, i, w, 0))
            elif term.q == INF:
                t_id = f"_t{counter}"
                variables.append(VariableDecl(t_id, lower=0.0))
                coeffs[t_id] = term.weight
                for i, w in enumerate(term.arg, start=1):
                    sign_rows.extend(_abs_rows(row.id, k, t_id, i, w, _sign(w, bounds)))
            else:
                t_id = f"_t{counter}"
                variables.append(VariableDecl(t_id, lower=0.0))
                coeffs[t_id] = term.weight
                soc_rows.append(NormRow(term.q, t_id, term.arg))
        lin_rows.append(Constraint(row.id, LinExpr.of(coeffs, constant), row.sense, row.rhs))
        lin_rows.extend(sign_rows)

    return DeterministicModel(
        vars=tuple(variables),
        objective=model.objective,
        linear_rows=tuple(lin_rows),
        soc_rows=tuple(soc_rows),
    )
