"""Emitters: CPLEX-LP text and canonical JSON stage dumps.

LP output is deterministic (model order, 17-significant-digit numerals) so
emissions are byte-identical across runs.  Every JSON document, stage dump or
CLI envelope, is stamped here with `"roc_schema": SCHEMA_VERSION`; see
docs/schemas.md.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .canonicalize import CanonicalModel
from .errors import DimensionError, LoweringError, ModelError
from .model import (INF, Constraint, Intersection, LdrAssignment, LinExpr,
                    MinkowskiSum, Model, NormBall, NormTerm, Polyhedral,
                    RhsUncertainty, UncertainBlock, UncertaintySet, VariableDecl)
from .lower import DeterministicModel
from .rc import RcModel
from .solver import Solution
from .verify import VerificationReport

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# CPLEX LP text
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return f"{x + 0.0:.17g}"  # +0.0 drops negative zero


class _Signed(dict):
    """Signed LP text of each coefficient, formatted on its first use.

    One per emit_lp call: most coefficients repeat (the +-1 of sign rows,
    two-decimal data), and a cache kept between calls would only help a
    process that emits the same models again."""

    def __missing__(self, c: float) -> str:
        text = self[c] = f"{'+' if c >= 0 else '-'}{_num(abs(c))}"
        return text


def _expr_text(expr: LinExpr, signed: _Signed) -> str:
    parts = [f"{signed[c]} {v}" for v, c in expr.terms]
    if expr.constant != 0.0 or not parts:
        parts.append(signed[expr.constant])
    text = " ".join(parts)
    return text[1:] if text.startswith("+") else text


def emit_lp(model: DeterministicModel, allow_soc_comment: bool = False) -> str:
    """CPLEX-LP text of a lowered model.

    Cone rows cannot be expressed in base LP format: they are rejected unless
    `allow_soc_comment` turns them into structured comment lines.
    """
    if model.soc_rows and not allow_soc_comment:
        raise LoweringError(
            f"cone row for {model.soc_rows[0].t} cannot be written in LP format "
            "(pass allow_soc_comment to emit it as a comment)")

    signed = _Signed()
    lines = ["Minimize"]
    obj = _expr_text(model.objective, signed) if not model.objective.is_zero() else "0"
    lines.append(f" obj: {obj}")
    lines.append("Subject To")
    for row in model.linear_rows:
        lines.append(f" {row.id}: {_expr_text(row.lhs, signed)} {row.sense} {_num(row.rhs)}")
    for soc in model.soc_rows:
        args = " , ".join(_expr_text(e, signed) for e in soc.arg)
        lines.append(f"\\ soc: {soc.t} >= || {args} ||_{_num(soc.q)}")
    if model.vars:
        lines.append("Bounds")
        for v in model.vars:
            if v.lower == v.upper:
                lines.append(f" {v.id} = {_num(v.lower)}")
            elif v.lower == -INF and v.upper == INF:
                lines.append(f" {v.id} free")
            elif v.upper == INF:
                lines.append(f" {_num(v.lower)} <= {v.id}")
            else:
                lines.append(f" {_num(v.lower)} <= {v.id} <= {_num(v.upper)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON stage dumps
# ---------------------------------------------------------------------------

def _bound(x: float):
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return x


def _unbound(x) -> float:
    if x == "inf":
        return INF
    if x == "-inf":
        return -INF
    return float(x)


def _expr_dict(expr: LinExpr) -> dict:
    return {"terms": {v: c for v, c in expr.terms}, "constant": expr.constant}


def _check_finite(*values: float) -> None:
    for c in values:  # as the parser requires of .roc text
        if not math.isfinite(c):
            raise DimensionError(f"coefficients and constants must be finite, found {c}")


def _expr_from(d: dict) -> LinExpr:
    expr = LinExpr.of(d.get("terms", {}), d.get("constant", 0.0))
    _check_finite(*(c for _, c in expr.terms), expr.constant)
    return expr


def _var_dict(v: VariableDecl) -> dict:
    out = {"id": v.id, "stage": v.stage, "lower": _bound(v.lower), "upper": _bound(v.upper)}
    if v.rule is not None:
        out["rule"] = v.rule
    if v.pinned_one:
        out["pinned_one"] = True
    return out


def _var_from(d: dict) -> VariableDecl:
    return VariableDecl(
        id=d["id"], stage=d.get("stage", "here-and-now"),
        lower=_unbound(d.get("lower", "-inf")), upper=_unbound(d.get("upper", "inf")),
        rule=d.get("rule"), pinned_one=d.get("pinned_one", False))


def _set_dict(uset: UncertaintySet) -> dict:
    if isinstance(uset, NormBall):
        return {"kind": "ball", "p": _bound(uset.p), "r": uset.radius, "dim": uset.L}
    if isinstance(uset, Polyhedral):
        return {"kind": "poly", "D": uset.D.tolist(), "d": uset.d.tolist()}
    if isinstance(uset, (Intersection, MinkowskiSum)):
        return {"kind": uset.kind, "members": [_set_dict(m) for m in uset.members]}
    raise ModelError(f"cannot serialize set kind {uset.kind!r}")


def _set_from(d: dict) -> UncertaintySet:
    kind = d["kind"]
    if kind == "ball":
        return NormBall(_unbound(d["p"]), d["r"], d["dim"])
    if kind == "poly":
        return Polyhedral(np.array(d["D"]), np.array(d["d"]))
    if kind == "intersect":
        return Intersection(tuple(_set_from(m) for m in d["members"]))
    if kind == "minkowski":
        return MinkowskiSum(tuple(_set_from(m) for m in d["members"]))
    raise ModelError(f"cannot deserialize set kind {kind!r}")


def _block_dict(block: UncertainBlock | None):
    if block is None:
        return None
    return {"on": list(block.on), "P": block.P.tolist(), "set": _set_dict(block.uset)}


def _block_from(d) -> UncertainBlock | None:
    if d is None:
        return None
    return UncertainBlock(tuple(d["on"]), np.array(d["P"]), _set_from(d["set"]))


def _row_dict(row: Constraint) -> dict:
    out = {"id": row.id, "lhs": _expr_dict(row.lhs), "sense": row.sense, "rhs": row.rhs}
    if row.uncertainty is not None:
        out["uncertainty"] = _block_dict(row.uncertainty)
    if row.adaptive is not None:
        out["adaptive"] = _expr_dict(row.adaptive)
    if row.rhs_uncertainty is not None:
        out["rhs_uncertainty"] = {
            "P": row.rhs_uncertainty.p.tolist(),
            "set": _set_dict(row.rhs_uncertainty.uset),
        }
    return out


def _row_from(d: dict) -> Constraint:
    rub = d.get("rhs_uncertainty")
    _check_finite(d["rhs"])
    return Constraint(
        id=d["id"], lhs=_expr_from(d["lhs"]), sense=d["sense"], rhs=d["rhs"],
        uncertainty=_block_from(d.get("uncertainty")),
        adaptive=_expr_from(d["adaptive"]) if d.get("adaptive") else None,
        rhs_uncertainty=RhsUncertainty(np.array(rub["P"]), _set_from(rub["set"])) if rub else None)


def _norm_term_dict(term: NormTerm) -> dict:
    return {"weight": term.weight, "q": _bound(term.q),
            "arg": [_expr_dict(e) for e in term.arg]}


def _ldr_dict(ldr: LdrAssignment | None):
    if ldr is None:
        return None
    return {"dim": ldr.dim,
            "entries": [{"y": y, "u": u, "v": list(v)} for y, u, v in ldr.entries]}


def to_jsonable(obj) -> dict:
    """Schema-stamped dict form of any pipeline stage object, or of a plain
    `{"kind": …}` body (a CLI envelope)."""
    if isinstance(obj, dict) and "kind" in obj:
        body = obj
    elif isinstance(obj, Model):
        body = {
            "kind": "model",
            "vars": [_var_dict(v) for v in obj.vars],
            "objective_sense": obj.objective_sense,
            "objective": _expr_dict(obj.objective),
            "objective_uncertainty": _block_dict(obj.objective_uncertainty),
            "constraints": [_row_dict(c) for c in obj.constraints],
        }
    elif isinstance(obj, CanonicalModel):
        body = {
            "kind": "canonical",
            "vars": [_var_dict(v) for v in obj.vars],
            "objective": _expr_dict(obj.objective),
            "rows": [_row_dict(r) for r in obj.rows],
            "ldr": _ldr_dict(obj.ldr),
        }
    elif isinstance(obj, RcModel):
        body = {
            "kind": "rc",
            "vars": [_var_dict(v) for v in obj.vars],
            "objective": _expr_dict(obj.objective),
            "rows": [{**_row_dict(r), "norm_terms": [_norm_term_dict(t) for t in r.norm_terms]}
                     for r in obj.rows],
        }
    elif isinstance(obj, DeterministicModel):
        body = {
            "kind": "deterministic",
            "vars": [_var_dict(v) for v in obj.vars],
            "objective": _expr_dict(obj.objective),
            "linear_rows": [_row_dict(r) for r in obj.linear_rows],
            "soc_rows": [{"q": _bound(s.q), "t": s.t, "arg": [_expr_dict(e) for e in s.arg]}
                         for s in obj.soc_rows],
        }
    elif isinstance(obj, Solution):
        body = {
            "kind": "solution",
            "status": obj.status,
            "objective": None if math.isnan(obj.objective) or math.isinf(obj.objective)
            else obj.objective,
            "values": {k: obj.values[k] for k in sorted(obj.values)},
            "iterations": obj.iterations,
        }
    elif isinstance(obj, VerificationReport):
        body = {"kind": "verification", **dataclasses.asdict(obj)}
    else:
        raise ModelError(f"cannot serialize object of type {type(obj).__name__}")
    return {"roc_schema": SCHEMA_VERSION, **body}


def emit_json(obj) -> str:
    """Canonical JSON dump: sorted keys, deterministic floats."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def model_from_json(text: str) -> Model:
    """Inverse of emit_json for kind="model" dumps; a malformed dump raises
    ModelError."""
    try:
        d = json.loads(text)
        if d.get("roc_schema") != SCHEMA_VERSION:
            raise ModelError(f"unsupported schema version {d.get('roc_schema')!r}")
        if d.get("kind") != "model":
            raise ModelError(f"expected a model dump, got kind {d.get('kind')!r}")
        return Model(
            vars=tuple(_var_from(v) for v in d["vars"]),
            objective_sense=d["objective_sense"],
            objective=_expr_from(d["objective"]),
            constraints=tuple(_row_from(c) for c in d["constraints"]),
            objective_uncertainty=_block_from(d.get("objective_uncertainty")),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed model dump: {type(exc).__name__}: {exc}") from exc
