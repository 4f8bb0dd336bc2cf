"""Parser for the `.roc` modeling language.

Statements are `;`-terminated: variable declarations, one objective, and
named constraints with optional uncertainty annotations.  See
docs/grammar.md for the full EBNF.  Parsing is fail-fast: the first
offending token raises a ParseError carrying its source span.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError, RocError, SolverError
from .model import (EQ, GE, HERE_AND_NOW, LE, WAIT_AND_SEE, Constraint,
                    Intersection, LinExpr, MinkowskiSum, Model, NormBall,
                    Polyhedral, RhsUncertainty, UncertainBlock, UncertaintySet,
                    VariableDecl, expr_add, expr_negate)

KEYWORDS = {"var", "adaptive", "rule", "min", "max", "uncertain", "rhs_uncertain", "inf"}

LEX = "lex"
SYNTAX = "syntax"
DIMENSION = "dimension"
UNKNOWN_SYMBOL = "unknown-symbol"
UNBOUNDED_SET = "unbounded-set"


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int = 1


class ParseError(RocError):
    def __init__(self, span: SourceSpan, kind: str, message: str):
        super().__init__(f"{span.line}:{span.column}: {kind}: {message}")
        self.span = span
        self.kind = kind
        self.message = message


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "number", "punct", "eof"
    text: str
    span: SourceSpan


_PUNCT = ("<=", ">=", ";", ":", ",", "=", "(", ")", "[", "]", "+", "-", "*")


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, col)
        if ch.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(Token("ident", text, SourceSpan(line, col, j - i)))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(SourceSpan(line, col, j - i), LEX, f"bad number literal {text!r}")
            tokens.append(Token("number", text, SourceSpan(line, col, j - i)))
            col += j - i
            i = j
            continue
        two = source[i:i + 2]
        if two in ("<=", ">="):
            tokens.append(Token("punct", two, SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if ch in "<>":
            raise ParseError(span, LEX, f"strict inequality {ch!r} is not supported; use {ch}=")
        if ch in ";:,=()[]+-*":
            tokens.append(Token("punct", ch, span))
            i += 1
            col += 1
            continue
        raise ParseError(span, LEX, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", SourceSpan(line, col)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        # (D bytes, d bytes, D shape) of polytopes already shown bounded, so a
        # set repeated on many rows costs its 2L coordinate LPs once per parse
        self.bounded_polys: set[tuple] = set()

    # ------------------------------------------------------------------ util

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: Token, message: str, kind: str = SYNTAX):
        raise ParseError(tok.span, kind, message)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            self.fail(tok, f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return tok

    def accept(self, text: str) -> Token | None:
        if self.peek().text == text:
            return self.next()
        return None

    def number(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.text in ("-", "+"):
            self.next()
            sign = -1.0 if tok.text == "-" else 1.0
            tok = self.peek()
        if tok.kind == "ident" and tok.text == "inf":
            self.next()
            return sign * math.inf
        if tok.kind != "number":
            self.fail(tok, f"expected a number, found {tok.text or 'end of input'!r}")
        self.next()
        return sign * float(tok.text)

    def ident(self, what: str = "identifier") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            self.fail(tok, f"expected {what}, found {tok.text or 'end of input'!r}")
        if tok.text in KEYWORDS:
            self.fail(tok, f"keyword {tok.text!r} cannot be used as {what}")
        return tok

    # ----------------------------------------------------------- components

    def linexpr(self) -> LinExpr:
        expr = LinExpr()
        sign = 1.0
        if self.peek().text in ("-", "+"):
            sign = -1.0 if self.next().text == "-" else 1.0
        while True:
            expr = expr_add(expr, self.term(sign))
            tok = self.peek()
            if tok.text == "+":
                self.next()
                sign = 1.0
            elif tok.text == "-":
                self.next()
                sign = -1.0
            else:
                return expr

    def term(self, sign: float) -> LinExpr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            coeff = sign * float(tok.text)
            if self.accept("*"):
                var = self.ident("a variable name")
                return LinExpr.of({var.text: coeff})
            return LinExpr.of({}, coeff)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return LinExpr.of({tok.text: sign})
        self.fail(tok, f"expected a term, found {tok.text or 'end of input'!r}")

    def vector(self) -> list[float]:
        self.expect("[")
        out = [self.number()]
        while self.accept(","):
            out.append(self.number())
        self.expect("]")
        return out

    def matrix(self) -> list[list[float]]:
        open_tok = self.expect("[")
        out = [self.vector()]
        while self.accept(","):
            out.append(self.vector())
        self.expect("]")
        widths = {len(r) for r in out}
        if len(widths) != 1:
            raise ParseError(open_tok.span, DIMENSION, "ragged matrix rows")
        return out

    def ident_list(self) -> list[Token]:
        self.expect("[")
        out = [self.ident("a variable name")]
        while self.accept(","):
            out.append(self.ident("a variable name"))
        self.expect("]")
        return out

    def uncertainty_set(self) -> UncertaintySet:
        tok = self.next()
        name = tok.text
        if name == "ball":
            self.expect("(")
            self.expect("p")
            self.expect("=")
            p = self.number()
            self.expect(",")
            self.expect("r")
            self.expect("=")
            r = self.number()
            dim = None
            if self.accept(","):
                self.expect("dim")
                self.expect("=")
                dim = int(self.number())
            self.expect(")")
            try:
                return NormBall(p, r, dim) if dim is not None else _PendingBall(p, r)
            except (ModelError, DimensionError) as exc:
                raise ParseError(tok.span, DIMENSION, str(exc))
        if name == "poly":
            self.expect("(")
            self.expect("D")
            self.expect("=")
            D = self.matrix()
            self.expect(",")
            self.expect("d")
            self.expect("=")
            d = self.vector()
            self.expect(")")
            try:
                pset = Polyhedral(np.array(D), np.array(d))
            except (ModelError, DimensionError) as exc:
                raise ParseError(tok.span, DIMENSION, str(exc))
            key = (pset.D.tobytes(), pset.d.tobytes(), pset.D.shape)
            if key not in self.bounded_polys:
                _validate_polyhedral(pset, tok.span)
                self.bounded_polys.add(key)
            return pset
        if name in ("intersect", "minkowski"):
            self.expect("(")
            members = [self.uncertainty_set()]
            while self.accept(","):
                members.append(self.uncertainty_set())
            self.expect(")")
            pending = [m for m in members if isinstance(m, _PendingBall)]
            concrete = [m.dim for m in members if not isinstance(m, _PendingBall)]
            if pending:
                if not concrete:
                    raise ParseError(tok.span, DIMENSION,
                                     "cannot infer ball dimension; give dim= on at least one member")
                members = [m.fix(concrete[0]) if isinstance(m, _PendingBall) else m for m in members]
            cls = Intersection if name == "intersect" else MinkowskiSum
            try:
                return cls(tuple(members))
            except (ModelError, DimensionError) as exc:
                raise ParseError(tok.span, DIMENSION, str(exc))
        self.fail(tok, f"unknown uncertainty set {name!r} (ball, poly, intersect, minkowski)")

    # ----------------------------------------------------------- statements

    def parse(self) -> Model:
        decls: dict[str, VariableDecl] = {}
        order: list[str] = []
        objective: tuple[str, LinExpr, object] | None = None
        constraints: list[tuple] = []

        def declare(tok: Token, **kwargs) -> None:
            if tok.text in decls:
                self.fail(tok, f"variable {tok.text!r} declared twice")
            decls[tok.text] = VariableDecl(tok.text, **kwargs)
            order.append(tok.text)

        def auto_declare(expr: LinExpr) -> None:
            for v in expr.vars():
                if v not in decls:
                    decls[v] = VariableDecl(v)
                    order.append(v)

        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "var":
                self.next()
                name = self.ident("a variable name")
                lo, hi = self.bounds(name)
                self.expect(";")
                try:
                    declare(name, lower=lo, upper=hi)
                except ModelError as exc:
                    raise ParseError(name.span, SYNTAX, str(exc))
            elif tok.text == "adaptive":
                self.next()
                self.expect("var")
                name = self.ident("a variable name")
                lo, hi = self.bounds(name)
                self.expect("rule")
                self.expect("=")
                rule = self.next()
                if rule.text not in ("linear", "static"):
                    self.fail(rule, f"unknown decision rule {rule.text!r} (linear or static)")
                self.expect(";")
                try:
                    declare(name, stage=WAIT_AND_SEE, lower=lo, upper=hi, rule=rule.text)
                except ModelError as exc:
                    raise ParseError(name.span, SYNTAX, str(exc))
            elif tok.text in ("min", "max"):
                self.next()
                if objective is not None:
                    self.fail(tok, "a model has exactly one objective")
                self.expect(":")
                expr = self.linexpr()
                auto_declare(expr)
                block = None
                if self.peek().text == "uncertain":
                    block = self.uncertain_clause(expr, decls)
                self.expect(";")
                objective = (tok.text, expr, block)
            elif tok.kind == "ident":
                name = self.ident("a constraint name")
                self.expect(":")
                lhs = self.linexpr()
                sense_tok = self.next()
                if sense_tok.text not in (LE, GE, EQ):
                    self.fail(sense_tok, f"expected <=, >= or =, found {sense_tok.text!r}")
                # everything moves to the left (lhs - rhs <= 0 form); the row
                # folds the constant back into its rhs
                lhs = expr_add(lhs, expr_negate(self.linexpr()))
                auto_declare(lhs)
                block = None
                rub = None
                if self.peek().text == "uncertain":
                    block = self.uncertain_clause(lhs, decls, sense_tok)
                elif self.peek().text == "rhs_uncertain":
                    rub = self.rhs_uncertain_clause(sense_tok)
                self.expect(";")
                constraints.append((name, lhs, sense_tok.text, block, rub))
            else:
                self.fail(tok, f"expected a statement, found {tok.text!r}")

        if objective is None:
            self.fail(self.peek(), "missing objective (min: ... or max: ...)")

        return self.build(decls, order, objective, constraints)

    def bounds(self, name: Token) -> tuple[float, float]:
        lo, hi = -math.inf, math.inf
        while self.peek().text in (GE, LE):
            tok = self.next()
            value = self.number()
            if tok.text == GE:
                lo = value
            else:
                hi = value
        return lo, hi

    def uncertain_clause(self, lhs: LinExpr, decls, sense_tok: Token | None = None):
        kw = self.expect("uncertain")
        if sense_tok is not None and sense_tok.text == EQ:
            raise ParseError(kw.span, SYNTAX, "robust equalities are not representable")
        self.expect("(")
        on_tokens = None
        P = None
        uset = None
        while True:
            key = self.next()
            if key.text == "on":
                self.expect("=")
                on_tokens = self.ident_list()
            elif key.text == "P":
                self.expect("=")
                P = self.matrix()
            elif key.text == "Z":
                self.expect("=")
                uset = self.uncertainty_set()
            else:
                self.fail(key, f"unknown uncertain(...) argument {key.text!r}")
            if not self.accept(","):
                break
        self.expect(")")
        if uset is None:
            raise ParseError(kw.span, SYNTAX, "uncertain(...) needs Z=<set>")

        if on_tokens is None:
            on = [v for v, _ in lhs.terms if decls[v].stage == HERE_AND_NOW]
            if not on:
                raise ParseError(kw.span, SYNTAX, "no here-and-now coefficients to perturb")
        else:
            on = []
            for tok in on_tokens:
                if tok.text not in decls:
                    raise ParseError(tok.span, UNKNOWN_SYMBOL, f"unknown variable {tok.text!r}")
                if decls[tok.text].stage != HERE_AND_NOW:
                    raise ParseError(tok.span, SYNTAX,
                                     "recourse coefficients must be certain (fixed recourse)")
                on.append(tok.text)

        if P is None:
            if isinstance(uset, _PendingBall):
                uset = uset.fix(len(on))
            if uset.dim != len(on):
                raise ParseError(kw.span, DIMENSION,
                                 f"set dimension {uset.dim} != {len(on)} perturbed coefficients "
                                 "(give P= explicitly)")
            P_arr = np.eye(len(on))
        else:
            P_arr = np.array(P, dtype=float)
            if isinstance(uset, _PendingBall):
                uset = uset.fix(P_arr.shape[1] if P_arr.ndim == 2 else 1)
        try:
            return UncertainBlock(tuple(on), P_arr, uset)
        except (ModelError, DimensionError) as exc:
            raise ParseError(kw.span, DIMENSION, str(exc))

    def rhs_uncertain_clause(self, sense_tok: Token):
        kw = self.expect("rhs_uncertain")
        if sense_tok.text == EQ:
            raise ParseError(kw.span, SYNTAX, "robust equalities are not representable")
        self.expect("(")
        p = None
        uset = None
        while True:
            key = self.next()
            if key.text == "P":
                self.expect("=")
                p = self.matrix()
            elif key.text == "Z":
                self.expect("=")
                uset = self.uncertainty_set()
            else:
                self.fail(key, f"unknown rhs_uncertain(...) argument {key.text!r}")
            if not self.accept(","):
                break
        self.expect(")")
        if uset is None:
            raise ParseError(kw.span, SYNTAX, "rhs_uncertain(...) needs Z=<set>")
        if p is None:
            if isinstance(uset, _PendingBall):
                uset = uset.fix(1)
            p_arr = np.ones(uset.dim)
        else:
            if len(p) != 1:
                raise ParseError(kw.span, DIMENSION, "rhs perturbation P must be a single row")
            p_arr = np.array(p[0], dtype=float)
            if isinstance(uset, _PendingBall):
                uset = uset.fix(p_arr.shape[0])
        try:
            return RhsUncertainty(p_arr, uset)
        except (ModelError, DimensionError) as exc:
            raise ParseError(kw.span, DIMENSION, str(exc))

    def build(self, decls, order, objective, constraints) -> Model:
        sense, obj_expr, obj_block = objective
        rows = []
        for name, lhs, row_sense, block, rub in constraints:
            here = {v: c for v, c in lhs.terms if decls[v].stage == HERE_AND_NOW}
            wait = {v: c for v, c in lhs.terms if decls[v].stage == WAIT_AND_SEE}
            adaptive = LinExpr.of(wait) if wait else None
            if adaptive is not None and row_sense == EQ:
                raise ParseError(name.span, SYNTAX,
                                 f"row {name.text}: adaptive equalities are not representable")
            try:
                rows.append(Constraint(
                    id=name.text,
                    lhs=LinExpr.of(here, lhs.constant),
                    sense=row_sense,
                    rhs=0.0,
                    uncertainty=block,
                    adaptive=adaptive,
                    rhs_uncertainty=rub,
                ))
            except ModelError as exc:
                raise ParseError(name.span, SYNTAX, str(exc))
        seen = set()
        for name, *_ in constraints:
            if name.text in seen:
                raise ParseError(name.span, SYNTAX, f"constraint {name.text!r} declared twice")
            seen.add(name.text)
        try:
            return Model(
                vars=tuple(decls[v] for v in order),
                objective_sense=sense,
                objective=obj_expr,
                constraints=tuple(rows),
                objective_uncertainty=obj_block,
            )
        except ModelError as exc:
            raise ParseError(SourceSpan(1, 1), SYNTAX, str(exc))


@dataclass(frozen=True)
class _PendingBall:
    """Norm ball whose dimension is inferred from its usage context."""

    p: float
    radius: float

    def fix(self, dim: int) -> NormBall:
        return NormBall(self.p, self.radius, dim)


def _validate_polyhedral(pset: Polyhedral, span: SourceSpan) -> None:
    """Boundedness via 2L coordinate LPs; 0 in Z is exactly d >= 0."""
    if not pset.contains_zero():
        raise ParseError(span, DIMENSION, "polyhedral set must contain 0 (needs d >= 0)")
    from . import solver
    try:
        solver.coordinate_extremes(pset)
    except SolverError as exc:
        raise ParseError(span, UNBOUNDED_SET, str(exc))


def parse_model(source: str) -> Model:
    """Parse a `.roc` program into a Model (fail-fast on the first error)."""
    return _Parser(source).parse()


def parse_uncertainty_spec(source: str) -> UncertaintySet:
    """Parse a standalone uncertainty-set expression such as `ball(p=2, r=1, dim=3)`."""
    parser = _Parser(source)
    uset = parser.uncertainty_set()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(tok, f"trailing input after set expression: {tok.text!r}")
    if isinstance(uset, _PendingBall):
        raise ParseError(SourceSpan(1, 1), DIMENSION,
                         "ball needs dim= when used outside a constraint")
    return uset
