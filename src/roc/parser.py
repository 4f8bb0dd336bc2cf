"""Parser for the `.roc` modeling language.

Statements are `;`-terminated: variable declarations, one objective, and
named constraints with optional uncertainty annotations.  See
docs/grammar.md for the full EBNF.  Parsing is one fail-fast pass: each
declaration and each `Constraint` is built at the statement that defines it,
and the lexer stops at its first bad character, which is reported only when
the parser reaches it, so the first error in the source raises a ParseError
carrying its source span.

The lexer is one compiled pattern.  Four shapes that make up almost every
token of a large model lex as one compound token each, read whole only by
its owner: a run of signed `c*x` terms (`terms`, read by `linexpr()`), a
`[`...`]` list of names (`idents`, `ident_list()`), a list of signed numbers
(`numbers`, `vector()`) and a list of such lists (`matrix`, `matrix()`).
Anywhere else, and wherever its owner would report an error inside it, a
compound is first split back: its span is lexed again by the same pattern
without the compound alternatives, so every diagnostic names the token and
span that element-by-element lexing would.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: str  # "ident", "number", "punct", "eof", "bad" or a compound kind (module docstring)
    text: str
    offset: int  # into the source; the span is computed only for errors


# One alternative per token kind, tried in order; `bad` catches a number run
# with two dots (`1.2.3`) or any other single character, such as a byte that
# is not UTF-8 (U+DC80 to U+DCFF as `surrogateescape` decodes it, which also
# ends a comment, so a bad byte is located there too).  The compounds hold
# only `skip`-class spaces between their parts, and names that start with an
# ASCII letter, so a list or sum that holds a comment, `inf`, a detached sign
# in a list or a non-ASCII name lexes element by element:
#   terms    [+-]? n*x, then any number of [+-] n*x
#   idents   [x, ...]
#   matrix   [[n, ...], ...], rows as in `numbers`
#   numbers  [n, ...], each n with its sign attached
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?![\d.])(?:[eE][+-]?\d+)?"
_NAME = re.compile(r"[A-Za-z]\w*")
# one term of a `terms` run, from its sign, number and name; the lexer and the
# reader in terms() fill in the same template, so a run is read back term by
# term exactly where it was lexed
_TERM = r"[ \t\r\n]*{}[ \t\r\n]*{}[ \t\r\n]*\*[ \t\r\n]*{}"
_TERM_PARTS = re.compile(_TERM.format("([+-]?)", f"({_NUMBER})", f"({_NAME.pattern})"))


@functools.cache
def _lexer(compounds: bool) -> re.Pattern:
    """The lexer, or with `compounds=False` the element-only one that splits
    a compound back (compiled on the first split)."""
    s, name = r"[ \t\r\n]*", _NAME.pattern
    first, then = (_TERM.format(sign, _NUMBER, name) for sign in ("[+-]?", "[+-]"))
    numbers = rf"\[{s}[+-]?{_NUMBER}(?:{s},{s}[+-]?{_NUMBER})*{s}\]"
    compound = rf"""
  | (?P<terms>{first}(?:{then})*)
  | (?P<idents>\[{s}{name}(?:{s},{s}{name})*{s}\])
  | (?P<matrix>\[{s}{numbers}(?:{s},{s}{numbers})*{s}\])
  | (?P<numbers>{numbers})""" if compounds else ""
    return re.compile(rf"""
    (?P<skip>[ \t\r\n]+|\#[^\n\udc80-\udcff]*){compound}
  | (?P<number>{_NUMBER})
  | (?P<ident>[^\W\d_]\w*)
  | (?P<punct><=|>=|[;:,=()\[\]+\-*])
  | (?P<bad>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?|.)
""", re.VERBOSE | re.DOTALL)


_TOKEN = _lexer(True)


def _span(source: str, offset: int, length: int) -> SourceSpan:
    return SourceSpan(source.count("\n", 0, offset) + 1,
                      offset - source.rfind("\n", 0, offset), length)


def _tokenize(source: str) -> list[Token]:
    """The tokens of `source`, ending in an `eof` token or at its first bad
    character or number literal: a `bad` token, which peek() reports."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            continue
        if kind == "ident" and not text[0].isalpha():  # \w also matches `²`, `½`
            kind, text = "bad", text[0]
        tokens.append(Token(kind, text, m.start()))
        if kind == "bad":
            return tokens
    end = source.find("#", source.rfind("\n") + 1)  # input ends where a last-line comment starts
    tokens.append(Token("eof", "", len(source) if end < 0 else end))
    return tokens


def _lex_message(text: str) -> str:
    """The diagnostic for a `bad` token."""
    if len(text) > 1:
        return f"bad number literal {text!r}"
    if "\udc80" <= text <= "\udcff":  # a byte that is not UTF-8, read by `surrogateescape`
        return f"invalid UTF-8 byte 0x{ord(text) - 0xdc00:02x}"
    if text in "<>":
        return f"strict inequality {text!r} is not supported; use {text}="
    return f"unexpected character {text!r}"


def _what(key: str | None) -> str:
    return "constant" if key is None else f"coefficient of {key!r}"


_START = Token("eof", "", 0)  # errors about the whole input point at 1:1


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        # (D bytes, d bytes, D shape) -> the polytope, already shown bounded: a
        # set repeated on many rows costs its 2L coordinate LPs once per parse
        self.polys: dict[tuple, Polyhedral] = {}

    # ------------------------------------------------------------------ util

    def peek(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind in ("terms", "idents", "matrix", "numbers"):
            tok = self.split()
        elif tok.kind == "bad":  # where the lexer stopped
            self.fail(tok, _lex_message(tok.text), LEX)
        return tok

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def split(self) -> Token:
        """Replace the compound token at pos by the element tokens of its span."""
        self.tokens[self.pos:self.pos + 1] = self.elements(self.tokens[self.pos])
        return self.tokens[self.pos]

    def elements(self, tok: Token) -> list[Token]:
        """The tokens that element-by-element lexing gives for the span of `tok`."""
        return [Token(m.lastgroup, m.group(), m.start())
                for m in _lexer(False).finditer(self.source, tok.offset, tok.offset + len(tok.text))
                if m.lastgroup != "skip"]

    def fail(self, tok: Token, message: str, kind: str = SYNTAX):
        raise ParseError(_span(self.source, tok.offset, max(len(tok.text), 1)), kind, message)

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

    def datum(self) -> float:
        """A number of uncertainty-set data, which must be finite."""
        value = self.number()
        if not math.isfinite(value):
            tok = self.tokens[self.pos - 1]  # the literal, after any sign
            self.fail(tok, f"set data must be finite, found {tok.text!r}", DIMENSION)
        return value

    def ident(self, what: str = "identifier") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            self.fail(tok, f"expected {what}, found {tok.text or 'end of input'!r}")
        if tok.text in KEYWORDS:
            self.fail(tok, f"keyword {tok.text!r} cannot be used as {what}")
        return tok

    def new_name(self, what: str, taken: dict) -> Token:
        """The name of a new `what`; a name already in `taken` fails here."""
        tok = self.ident(f"a {what} name")
        if tok.text in taken:
            self.fail(tok, f"{what} {tok.text!r} declared twice")
        return tok

    # ----------------------------------------------------------- components

    def linexpr(self, left: LinExpr | None = None, check: bool = False) -> LinExpr:
        """Sum of signed terms, added into one dict in source order.  Given
        the `left` side of a row, the sum is its right side, and the result
        is left minus right.

        Every coefficient and constant of the result must be finite.  If one
        is not, the sum is read again element by element with `check`, which
        fails at the first literal that is not finite, else at the term whose
        addition overflows, else (only left minus right overflows) at the
        last term of that variable or of the constant."""
        start = self.pos
        coeffs: dict[str, float] = {}
        constant = 0.0
        last: dict[str | None, Token] = {}  # with check: the last term of each key
        first = True  # the first term's sign may be left out
        while True:
            # a run of terms is read whole where the sum can go on with it:
            # opening with its own sign, or at the start with its number
            if not check and (self.terms(coeffs) or first and self.terms(coeffs, 1.0)):
                first = False
                continue
            sign = 1.0
            if self.peek().text in ("+", "-"):
                sign = -1.0 if self.next().text == "-" else 1.0
            elif not first:
                break
            first = False
            if not check and self.terms(coeffs, sign):  # or after a sign, with its number
                continue
            tok = end = self.next()
            if tok.kind == "number":
                coeff = sign * float(tok.text)
                if check and not math.isfinite(coeff):
                    self.fail(tok, f"coefficients and constants must be finite, found {tok.text!r}",
                              DIMENSION)
                if self.accept("*"):
                    end = self.ident("a variable name")
                    key = end.text
                    coeffs[key] = value = coeffs.get(key, 0.0) + coeff
                else:
                    key = None
                    constant = value = constant + coeff
            elif tok.kind == "ident" and tok.text not in KEYWORDS:
                key = tok.text
                coeffs[key] = value = coeffs.get(key, 0.0) + sign
            else:
                self.fail(tok, f"expected a term, found {tok.text or 'end of input'!r}")
            if check:
                last[key] = Token("term", self.source[tok.offset:end.offset + len(end.text)],
                                  tok.offset)
                if not math.isfinite(value):
                    self.fail(last[key], f"the {_what(key)} overflows at this term", DIMENSION)
        expr = LinExpr.of(coeffs, constant)
        if left is not None:
            expr = expr_add(left, expr_negate(expr))
        values = [c for _, c in expr.terms] + [expr.constant]
        # a finite sum means finite values; an overflowing sum alone proves nothing
        if math.isfinite(sum(values)) or all(map(math.isfinite, values)):
            return expr
        if not check:
            self.pos = start
            return self.linexpr(left, check=True)
        key = next((v for v, c in expr.terms if not math.isfinite(c)), None)
        self.fail(last[key], f"the {_what(key)} overflows as the right side moves left", DIMENSION)

    def terms(self, coeffs: dict[str, float], sign: float | None = None) -> bool:
        """Add the `terms` token at pos into `coeffs`, if the sum goes on with it.

        Without `sign` the run must open with its own sign; with it, the run
        must open with its number, whose term takes `sign`.  A run that names
        a keyword is left to the element path, which reports it."""
        tok = self.tokens[self.pos]
        if tok.kind != "terms" or (tok.text[0] in "+-") != (sign is None):
            return False
        run = _TERM_PARTS.findall(tok.text)
        if not KEYWORDS.isdisjoint([name for _, _, name in run]):
            return False
        self.pos += 1
        for lead, body, name in run:
            if lead:
                sign = -1.0 if lead == "-" else 1.0
            coeffs[name] = coeffs.get(name, 0.0) + sign * float(body)
        return True

    def vector(self) -> list[float]:
        tok = self.tokens[self.pos]
        if tok.kind == "numbers":  # float() reads the attached sign and the spaces
            out = [float(text) for text in tok.text[1:-1].split(",")]
            # a sum is finite only if every entry is; any other list (or an
            # overflowing sum) takes the element path, which names the literal
            if math.isfinite(sum(out)):
                self.pos += 1
                return out
        self.expect("[")
        out = [self.datum()]
        while self.accept(","):
            out.append(self.datum())
        self.expect("]")
        return out

    def matrix(self) -> list[list[float]]:
        tok = self.tokens[self.pos]
        rows = tok.text[1:-1].split("]")[:-1] if tok.kind == "matrix" else []
        out = [[float(text) for text in row.lstrip(" \t\r\n,[").split(",")] for row in rows]
        if out and math.isfinite(sum(map(sum, out))):  # as in vector()
            self.pos += 1
        else:
            tok = self.expect("[")
            out = [self.vector()]
            while self.accept(","):
                out.append(self.vector())
            self.expect("]")
        if len({len(r) for r in out}) != 1:
            self.fail(tok._replace(text="["), "ragged matrix rows", DIMENSION)
        return out

    def ident_list(self) -> tuple[Token, list[str]]:
        """The names of a `[`...`]` list, and a token spanning the list: the
        tokens of the names are made only to report one (`elements()`)."""
        tok = self.tokens[self.pos]
        if tok.kind == "idents":
            names = _NAME.findall(tok.text)
            if KEYWORDS.isdisjoint(names):
                self.pos += 1
                return tok, names
        start = self.expect("[")
        names = [self.ident("a variable name").text]
        while self.accept(","):
            names.append(self.ident("a variable name").text)
        end = self.expect("]")
        return Token("idents", self.source[start.offset:end.offset + 1], start.offset), names

    def dim(self) -> int:
        """A ball's `dim`, which must be an integer (checked here to locate it)."""
        tok = self.peek()
        dim = self.number()
        if not dim.is_integer():
            self.fail(tok, f"norm ball: dimension must be an integer, got {dim:g}", DIMENSION)
        return int(dim)

    def args(self, kw: Token, readers: dict) -> dict:
        """`( key = value { , key = value } )` after `kw`, each value read by
        `readers[key]`; a key that is not in `readers`, or is given twice,
        fails at that key.  The caller checks the keys it requires."""
        self.expect("(")
        out = {}
        while True:
            key = self.next()
            if key.text not in readers:
                self.fail(key, f"unknown {kw.text}(...) argument {key.text!r}")
            if key.text in out:
                self.fail(key, f"{kw.text}(...) argument {key.text!r} given twice")
            self.expect("=")
            out[key.text] = readers[key.text]()
            if not self.accept(","):
                break
        self.expect(")")
        return out

    def uncertainty_set(self) -> UncertaintySet:
        tok = self.next()
        name = tok.text
        if name == "ball":
            args = self.args(tok, {"p": self.number, "r": self.datum, "dim": self.dim})
            if "p" not in args or "r" not in args:
                self.fail(tok, "ball(...) needs p=<number> and r=<number>")
            try:  # checks p and r now, also when dim is left to the context
                ball = NormBall(args["p"], args["r"], args.get("dim", 1))
            except (ModelError, DimensionError) as exc:
                self.fail(tok, str(exc), DIMENSION)
            return ball if "dim" in args else _PendingBall(ball.p, ball.radius)
        if name == "poly":
            args = self.args(tok, {"D": self.matrix, "d": self.vector})
            if "D" not in args or "d" not in args:
                self.fail(tok, "poly(...) needs D=<matrix> and d=<vector>")
            try:
                pset = Polyhedral(np.array(args["D"]), np.array(args["d"]))
            except (ModelError, DimensionError) as exc:
                self.fail(tok, str(exc), DIMENSION)
            # one instance per distinct set: verification's stress points
            # reuse the extremes solved here
            key = (pset.D.tobytes(), pset.d.tobytes(), pset.D.shape)
            if key not in self.polys:
                try:  # boundedness via 2L coordinate LPs
                    pset.extremes
                except SolverError as exc:
                    self.fail(tok, str(exc), UNBOUNDED_SET)
                self.polys[key] = pset
            return self.polys[key]
        if name in ("intersect", "minkowski"):
            self.expect("(")
            members = [self.uncertainty_set()]
            while self.accept(","):
                members.append(self.uncertainty_set())
            self.expect(")")
            sizes = [m.dim for m in members if not isinstance(m, _PendingBall)]
            if not sizes:
                self.fail(tok, "cannot infer ball dimension; give dim= on at least one member",
                          DIMENSION)
            members = [_sized(m, sizes[0]) for m in members]
            cls = Intersection if name == "intersect" else MinkowskiSum
            try:
                return cls(tuple(members))
            except (ModelError, DimensionError) as exc:
                self.fail(tok, str(exc), DIMENSION)
        self.fail(tok, f"unknown uncertainty set {name!r} (ball, poly, intersect, minkowski)")

    # ----------------------------------------------------------- statements

    def parse(self) -> Model:
        decls: dict[str, VariableDecl] = {}
        rows: dict[str, Constraint] = {}
        objective: tuple[str, LinExpr, UncertainBlock | None] | None = None

        def auto_declare(expr: LinExpr) -> None:
            for v in expr.vars():
                if v not in decls:
                    decls[v] = VariableDecl(v)

        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text in ("var", "adaptive"):
                adaptive = self.next().text == "adaptive"
                if adaptive:
                    self.expect("var")
                name = self.new_name("variable", decls)
                lo, hi = self.bounds()
                rule = None
                if adaptive:
                    self.expect("rule")
                    self.expect("=")
                    tok = self.next()
                    if tok.text not in ("linear", "static"):
                        self.fail(tok, f"unknown decision rule {tok.text!r} (linear or static)")
                    rule = tok.text
                self.expect(";")
                stage = WAIT_AND_SEE if adaptive else HERE_AND_NOW
                try:
                    decls[name.text] = VariableDecl(name.text, stage, lo, hi, rule)
                except ModelError as exc:
                    self.fail(name, str(exc))
            elif tok.text in ("min", "max"):
                self.next()
                if objective is not None:
                    self.fail(tok, "a model has exactly one objective")
                self.expect(":")
                expr = self.linexpr()
                auto_declare(expr)
                block = self.clause(expr, decls) if self.peek().text == "uncertain" else None
                self.expect(";")
                objective = (tok.text, expr, block)
            elif tok.kind == "ident":
                name = self.new_name("constraint", rows)
                self.expect(":")
                lhs = self.linexpr()
                sense_tok = self.next()
                if sense_tok.text not in (LE, GE, EQ):
                    self.fail(sense_tok, f"expected <=, >= or =, found {sense_tok.text!r}")
                # everything moves to the left (lhs - rhs <= 0 form); the row
                # folds the constant back into its rhs
                lhs = self.linexpr(left=lhs)
                auto_declare(lhs)
                block = None
                rub = None
                if self.peek().text == "uncertain":
                    block = self.clause(lhs, decls, sense_tok)
                elif self.peek().text == "rhs_uncertain":
                    rub = self.clause(lhs, decls, sense_tok)
                self.expect(";")
                here = {v: c for v, c in lhs.terms if decls[v].stage == HERE_AND_NOW}
                wait = {v: c for v, c in lhs.terms if decls[v].stage == WAIT_AND_SEE}
                try:
                    rows[name.text] = Constraint(name.text, LinExpr.of(here, lhs.constant),
                                                 sense_tok.text, 0.0, block,
                                                 LinExpr.of(wait) if wait else None, rub)
                except ModelError as exc:
                    self.fail(name, str(exc))
            else:
                self.fail(tok, f"expected a statement, found {tok.text!r}")

        if objective is None:
            self.fail(self.peek(), "missing objective (min: ... or max: ...)")
        sense, expr, block = objective
        try:
            return Model(tuple(decls.values()), sense, expr, tuple(rows.values()), block)
        except ModelError as exc:
            self.fail(_START, str(exc))

    def bounds(self) -> tuple[float, float]:
        lo, hi = -math.inf, math.inf
        while self.peek().text in (GE, LE):
            tok = self.next()
            value = self.number()
            if tok.text == GE:
                lo = value
            else:
                hi = value
        return lo, hi

    def clause(self, lhs: LinExpr, decls, sense_tok: Token | None = None):
        """An `uncertain(...)` clause as an UncertainBlock, or an
        `rhs_uncertain(...)` one as an RhsUncertainty."""
        kw = self.next()
        if sense_tok is not None and sense_tok.text == EQ:
            self.fail(kw, "robust equalities are not representable")
        rhs = kw.text == "rhs_uncertain"
        readers = {"P": self.matrix, "Z": self.uncertainty_set}
        if not rhs:
            readers["on"] = self.ident_list
        args = self.args(kw, readers)
        if "Z" not in args:
            self.fail(kw, f"{kw.text}(...) needs Z=<set>")
        uset, P = args["Z"], args.get("P")

        if rhs:
            if P is not None and len(P) != 1:
                self.fail(kw, "rhs perturbation P must be a single row", DIMENSION)
            uset = _sized(uset, 1 if P is None else len(P[0]))
            P = np.ones(uset.dim) if P is None else np.array(P[0], dtype=float)
        else:
            if "on" not in args:
                on = [v for v, _ in lhs.terms if decls[v].stage == HERE_AND_NOW]
                if not on:
                    self.fail(kw, "no here-and-now coefficients to perturb")
            else:
                span, on = args["on"]
                if any(v not in decls or decls[v].stage != HERE_AND_NOW for v in on):
                    for tok in self.elements(span):  # the first name that fails
                        if tok.kind == "ident" and tok.text not in decls:
                            self.fail(tok, f"unknown variable {tok.text!r}", UNKNOWN_SYMBOL)
                        if tok.kind == "ident" and decls[tok.text].stage != HERE_AND_NOW:
                            self.fail(tok, "recourse coefficients must be certain (fixed recourse)")
            uset = _sized(uset, len(on) if P is None else len(P[0]))
            if P is None and uset.dim != len(on):
                self.fail(kw, f"set dimension {uset.dim} != {len(on)} perturbed coefficients "
                              "(give P= explicitly)", DIMENSION)
            P = np.eye(len(on)) if P is None else np.array(P, dtype=float)
        try:
            return RhsUncertainty(P, uset) if rhs else UncertainBlock(tuple(on), P, uset)
        except (ModelError, DimensionError) as exc:
            self.fail(kw, str(exc), DIMENSION)


@dataclass(frozen=True)
class _PendingBall:
    """Norm ball whose dimension is inferred from its usage context."""

    p: float
    radius: float


def _sized(uset, dim: int) -> UncertaintySet:
    """`uset`, or if it is a ball without `dim=`, that ball in `dim` dimensions:
    the size of an `on` list, the columns of `P`, or a sibling member's."""
    return NormBall(uset.p, uset.radius, dim) if isinstance(uset, _PendingBall) else uset


def parse_model(source: str) -> Model:
    """Parse a `.roc` program into a Model (fail-fast on the first error)."""
    return _Parser(source).parse()


def parse_uncertainty_spec(source: str) -> UncertaintySet:
    """Parse a standalone uncertainty-set expression such as `ball(p=2, r=1, dim=3)`."""
    parser = _Parser(source)
    kw = parser.peek()
    uset = parser.uncertainty_set()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(tok, f"trailing input after set expression: {tok.text!r}")
    if isinstance(uset, _PendingBall):
        parser.fail(kw, "ball needs dim= when used outside a constraint", DIMENSION)
    return uset
