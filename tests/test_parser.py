"""DSL parsing: grammar coverage, error spans, set validation."""
import importlib.util
import math
import random
import re

import numpy as np
import pytest

import roc
from roc import LinExpr
from roc.cli import main
from roc.parser import ParseError, _lexer, _Parser, _tokenize

from support import FIXTURES, fixture_text

EX1_INLINE = (
    "max: 50*x1 + 40*x2 + 60*x3 + 30*x4;"
    "c1: 10*x1+20*x2+30*x3+40*x4 >= 500 uncertain(Z=ball(p=2,r=0.1));"
    "c2: 2*x1+3*x2+4*x3+5*x4 <= 300 uncertain(Z=ball(p=inf,r=0.1));"
)


class TestParseModel:
    def test_example1_shape(self):
        m = roc.parse_model(EX1_INLINE)
        assert len(m.vars) == 4
        assert m.objective_sense == "max"
        assert len(m.constraints) == 2
        assert all(c.uncertainty is not None for c in m.constraints)
        assert m.constraints[0].uncertainty.uset == roc.NormBall(2.0, 0.1, 4)
        assert m.constraints[1].uncertainty.uset == roc.NormBall(math.inf, 0.1, 4)

    def test_minimal_model(self):
        m = roc.parse_model("min: x1; c: x1 >= 1;")
        assert len(m.vars) == 1
        assert len(m.constraints) == 1
        assert m.constraints[0].is_certain()

    def test_robust_equality_rejected(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_model("min: x1; c: x1 = 1 uncertain(Z=ball(p=2,r=1));")
        assert exc.value.kind == "syntax"

    def test_rhs_variables_move_left(self):
        m = roc.parse_model("min: 2*x1 - 3*x2; c: 100*x1 + x2 >= 10 + x1;")
        row = m.constraints[0]
        assert row.lhs == roc.LinExpr.of({"x1": 99.0, "x2": 1.0})
        assert row.rhs == 10.0

    def test_lhs_constant_folds_into_rhs(self):
        m = roc.parse_model("min: x; c: x + 5 <= 10 - 2;")
        row = m.constraints[0]
        assert row.lhs == roc.LinExpr.of({"x": 1.0})
        assert row.rhs == 3.0

    def test_bounds_and_comments(self):
        m = roc.parse_model("# a comment\nvar x >= 0 <= 5; # inline\nmin: x;")
        v = m.vars[0]
        assert (v.lower, v.upper) == (0.0, 5.0)

    def test_adaptive_declaration(self):
        m = roc.parse_model(
            "adaptive var y >= 0 rule=linear;\nmin: y;\n"
            "c: y >= 1 rhs_uncertain(Z=ball(p=inf, r=1, dim=1));")
        y = m.vars[0]
        assert y.stage == "wait-and-see"
        assert y.rule == "linear"
        # d^T y lives in the adaptive part, not the lhs
        assert m.constraints[0].lhs == roc.LinExpr.of({})
        assert m.constraints[0].adaptive == roc.LinExpr.of({"y": 1.0})

    def test_adaptive_equality_rejected(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_model("adaptive var y rule=linear; min: y; c: y = 1;")
        assert exc.value.kind == "syntax"

    def test_unknown_on_symbol(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_model("min: x1; c: x1 <= 1 uncertain(on=[zz], Z=ball(p=2,r=1,dim=1));")
        assert exc.value.kind == "unknown-symbol"

    def test_recourse_must_be_certain(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_model(
                "adaptive var y rule=linear; min: y;"
                "c: y <= 1 uncertain(on=[y], Z=ball(p=2,r=1,dim=1));")
        assert exc.value.kind == "syntax"

    def test_two_objectives_rejected(self):
        with pytest.raises(ParseError):
            roc.parse_model("min: x1; max: x1;")

    def test_missing_objective(self):
        with pytest.raises(ParseError):
            roc.parse_model("var x;")

    def test_duplicate_constraint(self):
        with pytest.raises(ParseError):
            roc.parse_model("min: x; c: x >= 0; c: x <= 1;")

    def test_error_span_inside_source(self):
        src = "min: x1;\nc: x1 = 1 uncertain(Z=ball(p=2,r=1));"
        with pytest.raises(ParseError) as exc:
            roc.parse_model(src)
        span = exc.value.span
        lines = src.split("\n")
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= len(lines[span.line - 1]) + 1

    def test_lex_error(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_model("min: x ? 1;")
        assert exc.value.kind == "lex"

    def test_objective_uncertainty(self):
        m = roc.parse_model("min: x1 + x2 uncertain(Z=ball(p=2, r=0.5)); c: x1 + x2 >= 1;")
        assert m.objective_uncertainty is not None
        assert m.objective_uncertainty.uset == roc.NormBall(2.0, 0.5, 2)

    def test_explicit_on_and_P(self):
        m = roc.parse_model(
            "min: x1 + x2; c: x1 + x2 <= 1 uncertain(on=[x2], P=[[2, 0]], Z=ball(p=1, r=1, dim=2));")
        block = m.constraints[0].uncertainty
        assert block.on == ("x2",)
        assert block.P.tolist() == [[2.0, 0.0]]

    def test_ball_dim_inferred_from_P(self):
        m = roc.parse_model(
            "min: x1; c: x1 <= 1 uncertain(on=[x1], P=[[1, -1, 0]], Z=ball(p=inf, r=0.5));")
        assert m.constraints[0].uncertainty.uset.dim == 3


# each source with its argument lists in the documented key order, and reordered
REORDERED_ARGUMENTS = [
    ("var x; min: x; c: x <= 1 uncertain(Z=ball(p=2, r=0.5, dim=1));",
     "var x; min: x; c: x <= 1 uncertain(Z=ball(dim=1, r=0.5, p=2));"),
    ("var x; min: x; c: x <= 1 uncertain(Z=poly(D=[[1], [-1]], d=[1, 2]));",
     "var x; min: x; c: x <= 1 uncertain(Z=poly(d=[1, 2], D=[[1], [-1]]));"),
    ("var x; min: x; c: x >= 1 rhs_uncertain(P=[[1, 2]], Z=ball(p=2, r=1));",
     "var x; min: x; c: x >= 1 rhs_uncertain(Z=ball(r=1, p=2), P=[[1, 2]]);"),
]


@pytest.mark.parametrize("documented, reordered", REORDERED_ARGUMENTS)
def test_argument_order_is_free(documented, reordered):
    assert roc.parse_model(reordered) == roc.parse_model(documented)


# source, exact str(ParseError), span length
DIAGNOSTICS = [
    ("min: x;\n\tc: x ? 1;", "2:7: lex: unexpected character '?'", 1),
    ("min: x;\r\nc: x <= 1;\r\nd: x ? 2;\r\n", "3:6: lex: unexpected character '?'", 1),
    ("# comment ?\nmin: x; # another <\nc: x ?= 1;", "3:6: lex: unexpected character '?'", 1),
    ("min: x;\nc: x <= 1 2", "2:11: syntax: expected ';', found '2'", 1),
    ("min: x;\nc: x <=", "2:8: syntax: expected a term, found 'end of input'", 1),
    ("min: x # no semicolon", "1:8: syntax: expected ';', found 'end of input'", 1),
    ("min: x;\nc: x < 1;", "2:6: lex: strict inequality '<' is not supported; use <=", 1),
    ("min: x ? 1;", "1:8: lex: unexpected character '?'", 1),
    ("min: 1.2.3*x;", "1:6: lex: bad number literal '1.2.3'", 5),
    ("min: 1e*x;", "1:7: syntax: expected ';', found 'e'", 1),
    ("min: x;\nvar été; var été;", "2:14: syntax: variable 'été' declared twice", 3),
    ("min: été <= 1;", "1:10: syntax: expected ';', found '<='", 2),
    # a list of numbers where no vector belongs names its first element
    ("min: x;\nc: x <= 1 uncertain(P=[1], Z=ball(p=2, r=1));",
     "2:24: syntax: expected '[', found '1'", 1),
    ("min: x;\nc: x <= 1 uncertain(P=[-1, 2], Z=ball(p=2, r=1));",
     "2:24: syntax: expected '[', found '-'", 1),
    ("min: x;\nc: x <= 1 uncertain(on=[1], Z=ball(p=2, r=1));",
     "2:25: syntax: expected a variable name, found '1'", 1),
    ("min: x;\nc: x <= 1 uncertain(P[1], Z=ball(p=2, r=1));",
     "2:22: syntax: expected '=', found '['", 1),
    ("min: [1, 2];", "1:6: syntax: expected a term, found '['", 1),
    ("[1] min: x;", "1:1: syntax: expected a statement, found '['", 1),
    # a run of terms, a list of names or a matrix that its reader cannot take
    # whole names the element it fails at
    ("var x; min: 2*x 3*x;", "1:17: syntax: expected ';', found '3'", 1),
    ("var x; min: 2*inf + 3*x;", "1:15: syntax: keyword 'inf' cannot be used as a variable name", 3),
    ("var x; min: 2*x + 3*var;", "1:21: syntax: keyword 'var' cannot be used as a variable name", 3),
    ("var x; min: 2*x + -3*x;", "1:19: syntax: expected a term, found '-'", 1),
    ("var x; min: x; c: x <= 1 uncertain(on=[x, var], Z=ball(p=2, r=1));",
     "1:43: syntax: keyword 'var' cannot be used as a variable name", 3),
    ("var x; min: x; c: x <= 1 uncertain(on=[x, zz], Z=ball(p=2, r=1));",
     "1:43: unknown-symbol: unknown variable 'zz'", 2),
    ("var x; min: x; c: x <= 1 uncertain(on=[x], P=[[1, 2], [3]], Z=ball(p=2, r=1));",
     "1:46: dimension: ragged matrix rows", 1),
    ("var x; min: x; c: x <= 1 uncertain(on=[[1]], Z=ball(p=2, r=1));",
     "1:40: syntax: expected a variable name, found '['", 1),
    # an `on` list is checked after its clause is read, at its first name that
    # is unknown or wait-and-see, whether it lexed as one token or name by name
    ("var x; adaptive var y rule=linear; min: x; c: x + y <= 1 uncertain(on=[x, y], Z=ball(p=2, r=1));",
     "1:75: syntax: recourse coefficients must be certain (fixed recourse)", 1),
    ("var x; adaptive var y rule=linear; min: x; c: x + y <= 1 "
     "uncertain(on=[x, # y is adaptive\n  y], Z=ball(p=2, r=1));",
     "2:3: syntax: recourse coefficients must be certain (fixed recourse)", 1),
    ("var x; adaptive var y rule=linear; min: x; c: x + y <= 1 uncertain(on=[y, zz], Z=ball(p=2, r=1));",
     "1:72: syntax: recourse coefficients must be certain (fixed recourse)", 1),
    ("var x; adaptive var y rule=linear; min: x; c: x + y <= 1 uncertain(on=[zz, y], Z=ball(p=2, r=1));",
     "1:72: unknown-symbol: unknown variable 'zz'", 2),
    ("var x; min: x; c: x <= 1 uncertain(on=[x, # unknown\n zz], Z=ball(p=2, r=1));",
     "2:2: unknown-symbol: unknown variable 'zz'", 2),
    ("var x; min: x; c: x <= 1 uncertain(on=[x, é], Z=ball(p=2, r=1));",
     "1:43: unknown-symbol: unknown variable 'é'", 1),
    ("var x; min: x; c: x <= 1 uncertain(on=[x,\tinf], Z=ball(p=2, r=1));",
     "1:43: syntax: keyword 'inf' cannot be used as a variable name", 3),
    ("var x; min: x; c: x <= 1 uncertain(on=[x, x], Z=ball(p=2, r=1));",
     "1:26: dimension: uncertain block: duplicate variables in on=('x', 'x')", 9),
    ("var x; min: x; c: x <= 1 uncertain(on=[x, # twice\n x], Z=ball(p=2, r=1));",
     "1:26: dimension: uncertain block: duplicate variables in on=('x', 'x')", 9),
    ("var x; min: x; c: x <= 1 uncertain(on=[zz], Q=1);",
     "1:45: syntax: unknown uncertain(...) argument 'Q'", 1),
    ("var x; min: x; c: x <= 1 uncertain(on=[zz]);",
     "1:26: syntax: uncertain(...) needs Z=<set>", 9),
    ("var x; min: x; c: x <= 1 uncertain(on=[zz], Z=ball(p=2, r=1, dim=3));",
     "1:40: unknown-symbol: unknown variable 'zz'", 2),
    # every argument list takes each key at most once, and fails at the second
    ("var x; min: x; c: x <= 1 uncertain(Z=ball(p=2, r=1, dim=1), Z=ball(p=inf, r=5, dim=1));",
     "1:61: syntax: uncertain(...) argument 'Z' given twice", 1),
    ("var x; min: x; c: x >= 1 rhs_uncertain(P=[[1]], Z=ball(p=2, r=1), P=[[2]]);",
     "1:67: syntax: rhs_uncertain(...) argument 'P' given twice", 1),
    ("var x; min: x; c: x <= 1 uncertain(Z=ball(p=2, r=1, r=2));",
     "1:53: syntax: ball(...) argument 'r' given twice", 1),
    ("var x; min: x; c: x <= 1 uncertain(Z=ball(p=2));",
     "1:38: syntax: ball(...) needs p=<number> and r=<number>", 4),
    # `Constraint` rejects an adaptive equality; the parser places it at the row
    ("var x; adaptive var y rule=linear; min: x; c: x + y = 1;",
     "1:44: syntax: row c: adaptive equalities are not representable", 1),
    # the first error in the source is the one reported: a repeated name fails
    # at the name, a row at its `;`, a bad character only once it is reached
    ("var x; var x >= ;", "1:12: syntax: variable 'x' declared twice", 1),
    ("var x>=0; min: x; c: x <= 1; c: x <= ;", "1:30: syntax: constraint 'c' declared twice", 1),
    ("var x>=0; adaptive var y >= 0 rule=linear; min: x; c: x + y = 1; d: x <= ;",
     "1:52: syntax: row c: adaptive equalities are not representable", 1),
    ("min: x x;\nc: x ? 1;", "1:8: syntax: expected ';', found 'x'", 1),
    # a byte that is not UTF-8, as `surrogateescape` decodes it, even in a comment
    ("min: x; # caf\udce9", "1:14: lex: invalid UTF-8 byte 0xe9", 1),
]


@pytest.mark.parametrize("source, text, length", DIAGNOSTICS)
def test_diagnostic_text_and_span(source, text, length):
    with pytest.raises(ParseError) as exc:
        roc.parse_model(source)
    assert str(exc.value) == text
    assert exc.value.span.length == length


def test_diagnostic_cli_line(tmp_path, capsys):
    path = tmp_path / "bad.roc"
    path.write_text("min: x;\n\tc: x ? 1;\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}:2:7: lex: unexpected character '?'\n"


# number bodies a list entry can take, each with or without a sign
LITERAL_BODIES = ["٣", ".5", "1.", "0", "2", "1e-3", "1E+2", "1e400"]
SEPARATORS = [",", ", ", " ,\n\t", "\r\n,  "]


def matrix_source(entries, sep) -> str:
    rows = ", ".join("[" + sep.join(entries_row) + "]" for entries_row in entries)
    names = [f"x{i + 1}" for i in range(len(entries))]
    return (f"min: x1;\nc: {' + '.join(names)} <= 1 "
            f"uncertain(on=[{', '.join(names)}], P=[{rows}], Z=ball(p=2, r=1));")


def parsed_P(source) -> np.ndarray:
    return roc.parse_model(source).constraints[0].uncertainty.P


def assert_rejected_at(source, literal):
    """Parsing fails at the first `literal` of `source`, a non-finite set entry."""
    with pytest.raises(ParseError) as exc:
        roc.parse_model(source)
    offset = source.index(literal)
    line, column = source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)
    assert str(exc.value) == f"{line}:{column}: dimension: set data must be finite, found {literal!r}"
    assert exc.value.span.length == len(literal)


def test_number_lists_read_each_literal():
    # a matrix of signed numbers is one token; each entry reads as sign * float(body),
    # and written so that it lexes element by element it reads the same; an
    # entry that overflows to inf is rejected at its literal on every path
    rng = random.Random(14)
    forms = [("", b) for b in LITERAL_BODIES] + [("-", "0"), ("+", "2")]
    for trial in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        if trial == 0:  # every form once
            rows, cols = 2, 5
            cells = forms
        else:
            cells = [(rng.choice(["", "-", "+"]), rng.choice(LITERAL_BODIES))
                     for _ in range(rows * cols)]
        cells = [cells[r * cols:(r + 1) * cols] for r in range(rows)]
        expected = np.array([[(-1.0 if sign == "-" else 1.0) * float(body) for sign, body in row]
                             for row in cells]) + 0.0
        sep = rng.choice(SEPARATORS)
        fast = matrix_source([[sign + body for sign, body in row] for row in cells], sep)
        assert [t.kind for t in _tokenize(fast)].count("matrix") == 1
        commented = fast.replace("P=[[", "P=[[# a comment\n", 1)
        detached = matrix_source([[f"{sign or '+'} {body}" for sign, body in row] for row in cells],
                                 sep)
        with_inf = matrix_source([["inf", *(s + b for s, b in row[1:])] if r == 0
                                  else [s + b for s, b in row] for r, row in enumerate(cells)], sep)
        for slow in (commented, detached):
            assert [t.kind for t in _tokenize(slow)].count("numbers") < rows
        if np.isfinite(expected).all():
            P = parsed_P(fast)
            assert np.array_equal(P, expected)
            assert not np.signbit(P[P == 0.0]).any()  # -0 is stored as 0.0
            assert np.array_equal(parsed_P(commented), expected)
            assert np.array_equal(parsed_P(detached), expected)
        else:
            for source in (fast, commented, detached):
                assert_rejected_at(source, "1e400")
        assert_rejected_at(with_inf, "inf")


# the first seed-1 draw of the benchmark's `cone` family: the family itself
# picks its models by difficulty, which needs the scipy reference solves
CONE_MODEL = "# cone\n" + "".join(f"var x{i} >= 0 <= 10;\n" for i in range(1, 6)) + (
    "max: 2.04*x1 + 2.19*x2 + 4.25*x3 + 1.36*x4 + 3.42*x5;\n"
    "c1: 3.88*x1 + 1.74*x2 + 1.23*x3 + 2.11*x4 + 3.61*x5 <= 78.14"
    " uncertain(on=[x1, x2, x3, x4, x5], Z=ball(p=2, r=1, dim=5));\n"
    "c2: 1.62*x1 + 2.75*x2 + 3.66*x3 + 2.67*x4 + 3.51*x5 <= 98.22"
    " uncertain(on=[x1, x2, x3, x4, x5], Z=ball(p=2, r=1, dim=5));\n")


def benchmark_models() -> list[str]:
    """One seed-1 model of each benchmark family, through perfbench/gen.py's
    public family functions (`cone` as text, above)."""
    path = FIXTURES.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    families = (gen.signrow, gen.twostage, gen.compile_family)
    return [gen.roc_text(family(1)[0]) for family in families] + [CONE_MODEL]


def lexer_sources() -> list[str]:
    """Every fixture and benchmark model as written and with a seeded sign
    attached to each number that opens a statement or follows a sign
    (`min: -2*x -3*y +4*z`), 300 seeded mutations of these and hand-written
    edge cases."""
    rng = random.Random(16)
    texts = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.roc"))] + benchmark_models()
    texts += [re.sub(r"(?<=: )(?=[\d.])|[+-] (?=[\d.])", lambda _: rng.choice("+-"), text)
              for text in texts]
    return texts + [mutate(rng, rng.choice(texts)) for _ in range(300)] + [
        "min: 2*x² + 3*é - 4*y½;", "min: 2 * x - 3*²x;", "min: x - 1*½;",
        "min: 2*x # c\n+ 3*y - 1e5*inf +4*var;",
        "min: -2*x -3*y +4*z;", "min: 2*x\t-\t3*y +\n4*z-5*x+ 1*y;",
        "var x1; var x2; min: x1; c: -1*x1 -2*x2 <= 3;",
        "min: x; c: x <= 1 uncertain(on=[x, é], Z=ball(p=2, r=1));",
        "min: x; c: x <= 1 uncertain(on=[x, ²y], Z=ball(p=2, r=1));",
        "min: x; c: x <= 1 uncertain(on=[x,\tinf], P=[[1, -2], [٣, .5]],"
        " Z=poly(D=[[1],[-1]], d=[1e400, + 1]));",
    ]


def element_tokens(source):
    """Element-by-element lexing: the `(kind, text, offset)` tokens before the
    first bad one, and that one's offset (None if there is none)."""
    out = []
    for m in _lexer(False).finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "bad" or kind == "ident" and not text[0].isalpha():
            return out, m.start()
        if kind != "skip":
            out.append((kind, text, m.start()))
    return out, None


def test_compounds_split_into_element_tokens():
    # the invariant the diagnostics rest on: splitting every compound token
    # gives exactly the tokens that element-by-element lexing gives
    compounds = 0
    for source in lexer_sources():
        expected, bad = element_tokens(source)
        if bad is not None:
            last = _tokenize(source)[-1]
            assert (last.kind, last.offset) == ("bad", bad)
            continue
        parser = _Parser(source)
        compounds += sum(t.kind in ("terms", "idents", "matrix", "numbers") for t in parser.tokens)
        while parser.peek().kind != "eof":  # peek() splits every compound it meets
            parser.next()
        assert [tuple(t) for t in parser.tokens[:-1]] == expected
    assert compounds > 1000


def parse_outcome(source):
    """The model JSON that `source` parses to, or its ParseError and span length."""
    try:
        return roc.emit_json(roc.parse_model(source))
    except ParseError as exc:
        return str(exc), exc.span.length


def test_compounds_read_like_elements(monkeypatch):
    # each compound's reader gives the model, or the error, that reading it
    # element by element gives
    sources = lexer_sources()
    fast = [parse_outcome(source) for source in sources]
    monkeypatch.setattr(roc.parser, "_TOKEN", _lexer(False))
    assert [parse_outcome(source) for source in sources] == fast


FINITE = "coefficients and constants must be finite, found "

# (source, the literal or term the error points at, which occurs once, message)
NON_FINITE_EXPRESSIONS = [
    ("min: 2*x + 1e400*y;", "1e400", FINITE + "'1e400'"),
    ("min: 2*x # a comment splits the run\n + 1e400*y;", "1e400", FINITE + "'1e400'"),
    ("min: x; c: -1e400*x <= 1;", "1e400", FINITE + "'1e400'"),
    ("min: x; c: 2*x - 1e400 <= 1;", "1e400", FINITE + "'1e400'"),
    ("min: x; c: 2*x <= 1e400 - 3*y;", "1e400", FINITE + "'1e400'"),
    ("min: 1e308*x + 2*y - 1e308*x - 1.0e308*x - 1.00e308*x;", "1.00e308*x",
     "the coefficient of 'x' overflows at this term"),
    ("min: x; c: 2*x + 1e308*y\n + 1.5e308*y <= 1;", "1.5e308*y",
     "the coefficient of 'y' overflows at this term"),
    ("min: x; c: 2*x + 1e308 + 1.5e308 >= 0;", "1.5e308", "the constant overflows at this term"),
    ("min: x; c: 1e308*x >= 2*y - 1.5e308*x;", "1.5e308*x",
     "the coefficient of 'x' overflows as the right side moves left"),
    ("min: x; c: 1e308*x >= -1.5e308*x + 5*x - 5.0*x;", "5.0*x",
     "the coefficient of 'x' overflows as the right side moves left"),
    ("min: x; c: x + 1e308 <= -1.5e308;", "1.5e308",
     "the constant overflows as the right side moves left"),
]


@pytest.mark.parametrize("source, at, message", NON_FINITE_EXPRESSIONS)
def test_non_finite_expression_data_located(monkeypatch, source, at, message):
    offset = source.index(at)
    line, column = source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)
    for lexer in (_lexer(True), _lexer(False)):  # compound runs, then term by term
        monkeypatch.setattr(roc.parser, "_TOKEN", lexer)
        with pytest.raises(ParseError) as exc:
            roc.parse_model(source)
        assert str(exc.value) == f"{line}:{column}: dimension: {message}"
        assert exc.value.span.length == len(at)


def test_large_finite_expressions_and_infinite_bounds_parse():
    # a sum over different variables may overflow; only a coefficient may not
    model = roc.parse_model("var x <= 1e400; min: 1e308*x + 1e308*y - 1e308*z; c: x >= -1e308 + y;")
    assert model.objective == LinExpr.of({"x": 1e308, "y": 1e308, "z": -1e308})
    assert model.vars[0].upper == math.inf
    assert model.constraints[0].rhs == -1e308


def test_attached_signs_after_spaces():
    # a sign attached to its number after a space belongs to that term alone
    m = roc.parse_model("var x1; var x2; min: -2*x -3*y +4*z; c: -1*x1 -2*x2 <= 3;")
    assert [t.kind for t in _tokenize("min: -2*x -3*y +4*z;")].count("terms") == 1
    assert m.objective.terms == (("x", -2.0), ("y", -3.0), ("z", 4.0))
    assert m.constraints[0].lhs == roc.LinExpr.of({"x1": -1.0, "x2": -2.0})


def test_term_runs_add_like_the_sequential_sum():
    # a run of `c*x` terms adds each term into the dict in source order, as
    # term-by-term parsing does, whether each sign stands apart from its number,
    # is attached to it or is spaced at random; the same sum written so that it
    # leaves the run (a comment, a sign before a comment, a bare name) reads the same
    rng = random.Random(16)
    bodies = ["3", "0.25", "1.", ".5", "2e-3", "1E+2", "٣", "7.125e1", "1"]
    for _ in range(30):
        terms = [(rng.choice("+-"), rng.choice(bodies), f"x{rng.randint(1, 12)}")
                 for _ in range(rng.randint(50, 150))]
        coeffs: dict[str, float] = {}
        for sign, body, name in terms:
            coeffs[name] = coeffs.get(name, 0.0) + (-1.0 if sign == "-" else 1.0) * float(body)
        expected = roc.LinExpr.of(coeffs)

        def text(write):
            return " ".join(write(k, *term) for k, term in enumerate(terms))
        cut, note = rng.randrange(1, len(terms)), "# c\n"
        forms = {
            "run": text(lambda k, s, b, x: f"{'' if k == 0 and s == '+' else s} {b}*{x}"),
            "attached": text(lambda k, s, b, x: f"{'' if k == 0 and s == '+' else s}{b}*{x}"),
            "tight": "".join(f"{s}{rng.choice(['', ' ', chr(9), chr(10)])}{b}*{x}"
                             for s, b, x in terms),
            "comment": text(lambda k, s, b, x: f"{note if k == cut else ''}{s} {b}*{x}"),
            "sign": text(lambda k, s, b, x: f"{s} {note if k == cut else ''}{b}*{x}"),
            "bare": text(lambda k, s, b, x: f"{s} {x if b == '1' else b + '*' + x}"),
        }
        for form, sum_text in forms.items():
            source = f"min: {sum_text};"
            if form in ("run", "attached", "tight"):
                assert [t.kind for t in _tokenize(source)].count("terms") == 1
            assert roc.parse_model(source).objective.terms == expected.terms, form


class TestParseUncertaintySpec:
    def test_ball(self):
        s = roc.parse_uncertainty_spec("ball(p=1, r=0.5, dim=3)")
        assert s == roc.NormBall(1.0, 0.5, 3)

    def test_poly_box_bounded_contains_zero(self):
        s = roc.parse_uncertainty_spec("poly(D=[[1,0],[-1,0],[0,1],[0,-1]], d=[1,1,1,1])")
        assert isinstance(s, roc.Polyhedral)
        lo, hi, _ = roc.solver.coordinate_extremes(s)
        assert np.allclose(lo, [-1.0, -1.0])
        assert np.allclose(hi, [1.0, 1.0])

    def test_intersection_members(self):
        s = roc.parse_uncertainty_spec("intersect(ball(p=2,r=1,dim=2), ball(p=inf,r=0.5,dim=2))")
        assert isinstance(s, roc.Intersection)
        assert len(s.members) == 2

    def test_unbounded_poly_rejected(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_uncertainty_spec("poly(D=[[1,0],[0,1]], d=[1,1])")
        assert exc.value.kind == "unbounded-set"

    def test_repeated_poly_validated_once(self, monkeypatch):
        calls = []
        solve = roc.solver._LP.solve  # one call per polytope LP
        monkeypatch.setattr(roc.solver._LP, "solve",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        box = "poly(D=[[1,0],[-1,0],[0,1],[0,-1]], d=[1,1,1,1])"
        rows = "".join(f"c{i}: x1 + x2 <= 10 uncertain(Z={box});" for i in range(4))
        m = roc.parse_model("max: x1 + x2;" + rows)
        assert len(m.constraints) == 4
        assert len(calls) == 4  # 2L coordinate LPs for the one distinct set
        sets = {id(row.uncertainty.uset) for row in m.constraints}
        assert len(sets) == 1  # one instance, whose stress points reuse the extremes
        roc.stress_points(m.constraints[0].uncertainty.uset)
        assert len(calls) == 4
        calls.clear()
        roc.parse_model("max: x1 + x2;" + rows)
        assert len(calls) == 4  # separate parses share nothing

    def test_repeated_unbounded_poly_fails_at_first_clause(self):
        rows = "".join(f"c{i}: x1 + x2 <= 10 uncertain(Z=poly(D=[[1,0],[0,1]], d=[1,1]));\n"
                       for i in range(3))
        with pytest.raises(ParseError) as exc:
            roc.parse_model("max: x1 + x2;\n" + rows)
        assert exc.value.kind == "unbounded-set"
        assert exc.value.span.line == 2

    def test_zero_not_contained_rejected(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_uncertainty_spec("poly(D=[[1],[-1]], d=[1,-0.5])")
        assert "contain 0" in exc.value.message

    def test_ragged_matrix(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_uncertainty_spec("poly(D=[[1,0],[1]], d=[1,1])")
        assert exc.value.kind == "dimension"

    def test_minkowski(self):
        s = roc.parse_uncertainty_spec("minkowski(ball(p=2,r=1,dim=2), ball(p=inf,r=0.5,dim=2))")
        assert isinstance(s, roc.MinkowskiSum)

    def test_nested(self):
        s = roc.parse_uncertainty_spec(
            "intersect(minkowski(ball(p=2,r=1,dim=2), ball(p=1,r=0.5,dim=2)), ball(p=inf,r=2,dim=2))")
        assert isinstance(s, roc.Intersection)
        assert isinstance(s.members[0], roc.MinkowskiSum)

    def test_ball_without_dim_rejected_standalone(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_uncertainty_spec("ball(p=2, r=1)")
        assert exc.value.kind == "dimension"

    def test_ball_without_dim_located_at_ball(self):
        with pytest.raises(ParseError) as exc:
            roc.parse_uncertainty_spec("# set\nball(p=2, r=1)")
        assert str(exc.value) == "2:1: dimension: ball needs dim= when used outside a constraint"
        assert exc.value.span.length == 4


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.roc")
                                            if p.name != "bad_equality.roc"))
    def test_fixture_round_trips(self, name):
        model = roc.parse_model(fixture_text(name))
        again = roc.model_from_json(roc.emit_json(model))
        assert again == model


# pieces a mutation inserts or swaps in: layout, non-ASCII, bad numbers,
# punctuation and set arguments outside their ranges
MUTATION_PIECES = ["\t", "\r\n", "\f", "# c\n", "é", "٣", "²", "½", "<", "1.2.3", "1e", ".5",
                   "-", "0", "-0", "inf", "1e400", ",", ";", "(", ")", "[", "]", "=", "*", "\n",
                   "x", "_", "dim=", ", dim=2.5", "p=0.5", "r=-1", ".", "2", "<=", "-inf"]


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + rng.choice(MUTATION_PIECES) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 5):]
        elif op == 2:
            text = text[:i] + rng.choice(MUTATION_PIECES) + text[i + 1:]
        elif op == 3:
            j = min(len(text), i + rng.randint(1, 30))
            text = text[:j] + text[i:j] + text[j:]
        elif op == 4:
            text = text[:i]
        else:  # a digit becomes a number out of range for some argument
            digits = [k for k, ch in enumerate(text) if ch.isdigit()] or [0]
            k = rng.choice(digits)
            text = text[:k] + rng.choice(["0", "-0", "0.5", "-1", "2.5", "inf", "1e400"]) + text[k + 1:]
    return text


def test_mutated_fixtures_parse_or_raise_parse_error():
    # every input either parses or fails with a located ParseError: no
    # ModelError, OverflowError or other exception escapes the parser
    texts = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.roc"))]
    rng = random.Random(8)
    for _ in range(1000):
        source = mutate(rng, rng.choice(texts))
        try:
            assert isinstance(roc.parse_model(source), roc.Model)
        except ParseError:
            pass


# pieces that break an argument list: a bare or missing key, a repeated
# argument, a swapped `key=value` pair (the last piece stands for the swap)
ARGUMENT_PIECES = ["p=", "D=", "r=", "Z=", ", Z=ball(p=2, r=1)", ", P=[[1]]", ", on=[x1]",
                   ", dim=1", ", d=[1]", "SWAP"]
# the `key=value` pairs of clause lists, and those of set lists
_VALUE = r"\s*(?:\[(?:[^][]|\[[^][]*\])*\]|\w+\((?:[^()]|\([^()]*\))*\)|[^,()\s]+)"
ARGUMENTS = [re.compile(rf"\b(?:on|P|Z)={_VALUE}"), re.compile(rf"\b(?:p|r|dim|D|d)={_VALUE}")]


def mutate_arguments(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        piece = rng.choice(ARGUMENT_PIECES)
        pairs = [list(pattern.finditer(text)) for pattern in ARGUMENTS]
        if piece == "SWAP":
            siblings = [(a, b) for found in pairs for a, b in zip(found, found[1:])
                        if text[a.end():b.start()].strip() == ","]
            if siblings:
                a, b = rng.choice(siblings)
                text = (text[:a.start()] + b.group() + text[a.end():b.start()] + a.group()
                        + text[b.end():])
        else:  # at the start or end of an argument, else anywhere
            spots = [i for found in pairs for m in found for i in m.span()]
            i = rng.choice(spots) if spots else rng.randrange(len(text) + 1)
            text = text[:i] + piece + text[i:]
    return text


def test_mutated_argument_lists_parse_or_raise_parse_error():
    # an argument list that repeats, reorders, drops or adds a key either
    # parses or fails with a ParseError located inside the source
    texts = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.roc"))]
    rng = random.Random(22)
    for _ in range(1000):
        source = mutate_arguments(rng, rng.choice(texts))
        try:
            assert isinstance(roc.parse_model(source), roc.Model)
        except ParseError as exc:
            lines = source.split("\n")
            assert 1 <= exc.span.line <= len(lines)
            assert 1 <= exc.span.column <= len(lines[exc.span.line - 1]) + 1
