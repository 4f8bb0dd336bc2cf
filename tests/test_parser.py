"""DSL parsing: grammar coverage, error spans, set validation."""
import math

import numpy as np
import pytest

import roc
from roc.parser import ParseError

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
        solve = roc.solver.simplex_solve
        monkeypatch.setattr(roc.solver, "simplex_solve",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        box = "poly(D=[[1,0],[-1,0],[0,1],[0,-1]], d=[1,1,1,1])"
        rows = "".join(f"c{i}: x1 + x2 <= 10 uncertain(Z={box});" for i in range(4))
        m = roc.parse_model("max: x1 + x2;" + rows)
        assert len(m.constraints) == 4
        assert len(calls) == 4  # 2L coordinate LPs for the one distinct set
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


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.roc")
                                            if p.name != "bad_equality.roc"))
    def test_fixture_round_trips(self, name):
        model = roc.parse_model(fixture_text(name))
        again = roc.model_from_json(roc.emit_json(model))
        assert again == model
