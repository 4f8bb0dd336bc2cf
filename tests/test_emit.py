"""Emitters: golden LP/JSON files, determinism, round trips."""
import json
import math
import random

import pytest

import roc
from roc import LinExpr
from roc.lower import NormRow

from support import FIXTURES, fixture_text, full_pipeline


def nominal_ex1_lowered():
    src = fixture_text("ex1.roc").replace("r=0.1", "r=0")
    return full_pipeline(src)[4]


class TestEmitLp:
    def test_golden_nominal_example1(self):
        text = roc.emit_lp(nominal_ex1_lowered())
        assert text == (FIXTURES / "ex1_nominal.lp").read_text()

    def test_empty_model(self):
        det = roc.DeterministicModel(vars=(), objective=LinExpr(), linear_rows=())
        assert roc.emit_lp(det) == "Minimize\n obj: 0\nSubject To\nEnd\n"

    def test_soc_without_flag_rejected(self):
        det = full_pipeline(fixture_text("ex1.roc"))[4]
        assert det.soc_rows
        with pytest.raises(roc.LoweringError) as exc:
            roc.emit_lp(det)
        assert det.soc_rows[0].t in str(exc.value)

    def test_soc_comment_flag(self):
        det = full_pipeline(fixture_text("ex1.roc"))[4]
        text = roc.emit_lp(det, allow_soc_comment=True)
        assert "\\ soc: " in text

    def test_bit_identical_across_runs(self):
        a = roc.emit_lp(full_pipeline(fixture_text("ex1.roc"))[4], allow_soc_comment=True)
        b = roc.emit_lp(full_pipeline(fixture_text("ex1.roc"))[4], allow_soc_comment=True)
        assert a == b

    def test_equality_rows_stay_equalities(self):
        det = full_pipeline(fixture_text("intersect.roc"))[4]
        text = roc.emit_lp(det, allow_soc_comment=True)
        assert " = 0" in text  # splitter coupling rows keep their sense

    def test_bounds_section(self):
        det = roc.DeterministicModel(
            vars=(roc.VariableDecl("a", lower=0.0),
                  roc.VariableDecl("b"),
                  roc.VariableDecl("c", lower=1.0, upper=1.0),
                  roc.VariableDecl("d", lower=-2.0, upper=3.0)),
            objective=LinExpr.of({"a": 1.0}),
            linear_rows=())
        text = roc.emit_lp(det)
        assert " 0 <= a" in text
        assert " b free" in text
        assert " c = 1" in text
        assert " -2 <= d <= 3" in text


    def test_numerals_match_one_format_per_occurrence(self):
        # oracle: every coefficient formatted where it occurs, as emit_lp did
        # before it kept one text per value
        def num(x):
            return f"{x + 0.0:.17g}"

        def text(expr):
            parts = [f"{'+' if c >= 0 else '-'}{num(abs(c))} {v}" for v, c in expr.terms]
            if expr.constant != 0.0 or not parts:
                parts.append(f"{'+' if expr.constant >= 0 else '-'}{num(abs(expr.constant))}")
            return " ".join(parts).removeprefix("+")

        base = [0.1, 1 / 3, 2.675, 1.0, 0.5, 1e-300, 1e300, 123456.789]
        values = base + [math.nextafter(v, math.inf) for v in base]  # the 17th digit differs
        values += [-v for v in values]
        rng = random.Random(18)
        rows = []
        for i in range(60):
            names = rng.sample(["X1", "_t1", "a", "b", "x1", "y"], rng.randint(1, 6))
            terms = tuple(sorted((v, rng.choice(values)) for v in names))
            if i % 10 == 0:  # zero terms, which only a direct LinExpr keeps
                terms = tuple(sorted(dict(terms, zp=0.0, zn=-0.0).items()))
            rows.append(roc.Constraint(f"r{i}", LinExpr(terms), rng.choice(["<=", "="]),
                                       rng.choice(values + [0.0, -0.0])))
        objective = LinExpr((("a", values[1]), ("b", -values[1])), rng.choice(values))
        soc = NormRow(2.0, "_t1", (LinExpr((("a", -values[9]),)), LinExpr((), -0.0)))
        det = roc.DeterministicModel(vars=(), objective=objective, linear_rows=tuple(rows),
                                     soc_rows=(soc,))
        expected = "".join([
            f"Minimize\n obj: {text(objective)}\nSubject To\n",
            *(f" {r.id}: {text(r.lhs)} {r.sense} {num(r.rhs)}\n" for r in rows),
            f"\\ soc: _t1 >= || {' , '.join(text(e) for e in soc.arg)} ||_2\nEnd\n"])
        assert roc.emit_lp(det, allow_soc_comment=True) == expected
        assert "-1 " in expected and "+1 " in expected and "+0 zn" in expected


class TestEmitJson:
    def test_model_round_trip(self):
        model = roc.parse_model(fixture_text("cover2.roc"))
        assert roc.model_from_json(roc.emit_json(model)) == model

    def test_diet_golden(self):
        model = roc.parse_model(fixture_text("diet.roc"))
        assert roc.emit_json(model) == (FIXTURES / "diet_model.json").read_text()

    def test_schema_stamp_everywhere(self):
        model, pre, post, rcm, det = full_pipeline(fixture_text("ex1.roc"))
        sol = roc.solve_deterministic(det)
        rep = roc.verify_solution(pre, sol, n=50, seed=1, ldr=post.ldr)
        for obj in (model, pre, rcm, det, sol, rep):
            dump = json.loads(roc.emit_json(obj))
            assert dump["roc_schema"] == 1
            assert "kind" in dump

    def test_canonical_vs_raw_dump_differences(self):
        src = "var x >= 1; max: 3*x uncertain(Z=ball(p=2, r=0.5));"
        model = roc.parse_model(src)
        raw = json.loads(roc.emit_json(model))
        canon = json.loads(roc.emit_json(roc.canonicalize(model)))
        assert raw["kind"] == "model" and canon["kind"] == "canonical"
        assert raw["objective_sense"] == "max"
        assert "objective_sense" not in canon  # canonical form is always min
        assert raw["objective_uncertainty"] is not None
        # epigraph variable and row appear only in the canonical dump
        assert any(v["id"] == "_t" for v in canon["vars"])
        assert any(r["id"] == "_obj_epi" for r in canon["rows"])
        assert all(r["sense"] == "<=" for r in canon["rows"])

    def test_deterministic_serialization(self):
        model = roc.parse_model(fixture_text("intersect.roc"))
        assert roc.emit_json(model) == roc.emit_json(roc.parse_model(fixture_text("intersect.roc")))

    def test_infeasible_solution_serializes(self):
        sol = roc.Solution("infeasible", float("nan"), {}, 3)
        dump = json.loads(roc.emit_json(sol))
        assert dump["objective"] is None
        assert dump["status"] == "infeasible"

    def test_from_json_rejects_non_finite_set_data(self):
        # a p = inf ball and an unbounded variable load; an infinite radius or
        # entry of P is rejected as the parser rejects it in .roc text
        src = "var x >= 0; max: x; c: 2*x <= 1 uncertain(on=[x], P=[[3]], Z=ball(p=inf, r=1, dim=1));"
        model = roc.parse_model(src)
        dump = roc.emit_json(model)
        assert roc.model_from_json(dump) == model
        for finite, infinite in (('"r": 1.0', '"r": Infinity'), ("3.0", "Infinity")):
            assert dump.count(finite) == 1
            with pytest.raises(roc.DimensionError, match="must be finite"):
                roc.model_from_json(dump.replace(finite, infinite))

    def test_from_json_rejects_fractional_ball_dim(self):
        # regression: a "dim" of 2.5 loaded as 2, where the parser rejects dim=2.5;
        # an integral float loads as the integer
        src = "min: x + y; c: x + y <= 1 uncertain(Z=ball(p=2, r=1, dim=2));"
        model = roc.parse_model(src)
        dump = roc.emit_json(model)
        assert dump.count('"dim": 2') == 1
        assert roc.model_from_json(dump.replace('"dim": 2', '"dim": 2.0')) == model
        with pytest.raises(roc.DimensionError,
                           match="^norm ball: dimension must be an integer, got 2.5$"):
            roc.model_from_json(dump.replace('"dim": 2', '"dim": 2.5'))

    @pytest.mark.parametrize("mutate, escaped", [
        (lambda d: d["constraints"][0]["uncertainty"]["set"].update(dim=None), "TypeError"),
        (lambda d: d["constraints"][0]["uncertainty"]["set"].pop("r"), "KeyError"),
        (lambda d: d.pop("vars"), "KeyError"),
        (lambda d: d["vars"][0].update(lower="minus"), "ValueError"),
        (lambda d: d["constraints"][0]["lhs"].update(terms=[1, 2]), "AttributeError"),
    ], ids=["dim-null", "r-missing", "vars-missing", "lower-text", "terms-list"])
    def test_from_json_malformed_dump_is_model_error(self, mutate, escaped):
        # regression: each escaped as a bare Python exception
        d = json.loads(roc.emit_json(roc.parse_model(fixture_text("ex1.roc"))))
        mutate(d)
        with pytest.raises(roc.ModelError, match=f"^malformed model dump: {escaped}: "):
            roc.model_from_json(json.dumps(d))

    def test_from_json_rejects_non_finite_expressions(self):
        # as the parser rejects them in .roc text; variable bounds may be infinite
        dump = roc.emit_json(roc.parse_model("var x >= 0; min: 3*x + 2; c: x + y >= 1;"))
        assert roc.model_from_json(dump).vars[0].upper == math.inf
        for finite, infinite in (('"x": 3.0', '"x": Infinity'), ('"constant": 2.0', '"constant": NaN'),
                                 ('"y": 1.0', '"y": -Infinity'), ('"rhs": 1.0', '"rhs": Infinity')):
            assert dump.count(finite) == 1
            with pytest.raises(roc.DimensionError, match="must be finite"):
                roc.model_from_json(dump.replace(finite, infinite))

    def test_from_json_rejects_polytope_without_zero(self):
        # regression: the dump loaded, and the two solve methods disagreed
        # on it (4.0 against 2.0): only the parser required 0 in the set
        src = ("var x >= 0 <= 10; max: x; "
               "c: x <= 2 uncertain(on=[x], P=[[1]], Z=poly(D=[[1],[-1]], d=[1, 1]));")
        d = json.loads(roc.emit_json(roc.parse_model(src)))
        d["constraints"][0]["uncertainty"]["set"]["d"] = [-0.5, 1.0]  # z in [-1, -0.5]
        with pytest.raises(roc.ModelError, match="contain 0"):
            roc.model_from_json(json.dumps(d))

    def test_from_json_rejects_other_kinds(self):
        pre = roc.canonicalize(roc.parse_model("min: x; c: x >= 1;"))
        with pytest.raises(roc.ModelError):
            roc.model_from_json(roc.emit_json(pre))
        with pytest.raises(roc.ModelError):
            roc.model_from_json('{"roc_schema": 99, "kind": "model"}')
        for text in ("[1]", "{"):  # not an object; not JSON
            with pytest.raises(roc.ModelError, match="^malformed model dump: "):
                roc.model_from_json(text)
