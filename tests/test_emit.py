"""Emitters: golden LP/JSON files, determinism, round trips."""
import json

import pytest

import roc
from roc import LinExpr

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

    def test_from_json_rejects_other_kinds(self):
        pre = roc.canonicalize(roc.parse_model("min: x; c: x >= 1;"))
        with pytest.raises(roc.ModelError):
            roc.model_from_json(roc.emit_json(pre))
        with pytest.raises(roc.ModelError):
            roc.model_from_json('{"roc_schema": 99, "kind": "model"}')
