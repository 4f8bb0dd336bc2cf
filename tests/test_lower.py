"""Norm lowering: aux-variable counts, sign rows, norm rows."""
import math

import numpy as np

import roc
from roc import LinExpr

from support import fixture_text, full_pipeline, rel_close

INF = math.inf


def rc_single_row(uset, coeffs, rhs, bounds=(0.0, INF)):
    names = sorted(coeffs)
    row = roc.Constraint(
        "c", LinExpr.of(coeffs), "<=", rhs,
        uncertainty=roc.UncertainBlock(tuple(names), np.eye(len(names)), uset))
    return roc.CanonicalModel(
        vars=tuple(roc.VariableDecl(v, lower=bounds[0], upper=bounds[1]) for v in names),
        objective=LinExpr.of({names[0]: -1.0}),
        rows=(row,))


class TestLowering:
    def test_example1_inf_ball_sign_rows(self):
        # q=1 lowering of the capacity row: 4 aux vars, 8 sign rows
        _, _, _, rcm, det = full_pipeline(fixture_text("ex1.roc"))
        c2_sign_rows = [r for r in det.linear_rows if r.id.startswith("c2_a")]
        assert len(c2_sign_rows) == 8
        c2 = next(r for r in det.linear_rows if r.id == "c2")
        t_ids = [v for v in c2.lhs.vars() if v.startswith("_t")]
        assert len(t_ids) == 4
        assert all(c2.lhs.coeff(t) == 0.1 for t in t_ids)

    def test_zero_weight_pruned(self):
        cm = rc_single_row(roc.NormBall(2.0, 0.0, 1), {"x": 1.0}, 1.0)
        det = roc.lower_norms(roc.robustify_model(cm))
        assert len(det.vars) == 1  # no aux variables
        assert len(det.linear_rows) == 1
        assert not det.soc_rows

    def test_three_four_five(self):
        # t >= ||(x1, x2 + shift)||_q at x = (3, 4)
        for q, shift, expected in ((2.0, 0.0, 5.0), (3.0, 1.0, 152.0 ** (1 / 3))):
            det = roc.DeterministicModel(
                vars=(roc.VariableDecl("x1", lower=3.0, upper=3.0),
                      roc.VariableDecl("x2", lower=4.0, upper=4.0),
                      roc.VariableDecl("t", lower=0.0)),
                objective=LinExpr.of({"t": 1.0}),
                linear_rows=(),
                soc_rows=(roc.NormRow(q, "t", (LinExpr.of({"x1": 1.0}),
                                               LinExpr.of({"x2": 1.0}, shift))),))
            sol = roc.solve_deterministic(det)
            assert sol.status == "optimal"
            assert abs(sol.values["t"] - expected) < 1e-7, q

    def test_new_variable_count(self):
        # one q=1 term of length L, one q=inf term, one q=2 term
        fixtures = {
            "ex1.roc": 4 + 1,          # q1 over 4 coords + one cone t
            "diet.roc": 1,             # 1-ball -> q=inf -> single t
            "intersect.roc": 4 + 1 + 1,  # 2 splitters x 2 coords + cone t + q1... see below
        }
        _, _, _, rcm, det = full_pipeline(fixture_text("ex1.roc"))
        assert len(det.vars) - len(rcm.vars) == fixtures["ex1.roc"]
        _, _, _, rcm, det = full_pipeline(fixture_text("diet.roc"))
        assert len(det.vars) - len(rcm.vars) == fixtures["diet.roc"]
        _, _, _, rcm, det = full_pipeline(fixture_text("intersect.roc"))
        # rc vars already include the splitters; lowering adds cone t (q=2)
        # plus 2 sign vars for the q=1 term over the 2 splitter coords
        assert len(det.vars) - len(rcm.vars) == 1 + 2

    def test_general_q_lowers_to_one_norm_row(self):
        # a 3-ball contributes a 1.5-norm: one norm row and no sign rows
        cm = rc_single_row(roc.NormBall(3.0, 0.5, 2), {"x": 1.0, "y": 2.0}, 1.0)
        det = roc.lower_norms(roc.robustify_model(cm))
        assert [(row.q, len(row.arg)) for row in det.soc_rows] == [(1.5, 2)]
        assert [row.id for row in det.linear_rows] == ["c"]
        assert det.linear_rows[0].lhs.coeff(det.soc_rows[0].t) == 0.5
        ref = roc.solve_deterministic(det)
        cut = roc.cutting_plane_solve(cm)
        assert ref.status == cut.status == "optimal"
        assert rel_close(ref.objective, cut.objective, 1e-6)

    def test_compound_argument_rows(self):
        # |2x - y| lowering keeps the compound expression in both sign rows
        rcm = roc.RcModel(
            vars=(roc.VariableDecl("x"), roc.VariableDecl("y")),
            objective=LinExpr.of({"x": 1.0}),
            rows=(roc.Constraint("c", LinExpr.of({"x": 1.0}), "<=", 3.0, norm_terms=(
                roc.NormTerm(1.0, 1.0, (LinExpr.of({"x": 2.0, "y": -1.0}),)),)),))
        det = roc.lower_norms(rcm)
        plus = next(r for r in det.linear_rows if r.id == "c_a1_1p")
        minus = next(r for r in det.linear_rows if r.id == "c_a1_1n")
        t = next(v.id for v in det.vars if v.id.startswith("_t"))
        assert plus.lhs == LinExpr.of({"x": 2.0, "y": -1.0, t: -1.0})
        assert minus.lhs == LinExpr.of({"x": -2.0, "y": 1.0, t: -1.0})

    def test_lowering_preserves_optima_on_fixtures(self):
        for name in ("ex1.roc", "diet.roc", "cover2.roc", "signflip.roc"):
            _, _, post, _, det = full_pipeline(fixture_text(name))
            ref = roc.solve_deterministic(det)
            cut = roc.cutting_plane_solve(post)
            assert ref.status == cut.status
            if ref.status == "optimal":
                assert rel_close(ref.objective, cut.objective, 1e-6), name
