"""Norm lowering: aux-variable counts, sign rows, norm rows."""
import math

import numpy as np
import pytest

import roc
from roc import LinExpr

from support import (dense_ball_text, fixture_text, full_pipeline, rel_close, scaled,
                     scipy_solve_lowered)

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


def lower_one_term(q, args, bounds, weight=0.5):
    """Lower the row 0 + weight*||args||_q <= 1 over variables with `bounds`."""
    rcm = roc.RcModel(
        vars=tuple(roc.VariableDecl(v, lower=lo, upper=hi) for v, (lo, hi) in bounds.items()),
        objective=LinExpr.of({}),
        rows=(roc.Constraint("c", LinExpr.of({}), "<=", 1.0,
                             norm_terms=(roc.NormTerm(weight, q, tuple(args)),)),))
    return roc.lower_norms(rcm)


def sign_row_ids(det):
    return [r.id for r in det.linear_rows if r.id != "c"]


POS, NEG, FREE = (0.0, INF), (-INF, 0.0), (-INF, INF)

# (argument, variable bounds, sign the bounds fix: +1, -1 or 0 for unknown)
SIGN_CASES = [
    (LinExpr.of({"x": 2.0}), {"x": POS}, 1),                     # x >= 0
    (LinExpr.of({"x": -2.0}), {"x": POS}, -1),
    (LinExpr.of({"x": 2.0}), {"x": NEG}, -1),                    # x <= 0
    (LinExpr.of({"x": 1.0, "y": -1.0}), {"x": POS, "y": NEG}, 1),
    (LinExpr.of({"x": 1.0}, -1.0), {"x": (2.0, 5.0)}, 1),        # shifted box
    (LinExpr.of({"x": 1.0}, -6.0), {"x": (2.0, 5.0)}, -1),
    (LinExpr.of({"x": -1.0}, 5.0), {"x": (2.0, 5.0)}, 1),        # lo = 0 exactly
    (LinExpr.of({"x": 1.0}, -3.0), {"x": (2.0, 5.0)}, 0),
    (LinExpr.of({"x": 1.0}, -4.5), {"x": (2.0, 5.0)}, 0),        # hi = 0.5
    (LinExpr.of({"x": 1.0}, -2.5), {"x": (2.0, 5.0)}, 0),        # lo = -0.5
    (LinExpr.of({}, -2.0), {}, -1),                               # constant only
    (LinExpr.of({"x": 1.0}), {"x": FREE}, 0),                    # free
    (LinExpr.of({"x": 1.0, "y": 1.0}), {"x": POS, "y": FREE}, 0),
    (LinExpr.of({"x": 1.0, "y": -1.0}), {"x": POS, "y": POS}, 0),  # inf - inf
    (LinExpr.of({"x": 1.0, "y": 3.0}), {"x": POS, "y": (1.0, INF)}, 1),
    (LinExpr.of({"x": -1.0, "y": 3.0}), {"x": POS, "y": NEG}, -1),
]


def boxed_sign_instance(seed: int) -> roc.CanonicalModel:
    """Boxed robust model under inf- and 1-balls whose rows' arguments P^T x
    are one-signed, mixed (some coordinates signed) or of either sign.

    Boxes are [0, 10], [-10, 0] or [-4, 6]; x = 0 is strictly feasible and
    the box keeps the model bounded.  A signed coordinate takes P_il with
    the sign of x_i's box (times a coordinate sign) and 0 on [-4, 6].
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    boxes = [((0.0, 10.0), 1.0), ((-10.0, 0.0), -1.0), ((-4.0, 6.0), 0.0)]
    picks = [boxes[int(k)] for k in rng.integers(0, 3, n)]
    names = [f"x{i + 1}" for i in range(n)]
    variables = tuple(roc.VariableDecl(v, lower=b[0], upper=b[1])
                      for v, (b, _) in zip(names, picks))
    box_sign = np.array([sgn for _, sgn in picks])
    rows = []
    for i in range(int(rng.integers(1, 5))):
        L = int(rng.integers(1, 5))
        signed = {0: np.ones(L, bool), 1: rng.uniform(size=L) < 0.5,
                  2: np.zeros(L, bool)}[i % 3]
        P = rng.uniform(-1, 1, (n, L))
        col_sign = rng.choice([-1.0, 1.0], L)
        P[:, signed] = (np.abs(P) * np.outer(box_sign, col_sign))[:, signed]
        uset = roc.NormBall(INF if rng.uniform() < 0.5 else 1.0, float(rng.uniform(0.1, 1.0)), L)
        a = rng.uniform(-3, 3, n)
        rows.append(roc.Constraint(
            f"r{i + 1}", LinExpr.of(dict(zip(names, a))), "<=", float(rng.uniform(1, 5)),
            uncertainty=roc.UncertainBlock(tuple(names), P, uset)))
    objective = LinExpr.of(dict(zip(names, rng.uniform(-5, 5, n))))
    return roc.CanonicalModel(vars=variables, objective=objective, rows=tuple(rows))


class TestSignRule:
    @pytest.mark.parametrize("w, bounds, sign", SIGN_CASES)
    def test_inf_norm_keeps_the_half_the_sign_needs(self, w, bounds, sign):
        det = lower_one_term(INF, [w], bounds)
        expected = {1: ["c_a1_1p"], -1: ["c_a1_1n"], 0: ["c_a1_1p", "c_a1_1n"]}[sign]
        assert sign_row_ids(det) == expected
        assert [v.id for v in det.vars[len(bounds):]] == ["_t1"]
        for row in det.linear_rows:
            assert all(math.isfinite(c) for _, c in row.lhs.terms)
            assert math.isfinite(row.rhs)

    @pytest.mark.parametrize("w, bounds, sign", SIGN_CASES)
    def test_one_norm_of_known_sign_is_linear(self, w, bounds, sign):
        det = lower_one_term(1.0, [w], bounds)
        c = det.linear_rows[0]
        if sign:
            assert sign_row_ids(det) == []
            assert len(det.vars) == len(bounds)
            assert c.lhs == scaled(w, 0.5 * sign).drop_constant()
            assert c.rhs == 1.0 - 0.5 * sign * w.constant
        else:
            assert sign_row_ids(det) == ["c_a1_1p", "c_a1_1n"]
            assert [v.id for v in det.vars[len(bounds):]] == ["_t1_1"]
            assert c.lhs == LinExpr.of({"_t1_1": 0.5})

    def test_mixed_row_one_norm(self):
        # coordinates x >= 0, -y <= 0 and x - y (unknown): only the third
        # keeps its aux variable and rows, under its own index
        args = [LinExpr.of({"x": 1.0}), LinExpr.of({"y": -1.0}), LinExpr.of({"x": 1.0, "y": -1.0})]
        det = lower_one_term(1.0, args, {"x": POS, "y": POS})
        assert sign_row_ids(det) == ["c_a1_3p", "c_a1_3n"]
        assert [v.id for v in det.vars] == ["x", "y", "_t1_3"]
        assert det.linear_rows[0].lhs == LinExpr.of({"x": 0.5, "y": 0.5, "_t1_3": 0.5})

    def test_mixed_row_inf_norm(self):
        args = [LinExpr.of({"x": 1.0}), LinExpr.of({"y": -1.0}), LinExpr.of({"x": 1.0, "y": -1.0})]
        det = lower_one_term(INF, args, {"x": POS, "y": POS})
        assert sign_row_ids(det) == ["c_a1_1p", "c_a1_2n", "c_a1_3p", "c_a1_3n"]
        assert [v.id for v in det.vars] == ["x", "y", "_t1"]
        assert det.linear_rows[0].lhs == LinExpr.of({"_t1": 0.5})

    def test_identity_ball_family_has_no_unneeded_sign_rows(self):
        # the baseline family (identity P on x in [0, 10]): an inf-ball row
        # lowers to one row, a 1-ball row to one t and its n "p" rows
        n, m = 12, 6
        for p, rows, aux in (("inf", m, 0), ("1", m + m * n, m)):
            _, _, _, rcm, det = full_pipeline(dense_ball_text(n, m, p, seed=1))
            assert len(det.linear_rows) == rows, p
            assert len(det.vars) - len(rcm.vars) == aux, p
            assert rel_close(roc.solve_deterministic(det).objective,
                             scipy_solve_lowered(det), 1e-9), p

    def test_boxed_models_agree_with_cutting_plane_and_highs(self):
        halves = {"p": 0, "n": 0, "both": 0}
        linear = 0
        for seed in range(30):
            cm = boxed_sign_instance(seed)
            rcm = roc.robustify_model(cm)
            det = roc.lower_norms(rcm)
            ref = roc.solve_deterministic(det)
            cut = roc.cutting_plane_solve(cm)
            assert ref.status == cut.status == "optimal", seed
            assert rel_close(ref.objective, cut.objective, 1e-9), seed
            assert rel_close(ref.objective, scipy_solve_lowered(det), 1e-9), seed
            ids = {r.id for r in det.linear_rows}
            for rid in ids:
                if rid.endswith("p"):
                    halves["both" if rid[:-1] + "n" in ids else "p"] += 1
                elif rid.endswith("n") and rid[:-1] + "p" not in ids:
                    halves["n"] += 1
            linear += sum(len(term.arg) for row in rcm.rows for term in row.norm_terms
                          if term.q == 1.0)
            linear -= sum(1 for v in det.vars if v.id.startswith("_t") and v.id.count("_") == 2)
        # the draw covers every case of the rule
        assert min(halves.values()) > 0, halves
        assert linear > 0


def sequential_main_rows(model: roc.RcModel) -> list[roc.Constraint]:
    """Each main row as a chain of LinExpr sums, one per coordinate and aux
    variable: the reference for the row that lower_norms builds once."""
    bounds = {v.id: (v.lower, v.upper) for v in model.vars}
    counter = 0
    rows = []
    for row in model.rows:
        lhs = row.lhs
        for term in row.norm_terms:
            if term.weight == 0.0:
                continue
            counter += 1
            if term.q != 1.0:
                lhs = lhs + LinExpr.of({f"_t{counter}": term.weight})
                continue
            for i, w in enumerate(term.arg, start=1):
                sign = roc.lower._sign(w, bounds)
                if sign:
                    lhs = lhs + scaled(w, sign * term.weight)
                else:
                    lhs = lhs + LinExpr.of({f"_t{counter}_{i}": term.weight})
        rows.append(roc.Constraint(row.id, lhs, row.sense, row.rhs))
    return rows


def wide_norm_model(seed: int) -> roc.RcModel:
    """Rows of 1- and inf-norm terms over 50 to 120 coordinates; each
    coordinate is a few signed variables plus, at times, a constant, so
    some have a known sign on the variable box and some do not."""
    rng = np.random.default_rng(seed)
    boxes = [POS, NEG, FREE, (2.0, 5.0), (-3.0, -1.0)]
    names = [f"x{i}" for i in range(40)]
    box = {v: boxes[int(k)] for v, k in zip(names, rng.integers(0, len(boxes), len(names)))}

    def coordinate():
        picked = rng.choice(names, int(rng.integers(1, 5)), replace=False)
        sign = rng.choice([-1.0, 1.0])
        coeffs = {}
        for v in picked:  # mostly one-signed on the box, sometimes not
            s = sign * (-1.0 if box[v] in (NEG, (-3.0, -1.0)) else 1.0)
            coeffs[str(v)] = float(s * rng.uniform(0.1, 3.0) * (1 if rng.uniform() < 0.8 else -1))
        constant = float(sign * rng.uniform(0, 2)) if rng.uniform() < 0.4 else 0.0
        return LinExpr.of(coeffs, constant)

    rows = []
    for r in range(3):
        terms = tuple(roc.NormTerm(float(rng.uniform(0.1, 2.0)), q,
                                   tuple(coordinate() for _ in range(int(rng.integers(50, 121)))))
                      for q in rng.choice([1.0, INF], int(rng.integers(1, 3))))
        lhs = LinExpr.of(dict(zip(names[:10], rng.uniform(-2, 2, 10))))
        rows.append(roc.Constraint(f"r{r}", lhs, "<=", float(rng.uniform(1, 5)), norm_terms=terms))
    return roc.RcModel(vars=tuple(roc.VariableDecl(v, lower=lo, upper=hi) for v, (lo, hi) in box.items()),
                       objective=LinExpr.of({}), rows=tuple(rows))


class TestRowBuiltOnce:
    def test_rows_equal_the_sequential_sums(self):
        signs = set()
        for seed in range(12):
            model = wide_norm_model(seed)
            bounds = {v.id: (v.lower, v.upper) for v in model.vars}
            signs |= {roc.lower._sign(w, bounds) for row in model.rows
                      for term in row.norm_terms for w in term.arg}
            det = roc.lower_norms(model)
            ids = {row.id for row in model.rows}
            built = [(r.id, r.lhs.terms, r.rhs) for r in det.linear_rows if r.id in ids]
            assert built == [(r.id, r.lhs.terms, r.rhs) for r in sequential_main_rows(model)], seed
        assert signs == {-1, 0, 1}

    def test_known_sign_row_adds_no_expressions(self, monkeypatch):
        # a q = 1 term over 100 coordinates of known sign: no LinExpr sum,
        # where a sum per coordinate re-sorts the whole row each time
        calls = []
        add = roc.model.expr_add
        monkeypatch.setattr(roc.model, "expr_add", lambda a, b: calls.append(1) or add(a, b))
        names = [f"x{i}" for i in range(100)]
        det = lower_one_term(1.0, [LinExpr.of({v: 1.0 + i}) for i, v in enumerate(names)],
                             {v: POS for v in names})
        assert calls == []
        assert det.linear_rows[0].lhs == LinExpr.of({v: 0.5 * (1.0 + i) for i, v in enumerate(names)})


    def test_sign_rows_equal_the_differences_they_replace(self):
        # oracle: w - t and -w - t as LinExpr sums; `_t...` sorts between
        # upper- and lower-case names, and among other `_` names
        def summed(w, t_id, sign):
            t = LinExpr.of({t_id: 1.0})
            halves = [("p", w - t)] if sign >= 0 else []
            halves += [("n", roc.expr_negate(w) - t)] if sign <= 0 else []
            return [roc.Constraint(f"c_a2_7{half}", lhs, "<=", 0.0) for half, lhs in halves]

        def exact(rows):
            return repr([(r.id, r.lhs.terms, r.lhs.constant, r.sense, r.rhs) for r in rows])

        rng = np.random.default_rng(18)
        pool = ["A", "X1", "Z9", "_s1", "_t3_2", "_u1_1", "_w1_2", "a1", "x1", "x10", "é"]
        for _ in range(200):
            names = rng.choice(pool, int(rng.integers(1, len(pool))), replace=False)
            coeffs = {str(v): float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 9.0)) for v in names}
            w = LinExpr.of(coeffs, float(rng.choice([0.0, -0.0, 2.5, -1.25])))
            for sign in (-1, 0, 1):
                built = roc.lower._abs_rows("c", 2, "_t3_1", 7, w, sign)
                assert exact(built) == exact(summed(w, "_t3_1", sign))


class TestLowering:
    def test_example1_inf_ball_sign_rows(self):
        # the capacity row's q=1 term is over x >= 0, so every coordinate has
        # a known sign: no aux vars, no sign rows, and 0.1*x_i joins the lhs
        _, _, _, rcm, det = full_pipeline(fixture_text("ex1.roc"))
        assert not [r for r in det.linear_rows if r.id.startswith("c2_a")]
        rc_c2 = next(r for r in rcm.rows if r.id == "c2")
        c2 = next(r for r in det.linear_rows if r.id == "c2")
        assert not [v for v in c2.lhs.vars() if v.startswith("_t")]
        assert c2.lhs == rc_c2.lhs + LinExpr.of({f"x{i}": 0.1 for i in range(1, 5)})
        assert c2.rhs == rc_c2.rhs

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
            "ex1.roc": 1,              # q1 over 4 coords of known sign + one cone t
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
        assert det.linear_rows[0].lhs.coeffs()[det.soc_rows[0].t] == 0.5
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
