"""Robust-counterpart rules: dual norms, support conjugates, robustify_row."""
import math

import numpy as np
import pytest

import roc
from roc import LinExpr, NormBall, dual_norm, support_conjugate
from roc.rc import NameGen

from support import (ALL_KINDS, fixture_text, random_set, rel_close,
                     sampled_cutting_plane, support_by_reformulation,
                     support_by_sampling)

INF = math.inf


def ball(p, r, dim):
    return NormBall(p, r, dim)


def x_args(*names):
    return tuple(LinExpr.of({n: 1.0}) for n in names)


class TestDualNorm:
    def test_table(self):
        assert dual_norm(1) == INF
        assert dual_norm(INF) == 1.0
        assert dual_norm(2) == 2.0
        assert dual_norm(3) == 1.5

    def test_rejects_p_below_one(self):
        with pytest.raises(roc.ModelError):
            dual_norm(0.99)

    def test_involution_random(self):
        rng = np.random.default_rng(5)
        for p in 1.0 + 9.0 * rng.uniform(size=20):
            assert abs(dual_norm(dual_norm(p)) - p) <= 1e-12


class TestSupportConjugate:
    def test_inf_ball_gives_one_norm(self):
        sr = support_conjugate(ball(INF, 0.1, 4), x_args("x1", "x2", "x3", "x4"), NameGen())
        assert len(sr.norm_terms) == 1
        term = sr.norm_terms[0]
        assert term.weight == 0.1
        assert term.q == 1.0
        assert term.arg == x_args("x1", "x2", "x3", "x4")
        assert not sr.aux_vars and not sr.aux_rows
        assert sr.affine == LinExpr()

    def test_zero_radius_vacuous(self):
        sr = support_conjugate(ball(2, 0.0, 2), x_args("x1", "x2"), NameGen())
        assert sr.norm_terms[0].weight == 0.0

    def test_polyhedral_multipliers(self):
        D = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        d = np.array([1.0, 1.0, 2.0, 2.0])
        sr = support_conjugate(roc.Polyhedral(D, d), x_args("x1", "x2"), NameGen())
        assert len(sr.aux_vars) == 4
        assert all(v.lower == 0.0 for v in sr.aux_vars)
        u = [v.id for v in sr.aux_vars]
        assert sr.affine == LinExpr.of({u[0]: 1.0, u[1]: 1.0, u[2]: 2.0, u[3]: 2.0})
        # D^T u = arg, one equality row per coordinate
        assert len(sr.aux_rows) == 2
        assert sr.aux_rows[0].sense == "="
        assert sr.aux_rows[0].lhs == LinExpr.of({u[0]: 1.0, u[1]: -1.0, "x1": -1.0})

    def test_intersection_splitters(self):
        sr = support_conjugate(
            roc.Intersection((ball(2, 1.0, 2), ball(INF, 0.5, 2))),
            x_args("x1", "x2"), NameGen())
        assert len(sr.norm_terms) == 2
        assert {t.weight for t in sr.norm_terms} == {1.0, 0.5}
        assert {t.q for t in sr.norm_terms} == {2.0, 1.0}
        # norm arguments are fresh splitters, never P^T x itself (the tempting
        # shortcut applies the member conjugates to P^T x directly)
        splitter_vars = {v.id for v in sr.aux_vars}
        for term in sr.norm_terms:
            for e in term.arg:
                assert set(e.vars()) <= splitter_vars
        # coupling rows sum the splitters back to the argument
        assert len(sr.aux_rows) == 2
        for i, row in enumerate(sr.aux_rows):
            coeffs = row.lhs.coeffs()
            xname = f"x{i + 1}"
            assert coeffs.pop(xname) == -1.0
            assert set(coeffs) <= splitter_vars
            assert all(c == 1.0 for c in coeffs.values())

    def test_minkowski_shares_argument(self):
        sr = support_conjugate(
            roc.MinkowskiSum((ball(2, 1.0, 2), ball(INF, 0.5, 2))),
            x_args("x1", "x2"), NameGen())
        assert len(sr.norm_terms) == 2
        for term in sr.norm_terms:
            assert term.arg == x_args("x1", "x2")
        assert not sr.aux_rows

    def test_dimension_mismatch(self):
        with pytest.raises(roc.ModelError):
            support_conjugate(ball(2, 1.0, 3), x_args("x1", "x2"), NameGen())

    def test_nested_no_name_collisions(self):
        inner = roc.MinkowskiSum((ball(2, 1.0, 2), ball(1, 0.5, 2)))
        outer = roc.Intersection((inner, ball(INF, 2.0, 2), roc.Intersection((ball(2, 1.0, 2), ball(2, 2.0, 2)))))
        sr = support_conjugate(outer, x_args("x1", "x2"), NameGen())
        ids = [v.id for v in sr.aux_vars] + [r.id for r in sr.aux_rows]
        assert len(ids) == len(set(ids))


class TestRobustifyRow:
    def test_certain_row_unchanged(self):
        row = roc.Constraint("c", LinExpr.of({"x": 1.0}), "<=", 3.0)
        main, aux_vars, aux_rows = roc.robustify_row(row, NameGen())
        assert main.lhs == row.lhs and main.rhs == 3.0 and not main.norm_terms
        assert not aux_vars and not aux_rows

    def test_example1_two_norm_row(self):
        # flipped demand row gains + r*||(-x1..-x4)||_2, i.e. the corrected
        # 10x1+...+40x4 - r||x||_2 >= 500 form
        pre = roc.canonicalize(roc.parse_model(fixture_text("ex1.roc")))
        row = next(r for r in pre.rows if r.id == "c1")
        main, _, _ = roc.robustify_row(row, NameGen())
        term = main.norm_terms[0]
        assert term.weight == 0.1 and term.q == 2.0
        assert list(term.arg) == [LinExpr.of({f"x{i}": -1.0}) for i in range(1, 5)]
        assert main.lhs == row.lhs and main.rhs == -500.0

    def test_limitations_response2_row(self):
        # 100x1 + x2 <= 10 with an infinity-ball becomes a^T x + r||P^T x||_1 <= b
        row = roc.Constraint(
            "c", LinExpr.of({"x1": 100.0, "x2": 1.0}), "<=", 10.0,
            uncertainty=roc.UncertainBlock(("x1", "x2"), np.eye(2), ball(INF, 0.25, 2)))
        main, _, _ = roc.robustify_row(row, NameGen())
        assert main.norm_terms[0].q == 1.0
        assert main.norm_terms[0].weight == 0.25
        assert main.norm_terms[0].arg == x_args("x1", "x2")

    def test_rejects_unflipped_row(self):
        row = roc.Constraint("c", LinExpr.of({"x": 1.0}), ">=", 0.0)
        with pytest.raises(roc.ModelError):
            roc.robustify_row(row, NameGen())


class TestSupportNumerics:
    def test_exactness_at_samples(self):
        # upper-bound property: any sampled w^T z stays below the
        # reformulation value of d*(w|Z)
        rng = np.random.default_rng(31)
        for trial in range(25):
            L = int(rng.integers(1, 4))
            uset = random_set(rng, L, kinds=ALL_KINDS)
            w = rng.uniform(-2, 2, size=L)
            reform = support_by_reformulation(uset, w)
            sampled = support_by_sampling(uset, w, n=800, seed=trial)
            assert sampled <= reform + 1e-7, f"trial {trial}: {sampled} > {reform}"

    def test_tightness_for_norm_balls(self):
        # dual-norm attainment: the closed-form worst case matches rho*||w||_q
        rng = np.random.default_rng(37)
        for p in (1.0, 2.0, INF, 3.0):
            for _ in range(10):
                L = int(rng.integers(1, 5))
                rho = float(rng.uniform(0, 2))
                w = rng.uniform(-3, 3, size=L)
                worst = roc.pessimize(ball(p, rho, L), w)
                q = dual_norm(p)
                expected = rho * float(np.sum(np.abs(w) ** q) ** (1 / q)) if q != INF \
                    else rho * float(np.max(np.abs(w)))
                assert abs(worst.value - expected) <= 1e-9 * max(1.0, expected)

    def test_intersection_of_set_with_itself(self):
        base = fixture_text("intersect.roc")
        plain = base.replace(
            "intersect(ball(p=2, r=0.6, dim=2), ball(p=inf, r=0.5, dim=2))",
            "ball(p=inf, r=0.5, dim=2)")
        doubled = base.replace(
            "intersect(ball(p=2, r=0.6, dim=2), ball(p=inf, r=0.5, dim=2))",
            "intersect(ball(p=inf, r=0.5, dim=2), ball(p=inf, r=0.5, dim=2))")
        get = lambda src: roc.solve_deterministic(roc.lower_norms(roc.robustify_model(
            roc.apply_ldr(roc.canonicalize(roc.parse_model(src)))))).objective
        assert rel_close(get(doubled), get(plain), 1e-6)

    def test_minkowski_with_origin(self):
        base = fixture_text("intersect.roc")
        plain = base.replace(
            "intersect(ball(p=2, r=0.6, dim=2), ball(p=inf, r=0.5, dim=2))",
            "ball(p=inf, r=0.5, dim=2)")
        padded = base.replace(
            "intersect(ball(p=2, r=0.6, dim=2), ball(p=inf, r=0.5, dim=2))",
            "minkowski(ball(p=inf, r=0.5, dim=2), ball(p=2, r=0, dim=2))")
        get = lambda src: roc.solve_deterministic(roc.lower_norms(roc.robustify_model(
            roc.apply_ldr(roc.canonicalize(roc.parse_model(src)))))).objective
        assert rel_close(get(padded), get(plain), 1e-6)

    def test_general_p_accepted_and_solved(self):
        row = roc.Constraint(
            "c", LinExpr.of({"x": 1.0}), "<=", 1.0,
            uncertainty=roc.UncertainBlock(("x",), np.eye(1), ball(3.0, 0.5, 1)))
        cm = roc.CanonicalModel(
            vars=(roc.VariableDecl("x", lower=0.0),),
            objective=LinExpr.of({"x": -1.0}),
            rows=(row,))
        rcm = roc.robustify_model(cm)  # rule is closed form, accepted
        assert rcm.rows[0].norm_terms[0].q == 1.5
        det = roc.lower_norms(rcm)
        assert [r.q for r in det.soc_rows] == [1.5]
        assert [r.id for r in det.linear_rows] == ["c"]
        ref = roc.solve_deterministic(det)
        cut = roc.cutting_plane_solve(cm)
        assert ref.status == cut.status == "optimal"
        assert rel_close(ref.objective, cut.objective, 1e-6)
        assert rel_close(ref.objective, -1.0 / 1.5, 1e-6)  # x + 0.5|x| <= 1

    def test_intersection_against_sampled_pessimization(self):
        # independent route for intersections: a cutting plane pessimizing
        # over sampled + stress points; the binding direction's maximizer
        # lies in the stress set, so agreement is tight here
        src = fixture_text("intersect.roc")
        post = roc.apply_ldr(roc.canonicalize(roc.parse_model(src)))
        reform = roc.solve_deterministic(roc.lower_norms(roc.robustify_model(post)))
        sampled = sampled_cutting_plane(post, n=2000, seed=17)
        assert reform.status == sampled.status == "optimal"
        assert rel_close(reform.objective, sampled.objective, 1e-6)

    def test_intersection_regression_vs_minkowski(self):
        # treating the intersection like a Minkowski sum (a classic derivation
        # slip) must give a measurably different optimum here
        src = fixture_text("intersect.roc")
        inter_det = roc.lower_norms(roc.robustify_model(
            roc.apply_ldr(roc.canonicalize(roc.parse_model(src)))))
        mink_det = roc.lower_norms(roc.robustify_model(
            roc.apply_ldr(roc.canonicalize(roc.parse_model(src.replace("intersect", "minkowski"))))))
        a = roc.solve_deterministic(inter_det).objective
        b = roc.solve_deterministic(mink_det).objective
        assert abs(a - b) > 1e-3
