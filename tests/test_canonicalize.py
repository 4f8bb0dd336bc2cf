"""Canonicalization: sense flips, epigraph, rhs folding, idempotence, "=" rows."""
import numpy as np
import pytest

import roc
from roc import LinExpr, apply_ldr, canonicalize, parse_model

from support import (FIXTURES, fixture_text, random_instance, rel_close, scipy_solve,
                     solve_canonical_both)

EX1 = fixture_text("ex1.roc")


class TestExample1:
    def test_flip_negates_coefficients(self):
        pre = canonicalize(parse_model(EX1))
        row = next(r for r in pre.rows if r.id == "c1")
        assert row.lhs == LinExpr.of({"x1": -10.0, "x2": -20.0, "x3": -30.0, "x4": -40.0})
        assert row.rhs == -500.0
        assert np.array_equal(row.uncertainty.P, -np.eye(4))

    def test_objective_negated_for_max(self):
        pre = canonicalize(parse_model(EX1))
        assert pre.objective == LinExpr.of({"x1": -50.0, "x2": -40.0, "x3": -60.0, "x4": -30.0})

    def test_le_row_untouched(self):
        pre = canonicalize(parse_model(EX1))
        row = next(r for r in pre.rows if r.id == "c2")
        assert row.lhs == LinExpr.of({"x1": 2.0, "x2": 3.0, "x3": 4.0, "x4": 5.0})
        assert np.array_equal(row.uncertainty.P, np.eye(4))


class TestStructure:
    def test_certain_min_model_is_fixed_point(self):
        src = "var x >= 0; min: x; c: x <= 4;"
        model = parse_model(src)
        pre = canonicalize(model)
        assert pre.objective == model.objective
        assert pre.rows == model.constraints
        assert pre.vars == model.vars

    def test_idempotent(self):
        for name in ("ex1.roc", "diet.roc", "signflip.roc", "intersect.roc"):
            pre = canonicalize(parse_model(fixture_text(name)))
            assert canonicalize(pre) == pre
        for path in sorted(FIXTURES.glob("*.roc")):
            if path.name == "bad_equality.roc":  # fails to parse, by design
                continue
            pre = canonicalize(parse_model(path.read_text()))
            for m in (pre, apply_ldr(pre)):
                assert canonicalize(m) is m, path.name

    def test_row_count_formula(self):
        # 2 "<=", 1 ">=", 1 certain "=", uncertain objective -> 2+1+1+1 rows
        src = (
            "var x >= 0; var y >= 0;"
            "min: x + y uncertain(Z=ball(p=2, r=0.1));"
            "a: x + y <= 4; b: x - y <= 2; c: x + 2*y >= 1; d: x - y = 0;"
        )
        pre = canonicalize(parse_model(src))
        assert len(pre.rows) == 2 + 1 + 1 + 1

    def test_equality_row_kept_whole(self):
        pre = canonicalize(parse_model("min: x; c: x = 2;"))
        assert [r.id for r in pre.rows] == ["c"]
        row = pre.rows[0]
        assert row.lhs == LinExpr.of({"x": 1.0})
        assert row.sense == "="
        assert row.rhs == 2.0

    def test_uncertain_objective_epigraph(self):
        src = "var x >= 1; min: 3*x uncertain(Z=ball(p=2, r=0.5));"
        pre = canonicalize(parse_model(src))
        assert pre.objective == LinExpr.of({"_t": 1.0})
        epi = next(r for r in pre.rows if r.id == "_obj_epi")
        assert epi.lhs == LinExpr.of({"x": 3.0, "_t": -1.0})
        assert epi.uncertainty is not None

    def test_certain_objective_no_epigraph(self):
        pre = canonicalize(parse_model("min: x; c: x >= 0 uncertain(Z=ball(p=2,r=1,dim=1));"))
        assert all(r.id != "_obj_epi" for r in pre.rows)
        assert "_t" not in {v.id for v in pre.vars}

    def test_uncertain_max_objective_value(self):
        # max (3+z)x over x in [1,2], |z| <= 0.5: worst-case coefficient 2.5,
        # so the optimum is 5 at x = 2
        src = "var x >= 1 <= 2; max: 3*x uncertain(Z=ball(p=inf, r=0.5));"
        pre = canonicalize(parse_model(src))
        sol = roc.cutting_plane_solve(pre)
        assert sol.status == "optimal"
        assert abs(-sol.objective - 5.0) < 1e-9
        ref = roc.solve_deterministic(roc.lower_norms(roc.robustify_model(pre)))
        assert abs(ref.objective - sol.objective) < 1e-9


class TestRhsFolding:
    def test_pinned_variable_structure(self):
        # spec example: x1 <= b with uncertain rhs becomes x1 - b*x+ <= 0
        pre = canonicalize(parse_model(
            "var x1; min: x1; c: x1 <= 1 rhs_uncertain(Z=ball(p=inf, r=0.1, dim=1));"))
        pinned = [v for v in pre.vars if v.pinned_one]
        assert len(pinned) == 1
        assert (pinned[0].lower, pinned[0].upper) == (1.0, 1.0)
        row = pre.rows[0]
        assert row.lhs == LinExpr.of({"x1": 1.0, pinned[0].id: -1.0})
        assert row.rhs == 0.0
        assert row.uncertainty.on == (pinned[0].id,)
        assert row.uncertainty.P.tolist() == [[-1.0]]
        assert row.uncertainty.uset == roc.NormBall(np.inf, 0.1, 1)

    def test_fold_worst_case_optimum(self):
        # min x1 s.t. x1 >= b, b = 1 +/- 0.1: worst case forces x1 >= 1.1,
        # cross-checked by the cutting-plane oracle
        pre = canonicalize(parse_model(
            "var x1; min: x1; c: x1 >= 1 rhs_uncertain(Z=ball(p=inf, r=0.1, dim=1));"))
        sol = roc.cutting_plane_solve(pre)
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.1) < 1e-9
        det = roc.lower_norms(roc.robustify_model(pre))
        ref = roc.solve_deterministic(det)
        assert abs(ref.objective - 1.1) < 1e-9

    def test_single_pinned_variable_shared(self):
        pre = canonicalize(parse_model(
            "var x1; var x2; min: x1 + x2;"
            "a: x1 >= 1 rhs_uncertain(Z=ball(p=inf, r=0.1, dim=1));"
            "b: x2 >= 2 rhs_uncertain(Z=ball(p=inf, r=0.2, dim=1));"))
        assert sum(v.pinned_one for v in pre.vars) == 1


class TestSignFlipRegression:
    def test_acceptance_structure(self):
        pre = canonicalize(parse_model(fixture_text("signflip.roc")))
        row = next(r for r in pre.rows if r.id == "c")
        assert row.lhs == LinExpr.of({"x1": -99.0, "x2": -1.0})
        assert row.rhs == -10.0


class TestOptimumPreservation:
    def test_random_certain_lps(self):
        rng = np.random.default_rng(23)
        for trial in range(12):
            n = int(rng.integers(2, 5))
            names = [f"x{i}" for i in range(n)]
            sense = "max" if rng.uniform() < 0.5 else "min"
            objective = LinExpr.of({v: float(c) for v, c in zip(names, rng.uniform(-4, 4, n))})
            rows = []
            for j in range(int(rng.integers(1, 5))):
                a = rng.uniform(-3, 3, n)
                rows.append(roc.Constraint(
                    f"r{j}", LinExpr.of(dict(zip(names, map(float, a)))),
                    "<=" if rng.uniform() < 0.7 else ">=",
                    float(np.sum(np.abs(a)) + rng.uniform(0, 2)) * (1 if rng.uniform() < 0.9 else -0.1)))
            model = roc.Model(
                vars=tuple(roc.VariableDecl(v, lower=0.0, upper=10.0) for v in names),
                objective_sense=sense,
                objective=objective,
                constraints=tuple(rows),
            )
            status, expected = scipy_solve(model)
            sol = roc.simplex_solve(roc.lower_norms(roc.robustify_model(canonicalize(model))))
            assert sol.status == status, f"trial {trial}"
            if status == "optimal":
                canon_obj = -sol.objective if sense == "max" else sol.objective
                assert abs(canon_obj - expected) < 1e-9 * max(1.0, abs(expected)), f"trial {trial}"


def with_equalities(model: roc.CanonicalModel, seed: int, split: bool) -> roc.CanonicalModel:
    """`model` plus 1-2 certain rows a x = a x1 through a small point x1
    (x1 ~ U[0, 0.3]^n), each as one "=" row or, when `split`, as the rows
    a x <= b and -a x <= -b."""
    rng = np.random.default_rng(1000 + seed)
    names = [v.id for v in model.vars]
    rows = list(model.rows)
    for k in range(int(rng.integers(1, 3))):
        a = rng.uniform(-3, 3, len(names))
        lhs = LinExpr.of(dict(zip(names, a.tolist())))
        b = float(a @ rng.uniform(0, 0.3, len(names)))
        if split:
            rows.append(roc.Constraint(f"e{k}_le", lhs, "<=", b))
            rows.append(roc.Constraint(f"e{k}_ge", -lhs, "<=", -b))
        else:
            rows.append(roc.Constraint(f"e{k}", lhs, "=", b))
    return roc.CanonicalModel(model.vars, model.objective, tuple(rows))


class TestEqualityRows:
    def test_whole_rows_solve_as_the_split_pair(self):
        # both methods on "=" rows kept whole agree with the same rows
        # written as two "<=" rows each
        for seed in range(40):
            base = random_instance(seed)
            pre = canonicalize(with_equalities(base, seed, split=False))
            assert sum(r.sense == "=" for r in pre.rows) in (1, 2)
            oracle = with_equalities(base, seed, split=True)
            for sol, ref in zip(solve_canonical_both(pre), solve_canonical_both(oracle)):
                assert sol.status == ref.status, f"seed {seed}"
                if ref.status == "optimal":
                    assert rel_close(sol.objective, ref.objective, 1e-9), f"seed {seed}"

    def test_rejects_ge_row(self):
        row = roc.Constraint("c", LinExpr.of({"x": 1.0}), ">=", 0.0)
        with pytest.raises(roc.ModelError):
            roc.CanonicalModel((roc.VariableDecl("x"),), LinExpr.of({"x": 1.0}), (row,))
