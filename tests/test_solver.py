"""Simplex, pessimization, cutting-plane loop: values, statuses, determinism."""
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import roc
import roc.cli
from roc import LinExpr, NormBall, Polyhedral, pessimize

from support import (BALL_KINDS, FIXTURES, GENERAL_P_KINDS, aggressive_instance, budget,
                     dense_ball_text, fixture_text, full_pipeline, random_instance, random_set,
                     rel_close, scipy_solve, scipy_solve_lowered,
                     solve_canonical_both)

INF = math.inf
# in-place pivots between refactorizations, from "refactorize on every
# pivot" to "only before terminal decisions"
REFACTOR_INTERVALS = (1, 8, 16, 20, 30, 100, 10**6)


def det_model(variables, objective, rows):
    return roc.DeterministicModel(vars=tuple(variables), objective=objective,
                                  linear_rows=tuple(rows))


class TestSimplex:
    def test_trivial_lower_bounded(self):
        m = det_model([roc.VariableDecl("x", lower=1.0)], LinExpr.of({"x": 1.0}), [])
        sol = roc.simplex_solve(m)
        assert sol.status == "optimal"
        assert sol.objective == 1.0

    def test_diet_infeasible(self):
        # best nutrient-per-cost is 20 per unit spend: 2200 needs 110 > 50
        _, _, post, _, det = full_pipeline(fixture_text("diet.roc"))
        assert roc.solve_deterministic(det).status == "infeasible"

    def test_unbounded(self):
        m = det_model([roc.VariableDecl("x", lower=0.0)], LinExpr.of({"x": -1.0}), [])
        assert roc.simplex_solve(m).status == "unbounded"

    def test_free_variable_column(self):
        m = det_model(
            [roc.VariableDecl("x")],
            LinExpr.of({"x": 1.0}),
            [roc.Constraint("lo", LinExpr.of({"x": -1.0}), "<=", 5.0)])  # x >= -5
        sol = roc.simplex_solve(m)
        assert sol.status == "optimal"
        assert abs(sol.values["x"] + 5.0) < 1e-9

    def test_equality_rows_native(self):
        m = det_model(
            [roc.VariableDecl("x", lower=0.0), roc.VariableDecl("y", lower=0.0)],
            LinExpr.of({"x": 1.0, "y": 2.0}),
            [roc.Constraint("bal", LinExpr.of({"x": 1.0, "y": 1.0}), "=", 4.0)])
        sol = roc.simplex_solve(m)
        assert sol.status == "optimal"
        assert abs(sol.objective - 4.0) < 1e-9  # all weight on the cheap variable

    def test_fixed_variables_substituted(self):
        m = det_model(
            [roc.VariableDecl("x", lower=2.0, upper=2.0), roc.VariableDecl("y", lower=0.0)],
            LinExpr.of({"x": 10.0, "y": 1.0}),
            [roc.Constraint("r", LinExpr.of({"x": -1.0, "y": -1.0}), "<=", -3.0)])  # x+y >= 3
        sol = roc.simplex_solve(m)
        assert sol.status == "optimal"
        assert sol.values["x"] == 2.0
        assert abs(sol.values["y"] - 1.0) < 1e-9
        assert abs(sol.objective - 21.0) < 1e-9

    def test_iteration_limit_status(self):
        m = det_model(
            [roc.VariableDecl("x", lower=0.0), roc.VariableDecl("y", lower=0.0)],
            LinExpr.of({"x": -1.0, "y": -1.0}),
            [roc.Constraint("r1", LinExpr.of({"x": 1.0, "y": 2.0}), "<=", 4.0),
             roc.Constraint("r2", LinExpr.of({"x": 2.0, "y": 1.0}), "<=", 4.0)])
        assert roc.simplex_solve(m, max_pivots=0).status == "iteration-limit"

    def test_objective_matches_values(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            cm = random_instance(seed)
            det = roc.lower_norms(roc.robustify_model(cm))
            sol = roc.solve_deterministic(det)
            assert sol.status == "optimal"
            recomputed = det.objective.evaluate(sol.values)
            assert abs(recomputed - sol.objective) < 1e-9

    def test_rows_satisfied_at_optimum(self):
        for seed in range(10, 18):
            cm = random_instance(seed)
            det = roc.lower_norms(roc.robustify_model(cm))
            sol = roc.solve_deterministic(det)
            assert sol.status == "optimal"
            for row in det.linear_rows:
                lhs = row.lhs.evaluate(sol.values)
                if row.sense == "<=":
                    assert lhs <= row.rhs + 1e-7
                else:
                    assert abs(lhs - row.rhs) <= 1e-7

    @pytest.mark.parametrize("p", ["inf", "1"])
    @pytest.mark.parametrize("n, m", [(12, 6), (16, 8)])
    def test_dense_ball_models_against_highs(self, n, m, p, monkeypatch):
        # sign-row lowerings of dense inf- and 1-balls with a mixed-sign P are
        # the largest LPs the pipeline builds; a short interval makes every
        # solve refactorize periodically after in-place pivots
        monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", 8)
        det = full_pipeline(dense_ball_text(n, m, p, seed=n, mixed=True))[4]
        sol = roc.solve_deterministic(det)
        assert sol.status == "optimal"
        assert sol.iterations > 8
        assert rel_close(sol.objective, scipy_solve_lowered(det), 1e-9)

    def test_singular_refactorization_rolls_back(self, monkeypatch, caplog):
        # a refactorization that finds the basis singular after in-place
        # pivots returns to the last factorized basis and refactorizes on
        # every pivot from then on; the answer does not change
        det = full_pipeline(dense_ball_text(12, 6, "inf", seed=12, mixed=True))[4]
        expected = roc.solve_deterministic(det)
        factor = roc.solver._Tableau._factor
        failed = []

        def singular_once(tab):
            if tab.updates and not failed:
                failed.append(tab.updates)
                raise np.linalg.LinAlgError("Singular matrix")
            factor(tab)

        monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", 8)
        monkeypatch.setattr(roc.solver._Tableau, "_factor", singular_once)
        with caplog.at_level("INFO", logger="roc"):
            sol = roc.solve_deterministic(det)
        assert failed == [7]
        assert "rolling back" in caplog.text
        assert sol.status == "optimal"
        assert rel_close(sol.objective, expected.objective, 1e-9)

    def test_singular_basis_without_updates_is_an_error(self, monkeypatch):
        # with nothing to roll back to, a singular basis stays an error
        def singular(tab):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(roc.solver._Tableau, "_factor", singular)
        det = full_pipeline(dense_ball_text(12, 6, "inf", seed=12, mixed=True))[4]
        with pytest.raises(roc.SolverError, match="numerically singular"):
            roc.solve_deterministic(det)

    def test_failed_certificate_on_fresh_tableau_is_an_error(self, monkeypatch, capsys):
        # a refactorization that writes one wrong reduced cost makes the
        # optimal basis fail its certificate on a fresh tableau: an error
        # (exit 1) naming both residuals, not a silent optimum
        factor = roc.solver._Tableau._factor

        def corrupt(tab):
            factor(tab)
            # the wrong entry makes column 0 look worse than it is, so that
            # no step follows it: at rest at 0 its gain falls, basic it has none
            tab.T[-1, 0] += 1.0 if tab.sgn[0] <= 0.0 else -1.0

        monkeypatch.setattr(roc.solver._Tableau, "_factor", corrupt)
        det = full_pipeline(fixture_text("ex1.roc"))[4]
        with pytest.raises(roc.SolverError,
                           match=r"fails its certificate: primal residual \S+, dual residual (\S+)") \
                as err:
            roc.simplex_solve(replace(det, soc_rows=()))
        assert float(re.search(r"dual residual (\S+)", str(err.value))[1]) > roc.solver.FEAS_TOL
        assert roc.cli.main(["solve", str(FIXTURES / "ex1.roc")]) == 1
        assert "fails its certificate" in capsys.readouterr().err

    def test_determinism_bitwise(self):
        cm = random_instance(99)
        det = roc.lower_norms(roc.robustify_model(cm))
        a = roc.solve_deterministic(det)
        b = roc.solve_deterministic(det)
        assert a.objective == b.objective
        assert a.values == b.values
        assert a.iterations == b.iterations

    def test_against_scipy_on_random_certain_lps(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            names = [f"x{i}" for i in range(n)]
            lo = rng.choice([-INF, 0.0, -2.0], size=n, p=[0.2, 0.6, 0.2])
            hi = np.where(rng.uniform(size=n) < 0.7, 10.0, INF)
            hi = np.maximum(hi, lo)
            rows = []
            for j in range(int(rng.integers(1, 6))):
                a = rng.uniform(-3, 3, size=n)
                sense = ("<=", ">=", "=")[rng.integers(0, 3)]
                rows.append(roc.Constraint(
                    f"r{j}", LinExpr.of(dict(zip(names, map(float, a)))), sense,
                    float(rng.uniform(-2, 6))))
            model = roc.Model(
                vars=tuple(roc.VariableDecl(v, lower=float(l), upper=float(h))
                           for v, l, h in zip(names, lo, hi)),
                objective_sense="min",
                objective=LinExpr.of({v: float(c) for v, c in
                                      zip(names, rng.uniform(-1, 3, size=n))}),
                constraints=tuple(rows),
            )
            expected_status, expected_obj = scipy_solve(model)
            det = roc.lower_norms(roc.robustify_model(roc.canonicalize(model)))
            sol = roc.simplex_solve(det)
            if expected_status == "unbounded":
                # scipy may call an empty-feasible-set problem unbounded first
                assert sol.status in ("unbounded", "infeasible"), f"trial {trial}"
            else:
                assert sol.status == expected_status, f"trial {trial}"
            if expected_status == "optimal":
                assert abs(sol.objective - expected_obj) <= 1e-7 * max(1.0, abs(expected_obj)), \
                    f"trial {trial}"

    def test_bounded_variables_without_rows_flip(self):
        # no rows: the boxed column flips to its upper bound, the others rest
        # at their single bound or, free and priced at 0, at 0
        m = det_model(
            [roc.VariableDecl("x", lower=0.0, upper=3.0), roc.VariableDecl("y", lower=-2.0, upper=5.0),
             roc.VariableDecl("z", upper=4.0), roc.VariableDecl("w", lower=1.0, upper=1.0),
             roc.VariableDecl("f")],
            LinExpr.of({"x": -1.0, "y": 1.0, "z": -1.0, "w": 2.0}), [])
        sol = roc.simplex_solve(m)
        assert sol.status == "optimal"
        assert sol.values == {"w": 1.0, "x": 3.0, "y": -2.0, "z": 4.0, "f": 0.0}
        assert sol.objective == -7.0
        assert sol.iterations == 1
        m = det_model([roc.VariableDecl("f")], LinExpr.of({"f": 1.0}), [])
        assert roc.simplex_solve(m).status == "unbounded"

    @pytest.mark.parametrize("every", (1, 8, 50))
    def test_duplicate_equality_rows(self, every, monkeypatch):
        # a second copy of an "=" row leaves the row's fixed slack basic at 0
        # after the price-free dual steps; it must stay at 0 while the primal
        # steps push x up against both copies
        monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", every)
        xs = [roc.VariableDecl("x", lower=0.0, upper=10.0), roc.VariableDecl("y", lower=0.0)]
        rows = [roc.Constraint("a", LinExpr.of({"x": 1.0, "y": 1.0}), "=", 4.0),
                roc.Constraint("b", LinExpr.of({"x": 1.0, "y": 1.0}), "=", 4.0),
                roc.Constraint("c", LinExpr.of({"x": 2.0, "y": 2.0}), "=", 8.0),
                roc.Constraint("d", LinExpr.of({"x": 1.0, "y": -1.0}), "<=", 3.0)]
        sol = roc.simplex_solve(det_model(xs, LinExpr.of({"x": -1.0}), rows))
        assert sol.status == "optimal"
        assert sol.values == {"x": 3.5, "y": 0.5}
        assert sol.objective == -3.5
        lp = roc.solver._LP(det_model(xs, LinExpr.of({"x": -1.0}), rows))
        assert lp.solve()[0] == "optimal"
        # the slack basis [A | I] and nothing more: no artificial column
        assert lp.tab.T.shape == (len(rows) + 1, len(xs) + len(rows) + 1)
        rows[1] = roc.Constraint("b", LinExpr.of({"x": 1.0, "y": 1.0}), "=", 5.0)
        assert roc.simplex_solve(det_model(xs, LinExpr.of({"x": -1.0}), rows)).status == "infeasible"

    @staticmethod
    def infeasible_at_slack_basis():
        # both rows are violated at x = y = 0, the second one further
        xs = [roc.VariableDecl("x", lower=0.0, upper=6.0), roc.VariableDecl("y", lower=0.0)]
        rows = [roc.Constraint("r0", LinExpr.of({"x": 1.0, "y": 1.0}), ">=", 1.0),
                roc.Constraint("r1", LinExpr.of({"x": 1.0, "y": 3.0}), ">=", 5.0),
                roc.Constraint("r2", LinExpr.of({"x": 1.0, "y": -1.0}), "<=", 2.0)]
        model = roc.Model(tuple(xs), "min", LinExpr.of({"x": 2.0, "y": 1.0}), tuple(rows))
        return model, roc.lower_norms(roc.robustify_model(roc.canonicalize(model)))

    @pytest.mark.parametrize("every", (1, 8, None))
    def test_dual_steps_switch_to_bland(self, every, monkeypatch):
        # a pivot that changes nothing repeats the state: the price-free dual
        # steps switch from the most violated row to Bland's smallest basic
        # index and still reach HiGHS's optimum
        if every is not None:
            monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", every)
        model, det = self.infeasible_at_slack_basis()
        pivot = roc.solver._Tableau.pivot
        calls = []

        def stalled_once(tab, row, col, leave_at):
            calls.append(row)
            return False if len(calls) == 1 else pivot(tab, row, col, leave_at)

        monkeypatch.setattr(roc.solver._Tableau, "pivot", stalled_once)
        sol = roc.simplex_solve(det)
        status, expected = scipy_solve(model)
        assert sol.status == status == "optimal"
        assert rel_close(sol.objective, expected, 1e-9)
        assert calls[:2] == [1, 0]  # row 1 is the most violated; row 0's slack has the smaller index

    def test_price_free_repeat_under_bland_is_an_error(self, monkeypatch):
        # a cold phase that repeats a state under Bland's rule too gives up
        monkeypatch.setattr(roc.solver._Tableau, "pivot", lambda tab, *a: False)
        with pytest.raises(roc.SolverError, match="repeated a basis"):
            roc.simplex_solve(self.infeasible_at_slack_basis()[1])

    @staticmethod
    def feasible_at_slack_basis():
        # min -x - 3y s.t. x + y <= 4, x + 3y <= 6: only primal steps run
        xs = [roc.VariableDecl("x", lower=0.0), roc.VariableDecl("y", lower=0.0)]
        rows = [roc.Constraint("r0", LinExpr.of({"x": 1.0, "y": 1.0}), "<=", 4.0),
                roc.Constraint("r1", LinExpr.of({"x": 1.0, "y": 3.0}), "<=", 6.0)]
        model = roc.Model(tuple(xs), "min", LinExpr.of({"x": -1.0, "y": -3.0}), tuple(rows))
        return model, roc.lower_norms(roc.robustify_model(roc.canonicalize(model)))

    @pytest.mark.parametrize("every", (1, 8, None))
    def test_primal_steps_switch_to_bland(self, every, monkeypatch, caplog):
        # a pivot that changes nothing repeats the state: the primal steps
        # switch from Dantzig's y to Bland's smallest index x, log the switch
        # once, and still reach HiGHS's optimum
        if every is not None:
            monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", every)
        model, det = self.feasible_at_slack_basis()
        pivot = roc.solver._Tableau.pivot
        entering = []

        def stalled_once(tab, row, col, leave_at):
            entering.append(col)
            return False if len(entering) == 1 else pivot(tab, row, col, leave_at)

        monkeypatch.setattr(roc.solver._Tableau, "pivot", stalled_once)
        with caplog.at_level("INFO", logger="roc"):
            sol = roc.simplex_solve(det)
        status, expected = scipy_solve(model)
        assert sol.status == status == "optimal"
        assert rel_close(sol.objective, expected, 1e-9) and rel_close(expected, -6.0, 1e-12)
        assert entering == [1, 0, 1]
        switches = [r.getMessage() for r in caplog.records if "Bland" in r.getMessage()]
        assert switches == ["simplex: the primal steps repeated a basis; switching to "
                            "Bland's rule (steps so far: 1)"]

    def test_primal_repeat_under_bland_is_an_error(self, monkeypatch):
        # Bland's rule cannot cycle in exact arithmetic: a primal repeat under
        # it is a numerical failure, never an optimum
        monkeypatch.setattr(roc.solver._Tableau, "pivot", lambda tab, *a: False)
        with pytest.raises(roc.SolverError, match="repeated a basis"):
            roc.simplex_solve(self.feasible_at_slack_basis()[1])

    def test_rows_over_fixed_variables_only(self):
        xs = [roc.VariableDecl("x", lower=2.0, upper=2.0), roc.VariableDecl("y", lower=0.0)]
        for sense, rhs, status in (("=", 3.0, "infeasible"), ("=", 2.0, "optimal"),
                                   ("<=", 1.0, "infeasible"), ("<=", 2.0, "optimal")):
            m = det_model(xs, LinExpr.of({"y": 1.0}),
                          [roc.Constraint("r", LinExpr.of({"x": 1.0}), sense, rhs)])
            assert roc.simplex_solve(m).status == status, (sense, rhs)

    @pytest.mark.parametrize("every", (1, 8, None))
    def test_mixed_bounds_against_highs(self, every, monkeypatch):
        # free, upper-only, boxed and fixed columns under "<=" and "=" rows;
        # the draws include infeasible and unbounded LPs, and some solves
        # must flip a boxed column instead of pivoting
        if every is not None:
            monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", every)
        flips = []
        flip = roc.solver._Tableau.flip
        monkeypatch.setattr(roc.solver._Tableau, "flip",
                            lambda tab, *a: flips.append(1) or flip(tab, *a))
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(60):
            n = int(rng.integers(2, 7))
            names = [f"x{i}" for i in range(n)]
            variables = []
            for v in names:
                lo, hi = sorted(map(float, rng.integers(-4, 5, size=2)))
                kind = rng.choice(["lower", "upper", "box", "free", "fixed"])
                variables.append(roc.VariableDecl(
                    v, lower=-INF if kind in ("upper", "free") else lo,
                    upper={"box": hi + 1.0, "upper": hi, "fixed": lo}.get(kind, INF)))
            rows = []
            for j in range(int(rng.integers(0, 6))):
                a = np.where(rng.uniform(size=n) < 0.7, rng.integers(-3, 4, size=n), 0)
                rows.append(roc.Constraint(
                    f"r{j}", LinExpr.of(dict(zip(names, map(float, a)))),
                    "=" if rng.uniform() < 0.3 else "<=", float(rng.integers(-3, 8))))
            objective = LinExpr.of(dict(zip(names, map(float, rng.integers(-3, 4, size=n)))))
            sol = roc.simplex_solve(det_model(variables, objective, rows))
            model = roc.Model(tuple(variables), "min", objective, tuple(rows))
            status, expected = scipy_solve(model)
            if status != "optimal":  # HiGHS may mistake an empty set and an unbounded LP
                feasible = scipy_solve(roc.Model(tuple(variables), "min", LinExpr(), tuple(rows)))
                status = "unbounded" if feasible[0] == "optimal" else "infeasible"
            assert sol.status == status, f"trial {trial}"
            if status == "optimal":
                assert abs(sol.objective - expected) <= 1e-9 * max(1.0, abs(expected)), \
                    f"trial {trial}"
            seen.add(status)
        assert seen == {"optimal", "infeasible", "unbounded"}
        assert flips


class TestWarmStart:
    @staticmethod
    def highs_status(variables, objective, rows):
        model = roc.Model(tuple(variables), "min", objective, tuple(rows))
        status, expected = scipy_solve(model)
        if status != "optimal":  # HiGHS may mistake an empty set and an unbounded LP
            feasible = scipy_solve(roc.Model(tuple(variables), "min", LinExpr(), tuple(rows)))
            status = "unbounded" if feasible[0] == "optimal" else "infeasible"
        return status, expected

    @staticmethod
    def mixed_lp(rng):
        # free, upper-only, boxed and fixed columns under "<=" and "=" rows
        n = int(rng.integers(2, 7))
        names = [f"x{i}" for i in range(n)]
        variables = []
        for v in names:
            lo, hi = sorted(map(float, rng.integers(-4, 5, size=2)))
            kind = rng.choice(["lower", "upper", "box", "free", "fixed"])
            variables.append(roc.VariableDecl(
                v, lower=-INF if kind in ("upper", "free") else lo,
                upper={"box": hi + 1.0, "upper": hi, "fixed": lo}.get(kind, INF)))
        rows = []
        for j in range(int(rng.integers(1, 6))):
            a = np.where(rng.uniform(size=n) < 0.7, rng.integers(-3, 4, size=n), 0)
            rows.append(roc.Constraint(
                f"r{j}", LinExpr.of(dict(zip(names, map(float, a)))),
                "=" if rng.uniform() < 0.3 else "<=", float(rng.integers(-3, 8))))
        objective = LinExpr.of(dict(zip(names, map(float, rng.integers(-3, 4, size=n)))))
        return names, variables, objective, rows

    @staticmethod
    def append(lp, row):
        a, offset = lp.dense(row.lhs)
        lp.add_row(a, row.rhs - offset, 0.0 if row.sense == "=" else INF)

    @pytest.mark.parametrize("every", (1, 8, None))
    def test_cuts_against_highs_and_cold(self, every, monkeypatch):
        # append 1-3 rows that cut off an optimal LP's optimum, or a pair of
        # rows that empties it, to its kept tableau and solve again
        if every is not None:
            monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", every)
        rng = np.random.default_rng(2025)
        origins = []
        seen = set()
        for trial in range(150):
            names, variables, objective, rows = self.mixed_lp(rng)
            first = roc.simplex_solve(det_model(variables, objective, rows))
            if first.status != "optimal":
                continue
            x = np.array([first.values[v] for v in names])
            cuts = []
            for k in range(int(rng.integers(1, 4))):
                a = rng.integers(-3, 4, size=len(names)).astype(float)
                cuts.append(roc.Constraint(f"cut{k}", LinExpr.of(dict(zip(names, a))),
                                           "=" if rng.uniform() < 0.2 else "<=",
                                           float(a @ x) - float(rng.integers(1, 4))))
            # the first cut and its mirror image 0.5 beyond it leave no point
            cut = cuts[0]
            empty = [cut, roc.Constraint("cut_back", LinExpr.of({v: -c for v, c in cut.lhs.terms}),
                                         "<=", -cut.rhs - 0.5)]
            for extra in (cuts, empty):
                lp = roc.solver._LP(det_model(variables, objective, rows))
                assert lp.solve()[:1] == ("optimal",)
                for row in extra:
                    self.append(lp, row)
                status, steps, origin = lp.solve()
                warm = lp.solution(status, steps)
                cold = roc.simplex_solve(det_model(variables, objective, rows + extra))
                status, expected = self.highs_status(variables, objective, rows + extra)
                assert warm.status == cold.status == status, f"trial {trial}"
                seen.add(status)
                if status == "optimal":
                    assert abs(warm.objective - expected) <= 1e-9 * max(1.0, abs(expected)), \
                        f"trial {trial}"
                    assert rel_close(warm.objective, cold.objective, 1e-9), f"trial {trial}"
                    origins.append(origin)
        assert seen == {"optimal", "infeasible"}
        assert origins.count("warm start") == len(origins) > 10

    def test_cuts_that_empty_the_lp(self):
        # the dual simplex finds no entering column on a fresh tableau, which
        # proves the rows infeasible: no cold solve follows
        xs = [roc.VariableDecl("x", lower=0.0, upper=4.0), roc.VariableDecl("y", lower=0.0)]
        rows = [roc.Constraint("r", LinExpr.of({"x": 1.0, "y": 1.0}), "<=", 5.0)]
        objective = LinExpr.of({"x": -2.0, "y": -1.0})
        lp = roc.solver._LP(det_model(xs, objective, rows))
        assert lp.solve()[0] == "optimal"
        cuts = [roc.Constraint("c1", LinExpr.of({"x": 1.0}), "<=", 1.0),
                roc.Constraint("c2", LinExpr.of({"x": -1.0, "y": -1.0}), "<=", -6.0)]
        for row in cuts:
            self.append(lp, row)
        status, steps, origin = lp.solve()
        assert status == self.highs_status(xs, objective, rows + cuts)[0] == "infeasible"
        assert origin == "warm start"
        assert steps >= 1  # the dual steps taken are counted

    def test_row_that_holds_takes_no_steps(self):
        xs = [roc.VariableDecl("x", lower=0.0, upper=3.0), roc.VariableDecl("y", lower=0.0)]
        objective = LinExpr.of({"x": -1.0, "y": -1.0})
        rows = [roc.Constraint("r1", LinExpr.of({"x": 1.0, "y": 2.0}), "<=", 4.0)]
        lp = roc.solver._LP(det_model(xs, objective, rows))
        first = lp.solution(*lp.solve()[:2])
        assert lp.tab.xn[0] == 3.0  # x rests at its upper bound
        loose = roc.Constraint("loose", LinExpr.of({"x": 1.0, "y": 1.0}), "<=", 10.0)
        self.append(lp, loose)
        status, steps, origin = lp.solve()
        assert (status, steps, origin) == ("optimal", 0, "warm start")
        assert lp.solution(status, steps).values == first.values
        cut = roc.Constraint("cut", LinExpr.of({"x": 1.0, "y": 1.0}), "<=", 3.0)
        self.append(lp, cut)
        status, steps, origin = lp.solve()
        warm = lp.solution(status, steps)
        cold = roc.simplex_solve(det_model(xs, objective, rows + [loose, cut]))
        assert origin == "warm start"
        assert warm.status == cold.status == "optimal"
        assert rel_close(warm.objective, cold.objective, 1e-12)
        assert warm.objective == -3.0


class TestPessimize:
    def test_inf_ball_sign_pattern(self):
        res = pessimize(NormBall(INF, 0.1, 2), np.array([1.0, -2.0]))
        assert np.allclose(res.zstar, [0.1, -0.1])
        assert abs(res.value - 0.3) < 1e-12

    def test_two_ball_three_four_five(self):
        res = pessimize(NormBall(2.0, 1.0, 2), np.array([3.0, 4.0]))
        assert np.allclose(res.zstar, [0.6, 0.8])
        assert abs(res.value - 5.0) < 1e-12

    def test_one_ball_spike(self):
        res = pessimize(NormBall(1.0, 2.0, 3), np.array([1.0, -3.0, 2.0]))
        assert np.allclose(res.zstar, [0.0, -2.0, 0.0])
        assert abs(res.value - 6.0) < 1e-12

    def test_poly_box_matches_inf_ball(self):
        box = Polyhedral(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        res = pessimize(box, np.array([1.0, 1.0]))
        assert abs(res.value - 2.0) < 1e-9
        assert np.allclose(res.zstar, [1.0, 1.0])

    def test_minkowski_adds_values(self):
        uset = roc.MinkowskiSum((NormBall(INF, 0.5, 2), NormBall(2.0, 1.0, 2)))
        w = np.array([3.0, 4.0])
        res = pessimize(uset, w)
        assert abs(res.value - (0.5 * 7.0 + 5.0)) < 1e-9

    def test_intersection_unsupported(self):
        uset = roc.Intersection((NormBall(2.0, 1.0, 2), NormBall(INF, 1.0, 2)))
        with pytest.raises(roc.UnsupportedSetError):
            pessimize(uset, np.array([1.0, 0.0]))

    def test_zstar_membership(self):
        rng = np.random.default_rng(13)
        for trial in range(40):
            L = int(rng.integers(1, 5))
            uset = random_set(rng, L, kinds=("ball1", "ball2", "ballinf", "box"))
            w = rng.uniform(-3, 3, size=L)
            res = pessimize(uset, w)
            assert uset.contains(res.zstar, tol=1e-9), f"trial {trial}"

    def test_two_and_inf_ball_points_are_the_dual_norm_formula(self):
        # one formula gives both closed forms bit for bit, zero entries included
        rng = np.random.default_rng(5)
        for trial in range(50):
            L = int(rng.integers(1, 6))
            w = rng.normal(size=L) * (rng.uniform(size=L) < 0.7)
            if not w.any():
                w[0] = 1.0
            r = rng.uniform(0.1, 3.0)
            assert np.array_equal(pessimize(NormBall(2.0, r, L), w).zstar,
                                  r * w / np.linalg.norm(w)), f"trial {trial}"
            assert np.array_equal(pessimize(NormBall(INF, r, L), w).zstar,
                                  r * np.sign(w)), f"trial {trial}"

    def test_zero_radius(self):
        res = pessimize(NormBall(2.0, 0.0, 2), np.array([5.0, 5.0]))
        assert res.value == 0.0
        assert np.allclose(res.zstar, 0.0)

    @staticmethod
    def polytopes(rng):
        """Boxes, cross-polytopes, budget sets and random bounded D z <= d."""
        sets = []
        for L in (1, 2, 3, 5):
            sets.append(Polyhedral(np.vstack([np.eye(L), -np.eye(L)]), rng.uniform(0.1, 2.0, 2 * L)))
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=L)))
            sets.append(Polyhedral(signs, np.full(len(signs), rng.uniform(0.5, 2.0))))
        sets += [budget(3, 1.0), budget(4, 1.5), budget(6, 2.0)]
        for L, k, zeros in ((2, 3, 0), (3, 6, 1), (4, 9, 2), (6, 12, 0)):
            # G has full rank and the last row is minus the sum of its rows, so
            # the rows span R^L positively: the set is bounded; d = 0 on a
            # row puts 0 on a face, where the LPs are degenerate
            G = rng.normal(size=(k, L))
            d = rng.uniform(0.2, 2.0, k + 1)
            d[:zeros] = 0.0
            sets.append(Polyhedral(np.vstack([G, -G.sum(axis=0)]), d))
        return sets

    def test_poly_oracle_against_highs(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(21)
        for s, uset in enumerate(self.polytopes(rng)):
            L = uset.dim
            for call in range(60):  # one instance: every call after the first is warm
                w = rng.normal(size=L)
                if call % 5 == 0:
                    w[rng.integers(0, L)] = 0.0  # ties along the zeroed coordinate
                res = pessimize(uset, w)
                ref = linprog(-w, A_ub=uset.D, b_ub=uset.d, bounds=[(None, None)] * L,
                              method="highs")
                assert ref.status == 0
                assert rel_close(res.value, -ref.fun, 1e-9), (s, call)
                assert uset.contains(res.zstar, 1e-9), (s, call)
                assert w @ res.zstar == res.value
                # a cold instance may pick another optimal vertex, not another value
                fresh = pessimize(Polyhedral(uset.D, uset.d), w).value
                assert rel_close(fresh, res.value, 1e-12), (s, call)

    @pytest.mark.parametrize("every", (1, 8, None))
    def test_warm_set_rhs_against_cold(self, every, monkeypatch):
        # a kept support LP moves its basic values by B^-1 dw in place;
        # every value matches a fresh cold LP, and z* is a worst point
        if every is not None:
            monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", every)
        uset = budget(4, 2.0)
        kept = roc.solver.support_lp(uset)
        rng = np.random.default_rng(28)
        for call in range(200):
            w = rng.normal(size=uset.dim)
            if call % 7 == 0:
                w[rng.integers(0, uset.dim)] = 0.0
            cold = roc.solver.support_lp(uset)
            for lp in (kept, cold):
                lp.set_rhs(w)
                assert lp.solve()[0] == "optimal", call
            value = kept.objective()
            assert rel_close(value, cold.objective(), 1e-9), call
            z = kept.duals()
            assert np.all(uset.D @ z <= uset.d + 1e-9), call
            assert abs(w @ z - value) <= 1e-9 * max(1.0, abs(value)), call

    def test_poly_zstar_is_a_copy(self):
        uset = budget(3, 1.0)
        first = pessimize(uset, np.array([1.0, 0.5, 0.25]))
        kept = first.zstar.copy()
        pessimize(uset, np.array([-1.0, 0.5, -0.25]))
        assert np.array_equal(first.zstar, kept)

    def test_budget_extremes_pinned(self):
        lo, hi, points = roc.solver.coordinate_extremes(budget(10, 2.0))
        assert np.array_equal(lo, -np.ones(10)) and np.array_equal(hi, np.ones(10))
        assert len(points) == 20

    def test_unbounded_direction_then_bounded(self):
        quadrant = Polyhedral(np.eye(2), np.ones(2))  # z <= 1: unbounded below
        for _ in range(2):
            with pytest.raises(roc.SolverError):
                pessimize(quadrant, np.array([-1.0, 0.0]))
            res = pessimize(quadrant, np.array([1.0, 2.0]))
            assert res.value == 3.0 and np.array_equal(res.zstar, [1.0, 1.0])

    def test_one_kept_lp_per_set(self, monkeypatch):
        inits, solves = [], []
        init = roc.solver._LP.__init__
        monkeypatch.setattr(roc.solver._LP, "__init__",
                            lambda self, *a, **k: inits.append(1) or init(self, *a, **k))
        simplex = roc.solver.simplex_solve
        monkeypatch.setattr(roc.solver, "simplex_solve",
                            lambda *a, **k: solves.append(1) or simplex(*a, **k))
        uset = budget(4, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            pessimize(uset, rng.normal(size=4))
        assert len(inits) == 1 and not solves


class TestCuttingPlane:
    def test_example1_agrees_with_reformulation(self):
        _, _, post, _, det = full_pipeline(fixture_text("ex1.roc"))
        ref = roc.solve_deterministic(det)
        cut = roc.cutting_plane_solve(post)
        assert ref.status == cut.status == "optimal"
        assert rel_close(ref.objective, cut.objective, 1e-6)

    def test_zero_radius_equals_nominal(self):
        src = fixture_text("ex1.roc")
        _, _, post, _, _ = full_pipeline(src.replace("r=0.1", "r=0"))
        nominal = roc.simplex_solve(full_pipeline(src.replace("r=0.1", "r=0"))[4])
        cut = roc.cutting_plane_solve(post)
        assert abs(cut.objective - nominal.objective) < 1e-12

    def test_robust_diet_infeasible_any_radius(self):
        for r in ("0", "0.1", "1", "10"):
            src = fixture_text("diet.roc").replace("r=0.1", f"r={r}")
            _, _, post, _, det = full_pipeline(src)
            assert roc.solve_deterministic(det).status == "infeasible"
            assert roc.cutting_plane_solve(post).status == "infeasible"

    def test_monotone_in_radius(self):
        objs = []
        for r in ("0", "0.02", "0.05", "0.1", "0.2"):
            src = fixture_text("ex1.roc").replace("r=0.1", f"r={r}")
            _, _, post, _, _ = full_pipeline(src)
            objs.append(roc.cutting_plane_solve(post).objective)
        for a, b in zip(objs, objs[1:]):
            assert a <= b + 1e-8

    def test_rejects_adaptive_rows(self):
        pre = roc.canonicalize(roc.parse_model(fixture_text("cover2.roc")))
        with pytest.raises(roc.SolverError):
            roc.cutting_plane_solve(pre)

    def test_oracle_agreement_random(self):
        for seed in range(25, 40):
            cm = random_instance(seed, kinds=BALL_KINDS)
            ref, cut = solve_canonical_both(cm)
            assert ref.status == cut.status == "optimal", f"seed {seed}"
            assert rel_close(ref.objective, cut.objective, 1e-6), \
                f"seed {seed}: {ref.objective} vs {cut.objective}"

    def test_oracle_agreement_general_p(self):
        # 3- and 1.5-balls: the cone loop cuts norm rows with q = 1.5 and 3
        for seed in range(25, 65):
            cm = random_instance(seed, kinds=GENERAL_P_KINDS)
            ref, cut = solve_canonical_both(cm)
            assert ref.status == cut.status == "optimal", f"seed {seed}"
            assert rel_close(ref.objective, cut.objective, 1e-6), \
                f"seed {seed}: {ref.objective} vs {cut.objective}"

    def test_intersection_rejected_before_any_lp(self, monkeypatch):
        post = roc.apply_ldr(roc.canonicalize(roc.parse_model(fixture_text("intersect.roc"))))
        solves = []
        monkeypatch.setattr(roc.solver._LP, "solve", lambda *a: solves.append(a))
        with pytest.raises(roc.UnsupportedSetError, match="no pessimization oracle"):
            roc.cutting_plane_solve(post)
        assert not solves

    def test_debug_line_per_round(self, caplog):
        _, _, post, _, det = full_pipeline(fixture_text("ex1.roc"))
        for solve, model in ((roc.solve_deterministic, det), (roc.cutting_plane_solve, post)):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="roc"):
                sol = solve(model)
            assert sol.status == "optimal"
            assert len(caplog.records) == sol.iterations > 1
            assert all(r.levelname == "DEBUG" for r in caplog.records)
            # no pool fills up in these few rounds
            assert all(", 0 evicted, " in r.getMessage() for r in caplog.records)

    def test_debug_line_shows_start(self, caplog):
        # the first master solves cold, every later one from the previous basis
        _, _, post, _, det = full_pipeline(fixture_text("ex1.roc"))
        for solve, model in ((roc.solve_deterministic, det), (roc.cutting_plane_solve, post)):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="roc"):
                sol = solve(model)
            lines = [r.getMessage() for r in caplog.records]
            assert len(lines) == sol.iterations > 1
            assert lines[0].endswith("pivots") and ", cold start, " in lines[0]
            assert all(", warm start, " in line for line in lines[1:]), lines

    def test_small_cut_pools_evict(self, monkeypatch, caplog):
        # a full pool evicts its oldest cut that does not bind, deleted from
        # the kept tableau in place, and keeps its binding cuts, so no pool
        # cycles to the round limit
        default = roc.solver.CUT_POOL
        evictions, drops = [], []
        evict, drop = roc.solver._LP.drop_row, roc.solver._Tableau.drop_row
        monkeypatch.setattr(roc.solver._LP, "drop_row", lambda lp, k: evictions.append(k) or evict(lp, k))
        monkeypatch.setattr(roc.solver._Tableau, "drop_row",
                            lambda tab, *a: drops.append(a) or drop(tab, *a))
        cases = [(full_pipeline(fixture_text("dense_ball2.roc"))[2], (8, 12))]
        cases += [(random_instance(seed), pools)
                  for seed, pools in ((1, (1,)), (13, (2,)), (15, (1, 2)), (18, (2,)))]
        evicted = 0
        for model, pools in cases:
            monkeypatch.setattr(roc.solver, "CUT_POOL", default)
            expected = solve_canonical_both(model)[0]
            for pool in pools:
                monkeypatch.setattr(roc.solver, "CUT_POOL", pool)
                evictions.clear()
                drops.clear()
                caplog.clear()
                with caplog.at_level("DEBUG", logger="roc"):
                    ref, cut = solve_canonical_both(model)
                assert ref.status == cut.status == expected.status == "optimal", pool
                assert rel_close(ref.objective, cut.objective, 1e-6), pool
                assert rel_close(ref.objective, expected.objective, 1e-6), pool
                lines = [r.getMessage() for r in caplog.records]
                assert sum(int(re.search(r", (\d+) evicted, ", line)[1]) for line in lines) \
                    == len(evictions) == len(drops)
                assert ref.iterations < roc.solver.MAX_ROUNDS > cut.iterations, pool
                assert not any("an evicted cut was binding" in line for line in lines)
                evicted += len(evictions)
        assert evicted

    def test_full_pool_keeps_binding_cuts(self, monkeypatch, caplog):
        # x + y + max(x, y) <= 2 is met at x = y = 2/3 by the cuts of z = e1
        # and z = e2, which both bind there: a pool of one keeps both, since
        # evicting the older one would let the loop alternate between them
        src = """var x >= 0 <= 1; var y >= 0 <= 1;
            max: x + y;
            c: x + y <= 2 uncertain(on=[x, y], Z=ball(p=1, r=1, dim=2));"""
        monkeypatch.setattr(roc.solver, "CUT_POOL", 1)
        with caplog.at_level("DEBUG", logger="roc"):
            sol = roc.cutting_plane_solve(full_pipeline(src)[2])
        assert sol.status == "optimal"
        assert abs(sol.objective + 4 / 3) <= 1e-12
        lines = [r.getMessage() for r in caplog.records]
        assert [re.search(r"(\d+) cuts added, (\d+) evicted", line).groups() for line in lines] \
            == [("1", "0"), ("1", "0"), ("0", "0")]

    def test_dropped_row_keeps_a_valid_rollback_point(self, monkeypatch):
        # a cut evicted from an updated tableau leaves its slack's column in
        # the basis a singular refactorization rolls back to, or is
        # refactorized first: either way that basis stays square and regular
        drop = roc.solver._Tableau.drop_row
        kinds = []

        def checked(tab, i):
            kinds.append((tab.xn.size - tab.m + i in tab.factored, bool(tab.updates)))
            drop(tab, i)
            rollback = tab.A_ext[:, tab.factored]
            assert rollback.shape == (tab.m, tab.m) and tab.factored_xn.size == tab.xn.size
            assert np.linalg.matrix_rank(rollback) == tab.m

        monkeypatch.setattr(roc.solver._Tableau, "drop_row", checked)
        monkeypatch.setattr(roc.solver, "CUT_POOL", 2)
        models = [full_pipeline(fixture_text("dense_ball2.roc"))[2]]
        models += [random_instance(seed) for seed in (1, 13, 15, 18)]
        for model in models:
            ref, cut = solve_canonical_both(model)
            assert ref.status == cut.status == "optimal"
        assert {(True, True), (False, True)} <= set(kinds)

    @pytest.mark.parametrize("n, m, seed, r, feas_tol", [(20, 10, 1, 0.5, 1e-10),
                                                         (30, 15, 2, 2.0, roc.solver.FEAS_TOL)])
    def test_long_loops_converge(self, n, m, seed, r, feas_tol):
        # long loops whose pools fill with binding cuts: evicting one of them
        # lets the next round re-add it, and the loop cycles to the round limit
        _, _, post, _, det = full_pipeline(dense_ball_text(n, m, "2", seed, r=r, mixed=True))
        ref = roc.solve_deterministic(det, feas_tol=feas_tol)
        cut = roc.cutting_plane_solve(post, feas_tol=feas_tol)
        assert ref.status == cut.status == "optimal"
        assert rel_close(ref.objective, cut.objective, 1e-6)

    def test_warm_round_factorizes_once(self, monkeypatch):
        # a warm round appends its cuts to the kept tableau in place; the one
        # factorization is the refresh before the optimal verdict
        factors = []
        factor = roc.solver._Tableau._factor
        monkeypatch.setattr(roc.solver._Tableau, "_factor", lambda tab: factors.append(1) or factor(tab))
        solve = roc.solver._LP.solve
        rounds = []

        def counted(lp, *args):
            before = len(factors)
            out = solve(lp, *args)
            rounds.append((out[2], len(factors) - before))
            return out

        monkeypatch.setattr(roc.solver._LP, "solve", counted)
        for name in ("ex1.roc", "dense_ball2.roc"):
            _, _, post, _, det = full_pipeline(fixture_text(name))
            for solve_model, model in ((roc.solve_deterministic, det), (roc.cutting_plane_solve, post)):
                rounds.clear()
                assert solve_model(model).status == "optimal"
                warm = [n for origin, n in rounds if origin == "warm start"]
                assert len(warm) == len(rounds) - 1 > 0, name
                assert max(warm) <= 1, name

    @staticmethod
    def fixture_loops():
        """(fixture, solve, model) for both loops on ex1.roc and dense_ball2.roc."""
        for name in ("ex1.roc", "dense_ball2.roc"):
            _, _, post, _, det = full_pipeline(fixture_text(name))
            yield name, roc.solve_deterministic, det
            yield name, roc.cutting_plane_solve, post

    def test_warm_round_takes_no_factorization(self, monkeypatch):
        # a warm round whose in-place steps, counted from the last
        # factorization, stay below REFACTOR_EVERY decides on its certificate
        factors = []
        factor = roc.solver._Tableau._factor
        monkeypatch.setattr(roc.solver._Tableau, "_factor", lambda tab: factors.append(1) or factor(tab))
        solve = roc.solver._LP.solve
        rounds = []

        def counted(lp, *args):
            before, updates = len(factors), lp.tab.updates
            out = solve(lp, *args)
            rounds.append((out[2], updates + out[1], len(factors) - before))
            return out

        monkeypatch.setattr(roc.solver._LP, "solve", counted)
        for name, solve_model, model in self.fixture_loops():
            rounds.clear()
            assert solve_model(model).status == "optimal"
            below = [n for origin, steps, n in rounds
                     if origin == "warm start" and steps < roc.solver.REFACTOR_EVERY]
            assert below and not any(below), (name, rounds)

    def test_planted_drift_refactorizes(self, monkeypatch):
        # one basic value pushed 1e-4 off after the first in-place pivot of
        # every solve: the certificate fails, the driver refactorizes, and
        # the answer is the one without the drift
        expected = [solve_model(model).objective for _, solve_model, model in self.fixture_loops()]
        pivot, residuals = roc.solver._Tableau.pivot, roc.solver._Tableau.residuals
        solve, factor = roc.solver._LP.solve, roc.solver._Tableau._factor
        planted, failed = [], []  # failed: [updates at the failure, refactorized since]

        def drifting(tab, row, col, leave_at):
            rolled_back = pivot(tab, row, col, leave_at)
            if tab.updates and not planted[-1]:
                tab.T[row, -1] += 1e-4
                planted[-1] = True
            return rolled_back

        def checked(tab):
            primal, dual = residuals(tab)
            if planted[-1] and max(primal, dual) > roc.solver.FEAS_TOL:
                failed.append([tab.updates, False])
            return primal, dual

        def refactorized(tab):
            if failed:
                failed[-1][1] = True
            factor(tab)

        def fresh_flag(lp, *args):
            planted.append(False)
            return solve(lp, *args)

        monkeypatch.setattr(roc.solver._Tableau, "pivot", drifting)
        monkeypatch.setattr(roc.solver._Tableau, "residuals", checked)
        monkeypatch.setattr(roc.solver._LP, "solve", fresh_flag)
        monkeypatch.setattr(roc.solver._Tableau, "_factor", refactorized)
        for (name, solve_model, model), objective in zip(self.fixture_loops(), expected):
            planted.clear()
            failed.clear()
            sol = solve_model(model)
            assert sol.status == "optimal"
            assert rel_close(sol.objective, objective, 1e-9), name
            # every planted drift fails its certificate on the updated
            # tableau, and a refactorization follows
            assert 0 < len(failed) == sum(planted), name
            assert all(updates and refactored for updates, refactored in failed), name

    def test_near_parallel_cut_conditioning(self):
        # regression: accumulating near-parallel cone cuts once drifted the
        # dense tableau off the feasible region (claimed optimum -29.78 vs
        # true -35.07); refactorizing before every terminal decision keeps
        # both routes agreeing
        cm = random_instance(9019)
        ref, cut = solve_canonical_both(cm)
        assert ref.status == cut.status == "optimal"
        assert rel_close(ref.objective, cut.objective, 1e-6)
        det = roc.lower_norms(roc.robustify_model(cm))
        sol = roc.solve_deterministic(det)
        for row in det.linear_rows:
            lhs = row.lhs.evaluate(sol.values)
            if row.sense == "<=":
                assert lhs <= row.rhs + 1e-7, row.id
            else:
                assert abs(lhs - row.rhs) <= 1e-7, row.id

    def test_heavily_binding_uncertainty(self):
        # regression: large radii once stalled the simplex on noise-driven
        # degenerate cycles (a basic column "re-entering" against itself)
        # and on singular bases; seeds cover the previously failing cases
        for seed in (15, 22, 100, 327, 1554, 1567, 2208, 2881):
            cm = aggressive_instance(seed)
            ref, cut = solve_canonical_both(cm)
            assert ref.status == cut.status == "optimal", f"seed {seed}"
            assert rel_close(ref.objective, cut.objective, 1e-6), f"seed {seed}"

    @pytest.mark.parametrize("every", REFACTOR_INTERVALS)
    def test_regressions_at_refactor_interval(self, every, monkeypatch):
        # the outcome must not depend on how many in-place pivots run
        # between refactorizations
        monkeypatch.setattr(roc.solver, "REFACTOR_EVERY", every)
        self.test_near_parallel_cut_conditioning()
        self.test_heavily_binding_uncertainty()

    def test_polyhedral_uncertainty_from_dsl(self):
        src = (
            "var x1 >= 0; var x2 >= 0;"
            "max: 4*x1 + 3*x2;"
            "c: x1 + x2 <= 10 uncertain(Z=poly(D=[[1,1],[-1,0],[0,-1]], d=[0.5,0.4,0.3]));")
        _, _, post, _, det = full_pipeline(src)
        ref = roc.solve_deterministic(det)
        cut = roc.cutting_plane_solve(post)
        assert ref.status == cut.status == "optimal"
        assert rel_close(ref.objective, cut.objective, 1e-6)
