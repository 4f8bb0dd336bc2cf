"""Acceptance criteria, one test per criterion.

Each test prints `[criterion N] PASS/FAIL` (visible with `pytest -s`); the
assertions pin the tolerances stated in the criteria.
"""
import math
import re
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import roc
from roc.cli import main as cli_main

from support import (BALL_KINDS, FIXTURES, fixture_text, full_pipeline,
                     random_instance, rel_close, solve_canonical_both)

INF = math.inf


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[criterion {n:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {n:2d}] PASS  {desc}")


def strip_uncertainty(src: str) -> str:
    src = re.sub(r"\s*rhs_uncertain\([^;]*\)", "", src)
    src = re.sub(r"\s*(?<![_a-z])uncertain\([^;]*\)", "", src)
    return src


def zero_radius(src: str) -> str:
    return re.sub(r"r=[0-9.]+", "r=0", src)


def pruned_rc(rcm: roc.RcModel) -> roc.RcModel:
    rows = tuple(replace(r, norm_terms=tuple(t for t in r.norm_terms if t.weight != 0.0))
                 for r in rcm.rows)
    return roc.RcModel(rcm.vars, rcm.objective, rows)


def test_criterion_1_example1_agreement_and_validity():
    with criterion(1, "Example-1: oracle agreement, clean verification, < 1 s"):
        start = time.perf_counter()
        _, pre, post, _, det = full_pipeline(fixture_text("ex1.roc"))
        ref = roc.solve_deterministic(det)
        cut = roc.cutting_plane_solve(post)
        assert ref.status == cut.status == "optimal"
        assert rel_close(ref.objective, cut.objective, 1e-6)
        report = roc.verify_solution(pre, ref, n=10_000, seed=42, ldr=post.ldr,
                                     oracle_gap=abs(ref.objective - cut.objective))
        elapsed = time.perf_counter() - start
        assert report.violations == 0
        assert report.verdict == "pass"
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


def test_criterion_2_nominal_recovery():
    with criterion(2, "zero radius reproduces the nominal optimum and structure"):
        # value recovery on every fixture
        for name in ("ex1.roc", "diet.roc", "signflip.roc", "intersect.roc", "cover2.roc"):
            src = fixture_text(name)
            robust0 = zero_radius(src)
            nominal = strip_uncertainty(robust0)
            nominal = nominal.replace("adaptive var", "var").replace(" rule=linear", "")
            _, _, post, _, det = full_pipeline(robust0)
            sol = roc.solve_deterministic(det)
            nom = roc.solve_deterministic(full_pipeline(nominal)[4])
            assert sol.status == nom.status, name
            if sol.status == "optimal":
                assert abs(sol.objective - nom.objective) <= 1e-9 * max(1.0, abs(nom.objective)), name
        # structural identity for the plain-ball fixtures (no aux machinery)
        for name in ("ex1.roc", "diet.roc", "signflip.roc"):
            robust0 = zero_radius(fixture_text(name))
            nominal = strip_uncertainty(robust0)
            rc_robust = pruned_rc(roc.robustify_model(full_pipeline(robust0)[2]))
            rc_nominal = roc.robustify_model(full_pipeline(nominal)[2])
            assert rc_robust == rc_nominal, name


def test_criterion_3_diet_infeasible():
    with criterion(3, "diet fixture infeasible nominally and for every radius"):
        src = fixture_text("diet.roc")
        nominal = strip_uncertainty(src)
        assert roc.solve_deterministic(full_pipeline(nominal)[4]).status == "infeasible"
        for r in ("0", "0.1", "1", "10"):
            robust = src.replace("r=0.1", f"r={r}")
            _, _, post, _, det = full_pipeline(robust)
            assert roc.solve_deterministic(det).status == "infeasible", r
            assert roc.cutting_plane_solve(post).status == "infeasible", r


def test_criterion_4_dual_norm_table():
    with criterion(4, "dual-norm table and involution"):
        assert roc.dual_norm(1) == INF
        assert roc.dual_norm(INF) == 1.0
        assert roc.dual_norm(2) == 2.0
        rng = np.random.default_rng(4)
        for p in 1.0 + 9.0 * rng.uniform(size=20):
            assert abs(roc.dual_norm(roc.dual_norm(p)) - p) <= 1e-12


def test_criterion_5_sign_flip_regression():
    with criterion(5, "canonical coefficients of 100x1+x2 >= 10+x1 are (-99, -1)"):
        pre = roc.canonicalize(roc.parse_model(fixture_text("signflip.roc")))
        row = next(r for r in pre.rows if r.id == "c")
        assert row.lhs == roc.LinExpr.of({"x1": -99.0, "x2": -1.0})
        assert row.rhs == -10.0


def test_criterion_6_intersection_vs_minkowski():
    with criterion(6, "intersection keeps splitter rows and differs from Minkowski"):
        src = fixture_text("intersect.roc")
        r1, r2 = 0.6, 0.5
        L = 2
        # precondition: neither ball contains the other
        assert r2 < r1 < r2 * math.sqrt(L)
        _, _, post, rcm, det = full_pipeline(src)
        # splitter coupling rows w1 + w2 = P^T x are present
        eq_rows = [r for r in rcm.rows if r.sense == "="]
        assert len(eq_rows) == L
        for row in eq_rows:
            assert any(v.startswith("_w") for v in row.lhs.vars())
        inter = roc.solve_deterministic(det).objective
        mink = roc.solve_deterministic(
            full_pipeline(src.replace("intersect", "minkowski"))[4]).objective
        assert abs(inter - mink) > 1e-6
        # intersecting a set with itself changes nothing
        plain = src.replace(
            "intersect(ball(p=2, r=0.6, dim=2), ball(p=inf, r=0.5, dim=2))",
            "ball(p=inf, r=0.5, dim=2)")
        doubled = src.replace(
            "intersect(ball(p=2, r=0.6, dim=2), ball(p=inf, r=0.5, dim=2))",
            "intersect(ball(p=inf, r=0.5, dim=2), ball(p=inf, r=0.5, dim=2))")
        a = roc.solve_deterministic(full_pipeline(doubled)[4]).objective
        b = roc.solve_deterministic(full_pipeline(plain)[4]).objective
        assert rel_close(a, b, 1e-6)
        # Minkowski sum with {0} changes nothing
        padded = src.replace(
            "intersect(ball(p=2, r=0.6, dim=2), ball(p=inf, r=0.5, dim=2))",
            "minkowski(ball(p=inf, r=0.5, dim=2), ball(p=2, r=0, dim=2))")
        c = roc.solve_deterministic(full_pipeline(padded)[4]).objective
        assert rel_close(c, b, 1e-6)


def test_criterion_7_aro_suite():
    with criterion(7, "decision rules: consistency, advantage, structure, validity"):
        src = fixture_text("cover2.roc")
        _, pre, post, _, det = full_pipeline(src)
        ldr_sol = roc.solve_deterministic(det)
        static_src = src.replace("rule=linear", "rule=static")
        static = roc.solve_deterministic(full_pipeline(static_src)[4])
        here_src = static_src.replace("adaptive var ", "var ").replace(" rule=static", "")
        here = roc.solve_deterministic(full_pipeline(here_src)[4])
        # (a) frozen-rule optimum equals the here-and-now robust optimum
        assert abs(static.objective - here.objective) <= 1e-8
        # (b) adaptivity never hurts, and strictly helps on this fixture
        assert ldr_sol.objective <= static.objective + 1e-8
        assert ldr_sol.objective < static.objective - 1e-6
        # (c) structural: the lowered row carries the argument P^T x + V d
        P = np.array([[1.0], [2.0]])
        row = roc.Constraint(
            "c", roc.LinExpr.of({"x1": 1.0, "x2": 1.0}), "<=", 5.0,
            uncertainty=roc.UncertainBlock(("x1", "x2"), P, roc.NormBall(INF, 0.3, 1)),
            adaptive=roc.LinExpr.of({"y": 2.0}))
        cm = roc.CanonicalModel(
            vars=(roc.VariableDecl("x1"), roc.VariableDecl("x2"),
                  roc.VariableDecl("y", stage="wait-and-see", rule="linear")),
            objective=roc.LinExpr.of({"x1": 1.0}),
            rows=(row,))
        rcm = roc.robustify_model(roc.apply_ldr(cm))
        term = rcm.rows[0].norm_terms[0]
        assert term.q == 1.0
        assert term.arg[0] == roc.LinExpr.of({"x1": 1.0, "x2": 2.0, "_v_y_1": 2.0})
        # (d) sampled policy validity
        report = roc.verify_solution(pre, ldr_sol, n=10_000, seed=7, ldr=post.ldr)
        assert report.violations == 0
        assert report.max_violation <= 1e-7


def test_criterion_8_randomized_oracle_equivalence():
    with criterion(8, "50 random instances: reformulation == cutting plane"):
        start = time.perf_counter()
        for seed in range(50):
            cm = random_instance(1000 + seed, kinds=BALL_KINDS)
            ref, cut = solve_canonical_both(cm)
            assert ref.status == cut.status == "optimal", f"seed {seed}"
            assert rel_close(ref.objective, cut.objective, 1e-6), \
                f"seed {seed}: {ref.objective} vs {cut.objective}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"random suite took {elapsed:.1f}s"


def test_criterion_9_box_polyhedron_matches_inf_ball():
    with criterion(9, "box polyhedron RC equals the closed-form inf-ball RC"):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            L = int(rng.integers(1, 4))
            rho = float(rng.uniform(0.05, 0.4))
            names = [f"x{i + 1}" for i in range(n)]
            P = rng.uniform(-1, 1, size=(n, L))

            def build(uset):
                a = rng_state["a"]
                rows = (roc.Constraint(
                    "r", roc.LinExpr.of(dict(zip(names, map(float, a)))), "<=",
                    float(np.sum(np.abs(a)) + 1.0),
                    uncertainty=roc.UncertainBlock(tuple(names), P, uset)),)
                return roc.CanonicalModel(
                    vars=tuple(roc.VariableDecl(v, lower=0.0, upper=10.0) for v in names),
                    objective=roc.LinExpr.of({v: float(c) for v, c in
                                              zip(names, rng_state["c"])}),
                    rows=rows)

            rng_state = {"a": rng.uniform(-3, 3, size=n), "c": rng.uniform(-5, 5, size=n)}
            ball_model = build(roc.NormBall(INF, rho, L))
            box = roc.Polyhedral(np.vstack([np.eye(L), -np.eye(L)]), rho * np.ones(2 * L))
            box_model = build(box)
            a = roc.solve_deterministic(roc.lower_norms(roc.robustify_model(ball_model)))
            b = roc.solve_deterministic(roc.lower_norms(roc.robustify_model(box_model)))
            assert a.status == b.status == "optimal", f"trial {trial}"
            assert rel_close(a.objective, b.objective, 1e-6), f"trial {trial}"


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "byte-identical reports and LP emissions across runs"):
        for name in ("ex1.roc", "cover2.roc"):
            path = str(FIXTURES / name)
            outs = []
            for run in range(2):
                out = tmp_path / f"{name}.{run}.json"
                code = cli_main(["pipeline", path, "--samples", "500", "--seed", "42",
                                 "-o", str(out)])
                assert code == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], name
        lps = []
        for run in range(2):
            out = tmp_path / f"run{run}.lp"
            assert cli_main(["emit", str(FIXTURES / "ex1.roc"), "--allow-soc-comment",
                             "-o", str(out)]) == 0
            lps.append(out.read_bytes())
        assert lps[0] == lps[1]
