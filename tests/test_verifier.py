"""Sampling and verification: membership, stress points, reproducibility."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import roc
from roc import NormBall, Polyhedral, sample_set, stress_points, verify

from support import budget, fixture_text, full_pipeline

INF = math.inf


def p_norms(Z, p):
    return np.sum(np.abs(Z) ** p, axis=1) ** (1.0 / p)


class TestSampling:
    def test_inf_ball_membership_and_corners(self):
        uset = NormBall(INF, 1.0, 2)
        Z = sample_set(uset, n=4, seed=7)
        assert len(Z) > 4  # stress points appended
        assert all(uset.contains(z) for z in Z)
        pts = {tuple(z) for z in Z}
        for corner in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert tuple(map(float, corner)) in pts

    def test_ball_axis_extremes(self):
        for p in (1.0, 2.0, INF):
            uset = NormBall(p, 0.5, 3)
            pts = {tuple(z) for z in stress_points(uset)}
            for i in range(3):
                e = np.zeros(3)
                e[i] = 0.5
                assert tuple(e) in pts
                assert tuple(-e) in pts

    def test_corner_count_capped(self):
        # 2^L corners only for L <= 10
        assert len(stress_points(NormBall(INF, 1.0, 2))) == 4 + 4
        assert len(stress_points(NormBall(INF, 1.0, 12))) == 24

    def test_corners_in_product_order(self):
        # the corners follow the axes, in the order itertools.product gives
        for L in range(1, 11):
            corners = stress_points(NormBall(INF, 0.5, L))[2 * L:]
            expected = 0.5 * np.array(list(itertools.product((-1.0, 1.0), repeat=L)))
            assert corners.dtype == expected.dtype and np.array_equal(corners, expected)

    def test_zero_radius_all_zero(self):
        Z = sample_set(NormBall(2.0, 0.0, 3), n=16, seed=1)
        assert np.allclose(Z, 0.0)

    def test_two_ball_membership(self):
        uset = NormBall(2.0, 2.0, 4)
        Z = sample_set(uset, n=500, seed=3)
        norms = np.linalg.norm(Z, axis=1)
        assert np.all(norms <= 2.0 + 1e-9)
        assert norms.max() > 1.5  # samples reach near the boundary

    def test_one_ball_membership(self):
        uset = NormBall(1.0, 1.5, 3)
        Z = sample_set(uset, n=500, seed=4)
        assert np.all(np.abs(Z).sum(axis=1) <= 1.5 + 1e-9)

    def test_poly_membership_tight_tolerance(self):
        box = Polyhedral(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        Z = sample_set(box, n=300, seed=5)
        assert np.all(box.D @ Z.T <= box.d[:, None] + 1e-12)

    def test_budget_poly_spreads_inside(self):
        uset = budget(3, 2.0)
        Z = sample_set(uset, n=10_000, seed=5)[:10_000]
        assert np.all(uset.D @ Z.T <= uset.d[:, None] + 1e-12)
        # the samples leave 0: uniform on this set has mean |z|_1 ~ 1.34
        assert np.abs(Z).sum(axis=1).mean() > 1.0
        assert np.count_nonzero(np.all(Z == 0.0, axis=1)) <= 3

    def test_many_row_poly_sampled_in_blocks(self):
        uset = budget(10, 2.0)  # 1044 rows: far more chains than one block holds
        assert verify.SAMPLE_BLOCK // len(uset.d) < 10_000
        Z = verify._sample_poly(uset, 10_000, np.random.default_rng(1))
        assert len(Z) == 10_000
        assert np.all(uset.D @ Z.T <= uset.d[:, None] + 1e-12)

    def test_cross_polytope_uniform(self):
        # budget(3, 1) is the unit cross-polytope: P(|z|_1 <= 1/2) = (1/2)^3
        Z = sample_set(budget(3, 1.0), n=20_000, seed=9)[:20_000]
        assert abs(np.mean(np.abs(Z).sum(axis=1) <= 0.5) - 0.125) < 0.01

    def test_poly_samples_exactly_inside(self):
        uset = budget(3, 1.0)
        Z = verify._sample_poly(uset, 10_000, np.random.default_rng(2))
        assert len(Z) == 10_000
        assert np.all(uset.D @ Z.T <= uset.d[:, None])

    def test_poly_sampler_work(self, monkeypatch):
        """Candidates tested by box rejection and points drawn by chains."""
        tested, chained, limit = [], [], [15_000]
        rejection, hit_and_run = verify._rejection, verify._hit_and_run

        def counted(draw):
            def draw_counted(size):
                tested.append(size)
                assert sum(tested) <= limit[0], "box rejection did not stop"
                return draw(size)
            return draw_counted

        monkeypatch.setattr(verify, "_rejection",
                            lambda draw, *a, **k: rejection(counted(draw), *a, **k))
        monkeypatch.setattr(verify, "_hit_and_run",
                            lambda uset, n, rng: chained.append(n) or hit_and_run(uset, n, rng))
        # most of the box lies in budget(3, 2): rejection alone, no chains
        Z = verify._sample_poly(budget(3, 2.0), 10_000, np.random.default_rng(1))
        assert len(Z) == 10_000 and chained == []
        # budget(10, 2) fills about 3e-4 of its box: one block, then chains
        uset = budget(10, 2.0)
        tested.clear()
        limit[0] = verify.SAMPLE_BLOCK // len(uset.d)
        Z = verify._sample_poly(uset, 1000, np.random.default_rng(1))
        assert len(Z) == 1000
        assert len(chained) == 1 and chained[0] >= 1000 - sum(tested)

    def test_axis_flat_poly_sampled_on_its_face(self, caplog):
        # -1 <= z1 <= 1, z2 = 0: the box has lo == hi == 0 along z2
        flat = Polyhedral(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                          np.array([1.0, 1.0, 0.0, 0.0]))
        with caplog.at_level("WARNING", logger="roc"):
            Z = sample_set(flat, n=1000, seed=1)[:1000]
        assert len(Z) == 1000 and not caplog.text
        assert np.all(Z[:, 1] == 0.0) and np.ptp(Z[:, 0]) > 1.5

    def test_tilted_flat_poly_gets_no_samples(self, caplog):
        # z1 = z2 as two rows: box candidates miss it, chains cannot move
        flat = Polyhedral(np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]),
                          np.array([0.0, 0.0, 1.0, 1.0]))
        with caplog.at_level("WARNING", logger="roc"):
            Z = sample_set(flat, n=1000, seed=1)
        assert len(Z) == len(stress_points(flat))
        assert "hit-and-run produced 0 of 1000 samples" in caplog.text

    def test_general_p_ball_exact(self):
        uset = NormBall(3.0, 0.1, 40)
        Z = sample_set(uset, n=1000, seed=42)
        assert len(Z) == 1000 + len(stress_points(uset))
        assert np.all(p_norms(Z, 3.0) <= 0.1 + 1e-9)

    def test_general_p_ball_uniform_radius(self):
        # uniform in the unit 3-ball of R^2: P(|z|_3 < 1/2) = (1/2)^2
        Z = sample_set(NormBall(3.0, 1.0, 2), n=20_000, seed=9)[:20_000]
        assert abs(np.mean(p_norms(Z, 3.0) < 0.5) - 0.25) < 0.015

    def test_poly_stress_vertices(self):
        # [I; -I] z <= (1, 1, 2, 2) is the box [-2, 1] x [-2, 1]
        box = Polyhedral(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 2.0, 2.0]))
        pts = stress_points(box)
        assert len(pts) == 4  # one per coordinate LP
        assert all(box.contains(p) for p in pts)
        # every coordinate extreme is attained by some stress point
        for l, extreme in ((0, 1.0), (0, -2.0), (1, 1.0), (1, -2.0)):
            assert any(abs(p[l] - extreme) < 1e-9 for p in pts)

    def test_poly_stress_points_solved_once(self, monkeypatch):
        calls = []
        solve = roc.solver._LP.solve  # one call per polytope LP
        monkeypatch.setattr(roc.solver._LP, "solve",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        box = Polyhedral(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 2.0, 2.0]))
        first = stress_points(box)
        assert len(calls) == 4  # 2L coordinate LPs
        assert np.array_equal(stress_points(box), first)
        assert len(calls) == 4  # kept on the set

    def test_intersection_rejection(self):
        uset = roc.Intersection((NormBall(2.0, 1.0, 2), NormBall(INF, 0.5, 2)))
        Z = sample_set(uset, n=200, seed=6)
        assert all(uset.contains(z) for z in Z)
        # stress pool keeps only points inside every member
        for z in stress_points(uset):
            assert uset.contains(z)

    def test_thin_intersection_stops_at_cap(self, monkeypatch, caplog):
        drawn = []
        sample_ball = verify._sample_ball
        monkeypatch.setattr(verify, "_sample_ball",
                            lambda uset, n, rng: drawn.append(n) or sample_ball(uset, n, rng))
        # the 1-ball of radius 0.5 fills about 1e-7 of the cube [-1, 1]^8
        uset = roc.Intersection((NormBall(INF, 1.0, 8), NormBall(1.0, 0.5, 8)))
        with caplog.at_level("WARNING", logger="roc"):
            Z = sample_set(uset, n=1000, seed=3)
        assert len(Z) - len(stress_points(uset)) < 1000
        assert sum(drawn) <= verify.REJECTION_CAP
        assert "kept" in caplog.text

    def test_minkowski_sum_bound(self):
        uset = roc.MinkowskiSum((NormBall(INF, 0.5, 2), NormBall(INF, 0.25, 2)))
        Z = sample_set(uset, n=200, seed=8)
        assert np.all(np.abs(Z) <= 0.75 + 1e-9)
        # stress combinations reach the composite corner
        assert np.isclose(np.abs(stress_points(uset)).max(), 0.75)

    def test_reproducible(self):
        for uset in (NormBall(2.0, 1.0, 3), budget(3, 2.0),
                     roc.Intersection((NormBall(INF, 1.0, 3), NormBall(1.0, 2.0, 3))),
                     roc.Intersection((budget(3, 1.5), NormBall(2.0, 1.0, 3)))):
            a = sample_set(uset, 64, seed=42)
            assert np.array_equal(a, sample_set(uset, 64, seed=42))
            assert not np.array_equal(a, sample_set(uset, 64, seed=43))

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            sample_set(NormBall(2.0, 1.0, 2), 0, seed=1)


class TestVerifySolution:
    def test_example1_passes(self):
        _, pre, post, _, det = full_pipeline(fixture_text("ex1.roc"))
        sol = roc.solve_deterministic(det)
        rep = roc.verify_solution(pre, sol, n=10_000, seed=11, ldr=post.ldr)
        assert rep.verdict == "pass"
        assert rep.violations == 0
        assert rep.max_violation <= 1e-7

    def test_nominal_solution_fails_against_radius(self):
        src = fixture_text("ex1.roc")
        nominal_det = full_pipeline(src.replace("r=0.1", "r=0"))[4]
        nominal = roc.simplex_solve(nominal_det)
        _, pre, _, _, _ = full_pipeline(src)
        rep = roc.verify_solution(pre, nominal, n=200, seed=2)
        assert rep.verdict == "fail"
        assert rep.violations > 0
        assert rep.max_violation > 1e-3

    def test_nominal_fails_on_intersection_fixture(self):
        src = fixture_text("intersect.roc")
        nominal_src = src.replace("r=0.6", "r=0").replace("r=0.5", "r=0")
        nominal = roc.simplex_solve(full_pipeline(nominal_src)[4])
        _, pre, _, _, _ = full_pipeline(src)
        rep = roc.verify_solution(pre, nominal, n=200, seed=2)
        assert rep.verdict == "fail"
        assert rep.violations > 0

    def test_zero_radius_trivially_clean(self):
        src = fixture_text("ex1.roc").replace("r=0.1", "r=0")
        _, pre, post, _, det = full_pipeline(src)
        sol = roc.solve_deterministic(det)
        rep = roc.verify_solution(pre, sol, n=100, seed=3, ldr=post.ldr)
        assert rep.violations == 0

    def test_oracle_gap_drives_verdict(self):
        _, pre, post, _, det = full_pipeline(fixture_text("ex1.roc"))
        sol = roc.solve_deterministic(det)
        good = roc.verify_solution(pre, sol, n=100, seed=4, ldr=post.ldr, oracle_gap=1e-9)
        bad = roc.verify_solution(pre, sol, n=100, seed=4, ldr=post.ldr, oracle_gap=0.5)
        assert good.verdict == "pass"
        assert bad.verdict == "fail"

    def test_oracle_gap_is_relative(self):
        # ex1's objective is about 7143, so with tol 1e-6 a gap passes up to
        # about 7.1e-3 (an absolute test would fail 1e-5 and 1e-3); objectives
        # below 1 in magnitude compare on a scale of 1
        _, pre, post, _, det = full_pipeline(fixture_text("ex1.roc"))
        sol = roc.solve_deterministic(det)
        assert abs(sol.objective) > 7000

        def verdict(gap, s=sol):
            return roc.verify_solution(pre, s, n=100, seed=4, ldr=post.ldr,
                                       oracle_gap=gap, tol=1e-6).verdict

        assert verdict(1e-5) == verdict(1e-3) == "pass"
        assert verdict(1e-2) == "fail"
        small = replace(sol, objective=1e-3)
        assert verdict(9e-7, small) == "pass"
        assert verdict(2e-6, small) == "fail"

    def test_report_reproducible(self):
        _, pre, post, _, det = full_pipeline(fixture_text("cover2.roc"))
        sol = roc.solve_deterministic(det)
        a = roc.verify_solution(pre, sol, n=500, seed=21, ldr=post.ldr)
        b = roc.verify_solution(pre, sol, n=500, seed=21, ldr=post.ldr)
        assert a == b

    def test_certain_rows_and_bounds_checked(self):
        # the uncertain row is loose at every planted point, so each plant
        # below breaks exactly one certain row or one variable bound
        src = """var x >= 0 <= 4; var y >= 0; var z >= 0;
                 min: -x - y - z;
                 u: x + y + z <= 100 uncertain(Z=ball(p=inf, r=0.1));
                 cap: y <= 5;
                 bal: z - x = 1;"""
        _, pre, post, _, det = full_pipeline(src)
        sol = roc.solve_deterministic(det)
        assert sol.values == {"x": 4.0, "y": 5.0, "z": 5.0}
        rep = roc.verify_solution(pre, sol, n=100, seed=1, ldr=post.ldr)
        assert (rep.verdict, rep.violations, rep.max_violation) == ("pass", 0, 0.0)
        plants = {"cap": ({"y": 5.5}, 0.5), "bal above": ({"z": 5.25}, 0.25),
                  "bal below": ({"z": 4.75}, 0.25), "x upper": ({"x": 4.5, "z": 5.5}, 0.5),
                  "x lower": ({"x": -0.5, "z": 0.5}, 0.5)}
        for name, (moved, excess) in plants.items():
            bad = replace(sol, values={**sol.values, **moved})
            rep = roc.verify_solution(pre, bad, n=100, seed=1, ldr=post.ldr)
            assert (rep.verdict, rep.violations, rep.max_violation) == ("fail", 1, excess), name

    def test_adaptive_bounds_checked(self):
        # force an invalid policy: slope that violates y >= 0 at z = -1
        _, pre, post, _, det = full_pipeline(fixture_text("cover2.roc"))
        sol = roc.solve_deterministic(det)
        broken = dict(sol.values)
        broken["_v_y1_1"] = 5.0  # y1(-1) = 1 - 5 < 0
        bad = roc.Solution(sol.status, sol.objective, broken, sol.iterations)
        rep = roc.verify_solution(pre, bad, n=500, seed=5, ldr=post.ldr)
        assert rep.verdict == "fail"
        assert rep.violations > 0
