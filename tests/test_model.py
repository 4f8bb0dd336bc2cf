"""Core object model: expression arithmetic, canonical form, invariants."""
import math

import numpy as np
import pytest

import roc
from roc import LinExpr, expr_add, expr_negate

from support import scaled


def lx(coeffs=None, const=0.0):
    return LinExpr.of(coeffs or {}, const)


class TestExprAdd:
    def test_cancellation(self):
        a = lx({"x1": 3.0, "x2": -1.0})
        b = lx({"x2": 1.0})
        assert expr_add(a, b) == lx({"x1": 3.0})

    def test_signflip_regression(self):
        # a common rearrangement slip turns 100x1+x2 >= 10+x1 into
        # a = [-99, 1]; correct term arithmetic gives 99x1 + x2
        a = lx({"x1": 100.0, "x2": 1.0})
        b = lx({"x1": -1.0})
        assert expr_add(a, b) == lx({"x1": 99.0, "x2": 1.0})

    def test_zero_identity(self):
        assert expr_add(lx(), lx()) == lx()

    def test_constants_add(self):
        assert expr_add(lx({}, 2.0), lx({"x": 1.0}, 3.0)) == lx({"x": 1.0}, 5.0)

    def test_commutative_associative(self):
        rng = np.random.default_rng(7)
        names = ["a", "b", "c", "d"]
        for _ in range(200):
            exprs = []
            for _ in range(3):
                k = rng.integers(0, 4)
                coeffs = {names[i]: float(rng.integers(-5, 6)) for i in rng.choice(4, size=k, replace=False)}
                exprs.append(lx(coeffs, float(rng.integers(-3, 4))))
            e1, e2, e3 = exprs
            assert expr_add(e1, e2) == expr_add(e2, e1)
            assert expr_add(expr_add(e1, e2), e3) == expr_add(e1, expr_add(e2, e3))


class TestExprNegate:
    def test_negates_every_coefficient(self):
        e = lx({"x1": 10.0, "x2": 20.0, "x3": 30.0, "x4": 40.0})
        assert expr_negate(e) == lx({"x1": -10.0, "x2": -20.0, "x3": -30.0, "x4": -40.0})

    def test_zero(self):
        assert expr_negate(lx()) == lx()

    def test_involution(self):
        assert expr_negate(expr_negate(lx({"x1": -1.0}))) == lx({"x1": -1.0})

    def test_involution_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            coeffs = {f"x{i}": float(rng.standard_normal()) for i in range(rng.integers(0, 5))}
            e = lx(coeffs, float(rng.standard_normal()))
            assert expr_negate(expr_negate(e)) == e


class TestCanonicalForm:
    def test_zero_coefficients_pruned(self):
        assert lx({"x": 0.0, "y": 1.0}).terms == (("y", 1.0),)

    def test_terms_sorted_by_id(self):
        e = lx({"z": 1.0, "a": 2.0, "m": 3.0})
        assert [v for v, _ in e.terms] == ["a", "m", "z"]

    def test_evaluate(self):
        e = lx({"x": 2.0, "y": -1.0}, 5.0)
        assert e.evaluate({"x": 3.0, "y": 1.0}) == 10.0

    def test_scaled(self):
        assert scaled(lx({"x": 2.0}, 1.0), -2.0) == lx({"x": -4.0}, -2.0)


class TestVariableDecl:
    def test_bound_order_enforced(self):
        with pytest.raises(roc.ModelError):
            roc.VariableDecl("x", lower=2.0, upper=1.0)

    def test_wait_and_see_needs_rule(self):
        with pytest.raises(roc.ModelError):
            roc.VariableDecl("y", stage="wait-and-see")

    def test_pinned_bounds(self):
        with pytest.raises(roc.ModelError):
            roc.VariableDecl("p", lower=0.0, upper=1.0, pinned_one=True)

    def test_immutable(self):
        v = roc.VariableDecl("x")
        with pytest.raises(Exception):
            v.lower = -1.0


class TestUncertaintySets:
    def test_ball_invariants(self):
        with pytest.raises(roc.ModelError):
            roc.NormBall(0.5, 1.0, 2)
        with pytest.raises(roc.ModelError):
            roc.NormBall(2.0, -0.1, 2)

    def test_ragged_polyhedron(self):
        with pytest.raises(roc.DimensionError):
            roc.Polyhedral(np.array([[1.0, 0.0]]), np.array([1.0, 2.0]))

    def test_member_dims_agree(self):
        b2 = roc.NormBall(2.0, 1.0, 2)
        b3 = roc.NormBall(2.0, 1.0, 3)
        with pytest.raises(roc.DimensionError):
            roc.Intersection((b2, b3))
        with pytest.raises(roc.DimensionError):
            roc.MinkowskiSum((b2, b3))

    def test_contains(self):
        ball = roc.NormBall(math.inf, 0.5, 2)
        assert ball.contains(np.array([0.5, -0.5]))
        assert not ball.contains(np.array([0.6, 0.0]))
        box = roc.Polyhedral(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        assert box.contains(np.array([1.0, -1.0]))
        assert not box.contains(np.array([1.1, 0.0]))


class TestBlocksAndConstraints:
    def test_block_dimension_checked(self):
        ball = roc.NormBall(2.0, 1.0, 3)
        with pytest.raises(roc.DimensionError):
            roc.UncertainBlock(("x1", "x2"), np.eye(2), ball)  # P cols != dim
        with pytest.raises(roc.DimensionError):
            roc.UncertainBlock(("x1",), np.eye(3), ball)  # P rows != len(on)

    def test_arg_exprs(self):
        ball = roc.NormBall(2.0, 1.0, 2)
        block = roc.UncertainBlock(("x1", "x2"), np.array([[1.0, 2.0], [0.0, -1.0]]), ball)
        args = block.arg_exprs()
        assert args[0] == lx({"x1": 1.0})
        assert args[1] == lx({"x1": 2.0, "x2": -1.0})

    def test_arg_exprs_of_shuffled_on_with_zeros(self):
        rng = np.random.default_rng(5)
        on = tuple(f"x{i}" for i in rng.permutation(30))
        P = rng.uniform(-1, 1, (30, 7)) * (rng.uniform(size=(30, 7)) < 0.6)  # zeros, some -0.0
        block = roc.UncertainBlock(on, P, roc.NormBall(2.0, 1.0, 7))
        expected = tuple(lx(dict(zip(on, column))) for column in block.P.T.tolist())
        assert block.arg_exprs() == expected
        assert all(0 < len(arg.terms) < 30 for arg in expected)

    @pytest.mark.parametrize("kind", ["identity", "dense", "sparse"])
    def test_arg_exprs_read_the_nonzeros_of_every_column(self, kind):
        # oracle: the full scan of P^T, entry by entry, that arg_exprs replaced
        def scanned(block):
            order = sorted(range(len(block.on)), key=block.on.__getitem__)
            names = [block.on[i] for i in order]
            return tuple(tuple((v, c) for v, c in zip(names, column) if c != 0.0)
                         for column in block.P[order].T.tolist())

        rng = np.random.default_rng(18)
        pool = ["X1", "Z9", "_w1_2", "a1", "x1", "x10", "x2", "é"]
        for _ in range(40):
            n = int(rng.integers(1, 25))
            on = tuple(str(v) for v in rng.permutation(pool + [f"v{i}" for i in range(n)])[:n])
            L = n if kind == "identity" else int(rng.integers(1, 9))
            if kind == "identity":
                P = np.eye(n)
            else:
                P = rng.choice([-2.5, -1.0, 0.3, 1.0, 7.25], (n, L)) * rng.uniform(0.5, 2.0, (n, L))
                if kind == "sparse":
                    P *= rng.choice([0.0, -0.0, 1.0], (n, L), p=[0.4, 0.3, 0.3])
            block = roc.UncertainBlock(on, P, roc.NormBall(2.0, 1.0, L))
            args = block.arg_exprs()
            assert tuple(arg.terms for arg in args) == scanned(block)
            assert all(type(c) is float for arg in args for _, c in arg.terms)
            assert all(arg.constant == 0.0 for arg in args)

    def test_drop_constant_keeps_no_negative_zero(self):
        e = lx({"x": 2.0})
        assert e.drop_constant() is e
        for constant in (-0.0, 0, 3.5):
            dropped = LinExpr(e.terms, constant).drop_constant()
            assert dropped == e and repr(dropped.constant) == "0.0"

    def test_no_negative_zero_reaches_the_dumps(self):
        # lhs constants of -0.0 (and 0 and +0.0) on every kind of row, through
        # every stage dump
        rng = np.random.default_rng(18)
        ball = roc.NormBall(2.0, 0.5, 2)
        rows = []
        for i in range(30):
            terms = (("x", float(rng.uniform(-3, 3))), ("y", float(rng.uniform(-3, 3))))
            constant = [-0.0, 0.0, 0, -1.5][i % 4]
            block = roc.UncertainBlock(("x", "y"), np.eye(2), ball) if i % 3 == 0 else None
            rows.append(roc.Constraint(f"r{i}", LinExpr(terms, constant), "<=",
                                       [0.0, -0.0, 4.0][i % 3], uncertainty=block))
        model = roc.Model((roc.VariableDecl("x", lower=0.0, upper=1.0),
                           roc.VariableDecl("y", lower=0.0, upper=2.0)),
                          "max", LinExpr((("x", 1.0),)), tuple(rows))
        pre = roc.canonicalize(model)
        rcm = roc.robustify_model(roc.apply_ldr(pre))
        for stage in (model, pre, rcm, roc.lower_norms(rcm)):
            assert "-0.0" not in roc.emit_json(stage)

    def test_robust_equality_rejected(self):
        ball = roc.NormBall(2.0, 1.0, 1)
        block = roc.UncertainBlock(("x1",), np.eye(1), ball)
        with pytest.raises(roc.ModelError):
            roc.Constraint("c", lx({"x1": 1.0}), "=", 1.0, uncertainty=block)

    def test_constant_folds_into_rhs(self):
        c = roc.Constraint("c", lx({"x": 2.0}, 5.0), "<=", 10.0)
        assert c.lhs == lx({"x": 2.0})
        assert c.rhs == 5.0

    def test_negative_zero_constant_folds(self):
        # -x carries a -0.0 constant; the fold leaves +0.0 on both sides
        c = roc.Constraint("r", -lx({"x": 1.0}), "<=", 0.0)
        assert math.copysign(1.0, c.lhs.constant) == 1.0
        assert math.copysign(1.0, c.rhs) == 1.0 and c.rhs == 0.0

    def test_norm_terms_need_a_certain_row(self):
        term = roc.NormTerm(1.0, 2.0, (lx({"x1": 1.0}),))
        block = roc.UncertainBlock(("x1",), np.eye(1), roc.NormBall(2.0, 1.0, 1))
        with pytest.raises(roc.ModelError):
            roc.Constraint("c", lx({"x1": 1.0}), "<=", 1.0, uncertainty=block,
                           norm_terms=(term,))

    def test_norm_terms_compared(self):
        term = roc.NormTerm(1.0, 2.0, (lx({"x1": 1.0}),))
        plain = roc.Constraint("c", lx({"x1": 1.0}), "<=", 1.0)
        assert plain != roc.Constraint("c", lx({"x1": 1.0}), "<=", 1.0, norm_terms=(term,))
        assert plain == roc.Constraint("c", lx({"x1": 1.0}), "<=", 1.0)

    def test_unknown_variable_in_model(self):
        with pytest.raises(roc.ModelError):
            roc.Model(
                vars=(roc.VariableDecl("x"),),
                objective_sense="min",
                objective=lx({"ghost": 1.0}),
                constraints=(),
            )

    def test_duplicate_ids(self):
        with pytest.raises(roc.ModelError):
            roc.Model(
                vars=(roc.VariableDecl("x"), roc.VariableDecl("x")),
                objective_sense="min",
                objective=lx(),
                constraints=(),
            )
