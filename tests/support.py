"""Shared helpers for the test suite: fixtures, pipelines, and independent
oracles (sampling pessimization, brute-force corner enumeration, scipy LPs)."""
from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

import roc

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def full_pipeline(src: str):
    """parse -> canonicalize -> decision rules -> rc -> lowered."""
    model = roc.parse_model(src)
    pre = roc.canonicalize(model)
    post = roc.apply_ldr(pre)
    rcm = roc.robustify_model(post)
    det = roc.lower_norms(rcm)
    return model, pre, post, rcm, det


def rel_close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def scaled(expr: roc.LinExpr, k: float) -> roc.LinExpr:
    """k times `expr`, terms and constant."""
    return roc.LinExpr.of({v: k * c for v, c in expr.terms}, k * expr.constant)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def support_by_sampling(uset, w: np.ndarray, n: int = 4000, seed: int = 0) -> float:
    """Lower bound on d*(w|Z) from random + stress points (independent of
    the symbolic reformulation rules)."""
    Z = roc.sample_set(uset, n, seed)
    return float(np.max(Z @ np.asarray(w, dtype=float)))


def support_by_reformulation(uset, w: np.ndarray) -> float:
    """Numeric d*(w|Z) by solving the lowered auxiliary minimization."""
    from roc.rc import NameGen, support_conjugate

    arg = tuple(roc.LinExpr.of({}, float(x)) for x in np.asarray(w, dtype=float))
    sr = support_conjugate(uset, arg, NameGen())
    epi = roc.VariableDecl("_epi")
    rows = [roc.Constraint("_epi_row", sr.affine + roc.LinExpr.of({"_epi": -1.0}),
                           "<=", 0.0, norm_terms=sr.norm_terms)]
    rows += sr.aux_rows
    rcm = roc.RcModel(vars=(epi,) + tuple(sr.aux_vars),
                      objective=roc.LinExpr.of({"_epi": 1.0}),
                      rows=tuple(rows))
    sol = roc.solve_deterministic(roc.lower_norms(rcm))
    assert sol.status == "optimal", sol.status
    return sol.objective


def scipy_solve(model: roc.Model):
    """Independent LP oracle for *certain* models via scipy.optimize.linprog."""
    from scipy.optimize import linprog

    var_ids = [v.id for v in model.vars]
    index = {v: i for i, v in enumerate(var_ids)}
    sign = -1.0 if model.objective_sense == "max" else 1.0
    c = np.zeros(len(var_ids))
    for v, coeff in model.objective.terms:
        c[index[v]] = sign * coeff
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row in model.constraints:
        a = np.zeros(len(var_ids))
        for v, coeff in row.lhs.terms:
            a[index[v]] = coeff
        if row.sense == "<=":
            A_ub.append(a)
            b_ub.append(row.rhs)
        elif row.sense == ">=":
            A_ub.append(-a)
            b_ub.append(-row.rhs)
        else:
            A_eq.append(a)
            b_eq.append(row.rhs)
    bounds = [(None if v.lower == -np.inf else v.lower,
               None if v.upper == np.inf else v.upper) for v in model.vars]
    res = linprog(c, A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    obj = sign * res.fun + model.objective.constant
    return "optimal", obj


def scipy_solve_lowered(det: roc.DeterministicModel):
    """Independent LP oracle for a lowered model without norm rows."""
    from scipy.optimize import linprog

    assert not det.soc_rows
    index = {v.id: i for i, v in enumerate(det.vars)}

    def dense(expr):
        a = np.zeros(len(index))
        for v, coeff in expr.terms:
            a[index[v]] += coeff
        return a

    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row in det.linear_rows:
        a, b = dense(row.lhs), row.rhs - row.lhs.constant
        if row.sense == "<=":
            A_ub.append(a)
            b_ub.append(b)
        else:
            A_eq.append(a)
            b_eq.append(b)
    bounds = [(None if v.lower == -np.inf else v.lower,
               None if v.upper == np.inf else v.upper) for v in det.vars]
    res = linprog(dense(det.objective), A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun + det.objective.constant


def dense_ball_text(n: int, m: int, p: str, seed: int, r: float = 0.1,
                    mixed: bool = False) -> str:
    """.roc source of a dense max model: n variables in [0, 10], m rows with
    coefficients in [1, 5] and rhs in [50, 100], each row under a p-ball on
    every variable (the family of the ROADMAP's baseline table).

    By default P is the identity, so every norm argument is nonnegative and
    lowers without sign rows.  `mixed` gives each row a dense P with entries
    in [-1, 1] instead, whose arguments have no sign the bounds fix: the
    sign-row lowerings of those rows are the largest LPs the pipeline builds.
    """
    rng = np.random.default_rng(seed)
    names = [f"x{j + 1}" for j in range(n)]

    def expr(coeffs):
        return " + ".join(f"{c:.2f}*{v}" for c, v in zip(coeffs, names))

    lines = [f"var {v} >= 0 <= 10;" for v in names]
    lines.append(f"max: {expr(rng.uniform(1, 5, n))};")
    for i in range(m):
        row = f"c{i + 1}: {expr(rng.uniform(1, 5, n))} <= {rng.uniform(50, 100):.2f} "
        P = ""
        if mixed:
            P = "P=[" + ", ".join("[" + ", ".join(f"{x:.2f}" for x in line) + "]"
                                  for line in rng.uniform(-1, 1, (n, n))) + "], "
        lines.append(f"{row}uncertain(on=[{', '.join(names)}], {P}Z=ball(p={p}, r={r}, dim={n}));")
    return "\n".join(lines) + "\n"


def sampled_cutting_plane(model: roc.CanonicalModel, n: int = 2000, seed: int = 0,
                          rounds: int = 100, feas_tol: float = 1e-9):
    """Cutting-plane solve that pessimizes over *sampled* points of Z.

    Independent of the closed-form pessimization oracle (and usable for
    intersections): the worst z per row is an argmax over random + stress
    points, so the result optimizes against an inner approximation of Z.
    """
    batches = {}
    master = []
    uncertain = []
    for row in model.rows:
        master.append(roc.Constraint(row.id, row.lhs, row.sense, row.rhs))
        if row.uncertainty is not None:
            uncertain.append(row)
            batches[row.id] = roc.sample_set(row.uncertainty.uset, n, seed)
    for round_no in range(rounds):
        det = roc.DeterministicModel(model.vars, model.objective, tuple(master))
        sol = roc.simplex_solve(det)
        if sol.status != "optimal":
            return sol
        added = 0
        for row in uncertain:
            block = row.uncertainty
            w = np.array([e.evaluate(sol.values) for e in block.arg_exprs()])
            vals = batches[row.id] @ w
            worst = batches[row.id][int(np.argmax(vals))]
            if row.lhs.evaluate(sol.values) + float(np.max(vals)) - row.rhs <= feas_tol:
                continue
            shift = block.P @ worst
            cut = row.lhs + roc.LinExpr.of(
                {v: float(shift[i]) for i, v in enumerate(block.on)})
            master.append(roc.Constraint(f"{row.id}_s{round_no}", cut, "<=", row.rhs))
            added += 1
        if not added:
            return sol
    raise AssertionError("sampled cutting plane did not settle")


# ---------------------------------------------------------------------------
# Random robust instances (bounded & robust-feasible by construction)
# ---------------------------------------------------------------------------

BALL_KINDS = ("ball1", "ball2", "ballinf", "box", "mink")
ALL_KINDS = BALL_KINDS + ("inter",)
GENERAL_P_KINDS = ("ball3", "ball1.5")  # norm rows with q = 1.5 and q = 3


def random_set(rng: np.random.Generator, L: int, kinds=BALL_KINDS):
    kind = kinds[rng.integers(0, len(kinds))]
    rho = float(rng.uniform(0.05, 0.5))
    if kind == "ball1":
        return roc.NormBall(1.0, rho, L)
    if kind == "ball2":
        return roc.NormBall(2.0, rho, L)
    if kind == "ballinf":
        return roc.NormBall(np.inf, rho, L)
    if kind == "ball3":
        return roc.NormBall(3.0, rho, L)
    if kind == "ball1.5":
        return roc.NormBall(1.5, rho, L)
    if kind == "box":
        D = np.vstack([np.eye(L), -np.eye(L)])
        return roc.Polyhedral(D, rho * np.ones(2 * L))
    if kind == "inter":
        members = (roc.NormBall(2.0, rho * 1.2, L), roc.NormBall(np.inf, rho, L))
        return roc.Intersection(members)
    members = (roc.NormBall(np.inf, rho / 2, L), roc.NormBall(2.0, rho / 2, L))
    return roc.MinkowskiSum(members)


def budget(L: int, gamma: float) -> roc.Polyhedral:
    """{z : |z_l| <= 1, sum_l |z_l| <= gamma} with one row per sign pattern."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=L)))
    D = np.vstack([np.eye(L), -np.eye(L), signs])
    return roc.Polyhedral(D, np.r_[np.ones(2 * L), np.full(2 ** L, gamma)])


def random_instance(seed: int, kinds=BALL_KINDS) -> roc.CanonicalModel:
    """Random canonical robust instance: n<=6 vars in [0,10], m<=6 rows,
    L<=4, x = 0 strictly robust-feasible, box bounds keep it bounded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    names = [f"x{i + 1}" for i in range(n)]
    variables = tuple(roc.VariableDecl(v, lower=0.0, upper=10.0) for v in names)
    objective = roc.LinExpr.of({v: float(c) for v, c in
                                zip(names, rng.uniform(-5, 5, size=n))})
    rows = []
    for i in range(m):
        a = rng.uniform(-3, 3, size=n)
        rhs = float(np.sum(np.abs(a)) + rng.uniform(0.5, 3.0))
        block = None
        if rng.uniform() < 0.75:
            L = int(rng.integers(1, 5))
            P = rng.uniform(-1, 1, size=(n, L))
            block = roc.UncertainBlock(tuple(names), P, random_set(rng, L, kinds))
        rows.append(roc.Constraint(
            id=f"r{i + 1}",
            lhs=roc.LinExpr.of({v: float(c) for v, c in zip(names, a)}),
            sense="<=",
            rhs=rhs,
            uncertainty=block,
        ))
    return roc.CanonicalModel(vars=variables, objective=objective, rows=tuple(rows))


def aggressive_instance(seed: int) -> roc.CanonicalModel:
    """Like random_instance but with large radii and mostly-uncertain rows:
    heavily binding uncertainty drives long cut sequences and degenerate,
    ill-conditioned masters."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    names = [f"x{i + 1}" for i in range(n)]
    variables = tuple(roc.VariableDecl(v, lower=0.0, upper=10.0) for v in names)
    objective = roc.LinExpr.of({v: float(c) for v, c in
                                zip(names, rng.uniform(-5, 5, n))})
    rows = []
    for i in range(m):
        a = rng.uniform(-3, 3, n)
        rhs = float(np.sum(np.abs(a)) + rng.uniform(0.5, 3.0))
        block = None
        if rng.uniform() < 0.9:
            L = int(rng.integers(1, 5))
            P = rng.uniform(-1, 1, (n, L))
            rho = float(rng.uniform(0.2, 1.5))
            kind = int(rng.integers(0, 5))
            if kind == 0:
                uset = roc.NormBall(1.0, rho, L)
            elif kind == 1:
                uset = roc.NormBall(2.0, rho, L)
            elif kind == 2:
                uset = roc.NormBall(np.inf, rho, L)
            elif kind == 3:
                uset = roc.Polyhedral(np.vstack([np.eye(L), -np.eye(L)]), rho * np.ones(2 * L))
            else:
                uset = roc.MinkowskiSum((roc.NormBall(np.inf, rho / 2, L),
                                         roc.NormBall(2.0, rho / 2, L)))
            block = roc.UncertainBlock(tuple(names), P, uset)
        rows.append(roc.Constraint(
            id=f"r{i + 1}",
            lhs=roc.LinExpr.of({v: float(c) for v, c in zip(names, a)}),
            sense="<=",
            rhs=rhs,
            uncertainty=block,
        ))
    return roc.CanonicalModel(vars=variables, objective=objective, rows=tuple(rows))


def solve_canonical_both(model: roc.CanonicalModel):
    det = roc.lower_norms(roc.robustify_model(model))
    return roc.solve_deterministic(det), roc.cutting_plane_solve(model)
