"""LP solving and pessimization oracles.

A dense two-phase bounded-variable primal simplex solves the lowered linear
models over their own columns: variable bounds are enforced by the ratio
test, where an entering column may also just flip to its other bound, and
"=" rows get a slack fixed at 0.  Its tableau is updated in place at each
pivot and refactorized from the original data every REFACTOR_EVERY steps
and before every terminal decision; entering columns are priced by
Dantzig's rule, with Bland's anti-cycling rule as the fallback on a repeated
basis.  A solve can instead start from the optimal basis of an earlier one
(`Solution.basis`, by column name): rows the start did not know enter with
their slack basic, which leaves the basis dual feasible, bounded dual
simplex steps bring the basic values back within their bounds, and the
primal simplex confirms the optimum.  A start that does not fit is dropped
for the two-phase path.  One pessimization-based cutting loop solves both
the norm rows of lowered models and, as the independent oracle for every
reformulation, canonical robust models directly; each round's master starts
from the previous round's basis.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .canonicalize import CanonicalModel
from .errors import SolverError, UnsupportedSetError
from .model import (EQ, INF, LE, Constraint, LinExpr, MinkowskiSum, NormBall,
                    Polyhedral, UncertaintySet, VariableDecl, vector_norm)
from .lower import DeterministicModel, NormRow
from .rc import dual_norm

log = logging.getLogger("roc")

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
DEGEN_TOL = 1e-11
MAX_PIVOTS = 100_000
MAX_ROUNDS = 500
CUT_POOL = 30  # live cuts kept per norm / uncertain row
REFACTOR_EVERY = 50  # in-place simplex steps (pivots, bound flips) between refactorizations

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"


@dataclass(frozen=True)
class Basis:
    """A simplex basis by column name, to start a later solve from.

    A structural column is named by its variable id, a row's slack by its
    row id.  `origin` says how the solve that ended at this basis started:
    "warm start", "cold start", or "cold start: <why the start was dropped>".
    """

    basic: frozenset[str]
    at_upper: frozenset[str]  # nonbasic columns resting at their upper bound
    columns: frozenset[str]  # every column of the LP
    origin: str = "cold start"


@dataclass(frozen=True)
class Solution:
    status: str
    objective: float
    values: dict[str, float]
    iterations: int
    basis: Basis | None = None  # the optimal basis, when optimal


@dataclass(frozen=True)
class PessimizationResult:
    """Worst-case z for a fixed numeric argument w = P^T x."""

    zstar: np.ndarray
    value: float  # max over z in Z of w^T z


# ---------------------------------------------------------------------------
# Bounded-variable simplex
# ---------------------------------------------------------------------------

class _Tableau:
    """Dense bounded-variable simplex tableau, updated in place.

    Every column has bounds lo <= x <= up with lo either 0 or -inf (the
    set-up shifts finite lower bounds to 0), and `xn` holds where each
    nonbasic column rests: at 0, or at its upper bound.  T holds B^-1 A, the
    basic values B^-1 (b - N x_N) in its last column, and the reduced costs
    and minus the objective in its last row.  A step either flips the
    entering column to its other bound, which moves the basic values only,
    or pivots: a Gauss-Jordan rank-1 update of T.  Each phase starts with
    `rebuild` under its own cost; a warm start rebuilds once at a given basis
    under the phase-2 cost and takes `dual_iterate` steps before `iterate`.
    Every REFACTOR_EVERY steps, and before
    every terminal decision (optimal, unbounded, phase-1 infeasibility,
    degenerate cycle), T is refactorized from the untouched A_ext/b0 so
    that the drift of the updates never decides an outcome.  A
    refactorization that finds the basis singular after in-place pivots
    rolls back to the last factorized basis and refactorizes on every pivot
    for the rest of the solve: on ill-conditioned masters (near-parallel
    cuts) an updated tableau can pick a pivot that exact arithmetic rejects.
    """

    def __init__(self, A_ext: np.ndarray, b0: np.ndarray, lo: np.ndarray, up: np.ndarray,
                 basis: np.ndarray):
        self.A_ext = A_ext
        self.b0 = b0
        self.lo = lo
        self.up = up
        self.basis = basis
        self.xn = np.zeros(A_ext.shape[1])
        self.m = A_ext.shape[0]
        self.T = np.zeros((self.m + 1, A_ext.shape[1] + 1))
        self.every = REFACTOR_EVERY
        self.updates = 0  # in-place steps since the last factorization

    def rebuild(self, cost: np.ndarray) -> bool:
        """Refactorize at the current basis; True when it had to roll back."""
        self.cost = cost
        rolled_back = False
        try:
            self._factor()
        except np.linalg.LinAlgError as exc:
            if not self.updates:
                raise SolverError("numerically singular simplex basis") from exc
            log.info("simplex: singular basis after %d in-place pivots; rolling back "
                     "and refactorizing on every pivot", self.updates)
            self.basis[:] = self.factored
            self.xn[:] = self.factored_xn
            self.every = 1
            self._factor()
            rolled_back = True
        self.updates = 0
        self.factored = self.basis.copy()
        self.factored_xn = self.xn.copy()
        return rolled_back

    def _factor(self):
        basis, lo, up = self.basis, self.lo, self.up
        # the bounds of each row's basic column, and a pricing sign per
        # column: -1 where a nonbasic column can rise, +1 where it rests at
        # its upper bound, 0 for basic and fixed columns; free nonbasic
        # columns can move either way
        self.blo = lo[basis]
        self.bup = up[basis]
        self.sgn = np.where(self.xn == up, 1.0, -1.0)
        self.sgn[lo == up] = 0.0
        self.sgn[basis] = 0.0
        self.free = np.flatnonzero((self.sgn != 0.0) & (lo == -INF) & (up == INF))

        B = self.A_ext[:, basis]
        rhs = self.b0 - self.A_ext @ self.xn if self.xn.any() else self.b0
        body = np.linalg.solve(B, np.hstack([self.A_ext, rhs[:, None]]))
        cost = self.cost
        self.T[:self.m] = body
        self.T[-1, :-1] = cost - cost[basis] @ body[:, :-1]
        self.T[-1, -1] = -(cost[basis] @ body[:, -1] + cost @ self.xn)
        # basic columns are unit columns by definition; writing them exactly
        # removes back-solve noise that would otherwise let a basic column
        # "re-enter" against itself (reduced cost -1e-9 instead of 0)
        self.T[:self.m, basis] = 0.0
        self.T[np.arange(self.m), basis] = 1.0
        self.T[-1, basis] = 0.0
        self._snap()

    def _snap(self):
        # snap dust in the basic values onto the bound it is near: values past
        # a bound would produce negative ratios, and values a hair inside it
        # would make degenerate ties inexact, cutting Bland's anticycling out
        # of the loop
        x = self.T[:self.m, -1]
        x[(x > self.blo - FEAS_TOL) & (x < self.blo + DEGEN_TOL)] = 0.0
        near = (x > self.bup - DEGEN_TOL) & (x < self.bup + FEAS_TOL)
        x[near] = self.bup[near]

    def flip(self, col: int, step: float) -> bool:
        """Move nonbasic `col` by `step` onto its other bound; the basis stays."""
        self.xn[col] = self.up[col] if step > 0 else 0.0
        self.sgn[col] = -self.sgn[col]
        if self.updates + 1 >= self.every:
            return self.rebuild(self.cost)
        self.T[:, -1] -= step * self.T[:, col]
        self._snap()
        self.updates += 1
        return False

    def pivot(self, row: int, col: int, leave_at: float) -> bool:
        """Bring `col` into the basis at `row`, the leaving column resting at
        `leave_at`; True when a refactorization rolled back."""
        T = self.T
        out = self.basis[row]
        start = self.xn[col]
        fixed = self.lo[out] == self.up[out]
        self.sgn[out] = 0.0 if fixed else 1.0 if leave_at == self.up[out] else -1.0
        self.sgn[col] = 0.0
        if self.free.size:
            self.free = self.free[self.free != col]
        self.xn[out] = leave_at
        self.xn[col] = 0.0
        self.blo[row] = self.lo[col]
        self.bup[row] = self.up[col]
        self.basis[row] = col
        if self.updates + 1 >= self.every:
            return self.rebuild(self.cost)
        # Gauss-Jordan on the last column turns the distance the leaving
        # value travels to its bound into the entering column's change
        T[row, -1] -= leave_at
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        rows = factors.nonzero()[0]
        T[rows] -= np.outer(factors[rows], T[row])
        # the entering column is a unit column; every other basic column has
        # an exact zero in the pivot row and so keeps its unit entries
        T[:, col] = 0.0
        T[row, col] = 1.0
        T[row, -1] += start
        self._snap()
        self.updates += 1
        return False

    def refresh(self, visited: set[bytes]) -> bool:
        """Refactorize a tableau updated in place, so that a terminal
        decision is taken on a fresh one; False when it already was fresh.
        A rollback empties `visited`, the states the caller has seen."""
        if not self.updates:
            return False
        if self.rebuild(self.cost):
            visited.clear()
        return True

    def gains(self) -> np.ndarray:
        """Objective decrease per unit move of each column off where it
        rests, in the direction it has room for (either way when free); no
        entry is positive at a dual feasible basis."""
        reduced = self.T[-1, :-1]
        gain = reduced * self.sgn
        if self.free.size:
            gain[self.free] = np.abs(reduced[self.free])
        return gain

    def dual_iterate(self, pivots_left: int) -> tuple[str | None, int]:
        """Dual simplex steps from a dual feasible basis until every basic
        value is within its bounds.

        The leaving row is the basic value furthest outside its bounds, and
        it leaves at the bound it violates.  The entering column is one that
        can move that value back, in the direction its bound allows (either
        way when free), with the smallest |d_j / T[r, j]|, which keeps the
        reduced costs dual feasible; exact ties go to the largest |T[r, j]|.
        Returns (None, steps) on a primal feasible, freshly factorized
        tableau, (ITERATION_LIMIT, steps) at the limit, and otherwise why
        the dual steps gave up: a repeated state, or no entering column on a
        freshly factorized tableau (the LP is then infeasible).
        """
        T = self.T
        m = self.m
        used = 0
        visited: set[bytes] = set()
        while True:
            x = T[:m, -1]
            # positive only past a bound, and then (after _snap) by FEAS_TOL or more
            excess = np.maximum(self.blo - x, x - self.bup)
            if excess.max(initial=0.0) <= 0.0:
                if self.refresh(visited):
                    continue
                return None, used
            key = self.basis.tobytes() + self.xn.tobytes()
            if key in visited:
                return "the dual simplex repeated a basis", used
            row = int(excess.argmax())
            rising = x[row] < self.blo[row]
            # how far x_row moves back toward its bounds per unit step of each
            # column in the direction its own bounds allow
            reach = T[row, :-1] * self.sgn if rising else -T[row, :-1] * self.sgn
            if self.free.size:
                reach[self.free] = np.abs(T[row, self.free])
            cols = (reach > PIVOT_TOL).nonzero()[0]
            if cols.size == 0:
                if self.refresh(visited):
                    continue
                return "the dual simplex found no entering column", used
            if used >= pivots_left:
                return ITERATION_LIMIT, used
            visited.add(key)
            ratios = np.maximum(-self.gains()[cols], 0.0) / reach[cols]
            ties = cols[ratios == ratios.min()]
            col = int(ties[reach[ties].argmax()])
            if self.pivot(row, col, self.blo[row] if rising else self.bup[row]):
                visited.clear()
            used += 1

    def iterate(self, pivots_left: int) -> tuple[str, int]:
        """Step under the current cost until optimal/unbounded/limit.

        Dantzig pricing (largest improving reduced cost, in whichever
        direction the column has room to move) until a basis repeats; then
        Bland's rule; on a further repeat only clearly improving columns may
        enter.  Returns (status, steps used); a bound flip is one step.
        """
        T = self.T
        m = self.m
        used = 0
        threshold = PIVOT_TOL
        bland = False
        visited: set[bytes] = set()
        while True:
            reduced = T[-1, :-1]
            gain = self.gains()
            candidates = (gain > threshold).nonzero()[0]
            if candidates.size == 0:
                if self.refresh(visited):
                    continue
                return OPTIMAL, used
            # noise-scale reduced costs can drive a cycle through refactorized
            # tableaus; a repeated state (basis and where the nonbasic columns
            # rest) means no exact-arithmetic progress is available under
            # this rule, so switch to Bland's rule, and on a second repeat
            # demand a clearly improving cost
            key = self.basis.tobytes() + self.xn.tobytes()
            if key in visited:
                if self.refresh(visited):
                    continue
                if threshold >= FEAS_TOL:
                    log.warning("simplex settled on a degenerate basis cycle")
                    return OPTIMAL, used
                if bland:
                    threshold = FEAS_TOL
                bland = True
                visited.clear()
                continue
            # Bland: smallest index; Dantzig: largest gain
            col = int(candidates[0]) if bland else int(gain.argmax())
            rising = reduced[col] < 0.0
            g = T[:m, col] if rising else -T[:m, col]  # fall of each basic value per unit step
            x = T[:m, -1]
            # each basic value falls to its lower bound or rises to its upper one
            ratios = np.full(m, INF)
            np.divide(x - self.blo, g, out=ratios, where=g > PIVOT_TOL)
            np.divide(x - self.bup, g, out=ratios, where=g < -PIVOT_TOL)
            best = ratios.min(initial=INF)
            span = self.up[col] - self.lo[col]  # the entering column's own range
            if best == INF and span == INF:
                if self.refresh(visited):
                    continue
                return UNBOUNDED, used
            if used >= pivots_left:
                return ITERATION_LIMIT, used
            visited.add(key)
            if span <= best:
                rolled_back = self.flip(col, span if rising else -span)
            else:
                ties = (ratios == best).nonzero()[0]  # exact ties: anticycling needs them exact
                row = int(ties[self.basis[ties].argmin()])  # Bland: smallest basic index
                rolled_back = self.pivot(row, col, 0.0 if g[row] > 0.0 else self.bup[row])
            if rolled_back:
                visited.clear()
            used += 1


def simplex_solve(model: DeterministicModel, max_pivots: int = MAX_PIVOTS,
                  start: Basis | None = None) -> Solution:
    """Dense bounded-variable simplex over a purely linear model.

    Without `start`, a two-phase primal simplex from the slack basis.
    `start` is the basis of an earlier solve (`Solution.basis`): the solve
    factorizes its basic columns, with the slack of every row it did not
    know, under the objective, takes dual simplex steps until the basic
    values are within their bounds, and primal steps until optimal.  The
    start is ignored, and the LP solved cold, when it does not give one
    basic column per row (a row whose slack was nonbasic is gone), when its
    basis is singular or not dual feasible, and when the dual steps repeat
    a state or find no entering column; phase 1 then decides infeasibility.
    `iterations` counts every step, those of a dropped start included, and
    the optimal `basis.origin` says how the solve started.
    """
    if model.soc_rows:
        raise SolverError("simplex cannot handle norm rows; cut them first")

    fixed = {v.id: v.lower for v in model.vars if v.is_fixed()}
    cols = [v for v in model.vars if not v.is_fixed()]
    col_of = {v.id: j for j, v in enumerate(cols)}
    # column j holds x_j - shift_j: its lower bound becomes 0 (or stays
    # -inf), an upper bound alone becomes 0, so every column starts at 0
    shift = [v.lower if v.lower > -INF else v.upper if v.upper < INF else 0.0 for v in cols]
    n = len(cols)

    def dense(lhs: LinExpr) -> tuple[np.ndarray, float]:
        """Coefficients over the columns, and the value of the shifts and fixed variables."""
        a = np.zeros(n)
        offset = 0.0
        for vid, coeff in lhs.terms:
            j = col_of.get(vid)
            if j is None:
                offset += coeff * fixed[vid]
            else:
                a[j] = coeff
                offset += coeff * shift[j]
        return a, offset

    m = len(model.linear_rows)
    A = np.zeros((m, n))
    b = np.zeros(m)
    for i, row in enumerate(model.linear_rows):
        if row.sense not in (LE, EQ):
            raise SolverError(f"row {row.id}: unsupported sense {row.sense!r}")
        A[i], offset = dense(row.lhs)
        b[i] = row.rhs - offset
    eq = np.array([row.sense == EQ for row in model.linear_rows], dtype=bool)
    c, c_offset = dense(model.objective)
    c_offset += model.objective.constant

    # one slack per row, in [0, inf) on "<=" rows and [0, 0] on "=" rows
    A_ext = np.hstack([A, np.eye(m)])
    lo = np.concatenate([[0.0 if v.lower > -INF else -INF for v in cols], np.zeros(m)])
    up = np.concatenate([[v.upper - s for v, s in zip(cols, shift)], np.where(eq, 0.0, INF)])
    cost = np.concatenate([c, np.zeros(m)])
    names = [v.id for v in cols] + [row.id for row in model.linear_rows]
    pivots = 0
    tab = None
    origin = "cold start"
    if start is not None:
        tab, origin = _warm_tableau(A_ext, b, lo, up, cost, names, start)
        if tab is not None:
            why, pivots = tab.dual_iterate(max_pivots)
            if why == ITERATION_LIMIT:
                return Solution(ITERATION_LIMIT, math.nan, {}, pivots)
            if why is not None:
                tab, origin = None, f"cold start: {why}"

    if tab is None:
        # an artificial where the slack cannot absorb b, the residual at
        # x_N = 0; it is named like its row's slack, since the two are never
        # basic together
        arts = np.flatnonzero(np.where(eq, b != 0.0, b < 0.0))
        n_art = arts.size
        art_cols = np.zeros((m, n_art))
        art_cols[arts, np.arange(n_art)] = np.sign(b[arts])
        names += [names[n + i] for i in arts]
        basis = np.arange(n, n + m)
        basis[arts] = n + m + np.arange(n_art)
        tab = _Tableau(np.hstack([A_ext, art_cols]), b, np.concatenate([lo, np.zeros(n_art)]),
                       np.concatenate([up, np.full(n_art, INF)]), basis)

        # Phase 1: minimize the sum of artificials.
        if n_art:
            cost1 = np.zeros(n + m + n_art)
            cost1[n + m:] = 1.0
            tab.rebuild(cost1)
            status, used = tab.iterate(max_pivots - pivots)
            pivots += used
            if status == ITERATION_LIMIT:
                return Solution(ITERATION_LIMIT, math.nan, {}, pivots)
            if -tab.T[-1, -1] > FEAS_TOL:  # leftover artificial mass
                return Solution(INFEASIBLE, math.nan, {}, pivots)
            # artificials are fixed at 0 from here on: one left basic at zero
            # level blocks its row and leaves at the first pivot that moves it
            tab.up[n + m:] = 0.0

        # Phase 2: original objective.
        tab.rebuild(np.concatenate([cost, np.zeros(n_art)]))

    status, used = tab.iterate(max_pivots - pivots)
    pivots += used
    if status == ITERATION_LIMIT:
        return Solution(ITERATION_LIMIT, math.nan, {}, pivots)
    if status == UNBOUNDED:
        return Solution(UNBOUNDED, -math.inf, {}, pivots)

    x = tab.xn.copy()
    x[tab.basis] = tab.T[:m, -1]
    values = dict(fixed)
    values.update((v.id, s + xj) for v, s, xj in zip(cols, shift, x))
    objective = float(c @ x[:n] + c_offset)
    basis = Basis(frozenset(names[j] for j in tab.basis),
                  frozenset(names[j] for j in np.flatnonzero(tab.xn)),
                  frozenset(names), origin)
    # snap float dust onto zero and return plain floats
    return Solution(OPTIMAL, objective,
                    {v: (0.0 if abs(xv) < 1e-12 else float(xv)) for v, xv in values.items()},
                    pivots, basis)


def _warm_tableau(A_ext: np.ndarray, b: np.ndarray, lo: np.ndarray, up: np.ndarray,
                  cost: np.ndarray, names: list[str], start: Basis) -> tuple[_Tableau | None, str]:
    """The tableau at `start`'s basis under `cost`, or None and why it does not fit.

    Names the LP does not have are ignored; the slack of every row that
    `start` did not know is basic.
    """
    m = len(b)
    n = len(names) - m
    index = {name: j for j, name in enumerate(names)}
    basic = {index[name] for name in start.basic if name in index}
    basic.update(n + i for i, name in enumerate(names[n:]) if name not in start.columns)
    if len(basic) != m:
        return None, f"cold start: start basis has {len(basic)} basic columns for {m} rows"
    tab = _Tableau(A_ext, b, lo, up, np.array(sorted(basic), dtype=int))
    for name in start.at_upper:
        j = index.get(name)
        if j is not None and j not in basic and up[j] < INF:
            tab.xn[j] = up[j]
    try:
        tab.rebuild(cost)
    except SolverError:
        return None, "cold start: start basis is singular"
    if (tab.gains() > FEAS_TOL).any():
        return None, "cold start: start basis is not dual feasible"
    return tab, "warm start"


# ---------------------------------------------------------------------------
# Pessimization (worst-case z for a numeric argument)
# ---------------------------------------------------------------------------

def can_pessimize(uset: UncertaintySet) -> bool:
    """True when `pessimize` has an oracle for `uset`: every kind but intersections."""
    if isinstance(uset, MinkowskiSum):
        return all(can_pessimize(m) for m in uset.members)
    return isinstance(uset, (NormBall, Polyhedral))


def pessimize(uset: UncertaintySet, w: np.ndarray) -> PessimizationResult:
    """Closed-form / inner-LP maximizer of w^T z over z in Z."""
    w = np.asarray(w, dtype=float)
    if w.shape != (uset.dim,):
        raise SolverError(f"pessimize: argument shape {w.shape} does not match set dim {uset.dim}")

    if isinstance(uset, NormBall):
        rho = uset.radius
        if rho == 0.0 or not w.any():
            z = np.zeros(uset.dim)
            return PessimizationResult(z, float(rho * vector_norm(w, dual_norm(uset.p)) if w.any() else 0.0))
        if uset.p == INF:
            z = rho * np.sign(w)
        elif uset.p == 1.0:
            z = np.zeros(uset.dim)
            i = int(np.argmax(np.abs(w)))
            z[i] = rho * np.sign(w[i])
        elif uset.p == 2.0:
            z = rho * w / np.linalg.norm(w)
        else:
            q = dual_norm(uset.p)
            scale = vector_norm(w, q) ** (q - 1.0)
            z = rho * np.sign(w) * np.abs(w) ** (q - 1.0) / scale
        return PessimizationResult(z, float(w @ z))

    if isinstance(uset, Polyhedral):
        z_vars = tuple(VariableDecl(f"_z{l + 1}") for l in range(uset.dim))
        rows = tuple(
            Constraint(f"_pz{i + 1}",
                       LinExpr.of({z_vars[l].id: float(uset.D[i, l]) for l in range(uset.dim)}),
                       LE, float(uset.d[i]))
            for i in range(uset.D.shape[0]))
        inner = DeterministicModel(
            vars=z_vars,
            objective=LinExpr.of({v.id: -w[l] for l, v in enumerate(z_vars)}),
            linear_rows=rows)
        sol = simplex_solve(inner)
        if sol.status != OPTIMAL:
            raise SolverError(f"pessimization LP over polyhedron ended {sol.status}")
        z = np.array([sol.values[v.id] for v in z_vars])
        return PessimizationResult(z, float(-sol.objective))

    if isinstance(uset, MinkowskiSum):
        z = np.zeros(uset.dim)
        value = 0.0
        for member in uset.members:
            part = pessimize(member, w)
            z = z + part.zstar
            value += part.value
        return PessimizationResult(z, value)

    raise UnsupportedSetError(
        f"pessimization not supported for set kind {uset.kind!r}; "
        "use the reformulation path plus sampling")


# ---------------------------------------------------------------------------
# Polyhedron analysis (parse-time validation, stress points)
# ---------------------------------------------------------------------------

def coordinate_extremes(uset: Polyhedral) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Min/max of each coordinate over D z <= d via 2L auxiliary LPs.

    Returns (lo, hi, extreme points).  Raises SolverError("unbounded ...")
    when any coordinate LP is unbounded.
    """
    L = uset.dim
    lo = np.zeros(L)
    hi = np.zeros(L)
    points: list[np.ndarray] = []
    for l in range(L):
        w = np.zeros(L)
        for sign, store in ((1.0, hi), (-1.0, lo)):
            w[l] = sign
            try:
                res = pessimize(uset, w)
            except SolverError as exc:
                raise SolverError(f"unbounded polyhedral set along coordinate {l + 1}") from exc
            store[l] = sign * res.value
            points.append(res.zstar)
        w[l] = 0.0
    return lo, hi, points


# ---------------------------------------------------------------------------
# Cutting loop
# ---------------------------------------------------------------------------

def _cut_key(lhs: LinExpr, rhs: float) -> tuple:
    return (tuple((v, round(c, 12)) for v, c in lhs.terms), round(rhs, 12))


class _CutPool:
    """Master rows: base rows plus a bounded FIFO of cuts per generator.

    Supporting cuts of one norm / uncertain row converge onto the same face
    and become nearly parallel; letting them pile up makes the master LP
    arbitrarily ill-conditioned.  Only the most recent CUT_POOL cuts per
    generator stay live (an evicted cut is re-addable if it re-violates).
    """

    def __init__(self, base_rows):
        self.base = list(base_rows)
        self.base_keys = {_cut_key(r.lhs, r.rhs) for r in self.base}
        self.pools: dict[int, list[Constraint]] = {}
        self.keys: dict[int, set] = {}

    def rows(self) -> tuple[Constraint, ...]:
        out = list(self.base)
        for pool in self.pools.values():
            out.extend(pool)
        return tuple(out)

    def add(self, gen_id: int, row: Constraint) -> bool:
        key = _cut_key(row.lhs, row.rhs)
        if key in self.base_keys:
            return False
        pool = self.pools.setdefault(gen_id, [])
        keys = self.keys.setdefault(gen_id, set())
        if key in keys:
            return False
        pool.append(row)
        keys.add(key)
        if len(pool) > CUT_POOL:
            old = pool.pop(0)
            keys.discard(_cut_key(old.lhs, old.rhs))
        return True


def _norm_generator(row: NormRow) -> tuple:
    """t >= ||arg||_q as -t + z^T arg <= 0 for all z in the dual norm's unit ball."""
    coeffs = [e.coeffs() for e in row.arg]
    on = sorted({v for d in coeffs for v in d})
    P = np.array([[d.get(v, 0.0) for d in coeffs] for v in on]).reshape(len(on), len(coeffs))
    c = np.array([e.constant for e in row.arg])
    return LinExpr.of({row.t: -1.0}), on, P, c, NormBall(dual_norm(row.q), 1.0, len(c)), 0.0


def _cutting_loop(kind: str, master: DeterministicModel, gens: list[tuple],
                  feas_tol: float, max_rounds: int) -> Solution:
    """Enforce each generator, the semi-infinite row (base, on, P, c, Z, rhs):
    base(x) + z^T (P^T x_on + c) <= rhs for all z in Z, by cuts on `master`.

    Each round pessimizes every generator at the master optimum and adds the
    violated realizations as cuts; `iterations` counts rounds.  Each master
    after the first starts from the previous one's optimal basis, in which
    the new cuts' slacks are basic.  A master LP that ends non-optimal is
    returned as it is.
    """
    pool = _CutPool(master.linear_rows)
    basis = None
    for round_no in range(1, max_rounds + 1):
        sol = simplex_solve(replace(master, linear_rows=pool.rows()), start=basis)
        if sol.status != OPTIMAL:
            return sol
        basis = sol.basis
        added = 0
        for k, (base, on, P, c, uset, rhs) in enumerate(gens):
            worst = pessimize(uset, P.T @ np.array([sol.values[v] for v in on]) + c)
            if base.evaluate(sol.values) + worst.value - rhs <= feas_tol:
                continue
            shift = P @ worst.zstar  # coefficient perturbation at z*
            cut = base + LinExpr.of({v: float(shift[i]) for i, v in enumerate(on)})
            if pool.add(k, Constraint(f"_cut{k}_{round_no}", cut, LE, rhs - float(c @ worst.zstar))):
                added += 1
        log.debug("%s round %d: master objective %r, %d cuts added, %s, %d pivots",
                  kind, round_no, sol.objective, added, basis.origin, sol.iterations)
        if not added:
            return replace(sol, iterations=round_no)
    log.warning("%s cutting loop hit the round limit (%d)", kind, max_rounds)
    return Solution(ITERATION_LIMIT, math.nan, {}, max_rounds)


def solve_deterministic(model: DeterministicModel, feas_tol: float = FEAS_TOL,
                        max_rounds: int = MAX_ROUNDS) -> Solution:
    """Solve a lowered model; norm rows are enforced by outer cuts.

    Each violated norm row t >= ||w(x)||_q contributes the supporting cut
    z*^T w(x) <= t, z* the worst point of the dual norm's unit ball for the
    current iterate (w/||w|| for q = 2).
    """
    if not model.soc_rows:
        return simplex_solve(model)
    gens = [_norm_generator(row) for row in model.soc_rows]
    return _cutting_loop("cone", replace(model, soc_rows=()), gens, feas_tol, max_rounds)


def cutting_plane_solve(model: CanonicalModel, feas_tol: float = FEAS_TOL,
                        max_rounds: int = MAX_ROUNDS) -> Solution:
    """Pessimization-based solve of a canonical robust model.

    The master LP holds the certain rows plus the nominal (z = 0) version of
    every uncertain row; each outer round pessimizes every uncertain row at
    the current iterate and adds the violated realizations as cuts.  A set
    without a pessimization oracle raises UnsupportedSetError before any LP.
    """
    for row in model.rows:
        if row.adaptive is not None:
            raise SolverError(f"row {row.id}: apply the decision-rule stage before solving")
        if row.uncertainty is not None and not can_pessimize(row.uncertainty.uset):
            raise UnsupportedSetError(f"row {row.id}: set kind {row.uncertainty.uset.kind!r} "
                                      "has no pessimization oracle")
    gens = [(row.lhs, row.uncertainty.on, row.uncertainty.P, np.zeros(row.uncertainty.dim),
             row.uncertainty.uset, row.rhs) for row in model.rows if row.uncertainty is not None]
    master = DeterministicModel(model.vars, model.objective,
                                tuple(replace(row, uncertainty=None) for row in model.rows))
    return _cutting_loop("cutplane", master, gens, feas_tol, max_rounds)
