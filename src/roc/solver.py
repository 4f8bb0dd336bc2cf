"""LP solving and pessimization oracles.

A dense bounded-variable simplex solves the lowered linear models over
their own columns: variable bounds are enforced by the ratio test, where an
entering column may also just flip to its other bound, and "=" rows get a
slack fixed at 0.  Every LP takes one sequence of steps on one tableau over
[A | I].  A cold start is price-free dual simplex steps from the slack
basis, which reach a feasible basis or prove that none exists, and no
artificial column is ever added; primal steps then run to the optimum.  The
tableau is updated in place at each pivot and refactorized from the
original data every REFACTOR_EVERY steps.  An optimum counts when a KKT
certificate, two products with the original data, passes; an updated
tableau that fails it is refactorized and asked again, and a fresh one that
fails it is an error.  One driver takes primal and dual steps alike, by
Dantzig's rule until a basis repeats, then by Bland's; a repeat under
Bland's rule is a numerical failure, not an optimum.  One
pessimization-based cutting loop solves both the norm rows of lowered
models and, as the independent oracle for every reformulation, canonical
robust models directly.  It keeps one master tableau: a new cut is one
appended row whose slack is basic, which leaves the optimal basis dual
feasible, so priced dual simplex steps restore primal feasibility or prove
the master infeasible, and the primal simplex confirms the optimum.  A
round that stays below REFACTOR_EVERY in-place steps takes no
factorization.  A full pool evicts only a cut that does not bind, whose
slack is basic, so the cut is deleted in place.  A dual phase that repeats
a basis under Bland's rule re-solves the master cold.

A polytope D z <= d is pessimized through the dual of max w^T z, the LP
min d^T y s.t. D^T y = w, y >= 0, whose row duals are the worst z.  Its
matrix and cost do not depend on w, so each set instance keeps one such LP
(`Polyhedral.support_lp`): a call sets its right-hand sides to w, which
moves the last optimal basis's values in place, that basis stays dual
feasible, and dual simplex steps re-enter the optimum.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .canonicalize import CanonicalModel
from .errors import SolverError, UnsupportedSetError
from .model import (EQ, INF, LE, LinExpr, MinkowskiSum, NormBall, Polyhedral,
                    UncertaintySet)
from .lower import DeterministicModel, NormRow
from .rc import NameGen, dual_norm, support_conjugate

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
# how a run of simplex steps ends, besides the statuses above
WITHIN_BOUNDS = "within bounds"
NO_ENTERING_COLUMN = "found no entering column"
REPEATED = "repeated a basis"


@dataclass(frozen=True)
class Solution:
    status: str
    objective: float
    values: dict[str, float]
    iterations: int


@dataclass(frozen=True)
class PessimizationResult:
    """Worst-case z for a fixed numeric argument w = P^T x."""

    zstar: np.ndarray
    value: float  # max over z in Z of w^T z


# ---------------------------------------------------------------------------
# Bounded-variable simplex
# ---------------------------------------------------------------------------

def _resized(view: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """`view`, a leading block of the buffer behind it, re-sliced to `rows`
    (by `cols`).

    When the buffer is too small the data moves to a new one with room to
    spare, so that rows and columns appended one at a time reallocate
    rarely.  Entries past `view`'s own shape are left unset.
    """
    buf = view if view.base is None else view.base
    if rows > buf.shape[0] or cols is not None and cols > buf.shape[1]:
        shape = (rows,) if cols is None else (rows, cols)
        buf = np.empty([s + max(s // 4, 16) for s in shape], view.dtype)
        buf[tuple(map(slice, view.shape))] = view
    return buf[:rows] if cols is None else buf[:rows, :cols]


def _pushed(view: np.ndarray, value) -> np.ndarray:
    out = _resized(view, view.size + 1)
    out[-1] = value
    return out


def _deleted(view: np.ndarray, k: int, axis: int = 0) -> np.ndarray:
    """`view` without index `k` along `axis`; what follows moves down in place."""
    if axis == 0:
        view[k:-1] = view[k + 1:]
        return view[:-1]
    view[:, k:-1] = view[:, k + 1:]
    return view[:, :-1]


class _Tableau:
    """Dense bounded-variable simplex tableau over [A | I], updated in place.

    Column n + i is row i's slack, and the tableau starts at the slack
    basis.  Every column has bounds lo <= x <= up with lo either 0 or -inf
    (the set-up shifts finite lower bounds to 0), and `xn` holds where each
    nonbasic column rests: at 0, or at its upper bound.  T holds B^-1 A, the
    basic values B^-1 (b - N x_N) in its last column, and the reduced costs
    under `cost` and minus the objective in its last row.  A step either
    flips the entering column to its other bound, which moves the basic
    values only, or pivots: a Gauss-Jordan rank-1 update of T, its cost row
    included.  A cutting loop keeps the tableau of an optimal master:
    `add_row` appends a cut with its slack basic (one vector-matrix product,
    counted as one in-place step), `drop_row` deletes a cut whose slack is
    basic, and dual then primal `steps` re-optimize; `set_rhs` moves the
    basic values under new right-hand sides (one matrix-vector product, one
    in-place step).  Every REFACTOR_EVERY in-place steps, counted across
    solves, T is refactorized from the untouched A_ext/b0.  An optimum on an
    updated tableau counts only when `residuals`, computed from A_ext, b0
    and cost, certify it, and the other decisions (unbounded, no entering
    column, repeated basis) count on a fresh tableau only, so the drift of
    the updates never decides an outcome.  A refactorization that finds the
    basis singular after in-place pivots rolls back to the last factorized
    basis and refactorizes on every pivot for the rest of the solve: on
    ill-conditioned masters (near-parallel cuts) an updated tableau can pick
    a pivot that exact arithmetic rejects.
    The tableau takes over the arrays it is given; those that grow become
    leading blocks of buffers with room to spare (`_resized`), so they are
    written in place rather than replaced.
    """

    def __init__(self, A_ext: np.ndarray, b0: np.ndarray, lo: np.ndarray, up: np.ndarray,
                 cost: np.ndarray):
        self.A_ext = A_ext
        self.b0 = b0
        self.lo = lo
        self.up = up
        self.cost = cost
        self.m, n = A_ext.shape
        self.basis = basis = np.arange(n - self.m, n)
        self.xn = np.zeros(n)
        self.T = np.zeros((self.m + 1, n + 1))
        self.sgn = np.zeros(n)
        self.factored = basis.copy()
        self.factored_xn = self.xn.copy()
        self.every = REFACTOR_EVERY
        self.updates = 0  # in-place steps since the last factorization

    def rebuild(self) -> bool:
        """Refactorize at the current basis; True when it had to roll back."""
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
        self.factored[:] = self.basis
        self.factored_xn[:] = self.xn
        return rolled_back

    def _factor(self):
        basis, lo, up = self.basis, self.lo, self.up
        # a pricing sign per column: -1 where a nonbasic column can rise, +1
        # where it rests at its upper bound, 0 for basic and fixed columns;
        # free nonbasic columns can move either way
        self.sgn[:] = np.where(self.xn == up, 1.0, -1.0)
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
        blo, bup = self.lo[self.basis], self.up[self.basis]
        x[(x > blo - FEAS_TOL) & (x < blo + DEGEN_TOL)] = 0.0
        near = (x > bup - DEGEN_TOL) & (x < bup + FEAS_TOL)
        x[near] = bup[near]

    def flip(self, col: int, step: float) -> bool:
        """Move nonbasic `col` by `step` onto its other bound; the basis stays."""
        self.xn[col] = self.up[col] if step > 0 else 0.0
        self.sgn[col] = -self.sgn[col]
        if self.updates + 1 >= self.every:
            return self.rebuild()
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
        self.basis[row] = col
        if self.updates + 1 >= self.every:
            return self.rebuild()
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

    def add_row(self, a: np.ndarray, b: float, up: float):
        """Append the row a x + s = b, `a` over the leading columns, with a
        new slack s in [0, up] that is basic.

        The tableau row is a - a_B B^-1 A with the basic value b - a x, so
        the reduced costs stay as they are; it counts as one in-place step.
        """
        m, n = self.m, self.T.shape[1] - 1
        row = np.zeros(n + 1)
        row[:a.size] = a
        row[-1] = b - a @ self.xn[:a.size]
        new = row - row[self.basis] @ self.T[:m]
        new[self.basis] = 0.0
        self.A_ext = _resized(self.A_ext, m + 1, n + 1)
        self.A_ext[:m, n] = 0.0
        self.A_ext[m, :n] = row[:n]
        self.A_ext[m, n] = 1.0
        self.b0 = _pushed(self.b0, b)
        self.basis = _pushed(self.basis, n)
        self.factored = _pushed(self.factored, n)
        self.lo = _pushed(self.lo, 0.0)
        self.up = _pushed(self.up, up)
        self.cost = _pushed(self.cost, 0.0)
        self.xn = _pushed(self.xn, 0.0)
        self.sgn = _pushed(self.sgn, 0.0)
        self.factored_xn = _pushed(self.factored_xn, 0.0)
        # the basic values' column and the reduced-cost row move out by one
        # to make room for the slack's column and the new row
        T = self.T = _resized(self.T, m + 2, n + 2)
        T[:, -1] = T[:, -2]
        T[-1] = T[-2]
        T[:, -2] = 0.0
        self.m = m + 1
        if self.updates + 1 >= self.every:
            self.rebuild()
            return
        T[m, :n] = new[:n]
        T[m, n] = 1.0
        T[m, -1] = new[-1]
        self._snap()
        self.updates += 1

    def set_rhs(self, b: np.ndarray):
        """Replace the leading rows' right-hand sides by `b`.  The basis
        stays, and the basic values and the objective move by B^-1 (b -
        b_old), B^-1 being T's slack columns; it counts as one in-place
        step."""
        delta = b - self.b0[:b.size]
        self.b0[:b.size] = b
        if self.updates + 1 >= self.every:
            self.rebuild()
            return
        first = self.xn.size - self.m  # row i's slack is column first + i
        self.T[:, -1] += self.T[:, first:first + b.size] @ delta
        self._snap()
        self.updates += 1

    def drop_row(self, i: int):
        """Delete row i and its slack, which is basic.  The slack's unit
        column leaves the other rows of B^-1 [A|b] independent of row i, so
        they stay as they were.  The rollback point drops the slack too,
        which leaves it a valid basis; where the slack is not basic in it,
        the tableau is refactorized first."""
        col = self.xn.size - self.m + i
        if col not in self.factored and self.rebuild():
            raise SolverError("numerically singular simplex basis before a row is dropped")
        pos = int(np.flatnonzero(self.basis == col)[0])
        self.T = _deleted(_deleted(self.T, pos), col, axis=1)
        self.A_ext = _deleted(_deleted(self.A_ext, i), col, axis=1)
        self.b0 = _deleted(self.b0, i)
        self.basis = _deleted(self.basis, pos)
        self.basis[self.basis > col] -= 1
        self.lo = _deleted(self.lo, col)
        self.up = _deleted(self.up, col)
        self.cost = _deleted(self.cost, col)
        self.xn = _deleted(self.xn, col)
        self.sgn = _deleted(self.sgn, col)  # `free` holds structural columns only: they come first
        self.m -= 1
        self.factored = _deleted(self.factored, int(np.flatnonzero(self.factored == col)[0]))
        self.factored[self.factored > col] -= 1
        self.factored_xn = _deleted(self.factored_xn, col)

    def gains(self) -> np.ndarray:
        """Objective decrease per unit move of each column off where it
        rests, in the direction it has room for (either way when free); no
        entry is positive at a dual feasible basis."""
        reduced = self.T[-1, :-1]
        gain = reduced * self.sgn
        if self.free.size:
            gain[self.free] = np.abs(reduced[self.free])
        return gain

    def residuals(self) -> tuple[float, float]:
        """The primal and dual residuals of the basis T holds, from the
        untouched A_ext, b0 and cost with two products and no solve.

        With x the nonbasic values `xn` and the basic values T[:m, -1], the
        primal residual is the larger of |A_ext x - b0| over 1 + |b0| and
        how far a basic value lies past its bounds.  With y = -T[-1, slacks]
        (the slacks' columns of A_ext are I), the dual residual is how far
        T's cost row lies from cost - y A_ext, over 1 + |cost|.  Both within
        FEAS_TOL, with no gain in the cost row, certify an optimum.
        """
        m, basis = self.m, self.basis
        x = self.xn.copy()
        xb = x[basis] = self.T[:m, -1]
        scale = 1.0 + np.abs(self.b0).max(initial=0.0)
        primal = max(np.abs(self.A_ext @ x - self.b0).max(initial=0.0) / scale,
                     np.maximum(self.lo[basis] - xb, xb - self.up[basis]).max(initial=0.0))
        y = -self.T[-1, -1 - m:-1]
        dual = np.abs(self.cost - y @ self.A_ext - self.T[-1, :-1]).max(initial=0.0)
        return float(primal), float(dual / (1.0 + np.abs(self.cost).max(initial=0.0)))

    def steps(self, pick, pivots_left: int, phase: str) -> tuple[str, int]:
        """Take the steps `pick` chooses until it decides, or gives up.

        `pick(bland)` returns either the next step, a call that flips or
        pivots and returns True when a refactorization rolled back, or a
        decision.  WITHIN_BOUNDS counts as it is: the primal steps that
        follow end in an `optimal`, which counts when the tableau's
        `residuals` certify it.  A certificate that fails on an updated
        tableau, and every other decision there, is asked again after a
        refactorization; one that fails on a fresh tableau raises
        SolverError.  On a repeated state (basis and where the nonbasic
        columns rest) the driver refactorizes, then switches `pick` to
        Bland's rule, and a repeat under Bland's rule, which cannot cycle in
        exact arithmetic, gives up.  Returns (decision, steps),
        (ITERATION_LIMIT, steps) at the limit, or (REPEATED, steps).
        """
        used = 0
        bland = False
        visited: set[bytes] = set()
        while True:
            step = pick(bland)
            if step == WITHIN_BOUNDS:
                return step, used
            if step == OPTIMAL:
                primal, dual = self.residuals()
                if max(primal, dual) <= FEAS_TOL:
                    return step, used
                if not self.updates:
                    raise SolverError(f"the {phase} simplex's optimal basis fails its certificate: "
                                      f"primal residual {primal:.3g}, dual residual {dual:.3g}")
            decided = isinstance(step, str)
            key = None if decided else self.basis.tobytes() + self.xn.tobytes()
            if decided or key in visited:
                if self.updates:  # other decisions and repeats count on a fresh tableau only
                    if self.rebuild():
                        visited.clear()
                    continue
                if decided:
                    return step, used
                if bland:
                    return REPEATED, used
                log.info("simplex: the %s steps repeated a basis; switching to Bland's rule "
                         "(steps so far: %d)", phase, used)
                bland = True
                visited.clear()
                continue
            if used >= pivots_left:
                return ITERATION_LIMIT, used
            visited.add(key)
            if step():
                visited.clear()
            used += 1

    def primal_pick(self, bland: bool):
        """The next primal step, or OPTIMAL or UNBOUNDED.  The column with
        the largest gain enters (under Bland's rule the improving one with the
        smallest index); it flips to its other bound when its own range is
        the shortest step, else the basic value that first reaches a bound
        leaves, exact ties going to the smallest basic index."""
        T, m = self.T, self.m
        gain = self.gains()
        candidates = (gain > PIVOT_TOL).nonzero()[0]
        if candidates.size == 0:
            return OPTIMAL
        col = int(candidates[0]) if bland else int(gain.argmax())
        rising = T[-1, col] < 0.0
        g = T[:m, col] if rising else -T[:m, col]  # fall of each basic value per unit step
        x = T[:m, -1]
        blo, bup = self.lo[self.basis], self.up[self.basis]
        ratios = np.full(m, INF)
        np.divide(x - blo, g, out=ratios, where=g > PIVOT_TOL)
        np.divide(x - bup, g, out=ratios, where=g < -PIVOT_TOL)
        best = ratios.min(initial=INF)
        span = self.up[col] - self.lo[col]  # the entering column's own range
        if span <= best:
            return UNBOUNDED if span == INF else partial(self.flip, col, span if rising else -span)
        ties = (ratios == best).nonzero()[0]  # exact ties: anticycling needs them exact
        row = int(ties[self.basis[ties].argmin()])
        return partial(self.pivot, row, col, 0.0 if g[row] > 0.0 else bup[row])

    def dual_pick(self, bland: bool, priced: bool):
        """The next dual step, or WITHIN_BOUNDS or NO_ENTERING_COLUMN.

        The basic value furthest outside its bounds (under Bland's rule the
        out-of-bounds basic column with the smallest index) leaves at the
        bound it violates.  The columns that can move it back in the
        direction their bounds allow may enter; priced steps keep the basis
        dual feasible, so the smallest |d_j / T[r, j]| enters, exact ties
        going to the largest |T[r, j]| (under Bland's rule the smallest
        index).  Price-free steps read every cost as 0, so all of them tie.
        No entering column on a fresh tableau proves the rows infeasible.
        """
        T, m = self.T, self.m
        x = T[:m, -1]
        blo, bup = self.lo[self.basis], self.up[self.basis]
        # positive only past a bound, and then (after _snap) by FEAS_TOL or more
        excess = np.maximum(blo - x, x - bup)
        if excess.max(initial=0.0) <= 0.0:
            return WITHIN_BOUNDS
        row = int(np.where(excess > 0.0, self.basis, INF).argmin() if bland else excess.argmax())
        rising = x[row] < blo[row]
        # how far x_row moves back toward its bounds per unit step of each
        # column in the direction its own bounds allow
        reach = T[row, :-1] * self.sgn if rising else -T[row, :-1] * self.sgn
        if self.free.size:
            reach[self.free] = np.abs(T[row, self.free])
        ties = (reach > PIVOT_TOL).nonzero()[0]
        if ties.size == 0:
            return NO_ENTERING_COLUMN
        if priced:
            ratios = np.maximum(-self.gains()[ties], 0.0) / reach[ties]
            ties = ties[ratios == ratios.min()]
        col = int(ties[0]) if bland else int(ties[reach[ties].argmax()])
        return partial(self.pivot, row, col, blo[row] if rising else bup[row])


class _LP:
    """A purely linear model over its columns, whose rows may change between solves.

    Column j holds x_j - shift_j for each non-fixed variable: a finite lower
    bound (or, without one, a finite upper bound) shifts to 0, so every
    column starts at 0.  Fixed variables fold into the rhs.  The rows are
    the model's, then the appended ones; each gets one slack, in [0, inf) on
    a "<=" row and [0, 0] on an "=" row.  One tableau holds them all from
    the start: `add_row` and `drop_row` edit it, and after an optimal solve
    the next `solve` starts from its basis with dual simplex steps.
    """

    def __init__(self, model: DeterministicModel):
        cols = [v for v in model.vars if not v.is_fixed()]
        self.n = n = len(cols)
        self.vars = cols + [v for v in model.vars if v.is_fixed()]
        # each variable's place in `values`, and its value with every column at 0
        self.index = {v.id: j for j, v in enumerate(self.vars)}
        self.at_zero = np.array([v.lower if v.lower > -INF else v.upper if v.upper < INF else 0.0
                                 for v in self.vars])
        lo = np.array([0.0 if v.lower > -INF else -INF for v in cols])
        up = np.array([v.upper for v in cols]) - self.at_zero[:n]

        self.m = m = len(model.linear_rows)  # the model's rows; appended ones follow
        A_ext = np.hstack([np.zeros((m, n)), np.eye(m)])
        b = np.zeros(m)
        for i, row in enumerate(model.linear_rows):
            if row.sense not in (LE, EQ):
                raise SolverError(f"row {row.id}: unsupported sense {row.sense!r}")
            A_ext[i, :n], offset = self.dense(row.lhs)
            b[i] = row.rhs - offset
        slack_up = np.array([0.0 if row.sense == EQ else INF for row in model.linear_rows])
        c, offset = self.dense(model.objective)
        self.c_offset = offset + model.objective.constant
        self.tab = _Tableau(A_ext, b, np.concatenate([lo, np.zeros(m)]),
                            np.concatenate([up, slack_up]), np.concatenate([c, np.zeros(m)]))
        self.warm = False  # the tableau holds an optimal basis

    def dense(self, lhs: LinExpr) -> tuple[np.ndarray, float]:
        """Coefficients over the columns, and the value of lhs with every column at 0."""
        a = np.zeros(self.n)
        offset = 0.0
        for vid, coeff in lhs.terms:
            j = self.index[vid]
            if j < self.n:
                a[j] = coeff
            offset += coeff * self.at_zero[j]
        return a, offset

    def add_row(self, a: np.ndarray, b: float, up: float = INF):
        """Append the row a x + s = b over the columns, its slack s in [0, up]."""
        self.tab.add_row(a, b, up)

    def drop_row(self, k: int):
        """Drop appended row k, whose slack is basic in the kept tableau, in place."""
        self.tab.drop_row(self.m + k)

    def set_rhs(self, b: np.ndarray):
        """Replace the model rows' right-hand sides over the columns.  The
        costs stay, so a kept basis stays dual feasible: its basic values
        move under the new sides in place, and the next `solve` starts
        from it."""
        self.tab.set_rhs(b)

    def solve(self, max_pivots: int = MAX_PIVOTS) -> tuple[str, int, str]:
        """(status, steps, how the solve started).

        From a kept optimal basis: priced dual simplex steps until the basic
        values are within their bounds, or until a row that no column can
        move back, found on a fresh tableau, proves the rows infeasible.
        Without a kept basis, or when those steps repeat a basis under
        Bland's rule, the solve starts cold: the tableau returns to the
        slack basis with every column at 0, is factorized once, and
        price-free dual steps reach a feasible basis or prove that none
        exists.  Either way the pivots keep the cost row current, so primal
        steps then run to the optimum, which counts on its certificate: a
        warm solve that stays below REFACTOR_EVERY in-place steps takes no
        factorization.  A cold phase that repeats a basis under Bland's
        rule has nothing to fall back on and raises SolverError.  Every
        step counts, abandoned warm ones too.
        """
        tab = self.tab
        tab.every = REFACTOR_EVERY  # a rollback's every-step refactorization lasts one solve
        pivots, status, origin, phase = 0, WITHIN_BOUNDS, "warm start", "priced dual"
        if self.warm:
            status, pivots = tab.steps(partial(tab.dual_pick, priced=True), max_pivots, phase)
        if not self.warm or status == REPEATED:
            origin = f"cold start: the dual simplex {status}" if self.warm else "cold start"
            phase = "price-free dual"
            tab.basis[:] = np.arange(self.n, tab.xn.size)
            tab.xn[:] = 0.0
            tab.rebuild()
            status, used = tab.steps(partial(tab.dual_pick, priced=False), max_pivots - pivots,
                                     phase)
            pivots += used
        if status == WITHIN_BOUNDS:
            phase = "primal"
            status, used = tab.steps(tab.primal_pick, max_pivots - pivots, phase)
            pivots += used
        if status == REPEATED:
            raise SolverError(f"{origin}: the {phase} simplex repeated a basis under Bland's rule")
        if status == NO_ENTERING_COLUMN:
            status = INFEASIBLE
        self.warm = status == OPTIMAL
        return status, pivots, origin

    def x(self) -> np.ndarray:
        """The column values at the kept tableau's basis."""
        tab = self.tab
        x = tab.xn.copy()
        x[tab.basis] = tab.T[:tab.m, -1]
        return x[:self.n]

    def values(self) -> np.ndarray:
        """Every variable's value, in `self.vars` order, float dust snapped onto 0."""
        values = self.at_zero.copy()
        values[:self.n] += self.x()
        values[np.abs(values) < 1e-12] = 0.0
        return values

    def objective(self) -> float:
        return float(self.tab.cost[:self.n] @ self.x() + self.c_offset)

    def duals(self) -> np.ndarray:
        """The model rows' duals at the kept tableau's basis, a new array:
        minus the reduced costs of their slacks."""
        return 0.0 - self.tab.T[-1, self.n:self.n + self.m]

    def solution(self, status: str, iterations: int) -> Solution:
        if status != OPTIMAL:
            return Solution(status, -math.inf if status == UNBOUNDED else math.nan, {}, iterations)
        return Solution(OPTIMAL, self.objective(),
                        dict(zip(self.index, self.values().tolist())), iterations)


def support_lp(uset: Polyhedral) -> _LP:
    """min d^T y s.t. D^T y = w, y >= 0, the LP `rc.support_conjugate`
    writes for a polytope, here with w = 0 until `set_rhs` gives it: the
    dual of max w^T z over D z <= d, whose row duals are that z."""
    sr = support_conjugate(uset, (LinExpr(),) * uset.dim, NameGen())
    return _LP(DeterministicModel(sr.aux_vars, sr.affine, sr.aux_rows))


def simplex_solve(model: DeterministicModel, max_pivots: int = MAX_PIVOTS) -> Solution:
    """Dense bounded-variable simplex over a purely linear model, started cold."""
    if model.soc_rows:
        raise SolverError("simplex cannot handle norm rows; cut them first")
    lp = _LP(model)
    status, pivots, _ = lp.solve(max_pivots)
    return lp.solution(status, pivots)


# ---------------------------------------------------------------------------
# Pessimization (worst-case z for a numeric argument)
# ---------------------------------------------------------------------------

def can_pessimize(uset: UncertaintySet) -> bool:
    """True when `pessimize` has an oracle for `uset`: every kind but intersections."""
    if isinstance(uset, MinkowskiSum):
        return all(can_pessimize(m) for m in uset.members)
    return isinstance(uset, (NormBall, Polyhedral))


def pessimize(uset: UncertaintySet, w: np.ndarray) -> PessimizationResult:
    """Closed-form / inner-LP maximizer of w^T z over z in Z.

    Over a polytope the inner LP is the set instance's kept dual LP,
    re-entered from its last optimal basis; z* is read from its row duals,
    as a new array.  Under ties z* may depend on the earlier calls on the
    same instance; the value does not.  A dual LP that ends non-optimal
    (the set is unbounded along w, or empty) raises SolverError.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (uset.dim,):
        raise SolverError(f"pessimize: argument shape {w.shape} does not match set dim {uset.dim}")

    if isinstance(uset, NormBall):
        rho = uset.radius
        if rho == 0.0 or not w.any():
            return PessimizationResult(np.zeros(uset.dim), 0.0)
        if uset.p == 1.0:
            z = np.zeros(uset.dim)
            i = int(np.argmax(np.abs(w)))
            z[i] = rho * np.sign(w[i])
        else:
            # exactly rho sign(w) at p = inf (q = 1) and rho w / ||w||_2 at p = 2
            q = dual_norm(uset.p)
            z = rho * np.sign(w) * np.abs(w) ** (q - 1.0) / np.linalg.norm(w, q) ** (q - 1.0)
        return PessimizationResult(z, float(w @ z))

    if isinstance(uset, Polyhedral):
        lp = uset.support_lp
        lp.set_rhs(w)
        status, _, _ = lp.solve()
        if status != OPTIMAL:
            raise SolverError(f"pessimization LP over polyhedron: its dual ended {status}")
        z = lp.duals()
        return PessimizationResult(z, float(w @ z))

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

def _cut_key(a: np.ndarray, b: float) -> bytes:
    """A row a x <= b to 12 decimals, -0.0 read as 0.0."""
    return (np.append(a, b).round(12) + 0.0).tobytes()


def _norm_generator(row: NormRow) -> tuple:
    """t >= ||arg||_q as -t + z^T arg <= 0 for all z in the dual norm's unit ball."""
    coeffs = [e.coeffs() for e in row.arg]
    on = sorted({v for d in coeffs for v in d})
    P = np.array([[d.get(v, 0.0) for d in coeffs] for v in on]).reshape(len(on), len(coeffs))
    c = np.array([e.constant for e in row.arg])
    return LinExpr.of({row.t: -1.0}), on, P, c, NormBall(dual_norm(row.q), 1.0, len(c)), 0.0


def _cutting_loop(kind: str, master: DeterministicModel, gens: list[tuple],
                  feas_tol: float) -> Solution:
    """Enforce each generator, the semi-infinite row (base, on, P, c, Z, rhs):
    base(x) + z^T (P^T x_on + c) <= rhs for all z in Z, by cuts on `master`.

    Each round pessimizes every generator at the master optimum and appends
    the violated realizations to the master's kept tableau as cuts;
    `iterations` counts rounds.  Supporting cuts of one row converge onto
    the same face and become nearly parallel, and letting them pile up makes
    the master arbitrarily ill-conditioned, so a generator that holds
    CUT_POOL cuts evicts its oldest cut that does not bind (an evicted cut
    is re-addable if it re-violates).  Binding cuts stay, since dropping one
    lets the next round re-add it and the loop cycle between cut sets; a
    pool whose cuts all bind grows instead.  A binding cut has a nonbasic
    slack, so there are at most as many as the master has columns.
    A master LP that ends non-optimal is returned as it is.
    """
    lp = _LP(master)
    seen = {_cut_key(a, b) for a, b in zip(lp.tab.A_ext[:lp.m, :lp.n], lp.tab.b0[:lp.m])}
    live: list[tuple[int, bytes]] = []  # (generator, key) of each appended cut, in row order
    rows = []  # each generator's base row over every variable, and the places of `on`
    for base, on, P, c, uset, rhs in gens:
        g = np.zeros(len(lp.vars))
        for v, coeff in base.terms:
            g[lp.index[v]] = coeff
        rows.append((g, np.array([lp.index[v] for v in on], dtype=int), P, c, uset, rhs))
    for round_no in range(1, MAX_ROUNDS + 1):
        status, pivots, origin = lp.solve()
        if status != OPTIMAL:
            return lp.solution(status, pivots)
        x = lp.values()
        cuts = []
        for k, (g, on, P, c, uset, rhs) in enumerate(rows):
            worst = pessimize(uset, P.T @ x[on] + c)
            if g @ x + worst.value - rhs <= feas_tol:
                continue
            cut = g.copy()
            cut[on] += P @ worst.zstar  # the coefficients perturbed at z*
            b = rhs - float(c @ worst.zstar) - float(cut @ lp.at_zero)
            key = _cut_key(cut[:lp.n], b)
            if key not in seen and (k, key) not in live:
                cuts.append((k, key, cut[:lp.n], b))
        objective = lp.objective()
        evicted = 0
        for k, _, _, _ in cuts:
            mine = [i for i, (gen, _) in enumerate(live) if gen == k]
            if len(mine) < CUT_POOL:
                continue
            loose = [i for i in mine if lp.n + lp.m + i in lp.tab.basis]
            if loose:
                lp.drop_row(loose[0])
                del live[loose[0]]
                evicted += 1
        for k, key, a, b in cuts:
            lp.add_row(a, b)
            live.append((k, key))
        log.debug("%s round %d: master objective %r, %d cuts added, %d evicted, %s, %d pivots",
                  kind, round_no, objective, len(cuts), evicted, origin, pivots)
        if not cuts:
            return lp.solution(OPTIMAL, round_no)
    log.warning("%s cutting loop hit the round limit (%d)", kind, MAX_ROUNDS)
    return lp.solution(ITERATION_LIMIT, MAX_ROUNDS)


def solve_deterministic(model: DeterministicModel, feas_tol: float = FEAS_TOL) -> Solution:
    """Solve a lowered model; norm rows are enforced by outer cuts.

    Each violated norm row t >= ||w(x)||_q contributes the supporting cut
    z*^T w(x) <= t, z* the worst point of the dual norm's unit ball for the
    current iterate (w/||w|| for q = 2).
    """
    if not model.soc_rows:
        return simplex_solve(model)
    gens = [_norm_generator(row) for row in model.soc_rows]
    return _cutting_loop("cone", replace(model, soc_rows=()), gens, feas_tol)


def cutting_plane_solve(model: CanonicalModel, feas_tol: float = FEAS_TOL) -> Solution:
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
    return _cutting_loop("cutplane", master, gens, feas_tol)
