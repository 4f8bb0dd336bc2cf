"""Independent evidence: sampling-based checks of robust solutions.

Random samples are drawn per set kind, each batch with array operations:
balls exactly (uniform in the p-ball for every p), polytopes by rejection
from their bounding box while at least 1 in 10*L candidates is kept and by
independent hit-and-run chains of 10*L steps after that, intersections by
batched rejection from their one member without a membership test, else
from their easiest member, and Minkowski sums as sums of member batches.
Deterministic stress points (axis extremes, sign-pattern corners, polytope
vertices) carry the adversarial burden, since worst cases of linear
functionals sit on boundary extremes.  Reports never throw on violation;
they record it.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .canonicalize import CanonicalModel
from .errors import UnsupportedSetError
from .model import (EQ, HERE_AND_NOW, INF, Intersection, LdrAssignment,
                    MinkowskiSum, NormBall, Polyhedral, UncertaintySet)
from .solver import FEAS_TOL, Solution

log = logging.getLogger("roc")

REJECTION_CAP = 100_000
# entries of one (rows x points) working array of a polytope sampler
SAMPLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class VerificationReport:
    samples: int
    violations: int
    max_violation: float
    oracle_gap: float | None
    seed: int
    verdict: str  # "pass" | "fail"


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _sample_ball(uset: NormBall, n: int, rng: np.random.Generator) -> np.ndarray:
    L, rho = uset.dim, uset.radius
    if rho == 0.0:
        return np.zeros((n, L))
    if uset.p == INF:
        return rng.uniform(-rho, rho, size=(n, L))
    if uset.p == 2.0:
        g = rng.standard_normal((n, L))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rho * rng.uniform(size=n) ** (1.0 / L)
        return g * radii[:, None]
    if uset.p == 1.0:
        weights = rng.dirichlet(np.ones(L), size=n)
        signs = rng.integers(0, 2, size=(n, L)) * 2 - 1
        radii = rho * rng.uniform(size=n) ** (1.0 / L)
        return weights * signs * radii[:, None]
    # general p (Barthe, Guedon, Mendelson & Naor 2005): with |g_l|^p ~
    # Gamma(1/p) and E ~ Exp(1), g / (||g||_p^p + E)^(1/p) is uniform in the
    # unit p-ball
    p = uset.p
    signs = rng.integers(0, 2, size=(n, L)) * 2 - 1
    gp = rng.gamma(1.0 / p, size=(n, L))
    scale = rho / (gp.sum(axis=1) + rng.exponential(size=n)) ** (1.0 / p)
    return signs * gp ** (1.0 / p) * scale[:, None]


def _sample_poly(uset: Polyhedral, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection from the bounding box of `uset.extremes`, then hit-and-run.

    Box candidates are kept when D z <= d holds exactly, so kept points are
    exactly uniform.  Rejection stops once fewer than 1 in 10*L candidates
    were kept: from there a point costs more membership tests than one chain
    of `_hit_and_run` costs chord steps, and chains draw the rest.
    """
    lo, hi, _ = uset.extremes
    # on a flat axis lo == hi, which rng.uniform reads as hi < lo if hi is -0.0
    lo, hi = lo + 0.0, hi + 0.0
    L = uset.dim
    Z = _rejection(lambda size: rng.uniform(lo, hi, size=(size, L)),
                   lambda cand: cand[np.all(uset.D @ cand.T <= uset.d[:, None], axis=0)],
                   n, max(1, SAMPLE_BLOCK // len(uset.d)), per_point=10 * L)
    if len(Z) < n:
        Z = np.concatenate([Z, _hit_and_run(uset, n - len(Z), rng)])
    return Z


def _hit_and_run(uset: Polyhedral, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent chains from 0, 10*L steps each.

    A chain's final point is one sample; a chain whose chords all had zero
    width never left 0 and is dropped.  Chains run side by side in blocks
    whose (rows x chains) arrays stay within SAMPLE_BLOCK entries.
    """
    D, d = uset.D, uset.d[:, None]
    L = uset.dim
    block = max(1, SAMPLE_BLOCK // len(d))
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, block):
            m = min(block, n - start)
            Z = np.zeros((L, m))
            for _ in range(10 * L):
                u = rng.standard_normal((L, m))
                norm = np.linalg.norm(u, axis=0)
                ok = norm >= 1e-12
                u /= np.where(ok, norm, 1.0)
                rates = D @ u
                rates[np.abs(rates) <= 1e-12] = 0.0
                # the chord ends at min slack/rate over rising rows and max over
                # falling ones, taken as 1/max and 1/min of rate/slack (fmax and
                # fmin skip 0/0).  Slack comes from Z, so rounding cannot build
                # up, clipped at 0, and in place: a broadcast against a fresh
                # temporary of this size is several times slower
                slack = D @ Z
                np.subtract(d, slack, out=slack)
                np.maximum(slack, 0.0, out=slack)
                q = np.divide(rates, slack, out=rates)
                q_hi = np.fmax.reduce(q, axis=0)
                q_lo = np.fmin.reduce(q, axis=0)
                t_hi = np.where(q_hi > 0, 1.0 / q_hi, 0.0)
                t_lo = np.where(q_lo < 0, 1.0 / q_lo, 0.0)
                ok &= t_hi - t_lo >= 1e-14
                Z += np.where(ok, rng.uniform(t_lo, t_hi), 0.0) * u
            out.append(Z[:, np.any(Z != 0.0, axis=0)].T)
    Z = np.concatenate(out)
    if len(Z) < n:
        log.warning("hit-and-run produced %d of %d samples", len(Z), n)
    return Z


def _rank(uset: UncertaintySet) -> int:
    """-1 for a set `_inside` has no test for (a Minkowski sum, or an
    intersection that holds one), else the cost of drawing from it."""
    if isinstance(uset, Intersection):
        return 2 if min(map(_rank, uset.members)) >= 0 else -1
    return {"ball": 0, "poly": 1, "minkowski": -1}.get(uset.kind, 9)


def _members(uset: Intersection) -> list[UncertaintySet]:
    """The members by `_rank`: the one `uset` is drawn from comes first."""
    members = sorted(uset.members, key=_rank)
    if members[1:] and _rank(members[1]) < 0:
        raise UnsupportedSetError(
            f"cannot sample intersect({', '.join(m.kind for m in uset.members)}): more than one "
            "member has no membership test (a Minkowski sum, or an intersection that holds one)")
    return members


def _inside(uset: UncertaintySet, Z: np.ndarray) -> np.ndarray:
    """Mask of the rows of Z that lie in `uset`, at membership tolerance 1e-9;
    of an intersection's members, only those with a test (`_rank` >= 0)."""
    if isinstance(uset, NormBall):
        return np.linalg.norm(Z, ord=uset.p, axis=1) <= uset.radius + 1e-9
    if isinstance(uset, Polyhedral):
        mask = np.empty(len(Z), dtype=bool)
        step = max(1, SAMPLE_BLOCK // len(uset.d))
        for i in range(0, len(Z), step):
            mask[i:i + step] = np.all(Z[i:i + step] @ uset.D.T <= uset.d + 1e-9, axis=1)
        return mask
    if isinstance(uset, Intersection):
        mask = np.ones(len(Z), dtype=bool)
        for member in (m for m in uset.members if _rank(m) >= 0):
            mask &= _inside(member, Z)
        return mask
    return np.array([uset.contains(z) for z in Z], dtype=bool)  # raises for Minkowski sums


def _rejection(draw, keep, n: int, block: int, cap: float = math.inf,
               per_point: int | None = None) -> np.ndarray:
    """Up to n rows of draw(size) that keep(candidates) returns, drawn in
    batches of at most `block` sized by the yield so far.  Stops after `cap`
    candidates, or once more than `per_point` were drawn per row kept."""
    parts = []
    kept = drawn = 0
    while kept < n and drawn < cap and (per_point is None or drawn <= kept * per_point):
        need = n - kept if not drawn else math.ceil((n - kept) * drawn / max(kept, 1))
        size = min(need, cap - drawn, block)
        cand = keep(draw(size))
        drawn += size
        parts.append(cand)
        kept += len(cand)
    return np.concatenate(parts)[:n]


def _sample_intersection(uset: Intersection, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection from the first of `_members`; stops at n points or
    REJECTION_CAP candidates."""
    easiest, *others = _members(uset)

    def keep(cand):
        for member in others:
            cand = cand[_inside(member, cand)]
        return cand

    Z = _rejection(lambda size: _sample(easiest, size, rng), keep, n,
                   max(1, SAMPLE_BLOCK // uset.dim), cap=REJECTION_CAP)
    if len(Z) < n:
        log.warning("intersection rejection sampling kept %d of %d", len(Z), n)
    return Z


def _sample(uset: UncertaintySet, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(uset, NormBall):
        return _sample_ball(uset, n, rng)
    if isinstance(uset, Polyhedral):
        return _sample_poly(uset, n, rng)
    if isinstance(uset, MinkowskiSum):
        parts = [_sample(m, n, rng) for m in uset.members]
        k = min(len(p) for p in parts)
        return sum(p[:k] for p in parts)
    if isinstance(uset, Intersection):
        return _sample_intersection(uset, n, rng)
    raise UnsupportedSetError(f"no sampler for set kind {uset.kind!r}")


def stress_points(uset: UncertaintySet) -> np.ndarray:
    """Deterministic adversarial points: boundary extremes of the set."""
    L = uset.dim
    if isinstance(uset, NormBall):
        axes = np.vstack([np.eye(L), -np.eye(L)]) * uset.radius
        if uset.p == INF and L <= 10:
            # row k holds the bits of k, first coordinate highest: the order
            # of itertools.product((-1.0, 1.0), repeat=L)
            bits = (np.arange(2 ** L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
            corners = uset.radius * (bits * 2.0 - 1.0)
            return np.vstack([axes, corners])
        return axes
    if isinstance(uset, Polyhedral):
        _, _, points = uset.extremes
        return np.vstack(points) if points else np.zeros((0, L))
    if isinstance(uset, Intersection):  # a member without a test alone, else all members
        first = _members(uset)[0]
        pool = np.vstack([stress_points(m) for m in ([first] if _rank(first) < 0 else uset.members)])
        return pool[_inside(uset, pool)]
    if isinstance(uset, MinkowskiSum):
        combos = itertools.product(*(stress_points(m) for m in uset.members))
        pool = [sum(parts) for parts in itertools.islice(combos, 1024)]
        return np.vstack(pool) if pool else np.zeros((0, L))
    raise UnsupportedSetError(f"no stress points for set kind {uset.kind!r}")


def sample_set(uset: UncertaintySet, n: int, seed: int) -> np.ndarray:
    """n random points in Z followed by the deterministic stress points."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    return np.vstack([_sample(uset, n, rng), stress_points(uset)])


# ---------------------------------------------------------------------------
# Solution verification
# ---------------------------------------------------------------------------

def verify_solution(model: CanonicalModel, sol: Solution, n: int, seed: int,
                    ldr: LdrAssignment | None = None,
                    oracle_gap: float | None = None,
                    tol: float = 1e-6) -> VerificationReport:
    """Check every row of `model`: certain rows and here-and-now bounds once
    at the solution, uncertain rows at sampled and stress points.

    A "<=" row's violation is lhs - rhs, an "=" row's |lhs - rhs|, and a
    bound's how far the value lies past it.
    For adaptive models pass the pre-decision-rule canonical model together
    with the rule assignment from the solved model; wait-and-see variables
    are evaluated as y(z) = u + V^T z and their bound rows checked too.
    `oracle_gap` is |a - b| for `sol`'s objective a and the other method's
    b; it passes when |a - b| <= tol * max(1, |a|, |b|).
    """
    values = sol.values
    violations = 0
    max_violation = 0.0

    def check(excess: np.ndarray):
        nonlocal violations, max_violation
        if excess.size:
            max_violation = max(max_violation, float(excess.max()))
            violations += int(np.count_nonzero(excess > FEAS_TOL))

    here = [v for v in model.vars if v.stage == HERE_AND_NOW]
    x = np.array([values[v.id] for v in here])
    check(np.maximum(np.array([v.lower for v in here]) - x,
                     x - np.array([v.upper for v in here])))

    # adaptive rows share one uncertainty vector: one batch for all of them
    shared_batch: np.ndarray | None = None
    shared_set = next((r.uncertainty.uset for r in model.rows
                       if r.adaptive is not None and r.uncertainty is not None), None)
    if shared_set is not None:
        shared_batch = sample_set(shared_set, n, seed)

    batch_idx = 0
    for row in model.rows:
        base = row.lhs.evaluate(values) - row.rhs
        if row.uncertainty is None and row.adaptive is None:
            check(np.array([abs(base) if row.sense == EQ else base]))
            continue
        if row.adaptive is not None:
            Z = shared_batch
        else:
            batch_idx += 1
            Z = sample_set(row.uncertainty.uset, n, seed + batch_idx)
        if Z is None or not len(Z):
            continue
        vals = np.full(len(Z), base)
        if row.uncertainty is not None:
            w = row.uncertainty.P.T @ np.array([values[v] for v in row.uncertainty.on])
            vals = vals + Z @ w
        if row.adaptive is not None:
            if ldr is None:
                raise UnsupportedSetError(
                    "adaptive rows need the decision-rule assignment to verify")
            for y_id, coeff in row.adaptive.terms:
                u, v = ldr.policy(y_id, values)
                vals = vals + coeff * (u + Z @ v)
        check(vals)

    # bounds of wait-and-see variables must hold for every z
    if ldr is not None and shared_batch is not None:
        wait = {v.id: v for v in model.wait_and_see()}
        for y_id, decl in sorted(wait.items()):
            u, v = ldr.policy(y_id, values)
            y_vals = u + shared_batch @ v
            if decl.lower > -INF:
                check(decl.lower - y_vals)
            if decl.upper < INF:
                check(y_vals - decl.upper)

    # b = a +- gap; for tol < 1 the rule holds on either side of a exactly
    # when gap <= tol * max(1, |a|)
    gap_ok = oracle_gap is None or abs(oracle_gap) <= tol * max(1.0, abs(sol.objective))
    verdict = "pass" if violations == 0 and gap_ok else "fail"
    return VerificationReport(
        samples=n,
        violations=violations,
        max_violation=max_violation,
        oracle_gap=oracle_gap,
        seed=seed,
        verdict=verdict,
    )
