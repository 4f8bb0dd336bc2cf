"""Independent evidence: sampling-based checks of robust solutions.

Random samples are uniformity heuristics per set kind; deterministic stress
points (axis extremes, sign-pattern corners, polytope vertices) carry the
adversarial burden, since worst cases of linear functionals sit on boundary
extremes.  Reports never throw on violation; they record it.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .canonicalize import CanonicalModel
from .errors import UnsupportedSetError
from .model import (INF, Intersection, LdrAssignment, MinkowskiSum, NormBall,
                    Polyhedral, UncertaintySet)
from .solver import FEAS_TOL, Solution, coordinate_extremes

log = logging.getLogger("roc")

REJECTION_CAP = 100_000


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
    # general p: rejection from the enclosing box
    out = np.empty((n, L))
    filled = 0
    for _ in range(REJECTION_CAP):
        cand = rng.uniform(-rho, rho, size=L)
        if uset.contains(cand):
            out[filled] = cand
            filled += 1
            if filled == n:
                return out
    log.warning("rejection sampling exhausted after %d draws", REJECTION_CAP)
    return out[:filled]


def _sample_poly(uset: Polyhedral, n: int, rng: np.random.Generator) -> np.ndarray:
    """Hit-and-run from 0 with 10*L burn-in steps."""
    L = uset.dim
    z = np.zeros(L)
    burn = 10 * L
    out = np.empty((n, L))
    kept = 0
    steps = 0
    while kept < n and steps < REJECTION_CAP:
        steps += 1
        direction = rng.standard_normal(L)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        direction /= norm
        rates = uset.D @ direction
        slack = uset.d - uset.D @ z
        t_hi = np.min(slack[rates > 1e-12] / rates[rates > 1e-12]) if np.any(rates > 1e-12) else 0.0
        t_lo = np.max(slack[rates < -1e-12] / rates[rates < -1e-12]) if np.any(rates < -1e-12) else 0.0
        if t_hi - t_lo < 1e-14:
            continue
        z = z + rng.uniform(t_lo, t_hi) * direction
        if steps > burn:
            out[kept] = z
            kept += 1
    if kept < n:
        log.warning("hit-and-run produced %d of %d samples", kept, n)
    return out[:kept]


def _rank(uset: UncertaintySet) -> int:
    order = {"ball": 0, "poly": 1, "intersect": 2, "minkowski": 3}
    return order.get(uset.kind, 9)


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
        members = sorted(uset.members, key=_rank)
        easiest, others = members[0], members[1:]
        out = np.empty((n, uset.dim))
        kept = 0
        for _ in range(REJECTION_CAP):
            cand = _sample(easiest, 1, rng)
            if cand.shape[0] and all(m.contains(cand[0]) for m in others):
                out[kept] = cand[0]
                kept += 1
                if kept == n:
                    return out
        log.warning("intersection rejection sampling kept %d of %d", kept, n)
        return out[:kept]
    raise UnsupportedSetError(f"no sampler for set kind {uset.kind!r}")


def stress_points(uset: UncertaintySet) -> np.ndarray:
    """Deterministic adversarial points: boundary extremes of the set."""
    L = uset.dim
    if isinstance(uset, NormBall):
        axes = np.vstack([np.eye(L), -np.eye(L)]) * uset.radius
        if uset.p == INF and L <= 10:
            corners = uset.radius * np.array(list(itertools.product((-1.0, 1.0), repeat=L)))
            return np.vstack([axes, corners])
        return axes
    if isinstance(uset, Polyhedral):
        _, _, points = coordinate_extremes(uset)
        return np.vstack(points) if points else np.zeros((0, L))
    if isinstance(uset, Intersection):
        pool = [p for m in uset.members for p in stress_points(m)
                if all(other.contains(p) for other in uset.members)]
        return np.vstack(pool) if pool else np.zeros((0, L))
    if isinstance(uset, MinkowskiSum):
        combos = [stress_points(m) for m in uset.members]
        pool = []
        for parts in itertools.islice(itertools.product(*combos), 1024):
            pool.append(sum(parts))
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
                    tol: float = 1e-6,
                    feas_tol: float = FEAS_TOL) -> VerificationReport:
    """Check every uncertain row of `model` at sampled and stress points.

    For adaptive models pass the pre-decision-rule canonical model together
    with the rule assignment from the solved model; wait-and-see variables
    are evaluated as y(z) = u + V^T z and their bound rows checked too.
    `oracle_gap` is |a - b| for `sol`'s objective a and the other method's
    b; it passes when |a - b| <= tol * max(1, |a|, |b|).
    """
    values = sol.values
    violations = 0
    max_violation = 0.0

    # adaptive rows share one uncertainty vector: one batch for all of them
    shared_batch: np.ndarray | None = None
    shared_set = next((r.uncertainty.uset for r in model.rows
                       if r.adaptive is not None and r.uncertainty is not None), None)
    if shared_set is not None:
        shared_batch = sample_set(shared_set, n, seed)

    batch_idx = 0
    for row in model.rows:
        if row.uncertainty is None and row.adaptive is None:
            continue
        if row.adaptive is not None:
            Z = shared_batch
        else:
            batch_idx += 1
            Z = sample_set(row.uncertainty.uset, n, seed + batch_idx)
        if Z is None or not len(Z):
            continue
        base = row.lhs.evaluate(values) - row.rhs
        vals = np.full(len(Z), base)
        if row.uncertainty is not None:
            w = np.array([e.evaluate(values) for e in row.uncertainty.arg_exprs()])
            vals = vals + Z @ w
        if row.adaptive is not None:
            if ldr is None:
                raise UnsupportedSetError(
                    "adaptive rows need the decision-rule assignment to verify")
            for y_id, coeff in row.adaptive.terms:
                u, v = ldr.policy(y_id, values)
                vals = vals + coeff * (u + Z @ v)
        row_viol = float(np.max(vals))
        max_violation = max(max_violation, row_viol)
        violations += int(np.count_nonzero(vals > feas_tol))

    # bounds of wait-and-see variables must hold for every z
    if ldr is not None and shared_batch is not None:
        wait = {v.id: v for v in model.wait_and_see()}
        for y_id, decl in sorted(wait.items()):
            u, v = ldr.policy(y_id, values)
            y_vals = u + shared_batch @ v
            if decl.lower > -INF:
                viol = decl.lower - y_vals
                max_violation = max(max_violation, float(np.max(viol)))
                violations += int(np.count_nonzero(viol > feas_tol))
            if decl.upper < INF:
                viol = y_vals - decl.upper
                max_violation = max(max_violation, float(np.max(viol)))
                violations += int(np.count_nonzero(viol > feas_tol))

    max_violation = max(0.0, max_violation)
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
