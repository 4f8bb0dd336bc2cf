"""Core object model shared by all pipeline stages.

Everything here is an immutable value: expressions, variable declarations,
uncertainty sets, constraints and whole models are frozen after construction
and safe to share between threads.  The one exception is the LP a polytope
keeps for the solver's pessimization (`Polyhedral.support_lp`): each call
changes it, so one set instance must not be pessimized from two threads at
once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ModelError, UnsupportedSetError

HERE_AND_NOW = "here-and-now"
WAIT_AND_SEE = "wait-and-see"

LE = "<="
GE = ">="
EQ = "="

MIN = "min"
MAX = "max"

INF = math.inf


def _frozen_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError(f"set data must be finite, found {arr[~np.isfinite(arr)][0]}")
    arr += 0.0  # drop -0.0
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Linear expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinExpr:
    """Sparse linear expression: sum of coefficient*variable plus a constant.

    Terms are kept in canonical form: sorted by variable id, no zero
    coefficients. Structural equality therefore means mathematical equality.
    """

    terms: tuple[tuple[str, float], ...] = ()
    constant: float = 0.0

    @staticmethod
    def of(coeffs: dict[str, float] | None = None, constant: float = 0.0) -> "LinExpr":
        coeffs = coeffs or {}
        terms = tuple(sorted((v, float(c)) for v, c in coeffs.items() if float(c) != 0.0))
        return LinExpr(terms, float(constant))

    def coeffs(self) -> dict[str, float]:
        return dict(self.terms)

    def vars(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms and self.constant == 0.0

    def evaluate(self, values: dict[str, float]) -> float:
        return self.constant + sum(c * values[v] for v, c in self.terms)

    def drop_constant(self) -> "LinExpr":
        c = self.constant
        if type(c) is float and c == 0.0 and math.copysign(1.0, c) == 1.0:
            return self  # not for -0.0 (or 0), which the dumps would show as such
        return LinExpr(self.terms, 0.0)

    def __add__(self, other: "LinExpr") -> "LinExpr":
        return expr_add(self, other)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return expr_add(self, expr_negate(other))

    def __neg__(self) -> "LinExpr":
        return expr_negate(self)


def expr_add(a: LinExpr, b: LinExpr) -> LinExpr:
    """Termwise sum; cancelled terms are pruned from the result."""
    coeffs = a.coeffs()
    for v, c in b.terms:
        coeffs[v] = coeffs.get(v, 0.0) + c
    return LinExpr.of(coeffs, a.constant + b.constant)


def expr_negate(a: LinExpr) -> LinExpr:
    """Negate every coefficient and the constant."""
    return LinExpr(tuple((v, -c) for v, c in a.terms), -a.constant + 0.0)  # drop -0.0


# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariableDecl:
    id: str
    stage: str = HERE_AND_NOW
    lower: float = -INF
    upper: float = INF
    rule: str | None = None  # decision rule, wait-and-see variables only
    pinned_one: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lower", self.lower + 0.0)  # drop -0.0
        object.__setattr__(self, "upper", self.upper + 0.0)
        if self.stage not in (HERE_AND_NOW, WAIT_AND_SEE):
            raise ModelError(f"variable {self.id}: unknown stage {self.stage!r}")
        if not self.lower <= self.upper:
            raise ModelError(f"variable {self.id}: lower bound {self.lower} exceeds upper {self.upper}")
        if self.stage == WAIT_AND_SEE and self.rule not in ("linear", "static"):
            raise ModelError(f"variable {self.id}: wait-and-see variables need rule=linear or rule=static")
        if self.stage == HERE_AND_NOW and self.rule is not None:
            raise ModelError(f"variable {self.id}: here-and-now variables take no decision rule")
        if self.pinned_one and (self.lower, self.upper) != (1.0, 1.0):
            raise ModelError(f"variable {self.id}: pinned variable must have bounds [1, 1]")

    def is_fixed(self) -> bool:
        return self.lower == self.upper


# ---------------------------------------------------------------------------
# Uncertainty sets
# ---------------------------------------------------------------------------

class UncertaintySet:
    """Base for the algebraic description of Z."""

    kind: str = "?"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def contains(self, z: np.ndarray, tol: float = 1e-9) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class NormBall(UncertaintySet):
    """{z : ||z||_p <= radius} in R^dim."""

    p: float
    radius: float
    L: int

    kind = "ball"

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "radius", float(self.radius))
        if self.p < 1.0:
            raise ModelError(f"norm ball: p must be >= 1, got {self.p}")
        if self.radius < 0.0:
            raise ModelError(f"norm ball: radius must be >= 0, got {self.radius}")
        if not math.isfinite(self.radius):
            raise DimensionError(f"norm ball: radius must be finite, got {self.radius}")
        if not float(self.L).is_integer():
            raise DimensionError(f"norm ball: dimension must be an integer, got {float(self.L):g}")
        object.__setattr__(self, "L", int(self.L))
        if self.L < 1:
            raise DimensionError(f"norm ball: dimension must be >= 1, got {self.L}")

    @property
    def dim(self) -> int:
        return self.L

    def contains(self, z, tol: float = 1e-9) -> bool:
        return bool(np.linalg.norm(z, self.p) <= self.radius + tol)


@dataclass(frozen=True, eq=False)
class Polyhedral(UncertaintySet):
    """{z : D z <= d}; must contain 0 (d >= 0, checked here) and be bounded."""

    D: np.ndarray
    d: np.ndarray

    kind = "poly"

    def __post_init__(self):
        object.__setattr__(self, "D", _frozen_array(self.D, 2))
        object.__setattr__(self, "d", _frozen_array(self.d, 1))
        if self.D.shape[0] != self.d.shape[0]:
            raise DimensionError(
                f"polyhedral set: D has {self.D.shape[0]} rows but d has {self.d.shape[0]} entries")
        if not np.all(self.d >= 0.0):
            raise ModelError("polyhedral set must contain 0 (needs d >= 0)")

    @property
    def dim(self) -> int:
        return int(self.D.shape[1])

    def contains(self, z, tol: float = 1e-9) -> bool:
        return bool(np.all(self.D @ np.asarray(z, dtype=float) <= self.d + tol))

    @cached_property
    def extremes(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """`solver.coordinate_extremes` of the set, solved once per instance."""
        from .solver import coordinate_extremes  # the solver builds on this module
        return coordinate_extremes(self)

    @cached_property
    def support_lp(self):
        """`solver.support_lp` of the set, the LP that `solver.pessimize`
        keeps for this instance and re-enters on every call: built once per
        instance and, unlike the set, changed by each use."""
        from .solver import support_lp
        return support_lp(self)

    def __eq__(self, other):
        return (isinstance(other, Polyhedral)
                and np.array_equal(self.D, other.D)
                and np.array_equal(self.d, other.d))


def _check_members(members, label: str) -> tuple[UncertaintySet, ...]:
    members = tuple(members)
    if not members:
        raise ModelError(f"{label}: needs at least one member set")
    dims = {m.dim for m in members}
    if len(dims) != 1:
        raise DimensionError(f"{label}: member dimensions differ: {sorted(dims)}")
    return members


@dataclass(frozen=True)
class Intersection(UncertaintySet):
    members: tuple[UncertaintySet, ...]

    kind = "intersect"

    def __post_init__(self):
        object.__setattr__(self, "members", _check_members(self.members, "intersection"))

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def contains(self, z, tol: float = 1e-9) -> bool:
        return all(m.contains(z, tol) for m in self.members)


@dataclass(frozen=True)
class MinkowskiSum(UncertaintySet):
    members: tuple[UncertaintySet, ...]

    kind = "minkowski"

    def __post_init__(self):
        object.__setattr__(self, "members", _check_members(self.members, "minkowski sum"))

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def contains(self, z, tol: float = 1e-9) -> bool:
        # Membership needs a decomposition z = sum z_i; not required by any caller.
        raise UnsupportedSetError("membership test not supported for Minkowski sums")


# ---------------------------------------------------------------------------
# Constraints and models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UncertainBlock:
    """Perturbation (a + P z)^T x of the coefficients of the variables in `on`.

    The nominal coefficients live in the owning row's lhs; this block only
    records which coefficients are perturbed (`on`, ordered), how (`P`, one row
    per perturbed variable) and over which set z ranges.
    """

    on: tuple[str, ...]
    P: np.ndarray
    uset: UncertaintySet

    def __post_init__(self):
        object.__setattr__(self, "on", tuple(self.on))
        object.__setattr__(self, "P", _frozen_array(self.P, 2))
        if len(set(self.on)) != len(self.on):
            raise ModelError(f"uncertain block: duplicate variables in on={self.on}")
        if self.P.shape[0] != len(self.on):
            raise DimensionError(
                f"uncertain block: P has {self.P.shape[0]} rows for {len(self.on)} perturbed variables")
        if self.P.shape[1] != self.uset.dim:
            raise DimensionError(
                f"uncertain block: P has {self.P.shape[1]} columns but the set has dimension {self.uset.dim}")

    @property
    def dim(self) -> int:
        return int(self.P.shape[1])

    def negated(self) -> "UncertainBlock":
        return UncertainBlock(self.on, -np.asarray(self.P), self.uset)

    def arg_exprs(self) -> tuple[LinExpr, ...]:
        """P^T x as one linear expression per uncertainty coordinate."""
        order = sorted(range(len(self.on)), key=self.on.__getitem__)  # once per block
        names = [self.on[i] for i in order]
        PT = self.P[order].T
        coords, rows = np.nonzero(PT)  # coordinate by coordinate, in name order
        terms: list[list[tuple[str, float]]] = [[] for _ in range(len(PT))]
        for k, i, c in zip(coords.tolist(), rows.tolist(), PT[coords, rows].tolist()):
            terms[k].append((names[i], c))
        return tuple(LinExpr(tuple(t)) for t in terms)

    def __eq__(self, other):
        return (isinstance(other, UncertainBlock)
                and self.on == other.on
                and np.array_equal(self.P, other.P)
                and self.uset == other.uset)


@dataclass(frozen=True, eq=False)
class RhsUncertainty:
    """Uncertain right-hand side b(z) = b + p^T z, folded away by canonicalization."""

    p: np.ndarray  # (L,)
    uset: UncertaintySet

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(np.ravel(self.p), 1))
        if self.p.shape[0] != self.uset.dim:
            raise DimensionError(
                f"rhs uncertainty: P has {self.p.shape[0]} entries but the set has dimension {self.uset.dim}")

    def __eq__(self, other):
        return (isinstance(other, RhsUncertainty)
                and np.array_equal(self.p, other.p)
                and self.uset == other.uset)


@dataclass(frozen=True)
class NormTerm:
    """weight * ||arg||_q, taken over a vector of linear expressions."""

    weight: float
    q: float
    arg: tuple[LinExpr, ...]


@dataclass(frozen=True)
class Constraint:
    """Row lhs + sum of norm terms <sense> rhs, the one row type of every stage.

    The lhs is constant-free: its constant folds into rhs here and nowhere
    else, and rhs is never -0.0.  Parsed rows may set `uncertainty`,
    `adaptive` or `rhs_uncertainty`; canonicalization folds `rhs_uncertainty`
    away and the decision-rule stage removes `adaptive`.  Robust-counterpart
    rows are certain and may set `norm_terms`; lowered rows set none of the
    optional fields.
    """

    id: str
    lhs: LinExpr
    sense: str
    rhs: float
    uncertainty: UncertainBlock | None = None
    adaptive: LinExpr | None = None  # d^T y over wait-and-see variables
    rhs_uncertainty: RhsUncertainty | None = None
    norm_terms: tuple[NormTerm, ...] = ()

    def __post_init__(self):
        if self.sense not in (LE, GE, EQ):
            raise ModelError(f"row {self.id}: unknown sense {self.sense!r}")
        object.__setattr__(self, "rhs", float(self.rhs) - self.lhs.constant + 0.0)  # drop -0.0
        object.__setattr__(self, "lhs", self.lhs.drop_constant())
        if self.sense == EQ and (self.uncertainty is not None or self.rhs_uncertainty is not None):
            raise ModelError(f"row {self.id}: robust equalities are not representable")
        if self.uncertainty is not None and self.rhs_uncertainty is not None:
            raise ModelError(f"row {self.id}: coefficient and rhs uncertainty on the same row")
        if self.adaptive is not None:
            if self.adaptive.constant != 0.0:
                raise ModelError(f"row {self.id}: adaptive part must be constant-free")
            if self.sense == EQ:
                raise ModelError(f"row {self.id}: adaptive equalities are not representable")
            if self.adaptive.is_zero():
                object.__setattr__(self, "adaptive", None)
        if self.norm_terms and not self.is_certain():
            raise ModelError(f"row {self.id}: norm terms belong on certain rows only")

    def is_certain(self) -> bool:
        return self.uncertainty is None and self.adaptive is None and self.rhs_uncertainty is None


@dataclass(frozen=True)
class LdrAssignment:
    """Names of the policy coefficients introduced for each wait-and-see variable.

    entries: (y_id, u_id, v_ids) with one v id per uncertainty coordinate;
    v_ids is empty for static rules.
    """

    dim: int
    entries: tuple[tuple[str, str, tuple[str, ...]], ...]

    def policy(self, y_id: str, values: dict[str, float]) -> tuple[float, np.ndarray]:
        for yid, uid, vids in self.entries:
            if yid == y_id:
                u = values[uid]
                v = np.array([values[v] for v in vids], dtype=float) if vids else np.zeros(self.dim)
                return u, v
        raise ModelError(f"no decision rule recorded for {y_id}")


@dataclass(frozen=True)
class Model:
    """Parsed optimization model, prior to canonicalization."""

    vars: tuple[VariableDecl, ...]
    objective_sense: str
    objective: LinExpr
    constraints: tuple[Constraint, ...]
    objective_uncertainty: UncertainBlock | None = None

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.objective_sense not in (MIN, MAX):
            raise ModelError(f"unknown objective sense {self.objective_sense!r}")
        vmap = self.var_map()
        if len(vmap) != len(self.vars):
            seen = set()
            dup = next(v.id for v in self.vars if v.id in seen or seen.add(v.id))
            raise ModelError(f"duplicate variable id {dup!r}")
        ids = {c.id for c in self.constraints}
        if len(ids) != len(self.constraints):
            raise ModelError("duplicate constraint ids")
        self._check_stage_split(vmap, self.objective, None, "objective")
        self._check_block(vmap, self.objective_uncertainty, "objective")
        for c in self.constraints:
            self._check_stage_split(vmap, c.lhs, c.adaptive, f"row {c.id}")
            self._check_block(vmap, c.uncertainty, f"row {c.id}")

    def var_map(self) -> dict[str, VariableDecl]:
        return {v.id: v for v in self.vars}

    def wait_and_see(self) -> tuple[VariableDecl, ...]:
        return tuple(v for v in self.vars if v.stage == WAIT_AND_SEE)

    @staticmethod
    def _check_stage_split(vmap: dict[str, VariableDecl], lhs: LinExpr,
                           adaptive: LinExpr | None, where: str):
        for v, _ in lhs.terms:
            decl = vmap.get(v)
            if decl is None:
                raise ModelError(f"{where}: unknown variable {v!r}")
            if decl.stage != HERE_AND_NOW and where != "objective":
                raise ModelError(f"{where}: wait-and-see variable {v!r} belongs in the adaptive part")
        if adaptive is not None:
            for v, _ in adaptive.terms:
                decl = vmap.get(v)
                if decl is None:
                    raise ModelError(f"{where}: unknown variable {v!r}")
                if decl.stage != WAIT_AND_SEE:
                    raise ModelError(f"{where}: {v!r} is not a wait-and-see variable")

    @staticmethod
    def _check_block(vmap: dict[str, VariableDecl], block: UncertainBlock | None, where: str):
        if block is None:
            return
        for v in block.on:
            decl = vmap.get(v)
            if decl is None:
                raise ModelError(f"{where}: uncertain block perturbs unknown variable {v!r}")
            if decl.stage != HERE_AND_NOW:
                raise ModelError(f"{where}: recourse coefficients must be certain (fixed recourse), got {v!r}")
