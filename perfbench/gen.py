"""Seeded model families for the benchmark.

Each family turns a seed into a fixed list of model specs; `roc_text`
writes a spec as `.roc` source, and ref.py builds the reference answer from
the same spec.  Numbers are rounded to two decimals before they are used,
so the text and the reference see exactly the same data, and one seed
always gives byte-identical files.

    signrow   dense rows under inf-ball and 1-ball uncertainty, graded sizes
    cone      dense rows under 2-ball uncertainty, a fixed mix of easy and
              hard cutting-plane instances
    twostage  two-stage cover models with linear decision rules and shared
              right-hand-side uncertainty over boxes, budget polytopes,
              Minkowski sums and intersections
    compile   large LP-representable models for `roc emit`
"""
from __future__ import annotations

import itertools
import math

import numpy as np

INF = math.inf

JITTER = 0.03  # the seed scales every drawn number by a factor in [0.97, 1.03]
# cone models take about 4 to 30 rounds, and the seed's jitter moves which
# base models land in each difficulty class and how many pivots their
# re-solved masters take: over seeds 1 to 10 the pass's reformulation
# pivots spread by 0.107 with a 3% jitter and by 0.039 with 1%
CONE_JITTER = 0.01
SIGNROW_SIZES = tuple((n, n // 2) for n in range(8, 15))
CONE_SIZE = (5, 2)
CONE_RADIUS = 1.0
# cutting-plane difficulty = free variables at the optimum minus binding
# cone rows; 0 finishes in about 4 rounds, 1 in about 15, 2 in about 30.
# Most models are easy, so the median call falls well inside that class.
CONE_MIX = {0: 40, 1: 6, 2: 10}
CONE_ATTEMPTS = 600
TWOSTAGE_SETS = ("box", "cross", "budget", "minkowski", "intersect")
TWOSTAGE_DIM = 3
TWOSTAGE_SHAPE = (3, 4)  # first-stage / recourse pairs, demand rows
COMPILE_SIZES = tuple((n, n // 2) for n in range(40, 101, 10))
FACTOR_DIM = 3
REPEATS = 2  # models per size in one pass
# models per set kind: with three, the median call is the middle one of a kind
TWOSTAGE_REPEATS = 3


class _Draw:
    """Numbers of one model: a fixed base draw, jittered by the seed.

    The base depends only on the model's place in its family, so a model
    keeps its size and roughly its pivot count from seed to seed; the
    jitter makes every seed's data (and optimum) its own.  Redrawing
    everything per seed moved a pass's work by about 10% between seeds,
    and a 10% jitter still moved the median signrow model's iterations
    three times as much as a 3% one.
    """

    def __init__(self, seed: int, family: int, k: int, jitter: float = JITTER):
        self.base = np.random.default_rng([family, k])
        self.jitter = np.random.default_rng([seed, family, k])
        self.scale = jitter

    def __call__(self, lo, hi, size=None):
        v = self.base.uniform(lo, hi, size) * (1.0 + self.scale * self.jitter.uniform(-1, 1, size))
        return [_num(x) for x in v] if size is not None else _num(v)


def _num(x: float) -> float:
    return float(f"{x:.2f}")


def ball(p, r, dim):
    return {"kind": "ball", "p": p, "r": r, "dim": dim}


def budget(dim, gamma):
    """{z : |z_l| <= 1, sum_l |z_l| <= gamma} as D z <= d (every sign pattern)."""
    D = [list(row) for row in np.vstack([np.eye(dim), -np.eye(dim)])]
    D += [list(s) for s in itertools.product((1.0, -1.0), repeat=dim)]
    d = [1.0] * (2 * dim) + [gamma] * (2 ** dim)
    return {"kind": "poly", "D": D, "d": d, "dim": dim}


def _dense_model(name, draw, n, m, row_set, ub=10.0, rhs=(50.0, 100.0)):
    xs = [f"x{j + 1}" for j in range(n)]
    c = draw(1, 5, n)
    rows = []
    for i in range(m):
        a = draw(1, 5, n)
        b = draw(*rhs)
        rows.append({"id": f"c{i + 1}", "coef": dict(zip(xs, a)), "sense": "<=", "rhs": b,
                     "unc": row_set(i, draw, xs)})
    return {"name": name, "vars": [(x, 0.0, ub) for x in xs], "adaptive": [],
            "sense": "max", "obj": dict(zip(xs, c)), "rows": rows}


def _dense_ball(p, r):
    def row_set(i, draw, xs):
        return {"on": xs, "P": np.eye(len(xs)).tolist(), "set": ball(p, r, len(xs)), "dense": True}
    return row_set


def signrow(seed):
    out = []
    for k, ((n, m), p, rep) in enumerate(itertools.product(SIGNROW_SIZES, (INF, 1.0), range(REPEATS))):
        tag = "inf" if p == INF else "1"
        out.append(_dense_model(f"signrow-{n}x{m}-p{tag}-{rep + 1}", _Draw(seed, 1, k), n, m,
                                _dense_ball(p, 0.1)))
    return out


def cone_difficulty(spec, values, tol=1e-6):
    """Free variables at the optimum minus binding cone rows (from the reference)."""
    x = np.array([values[name] for name, _, _ in spec["vars"]])
    free = int(np.sum((x > tol) & (x < 10.0 - tol)))
    binding = 0
    for row in spec["rows"]:
        a = np.array([row["coef"][name] for name, _, _ in spec["vars"]])
        slack = row["rhs"] - a @ x - row["unc"]["set"]["r"] * np.linalg.norm(x)
        binding += slack <= tol * max(1.0, abs(row["rhs"]))
    return free - binding


def cone(seed):
    """A fixed mix of cone models by difficulty, taken in draw order.

    Candidates are classified after the jitter: a base model's class moves
    with 2% jitter already, and picking by the base let the seed turn a
    30-round model into a 50-round one.
    """
    from ref import reference  # the classification needs the reference optimum

    n, m = CONE_SIZE
    picked = {d: [] for d in CONE_MIX}
    for k in range(CONE_ATTEMPTS):
        spec = _dense_model(f"cone-{n}x{m}-{k + 1}", _Draw(seed, 2, k, CONE_JITTER), n, m,
                            _dense_ball(2.0, CONE_RADIUS))
        d = cone_difficulty(spec, reference(spec)["values"])
        if len(picked.get(d, ())) < CONE_MIX.get(d, 0):
            spec["name"] = f"cone-{n}x{m}-d{d}-{k + 1}"
            picked[d].append(spec)
        if all(len(picked[d]) == CONE_MIX[d] for d in CONE_MIX):
            return [s for d in sorted(picked) for s in picked[d]]
    raise RuntimeError(f"cone family: mix {CONE_MIX} not filled in {CONE_ATTEMPTS} draws")


def _twostage_set(kind, L):
    if kind == "box":
        return ball(INF, 1.0, L)
    if kind == "cross":
        return ball(1.0, 1.5, L)
    if kind == "budget":
        return budget(L, 2.0)
    if kind == "minkowski":
        return {"kind": "minkowski", "members": [ball(INF, 0.5, L), budget(L, 1.0)], "dim": L}
    return {"kind": "intersect", "members": [ball(INF, 1.0, L), ball(1.0, 2.0, L)], "dim": L}


def twostage(seed):
    """Cover demand with first-stage capacity x and adaptive recourse y(z)."""
    J, K = TWOSTAGE_SHAPE
    L = TWOSTAGE_DIM
    out = []
    for k, (kind, rep) in enumerate(itertools.product(TWOSTAGE_SETS, range(TWOSTAGE_REPEATS))):
        draw = _Draw(seed, 3, k)
        uset = _twostage_set(kind, L)
        xs = [f"x{j + 1}" for j in range(J)]
        ys = [f"y{j + 1}" for j in range(J)]
        obj = dict(zip(xs, draw(1, 3, J)))
        obj.update(zip(ys, draw(3, 6, J)))
        rows = []
        for i in range(K):
            a = draw(0.5, 1.5, J)
            coef = {}
            for j in range(J):
                coef[xs[j]] = a[j]
                coef[ys[j]] = a[j]
            rows.append({"id": f"d{i + 1}", "coef": coef, "sense": ">=", "rhs": draw(5, 10),
                         "rhs_unc": {"p": draw(-1, 1, L), "set": uset}})
        rows.append({"id": "cap", "coef": {x: 1.0 for x in xs}, "sense": "<=", "rhs": 30.0})
        out.append({"name": f"twostage-{kind}-{rep + 1}",
                    "vars": [(x, 0.0, 20.0) for x in xs],
                    "adaptive": [(y, 0.0, INF) for y in ys],
                    "sense": "min", "obj": obj, "rows": rows})
    return out


def _compile_rows():
    L = FACTOR_DIM

    def row_set(i, draw, xs):
        kind = i % 4
        if kind < 2:
            return {"on": xs, "P": np.eye(len(xs)).tolist(),
                    "set": ball(INF if kind == 0 else 1.0, 0.1, len(xs)), "dense": True}
        P = [draw(-0.5, 0.5, L) for _ in xs]
        uset = budget(L, 1.5) if kind == 2 else {
            "kind": "intersect", "members": [ball(INF, 1.0, L), ball(1.0, 1.5, L)], "dim": L}
        return {"on": xs, "P": P, "set": uset}
    return row_set


def compile_family(seed):
    out = []
    for k, ((n, m), rep) in enumerate(itertools.product(COMPILE_SIZES, range(REPEATS))):
        out.append(_dense_model(f"compile-{n}x{m}-{rep + 1}", _Draw(seed, 4, k), n, m,
                                _compile_rows()))
    return out


FAMILIES = {"signrow": signrow, "cone": cone, "twostage": twostage, "compile": compile_family}


# ---------------------------------------------------------------------------
# .roc text
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "inf" if x == INF else f"{x:g}"


def _expr(coef: dict) -> str:
    parts = []
    for name, c in coef.items():
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(c))}*{name}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _matrix(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(_fmt(v) for v in row) + "]" for row in rows) + "]"


def set_text(uset) -> str:
    kind = uset["kind"]
    if kind == "ball":
        return f"ball(p={_fmt(uset['p'])}, r={_fmt(uset['r'])}, dim={uset['dim']})"
    if kind == "poly":
        return f"poly(D={_matrix(uset['D'])}, d=[{', '.join(_fmt(v) for v in uset['d'])}])"
    return f"{kind}(" + ", ".join(set_text(m) for m in uset["members"]) + ")"


def roc_text(spec) -> str:
    lines = [f"# {spec['name']}"]
    for name, lo, hi in spec["vars"]:
        lines.append(f"var {name} >= {_fmt(lo)}" + (f" <= {_fmt(hi)};" if hi < INF else ";"))
    for name, lo, hi in spec["adaptive"]:
        bound = f" >= {_fmt(lo)}" if lo > -INF else ""
        bound += f" <= {_fmt(hi)}" if hi < INF else ""
        lines.append(f"adaptive var {name}{bound} rule=linear;")
    lines.append(f"{spec['sense']}: {_expr(spec['obj'])};")
    for row in spec["rows"]:
        text = f"{row['id']}: {_expr(row['coef'])} {row['sense']} {_fmt(row['rhs'])}"
        unc = row.get("unc")
        if unc is not None and unc.get("dense"):
            text += f" uncertain(on=[{', '.join(unc['on'])}], Z={set_text(unc['set'])})"
        elif unc is not None:
            text += (f" uncertain(on=[{', '.join(unc['on'])}], P={_matrix(unc['P'])}, "
                     f"Z={set_text(unc['set'])})")
        rhs_unc = row.get("rhs_unc")
        if rhs_unc is not None:
            text += f" rhs_uncertain(P={_matrix([rhs_unc['p']])}, Z={set_text(rhs_unc['set'])})"
        lines.append(text + ";")
    return "\n".join(lines) + "\n"
