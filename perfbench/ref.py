"""Reference answers for the benchmark models, computed without `roc`.

Every model spec (see gen.py) is turned into robust rows

    a^T xi + (B xi + beta0)^T z <= b0   for all z in Z

over a decision vector xi that holds the here-and-now variables and, for
each wait-and-see variable y, the coefficients of its linear rule
y(z) = u_y + v_y^T z.  The robust counterpart replaces the worst case by the
support function of Z, written out here as an LP (the benchmark's own
dualization) and solved with scipy's HiGHS.  2-ball terms are enforced by an
outer-approximation loop of supporting cuts.

The module also checks a returned point against the worst case of every
row, and reads back the CPLEX-LP text that `roc emit` writes.
"""
from __future__ import annotations

import math
import re

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

INF = math.inf
CONE_TOL = 1e-8       # outer-approximation stop: ||beta|| - t, relative
HIGHS = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}
FEAS_RTOL = 1e-6      # worst-case row violation allowed, relative to max(1, |b|)
MAX_CUT_ROUNDS = 400


class RefError(Exception):
    """The reference could not be computed or a check failed."""


# ---------------------------------------------------------------------------
# Robust rows from a model spec
# ---------------------------------------------------------------------------

def _adaptive_set(spec, adaptive):
    sets = [r["rhs_unc"]["set"] for r in spec["rows"]
            if r.get("rhs_unc") and any(v in adaptive for v in r["coef"])]
    if spec["adaptive"] and not sets:
        raise RefError("adaptive model without an uncertain adaptive row")
    return sets[0] if sets else None


def robust_form(spec):
    """Decision vector, bounds, objective and robust rows of a model spec.

    Returns a dict with `names`, `lo`, `hi`, `cost`, `sign` (+1 for min,
    -1 for max: original objective = sign * min objective), `rows` (each
    row: a (dict idx->coef), b0, beta (list of dict idx->coef per z
    coordinate, or None), beta0, set spec).
    """
    names, lo, hi = [], [], []
    index = {}

    def var(name, lower, upper):
        index[name] = len(names)
        names.append(name)
        lo.append(lower)
        hi.append(upper)
        return index[name]

    for name, lower, upper in spec["vars"]:
        var(name, lower, upper)
    shared = _adaptive_set(spec, {name for name, _, _ in spec["adaptive"]})
    L = shared["dim"] if shared else 0
    rule = {}
    for name, lower, upper in spec["adaptive"]:
        u = var(f"_u_{name}", -INF, INF)
        v = [var(f"_v_{name}_{l + 1}", -INF, INF) for l in range(L)]
        rule[name] = (u, v, lower, upper)

    rows = []

    def robust_row(coef, b, unc=None, rhs_unc=None):
        """coef over here-and-now and adaptive names; row coef . v <= b (+ rhs_unc)."""
        a, beta = {}, None
        beta0 = np.zeros(0)
        uset = None
        for name, c in coef.items():
            if name in rule:
                u, v, _, _ = rule[name]
                a[u] = a.get(u, 0.0) + c
                if beta is None:
                    beta, beta0, uset = [dict() for _ in range(L)], np.zeros(L), shared
                for l in range(L):
                    beta[l][v[l]] = beta[l].get(v[l], 0.0) + c
            else:
                a[index[name]] = a.get(index[name], 0.0) + c
        if unc is not None:
            if beta is not None:
                raise RefError("coefficient uncertainty on an adaptive row is not generated")
            P = np.asarray(unc["P"], dtype=float)
            beta, beta0, uset = [dict() for _ in range(P.shape[1])], np.zeros(P.shape[1]), unc["set"]
            for k, name in enumerate(unc["on"]):
                for l in range(P.shape[1]):
                    if P[k, l] != 0.0:
                        beta[l][index[name]] = beta[l].get(index[name], 0.0) + P[k, l]
        if rhs_unc is not None:
            if beta is None:
                dim = len(rhs_unc["p"])
                beta, beta0, uset = [dict() for _ in range(dim)], np.zeros(dim), rhs_unc["set"]
            beta0 = beta0 - np.asarray(rhs_unc["p"], dtype=float)
        rows.append({"a": a, "b0": b, "beta": beta, "beta0": beta0, "set": uset})

    for row in spec["rows"]:
        sign = -1.0 if row["sense"] == ">=" else 1.0
        coef = {k: sign * c for k, c in row["coef"].items()}
        unc = row.get("unc")
        if unc is not None and sign < 0:
            unc = dict(unc, P=(-np.asarray(unc["P"], dtype=float)).tolist())
        rhs_unc = row.get("rhs_unc")
        if rhs_unc is not None and sign < 0:
            rhs_unc = dict(rhs_unc, p=[-x for x in rhs_unc["p"]])
        robust_row(coef, sign * row["rhs"], unc, rhs_unc)

    for name, (u, v, lower, upper) in rule.items():
        if lower > -INF:
            robust_row({name: -1.0}, -lower)
        if upper < INF:
            robust_row({name: 1.0}, upper)

    sign = -1.0 if spec["sense"] == "max" else 1.0
    cost = np.zeros(len(names))
    recourse = {}
    for name, c in spec["obj"].items():
        if name in rule:
            recourse[name] = sign * c
        else:
            cost[index[name]] += sign * c
    if recourse:
        tau = var("_tau", -INF, INF)
        cost = np.append(cost, 1.0)
        robust_row({**recourse}, 0.0)
        rows[-1]["a"][tau] = -1.0
    return {"names": names, "index": index, "lo": np.array(lo), "hi": np.array(hi),
            "cost": cost, "sign": sign, "rows": rows}


# ---------------------------------------------------------------------------
# The robust counterpart as an LP
# ---------------------------------------------------------------------------

class _LP:
    def __init__(self, form):
        self.cost = list(form["cost"])
        self.lo = list(form["lo"])
        self.hi = list(form["hi"])
        self.ub_rows, self.ub_rhs = [], []
        self.eq_rows, self.eq_rhs = [], []
        self.cones = []  # (t index, beta exprs, beta0): t >= ||beta||_2

    def var(self, lo=-INF, hi=INF):
        self.cost.append(0.0)
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.cost) - 1

    def le(self, coefs, rhs):
        self.ub_rows.append(coefs)
        self.ub_rhs.append(rhs)

    def eq(self, coefs, rhs):
        self.eq_rows.append(coefs)
        self.eq_rhs.append(rhs)

    def support(self, uset, beta, beta0):
        """Linear upper bound expression (dict, const) of sigma_Z(beta)."""
        kind = uset["kind"]
        L = len(beta)
        if kind == "ball":
            rho, p = uset["r"], uset["p"]
            if p == INF:  # rho * ||beta||_1
                out = {}
                for l in range(L):
                    s = self.var(0.0)
                    self.le(_plus(beta[l], {s: -1.0}), -beta0[l])
                    self.le(_plus(_scale(beta[l], -1.0), {s: -1.0}), beta0[l])
                    out[s] = rho
                return out, 0.0
            t = self.var(0.0)
            for l in range(L):  # t >= |beta_l|: exact for p = 1, a first cut for p = 2
                self.le(_plus(beta[l], {t: -1.0}), -beta0[l])
                self.le(_plus(_scale(beta[l], -1.0), {t: -1.0}), beta0[l])
            if p == 2.0:
                self.cones.append((t, beta, beta0))
            elif p != 1.0:
                raise RefError(f"no reference for p = {p}")
            return {t: rho}, 0.0
        if kind == "poly":
            D, d = np.asarray(uset["D"], float), np.asarray(uset["d"], float)
            lam = [self.var(0.0) for _ in range(D.shape[0])]
            for l in range(L):  # D^T lam = beta
                row = {lam[i]: D[i, l] for i in range(D.shape[0]) if D[i, l] != 0.0}
                self.eq(_plus(row, _scale(beta[l], -1.0)), beta0[l])
            return {lam[i]: d[i] for i in range(len(lam)) if d[i] != 0.0}, 0.0
        if kind == "intersect":
            parts = [[self.var() for _ in range(L)] for _ in uset["members"]]
            for l in range(L):  # sum_k w_k = beta
                row = {w[l]: 1.0 for w in parts}
                self.eq(_plus(row, _scale(beta[l], -1.0)), beta0[l])
            out, const = {}, 0.0
            for member, w in zip(uset["members"], parts):
                e, c = self.support(member, [{x: 1.0} for x in w], np.zeros(L))
                out, const = _plus(out, e), const + c
            return out, const
        if kind == "minkowski":
            out, const = {}, 0.0
            for member in uset["members"]:
                e, c = self.support(member, beta, beta0)
                out, const = _plus(out, e), const + c
            return out, const
        raise RefError(f"unknown set kind {kind!r}")

    def solve(self):
        n = len(self.cost)
        A_ub = _matrix(self.ub_rows, n)
        A_eq = _matrix(self.eq_rows, n) if self.eq_rows else None
        res = linprog(np.array(self.cost), A_ub=A_ub, b_ub=np.array(self.ub_rhs),
                      A_eq=A_eq, b_eq=np.array(self.eq_rhs) if self.eq_rows else None,
                      bounds=list(zip(_none(self.lo), _none(self.hi))), method="highs",
                      options=HIGHS)
        if res.status != 0:
            raise RefError(f"reference LP ended with status {res.status}: {res.message}")
        return res


def _plus(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def _scale(a, k):
    return {i: k * v for i, v in a.items()}


def _none(bounds):
    return [None if math.isinf(x) else x for x in bounds]


def _matrix(rows, n):
    r, c, v = [], [], []
    for i, row in enumerate(rows):
        for j, x in row.items():
            r.append(i)
            c.append(j)
            v.append(x)
    return coo_matrix((v, (r, c)), shape=(len(rows), n)).tocsr()


def _eval(expr, x):
    return sum(c * x[j] for j, c in expr.items())


def reference(spec):
    """Robust optimum of a model spec.

    Returns {"objective": original-sense objective, "values": name -> value,
    "form": robust_form(spec)}.
    """
    form = robust_form(spec)
    lp = _LP(form)
    for row in form["rows"]:
        expr, const = dict(row["a"]), 0.0
        if row["beta"] is not None:
            e, c = lp.support(row["set"], row["beta"], row["beta0"])
            expr, const = _plus(expr, e), c
        lp.le(expr, row["b0"] - const)
    for _ in range(MAX_CUT_ROUNDS):
        res = lp.solve()
        added = 0
        for t, beta, beta0 in lp.cones:
            w = np.array([_eval(b, res.x) for b in beta]) + beta0
            norm = float(np.linalg.norm(w))
            if norm - res.x[t] <= CONE_TOL * max(1.0, norm):
                continue
            g = w / norm  # supporting cut g^T beta <= t
            cut = {t: -1.0}
            for gl, b in zip(g, beta):
                cut = _plus(cut, _scale(b, gl))
            lp.le(cut, -float(g @ beta0))
            added += 1
        if not added:
            break
    else:
        raise RefError("outer approximation did not converge")
    n = len(form["names"])
    return {"objective": form["sign"] * float(res.fun),
            "values": dict(zip(form["names"], res.x[:n].tolist())),
            "form": form}


# ---------------------------------------------------------------------------
# Worst-case checks of a returned point
# ---------------------------------------------------------------------------

def worst_case(uset, w):
    """max over z in Z of w^T z, computed directly per set kind."""
    kind = uset["kind"]
    if kind == "ball":
        q = {INF: 1, 1.0: INF, 2.0: 2}[uset["p"]]
        return uset["r"] * float(np.linalg.norm(w, ord=q))
    if kind == "minkowski":
        return sum(worst_case(m, w) for m in uset["members"])
    # polytopes and intersections: one LP over z and lifted member variables
    L = len(w)
    lp = _LP({"cost": list(-np.asarray(w, float)), "lo": [-INF] * L, "hi": [INF] * L})
    _membership(lp, uset, list(range(L)))
    return -float(lp.solve().fun)


def _membership(lp, uset, z):
    kind = uset["kind"]
    if kind == "poly":
        D, d = np.asarray(uset["D"], float), np.asarray(uset["d"], float)
        for i in range(D.shape[0]):
            lp.le({z[l]: D[i, l] for l in range(len(z)) if D[i, l] != 0.0}, d[i])
    elif kind == "ball" and uset["p"] == INF:
        for zl in z:
            lp.le({zl: 1.0}, uset["r"])
            lp.le({zl: -1.0}, uset["r"])
    elif kind == "ball" and uset["p"] == 1.0:
        s = [lp.var(0.0) for _ in z]
        for zl, sl in zip(z, s):
            lp.le({zl: 1.0, sl: -1.0}, 0.0)
            lp.le({zl: -1.0, sl: -1.0}, 0.0)
        lp.le({sl: 1.0 for sl in s}, uset["r"])
    elif kind == "intersect":
        for member in uset["members"]:
            _membership(lp, member, z)
    else:
        raise RefError(f"no LP membership for {kind!r}")


def check_point(form, values, label):
    """Raise RefError unless `values` satisfies every row at its worst case."""
    missing = [n for n in form["names"] if n not in values and n != "_tau"]
    if missing:
        raise RefError(f"{label}: point lacks {missing[:3]}")
    x = np.array([values.get(n, 0.0) for n in form["names"]])
    n = len(form["names"])
    span = np.maximum(1.0, np.abs(x))
    if np.any(x < form["lo"][:n] - FEAS_RTOL * span) or np.any(x > form["hi"][:n] + FEAS_RTOL * span):
        raise RefError(f"{label}: point violates a variable bound")
    for k, row in enumerate(form["rows"]):
        if "_tau" in form["index"] and form["index"]["_tau"] in row["a"]:
            continue
        value = _eval(row["a"], x)
        if row["beta"] is not None:
            w = np.array([_eval(b, x) for b in row["beta"]]) + row["beta0"]
            value += worst_case(row["set"], w)
        if value - row["b0"] > FEAS_RTOL * max(1.0, abs(row["b0"])):
            raise RefError(f"{label}: row {k + 1} violated at its worst case by {value - row['b0']:.3g}")


def recourse_cost(form, values):
    """Worst-case objective of a point, recourse included (original sense)."""
    x = np.array([values.get(n, 0.0) for n in form["names"]])
    total = float(form["cost"] @ x)  # the epigraph "_tau" is not in values, so it adds 0
    tau = form["index"].get("_tau")
    for row in form["rows"]:
        if tau is not None and tau in row["a"]:
            a = {j: c for j, c in row["a"].items() if j != tau}
            w = np.array([_eval(b, x) for b in row["beta"]]) + row["beta0"]
            total += _eval(a, x) + worst_case(row["set"], w)
    return form["sign"] * total


def same(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# CPLEX-LP read-back
# ---------------------------------------------------------------------------

_NUM = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^[+-]?(inf|infinity)$", re.I)


def _terms(tokens):
    """Linear expression tokens `c v c v ... [const]` -> (dict, constant)."""
    coefs, const, i = {}, 0.0, 0
    while i < len(tokens):
        tok = tokens[i]
        if not _NUM.match(tok):
            raise RefError(f"LP read-back: unexpected token {tok!r}")
        if i + 1 < len(tokens) and not _NUM.match(tokens[i + 1]):
            coefs[tokens[i + 1]] = coefs.get(tokens[i + 1], 0.0) + float(tok)
            i += 2
        else:
            const += float(tok)
            i += 1
    return coefs, const


def read_lp(text):
    """Parse the LP subset `roc emit` writes into (objective, rows, bounds)."""
    section, objective, rows, bounds = None, None, [], {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "maximize", "subject to", "bounds", "end"):
            if low == "maximize":
                raise RefError("LP read-back: expected a minimization")
            section = low
            continue
        if section == "minimize":
            objective = _terms(line.split(":", 1)[1].split())
        elif section == "subject to":
            name, body = line.split(":", 1)
            m = re.match(r"^(.*)\s(<=|>=|=)\s(\S+)$", body.strip())
            if not m:
                raise RefError(f"LP read-back: cannot read row {name!r}")
            coefs, const = _terms(m.group(1).split())
            rows.append((name.strip(), coefs, m.group(2), float(m.group(3)) - const))
        elif section == "bounds":
            parts = line.split()
            if len(parts) == 2 and parts[1] == "free":
                bounds[parts[0]] = (-INF, INF)
            elif len(parts) == 3 and parts[1] == "=":
                bounds[parts[0]] = (float(parts[2]), float(parts[2]))
            elif len(parts) == 3 and parts[1] == "<=":
                bounds[parts[2]] = (float(parts[0]), INF)
            elif len(parts) == 5:
                bounds[parts[2]] = (float(parts[0]), float(parts[4]))
            else:
                raise RefError(f"LP read-back: cannot read bound {line!r}")
        else:
            raise RefError(f"LP read-back: text outside a section: {line!r}")
    if objective is None or section != "end":
        raise RefError("LP read-back: missing objective or End")
    return objective, rows, bounds


def solve_lp_text(text):
    """Solve emitted LP text with HiGHS; return (objective, values)."""
    (obj, obj_const), rows, bounds = read_lp(text)
    names = list(bounds)
    for _, coefs, _, _ in rows:
        names.extend(v for v in coefs if v not in bounds)
    names = list(dict.fromkeys(names))
    col = {v: j for j, v in enumerate(names)}
    ub, ub_rhs, eq, eq_rhs = [], [], [], []
    for _, coefs, sense, rhs in rows:
        row = {col[v]: c for v, c in coefs.items()}
        if sense == "<=":
            ub.append(row), ub_rhs.append(rhs)
        elif sense == ">=":
            ub.append(_scale(row, -1.0)), ub_rhs.append(-rhs)
        else:
            eq.append(row), eq_rhs.append(rhs)
    n = len(names)
    cost = np.zeros(n)
    for v, c in obj.items():
        cost[col[v]] += c
    lo = [bounds.get(v, (0.0, INF))[0] for v in names]  # LP default bounds: [0, inf)
    hi = [bounds.get(v, (0.0, INF))[1] for v in names]
    res = linprog(cost, A_ub=_matrix(ub, n) if ub else None, b_ub=ub_rhs or None,
                  A_eq=_matrix(eq, n) if eq else None, b_eq=eq_rhs or None,
                  bounds=list(zip(_none(lo), _none(hi))), method="highs", options=HIGHS)
    if res.status != 0:
        raise RefError(f"emitted LP ended with status {res.status}: {res.message}")
    return float(res.fun) + obj_const, dict(zip(names, res.x.tolist()))
