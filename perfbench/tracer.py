"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of `roc` with timing and counting
wrappers; `uninstall` puts the originals back, so untraced passes run the
program exactly as shipped.  Stage functions are wrapped where the CLI looks
them up (`roc.cli.<name>`); the counted helpers (`simplex_solve`,
`pessimize`, `sample_set`, `stress_points`) are wrapped in the module whose
code calls them.

Stage time is inclusive and counted for the outermost stage only; counts
go to the layer of the innermost running stage, so an LP solved while
parsing counts as a parser LP.  `pessimize` called by the cutting-plane
loop is a layer of its own for this: its inner LPs count as pessimization
LPs, not as cutting-plane master LPs.  A counter whose source is gone (a
function renamed away, a result field removed) is reported missing, not
guessed; the traced call itself goes on.
"""
from __future__ import annotations

import time
from collections import defaultdict

STAGES = (  # name in roc.cli -> layer
    ("parse_model", "parser"),
    ("canonicalize", "canonicalize"),
    ("apply_ldr", "aro"),
    ("robustify_model", "rc"),
    ("lower_norms", "lower"),
    ("solve_deterministic", "solver.reformulate"),
    ("cutting_plane_solve", "solver.cutplane"),
    ("verify_solution", "verify"),
    ("emit_lp", "emit.lp"),
    ("emit_json", "emit.json"),
    ("to_jsonable", "emit.json"),
)

# per-layer metric -> (unit, the wrapped functions it needs)
METRICS = {
    "parser.s": ("s", ("cli.parse_model",)),
    "parser.lp_solves": ("count", ("cli.parse_model", "solver.simplex_solve")),
    "canonicalize.s": ("s", ("cli.canonicalize",)),
    "aro.s": ("s", ("cli.apply_ldr",)),
    "aro.vars_added": ("count", ("cli.apply_ldr",)),
    "rc.s": ("s", ("cli.robustify_model",)),
    "rc.rows": ("count", ("cli.robustify_model",)),
    "rc.norm_terms": ("count", ("cli.robustify_model",)),
    "lower.s": ("s", ("cli.lower_norms",)),
    "lower.vars": ("count", ("cli.lower_norms",)),
    "lower.rows": ("count", ("cli.lower_norms",)),
    "lower.nnz": ("count", ("cli.lower_norms",)),
    "lower.cone_rows": ("count", ("cli.lower_norms",)),
    "solver.reformulate_s": ("s", ("cli.solve_deterministic",)),
    "solver.reformulate_lp_solves": ("count", ("cli.solve_deterministic", "solver.simplex_solve")),
    "solver.reformulate_pivots": ("count", ("cli.solve_deterministic", "solver.simplex_solve")),
    "solver.cone_rounds": ("count", ("cli.solve_deterministic",)),
    "solver.cutplane_s": ("s", ("cli.cutting_plane_solve",)),
    "solver.cutplane_lp_solves": ("count", ("cli.cutting_plane_solve", "solver.simplex_solve")),
    "solver.cutplane_pivots": ("count", ("cli.cutting_plane_solve", "solver.simplex_solve")),
    "solver.cutplane_rounds": ("count", ("cli.cutting_plane_solve",)),
    "solver.pessimize_calls": ("count", ("cli.cutting_plane_solve", "solver.pessimize")),
    "solver.pessimize_s": ("s", ("cli.cutting_plane_solve", "solver.pessimize")),
    "solver.pessimize_lp_solves": ("count", ("cli.cutting_plane_solve", "solver.pessimize",
                                             "solver.simplex_solve")),
    "solver.pessimize_pivots": ("count", ("cli.cutting_plane_solve", "solver.pessimize",
                                          "solver.simplex_solve")),
    "verify.s": ("s", ("cli.verify_solution",)),
    "verify.points": ("count", ("cli.verify_solution", "verify.sample_set")),
    "verify.sample_yield": ("ratio", ("cli.verify_solution", "verify.sample_set",
                                      "verify.stress_points")),
    "emit.lp_s": ("s", ("cli.emit_lp",)),
    "emit.lp_bytes": ("bytes", ("cli.emit_lp",)),
    "emit.json_s": ("s", ("cli.to_jsonable",)),
    "cli.other_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

PIVOT_LAYERS = ("solver.reformulate", "solver.cutplane", "solver.pessimize")
# stage -> the size metrics read from its arguments and result
SIZE_METRICS = {
    "apply_ldr": ("aro.vars_added",),
    "robustify_model": ("rc.rows", "rc.norm_terms"),
    "lower_norms": ("lower.vars", "lower.rows", "lower.nnz", "lower.cone_rows"),
    "solve_deterministic": ("solver.cone_rounds",),
    "cutting_plane_solve": ("solver.cutplane_rounds",),
    "emit_lp": ("emit.lp_bytes",),
}


class Tracer:
    """Wrappers plus the stage times and counts of the current pass."""

    def __init__(self, roc_modules: dict):
        self.modules = roc_modules  # "cli" / "solver" / "verify" -> module
        self.saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.stack: list[str] = []
        self.reset()

    def reset(self):
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self._sample_depth = 0
        self._stress_depth = 0
        self._stress = 0

    # ------------------------------------------------------------ install

    def install(self):
        cli = self.modules["cli"]
        for name, layer in STAGES:
            self._wrap(cli, "cli", name, self._stage(layer, name))
        self._wrap(self.modules["solver"], "solver", "simplex_solve", self._simplex)
        self._wrap(self.modules["solver"], "solver", "pessimize", self._pessimize)
        self._wrap(self.modules["verify"], "verify", "sample_set", self._sample_set)
        self._wrap(self.modules["verify"], "verify", "stress_points", self._stress_points)

    def uninstall(self):
        for module, name, original in reversed(self.saved):
            setattr(module, name, original)
        self.saved.clear()

    def _wrap(self, module, label, name, make):
        original = getattr(module, name, None)
        if original is None:
            self.missing.add(f"{label}.{name}")
            return
        self.saved.append((module, name, original))
        setattr(module, name, make(original))

    # ------------------------------------------------------------ wrappers

    def _stage(self, layer, name):
        def make(original):
            def wrapper(*args, **kwargs):
                self.stack.append(layer)
                start = time.perf_counter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    self.stack.pop()
                    if not self.stack:
                        self.time[layer] += time.perf_counter() - start
                try:
                    self._sizes(name, args, out)
                except Exception:  # noqa: BLE001 - a changed result shape loses
                    # the counts it feeds, never the program's own call
                    self.missing.update(SIZE_METRICS.get(name, ()))
                return out
            return wrapper
        return make

    def _field(self, obj, attr, metric, default=0):
        value = getattr(obj, attr, None)
        if value is None:
            self.missing.add(metric)
            return default
        return value

    def _sizes(self, name, args, out):
        if name == "apply_ldr":
            self.count["aro.vars_added"] += len(out.vars) - len(args[0].vars)
        elif name == "robustify_model":
            self.count["rc.rows"] += len(out.rows)
            self.count["rc.norm_terms"] += sum(len(self._field(r, "norm_terms", "rc.norm_terms", ()))
                                               for r in out.rows)
        elif name == "lower_norms":
            rows = self._field(out, "linear_rows", "lower.rows", ())
            self.count["lower.vars"] += len(out.vars)
            self.count["lower.rows"] += len(rows)
            self.count["lower.nnz"] += sum(len(r.lhs.terms) for r in rows)
            self.count["lower.cone_rows"] += len(self._field(out, "soc_rows", "lower.cone_rows", ()))
        elif name == "solve_deterministic":
            if getattr(args[0], "soc_rows", ()):
                self.count["solver.cone_rounds"] += self._field(out, "iterations",
                                                                "solver.cone_rounds")
        elif name == "cutting_plane_solve":
            self.count["solver.cutplane_rounds"] += self._field(out, "iterations",
                                                                "solver.cutplane_rounds")
        elif name == "emit_lp":
            self.count["emit.lp_bytes"] += len(out.encode())

    def _simplex(self, original):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            layer = self.stack[-1] if self.stack else "other"
            self.count[f"{layer}.lp_solves"] += 1
            if layer in PIVOT_LAYERS:
                self.count[f"{layer}.pivots"] += self._field(out, "iterations",
                                                             f"{layer}_pivots")
            return out
        return wrapper

    def _pessimize(self, original):
        # only the cutting-plane loop's pessimizations form this layer; the
        # parser's and the verifier's (coordinate extremes) stay theirs
        def wrapper(*args, **kwargs):
            if not (self.stack and self.stack[-1] == "solver.cutplane"):
                return original(*args, **kwargs)
            self.stack.append("solver.pessimize")
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.stack.pop()
                self.count["solver.pessimize_calls"] += 1
                self.time["solver.pessimize"] += time.perf_counter() - start
        return wrapper

    def _sample_set(self, original):
        def wrapper(*args, **kwargs):
            self._sample_depth += 1
            self._stress = 0
            try:
                out = original(*args, **kwargs)
            finally:
                self._sample_depth -= 1
            try:
                requested = args[1] if len(args) > 1 else kwargs["n"]
                self.count["verify.points"] += len(out)
                self.count["verify.requested"] += requested
                self.count["verify.drawn"] += len(out) - self._stress
            except Exception:  # noqa: BLE001 - see _stage
                self.missing.update(("verify.points", "verify.sample_yield"))
            return out
        return wrapper

    def _stress_points(self, original):
        def wrapper(*args, **kwargs):
            self._stress_depth += 1
            try:
                out = original(*args, **kwargs)
            finally:
                self._stress_depth -= 1
            if self._sample_depth and not self._stress_depth:
                self._stress += len(out)
            return out
        return wrapper

    # ------------------------------------------------------------ results

    def pass_metrics(self, call_seconds: float) -> dict:
        """Per-layer figures of one traced pass; `call_seconds` is its CLI time."""
        t, c = self.time, self.count
        stage_total = sum(t[layer] for layer in {layer for _, layer in STAGES})
        out = {
            "parser.s": t["parser"], "parser.lp_solves": c["parser.lp_solves"],
            "canonicalize.s": t["canonicalize"],
            "aro.s": t["aro"], "aro.vars_added": c["aro.vars_added"],
            "rc.s": t["rc"], "rc.rows": c["rc.rows"], "rc.norm_terms": c["rc.norm_terms"],
            "lower.s": t["lower"], "lower.vars": c["lower.vars"], "lower.rows": c["lower.rows"],
            "lower.nnz": c["lower.nnz"], "lower.cone_rows": c["lower.cone_rows"],
            "solver.reformulate_s": t["solver.reformulate"],
            "solver.reformulate_lp_solves": c["solver.reformulate.lp_solves"],
            "solver.reformulate_pivots": c["solver.reformulate.pivots"],
            "solver.cone_rounds": c["solver.cone_rounds"],
            "solver.cutplane_s": t["solver.cutplane"],
            "solver.cutplane_lp_solves": c["solver.cutplane.lp_solves"],
            "solver.cutplane_pivots": c["solver.cutplane.pivots"],
            "solver.cutplane_rounds": c["solver.cutplane_rounds"],
            "solver.pessimize_calls": c["solver.pessimize_calls"],
            "solver.pessimize_s": t["solver.pessimize"],
            "solver.pessimize_lp_solves": c["solver.pessimize.lp_solves"],
            "solver.pessimize_pivots": c["solver.pessimize.pivots"],
            "verify.s": t["verify"], "verify.points": c["verify.points"],
            "verify.sample_yield": (c["verify.drawn"] / c["verify.requested"]
                                    if c["verify.requested"] else 1.0),
            "emit.lp_s": t["emit.lp"], "emit.lp_bytes": c["emit.lp_bytes"],
            "emit.json_s": t["emit.json"],
            "cli.other_s": call_seconds - stage_total,
        }
        for name, (_, needs) in METRICS.items():
            if name in out and any(n in self.missing for n in needs):
                out[name] = None
        for name in self.missing:
            if name in out:
                out[name] = None
        return out
