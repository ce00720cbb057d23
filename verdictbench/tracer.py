"""Spans and counters for the traced benchmark run, installed from outside.

`Tracer.install()` wraps public functions and methods of the `algebroids`
modules.  A module that imported a function binds it under its own name
(`algebroids.bialgebroid.canonical_bracket`), so every binding of the same
function object in every `algebroids.*` module is replaced, not only the
defining one.  Nothing under `src/` changes.

Three kinds of wrapper:

* layer functions push a frame and record a span (name, start, end, parent
  span, verdict id); self time is the duration minus the time spent in
  wrapped children;
* polynomial kernels (`GPoly.__mul__`, `__add__`, `__sub__`,
  `partial_left`) are timed leaves: they add to their parent's child time
  and to aggregate counters, but record no span, since they run hundreds
  of thousands of times per verdict;
* `GPoly.__init__`, `Chart.__init__`, `Chart.__eq__` and
  `SymplecticChart.__init__` are only counted.

Spans stay in memory and are written by `dump_spans` when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, qualified name, metric prefix) of every layer function
LAYER_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
    ("specfile", "parse_spec", "specfile.parse"),
    ("gpoly", "substitute", "gpoly.substitute"),
    ("symplectic", "biderivation_bracket", "symplectic.bracket"),
    ("symplectic", "canonical_bracket", "symplectic.canonical_bracket"),
    ("symplectic", "PolyMap.pullback", "symplectic.pullback"),
    ("algebroid", "check_algebroid", "algebroid.check"),
    ("algebroid", "section_bracket", "algebroid.section_bracket"),
    ("algebroid", "hamiltonian_of_algebroid", "algebroid.mu_build"),
    ("algebroid", "ce_differential", "algebroid.ce_differential"),
    ("algebroid", "schouten_bracket", "algebroid.schouten"),
    ("bialgebroid", "check_bialgebroid", "bialgebroid.check"),
    ("bialgebroid", "check_linfty", "bialgebroid.check_linfty"),
    ("bialgebroid", "legendre_quadratic_check", "bialgebroid.legendre_check"),
    ("bialgebroid", "assemble_hamiltonian", "bialgebroid.assemble"),
    ("bialgebroid", "hamiltonian_action", "bialgebroid.action"),
    ("bialgebroid", "FullMorphism.pull_taylor", "bialgebroid.pull_taylor"),
    ("bialgebroid", "linfty_morphism_check", "bialgebroid.morphism_check"),
    ("bialgebroid", "semistrict_morphism_check",
     "bialgebroid.morphism_check"),
    ("constructions", "tangent_algebroid", "constructions.build"),
    ("constructions", "action_algebroid", "constructions.build"),
    ("constructions", "poisson_bialgebroid", "constructions.build"),
    ("constructions", "triangular", "constructions.build"),
    ("constructions", "linfty_bialgebra", "constructions.build"),
    ("constructions", "nijenhuis_check", "constructions.nijenhuis_check"),
    ("report", "Report.to_dict", "report.output"),
    ("report", "Report.render", "report.output"),
)

# direct children of check_algebroid that belong to the Hamiltonian route
_HAMILTONIAN_ROUTE = ("algebroid.mu_build", "symplectic.canonical_bracket")


class Tracer:
    def __init__(self):
        self.stack = []          # frames: [start, child time, span id,
        #                          {child name: time}]
        self.spans = []          # (id, name, start, end, parent id, verdict)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)     # outermost calls only
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)     # extra counters
        self.depth = defaultdict(int)
        self.verdict = 0
        self.next_id = 0
        self._mu_seen = set()
        self._keep = []          # keeps spec objects alive so ids stay unique
        self._patches = []

    # -- bookkeeping ---------------------------------------------------------

    def begin_verdict(self, verdict_id):
        self.verdict = verdict_id
        self._mu_seen.clear()
        self._keep.clear()

    def _leaf_done(self, dur):
        if self.stack:
            self.stack[-1][1] += dur

    def _layer(self, name, fn, before=None, after=None):
        tracer = self
        stack, spans = self.stack, self.spans
        calls, total, self_time, depth = (self.calls, self.total,
                                          self.self_time, self.depth)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][2] if stack else None
            tracer.next_id += 1
            sid = tracer.next_id
            frame = [perf_counter(), 0.0, sid, {}]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[0]
                calls[name] += 1
                self_time[name] += dur - frame[1]
                if not depth[name]:
                    total[name] += dur
                if stack:
                    stack[-1][1] += dur
                    named = stack[-1][3]
                    named[name] = named.get(name, 0.0) + dur
                spans.append((sid, name, frame[0], end, parent,
                              tracer.verdict))
            if after is not None:
                after(args, frame, dur, result)
            return result

        return wrapper

    # -- kernels -------------------------------------------------------------

    def _mul(self, fn):
        count, calls, total, leaf_done = (self.count, self.calls, self.total,
                                          self._leaf_done)

        def __mul__(a, b):
            start = perf_counter()
            result = fn(a, b)
            dur = perf_counter() - start
            calls["gpoly.mul"] += 1
            total["gpoly.mul"] += dur
            leaf_done(dur)
            terms = getattr(b, "terms", None)
            if terms is not None:
                count["gpoly.mul_poly"] += 1
                if len(a.terms) == 1 or len(terms) == 1:
                    count["gpoly.mul_monomial"] += 1
            out = getattr(result, "terms", None)
            if out is not None:
                n = len(out)
                count["gpoly.terms_out"] += n
                if n > count["gpoly.peak_terms"]:
                    count["gpoly.peak_terms"] = n
            return result

        return __mul__

    def _add(self, fn):
        count, calls, total, leaf_done = (self.count, self.calls, self.total,
                                          self._leaf_done)

        def add(a, b):
            start = perf_counter()
            result = fn(a, b)
            dur = perf_counter() - start
            calls["gpoly.add"] += 1
            total["gpoly.add"] += dur
            leaf_done(dur)
            out = getattr(result, "terms", None)
            if out is not None:
                n = len(out)
                count["gpoly.terms_out"] += n
                if n > count["gpoly.peak_terms"]:
                    count["gpoly.peak_terms"] = n
            return result

        return add

    def _timed_leaf(self, name, fn):
        calls, total, leaf_done = self.calls, self.total, self._leaf_done

        def leaf(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            dur = perf_counter() - start
            calls[name] += 1
            total[name] += dur
            leaf_done(dur)
            return result

        return leaf

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _chart_eq(self, fn):
        count = self.count

        def __eq__(a, b):
            result = fn(a, b)
            count["gpoly.chart_eq_calls"] += 1
            if result is True and a is not b:
                count["gpoly.chart_eq_distinct"] += 1
            return result

        return __eq__

    def _report_add(self, fn):
        count, leaf_done = self.count, self._leaf_done

        def add(report, name, identity, residual_poly=None, *args, **kwargs):
            start = perf_counter()
            result = fn(report, name, identity, residual_poly, *args, **kwargs)
            dur = perf_counter() - start
            leaf_done(dur)
            count["report.records"] += 1
            if result.residual is not None:
                count["report.residuals_rendered"] += 1
                count["report.residual_terms"] += len(residual_poly.terms)
                count["report.residual_render_s"] += dur
            return result

        return add

    # -- hooks on layer functions -------------------------------------------

    def _parse_before(self, args, kwargs):
        self.count["specfile.lines"] += len(args[0].splitlines())

    def _bracket_after(self, args, frame, dur, result):
        f, g = args[0], args[1]
        self.count["symplectic.bracket_pairs"] += len(f.terms) * len(g.terms)
        self.count["symplectic.bracket_out_terms"] += len(result.terms)

    def _mu_before(self, args, kwargs):
        spec = args[0]
        sympl = args[1] if len(args) > 1 else kwargs.get("sympl")
        key = (id(spec), id(sympl))
        if key not in self._mu_seen:
            self._mu_seen.add(key)
            self._keep.append((spec, sympl))
            self.count["algebroid.mu_distinct"] += 1

    def _check_algebroid_after(self, args, frame, dur, result):
        named = frame[3]
        route = sum(named.get(n, 0.0) for n in _HAMILTONIAN_ROUTE)
        self.count["algebroid.axiom_route_s"] += dur - route

    # -- installation ----------------------------------------------------------

    def _replace(self, modules, owner, attr, wrapper):
        """Swap `owner.attr` and every module-level binding of the same object."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original and (mod, name) != (owner, attr):
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        import algebroids.cli  # noqa: F401  (loads every module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "algebroids" or n.startswith("algebroids.")]
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        gpoly, symplectic = mods["gpoly"], mods["symplectic"]

        hooks = {
            "specfile.parse": (self._parse_before, None),
            "symplectic.bracket": (None, self._bracket_after),
            "algebroid.mu_build": (self._mu_before, None),
            "algebroid.check": (None, self._check_algebroid_after),
        }
        for modname, qual, metric in LAYER_FUNCTIONS:
            owner = mods[modname]
            attr = qual
            if "." in qual:
                cls, attr = qual.split(".")
                owner = getattr(owner, cls)
            before, after = hooks.get(metric, (None, None))
            self._replace(modules, owner, attr,
                          self._layer(metric, getattr(owner, attr),
                                      before, after))

        GPoly, Chart = gpoly.GPoly, gpoly.Chart
        self._replace(modules, GPoly, "__mul__", self._mul(GPoly.__mul__))
        self._replace(modules, GPoly, "__add__", self._add(GPoly.__add__))
        self._replace(modules, GPoly, "__sub__", self._add(GPoly.__sub__))
        self._replace(modules, GPoly, "__init__",
                      self._counted("gpoly.new", GPoly.__init__))
        self._replace(modules, Chart, "__init__",
                      self._counted("gpoly.chart_build", Chart.__init__))
        self._replace(modules, Chart, "__eq__", self._chart_eq(Chart.__eq__))
        self._replace(modules, gpoly, "partial_left",
                      self._timed_leaf("gpoly.partial_left",
                                       gpoly.partial_left))
        sc = symplectic.SymplecticChart
        self._replace(modules, sc, "__init__",
                      self._counted("symplectic.chart_build", sc.__init__))
        report_cls = mods["report"].Report
        self._replace(modules, report_cls, "add",
                      self._report_add(report_cls.add))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------------

    def state(self) -> dict:
        """Aggregates in a JSON-friendly form (children send these back)."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "count": dict(self.count)}

    def dump_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, verdict in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "verdict": verdict}) + "\n")


def merge(states) -> dict:
    """Sum aggregate states; `peak_terms` takes the maximum."""
    out = {"calls": defaultdict(float), "total": defaultdict(float),
           "self": defaultdict(float), "count": defaultdict(float)}
    for st in states:
        for part in out:
            for k, v in st[part].items():
                if k == "gpoly.peak_terms":
                    out[part][k] = max(out[part][k], v)
                else:
                    out[part][k] += v
    return out
