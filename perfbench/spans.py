"""Span recording around k3cm's public functions, installed from outside.

`SpanRecorder.install()` rebinds each function listed in `LAYERS` to a
wrapper that records one span per call: name, start, end, parent span, the
benchmark item being run, the exception type if the call raised, and a few
attributes read off the arguments and the result.  Nothing under `src/`
changes; `uninstall()` puts every original back.  Spans stay in memory until
`write_jsonl()` at the end of the run.

A function is rebound wherever a k3cm module holds it, because modules bind
names with `from k3cm.x import f`; methods and constructors are rebound on
their class.  Layers marked "count" only count calls, for functions called
too often to afford a span (QuadNum is built hundreds of thousands of times).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PROBE_SPAN = "perfbench.probe"

# (span name, module, attribute, kind)
LAYERS = [
    ("fixtures.registry", "k3cm.fixtures", "registry", "span"),
    ("families.bad_primes", "k3cm.families", "Family.bad_primes", "span"),
    ("families.specialize", "k3cm.families", "Family.specialize", "span"),
    ("families.specialize_mod", "k3cm.families", "Family.specialize_mod", "span"),
    ("surfaces.WeierstrassSurface", "k3cm.surfaces", "WeierstrassSurface.__init__", "span"),
    ("surfaces.flipped", "k3cm.surfaces", "WeierstrassSurface.flipped", "span"),
    ("surfaces.classify_fibers", "k3cm.surfaces", "classify_fibers", "span"),
    ("sections.verify_section", "k3cm.sections", "verify_section", "span"),
    ("sections.height", "k3cm.sections", "height", "span"),
    ("sections.ns_discriminant", "k3cm.sections", "ns_discriminant", "span"),
    ("sections.assemble_ns", "k3cm.sections", "assemble_ns", "span"),
    ("sections.normalized_pair", "k3cm.sections", "normalized_pair", "span"),
    ("exact.QuadNum", "k3cm.exact", "QuadNum.__init__", "count"),
    ("lattices.match_transcendental", "k3cm.lattices", "match_transcendental", "span"),
    ("lattices.discriminant_form", "k3cm.lattices", "discriminant_form", "span"),
    ("lattices.smith_normal_form", "k3cm.lattices", "smith_normal_form", "span"),
    ("lattices.is_isomorphic", "k3cm.lattices", "DiscriminantForm.is_isomorphic", "count"),
    ("counting.count_family_member", "k3cm.counting", "count_family_member", "span"),
    ("counting.count_weierstrass", "k3cm.counting", "count_weierstrass", "span"),
    ("counting.analyze_fibers_mod_p", "k3cm.counting", "analyze_fibers_mod_p", "span"),
    ("counting.cache.get", "k3cm.counting", "CountCache.get", "span"),
    ("counting.cache.put", "k3cm.counting", "CountCache.put", "span"),
    ("search.search", "k3cm.search", "search", "span"),
    ("search.scan_prime", "k3cm.search", "scan_prime", "span"),
    ("search.lift_candidates", "k3cm.search", "lift_candidates", "span"),
    ("newforms.eigenvalue_abs", "k3cm.newforms", "NewformOracle.eigenvalue_abs", "span"),
    ("lift.recover_section", "k3cm.lift", "recover_section", "span"),
    ("lift.solve_mod_p", "k3cm.lift", "solve_mod_p", "span"),
    ("lift.newton_double", "k3cm.lift", "newton_double", "span"),
]


def _arguments(fn):
    """A function mapping a call's (args, kwargs) to its bound arguments."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _attrs_for(name, fn):
    """Attributes recorded on a span, from the call's arguments and result."""
    if name == "counting.count_family_member":
        bind = _arguments(fn)
        return lambda args, kwargs, result: {"p": bind(args, kwargs)["p"]}
    if name == "search.scan_prime":
        bind = _arguments(fn)

        def scan(args, kwargs, result):
            out = {"p": bind(args, kwargs)["p"]}
            if result is not None:
                out["matched"] = len(result)
            return out

        return scan
    if name == "search.lift_candidates":
        bind = _arguments(fn)

        def lift(args, kwargs, result):
            a = bind(args, kwargs)
            cap = a["max_residues_per_prime"]
            out = {"oversized": sorted(p for p, rs in a["residue_sets"].items() if len(rs) > cap)}
            if result is not None:
                out["candidates"] = len(result)
            return out

        return lift
    if name == "counting.cache.get":
        return lambda args, kwargs, result: {"hit": result is not None}
    return None


class SpanRecorder:
    """In-memory spans of one traced pass, and the wrappers that record them."""

    def __init__(self):
        # one row per span: [name, parent index, item, start, end, error, attrs]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.item: str | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple] = []   # (owner, attribute, original, wrapper)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = _attrs_for(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, stack[-1] if stack else None, self.item, clock(), 0.0, None, None]
            index = len(spans)
            spans.append(row)    # before the push: a probe may append its span in between
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                row[5] = type(exc).__name__
                raise
            finally:
                row[4] = clock()
                stack.pop()
                if attrs is not None:
                    row[6] = attrs(args, kwargs, result)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def probe(self, start, end):
        """Record one benchmark probe as a child of the open span.

        Called from the probe's signal handler, between any two steps of a
        wrapper; the probe's time then leaves its parent's self time.
        """
        self.spans.append([PROBE_SPAN, self._stack[-1] if self._stack else None,
                           self.item, start, end, None, None])

    # -- installation ----------------------------------------------------------

    def install(self):
        """Rebind every layer function to its recording wrapper."""
        if self._bindings:
            raise RuntimeError("span recorder already installed")
        for name, module_name, attribute, kind in LAYERS:
            module = importlib.import_module(module_name)
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            if "." in attribute:
                cls_name, attr = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = make(name, original)
                setattr(owner, attr, wrapper)
                self._bindings.append((owner, attr, original, wrapper))
                continue
            original = getattr(module, attribute)
            wrapper = make(name, original)
            for mod in _k3cm_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
            self._bindings.append((None, attribute, original, wrapper))

    def uninstall(self):
        """Put back every original, including copies bound after install()."""
        originals = {id(w): o for _, _, o, w in self._bindings}
        for owner, attr, original, _ in self._bindings:
            if owner is not None:
                setattr(owner, attr, original)
        for mod in _k3cm_modules():
            for key, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, key, originals[id(value)])
        self._bindings = []

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, parent, item, start, end, error, attrs in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [row[4] - row[3] - c for row, c in zip(self.spans, child)]

    def by_name(self) -> dict[str, dict]:
        """name -> {"calls", "self_s"}; counted layers report calls only."""
        out: dict[str, dict] = {n: {"calls": c, "self_s": 0.0} for n, c in self.counts.items()}
        for row, own in zip(self.spans, self.self_times()):
            agg = out.setdefault(row[0], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += own
        return out

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][1]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (row, own) in enumerate(zip(self.spans, self.self_times())):
                name, parent, item, start, end, error, attrs = row
                rec = {"id": i, "name": name, "parent": parent, "item": item,
                       "start": start, "end": end, "self": own, "error": error}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
            for name, calls in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "calls": calls}) + "\n")


def _k3cm_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "k3cm" or n.startswith("k3cm."))]
