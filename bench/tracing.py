"""Outside-in tracing: wraps cuplength's functions and methods in the benchmark process.

Nothing in the package is edited.  Every target in TARGETS is replaced by a
wrapper that, while the tracer is enabled, counts the call and times it.  Self
time is a call's duration minus the time covered by wrapped calls it made.
Coarse targets also record a span (name, op, parent, start, end); spans are
kept in memory and written out once the pass ends.  High-frequency leaf
targets (hundreds of thousands of calls per pass) keep only their totals, so
the trace stays small.

Names imported by value (``from .grassmann import longest_monomial_product``)
are separate bindings of one function object, so the wrapper is installed in
every ``cuplength`` module that holds that object, not only where it is defined.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path, layer key, keep spans)
TARGETS = (
    ("gf2linalg", "Eliminator.add", "gf2linalg.add", False),
    ("gf2linalg", "Eliminator.reduce", "gf2linalg.reduce", False),
    ("gf2linalg", "Eliminator.finalize", "gf2linalg.finalize", True),
    ("gf2poly", "Gf2Polynomial.__init__", "gf2poly.construct", False),
    ("gf2poly", "Gf2Polynomial.__mul__", "gf2poly.mul", False),
    ("gf2poly", "inverse_series_components", "gf2poly.inverse_series", True),
    ("grassmann", "monomial_basis", "grassmann.monomial_basis", True),
    ("grassmann", "GradedQuotient.extend_to", "grassmann.extend_to", False),
    ("grassmann", "GradedQuotient.normal_form", "grassmann.normal_form", False),
    ("grassmann", "longest_monomial_product", "grassmann.longest_product", True),
    ("grassmann", "load_record", "grassmann.cache.load", True),
    ("grassmann", "save_record", "grassmann.cache.save", True),
    ("heights", "height_direct", "heights.height_direct", True),
    ("bounds", "summarize_oriented", "bounds.summarize_oriented", True),
    ("bounds", "full_report", "bounds.full_report", True),
    ("cli", "main", "cli.main", True),
)


class Tracer:
    """Call counts, inclusive and self seconds per layer key, and coarse spans."""

    def __init__(self):
        self.enabled = False
        self.op = None
        # Open wrapped calls, innermost last: [seconds covered by children, span index or None].
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}  # key -> [calls, seconds, self seconds]
        self.counts = {"add.pivots": 0, "add.zero": 0, "monomials": 0, "cache.hits": 0, "cache.misses": 0}
        self.spans: list[list] = []  # [name, op, parent span, start, end]

    def _open_span(self, name: str, start: float) -> int:
        parent = next((f[1] for f in reversed(self.stack) if f[1] is not None), None)
        self.spans.append([name, self.op, parent, start, None])
        return len(self.spans) - 1

    def wrap(self, fn, key: str, keep_span: bool, observe=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            if keep_span:
                frame[1] = tracer._open_span(key, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] is not None:
                    spans[frame[1]][4] = end
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observer(self, key: str):
        counts = self.counts

        def add(pivot):
            counts["add.pivots" if pivot else "add.zero"] += 1

        def monomials(basis):
            counts["monomials"] += len(basis)

        def load(record):
            counts["cache.misses" if record is None else "cache.hits"] += 1

        return {"gf2linalg.add": add, "grassmann.monomial_basis": monomials, "grassmann.cache.load": load}.get(key)

    def install(self, package: str = "cuplength") -> None:
        """Replace every target, in its class or in every module that binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for module_name, path, key, keep_span in TARGETS:
            owner = sys.modules[f"{package}.{module_name}"]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, key, keep_span, self._observer(key))
            setattr(owner, attr, wrapper)
            if not classes:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def run_op(self, index: int, label: str, fn):
        """Run one benchmark operation as a root span, with tracing on for its duration."""
        self.op = index
        self.enabled = True
        span = self._open_span("op " + label, time.perf_counter())
        self.stack.append([0.0, span])
        try:
            return fn()
        finally:
            self.spans[span][4] = time.perf_counter()
            self.stack.pop()
            self.enabled = False

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of one pass, named as in BENCHMARK.json."""

        def calls(key):
            return self.stats[key][0]

        def seconds(key):
            return self.stats[key][1]

        def self_seconds(key):
            return self.stats[key][2]

        c = self.counts
        return {
            "gf2linalg.add.calls": calls("gf2linalg.add"),
            "gf2linalg.add.pivots": c["add.pivots"],
            "gf2linalg.add.zero": c["add.zero"],
            "gf2linalg.add.s": seconds("gf2linalg.add"),
            "gf2linalg.finalize.s": seconds("gf2linalg.finalize"),
            "gf2linalg.reduce.calls": calls("gf2linalg.reduce"),
            "gf2linalg.reduce.s": seconds("gf2linalg.reduce"),
            "grassmann.extend_to.self_s": self_seconds("grassmann.extend_to"),
            "grassmann.monomial_basis.s": seconds("grassmann.monomial_basis"),
            "grassmann.monomial_basis.monomials": c["monomials"],
            "grassmann.normal_form.calls": calls("grassmann.normal_form"),
            "grassmann.normal_form.self_s": self_seconds("grassmann.normal_form"),
            "grassmann.longest_product.calls": calls("grassmann.longest_product"),
            "grassmann.longest_product.self_s": self_seconds("grassmann.longest_product"),
            "grassmann.cache.hits": c["cache.hits"],
            "grassmann.cache.misses": c["cache.misses"],
            "grassmann.cache.load_s": seconds("grassmann.cache.load"),
            "grassmann.cache.save_s": seconds("grassmann.cache.save"),
            "gf2poly.construct.calls": calls("gf2poly.construct"),
            "gf2poly.mul.calls": calls("gf2poly.mul"),
            "gf2poly.mul.s": seconds("gf2poly.mul"),
            "gf2poly.inverse_series.s": seconds("gf2poly.inverse_series"),
            "heights.height_direct.calls": calls("heights.height_direct"),
            "heights.height_direct.self_s": self_seconds("heights.height_direct"),
            "bounds.summarize_oriented.self_s": self_seconds("bounds.summarize_oriented"),
            "bounds.full_report.self_s": self_seconds("bounds.full_report"),
            "cli.main.self_s": self_seconds("cli.main"),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
