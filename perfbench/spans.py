"""Outside-in layer trace for ellint.

Tracer.install() replaces each public function of the traced ellint
modules, in every ellint module namespace that binds it, with a wrapper
that records a span (name, start, end, parent).  Nothing under src/ is
changed: the wrappers live only in this process and uninstall() puts the
originals back.  Spans of one op stay in memory until the op returns;
fold() then turns them into per-name counts, total time and self time
(duration minus the time covered by child spans), outside the timed region.
"""

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("elliptic", "geometry", "identities", "quadrature", "series",
          "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []          # (module, attribute, original)
        self._wrappers = {}       # id(original) -> wrapper, kept across installs
        self.evaluations = 0      # QuadratureResult.evaluations of integrate()
        self.nonconverged = 0     # integrate() calls that raised NonConvergenceError
        self.terms = 0            # SeriesSum.terms_used of sigma sums
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_entries = defaultdict(int)  # per name: spans whose
        # parent is in another layer (or absent)

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = sys.modules["ellint." + layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = self._wrappers
        for name, mod in list(sys.modules.items()):
            if name != "ellint" and not name.startswith("ellint."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    fn, span_name = originals[id(obj)]
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(fn, span_name)
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_evals = name == "quadrature.integrate"
        counts_terms = name in ("series.sigma1_sum", "series.sigma2_sum")
        nonconvergence = sys.modules["ellint.errors"].NonConvergenceError

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counts_evals and isinstance(exc, nonconvergence):
                    self.nonconverged += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counts_evals:
                self.evaluations += result.evaluations
            elif counts_terms:
                self.terms += result.terms_used
            return result

        traced.__wrapped__ = fn
        return traced

    def fold(self, scale: float = 1.0):
        """Fold the spans recorded so far into per-name totals, their
        durations multiplied by scale; clear them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur * scale
            self.self_time[name] += (dur - child[i]) * scale
            if parent < 0 or spans[parent][0].split(".")[0] != name.split(".")[0]:
                self.layer_entries[name] += 1
        spans.clear()

    def state(self) -> dict:
        """The folded totals, for a child process to hand to its parent."""
        return {"calls": self.calls, "total": self.total, "self_time": self.self_time,
                "layer_entries": self.layer_entries, "evaluations": self.evaluations,
                "nonconverged": self.nonconverged, "terms": self.terms}

    def merge(self, state: dict, scale: float = 1.0):
        """Add another tracer's state(), its times multiplied by scale."""
        for name, n in state["calls"].items():
            self.calls[name] += n
        for name, n in state["layer_entries"].items():
            self.layer_entries[name] += n
        for name, t in state["total"].items():
            self.total[name] += t * scale
        for name, t in state["self_time"].items():
            self.self_time[name] += t * scale
        self.evaluations += state["evaluations"]
        self.nonconverged += state["nonconverged"]
        self.terms += state["terms"]

    def count(self, pred) -> int:
        return sum(n for name, n in self.calls.items() if pred(name))

    def seconds(self, pred) -> float:
        """Self time of the spans whose name satisfies pred."""
        return sum(t for name, t in self.self_time.items() if pred(name))

    def entries(self, pred) -> int:
        return sum(n for name, n in self.layer_entries.items() if pred(name))

    def table(self) -> list:
        """Per-name rows, for the trace file written at the end of a run."""
        return [{"name": name, "calls": self.calls[name],
                 "total_s": self.total[name], "self_s": self.self_time[name]}
                for name in sorted(self.calls)]
