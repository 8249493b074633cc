"""Outside-in tracing: wrap the package's public functions where they are looked up.

Modules import each other's functions by name, so a function is replaced
in every ``stdroute`` module (and class) that binds it, not only in the
module that defines it. Coarse calls record a span (name, start, end,
parent span, self time); hot fine-grained calls only bump a counter and
their busy and self time, which keeps the tracing cost low. Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager

# (layer name, defining module, attribute, hot). A class attribute is
# written "Class.method".
TARGETS = (
    ("network.load", "stdroute.network", "load_network", False),
    ("network.graph", "stdroute.network", "decision_graph", False),
    ("network.successor", "stdroute.network", "successor_states", True),
    ("utility.value", "stdroute.utility", "LinkUtilitySpec.value", True),
    ("recursive.solve", "stdroute.recursive", "solve_value_functions", False),
    ("recursive.sample", "stdroute.recursive", "sample_sequence_counts", False),
    ("recursive.seq_loglik", "stdroute.recursive", "sequence_log_likelihood", True),
    ("policy.enumerate", "stdroute.policy", "enumerate_policies", False),
    ("policy.sequences", "stdroute.policy", "enumerate_sequences", False),
    ("policy.expected_utility", "stdroute.policy", "policy_expected_utility", True),
    ("nonrecursive.utilities", "stdroute.nonrecursive", "policy_utilities", False),
    ("nonrecursive.seq_loglik", "stdroute.nonrecursive", "sequence_log_likelihood_nr", False),
    ("nonrecursive.sample", "stdroute.nonrecursive", "sample_sequence_counts_nr", False),
    ("estimation.loglik", "stdroute.estimation", "log_likelihood", False),
    ("estimation.fit", "stdroute.estimation", "fit", False),
    ("estimation.optimizer", "stdroute.estimation", "minimize", False),
    ("comparison.build", "stdroute.comparison", "build_two_route_network", False),
    ("comparison.pipeline", "stdroute.comparison", "pipeline_ratios", False),
    ("comparison.closed_form", "stdroute.comparison", "closed_form_ratios", False),
    ("comparison.equivalence", "stdroute.comparison", "equivalence_report", False),
)


class Tracer:
    """Spans and per-name counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, float]] = []
        # name -> [calls, busy seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._child = [0.0]  # time covered by traced children, one slot per open call
        self._open: list[int | None] = [None]  # ids of open spans
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _wrap(self, name: str, fn, hot: bool):
        if hot:
            child = self._child
            stat = self._stat(name)
            perf = time.perf_counter

            def counted(*args, **kwargs):
                child.append(0.0)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    busy = perf() - start
                    own = busy - child.pop()
                    child[-1] += busy
                    stat[0] += 1
                    stat[1] += busy
                    stat[2] += own

            return counted

        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    @contextmanager
    def span(self, name: str):
        """Record one span; also used around benchmark code."""
        child, open_ids = self._child, self._open
        stat = self._stat(name)
        span_id = next(self._ids)
        parent = open_ids[-1]
        open_ids.append(span_id)
        child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            busy = end - start
            own = busy - child.pop()
            child[-1] += busy
            open_ids.pop()
            self.spans.append((span_id, parent, name, start, end, own))
            stat[0] += 1
            stat[1] += busy
            stat[2] += own

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "stdroute" or k.startswith("stdroute.")]
        for name, module_name, attr, hot in TARGETS:
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    continue  # gone from the package: the layer reads 0
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hot))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hot)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        by_id = {s[0]: s for s in self.spans}
        count = 0
        for span in self.spans:
            if span[2] != name:
                continue
            parent = span[1]
            while parent is not None:
                if by_id[parent][2] == ancestor:
                    count += 1
                    break
                parent = by_id[parent][1]
        return count

    def dump(self, path) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "stats": {
                name: {"calls": c, "busy_s": b, "self_s": s}
                for name, (c, b, s) in sorted(self.stats.items())
            },
            "spans": [
                {"id": i, "parent": p, "name": n, "start_s": round(a - t0, 7),
                 "end_s": round(b - t0, 7), "self_s": round(own, 7)}
                for i, p, n, a, b, own in sorted(self.spans)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Stand-in for untraced runs: benchmark spans cost nothing."""

    @contextmanager
    def span(self, name: str):
        yield
