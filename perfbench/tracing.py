"""Per-layer tracing of degpoly from outside the package.

Calls are timed at module boundaries by replacing, for the length of a
traced phase, the names that callers look up: ``realize`` finds
``canonical_form`` as ``degpoly.realizability.canonical_form``, so that is
the name wrapped.  Each wrapped call records a span (name, start, end,
parent span, query id) in memory; ``compare_polys`` only counts calls,
since it runs hundreds of thousands of times per pass.  No file of degpoly changes.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

# (module a caller looks the name up in, attribute, span name).  The span
# name is the layer that defines the function, then the function.
SPANNED = (
    ("degpoly.cli", "from_edge_list", "graphs.from_edge_list"),
    ("degpoly.graphs", "apply_operation", "graphs.apply_operation"),
    ("degpoly.realizability", "canonical_form", "graphs.canonical_form"),
    ("degpoly.dp", "sort_polys_desc", "poly.sort_polys_desc"),
    ("degpoly.cli", "verify_operation", "dp.verify_operation"),
    ("degpoly.cli", "dp_report", "dp.dp_report"),
    ("degpoly.dp", "degree_polynomial_sequence", "dp.degree_polynomial_sequence"),
    ("degpoly.realizability", "degree_polynomial_sequence", "dp.degree_polynomial_sequence"),
    ("degpoly.realizability", "necessary_conditions", "realizability.necessary_conditions"),
    ("degpoly.realizability", "realize", "realizability.realize"),
)
COUNTED = (("degpoly.poly", "compare_polys", "poly.compare_polys"),)
LAYERS = ("poly", "graphs", "dp", "realizability", "cli")


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, query id)
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.query: Optional[str] = None
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query)

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def sorter(self, fn: Callable) -> Callable:
        """``sort_polys_desc`` also counts the entries it is given."""
        counts = self.counts
        counts.setdefault("poly.sort_polys_desc.entries", 0)

        def wrapper(polys):
            polys = list(polys)
            counts["poly.sort_polys_desc.entries"] += len(polys)
            return fn(polys)

        return self.span("poly.sort_polys_desc", wrapper)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in SPANNED + COUNTED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if name == "poly.compare_polys":
                    wrapped = self.counter(name, original)
                elif name == "poly.sort_polys_desc":
                    wrapped = self.sorter(original)
                else:
                    wrapped = self.span(name, original)
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "query")
        with path.open("w") as f:
            json.dump(
                {
                    "spans": [dict(zip(fields, s)) for s in self.spans],
                    "counts": self.counts,
                },
                f,
            )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time and self time (busy time minus
        the part covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out


PER_LAYER = {
    # name: unit
    "graphs.canonical_form.calls": "count",
    "graphs.canonical_form.busy_s": "s",
    "realizability.dedup_ratio": "ratio",
    "realizability.search_self_s": "s",
    "realizability.labeled_graphs": "count",
    "realizability.enumerate_graphs_per_s": "1/s",
    "realizability.match_ratio": "ratio",
    "realizability.necessary_conditions.busy_s": "s",
    "poly.sort_polys_desc.busy_s": "s",
    "poly.compare_polys.calls": "count",
    "poly.compare_per_entry": "ratio",
    "dp.degree_polynomial_sequence.busy_s": "s",
    "dp.verify_operation.busy_s": "s",
    "dp.dp_report.busy_s": "s",
    "graphs.from_edge_list.busy_s": "s",
    "graphs.apply_operation.busy_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, passes: int, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of a traced phase, per pass over the query set.

    The counters ``realize.witnesses``, ``cli.output_bytes``,
    ``enumerate.graphs`` and ``enumerate.seconds`` are added by the caller.
    """
    spans = tracer.summary()
    counts = tracer.counts

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    canonical_calls = get("graphs.canonical_form", "calls")
    labeled = counts.get("enumerate.graphs", 0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in spans.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    total = {
        "graphs.canonical_form.calls": canonical_calls,
        "graphs.canonical_form.busy_s": get("graphs.canonical_form", "busy_s"),
        "realizability.search_self_s": get("realizability.realize", "self_s"),
        "realizability.labeled_graphs": labeled,
        "realizability.necessary_conditions.busy_s": get(
            "realizability.necessary_conditions", "busy_s"
        ),
        "poly.sort_polys_desc.busy_s": get("poly.sort_polys_desc", "busy_s"),
        "poly.compare_polys.calls": counts.get("poly.compare_polys", 0),
        "dp.degree_polynomial_sequence.busy_s": get("dp.degree_polynomial_sequence", "busy_s"),
        "dp.verify_operation.busy_s": get("dp.verify_operation", "busy_s"),
        "dp.dp_report.busy_s": get("dp.dp_report", "busy_s"),
        "graphs.from_edge_list.busy_s": get("graphs.from_edge_list", "busy_s"),
        "graphs.apply_operation.busy_s": get("graphs.apply_operation", "busy_s"),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
    }
    metrics = {name: value / passes for name, value in total.items()}
    metrics["realizability.dedup_ratio"] = _ratio(
        counts.get("realize.witnesses", 0), canonical_calls
    )
    metrics["realizability.enumerate_graphs_per_s"] = _ratio(
        labeled, counts.get("enumerate.seconds", 0)
    )
    metrics["realizability.match_ratio"] = _ratio(canonical_calls, labeled)
    metrics["poly.compare_per_entry"] = _ratio(
        counts.get("poly.compare_polys", 0), counts.get("poly.sort_polys_desc.entries", 0)
    )
    metrics["trace.overhead_s"] = overhead_s
    return {name: metrics[name] for name in PER_LAYER}
