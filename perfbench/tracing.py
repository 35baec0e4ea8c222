"""Spans around the public functions of each layer, installed from outside.

``oracle`` and ``cli`` import names directly (``from .rewrite import
apply_at``), so a function is wrapped in the namespace of every module that
calls it, not only where it is defined.  Each span's self time is its
duration minus the durations of the spans it encloses.  Counts (calls,
characters, steps, edges) depend only on the inputs, so they repeat exactly.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter

# (calling module, attribute) -> layer span name.  A span name can collect
# several functions, e.g. the three oracle checks.
SPANS = {
    ("cli", "parse"): "terms.parse",
    ("cli", "render"): "terms.render",
    ("cli", "measure"): "terms.measure",
    ("cli", "enumerate_shapes"): "oracle.enumerate_shapes",
    ("cli", "build_graph"): "oracle.build_graph",
    ("cli", "verify_all"): "oracle.verify_all",
    ("cli", "report_table"): "oracle.reports",
    ("cli", "records_jsonl"): "oracle.reports",
    ("cli", "export_dot"): "oracle.reports",
    ("oracle", "parse"): "terms.parse",
    ("oracle", "render"): "terms.render",
    ("oracle", "measure"): "terms.measure",
    ("oracle", "find_redexes"): "rewrite.find_redexes",
    ("oracle", "apply_at"): "rewrite.apply_at",
    ("oracle", "enumerate_shapes"): "oracle.enumerate_shapes",
    ("oracle", "build_graph"): "oracle.build_graph",
    ("oracle", "longest_paths"): "oracle.longest_paths",
    ("oracle", "shortest_paths"): "oracle.shortest_paths",
    ("oracle", "verify_sn"): "oracle.checks",
    ("oracle", "verify_wcr"): "oracle.checks",
    ("oracle", "verify_unique_nf"): "oracle.checks",
    ("rewrite", "normalize_shortest"): "rewrite.normalize_shortest",
    ("rewrite", "normalize_longest"): "rewrite.normalize_longest",
    ("rewrite", "find_redexes"): "rewrite.find_redexes",
    ("rewrite", "apply_at"): "rewrite.apply_at",
}

# Functions whose tracemalloc peak is taken, in a pass of its own.
PEAK_SPANS = {
    ("rewrite", "normalize_shortest"): "rewrite.normalize_shortest",
    ("rewrite", "normalize_longest"): "rewrite.normalize_longest",
}

NAMES = ("cli.main", *dict.fromkeys(SPANS.values()))

# Per-layer metrics, each "<span>.<field>"; FIELDS gives unit and direction.
PER_LAYER = (
    "cli.main.calls",
    "cli.main.self_s",
    "terms.parse.calls",
    "terms.parse.self_s",
    "terms.parse.chars_per_s",
    "terms.render.calls",
    "terms.render.self_s",
    "terms.render.chars_per_s",
    "terms.measure.calls",
    "terms.measure.self_s",
    "rewrite.normalize_shortest.calls",
    "rewrite.normalize_shortest.self_s",
    "rewrite.normalize_shortest.steps",
    "rewrite.normalize_shortest.peak_kib",
    "rewrite.normalize_longest.calls",
    "rewrite.normalize_longest.self_s",
    "rewrite.normalize_longest.steps",
    "rewrite.normalize_longest.peak_kib",
    "rewrite.find_redexes.calls",
    "rewrite.find_redexes.self_s",
    "rewrite.apply_at.calls",
    "rewrite.apply_at.self_s",
    "oracle.enumerate_shapes.self_s",
    "oracle.build_graph.self_s",
    "oracle.build_graph.edges",
    "oracle.longest_paths.self_s",
    "oracle.shortest_paths.self_s",
    "oracle.checks.self_s",
    "oracle.reports.self_s",
    "oracle.verify_all.self_s",
)

FIELDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "chars_per_s": ("chars/s", "higher"),
    "steps": ("count", "lower"),
    "peak_kib": ("KiB", "lower"),
    "edges": ("count", "lower"),
}


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric read from a tracer's span totals."""
    values = {}
    for metric in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        t = totals[span]
        if field == "chars_per_s":
            values[metric] = t["chars"] / t["self_s"] if t["self_s"] else 0.0
        else:
            values[metric] = t[field]
    return values


def _count(name: str, args: tuple, result: object) -> dict[str, int]:
    """Work counts of one call, read from its arguments and result."""
    if name == "terms.parse":
        return {"chars": len(args[0])}
    if name == "terms.render":
        return {"chars": len(result)}
    if name.startswith("rewrite.normalize_"):
        return {"steps": len(result.steps)}
    if name == "oracle.build_graph":
        return {"edges": result.edge_count}
    return {}


class Tracer:
    """Collects per-span totals while installed; restores everything on exit."""

    def __init__(self, modules: dict[str, object], peaks: bool = False):
        self.modules = modules
        self.spans = PEAK_SPANS if peaks else SPANS
        self.totals = {
            name: {"calls": 0, "self_s": 0.0, "chars": 0, "steps": 0, "edges": 0, "peak_kib": 0.0}
            for name in NAMES
        }
        self._open: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        totals, open_ = self.totals[name], self._open

        def traced(*args, **kwargs):
            open_.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = open_.pop()
                if open_:
                    open_[-1] += elapsed
                totals["calls"] += 1
                totals["self_s"] += elapsed - children
            for key, value in _count(name, args, result).items():
                totals[key] += value
            return result

        return traced

    def peak(self, name: str, fn):
        totals = self.totals[name]

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1024
                tracemalloc.stop()
                totals["calls"] += 1
                totals["peak_kib"] = max(totals["peak_kib"], peak)

        return traced

    def __enter__(self) -> Tracer:
        wrap = self.peak if self.spans is PEAK_SPANS else self.span
        for (module, attr), name in self.spans.items():
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
