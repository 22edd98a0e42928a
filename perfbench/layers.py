"""Per-layer metrics of a traced run.

Span-based figures come from the launcher's trace files (:mod:`tracing`);
cache and storage ratios come from the program's own ``/metrics``
counters, as the difference between the start and the end of the
measured phase.  Request-path spans count when their ``serve.request``
root started inside the measured phase; layers that run only during
set-up (building, saving, loading the KB) are taken from the final
set-up.  A layer with no calls reads 0.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Mapping, Optional, Tuple

import tracing
from procs import Context, ServerProcess
from workloads import Measured

#: Span name -> metric, timed as the mean duration per call.
_DURATION = {
    "serve.encode": "serve.encode_ms",
    "serve.gzip": "serve.gzip_ms",
    "service.canonicalize": "service.canonicalize_ms",
    "service.execute": "service.execute_ms",
    "core.publish": "core.publish_ms",
    "core.clone": "core.clone_ms",
    "core.merge": "core.merge_ms",
    "mining.itemsets": "mining.itemsets_ms",
    "mining.rules": "mining.rules_ms",
    "storage.save": "storage.save_ms",
    "storage.load": "storage.load_ms",
    "storage.slice": "storage.slice_ms",
}

#: Span name -> metric, timed as the mean self time per call.
_SELF = {f"core.explorer.{q}": f"core.explorer_ms.{q}" for q in ("Q1", "Q2", "Q3", "Q5")}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _counter(before: Mapping, after: Mapping, *path: str) -> float:
    def get(tree: Mapping) -> float:
        node = tree
        for part in path:
            node = node.get(part, {}) if isinstance(node, Mapping) else {}
        return float(node) if isinstance(node, (int, float)) else 0.0

    return get(after) - get(before)


def _class_counts(metrics: Mapping, field: str) -> float:
    classes = metrics.get("service", {}).get("classes", {})
    return float(sum(entry.get(field, 0) for entry in classes.values()))


def per_layer(
    ctx: Context,
    server: ServerProcess,
    measured: Measured,
    before: Optional[Mapping],
    after: Optional[Mapping],
    client_cpu: float,
    workload: str,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The per-layer table and a report (reconciliation, span counts)."""
    assert server.trace is not None and before is not None and after is not None
    served = tracing.load(str(server.trace))
    built_path = ctx.work / f"trace-build-{ctx.setup_index}.json"
    built = tracing.load(str(built_path)) if built_path.exists() else []
    self_time = tracing.self_times(served)
    by_id = {span[0]: span for span in served}
    trees = tracing.request_trees(served, "serve.request")
    in_window = {
        root: spans for root, spans in trees.items()
        if measured.start <= by_id[root][3] <= measured.end
    }
    window_spans = [span for spans in in_window.values() for span in spans]
    in_requests = {span[0] for spans in trees.values() for span in spans}
    setup_spans = built + [s for s in served if s[0] not in in_requests]

    def durations(name: str) -> List[float]:
        chosen = [s for s in window_spans if s[2] == name]
        if not chosen:
            chosen = [s for s in setup_spans if s[2] == name]
        return [(s[4] - s[3]) * 1000.0 for s in chosen]

    table: Dict[str, float] = {}
    roots = [by_id[root] for root in in_window]
    request_ms = [(r[4] - r[3]) * 1000.0 for r in roots]
    table["serve.request_ms"] = _mean(request_ms)
    table["serve.unattributed_ms"] = _mean([self_time[r[0]] * 1000.0 for r in roots])
    for name, metric in _DURATION.items():
        table[metric] = _mean(durations(name))
    for name, metric in _SELF.items():
        table[metric] = _mean([self_time[s[0]] * 1000.0 for s in window_spans if s[2] == name])
    rules = [s for s in window_spans if s[2] == "mining.rules"] or [
        s for s in setup_spans if s[2] == "mining.rules"]
    table["mining.rules_per_window"] = _mean([float(s[5]) for s in rules])
    table["serve.respcache_hit_ratio"] = _ratio(
        _counter(before, after, "metrics", "respcache", "hits"),
        _counter(before, after, "metrics", "respcache", "misses"))
    table["serve.not_modified"] = _counter(before, after, "metrics", "respcache", "not_modified")
    table["service.answer_hit_ratio"] = _ratio(
        _class_counts(after, "hits") - _class_counts(before, "hits"),
        _class_counts(after, "misses") - _class_counts(before, "misses"))
    table["service.invalidations"] = _counter(before, after, "service", "invalidations")
    table["storage.series_hit_ratio"] = _ratio(
        _counter(before, after, "service", "storage", "cache_hits"),
        _counter(before, after, "service", "storage", "cache_misses"))
    table["storage.evictions"] = _counter(before, after, "service", "storage", "cache_evictions")
    table["storage.file_mib"] = float(server.state.get("kb_bytes", 0)) / 2**20
    client_ms = [t * 1000.0 for op in measured.ops for t in op.request_seconds]
    table["client.overhead_ms"] = _mean(client_ms) - table["serve.request_ms"]
    table["loadgen.cpu_share"] = client_cpu / measured.wall

    # Reconciliation: per request, the self times of all its spans add up
    # to the request's duration exactly when children nest inside parents
    # and never overlap; report the worst gap.
    worst = 0.0
    for root, spans in in_window.items():
        total = sum(self_time[s[0]] for s in spans)
        duration = by_id[root][4] - by_id[root][3]
        worst = max(worst, abs(total - duration) * 1000.0)
    leaf_ms = _mean([
        sum(self_time[s[0]] for s in spans if s[0] != root) * 1000.0
        for root, spans in in_window.items()
    ])
    report: Dict[str, object] = {
        "traced_requests": len(roots),
        "reconcile": {
            "request_ms": table["serve.request_ms"],
            "children_self_ms": leaf_ms,
            "unattributed_ms": table["serve.unattributed_ms"],
            "worst_gap_ms": worst,
        },
        "span_counts": _span_counts(window_spans + setup_spans),
    }
    out = ctx.root / ".perfbench_work" / f"trace-{workload}-{ctx.seed}.json"
    out.write_text(json.dumps({"per_layer": table, "report": report,
                               "spans": {"server": served, "build": built}}), "utf-8")
    report["trace_file"] = str(out.relative_to(ctx.root))
    return table, report


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _span_counts(spans: List[tracing.Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span[2]] = counts.get(span[2], 0) + 1
    return counts
