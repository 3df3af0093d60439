"""Per-layer metrics of a traced run.

Times are span self times (:mod:`tracing`).  Counts come from the
program's own ``result.profile`` counters and ``/stats``, or from the
number of calls the wrappers saw; never from the program's stage
timers, which nest.  Every run reports every metric, with 0 for a layer
its workload does not run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from stats import median, share
from tracing import layer_self_times, subtree

#: (metric, unit), in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("core.pipeline.self_s", "s"),
    ("core.pipeline.pairs_scored", "count"),
    ("sharding.pipeline.self_s", "s"),
    ("sharding.pipeline.visits", "count"),
    ("blocking.self_s", "s"),
    ("blocking.candidate_pairs", "count"),
    ("core.enrichment.self_s", "s"),
    ("core.enrichment.calls", "count"),
    ("core.kernel.encode_s", "s"),
    ("core.kernel.encode_calls", "count"),
    ("core.kernel.score_s", "s"),
    ("core.kernel.pairs", "count"),
    ("core.kernel.full_score_share", "ratio"),
    ("core.filtering.self_s", "s"),
    ("core.filtering.pruned_share", "ratio"),
    ("core.simcache.hit_share", "ratio"),
    ("core.prematching.self_s", "s"),
    ("core.clustering.self_s", "s"),
    ("core.subgraph.self_s", "s"),
    ("core.subgraph.group_pairs", "count"),
    ("core.subgraph.built_share", "ratio"),
    ("core.scoring.self_s", "s"),
    ("core.selection.self_s", "s"),
    ("core.selection.queue_pops", "count"),
    ("core.remaining.self_s", "s"),
    ("core.remaining.pairs", "count"),
    ("checkpoint.series.self_s", "s"),
    ("checkpoint.series.bytes_written", "bytes"),
    ("checkpoint.series.seed_entries", "count"),
    ("checkpoint.series.dirty_key_share", "ratio"),
    ("evolution.analysis.self_s", "s"),
    ("evolution.analysis.pairs_relinked", "count"),
    ("evolution.analysis.pairs_rescored", "count"),
    ("evolution.patterns.self_s", "s"),
    ("service.store.publish_s", "s"),
    ("service.store.segments_written", "count"),
    ("service.store.load_s", "s"),
    ("sharding.planner.self_s", "s"),
    ("sharding.store.read_s", "s"),
    ("sharding.store.records_read", "count"),
    ("sharding.store.write_s", "s"),
    ("model.io.read_s", "s"),
    ("service.core.self_s", "s"),
    ("service.core.requests", "count"),
    ("service.core.cache_hit_share", "ratio"),
    ("evolution.queries.self_s", "s"),
    ("service.http.busy_s", "s"),
    ("service.http.wait_ms", "ms"),
    ("root.self_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

UNITS = dict(PER_LAYER)

#: Metric → span name whose summed self time it reports.
SELF_TIME_OF = {
    "core.pipeline.self_s": "core.pipeline",
    "sharding.pipeline.self_s": "sharding.pipeline",
    "blocking.self_s": "blocking",
    "core.enrichment.self_s": "core.enrichment",
    "core.kernel.encode_s": "core.kernel.encode",
    "core.kernel.score_s": "core.kernel.score",
    "core.filtering.self_s": "core.filtering",
    "core.prematching.self_s": "core.prematching",
    "core.clustering.self_s": "core.clustering",
    "core.subgraph.self_s": "core.subgraph",
    "core.scoring.self_s": "core.scoring",
    "core.selection.self_s": "core.selection",
    "core.remaining.self_s": "core.remaining",
    "checkpoint.series.self_s": "checkpoint.series",
    "evolution.analysis.self_s": "evolution.analysis",
    "evolution.patterns.self_s": "evolution.patterns",
    "service.store.publish_s": "service.store.publish",
    "service.store.load_s": "service.store.load",
    "sharding.planner.self_s": "sharding.planner",
    "sharding.store.read_s": "sharding.store.read",
    "root.self_s": "run",
}

#: Metric → program counter (``result.profile``) it reports.
COUNTER_OF = {
    "core.pipeline.pairs_scored": "pairs_scored",
    "blocking.candidate_pairs": "candidate_pairs",
    "core.kernel.pairs": "kernel_pairs",
    "core.subgraph.group_pairs": "group_pairs",
    "core.selection.queue_pops": "queue_pops",
    "core.remaining.pairs": "remaining_pairs",
    "checkpoint.series.bytes_written": "checkpoint_bytes_written",
    "checkpoint.series.seed_entries": "series_seed_entries",
    "evolution.analysis.pairs_relinked": "series_pairs_relinked",
    "evolution.analysis.pairs_rescored": "pairs_rescored",
}

#: Metric → number of wrapper calls (or items) it reports.
CALLS_OF = {
    "sharding.pipeline.visits": "sharding.visits",
    "core.enrichment.calls": "core.enrichment",
    "core.kernel.encode_calls": "core.kernel.encode",
    "service.store.segments_written": "service.store.segments_written",
    "sharding.store.records_read": "sharding.store.records_read",
}

PRUNE_COUNTERS = ("pairs_pruned_length", "pairs_pruned_qgram",
                  "pairs_pruned_early_exit")


def tree_totals(spans: List[dict], root_name: str) -> Tuple[Dict[str, float], float, float]:
    """Per-layer self time over the tree of the (single) root span named
    ``root_name``, the root's duration and the sum of all self times."""
    root = next(span for span in spans
                if span["name"] == root_name and span["parent"] is None)
    totals = layer_self_times(subtree(spans, root["id"]))
    return totals, root["end"] - root["start"], sum(totals.values())


def operation_metrics(operation: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced batch operation."""
    spans = operation["trace"]["spans"]
    calls = operation["trace"]["counts"]
    counters = operation["counters"]
    run, root_s, summed = tree_totals(spans, "run")
    setup, _, _ = tree_totals(spans, "setup")
    values = {name: 0.0 for name, _ in PER_LAYER}
    for metric, layer in SELF_TIME_OF.items():
        values[metric] = run.get(layer, 0.0)
    for metric, counter in COUNTER_OF.items():
        values[metric] = counters.get(counter, 0)
    for metric, name in CALLS_OF.items():
        values[metric] = calls.get(name, 0)
    pruned = sum(counters.get(name, 0) for name in PRUNE_COUNTERS)
    full = counters.get("full_agg_sim_calls", 0)
    hits, misses = counters.get("cache_hits", 0), counters.get("cache_misses", 0)
    values.update({
        "core.kernel.full_score_share": share(full, counters.get("kernel_pairs", 0)),
        "core.filtering.pruned_share": share(pruned, pruned + full),
        "core.simcache.hit_share": share(hits, hits + misses),
        "core.subgraph.built_share": share(
            counters.get("subgraphs_built", 0),
            counters.get("group_pairs_candidates", 0)),
        "checkpoint.series.dirty_key_share": share(
            counters.get("series_keys_dirty", 0),
            counters.get("series_keys_total", 0)),
        "sharding.store.write_s": setup.get("sharding.store.write", 0.0),
        "model.io.read_s": setup.get("model.io.read", 0.0),
        "trace.unaccounted_s": root_s - summed,
        "trace.spans": len(spans),
    })
    return values


def batch_metrics(traced: List[dict], untraced: List[dict]) -> Dict[str, tuple]:
    """Medians over a run's traced operations, plus the tracing overhead
    (traced minus untraced median ``wall_s``)."""
    per_operation = [operation_metrics(op) for op in traced]
    values = {name: median([op[name] for op in per_operation])
              for name, _ in PER_LAYER}
    values["trace.overhead_s"] = (
        median([op["wall_s"] for op in traced])
        - median([op["wall_s"] for op in untraced])
    )
    return {name: (values[name], UNITS[name]) for name, _ in PER_LAYER}
