"""Span tracing from outside the program, and the span-tree arithmetic.

:class:`Tracer` replaces a name with a wrapper *where its caller looks it
up*: ``repro.core.pipeline.prematching`` and
``repro.sharding.pipeline.prematching`` are separate bindings of one
function and are wrapped separately; methods are wrapped on their class.
Each call becomes a span with its name (the layer), start and end, its
parent span and run id, tagged with the series pair, shard and δ round
in force when it started.  Spans stay in memory until the caller writes
them out.

:func:`self_times` gives each span's duration minus the part of it its
children cover.  Over a tree of properly nested spans the self times
add up to the root span exactly, so summing them per layer never counts
a nested interval twice, unlike the program's own stage timers.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from collections import Counter
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Tags a span inherits from the spans around it.
CONTEXT_TAGS = ("pair", "shard", "round", "delta")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, run: str = "0", cpu: bool = False) -> None:
        self.run = run
        self.cpu = cpu
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self.context: Dict[str, object] = {}
        self._stack: List[dict] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str, tags: Optional[Dict[str, object]] = None) -> dict:
        if tags:
            self.context.update(
                (key, value) for key, value in tags.items()
                if key in CONTEXT_TAGS
            )
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "run": self.run,
            "tags": {**self.context, **(tags or {})},
            "start": time.perf_counter(),
            "end": None,
        }
        if self.cpu:
            span["cpu_start"] = time.process_time()
        self.spans.append(span)
        self._stack.append(span)
        self.counts[name] += 1
        return span

    def end(self, span: dict) -> None:
        if self.cpu:
            span["cpu_end"] = time.process_time()
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        tagger: Optional[Callable[[Dict[str, object]], Dict[str, object]]] = None,
        on_result: Optional[Callable[[object], None]] = None,
        restore: Iterable[str] = (),
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``tagger`` maps the bound call arguments to span tags;
        ``on_result`` sees the return value (to count work);
        ``restore`` names context tags reset when the span ends.
        """
        original = getattr(owner, attribute)
        signature = inspect.signature(original) if tagger else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tags = None
            if tagger is not None:
                bound = signature.bind(*args, **kwargs).arguments
                tags = tagger(bound)
            saved = {key: tracer.context.get(key) for key in restore}
            span = tracer.begin(name, tags)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
                for key, value in saved.items():
                    if value is None:
                        tracer.context.pop(key, None)
                    else:
                        tracer.context[key] = value
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# -- bindings of the batch pipelines -------------------------------------------


def _round_of_prematching(tracer: Tracer):
    def tag(arguments):
        current = tracer.context.get("round")
        next_round = current + 1 if isinstance(current, int) else 1
        return {"round": next_round,
                "delta": arguments["sim_func"].threshold}
    return tag


def install_batch(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer a batch workload runs
    (``link``, ``evolve``, ``country``)."""
    # import_module, not ``import a.b as c``: packages such as repro.core
    # re-export functions under their submodules' names.
    region = import_module("repro.blocking.region")
    standard = import_module("repro.blocking.standard")
    series = import_module("repro.checkpoint.series")
    backends = import_module("repro.core.backends")
    config = import_module("repro.core.config")
    batch = import_module("repro.core.kernel.batch")
    pipeline = import_module("repro.core.pipeline")
    prematching = import_module("repro.core.prematching")
    remaining = import_module("repro.core.remaining")
    analysis = import_module("repro.evolution.analysis")
    model_io = import_module("repro.model.io")
    service_store = import_module("repro.service.store")
    sharded = import_module("repro.sharding.pipeline")
    shard_store = import_module("repro.sharding.store")

    wrap = tracer.wrap
    wrap(pipeline.IterativeGroupLinkage, "link", "core.pipeline",
         tagger=lambda a: {"pair": f"{a['old_dataset'].year}-"
                                   f"{a['new_dataset'].year}", "round": 0},
         restore=("pair", "round", "delta"))
    wrap(sharded, "link_datasets_sharded", "sharding.pipeline",
         tagger=lambda a: {"round": 0}, restore=("round", "shard", "delta"))
    wrap(sharded, "_shard_round", "sharding.pipeline",
         tagger=lambda a: {"shard": a["context"].spec.index,
                           "round": a["round_index"], "delta": a["delta"]},
         on_result=lambda _: tracer.counts.update(["sharding.visits"]))
    wrap(sharded, "_shard_remaining", "sharding.pipeline",
         tagger=lambda a: {"shard": a["context"].spec.index,
                           "round": "remaining"},
         on_result=lambda _: tracer.counts.update(["sharding.visits"]))
    wrap(sharded, "plan_shards", "sharding.planner")
    for module in (pipeline, sharded):
        wrap(module, "complete_groups", "core.enrichment")
        wrap(module, "prematching", "core.prematching",
             tagger=(_round_of_prematching(tracer) if module is pipeline
                     else None))
        wrap(module, "match_remaining", "core.remaining",
             tagger=lambda a: {"round": "remaining"})
    for blocker in (standard.StandardBlocker, region.RegionBlocker):
        wrap(blocker, "candidate_pairs", "blocking")
    wrap(config.LinkageConfig, "build_scoring_kernel", "core.kernel.encode")
    wrap(batch.BatchScoringKernel, "evaluate_chunk", "core.kernel.score")
    wrap(batch.BatchScoringKernel, "agg_sim_chunk", "core.kernel.score")
    wrap(prematching, "_filtered_bulk_scores", "core.filtering")
    wrap(remaining, "_filtered_bulk_scores", "core.filtering")
    wrap(prematching, "cluster_records", "core.clustering")
    wrap(backends, "build_all_subgraphs", "core.subgraph")
    wrap(backends, "score_subgraphs", "core.scoring")
    wrap(backends, "select_group_matches", "core.selection")
    for name in ("snapshot_fingerprint", "blocking_key_fingerprints",
                 "dirty_keys", "dirty_record_ids", "build_seed",
                 "cache_parts"):
        wrap(series, name, "checkpoint.series")
    wrap(series.SeriesStore, "load_pair", "checkpoint.series")
    wrap(series.SeriesStore, "write_pair", "checkpoint.series")
    wrap(analysis, "coerce_series_store", "checkpoint.series")
    wrap(analysis, "analyse_series", "evolution.analysis")
    wrap(analysis, "extract_patterns", "evolution.patterns")
    wrap(service_store.EvolutionStore, "publish", "service.store.publish",
         on_result=lambda report: tracer.counts.update(
             {"service.store.segments_written":
              len(report.segments_written)}))
    wrap(service_store.EvolutionStore, "load_graph", "service.store.load")
    wrap(model_io, "read_dataset", "model.io.read")
    wrap(shard_store.ShardStore, "read_shard", "sharding.store.read",
         on_result=lambda records: tracer.counts.update(
             {"sharding.store.records_read": len(records)}))
    wrap(shard_store.ShardStore, "write_datasets", "sharding.store.write")


# -- bindings of the query service ---------------------------------------------

#: ``(peer port, next sequence number)`` of the connection being served.
_CONNECTION = contextvars.ContextVar("perfbench_connection", default=None)


def install_service(tracer: Tracer) -> None:
    """Wrap the query service's layers inside a ``repro serve`` process.

    Each ``handle_request`` span carries the request id: the client's
    port and the request's sequence number on that connection.
    """
    core = import_module("repro.service.core")
    http = import_module("repro.service.http")
    service_store = import_module("repro.service.store")

    original_connection = http.handle_connection

    @functools.wraps(original_connection)
    async def handle_connection(service, reader, writer):
        peer = writer.get_extra_info("peername")
        _CONNECTION.set([peer[1] if peer else None, 0])
        await original_connection(service, reader, writer)

    http.handle_connection = handle_connection
    tracer._installed.append((http, "handle_connection", original_connection))

    def request_id(arguments):
        connection = _CONNECTION.get()
        if connection is None:
            return {"conn": None, "seq": None, "target": arguments["target"]}
        sequence = connection[1]
        connection[1] += 1
        return {"conn": connection[0], "seq": sequence,
                "target": arguments["target"]}

    tracer.wrap(core.EvolutionQueryService, "handle_request", "service.core",
                tagger=request_id)
    for name in ("household_lineage", "person_timeline", "group_neighborhood",
                 "preserve_chains", "frequent_change_sequences"):
        tracer.wrap(core, name, "evolution.queries")
    tracer.wrap(service_store.EvolutionStore, "load_graph",
                "service.store.load")


# -- span-tree arithmetic ------------------------------------------------------


def _covered(interval: Tuple[float, float],
             children: List[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by ``children``."""
    low, high = interval
    total, reach = 0.0, low
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id → its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered((span["start"], span["end"]), children.get(span["id"], []))
        for span in spans
    }


def subtree(spans: List[dict], root_id: int) -> List[dict]:
    """The root span and all its descendants."""
    by_parent: Dict[int, List[dict]] = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    root = next(span for span in spans if span["id"] == root_id)
    found, frontier = [root], [root]
    while frontier:
        nested = by_parent.get(frontier.pop()["id"], [])
        found.extend(nested)
        frontier.extend(nested)
    return found


def layer_self_times(spans: List[dict]) -> Dict[str, float]:
    """Layer (span name) → summed self time."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals
