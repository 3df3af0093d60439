"""Canonical run ledgers: the document over which resumed == uninterrupted.

The crash-matrix acceptance criterion is *byte identity*, which needs a
precise statement of which bytes.  :func:`result_ledger` produces it: a
canonical JSON-safe document of everything a run **decides** —

* the record and group mappings (canonical sorted rows),
* the link accounting (subgraph vs remaining pass),
* every per-round :class:`~repro.core.pipeline.IterationStats` ledger
  *including* the effort diagnostics (``pairs_scored``, ``cache_hits``,
  ``cache_misses``),
* the instrumentation event counters.

Excluded, deliberately:

* wall-clock fields (stage timers, per-round ``seconds``) — machine
  facts, different on every run by definition;
* the ``checkpoint_*`` counters — the resumed run performs one load the
  uninterrupted run never did; checkpoint I/O is *meta* to the
  computation, exactly like wall clock.

Everything else must match hash-for-hash: two runs with equal
:func:`ledger_hash` made the same decisions *and did the same work* —
a far stronger claim than mapping equality, and the one the checkpoint
subsystem guarantees when the similarity cache is exported
(``LinkageConfig.checkpoint_cache``, the default).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..instrumentation import (
    CHECKPOINT_BYTES,
    CHECKPOINT_LOADS,
    CHECKPOINT_WRITES,
)
from ..ioutil import content_hash

#: Counters excluded from the ledger (checkpoint I/O is meta-work).
META_COUNTERS = frozenset({
    CHECKPOINT_WRITES,
    CHECKPOINT_LOADS,
    CHECKPOINT_BYTES,
})

#: Wall-clock fields stripped from per-round statistics.
WALL_CLOCK_FIELDS = frozenset({"seconds"})


def result_ledger(result) -> Dict[str, object]:
    """The canonical decisions-and-work document of a LinkageResult."""
    iterations = []
    for stats in result.iterations:
        entry = dataclasses.asdict(stats)
        for name in WALL_CLOCK_FIELDS:
            entry.pop(name, None)
        iterations.append(entry)
    counters: Dict[str, int] = {}
    if result.profile is not None:
        counters = {
            name: value
            for name, value in sorted(result.profile.counters.items())
            if name not in META_COUNTERS
        }
    return {
        "record_mapping": result.record_mapping.as_jsonable(),
        "group_mapping": result.group_mapping.as_jsonable(),
        "num_record_links": result.num_record_links,
        "num_group_links": result.num_group_links,
        "subgraph_record_links": result.subgraph_record_links,
        "remaining_record_links": result.remaining_record_links,
        "iterations": iterations,
        "counters": counters,
    }


def ledger_hash(result) -> str:
    """SHA-256 of the canonical compact JSON of :func:`result_ledger`."""
    return content_hash(result_ledger(result))


#: Per-round IterationStats fields that record *decisions* (what was
#: linked and what remained), as opposed to effort diagnostics
#: (pairs_scored, cache hits/misses) and wall clock.
DECISION_ITERATION_FIELDS = (
    "iteration",
    "delta",
    "accepted_group_links",
    "new_record_links",
    "remaining_old",
    "remaining_new",
)


def decision_ledger(result) -> Dict[str, object]:
    """The canonical **decisions-only** document of a LinkageResult.

    The sharded driver (:mod:`repro.sharding.pipeline`) promises the
    in-RAM pipeline's *decisions* — mappings, link accounting, and each
    round's accepted/remaining tallies — while legitimately changing the
    *effort*: per-shard caches serve different hit patterns, per-shard
    pruning engines warm up separately, and per-shard kernels batch
    differently, so :func:`result_ledger` (which covers effort counters)
    cannot be the comparison document.  This ledger is the analogue of
    :func:`analysis_ledger` at single-pair granularity: two results with
    equal :func:`decision_ledger_hash` linked the same records and
    groups through the same per-round decision sequence.

    Note ``candidate_subgraphs`` stays out: how many candidate units a
    backend *considered* is effort, not outcome — the selected links per
    round are what must match.
    """
    iterations = []
    for stats in result.iterations:
        entry = dataclasses.asdict(stats)
        iterations.append(
            {name: entry[name] for name in DECISION_ITERATION_FIELDS}
        )
    return {
        "record_mapping": result.record_mapping.as_jsonable(),
        "group_mapping": result.group_mapping.as_jsonable(),
        "num_record_links": result.num_record_links,
        "num_group_links": result.num_group_links,
        "subgraph_record_links": result.subgraph_record_links,
        "remaining_record_links": result.remaining_record_links,
        "iterations": iterations,
    }


def decision_ledger_hash(result) -> str:
    """SHA-256 of the canonical compact JSON of :func:`decision_ledger`."""
    return content_hash(decision_ledger(result))


def analysis_ledger(analysis) -> Dict[str, object]:
    """The canonical **decisions-only** document of an EvolutionAnalysis.

    :func:`result_ledger` deliberately covers effort (per-round
    statistics, event counters) because the checkpoint contract is
    "resumed runs do the same work".  The incremental-series contract is
    the opposite: *change the work, preserve the decisions* — a warm
    re-run skips whole pairs, so its counters differ from a from-scratch
    run's by design.  This ledger therefore covers exactly what the
    analysis decided: the snapshot years, each adjacent pair's settled
    record and group mappings, and the full evolution-pattern content
    derived from them.  Two analyses with equal
    :func:`analysis_ledger_hash` linked every pair identically and built
    the same evolution graph.
    """
    linkages = {
        (linkage.old_year, linkage.new_year): linkage
        for linkage in getattr(analysis, "pair_linkages", []) or []
    }
    pairs = []
    for patterns in analysis.pair_patterns:
        entry: Dict[str, object] = {
            "old_year": patterns.old_year,
            "new_year": patterns.new_year,
            "records": {
                "preserved": [
                    list(pair) for pair in sorted(patterns.records.preserved)
                ],
                "added": sorted(patterns.records.added),
                "removed": sorted(patterns.records.removed),
            },
            "groups": {
                "preserved": [
                    list(pair) for pair in sorted(patterns.groups.preserved)
                ],
                "moves": [
                    list(pair) for pair in sorted(patterns.groups.moves)
                ],
                "splits": {
                    old_id: sorted(new_ids)
                    for old_id, new_ids in sorted(
                        patterns.groups.splits.items()
                    )
                },
                "merges": {
                    new_id: sorted(old_ids)
                    for new_id, old_ids in sorted(
                        patterns.groups.merges.items()
                    )
                },
                "added": sorted(patterns.groups.added),
                "removed": sorted(patterns.groups.removed),
            },
        }
        linkage = linkages.get((patterns.old_year, patterns.new_year))
        if linkage is not None:
            entry["record_mapping"] = linkage.record_mapping.as_jsonable()
            entry["group_mapping"] = linkage.group_mapping.as_jsonable()
        pairs.append(entry)
    return {"years": list(analysis.graph.years), "pairs": pairs}


def analysis_ledger_hash(analysis) -> str:
    """SHA-256 of the canonical compact JSON of :func:`analysis_ledger`."""
    return content_hash(analysis_ledger(analysis))
