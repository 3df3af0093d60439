"""Per-stage timers and counters for the linkage pipeline.

Pre-matching (§3.2) dominates end-to-end runtime: every δ round of
Alg. 1 tests candidate pairs against ``Sim_func``, and subgraph scoring
(Eq. 5) touches pair similarities again.  This module provides the
measurement substrate for that hot path: an :class:`Instrumentation`
object accumulates wall-clock time per pipeline stage and named event
counters (pairs scored, similarity-cache hits/misses, subgraphs built,
selection-queue pops), so a run can prove properties such as *"no
candidate pair was scored twice across the δ schedule"* instead of
asserting them by inspection.

The pipeline attaches the collector to its result (``result.profile``);
``python -m repro.cli link --profile`` prints its report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

#: Counter names used by the core pipeline.  Stages may add their own;
#: these constants just keep producers and consumers in sync.
PAIRS_SCORED = "pairs_scored"  # agg_sim evaluations actually performed
CACHE_HITS = "cache_hits"  # similarity-cache lookups served
CACHE_MISSES = "cache_misses"  # lookups that required a computation
CACHE_EVICTIONS = "cache_evictions"  # lazy entries dropped by the LRU cap
CANDIDATE_PAIRS = "candidate_pairs"  # frontier candidates of each
# pre-matching call, summed over the calls (a blocked pair counts once
# per δ round whose frontier still holds both of its records)
GROUP_PAIRS = "group_pairs"  # candidate group pairs considered
GROUP_PAIRS_CANDIDATES = "group_pairs_candidates"  # group pairs emitted for
# subgraph construction (identical for the indexed and brute-force paths)
GROUP_PAIRS_SKIPPED = "group_pairs_skipped_by_index"  # cross-product group
# pairs the inverted candidate index never examined (0 in brute-force mode)
SUBGRAPHS_BUILT = "subgraphs_built"  # non-empty common subgraphs
QUEUE_POPS = "queue_pops"  # Alg. 2 priority-queue pops
SELECTION_REQUEUES = "selection_requeues"  # stale queue entries trimmed and
# re-inserted by the lazy-invalidation selection engine (§3.4 extension)
REMAINING_PAIRS = "remaining_pairs"  # age-plausible pairs in the final pass
INVARIANT_CHECKS = "invariant_checks"  # validation-layer invariants evaluated
FULL_AGG_SIM_CALLS = "full_agg_sim_calls"  # pairs that got the full Eq. 3 sum
PAIRS_PRUNED_LENGTH = "pairs_pruned_length"  # rejected by the length filter
PAIRS_PRUNED_QGRAM = "pairs_pruned_qgram"  # rejected by the q-gram count filter
PAIRS_PRUNED_EARLY_EXIT = "pairs_pruned_early_exit"  # abandoned mid-sum
KERNEL_BATCHES = "kernel_batches"  # bulk scoring calls answered by the
# vectorized batch kernel (repro.core.kernel) instead of per-pair Python
KERNEL_PAIRS = "kernel_pairs"  # pairs resolved (scored or pruned) by the
# vectorized kernel; 0 under scoring_backend="python" or without numpy
CHECKPOINT_WRITES = "checkpoint_writes"  # run-state snapshots persisted
CHECKPOINT_LOADS = "checkpoint_loads"  # run-state snapshots restored on resume
CHECKPOINT_BYTES = "checkpoint_bytes_written"  # serialized checkpoint bytes
SERIES_PAIRS_REUSED = "series_pairs_reused"  # adjacent pairs whose stored
# mappings were revalidated outright (equal snapshot fingerprints, no re-link)
SERIES_PAIRS_RELINKED = "series_pairs_relinked"  # adjacent pairs re-linked
# by an incremental run (cold, or dirtied by a snapshot change)
SERIES_KEYS_DIRTY = "series_keys_dirty"  # blocking keys (both sides) whose
# fingerprint changed vs the stored pair state — drives cache-seed selection
SERIES_KEYS_TOTAL = "series_keys_total"  # blocking keys (both sides) examined
SERIES_SEED_ENTRIES = "series_seed_entries"  # cache entries (pins + bounds)
# replayed into a re-linked pair's similarity cache from stored state
PAIRS_RESCORED = "pairs_rescored"  # agg_sim evaluations performed by the
# re-linked pairs of an incremental run; 0 proves a no-op re-run did no work


@dataclass
class StageStats:
    """Accumulated wall-clock time and entry count of one pipeline stage.

    ``nested_seconds`` is the part of ``seconds`` spent while another
    stage of the same collector was open (``filtering`` inside
    ``prematching``, say); it is already counted by that outer stage.
    """

    seconds: float = 0.0
    calls: int = 0
    nested_seconds: float = 0.0


@dataclass
class Instrumentation:
    """Wall-clock timers per stage plus named event counters.

    Cheap enough to be always on: counting is a dict increment and each
    stage is timed once per δ round.  All methods are safe to call on a
    freshly constructed instance — stages and counters appear on first
    use.
    """

    stages: Dict[str, StageStats] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Stages currently open (``stage`` blocks not yet exited).
    _open: int = field(default=0, init=False, repr=False, compare=False)

    # -- recording -----------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with``-block and accumulate it under ``name``; a
        block opened inside another stage is also tallied as nested."""
        nested = self._open > 0
        self._open += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._open -= 1
            stats = self.stages.setdefault(name, StageStats())
            stats.seconds += elapsed
            stats.calls += 1
            if nested:
                stats.nested_seconds += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_counter(self, name: str, value: int) -> None:
        """Overwrite counter ``name`` (used to mirror external tallies,
        e.g. the similarity cache's own hit/miss counts)."""
        self.counters[name] = value

    # -- reading -------------------------------------------------------------

    def value(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    def seconds(self, name: str) -> float:
        """Accumulated wall-clock seconds of a stage (0.0 when never run)."""
        stats = self.stages.get(name)
        return stats.seconds if stats else 0.0

    def total_seconds(self) -> float:
        """Time spent in outermost stages: a nested stage's time is
        already inside its outer stage, so it is not added again."""
        return sum(
            stats.seconds - stats.nested_seconds
            for stats in self.stages.values()
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-data snapshot (stages and counters), e.g. for JSON dumps."""
        return {
            "stages": {
                name: {"seconds": stats.seconds, "calls": stats.calls}
                for name, stats in self.stages.items()
            },
            "counters": dict(self.counters),
        }

    def merge(self, other: "Instrumentation") -> None:
        """Fold another collector into this one (timers and counters add)."""
        for name, stats in other.stages.items():
            mine = self.stages.setdefault(name, StageStats())
            mine.seconds += stats.seconds
            mine.calls += stats.calls
            mine.nested_seconds += stats.nested_seconds
        for name, value in other.counters.items():
            self.count(name, value)

    def report(self, title: str = "pipeline profile") -> str:
        """Human-readable two-part table: stage timers, then counters.

        Rows of stages that ran inside another stage (on some or all of
        their calls) carry a ``*``; the total counts outermost time only.
        """
        lines = [title, "=" * len(title)]
        if self.stages:
            width = max(len(name) for name in self.stages) + 2
            lines.append(f"{'stage'.ljust(width)}  {'seconds':>9}  {'calls':>6}")
            for name, stats in sorted(
                self.stages.items(), key=lambda item: -item[1].seconds
            ):
                label = f"{name} *" if stats.nested_seconds else name
                lines.append(
                    f"{label.ljust(width)}  {stats.seconds:>9.3f}  "
                    f"{stats.calls:>6d}"
                )
            lines.append(
                f"{'total'.ljust(width)}  {self.total_seconds():>9.3f}"
            )
            if any(stats.nested_seconds for stats in self.stages.values()):
                lines.append(
                    "* includes time inside another stage, counted once "
                    "in the total"
                )
        if self.counters:
            if self.stages:
                lines.append("")
            width = max(len(name) for name in self.counters)
            lines.append(f"{'counter'.ljust(width)}  {'value':>12}")
            for name, value in sorted(self.counters.items()):
                lines.append(f"{name.ljust(width)}  {value:>12d}")
        if not self.stages and not self.counters:
            lines.append("(empty)")
        return "\n".join(lines)
