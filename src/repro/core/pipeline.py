"""Iterative record and group linkage — Algorithm 1 end to end.

:func:`run_linkage` is the one Alg. 1 driver.  It relaxes the
pre-matching threshold δ from ``δ_high`` down to ``δ_low`` so that safe
matches anchor the harder ones.  In every δ round it takes each shard of
the run through pre-matching, the group backend (§3.3–§3.4), validation,
link merging and the frontier update, then applies the stopping rule to
the merged round; after the last round the remaining-record pass
(lines 17-19) runs shard by shard.  The driver also owns checkpoint
writes and resume (:mod:`repro.checkpoint`).

A :class:`Shard` holds what survives between rounds: its similarity
cache, pruning engine, blocked candidate pairs and frontier ids.  Its
record-bearing structures — records, enriched households, the
:class:`GroupPairIndex` and the scoring kernel — form a
:class:`ShardVisit`, which the entry point makes resident or streamed:

* :meth:`IterativeGroupLinkage.link` runs one :class:`ResidentShard`
  over both whole datasets, built once.  Enrichment, the index and the
  kernel encoding happen once per run, and one
  :class:`~repro.core.simcache.SimilarityCache` serves every round and
  the remaining pass, so candidate pairs are scored at most once across
  the whole δ schedule.
* :func:`repro.sharding.link_datasets_sharded` runs the planner's
  streamed shards, rebuilt from the record sources on every visit and
  released after it, so only one shard's records are in memory at a
  time.

Bulk scoring fans out over ``config.n_workers`` processes with
deterministic merging, and an :class:`~repro.instrumentation.Instrumentation`
collector times every stage (see ``result.profile``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..checkpoint import (
    PHASE_FINAL,
    PHASE_ROUND,
    CheckpointMismatch,
    CheckpointStore,
    RunState,
    coerce_store,
    dataset_fingerprint,
)
from ..checkpoint.ledger import META_COUNTERS
from ..instrumentation import (
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    PAIRS_SCORED,
    SERIES_SEED_ENTRIES,
    Instrumentation,
)
from ..model.dataset import CensusDataset
from ..model.households import Household
from ..model.mappings import (
    GroupMapping,
    RecordMapping,
    household_of_map,
    induced_group_mapping,
)
from .backends import GroupRoundContext, get_backend
from .config import LinkageConfig
from .enrichment import complete_groups
from .prematching import prematching
from .remaining import match_remaining
from .simcache import SimilarityCache
from .subgraph import GroupPairIndex


@dataclass
class IterationStats:
    """Diagnostics of one δ round of the iterative loop (Alg. 1)."""

    iteration: int
    delta: float
    candidate_subgraphs: int
    accepted_group_links: int
    new_record_links: int
    remaining_old: int
    remaining_new: int
    #: ``agg_sim`` computations performed during this round (bulk and
    #: lazy); 0 from round 2 on proves the cross-round cache works.
    pairs_scored: int = 0
    #: Similarity-cache lookups served / missed during this round.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock seconds of the round.
    seconds: float = 0.0


class LinkOrigin(NamedTuple):
    """Where a record link came from: which pass, round and threshold.

    Recorded per link when ``LinkageConfig(validate=True)`` so that the
    validation layer can check every link against the threshold of the
    pass that accepted it (``link-scores-reach-threshold``).
    """

    #: ``"subgraph"`` (a δ round of Alg. 1) or ``"remaining"`` (line 17).
    source: str
    #: 1-based δ round, or ``None`` for the remaining pass.
    round: Optional[int]
    #: The δ (or remaining threshold) in force when the link was accepted.
    threshold: float


@dataclass
class LinkageResult:
    """Output of Algorithm 1 plus per-round diagnostics."""

    record_mapping: RecordMapping
    group_mapping: GroupMapping
    iterations: List[IterationStats] = field(default_factory=list)
    remaining_record_links: int = 0
    #: Record links found via subgraph matching (before the remaining pass).
    subgraph_record_links: int = 0
    #: Per-stage timers and event counters of the whole run.
    profile: Optional[Instrumentation] = None
    #: Per-link :class:`LinkOrigin`, populated only when the run was
    #: validated (``LinkageConfig.validate``); ``None`` otherwise.
    provenance: Optional[Dict[Tuple[str, str], LinkOrigin]] = None
    #: The run's similarity cache, kept only when the caller passed
    #: ``keep_cache=True`` (the incremental series engine harvests its
    #: pinned scores and pruning bounds); ``None`` otherwise.
    cache: Optional[SimilarityCache] = None

    @property
    def num_record_links(self) -> int:
        return len(self.record_mapping)

    @property
    def num_group_links(self) -> int:
        return len(self.group_mapping)


# -- shards ------------------------------------------------------------------


class ShardVisit(NamedTuple):
    """A shard's record-bearing structures, for one visit or the run.

    ``households`` (the enriched households of both sides) and
    ``group_index`` are built for δ rounds only.  ``kernel`` is ``None``
    under the python scoring backend, without numpy, or when a remaining
    pass with custom weights encodes its own.
    """

    old: CensusDataset
    new: CensusDataset
    kernel: Optional[object] = None
    households: Optional[
        Tuple[Dict[str, Household], Dict[str, Household]]
    ] = None
    group_index: Optional[GroupPairIndex] = None


def build_visit(
    old: CensusDataset,
    new: CensusDataset,
    config: LinkageConfig,
    candidate_filter,
    instrumentation: Instrumentation,
    groups: bool = True,
    kernel: bool = True,
) -> ShardVisit:
    """Enrich (Alg. 1 line 1), index and encode one shard's records.

    All three are δ-independent, so a resident shard builds them once
    for every round.  The kernel encodes the attribute columns of *all*
    the shard's records, so each round's shrinking frontier just gathers
    rows from the same tables, and worker pools inherit the encoding
    through their initializer; it replays the pruning engine's exact
    FilteringConfig.
    """
    households = group_index = None
    if groups:
        with instrumentation.stage("enrichment"):
            households = (complete_groups(old), complete_groups(new))
        group_index = GroupPairIndex(*households)
    encoded = None
    if kernel:
        with instrumentation.stage("kernel_encoding"):
            encoded = config.build_scoring_kernel(
                config.build_sim_func(),
                list(old.iter_records()),
                list(new.iter_records()),
                candidate_filter=candidate_filter,
            )
    return ShardVisit(old, new, encoded, households, group_index)


class Shard:
    """One shard's state across the δ rounds of :func:`run_linkage`.

    Everything here is id- or score-keyed.  The similarity cache pins
    candidate scores and bounds lazy ``pair_sim`` additions with its LRU
    (see repro.core.simcache).  The pruning engine is δ-agnostic (δ is
    an argument of each evaluation) and its per-string length statistics
    warm up across rounds; ``None`` = off.  Candidate pairs are blocked
    at the first visit.  The frontier holds the shard's still unlinked
    record ids in sorted-id order, the order of its records.
    Subclasses supply the records: :meth:`match_round` and
    :meth:`match_remaining` visit them.
    """

    #: Whether the visit structures stay in memory for the whole run.
    #: Only a resident shard's cache is exported to checkpoints.
    resident = False

    def __init__(
        self,
        config: LinkageConfig,
        old_ids: Sequence[str],
        new_ids: Sequence[str],
    ) -> None:
        self.cache = SimilarityCache(
            max_lazy_entries=config.max_lazy_cache_entries or None
        )
        self.candidate_filter = config.build_candidate_filter(
            config.build_sim_func()
        )
        self.cached_pairs = None
        self.remaining_old_ids: List[str] = list(old_ids)
        self.remaining_new_ids: List[str] = list(new_ids)

    def match_round(
        self, sim_func, blocker, config, backend, record_mapping, delta,
        round_index, instrumentation, round_timer,
    ):
        """This shard's part of one δ round (see
        :func:`match_shard_round`)."""
        raise NotImplementedError

    def match_remaining(
        self, sim_func_rem, blocker, config, group_mapping, instrumentation
    ) -> RecordMapping:
        """This shard's remaining pass (see
        :func:`match_shard_remaining`)."""
        raise NotImplementedError


class ResidentShard(Shard):
    """Both whole datasets as one shard, enriched, indexed and encoded
    once for the whole run."""

    resident = True

    def __init__(
        self,
        old_dataset: CensusDataset,
        new_dataset: CensusDataset,
        config: LinkageConfig,
        instrumentation: Instrumentation,
        cache_seed=None,
    ) -> None:
        super().__init__(
            config, old_dataset.record_ids, new_dataset.record_ids
        )
        if cache_seed is not None:
            # Seeded before the driver arms the export journal, so
            # checkpoints of a seeded run capture the seed rows too.
            self.cache.seed(cache_seed.pinned, cache_seed.bounds)
            instrumentation.count(
                SERIES_SEED_ENTRIES, cache_seed.num_entries
            )
        self.visit = build_visit(
            old_dataset,
            new_dataset,
            config,
            self.candidate_filter,
            instrumentation,
        )

    def match_round(
        self, sim_func, blocker, config, backend, record_mapping, delta,
        round_index, instrumentation, round_timer,
    ):
        return match_shard_round(
            self, self.visit, sim_func, blocker, config, backend,
            record_mapping, delta, round_index, instrumentation,
            round_timer, prematch=prematching,
        )

    def match_remaining(
        self, sim_func_rem, blocker, config, group_mapping, instrumentation
    ) -> RecordMapping:
        return match_shard_remaining(
            self, self.visit, sim_func_rem, blocker, config, group_mapping,
            instrumentation,
        )


def match_shard_round(
    shard: Shard,
    visit: ShardVisit,
    sim_func,
    blocker,
    config: LinkageConfig,
    backend,
    record_mapping: RecordMapping,
    delta: float,
    round_index: int,
    instrumentation: Instrumentation,
    round_timer: Instrumentation,
    prematch: Callable,
):
    """Pre-matching (§3.2) then the group backend (§3.3–§3.4) over one
    shard's frontier: ``(selection, candidate_units, prematch_result)``.

    ``prematch`` is :func:`prematching` as bound in the calling module
    (perfbench/tracing.py tags each module's binding differently).
    """
    remaining_old = [visit.old.records[i] for i in shard.remaining_old_ids]
    remaining_new = [visit.new.records[i] for i in shard.remaining_new_ids]
    if shard.cached_pairs is None:
        # Candidate pairs and their scores are δ-independent: block and
        # score once, then re-test the cached scores against every later
        # round's δ.
        with instrumentation.stage("blocking"):
            shard.cached_pairs = blocker.candidate_pairs(
                list(visit.old.iter_records()),
                list(visit.new.iter_records()),
            )
    with round_timer.stage("round"), instrumentation.stage("prematching"):
        result = prematch(
            remaining_old,
            remaining_new,
            sim_func,
            blocker,
            cached_scores=shard.cache,
            cached_pairs=shard.cached_pairs,
            clustering=config.clustering,
            n_workers=config.n_workers,
            chunk_size=config.worker_chunk_size,
            instrumentation=instrumentation,
            candidate_filter=shard.candidate_filter,
            kernel=visit.kernel,
        )
    old_households, new_households = visit.households
    outcome = backend.match_round(
        GroupRoundContext(
            prematch=result,
            old_households=old_households,
            new_households=new_households,
            config=config,
            record_mapping=record_mapping,
            group_index=visit.group_index,
            delta=delta,
            round_index=round_index,
            kernel=visit.kernel,
            instrumentation=instrumentation,
            round_timer=round_timer,
        )
    )
    return outcome.selection, outcome.candidate_units, result


def match_shard_remaining(
    shard: Shard,
    visit: ShardVisit,
    sim_func_rem,
    blocker,
    config: LinkageConfig,
    group_mapping: GroupMapping,
    instrumentation: Instrumentation,
) -> RecordMapping:
    """The attribute-only pass over one shard's leftover records
    (Alg. 1 lines 17-19); merges the induced group links into
    ``group_mapping``."""
    remaining_old = [visit.old.records[i] for i in shard.remaining_old_ids]
    remaining_new = [visit.new.records[i] for i in shard.remaining_new_ids]
    # Sim_func_rem shares agg_sim with Sim_func when the weights (and
    # missing policy) are identical, so the cache, the pruning engine
    # and the kernel carry over.  Custom remaining weights make the
    # scores incomparable: the pass gets a private store, engine and
    # kernel, encoded over just the leftover records — the only ones it
    # can pair.
    if config.remaining_weights is None:
        cache = shard.cache
        candidate_filter = shard.candidate_filter
        kernel = visit.kernel
    else:
        cache = None
        candidate_filter = config.build_candidate_filter(sim_func_rem)
        with instrumentation.stage("kernel_encoding"):
            kernel = config.build_scoring_kernel(
                sim_func_rem,
                remaining_old,
                remaining_new,
                candidate_filter=candidate_filter,
            )
    with instrumentation.stage("remaining"):
        mapping = match_remaining(
            remaining_old,
            remaining_new,
            sim_func_rem,
            blocker,
            config.year_gap,
            config.max_normalised_age_difference,
            config.remaining_ambiguity_margin,
            cached_scores=cache,
            n_workers=config.n_workers,
            chunk_size=config.worker_chunk_size,
            instrumentation=instrumentation,
            candidate_filter=candidate_filter,
            kernel=kernel,
        )
    group_mapping.update(
        induced_group_mapping(
            mapping, household_of_map(visit.old), household_of_map(visit.new)
        )
    )
    return mapping


# -- the driver --------------------------------------------------------------


def run_linkage(
    old,
    new,
    config: LinkageConfig,
    build_shards: Callable[
        [object, Instrumentation], Tuple[List[Shard], str]
    ],
    checkpoint_dir: Optional[Union[str, Path, CheckpointStore]] = None,
    resume: bool = False,
    keep_cache: bool = False,
) -> LinkageResult:
    """Run Algorithm 1 over the shards ``build_shards`` returns.

    ``old``/``new`` are the two snapshots, as :class:`CensusDataset`
    objects or record sources (anything with ``year`` and
    ``iter_records()``).  The driver reads them only to fingerprint the
    input for checkpoints and, when validating, to check the full
    result.  ``build_shards(blocker, instrumentation)`` returns the
    run's shards and the fingerprint of their plan (``""`` for one
    resident shard); it is not called when resume finds a completed
    run.

    Rounds run in lockstep: every shard finishes round r before any
    starts round r+1, and the stopping rule (Alg. 1 line 16) and the
    exhausted-frontier break are evaluated over the merged round.

    With ``checkpoint_dir`` set, a round whose index is a multiple of
    ``config.checkpoint_every`` writes a :class:`RunState` after each
    shard merge but the last, then a round state; the stopping round and
    the final state are always written.  ``resume=True`` continues from
    the newest loadable state at its round or shard boundary; a state
    recorded under another configuration, input or shard plan is
    rejected with :class:`CheckpointMismatch`.
    """
    instrumentation = Instrumentation()
    store = coerce_store(checkpoint_dir)
    if resume and store is None:
        raise ValueError("resume=True requires a checkpoint directory")
    config_fp = config.fingerprint() if store is not None else ""
    data_fp = dataset_fingerprint(old, new) if store is not None else ""
    resumed: Optional[RunState] = None
    if resume:
        resumed = store.load_latest(instrumentation=instrumentation)
    if resumed is not None:
        _check_recorded(
            "configuration", resumed.config_fingerprint, config_fp
        )
        _check_recorded("input data", resumed.data_fingerprint, data_fp)
        if resumed.phase == PHASE_FINAL:
            # The run already completed (and, when configured, was
            # validated — the final snapshot is written only after
            # validation passes): reconstruct the result outright.
            return _reconstruct_final(resumed, instrumentation)

    validating = config.validate
    if validating:
        # Imported lazily: core must stay importable without the
        # validation package, and the checks cost nothing when off.
        from ..validation.invariants import (
            validate_result,
            validate_selection,
        )

    blocker = config.build_blocker()
    shards, plan_fp = build_shards(blocker, instrumentation)
    exported = (
        shards[0] if config.checkpoint_cache and shards[0].resident else None
    )
    if store is not None and exported is not None:
        # Journalled exports: rows are serialized as they are pinned or
        # bounded, so checkpoints don't rebuild the whole cache document.
        exported.cache.enable_export_journal()
    # The group-matching slot (§3.3–§3.4) is pluggable: the paper's
    # subgraph engine is the "default" registered backend, selected like
    # any alternative via config.group_backend (see repro.core.backends).
    backend = get_backend(config.group_backend)

    provenance: Optional[Dict[Tuple[str, str], LinkOrigin]] = (
        {} if validating else None
    )
    record_mapping = RecordMapping()
    group_mapping = GroupMapping()
    iterations: List[IterationStats] = []
    schedule = list(config.threshold_schedule())
    resumed_round = 0
    rounds_finished = False
    # The interrupted round's partial statistics, and its first shard
    # still to visit, when resuming mid-round.
    in_flight: Optional[Dict[str, object]] = None
    first_shard = 0
    if resumed is not None:
        _check_recorded("shard plan", resumed.plan_fingerprint, plan_fp)
        record_mapping, group_mapping, iterations, restored = _restore(
            resumed, instrumentation
        )
        if provenance is not None and restored is not None:
            provenance.update(restored)
        if resumed.cache is not None:
            shards[0].cache = SimilarityCache.from_export(
                resumed.cache,
                max_lazy_entries=config.max_lazy_cache_entries or None,
            )
        rounds_finished = resumed.rounds_finished
        resumed_round = resumed.round_index
        if resumed.mid_round:
            resumed_round -= 1
            in_flight = resumed.round_accum
            first_shard = resumed.shards_done
        # The frontier is recomputed by filtering against the restored
        # mapping — identical to the incremental filtering of the
        # original rounds, since both keep sorted-id order.
        for shard in shards:
            _advance_frontier(shard, record_mapping)

    def capture(
        phase: str,
        round_index: int,
        delta: Optional[float],
        shards_done: int,
        round_accum: Optional[Dict[str, object]] = None,
        subgraph_links: Optional[int] = None,
        remaining_links: Optional[int] = None,
    ) -> RunState:
        # Canonical form (sorted mapping rows, plain-dict ledgers,
        # sorted provenance rows): the checkpoint bytes are
        # deterministic for a given run prefix.
        return RunState(
            round_index=round_index,
            phase=phase,
            delta=delta,
            schedule=tuple(schedule),
            rounds_finished=rounds_finished,
            record_pairs=record_mapping.as_jsonable(),
            group_pairs=group_mapping.as_jsonable(),
            iterations=[dataclasses.asdict(stats) for stats in iterations],
            provenance=_provenance_rows(provenance),
            counters=dict(instrumentation.counters),
            cache=None if exported is None else exported.cache.export_state(),
            config_fingerprint=config_fp,
            data_fingerprint=data_fp,
            subgraph_record_links=subgraph_links,
            remaining_record_links=remaining_links,
            shards_total=len(shards),
            shards_done=shards_done,
            round_accum=round_accum,
            plan_fingerprint=plan_fp,
        )

    for round_index, delta in enumerate(schedule, start=1):
        if round_index <= resumed_round:
            continue  # already completed before the interruption
        if rounds_finished:
            break  # the interrupted run had already stopped the loop
        # The round's IterationStats fields summed over its shards.
        accum: Dict[str, object] = dict(
            candidate_subgraphs=0,
            accepted_group_links=0,
            new_record_links=0,
            pairs_scored=0,
            cache_hits=0,
            cache_misses=0,
            seconds=0.0,
        )
        start = 0
        if in_flight is not None:
            accum.update(in_flight)
            start, in_flight = first_shard, None
        elif not any(s.remaining_old_ids for s in shards) or not any(
            s.remaining_new_ids for s in shards
        ):
            break
        round_timer = Instrumentation()
        sim_func = config.build_sim_func(delta)
        checkpointing = (
            store is not None and round_index % config.checkpoint_every == 0
        )
        for position in range(start, len(shards)):
            shard = shards[position]
            start_scored = instrumentation.value(PAIRS_SCORED)
            start_hits = shard.cache.hits
            start_misses = shard.cache.misses
            if shard.remaining_old_ids and shard.remaining_new_ids:
                selection, candidate_units, prematch = shard.match_round(
                    sim_func, blocker, config, backend, record_mapping,
                    delta, round_index, instrumentation, round_timer,
                )
                if validating:
                    # Check the selection against the Alg. 2 contracts
                    # *before* merging its links; a violation aborts.
                    with instrumentation.stage("validation"):
                        validate_selection(
                            selection,
                            record_mapping,
                            prematch,
                            delta,
                            config,
                            instrumentation=instrumentation,
                        ).raise_if_failed()
                partial_records = selection.extract_record_mapping()
                record_mapping.update(partial_records)
                group_mapping.update(selection.group_mapping)
                if provenance is not None:
                    for pair in partial_records:
                        provenance[pair] = LinkOrigin(
                            "subgraph", round_index, delta
                        )
                _advance_frontier(shard, record_mapping)
                accum["candidate_subgraphs"] += candidate_units
                accum["accepted_group_links"] += len(selection.group_mapping)
                accum["new_record_links"] += len(partial_records)
            accum["pairs_scored"] += (
                instrumentation.value(PAIRS_SCORED) - start_scored
            )
            accum["cache_hits"] += shard.cache.hits - start_hits
            accum["cache_misses"] += shard.cache.misses - start_misses
            if checkpointing and position < len(shards) - 1:
                store.write_state(
                    capture(
                        PHASE_ROUND,
                        round_index,
                        delta,
                        shards_done=position + 1,
                        round_accum=dict(
                            accum,
                            seconds=accum["seconds"]
                            + round_timer.seconds("round"),
                        ),
                    ),
                    instrumentation=instrumentation,
                )

        accum["seconds"] += round_timer.seconds("round")
        iterations.append(
            IterationStats(
                iteration=round_index,
                delta=delta,
                remaining_old=sum(len(s.remaining_old_ids) for s in shards),
                remaining_new=sum(len(s.remaining_new_ids) for s in shards),
                **accum,
            )
        )
        # The stopping rule over the merged round (Alg. 1 line 16) — the
        # lockstep heart of the sharded identity argument.
        rounds_finished = bool(
            not accum["accepted_group_links"] and config.stop_on_empty_round
        )
        if store is not None and (checkpointing or rounds_finished):
            store.write_state(
                capture(PHASE_ROUND, round_index, delta, len(shards)),
                instrumentation=instrumentation,
            )
        if rounds_finished:
            break
    rounds_finished = True  # as the final state records

    subgraph_links = len(record_mapping)
    sim_func_rem = config.build_remaining_sim_func()
    remaining_links = 0
    for shard in shards:
        remaining_mapping = shard.match_remaining(
            sim_func_rem, blocker, config, group_mapping, instrumentation
        )
        record_mapping.update(remaining_mapping)
        remaining_links += len(remaining_mapping)
        if provenance is not None:
            for pair in remaining_mapping:
                provenance[pair] = LinkOrigin(
                    "remaining", None, config.remaining_threshold
                )

    for name, attribute in (
        (CACHE_HITS, "hits"),
        (CACHE_MISSES, "misses"),
        (CACHE_EVICTIONS, "evictions"),
    ):
        instrumentation.set_counter(
            name, sum(getattr(shard.cache, attribute) for shard in shards)
        )

    result = LinkageResult(
        record_mapping=record_mapping,
        group_mapping=group_mapping,
        iterations=iterations,
        remaining_record_links=remaining_links,
        subgraph_record_links=subgraph_links,
        profile=instrumentation,
        provenance=provenance,
        cache=shards[0].cache if keep_cache else None,
    )
    if validating:
        # Full-result pass over the invariant registry (Eq. 1/2, δ
        # schedule, witness and threshold checks).  It needs resident
        # datasets: streamed sources are materialized once, after all
        # shard work is done.
        with instrumentation.stage("validation"):
            validate_result(
                result,
                _resident_dataset(old),
                _resident_dataset(new),
                config,
                instrumentation=instrumentation,
            ).raise_if_failed()
    if store is not None:
        # Written only after validation passed, so a final snapshot
        # certifies a complete validated run; resuming from it is a
        # pure reconstruction (see _reconstruct_final).
        store.write_state(
            capture(
                PHASE_FINAL,
                iterations[-1].iteration if iterations else 0,
                iterations[-1].delta if iterations else None,
                len(shards),
                subgraph_links=subgraph_links,
                remaining_links=remaining_links,
            ),
            instrumentation=instrumentation,
        )
    return result


def _advance_frontier(shard: Shard, record_mapping: RecordMapping) -> None:
    """Drop the shard's records that ``record_mapping`` has linked."""
    shard.remaining_old_ids = [
        record_id
        for record_id in shard.remaining_old_ids
        if not record_mapping.contains_old(record_id)
    ]
    shard.remaining_new_ids = [
        record_id
        for record_id in shard.remaining_new_ids
        if not record_mapping.contains_new(record_id)
    ]


def _check_recorded(what: str, recorded: str, current: str) -> None:
    if recorded != current:
        raise CheckpointMismatch(
            f"checkpoint was recorded for {what} {recorded}, current "
            f"{what} is {current}"
        )


def _resident_dataset(snapshot) -> CensusDataset:
    if isinstance(snapshot, CensusDataset):
        return snapshot
    return CensusDataset.from_records(
        snapshot.year, list(snapshot.iter_records())
    )


def _provenance_rows(
    provenance: Optional[Dict[Tuple[str, str], LinkOrigin]],
) -> Optional[List[List[object]]]:
    """Provenance table as canonical sorted JSON-safe rows."""
    if provenance is None:
        return None
    return [
        [old_id, new_id, origin.source, origin.round, origin.threshold]
        for (old_id, new_id), origin in sorted(provenance.items())
    ]


def _provenance_from_rows(
    rows: List[List[object]],
) -> Dict[Tuple[str, str], LinkOrigin]:
    """Inverse of :func:`_provenance_rows`."""
    return {
        (old_id, new_id): LinkOrigin(source, round_index, threshold)
        for old_id, new_id, source, round_index, threshold in rows
    }


def _restore(state: RunState, instrumentation: Instrumentation):
    """A state's decisions — ``(record mapping, group mapping,
    iterations, provenance or None)`` — with its counters restored into
    ``instrumentation``.  The ``checkpoint_*`` counters stay
    per-process: they meter this run's own I/O, not the interrupted
    run's."""
    for name, value in state.counters.items():
        if name not in META_COUNTERS:
            instrumentation.set_counter(name, value)
    return (
        RecordMapping(tuple(pair) for pair in state.record_pairs),
        GroupMapping(tuple(pair) for pair in state.group_pairs),
        [IterationStats(**stats) for stats in state.iterations],
        None
        if state.provenance is None
        else _provenance_from_rows(state.provenance),
    )


def _reconstruct_final(
    state: RunState, instrumentation: Instrumentation
) -> LinkageResult:
    """Rebuild a completed run's :class:`LinkageResult` from its final
    checkpoint without recomputing anything.  Counters are restored
    wholesale, so the reconstructed result's ledger hashes equal the
    uninterrupted run's."""
    record_mapping, group_mapping, iterations, provenance = _restore(
        state, instrumentation
    )
    return LinkageResult(
        record_mapping=record_mapping,
        group_mapping=group_mapping,
        iterations=iterations,
        remaining_record_links=state.remaining_record_links or 0,
        subgraph_record_links=state.subgraph_record_links or 0,
        profile=instrumentation,
        provenance=provenance,
    )


# -- entry points ------------------------------------------------------------


class IterativeGroupLinkage:
    """Temporal record and group linkage between two census snapshots.

    Usage::

        linker = IterativeGroupLinkage(LinkageConfig())
        result = linker.link(census_1871, census_1881)
        result.record_mapping   # 1:1 person links
        result.group_mapping    # N:M household links
        print(result.profile.report())  # stage timers + counters
    """

    def __init__(self, config: Optional[LinkageConfig] = None) -> None:
        self.config = config or LinkageConfig()

    def link(
        self,
        old_dataset: CensusDataset,
        new_dataset: CensusDataset,
        checkpoint_dir: Optional[Union[str, Path, CheckpointStore]] = None,
        resume: bool = False,
        cache_seed=None,
        keep_cache: bool = False,
    ) -> LinkageResult:
        """Run Algorithm 1 on two successive census datasets, held in
        memory as one resident shard (see :func:`run_linkage`).

        With ``checkpoint_dir`` set, a :class:`RunState` snapshot is
        atomically persisted after every ``config.checkpoint_every``-th
        δ round (always after a stopping round) and once more after the
        final remaining pass.  With ``resume=True`` the run continues
        from the newest loadable snapshot in that directory — producing
        byte-identical mappings, per-round ledgers and event counters to
        an uninterrupted run (``repro.checkpoint.ledger_hash``) when the
        cache is exported (``config.checkpoint_cache``).  A checkpoint
        recorded under a different configuration or different input
        data is rejected with :class:`CheckpointMismatch`.

        ``cache_seed`` (a :class:`repro.checkpoint.series.CacheSeed`)
        pre-populates the similarity cache with scores and bounds a
        previous run settled for unchanged records — the decisions are
        provably unaffected (see :meth:`SimilarityCache.seed`), only the
        re-scoring work is skipped.  ``keep_cache=True`` exposes the
        final cache on ``result.cache`` so the incremental series engine
        can persist it.
        """
        config = self.config

        def resident(blocker, instrumentation):
            shard = ResidentShard(
                old_dataset, new_dataset, config, instrumentation, cache_seed
            )
            return [shard], ""

        return run_linkage(
            old_dataset,
            new_dataset,
            config,
            resident,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            keep_cache=keep_cache,
        )


def link_datasets(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    checkpoint_dir: Optional[Union[str, Path, CheckpointStore]] = None,
    resume: bool = False,
    cache_seed=None,
    keep_cache: bool = False,
) -> LinkageResult:
    """Convenience wrapper: run Algorithm 1 on two datasets with the
    given (or default) configuration, optionally checkpointing round
    boundaries to ``checkpoint_dir`` and resuming from the newest
    snapshot there (``resume=True``).  ``cache_seed``/``keep_cache``
    feed the incremental series engine (see
    :meth:`IterativeGroupLinkage.link`).

    ``config.shards >= 1`` dispatches to the sharded out-of-core driver
    (:func:`repro.sharding.link_datasets_sharded`), which produces the
    same decisions shard by shard; ``cache_seed``/``keep_cache`` are
    in-RAM-only and rejected there.
    """
    if config is not None and config.shards > 0:
        if cache_seed is not None or keep_cache:
            raise ValueError(
                "cache_seed/keep_cache require the in-RAM pipeline; "
                "sharded runs (LinkageConfig.shards >= 1) rebuild caches "
                "per shard and cannot seed or export them"
            )
        from ..sharding.pipeline import link_datasets_sharded

        return link_datasets_sharded(
            old_dataset,
            new_dataset,
            config,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    return IterativeGroupLinkage(config).link(
        old_dataset,
        new_dataset,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        cache_seed=cache_seed,
        keep_cache=keep_cache,
    )
