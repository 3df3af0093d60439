"""Iterative record and group linkage — Algorithm 1 end to end.

:func:`run_linkage` is the one Alg. 1 driver.  It relaxes the
pre-matching threshold δ from ``δ_high`` down to ``δ_low`` so that safe
matches anchor the harder ones.  It visits the run's shards one after
another (shard-major): each visit takes one shard through the δ rounds —
pre-matching, the group backend (§3.3–§3.4), validation and the
frontier update — and records the shard's per-round links and
statistics in a :class:`ShardLedger`.  The stopping rule (Alg. 1 line
16) and the exhausted-frontier break read the merged rounds, so the
driver applies them to the ledgers after the last visit (the *deferred
stop*) and drops whatever a shard linked past that round.  The
remaining-record pass (lines 17-19) runs at the end of a shard's visit,
on each frontier the stop round could still leave that shard with.  The
driver also owns checkpoint writes and resume (:mod:`repro.checkpoint`).

A :class:`Shard` holds what survives between the rounds of a visit: its
similarity cache — with the blocked candidate pairs interned as its
:class:`~repro.core.pairtable.PairTable` — pruning engine and frontier
ids.  Its record-bearing structures — records, enriched households, the
:class:`GroupPairIndex` and the pair scorer — form a
:class:`ShardVisit`, which the entry point makes resident or streamed:

* :meth:`IterativeGroupLinkage.link` runs one :class:`ResidentShard`
  over both whole datasets, built once.  Enrichment, the index and the
  scorer (the kernel encoding) happen once per run, and one
  :class:`~repro.core.simcache.SimilarityCache` serves every round and
  the remaining pass, so candidate pairs are scored at most once across
  the whole δ schedule.
* :func:`repro.sharding.link_datasets_sharded` runs the planner's
  streamed shards.  Each is built from the record sources once per
  visit and released after it, so only one shard's records, cache and
  scorer are in memory at a time.

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
from .pairtable import PairTable
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
    ``group_index`` are built for δ rounds only.  ``scorer`` (see
    :meth:`LinkageConfig.build_scoring_kernel`) is set on every δ-round
    visit; it is ``None`` only on a remaining-pass visit with custom
    remaining weights, which builds its own.
    """

    old: CensusDataset
    new: CensusDataset
    scorer: Optional[object] = None
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
    scorer: bool = True,
) -> ShardVisit:
    """Enrich (Alg. 1 line 1), index and encode one shard's records.

    All three are δ-independent, so a resident shard builds them once
    for every round.  The pair scorer covers *all* the shard's records,
    so each round's shrinking frontier just gathers rows from the same
    tables (the kernel's encoded columns), and worker pools inherit it
    through their initializer; it replays the pruning engine's stages
    exactly.
    """
    households = group_index = None
    if groups:
        with instrumentation.stage("enrichment"):
            households = (complete_groups(old), complete_groups(new))
        group_index = GroupPairIndex(*households)
    pair_scorer = None
    if scorer:
        with instrumentation.stage("kernel_encoding"):
            pair_scorer = config.build_scoring_kernel(
                config.build_sim_func(),
                list(old.iter_records()),
                list(new.iter_records()),
                candidate_filter=candidate_filter,
            )
    return ShardVisit(old, new, pair_scorer, households, group_index)


class Shard:
    """One shard's state across the δ rounds of a visit.

    Everything here is id- or score-keyed.  The similarity cache keeps
    each score in one home: its pair table's arrays for the shard's
    blocked candidate pairs, a bounded LRU for any other pair (see
    repro.core.simcache); the table is interned at the first round
    (:func:`intern_pairs`).  The pruning engine is δ-agnostic (δ is an
    argument of each evaluation) and its per-string length statistics
    warm up across rounds; ``None`` = off.  The frontier holds the
    shard's still unlinked record ids in sorted-id order, the order of
    its records.
    Subclasses supply the records: :meth:`match_round` and
    :meth:`match_remaining` visit them, and :meth:`release` ends a
    visit.
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
        self.config = config
        self.cache, self.candidate_filter = scoring_state(config)
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

    def release(self) -> None:
        """End a visit: the driver has folded the cache's tallies into
        the run's counters.  A resident shard keeps everything."""


def scoring_state(config: LinkageConfig):
    """A fresh similarity cache and pruning engine for one shard."""
    cache = SimilarityCache(
        max_lazy_entries=config.max_lazy_cache_entries or None
    )
    return cache, config.build_candidate_filter(config.build_sim_func())


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
        blocker,
        cache_seed=None,
    ) -> None:
        super().__init__(
            config, old_dataset.record_ids, new_dataset.record_ids
        )
        if cache_seed is not None:
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
        # Blocked up front: seeded (and resumed) scores and bounds are
        # imported into the table's arrays, so they need the table.
        intern_pairs(self, self.visit, blocker, instrumentation)
        if cache_seed is not None:
            self.cache.seed(cache_seed)

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


def intern_pairs(
    shard: Shard, visit: ShardVisit, blocker, instrumentation
) -> None:
    """Block the visit's records and attach the pairs to the shard's
    cache as its pair table, unless an earlier round did.  The visit's
    scorer must be built over the same rows, which pre-matching and the
    remaining pass check."""
    if shard.cache.table is not None:
        return
    # Candidate pairs and their scores are δ-independent: block and
    # intern once, then re-test the cached scores against every later
    # round's δ.
    with instrumentation.stage("blocking"):
        table = PairTable(
            visit.old.record_ids,
            visit.new.record_ids,
            blocker.candidate_pairs(
                list(visit.old.iter_records()),
                list(visit.new.iter_records()),
            ),
        )
    shard.cache.attach(table)


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
    intern_pairs(shard, visit, blocker, instrumentation)
    with round_timer.stage("round"), instrumentation.stage("prematching"):
        result = prematch(
            remaining_old,
            remaining_new,
            sim_func,
            blocker,
            cached_scores=shard.cache,
            clustering=config.clustering,
            n_workers=config.n_workers,
            chunk_size=config.worker_chunk_size,
            instrumentation=instrumentation,
            candidate_filter=shard.candidate_filter,
            scorer=visit.scorer,
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
    # and the scorer carry over.  Custom remaining weights make the
    # scores incomparable: the pass gets a private cache, engine and
    # scorer, built over just the leftover records — the only ones it
    # can pair.
    if config.remaining_weights is None:
        cache = shard.cache
        candidate_filter = shard.candidate_filter
        scorer = visit.scorer
    else:
        cache = None
        candidate_filter = config.build_candidate_filter(sim_func_rem)
        with instrumentation.stage("kernel_encoding"):
            scorer = config.build_scoring_kernel(
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
            scorer=scorer,
        )
    group_mapping.update(
        induced_group_mapping(
            mapping, household_of_map(visit.old), household_of_map(visit.new)
        )
    )
    return mapping


# -- shard ledgers ------------------------------------------------------------

#: A record or group link, ``(old_id, new_id)``.
Pair = Tuple[str, str]

#: :class:`IterationStats` fields a merged round sums over its shards.
_SUMMED_FIELDS = (
    "candidate_subgraphs",
    "accepted_group_links",
    "new_record_links",
    "pairs_scored",
    "cache_hits",
    "cache_misses",
    "seconds",
)

#: Keys of the record and group links in a ledger's checkpoint form.
_LINK_KINDS = ("record_pairs", "group_pairs")


class RoundPart(NamedTuple):
    """One shard's share of one δ round: its :class:`IterationStats`
    part, whose frontier sizes are the shard's own, and the record and
    group links the round accepted, as sorted pairs."""

    stats: IterationStats
    record_pairs: List[Pair]
    group_pairs: List[Pair]


class RemainingPart(NamedTuple):
    """One shard's remaining pass (Alg. 1 lines 17-19) on its frontier
    after round ``after_round``: the record links and the group links
    they induce, as sorted pairs."""

    after_round: int
    record_pairs: List[Pair]
    group_pairs: List[Pair]


@dataclass
class ShardLedger:
    """One shard's decisions round by round, kept until the run's stop
    round is known (see :func:`run_linkage`)."""

    #: Frontier sizes ``(old, new)`` before round 1.
    initial: Tuple[int, int]
    #: The rounds the shard ran, in order.  A shard whose frontier lost
    #: a side stops early and counts as empty in every later round.
    rounds: List[RoundPart] = field(default_factory=list)
    #: The shard's remaining passes, one per frontier the stop round
    #: could leave it with (empty while outstanding).
    remaining: List[RemainingPart] = field(default_factory=list)

    def frontier(self, round_index: int) -> Tuple[int, int]:
        """Frontier sizes after ``round_index`` (0: before round 1)."""
        ran = min(round_index, len(self.rounds))
        if ran == 0:
            return self.initial
        stats = self.rounds[ran - 1].stats
        return stats.remaining_old, stats.remaining_new

    def accepted(self, round_index: int) -> int:
        """Group links the shard accepted in ``round_index``."""
        if 0 < round_index <= len(self.rounds):
            return self.rounds[round_index - 1].stats.accepted_group_links
        return 0

    def linked(self, first_round: int = 1) -> List[Pair]:
        """Record links of the rounds from ``first_round`` on."""
        return [
            pair
            for part in self.rounds[first_round - 1:]
            for pair in part.record_pairs
        ]

    def remaining_at(self, stop_round: int) -> RemainingPart:
        """The remaining pass on the frontier the stop round leaves."""
        frontier = self.frontier(stop_round)
        return next(
            part for part in self.remaining
            if self.frontier(part.after_round) == frontier
        )

    def as_jsonable(self) -> Dict[str, object]:
        """Checkpoint form: one ``RunState.shard_parts`` entry."""
        return {
            "rounds": [
                dict(dataclasses.asdict(part.stats), **_links_jsonable(part))
                for part in self.rounds
            ],
            "remaining": [
                dict(after_round=part.after_round, **_links_jsonable(part))
                for part in self.remaining
            ],
        }

    def restore(self, document: Dict[str, object]) -> None:
        """Load the rounds and remaining passes of :meth:`as_jsonable`."""
        self.rounds = []
        for entry in document["rounds"]:
            stats = dict(entry)
            links = [
                [tuple(pair) for pair in stats.pop(name)]
                for name in _LINK_KINDS
            ]
            self.rounds.append(RoundPart(IterationStats(**stats), *links))
        self.remaining = [
            RemainingPart(
                entry["after_round"],
                *([tuple(pair) for pair in entry[name]] for name in _LINK_KINDS),
            )
            for entry in document["remaining"]
        ]


def _links_jsonable(part) -> Dict[str, List[List[str]]]:
    """A part's record and group links as JSON-safe rows."""
    return {
        name: [list(pair) for pair in getattr(part, name)]
        for name in _LINK_KINDS
    }


def _empty_round(ledgers: Sequence[ShardLedger], round_index: int) -> bool:
    """No shard of ``ledgers`` accepted a group link in the round."""
    return not any(ledger.accepted(round_index) for ledger in ledgers)


def _may_stop(
    ledgers: Sequence[ShardLedger],
    round_index: int,
    rounds_total: int,
    stop_on_empty: bool,
) -> bool:
    """Whether the δ loop over the merged rounds of ``ledgers`` may end
    after ``round_index`` (0: before round 1): the schedule is spent,
    the frontier has lost a side on every shard (the exhausted-frontier
    break), or — under ``stop_on_empty_round`` — no shard accepted a
    group link in that round (Alg. 1 line 16).

    Over every shard of the run this is the stopping rule itself.  Over
    a subset it holds wherever the rule does, so the run's stop round is
    one of the rounds it admits."""
    if round_index >= rounds_total:
        return True
    sizes = [ledger.frontier(round_index) for ledger in ledgers]
    if not any(old for old, _ in sizes) or not any(new for _, new in sizes):
        return True
    return stop_on_empty and round_index > 0 and _empty_round(
        ledgers, round_index
    )


def _stop_rounds(
    ledgers: Sequence[ShardLedger], rounds_total: int, stop_on_empty: bool
) -> List[int]:
    """The rounds :func:`_may_stop` admits over ``ledgers``, ascending;
    over every shard of the run the first is the stop round."""
    return [
        round_index
        for round_index in range(rounds_total + 1)
        if _may_stop(ledgers, round_index, rounds_total, stop_on_empty)
    ]


def _merged_round(
    ledgers: Sequence[ShardLedger], round_index: int, delta: float
) -> IterationStats:
    """One δ round's :class:`IterationStats`, summed over the shards."""
    stats = IterationStats(
        iteration=round_index,
        delta=delta,
        candidate_subgraphs=0,
        accepted_group_links=0,
        new_record_links=0,
        remaining_old=0,
        remaining_new=0,
    )
    for ledger in ledgers:
        if round_index <= len(ledger.rounds):
            part = ledger.rounds[round_index - 1].stats
            for name in _SUMMED_FIELDS:
                setattr(stats, name, getattr(stats, name) + getattr(part, name))
        old, new = ledger.frontier(round_index)
        stats.remaining_old += old
        stats.remaining_new += new
    return stats


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

    Shards are visited one after another.  A visit runs its shard
    through the δ schedule and records every round in the shard's
    :class:`ShardLedger`.  Shards never share a candidate pair, a
    household or a conflict set, so only the stopping rule (Alg. 1 line
    16) and the exhausted-frontier break read across shards, and both
    read the merged round: the stop round R is a function of the
    ledgers.  The driver applies it after the last visit and drops every
    round a shard ran past R.  Until then R can only be a round the
    shards visited so far admit (:func:`_may_stop`), so a visit ends
    with the shard's remaining pass (lines 17-19) on each frontier those
    rounds could leave it with — one pass once R is settled, which on
    most inputs is after the first shard — and the pass R selects is
    kept.  Every shard is thus built once.  Shards with an empty side
    need no visit.  The last shard with work — and so a lone resident
    shard — knows every other shard and stops at R itself.

    With ``checkpoint_dir`` set, a round whose index is a multiple of
    ``config.checkpoint_every`` writes a :class:`RunState`, as do the
    round the merged stopping rule ends the loop at and the end of each
    visit before the last shard with work; the final state is always
    written.  ``resume=True`` continues from the newest loadable state:
    finished shards come back from their ledgers, and the shard in
    flight re-enters after its last recorded round.  A state recorded
    under another configuration, input or shard plan is rejected with
    :class:`CheckpointMismatch`.
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
    # The group-matching slot (§3.3–§3.4) is pluggable: the paper's
    # subgraph engine is the "default" registered backend, selected like
    # any alternative via config.group_backend (see repro.core.backends).
    backend = get_backend(config.group_backend)

    schedule = list(config.threshold_schedule())
    sim_funcs = [config.build_sim_func(delta) for delta in schedule]
    sim_func_rem = config.build_remaining_sim_func()
    stop_on_empty = config.stop_on_empty_round
    ledgers = [
        ShardLedger((len(shard.remaining_old_ids), len(shard.remaining_new_ids)))
        for shard in shards
    ]
    # A shard with an empty side pairs nothing: it needs no visit and is
    # known — empty in every round — from the start.
    idle = [not all(ledger.initial) for ledger in ledgers]
    last_busy = max(
        (position for position, flag in enumerate(idle) if not flag),
        default=-1,
    )
    first_shard = 0
    if resumed is not None:
        _check_recorded("shard plan", resumed.plan_fingerprint, plan_fp)
        _restore_counters(resumed, instrumentation)
        if resumed.cache is not None:
            shards[0].cache = SimilarityCache.from_export(
                resumed.cache,
                resumed.cache_entries,
                resumed.cache_lazy,
                table=shards[0].cache.table,
                max_lazy_entries=config.max_lazy_cache_entries or None,
            )
        for shard, ledger, document in zip(
            shards, ledgers, resumed.shard_parts
        ):
            ledger.restore(document)
            # Filtering against the restored links keeps sorted-id
            # order, as the incremental filtering of the original rounds.
            _advance_frontier(shard, RecordMapping(ledger.linked()))
        first_shard = resumed.shards_done

    def write_state(
        phase: str,
        shards_done: int,
        round_index: int,
        rounds_finished: bool = False,
        **fields,
    ):
        # A round state also holds the ledger of the shard in flight.
        started = shards_done + (round_index > 0)
        store.write_state(
            RunState(
                round_index=round_index,
                phase=phase,
                rounds_finished=rounds_finished,
                delta=schedule[round_index - 1] if round_index else None,
                schedule=tuple(schedule),
                counters=dict(instrumentation.counters),
                # The final state holds no cache: resuming from it is
                # pure reconstruction (_reconstruct_final).
                cache=(
                    None if exported is None or phase == PHASE_FINAL
                    else exported.cache.export_state()
                ),
                config_fingerprint=config_fp,
                data_fingerprint=data_fp,
                shards_total=len(shards),
                shards_done=shards_done,
                shard_parts=(
                    [] if phase == PHASE_FINAL
                    else [ledger.as_jsonable() for ledger in ledgers[:started]]
                ),
                plan_fingerprint=plan_fp,
                **fields,
            ),
            instrumentation=instrumentation,
        )

    def shard_round(
        shard: Shard, local: RecordMapping, round_index: int
    ) -> RoundPart:
        """One δ round of one shard; ``local`` holds its earlier links."""
        delta = schedule[round_index - 1]
        round_timer = Instrumentation()
        start_scored = instrumentation.value(PAIRS_SCORED)
        start_hits, start_misses = shard.cache.hits, shard.cache.misses
        selection, candidate_units, prematch = shard.match_round(
            sim_funcs[round_index - 1], blocker, config, backend, local,
            delta, round_index, instrumentation, round_timer,
        )
        if validating:
            # Check the selection against the Alg. 2 contracts *before*
            # merging its links; a violation aborts.
            with instrumentation.stage("validation"):
                validate_selection(
                    selection,
                    local,
                    prematch,
                    delta,
                    config,
                    instrumentation=instrumentation,
                ).raise_if_failed()
        # The pre-match result holds the round's frontier records and
        # score views: release them before the next round.
        del prematch
        records = selection.extract_record_mapping()
        local.update(records)
        _advance_frontier(shard, local)
        return RoundPart(
            IterationStats(
                iteration=round_index,
                delta=delta,
                candidate_subgraphs=candidate_units,
                accepted_group_links=len(selection.group_mapping),
                new_record_links=len(records),
                remaining_old=len(shard.remaining_old_ids),
                remaining_new=len(shard.remaining_new_ids),
                pairs_scored=instrumentation.value(PAIRS_SCORED)
                - start_scored,
                cache_hits=shard.cache.hits - start_hits,
                cache_misses=shard.cache.misses - start_misses,
                seconds=round_timer.seconds("round"),
            ),
            records.pairs(),
            selection.group_mapping.pairs(),
        )

    def finish_visit(shard: Shard, ledger: ShardLedger, stops: List[int]):
        """End a visit: run the shard's remaining pass on each frontier
        the stop rounds ``stops`` could leave it with, then release the
        shard once its cache tallies are in the run's counters."""
        final = shard.remaining_old_ids, shard.remaining_new_ids
        passes = {ledger.frontier(after): after for after in stops}
        for after_round in sorted(passes.values(), reverse=True):
            shard.remaining_old_ids, shard.remaining_new_ids = final
            _rewind_frontier(shard, ledger.linked(after_round + 1))
            groups = GroupMapping()
            mapping = shard.match_remaining(
                sim_func_rem, blocker, config, groups, instrumentation
            )
            ledger.remaining.append(
                RemainingPart(after_round, mapping.pairs(), groups.pairs())
            )
        for name, attribute in (
            (CACHE_HITS, "hits"),
            (CACHE_MISSES, "misses"),
            (CACHE_EVICTIONS, "evictions"),
        ):
            instrumentation.count(name, getattr(shard.cache, attribute))
        shard.release()

    for position in range(first_shard, len(shards)):
        shard, ledger = shards[position], ledgers[position]
        known = [
            other
            for other_position, other in enumerate(ledgers)
            if other_position <= position or idle[other_position]
        ]
        exact = position == last_busy
        local = RecordMapping(ledger.linked())
        while (
            len(ledger.rounds) < len(schedule)
            and shard.remaining_old_ids
            and shard.remaining_new_ids
            and not (
                exact and _may_stop(
                    known, len(ledger.rounds), len(schedule), stop_on_empty
                )
            )
        ):
            round_index = len(ledger.rounds) + 1
            ledger.rounds.append(shard_round(shard, local, round_index))
            # The merged stopping rule (Alg. 1 line 16), decidable here
            # only once every other shard is known.
            stopping = bool(
                exact and stop_on_empty and _empty_round(known, round_index)
            )
            if store is not None and (
                round_index % config.checkpoint_every == 0 or stopping
            ):
                write_state(
                    PHASE_ROUND, position, round_index,
                    rounds_finished=stopping,
                )
        # The stop round is one of the rounds the known shards admit.
        # Where the shard's frontier is the same at all of them — always
        # once the stop round is settled — one remaining pass serves.
        finish_visit(
            shard, ledger, _stop_rounds(known, len(schedule), stop_on_empty)
        )
        if store is not None and not idle[position] and position < last_busy:
            write_state(PHASE_ROUND, position + 1, 0)

    # The deferred stopping rule, over the merged rounds of every shard:
    # rounds past it are dropped, and so are the remaining passes on
    # frontiers it does not leave.
    stop_round = _stop_rounds(ledgers, len(schedule), stop_on_empty)[0]

    provenance: Optional[Dict[Pair, LinkOrigin]] = (
        {} if validating else None
    )
    record_mapping = RecordMapping()
    group_mapping = GroupMapping()
    iterations: List[IterationStats] = []
    for round_index, delta in enumerate(schedule[:stop_round], start=1):
        iterations.append(_merged_round(ledgers, round_index, delta))
        origin = LinkOrigin("subgraph", round_index, delta)
        for ledger in ledgers:
            if round_index > len(ledger.rounds):
                continue
            part = ledger.rounds[round_index - 1]
            for pair in part.record_pairs:
                record_mapping.add(*pair)
                if provenance is not None:
                    provenance[pair] = origin
            for pair in part.group_pairs:
                group_mapping.add(*pair)
    subgraph_links = len(record_mapping)
    origin = LinkOrigin("remaining", None, config.remaining_threshold)
    remaining_links = 0
    for ledger in ledgers:
        _, record_pairs, group_pairs = ledger.remaining_at(stop_round)
        for pair in record_pairs:
            record_mapping.add(*pair)
            if provenance is not None:
                provenance[pair] = origin
        for pair in group_pairs:
            group_mapping.add(*pair)
        remaining_links += len(record_pairs)

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
        write_state(
            PHASE_FINAL,
            len(shards),
            stop_round,
            rounds_finished=True,
            record_pairs=record_mapping.as_jsonable(),
            group_pairs=group_mapping.as_jsonable(),
            iterations=[dataclasses.asdict(stats) for stats in iterations],
            provenance=_provenance_rows(provenance),
            subgraph_record_links=subgraph_links,
            remaining_record_links=remaining_links,
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


def _rewind_frontier(shard: Shard, pairs: Sequence[Pair]) -> None:
    """Return the records of dropped links to the shard's frontier, in
    sorted-id order."""
    shard.remaining_old_ids = sorted(
        shard.remaining_old_ids + [old_id for old_id, _ in pairs]
    )
    shard.remaining_new_ids = sorted(
        shard.remaining_new_ids + [new_id for _, new_id in pairs]
    )


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
    provenance: Optional[Dict[Pair, LinkOrigin]],
) -> Optional[List[List[object]]]:
    """Provenance table as canonical sorted JSON-safe rows."""
    if provenance is None:
        return None
    return [
        [old_id, new_id, origin.source, origin.round, origin.threshold]
        for (old_id, new_id), origin in sorted(provenance.items())
    ]


def _restore_counters(
    state: RunState, instrumentation: Instrumentation
) -> None:
    """Restore a state's counters into ``instrumentation``.  The
    ``checkpoint_*`` counters stay per-process: they meter this run's
    own I/O, not the interrupted run's."""
    for name, value in state.counters.items():
        if name not in META_COUNTERS:
            instrumentation.set_counter(name, value)


def _reconstruct_final(
    state: RunState, instrumentation: Instrumentation
) -> LinkageResult:
    """Rebuild a completed run's :class:`LinkageResult` from its final
    checkpoint without recomputing anything.  Counters are restored
    wholesale, so the reconstructed result's ledger hashes equal the
    uninterrupted run's."""
    _restore_counters(state, instrumentation)
    provenance = None
    if state.provenance is not None:
        provenance = {
            (old_id, new_id): LinkOrigin(source, round_index, threshold)
            for old_id, new_id, source, round_index, threshold
            in state.provenance
        }
    return LinkageResult(
        record_mapping=RecordMapping(
            tuple(pair) for pair in state.record_pairs
        ),
        group_mapping=GroupMapping(tuple(pair) for pair in state.group_pairs),
        iterations=[IterationStats(**stats) for stats in state.iterations],
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

        ``cache_seed`` (a :class:`repro.checkpoint.section.CacheSeed`)
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
                old_dataset, new_dataset, config, instrumentation, blocker,
                cache_seed,
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
