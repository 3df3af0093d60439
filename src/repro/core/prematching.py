"""Pre-matching: attribute-level clustering of records (Section 3.2).

Candidate record pairs (after blocking) are scored with ``Sim_func``;
pairs at or above the threshold δ become record links, and the connected
components of these links form clusters.  Every record — including
unmatched singletons — receives its cluster's label (Fig. 3).  Labels let
subgraph matching identify "similar records" without re-computing
similarities.

This is the pipeline's hot path: scores are δ-independent, so the
iterative schedule of Alg. 1 shares one
:class:`~repro.core.simcache.SimilarityCache` across all rounds, holding
the scores and bounds of the shard's blocked pairs in arrays aligned
with its :class:`~repro.core.pairtable.PairTable`.  A round selects its
candidates from that table with one frontier mask.  One resolver,
:func:`_filtered_bulk_scores`, settles the pair ids of a round (and of
the remaining pass) against the cache with masks, pruning on or off,
hands the rows of the rest to the run's pair scorer — the vectorized
kernel or the per-pair :class:`~repro.core.filtering.PairScorer` — on
worker processes when asked (:mod:`repro.core.parallel`), with results
joined deterministically, and returns the pair ids that reach δ.  The
round stays in the table's row space from there: the matched pair ids
are clustered over its rows (:func:`~repro.core.clustering.cluster_records`),
and the group stage reads the pair ids and the row labels as they are.
Pairs asked for lazily — the group stage's vertex pairs, by their rows
(:func:`_lazy_row_scores`), and pairs asked for by id, such as the
remaining pass's pairs beyond the table (:func:`_lazy_scores`) — get
exact scores, unpruned, stored in their pair's home in the cache.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..blocking.pairs import Blocker
from ..instrumentation import (
    CANDIDATE_PAIRS,
    FULL_AGG_SIM_CALLS,
    KERNEL_BATCHES,
    KERNEL_PAIRS,
    PAIRS_PRUNED_EARLY_EXIT,
    PAIRS_PRUNED_LENGTH,
    PAIRS_PRUNED_QGRAM,
    PAIRS_SCORED,
    Instrumentation,
)
from ..model.records import PersonRecord
from ..similarity.vector import SimilarityFunction
from .clustering import CONNECTED_COMPONENTS, cluster_records
from .filtering import (
    PRUNED_EARLY_EXIT,
    PRUNED_LENGTH,
    PRUNED_QGRAM,
    CandidateFilter,
    PairScorer,
)
from .pairtable import PairTable, numpy_or_none
from .parallel import DEFAULT_CHUNK_SIZE, score_pairs_chunked
from .simcache import SimilarityCache, _as_list

#: Pruning-kind -> instrumentation counter, for per-filter attribution.
_PRUNE_COUNTERS = {
    PRUNED_LENGTH: PAIRS_PRUNED_LENGTH,
    PRUNED_QGRAM: PAIRS_PRUNED_QGRAM,
    PRUNED_EARLY_EXIT: PAIRS_PRUNED_EARLY_EXIT,
}


def _count_scored(
    instrumentation: Instrumentation, scorer, evaluated: int, exact: int
) -> None:
    """Tally one bulk scoring call: ``exact`` full ``agg_sim`` results
    out of ``evaluated`` pairs handed to ``scorer`` (one kernel batch
    when the scorer is vectorized)."""
    instrumentation.count(PAIRS_SCORED, exact)
    instrumentation.count(FULL_AGG_SIM_CALLS, exact)
    if scorer.vectorized:
        instrumentation.count(KERNEL_BATCHES)
        instrumentation.count(KERNEL_PAIRS, evaluated)


@dataclass
class PreMatchResult:
    """Clusters, labels and pair similarities produced by pre-matching.

    The round's result lives in the row space of the cache's pair table
    (``scores.table``): :attr:`matched_pids` are the pair ids, ascending,
    of the candidates whose exact ``agg_sim`` reaches δ, and
    :attr:`row_labels` holds the cluster label of every old and every
    new row of the table (:func:`~repro.core.clustering.cluster_records`;
    -1 off the round's frontier).  The group stage reads both as they
    are.  Their id forms — :attr:`matched_pairs`, :attr:`labels`,
    :attr:`clusters` — are derived on first use, for the callers that
    work with ids.

    :attr:`scores` holds ``agg_sim`` for every exactly scored candidate
    pair (not only the matching ones); :meth:`pair_sim`,
    :meth:`pair_sims` and :meth:`row_sims` compute missing entries
    lazily so the group stage can always obtain the record similarity
    of a vertex pair.  A lazy score of a blocked pair is pinned; any
    other goes through the cache's bounded LRU, so long series runs
    cannot accumulate unbounded per-pair state.  ``scorer`` is the
    round's pair scorer, which the batches go through.
    """

    sim_func: SimilarityFunction
    old_index: Dict[str, PersonRecord]
    new_index: Dict[str, PersonRecord]
    scorer: object
    scores: SimilarityCache = field(default_factory=SimilarityCache)
    #: Pair ids of the table's matched pairs, ascending.
    matched_pids: object = ()
    #: The cluster label of each old and each new row of the table.
    row_labels: Tuple[object, object] = ((), ())
    #: Event-counter sink shared with the pipeline.
    instrumentation: Instrumentation = field(default_factory=Instrumentation)

    @cached_property
    def matched_pairs(self) -> List[Tuple[str, str]]:
        """The matched pairs as (old id, new id) tuples, sorted."""
        return self.scores.table.pairs(self.matched_pids)

    @cached_property
    def labels(self) -> Dict[str, int]:
        """Record id → cluster label, for every labelled record."""
        table = self.scores.table
        return {
            record_id: label
            for ids, side in zip((table.old_ids, table.new_ids), self.row_labels)
            for record_id, label in zip(ids, _as_list(side))
            if label >= 0
        }

    @cached_property
    def clusters(self) -> Dict[int, List[str]]:
        """Cluster label → member ids, sorted; labels ascending (a
        cluster's label follows its smallest member id)."""
        clusters: Dict[int, List[str]] = {}
        labels = self.labels
        for record_id in self.scores.table.nodes()[2]:
            label = labels.get(record_id)
            if label is not None:
                clusters.setdefault(label, []).append(record_id)
        return clusters

    @cached_property
    def _cluster_sizes(self) -> Counter:
        """Cluster label → the number of records carrying it."""
        return Counter(self.labels.values())

    def label_of(self, record_id: str) -> int:
        """The record's cluster label (Fig. 3)."""
        return self.labels[record_id]

    def cluster_of(self, record_id: str) -> List[str]:
        """All records carrying this record's cluster label (§3.2)."""
        return self.clusters[self.labels[record_id]]

    def cluster_size(self, record_id: str) -> int:
        """|label(r)| of Eq. 7: records carrying this record's label."""
        return self._cluster_sizes[self.labels[record_id]]

    def same_label(self, old_id: str, new_id: str) -> bool:
        """True when both records share a cluster label (Fig. 3)."""
        return self.labels.get(old_id) == self.labels.get(new_id)

    def pair_sim(self, old_id: str, new_id: str) -> float:
        """``agg_sim`` (Eq. 3) of a cross-dataset pair, computed lazily
        and memoised in :attr:`scores` when not already present."""
        key = (old_id, new_id)
        score = self.scores.get(key)
        if score is None:
            score = self.sim_func.agg_sim(self.old_index[old_id], self.new_index[new_id])
            self.scores[key] = score
            self.instrumentation.count(PAIRS_SCORED)
            self.instrumentation.count(FULL_AGG_SIM_CALLS)
        return score

    def pair_sims(
        self,
        pairs: Sequence[Tuple[str, str]],
        n_workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Dict[Tuple[str, str], float]:
        """:meth:`pair_sim` for many pairs, in one batch through
        :attr:`scorer` (:func:`_lazy_scores`)."""
        return _lazy_scores(
            pairs, self.scores, self.scorer, n_workers, chunk_size,
            self.instrumentation,
        )

    def row_sims(
        self,
        old_rows,
        new_rows,
        n_workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        """:meth:`pair_sims` for pairs given by their rows in the table,
        each pair at most once: their scores in order
        (:func:`_lazy_row_scores`)."""
        return _lazy_row_scores(
            old_rows, new_rows, self.scores, self.scorer, n_workers,
            chunk_size, self.instrumentation,
        )

    @property
    def num_clusters(self) -> int:
        return len(self._cluster_sizes)

    def multi_record_clusters(self) -> Dict[int, List[str]]:
        """Clusters containing more than one record (A–F of Fig. 3)."""
        return {
            label: members
            for label, members in self.clusters.items()
            if len(members) > 1
        }


def prematching(
    old_records: Sequence[PersonRecord],
    new_records: Sequence[PersonRecord],
    sim_func: SimilarityFunction,
    blocker: Blocker,
    cached_scores: Optional[SimilarityCache] = None,
    clustering: str = CONNECTED_COMPONENTS,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    instrumentation: Optional[Instrumentation] = None,
    candidate_filter: Optional[CandidateFilter] = None,
    scorer=None,
) -> PreMatchResult:
    """Cluster records of two datasets by attribute similarity (§3.2).

    ``cached_scores`` lets the iterative pipeline score each candidate
    pair exactly once across all δ rounds: scores do not depend on δ,
    only the cut-off does.  Its :class:`~repro.core.pairtable.PairTable`
    holds the blocked pairs, and this round's candidates are the pairs
    whose two records are both among the given ones (the frontier).  A
    cache without a table (or none) gets one, blocked over the given
    records.  Still-unscored pairs are bulk-scored by ``scorer`` — the
    run's pair scorer, built over the table's rows, or by default a
    :class:`~repro.core.filtering.PairScorer` over the given records —
    on ``n_workers`` processes when ``n_workers != 1``
    (:func:`repro.core.parallel.score_pairs_chunked`; output is
    identical to serial).  ``clustering`` selects the strategy of
    :mod:`repro.core.clustering` (the paper uses connected components).

    With an active ``candidate_filter`` (:mod:`repro.core.filtering`),
    unscored pairs first pass the pruning engine: a pair whose similarity
    upper bound already falls below this round's δ is rejected without
    the full ``agg_sim`` — losslessly, since such a pair could never
    enter ``matched_pairs``.  Pruning bounds are δ-independent, so they
    are remembered in the cache across rounds and only re-examined once
    the schedule's δ drops past them.  Either scorer gives bit-identical
    outcomes, and hence identical clusters and scores.
    """
    old_index = {record.record_id: record for record in old_records}
    new_index = {record.record_id: record for record in new_records}
    if instrumentation is None:
        instrumentation = Instrumentation()
    # Use the caller's store directly when given: scores computed lazily
    # during subgraph matching then persist across δ rounds.
    scores = cached_scores if cached_scores is not None else SimilarityCache()
    if scores.table is None:
        scores.attach(PairTable(
            sorted(old_index), sorted(new_index),
            blocker.candidate_pairs(list(old_records), list(new_records)),
        ))
    if scorer is None:
        by_id = attrgetter("record_id")
        scorer = PairScorer(
            sim_func,
            sorted(old_records, key=by_id),
            sorted(new_records, key=by_id),
            candidate_filter,
        )
    scores.table.check_scorer(scorer)

    table = scores.table
    frontier = table.frontier(old_index, new_index)
    if frontier[0].count(1) + frontier[1].count(1) < len(old_index) + len(new_index):
        raise ValueError(
            "every record to pre-match must be a record of the pair table"
        )
    candidates = table.select_rows(*frontier)
    instrumentation.count(CANDIDATE_PAIRS, len(candidates))
    pruning = candidate_filter is not None and candidate_filter.active
    with instrumentation.stage("filtering") if pruning else nullcontext():
        # A pruned pair's similarity is provably below δ, so restricting
        # the threshold test to exactly-scored pairs loses nothing.
        matched = _filtered_bulk_scores(
            candidates, scores, scorer, sim_func.threshold,
            candidate_filter, n_workers, chunk_size, instrumentation,
        )

    # Cluster the match links (transitive closure by default); unmatched
    # records are singleton clusters, as in Fig. 3.
    return PreMatchResult(
        sim_func=sim_func,
        old_index=old_index,
        new_index=new_index,
        scorer=scorer,
        scores=scores,
        matched_pids=matched,
        row_labels=cluster_records(
            table, frontier, matched, scores.values(matched), clustering
        ),
        instrumentation=instrumentation,
    )


def _filtered_bulk_scores(
    candidates,
    scores: SimilarityCache,
    scorer,
    delta: float,
    candidate_filter: Optional[CandidateFilter],
    n_workers: int,
    chunk_size: int,
    instrumentation: Instrumentation,
):
    """Resolve every candidate pair against δ; return the pair ids,
    ascending, whose exactly-known score reaches δ.  The one resolver of
    pre-matching and the remaining pass.

    ``candidates`` are pair ids of the cache's table (ascending).  Each
    lands in one of three buckets (:meth:`SimilarityCache.buckets`,
    masks over the pair ids):

    1. exact score already in the cache (earlier round, or a lazy
       lookup) — reuse it;
    2. with pruning on (an active ``candidate_filter``), a cached pruning
       bound still below δ − margin — the pair stays pruned without
       recomputing anything (counted under the filter that set the
       bound);
    3. everything else goes to ``scorer`` as row arrays in one
       :func:`repro.core.parallel.score_pairs_chunked` call: exact
       scores are pinned in the cache; with pruning on, rejects record
       their fresh bound for later rounds.
    """
    pruning = candidate_filter is not None and candidate_filter.active
    cutoff = delta - candidate_filter.margin if pruning else None
    buckets = scores.buckets(candidates, cutoff)
    if len(buckets.evaluate):
        outcome = score_pairs_chunked(
            scorer, *scores.table.rows(buckets.evaluate),
            delta if pruning else None,
            n_workers=n_workers, chunk_size=chunk_size,
        )
        # Plain agg_sim values, or (values, kind codes) when pruning.
        fresh = scores.store(buckets, *(outcome if pruning else (outcome,)))
        _count_scored(instrumentation, scorer, len(buckets.evaluate), fresh)

    for kind, counter in _PRUNE_COUNTERS.items():
        if buckets.pruned[kind]:
            instrumentation.count(counter, buckets.pruned[kind])
    return scores.reaching(candidates, delta)


def _lazy_scores(
    pairs: Sequence[Tuple[str, str]],
    scores: SimilarityCache,
    scorer,
    n_workers: int,
    chunk_size: int,
    instrumentation: Instrumentation,
) -> Dict[Tuple[str, str], float]:
    """The exact ``agg_sim`` of every pair (ids of the rows of the
    cache's table, blocked or not, each pair at most once), scoring
    those the cache lacks: :func:`_lazy_row_scores` over their rows."""
    values = _lazy_row_scores(
        *scores.table.rows_of(pairs), scores, scorer, n_workers,
        chunk_size, instrumentation,
    )
    return dict(zip(pairs, _as_list(values)))


def _lazy_row_scores(
    old_rows,
    new_rows,
    scores: SimilarityCache,
    scorer,
    n_workers: int,
    chunk_size: int,
    instrumentation: Instrumentation,
):
    """The exact ``agg_sim`` of every pair given by its rows in the
    cache's table (blocked or not, each pair at most once), scoring
    those the cache lacks: a float64 array in order, or a stdlib array
    without numpy.

    Each pair is looked up once (:meth:`SimilarityCache.get_rows`); the
    missing ones are scored in one
    :func:`~repro.core.parallel.score_pairs_chunked` call through
    ``scorer``, unpruned, in (old row, new row) order — sorted pair
    order, the lazy LRU's insertion (hence eviction) order — and stored
    in the cache (:meth:`SimilarityCache.add_rows`): pinned when
    blocked, in the lazy LRU otherwise.  They are counted as
    ``pairs_scored`` and ``full_agg_sim_calls``, plus
    ``kernel_batches`` / ``kernel_pairs`` when the scorer is the
    vectorized kernel.
    """
    np = numpy_or_none()
    if np is not None:
        old_rows = np.asarray(old_rows, dtype=np.int64)
        new_rows = np.asarray(new_rows, dtype=np.int64)
    values, missing = scores.get_rows(old_rows, new_rows)
    if not len(missing):
        return values
    if np is None:
        missing.sort(key=lambda at: (old_rows[at], new_rows[at]))
        fresh_old = array("q", [old_rows[at] for at in missing])
        fresh_new = array("q", [new_rows[at] for at in missing])
    else:
        missing = missing[np.lexsort((new_rows[missing], old_rows[missing]))]
        fresh_old, fresh_new = old_rows[missing], new_rows[missing]
    fresh = score_pairs_chunked(
        scorer, fresh_old, fresh_new,
        n_workers=n_workers, chunk_size=chunk_size,
    )
    scores.add_rows(fresh_old, fresh_new, fresh)
    if np is None:
        for at, score in zip(missing, fresh):
            values[at] = score
    else:
        values[missing] = fresh
    _count_scored(instrumentation, scorer, len(missing), len(missing))
    return values
