"""Pre-matching: attribute-level clustering of records (Section 3.2).

Candidate record pairs (after blocking) are scored with ``Sim_func``;
pairs at or above the threshold δ become record links, and the connected
components of these links form clusters.  Every record — including
unmatched singletons — receives its cluster's label (Fig. 3).  Labels let
subgraph matching identify "similar records" without re-computing
similarities.

This is the pipeline's hot path: scores are δ-independent, so the
iterative schedule of Alg. 1 shares one score store across all rounds
(a plain dict or a bounded :class:`repro.core.simcache.SimilarityCache`),
and the bulk scoring of still-unscored pairs can fan out over worker
processes (:mod:`repro.core.parallel`) with results merged
deterministically.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, MutableMapping, Optional, Sequence, Set, Tuple

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
)
from .parallel import (
    DEFAULT_CHUNK_SIZE,
    filter_and_score_chunked,
    score_pairs_chunked,
)
from .simcache import SimilarityCache

#: Pruning-kind -> instrumentation counter, for per-filter attribution.
_PRUNE_COUNTERS = {
    PRUNED_LENGTH: PAIRS_PRUNED_LENGTH,
    PRUNED_QGRAM: PAIRS_PRUNED_QGRAM,
    PRUNED_EARLY_EXIT: PAIRS_PRUNED_EARLY_EXIT,
}

#: Anything usable as the shared cross-round score store.
ScoreStore = MutableMapping[Tuple[str, str], float]


@dataclass
class PreMatchResult:
    """Clusters, labels and pair similarities produced by pre-matching.

    ``scores`` holds ``agg_sim`` for every *candidate* pair (not only the
    matching ones); :meth:`pair_sim` computes missing entries lazily so
    the group-scoring stage can always obtain the record similarity of a
    vertex pair.  When ``scores`` is a
    :class:`~repro.core.simcache.SimilarityCache` those lazy entries go
    through its bounded LRU, so long series runs cannot accumulate
    unbounded per-pair state.
    """

    sim_func: SimilarityFunction
    old_index: Dict[str, PersonRecord]
    new_index: Dict[str, PersonRecord]
    labels: Dict[str, int] = field(default_factory=dict)
    clusters: Dict[int, List[str]] = field(default_factory=dict)
    scores: ScoreStore = field(default_factory=dict)
    matched_pairs: List[Tuple[str, str]] = field(default_factory=list)
    #: Optional event-counter sink shared with the pipeline.
    instrumentation: Optional[Instrumentation] = None

    def label_of(self, record_id: str) -> int:
        """The record's cluster label (Fig. 3)."""
        return self.labels[record_id]

    def cluster_of(self, record_id: str) -> List[str]:
        """All records carrying this record's cluster label (§3.2)."""
        return self.clusters[self.labels[record_id]]

    def cluster_size(self, record_id: str) -> int:
        """|label(r)| of Eq. 7: records carrying this record's label."""
        return len(self.cluster_of(record_id))

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
            if self.instrumentation is not None:
                self.instrumentation.count(PAIRS_SCORED)
                self.instrumentation.count(FULL_AGG_SIM_CALLS)
        return score

    def pair_sims(
        self,
        pairs: Sequence[Tuple[str, str]],
        kernel=None,
        n_workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Dict[Tuple[str, str], float]:
        """:meth:`pair_sim` for many pairs: each is looked up in
        :attr:`scores` once, and the missing ones are scored in one
        :func:`~repro.core.parallel.score_pairs_chunked` call (one
        ``kernel`` batch when given), then memoised and counted as
        :meth:`pair_sim` does — plus ``kernel_batches`` /
        ``kernel_pairs`` when the kernel scored them."""
        sims: Dict[Tuple[str, str], float] = {}
        missing: List[Tuple[str, str]] = []
        for pair in pairs:
            score = self.scores.get(pair)
            if score is None:
                missing.append(pair)
            else:
                sims[pair] = score
        if not missing:
            return sims
        fresh = score_pairs_chunked(
            missing, self.old_index, self.new_index, self.sim_func,
            n_workers=n_workers, chunk_size=chunk_size, kernel=kernel,
        )
        for pair, score in fresh.items():
            self.scores[pair] = score
        sims.update(fresh)
        if self.instrumentation is not None:
            self.instrumentation.count(PAIRS_SCORED, len(fresh))
            self.instrumentation.count(FULL_AGG_SIM_CALLS, len(fresh))
            if kernel is not None:
                self.instrumentation.count(KERNEL_BATCHES)
                self.instrumentation.count(KERNEL_PAIRS, len(fresh))
        return sims

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

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
    cached_scores: Optional[ScoreStore] = None,
    cached_pairs: Optional[Set[Tuple[str, str]]] = None,
    clustering: str = CONNECTED_COMPONENTS,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    instrumentation: Optional[Instrumentation] = None,
    candidate_filter: Optional[CandidateFilter] = None,
    kernel=None,
) -> PreMatchResult:
    """Cluster records of two datasets by attribute similarity (§3.2).

    ``cached_scores``/``cached_pairs`` allow the iterative pipeline to
    score each candidate pair exactly once across all δ rounds: scores do
    not depend on δ, only the cut-off does.  ``cached_scores`` may be a
    plain dict or a :class:`~repro.core.simcache.SimilarityCache` (which
    additionally bounds lazily-added entries and tallies hits/misses).
    Still-unscored pairs are bulk-scored, on ``n_workers`` processes when
    ``n_workers != 1`` (:func:`repro.core.parallel.score_pairs_chunked`;
    output is identical to serial).  ``clustering`` selects the strategy
    of :mod:`repro.core.clustering` (the paper uses connected
    components).

    With a ``candidate_filter`` (:mod:`repro.core.filtering`), unscored
    pairs first pass the pruning engine: a pair whose similarity upper
    bound already falls below this round's δ is rejected without the full
    ``agg_sim`` — losslessly, since such a pair could never enter
    ``matched_pairs``.  Pruning bounds are δ-independent, so when the
    score store is a :class:`~repro.core.simcache.SimilarityCache` they
    are remembered across rounds and only re-examined once the schedule's
    δ drops past them.

    ``kernel`` (a :class:`repro.core.kernel.BatchScoringKernel` whose
    encoding covers both record lists, or ``None``) routes the bulk
    scoring — filtered or plain — through the vectorized backend; every
    outcome, and hence every cluster, score and counter below, is
    bit-identical to the per-pair path.
    """
    old_index = {record.record_id: record for record in old_records}
    new_index = {record.record_id: record for record in new_records}

    if cached_pairs is None:
        candidate_pairs = blocker.candidate_pairs(
            list(old_records), list(new_records)
        )
    else:
        candidate_pairs = {
            (old_id, new_id)
            for old_id, new_id in cached_pairs
            if old_id in old_index and new_id in new_index
        }
    if instrumentation is not None:
        instrumentation.count(CANDIDATE_PAIRS, len(candidate_pairs))

    # Use the caller's store directly when given: scores computed lazily
    # during subgraph matching then persist across δ rounds.
    scores: ScoreStore = cached_scores if cached_scores is not None else {}

    if candidate_filter is not None and candidate_filter.active:
        timer = (
            instrumentation.stage("filtering")
            if instrumentation is not None
            else nullcontext()
        )
        with timer:
            exact_scores = _filtered_bulk_scores(
                candidate_pairs, scores, old_index, new_index, sim_func,
                candidate_filter, n_workers, chunk_size, instrumentation,
                kernel=kernel,
            )
        # A pruned pair's similarity is provably below δ, so restricting
        # the threshold test to exactly-scored pairs loses nothing.
        matched = sorted(
            pair
            for pair, score in exact_scores.items()
            if score >= sim_func.threshold
        )
        matched_scores = {pair: exact_scores[pair] for pair in matched}
    else:
        # Bulk-score whatever the store does not hold yet; sorted order
        # keeps the parallel chunking (and any cache-miss tally)
        # deterministic.
        unscored = [
            pair for pair in sorted(candidate_pairs)
            if scores.get(pair) is None
        ]
        if unscored:
            fresh = score_pairs_chunked(
                unscored, old_index, new_index, sim_func,
                n_workers=n_workers, chunk_size=chunk_size, kernel=kernel,
            )
            if isinstance(scores, SimilarityCache):
                # Candidate-pair scores are re-tested every round: pin them.
                for pair, score in fresh.items():
                    scores.pin(pair, score)
            else:
                scores.update(fresh)
            if instrumentation is not None:
                instrumentation.count(PAIRS_SCORED, len(fresh))
                instrumentation.count(FULL_AGG_SIM_CALLS, len(fresh))
                if kernel is not None:
                    instrumentation.count(KERNEL_BATCHES)
                    instrumentation.count(KERNEL_PAIRS, len(fresh))
        matched = sorted(
            pair
            for pair in candidate_pairs
            if scores[pair] >= sim_func.threshold
        )
        matched_scores = {pair: scores[pair] for pair in matched}

    # Cluster the match links (transitive closure by default); singleton
    # clusters are emitted for unmatched records, as in Fig. 3.
    all_ids = list(old_index) + list(new_index)
    groups = cluster_records(
        all_ids, matched_scores, sim_func.threshold, clustering
    )

    labels: Dict[str, int] = {}
    clusters: Dict[int, List[str]] = {}
    for label, members in enumerate(groups):
        clusters[label] = members
        for record_id in members:
            labels[record_id] = label

    return PreMatchResult(
        sim_func=sim_func,
        old_index=old_index,
        new_index=new_index,
        labels=labels,
        clusters=clusters,
        scores=scores,
        matched_pairs=matched,
        instrumentation=instrumentation,
    )


def _filtered_bulk_scores(
    candidate_pairs: Set[Tuple[str, str]],
    scores: ScoreStore,
    old_index: Dict[str, PersonRecord],
    new_index: Dict[str, PersonRecord],
    sim_func: SimilarityFunction,
    candidate_filter: CandidateFilter,
    n_workers: int,
    chunk_size: int,
    instrumentation: Optional[Instrumentation],
    kernel=None,
) -> Dict[Tuple[str, str], float]:
    """Resolve every candidate pair against this round's δ through the
    pruning engine; return the exactly-known scores.

    Each pair lands in one of three buckets, checked cheapest-first:

    1. exact score already in the store (earlier round, or a lazy lookup)
       — reuse it;
    2. a cached pruning bound still below δ − margin — the pair stays
       pruned without recomputing anything (counted under the filter that
       set the bound);
    3. everything else runs through
       :func:`repro.core.parallel.filter_and_score_chunked`: survivors
       are stored exactly (pinned in a
       :class:`~repro.core.simcache.SimilarityCache`), rejects record
       their fresh bound for later rounds.
    """
    delta = sim_func.threshold
    cutoff = delta - candidate_filter.margin
    cache = scores if isinstance(scores, SimilarityCache) else None
    exact_scores: Dict[Tuple[str, str], float] = {}
    pruned: Dict[str, int] = {
        PRUNED_LENGTH: 0, PRUNED_QGRAM: 0, PRUNED_EARLY_EXIT: 0,
    }
    to_evaluate: List[Tuple[str, str]] = []
    for pair in sorted(candidate_pairs):
        score = scores.get(pair)
        if score is not None:
            exact_scores[pair] = score
            continue
        if cache is not None:
            cached_bound = cache.get_bound(pair)
            if cached_bound is not None and cached_bound[0] < cutoff:
                pruned[cached_bound[1]] += 1
                continue
        to_evaluate.append(pair)

    if to_evaluate:
        outcomes = filter_and_score_chunked(
            to_evaluate, old_index, new_index, candidate_filter, delta,
            n_workers=n_workers, chunk_size=chunk_size, kernel=kernel,
        )
        if instrumentation is not None and kernel is not None:
            instrumentation.count(KERNEL_BATCHES)
            instrumentation.count(KERNEL_PAIRS, len(to_evaluate))
        fresh = 0
        for pair, outcome in outcomes.items():
            if outcome.is_exact:
                if cache is not None:
                    cache.pin(pair, outcome.value)
                else:
                    scores[pair] = outcome.value
                exact_scores[pair] = outcome.value
                fresh += 1
            else:
                if cache is not None:
                    cache.set_bound(pair, outcome.value, outcome.kind)
                pruned[outcome.kind] += 1
        if instrumentation is not None:
            instrumentation.count(PAIRS_SCORED, fresh)
            instrumentation.count(FULL_AGG_SIM_CALLS, fresh)

    if instrumentation is not None:
        for kind, counter in _PRUNE_COUNTERS.items():
            if pruned[kind]:
                instrumentation.count(counter, pruned[kind])
    return exact_scores
