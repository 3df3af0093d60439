"""Final attribute-only matching of remaining records (Alg. 1, line 17).

Records that subgraph matching never placed into an accepted common
subgraph — movers, members of dissolved households, singletons — get one
more chance: a conservative attribute-only matcher (``Sim_func_rem``)
with a hard temporal age filter, resolved greedily to a 1:1 mapping.

The pass re-blocks the leftover records and keeps the age-plausible
pairs on row arrays (:func:`plausible_pairs`), which map onto the pair
ids of the shard's table with one gather
(:meth:`~repro.core.pairtable.PairTable.split`).  They are settled by
pre-matching's one resolver
(:func:`repro.core.prematching._filtered_bulk_scores`, bound here as
this module's ``_filtered_bulk_scores``), with pruning against the
remaining threshold on or off; id pairs are built only for the pairs
that reach it.  When ``Sim_func_rem`` uses the same
attribute weights as the main ``Sim_func`` (the default), the pipeline
shares its cross-round similarity cache, pair table and pair scorer with
this pass, so pairs already scored during pre-matching are looked up
instead of recomputed; fresh pairs are bulk-scored, optionally on worker
processes.  The pass re-blocks the leftover records, and with a block
size cap (``max_block_size``) that proposes pairs the first blocking
dropped.  Those have no pair id: ``split`` hands them on as rows, and
they are scored exactly, unpruned, through pre-matching's lazy path
(:func:`repro.core.prematching._lazy_row_scores`) and kept in the
cache's lazy LRU.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import compress
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..blocking.pairs import BlockedPairs, Blocker
from ..instrumentation import REMAINING_PAIRS, Instrumentation
from ..model.mappings import RecordMapping
from ..model.records import PersonRecord
from ..similarity.numeric import normalised_age_difference
from ..similarity.vector import SimilarityFunction
from .filtering import CandidateFilter, PairScorer
from .pairtable import PairTable, numpy_or_none, view
from .parallel import DEFAULT_CHUNK_SIZE
from .prematching import _filtered_bulk_scores, _lazy_row_scores
from .simcache import SimilarityCache, _as_list


def match_remaining(
    old_records: Sequence[PersonRecord],
    new_records: Sequence[PersonRecord],
    sim_func_rem: SimilarityFunction,
    blocker: Blocker,
    year_gap: int,
    max_normalised_age_difference: float = 3.0,
    ambiguity_margin: float = 0.0,
    cached_scores: Optional[SimilarityCache] = None,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    instrumentation: Optional[Instrumentation] = None,
    candidate_filter: Optional[CandidateFilter] = None,
    scorer=None,
) -> RecordMapping:
    """Greedy 1:1 matching of leftover records (Alg. 1, lines 17–19).

    Candidate pairs survive when ``agg_sim`` reaches the remaining
    threshold *and* the age difference normalised by the census gap is at
    most ``max_normalised_age_difference`` (footnote 2 of the paper; in
    the main pipeline, subgraph matching enforces the analogous
    constraint through edge properties).  Pairs with a missing age pass
    the filter — missing data must not veto a link outright.

    ``cached_scores`` may carry ``agg_sim`` values computed earlier in
    the run; it is only sound to pass when the earlier scores came from a
    similarity function with identical weights and missing policy (the
    threshold does not enter ``agg_sim``).  Its pair table, if any,
    identifies the pairs it holds by pair id; otherwise the pass interns
    its own pairs over the given records.  Unscored age-plausible pairs
    are bulk-scored by ``scorer`` via
    :func:`repro.core.parallel.score_pairs_chunked` with
    ``n_workers``/``chunk_size``, deterministically.  ``scorer`` follows
    the same sharing rule as ``cached_scores`` and is built over the
    table's rows (the pipeline builds a private one for custom remaining
    weights); by default it is a
    :class:`~repro.core.filtering.PairScorer` over the given records.

    With a ``candidate_filter`` the table's pairs are pruned
    against the remaining threshold (pairs beyond the table are scored
    exactly): a pruned pair's ``agg_sim`` is provably below it, and the
    greedy resolution below only ever looks at pairs at or above the
    threshold, so skipping the full evaluation cannot change the
    mapping.

    With ``ambiguity_margin > 0`` a pair is linked only when its score
    beats every competing candidate of *both* endpoints by the margin:
    frequent names (several age-compatible "Mary Ashworth"s) produce
    near-tied candidates, and guessing among them costs precision.
    """
    old_index = {record.record_id: record for record in old_records}
    new_index = {record.record_id: record for record in new_records}
    if instrumentation is None:
        instrumentation = Instrumentation()
    if scorer is None:
        by_id = attrgetter("record_id")
        scorer = PairScorer(
            sim_func_rem,
            sorted(old_records, key=by_id),
            sorted(new_records, key=by_id),
            candidate_filter,
        )

    # Age-plausible candidate pairs first (cheap filter before scoring).
    kept = plausible_pairs(
        blocker.candidate_pairs(list(old_records), list(new_records)),
        old_index, new_index, year_gap, max_normalised_age_difference,
    )
    instrumentation.count(REMAINING_PAIRS, len(kept))

    scores = cached_scores if cached_scores is not None else SimilarityCache()
    if scores.table is None:
        scores.attach(PairTable(scorer.old_ids, scorer.new_ids, kept))
    table = scores.table
    table.check_scorer(scorer)
    pids, (beyond_old, beyond_new) = table.split(kept)
    threshold = sim_func_rem.threshold
    matched = _filtered_bulk_scores(
        pids, scores, scorer, threshold, candidate_filter,
        n_workers, chunk_size, instrumentation,
    )
    lazy = _lazy_row_scores(
        beyond_old, beyond_new, scores, scorer, n_workers, chunk_size,
        instrumentation,
    )

    scored: List[Tuple[float, str, str]] = list(
        zip(_as_list(scores.values(matched)), *table.ids(matched))
    )
    scored.extend(
        (score, table.old_ids[old_row], table.new_ids[new_row])
        for old_row, new_row, score in zip(
            _as_list(beyond_old), _as_list(beyond_new), _as_list(lazy)
        )
        if score >= threshold
    )
    old_scores: Dict[str, List[float]] = defaultdict(list)
    new_scores: Dict[str, List[float]] = defaultdict(list)
    for score, old_id, new_id in scored:
        old_scores[old_id].append(score)
        new_scores[new_id].append(score)

    # Highest similarity first; ids as deterministic tie-break.
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    mapping = RecordMapping()
    for score, old_id, new_id in scored:
        if mapping.contains_old(old_id) or mapping.contains_new(new_id):
            continue
        if ambiguity_margin > 0.0:
            if len(old_scores[old_id]) > 1 and not _beats_rest(
                old_scores[old_id], score, ambiguity_margin
            ):
                continue
            if len(new_scores[new_id]) > 1 and not _beats_rest(
                new_scores[new_id], score, ambiguity_margin
            ):
                continue
        mapping.add(old_id, new_id)
    return mapping


def plausible_pairs(
    pairs,
    old_index: Dict[str, PersonRecord],
    new_index: Dict[str, PersonRecord],
    year_gap: int,
    max_normalised_age_difference: float,
) -> BlockedPairs:
    """The blocked ``pairs`` of the records in ``old_index`` and
    ``new_index`` whose normalised age difference is at most the bound
    (a missing age passes), kept on the row arrays of a pair table over
    the records' sorted ids — which adopts the blocker's
    :class:`BlockedPairs` as it is."""
    table = PairTable(sorted(old_index), sorted(new_index), pairs)
    old_ages = [old_index[record_id].age for record_id in table.old_ids]
    new_ages = [new_index[record_id].age for record_id in table.new_ids]
    bound = max_normalised_age_difference
    np = numpy_or_none()
    if np is None:
        gaps = (
            normalised_age_difference(old_ages[old_row], new_ages[new_row],
                                      year_gap)
            for old_row, new_row in zip(table.old_row, table.new_row)
        )
        kept = array("q", compress(
            table.keys, (gap is None or gap <= bound for gap in gaps)
        ))
    else:
        old_age, new_age = (
            np.array([-1 if age is None else age for age in ages],
                     dtype=np.int64)[view(rows, np.int64)]
            for ages, rows in ((old_ages, table.old_row),
                               (new_ages, table.new_row))
        )
        keep = (old_age < 0) | (new_age < 0)
        keep |= np.abs(new_age - (old_age + year_gap)) <= bound
        kept = array("q", view(table.keys, np.int64)[keep].tobytes())
    return BlockedPairs(table.old_ids, table.new_ids, kept)


def _beats_rest(scores: List[float], score: float, margin: float) -> bool:
    """True when ``score`` exceeds all *other* scores by ``margin``.

    ``scores`` contains ``score`` itself once; equal duplicates mean a
    genuine tie, which never passes a positive margin.
    """
    remaining = sorted(scores, reverse=True)
    remaining.remove(score)
    return all(score - other >= margin for other in remaining)
