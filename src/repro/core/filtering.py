"""Lossless candidate pruning for the pre-matching hot path (§3.2).

``agg_sim`` (Eq. 3) dominates end-to-end runtime (see PERFORMANCE.md),
yet most candidate pairs lose against the round's threshold δ by a wide
margin.  Metric-space filtering from the record-linkage literature
(length filters, q-gram count filters, weighted-sum early abandoning)
lets us reject such pairs from cheap *upper bounds* on the weighted
similarity, without ever running the full comparison:

* **(a) length filter** — for edit-distance attributes,
  ``levenshtein_similarity(a, b) <= 1 - |len(a)-len(b)| / max(len)``;
* **(b) q-gram count filter** — for q-gram Dice attributes, the common
  gram count is at most the smaller gram total, so
  ``dice(a, b) <= 2 * min(n_a, n_b) / (n_a + n_b)``;
* **(c) exact-attribute short-circuit** — exact comparators (sex)
  contribute exactly ``0`` or ``ω_i``, resolvable in O(1);
* **(d) weighted-sum early exit** — evaluating attributes in ``Sim_func``
  order, a pair is abandoned as soon as the accumulated similarity plus
  the maximum possible contribution of the remaining attributes cannot
  reach δ.

Every decision is *lossless*: a pair is pruned only when its upper bound
falls below δ by more than :data:`MARGIN`, and a pair that survives all
filters is evaluated with exactly the float-operation sequence of
:meth:`SimilarityFunction.agg_sim`, so mappings are byte-identical to an
unfiltered run (proved by ``filtering_on_vs_off`` in
``tests/differential.py`` and the soundness battery in
``tests/test_filtering_soundness.py``).

Bounds are δ-independent facts about a pair, so prune decisions are
cached *per bound, not per round*: a pair pruned at δ=0.70 with bound
0.66 is re-examined (from its cached bound, without recomputation) when
the schedule reaches δ=0.65 (see
:meth:`repro.core.simcache.SimilarityCache.buckets`).

:class:`PairScorer` runs this engine, or plain ``agg_sim``, over chunks
of pairs given as row arrays, behind the interface of the vectorized
batch kernel (:mod:`repro.core.kernel`): it is the scorer the pipeline
uses under ``scoring_backend="python"`` or without numpy, and the
reference the kernel is held bit-identical to.
"""

from __future__ import annotations

from array import array
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..model.records import PersonRecord
from ..similarity.exact import exact_similarity
from ..similarity.levenshtein import damerau_similarity, levenshtein_similarity
from ..similarity.qgram import bigram_similarity, trigram_similarity
from ..similarity.vector import (
    MISSING_IGNORE,
    MISSING_ZERO,
    SimilarityFunction,
    _is_missing,
)

#: Outcome kinds.  ``exact`` carries the true ``agg_sim``; the others are
#: upper bounds below the decision threshold, named after the filter that
#: produced them (and used as instrumentation counter suffixes).
KIND_EXACT = "exact"
PRUNED_LENGTH = "length"
PRUNED_QGRAM = "qgram"
PRUNED_EARLY_EXIT = "early_exit"

#: Every outcome kind; its position is the kind *code* that kind arrays
#: carry (chunk scoring, the similarity cache): 0 is exact.
KINDS = (KIND_EXACT, PRUNED_LENGTH, PRUNED_QGRAM, PRUNED_EARLY_EXIT)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

#: Float-safety slack subtracted from δ before any prune decision:
#: composed weighted bounds are mathematically ≥ the true similarity but
#: may be re-associated float sums, so a pair is pruned only when
#: ``bound < δ - MARGIN``.
MARGIN = 1e-9

#: Comparator classification tags.  Shared with the vectorized batch
#: kernel (:mod:`repro.core.kernel`), which must bucket comparators the
#: same way to reproduce this engine's staging decisions exactly.
CMP_EXACT = "exact"
CMP_LENGTH = "length"
CMP_QGRAM2 = "qgram2"
CMP_QGRAM3 = "qgram3"
CMP_OPAQUE = "opaque"  # no cheap bound; contributes full weight

_COMPARATOR_TAGS = {
    exact_similarity: CMP_EXACT,
    levenshtein_similarity: CMP_LENGTH,
    damerau_similarity: CMP_LENGTH,
    bigram_similarity: CMP_QGRAM2,
    trigram_similarity: CMP_QGRAM3,
}

def comparator_tag(comparator) -> str:
    """Classify a comparator for bound derivation: one of the ``CMP_*``
    tags.  Unknown callables are :data:`CMP_OPAQUE` — no cheap bound
    exists, so filters must assume the full weight can be contributed."""
    return _COMPARATOR_TAGS.get(comparator, CMP_OPAQUE)


class PairOutcome(NamedTuple):
    """What the engine decided for one candidate pair at one δ.

    ``kind == "exact"``: ``value`` is the true ``agg_sim`` (bit-identical
    to :meth:`SimilarityFunction.agg_sim`).  Any other kind: ``value`` is
    an upper bound on ``agg_sim`` that fell below δ, so the pair cannot
    match this round (and ``value`` tells future rounds whether to look
    again).
    """

    value: float
    kind: str

    @property
    def is_exact(self) -> bool:
        return self.kind == KIND_EXACT


# -- scalar bounds (the testable primitives) ---------------------------------


def normalised_length(text: str) -> int:
    """Length of the comparator-normalised form (lowercase, collapsed
    whitespace) — the quantity every string bound below is built from."""
    return len(" ".join(text.lower().split()))


def qgram_count(text: str, q: int = 2, padded: bool = True) -> int:
    """Number of q-grams :func:`repro.similarity.qgram.qgrams` emits,
    computed from the normalised length alone (no gram materialisation)."""
    length = normalised_length(text)
    if length == 0:
        return 0
    if padded and q > 1:
        return length + q - 1
    if length < q:
        return 1
    return length - q + 1


def length_similarity_bound(left: str, right: str) -> float:
    """Upper bound on Levenshtein (and Damerau) similarity from lengths:
    the edit distance is at least ``|len(a) - len(b)|``."""
    left_len = normalised_length(left)
    right_len = normalised_length(right)
    if left_len == 0 and right_len == 0:
        return 1.0
    longest = max(left_len, right_len)
    return 1.0 - abs(left_len - right_len) / longest


def qgram_count_bound(
    left: str, right: str, q: int = 2, padded: bool = True
) -> float:
    """Upper bound on q-gram Dice similarity from gram counts: the
    common-gram count cannot exceed the smaller gram total."""
    left_count = qgram_count(left, q, padded)
    right_count = qgram_count(right, q, padded)
    if left_count == 0 and right_count == 0:
        return 1.0
    if left_count == 0 or right_count == 0:
        return 0.0
    return 2.0 * min(left_count, right_count) / (left_count + right_count)


# -- the engine --------------------------------------------------------------


class CandidateFilter:
    """δ-aware pruning engine bound to one similarity function's shape.

    The engine is threshold-agnostic (δ is an argument of
    :meth:`evaluate`), so one instance serves the whole iterative
    schedule of Alg. 1; per-string length/gram statistics are memoised
    across pairs and rounds.  Instances are cheap to pickle and are
    shipped to scoring workers by :mod:`repro.core.parallel`.
    """

    def __init__(self, sim_func: SimilarityFunction) -> None:
        self.sim_func = sim_func
        self._tags: Tuple[str, ...] = tuple(
            comparator_tag(item.comparator) for item in sim_func.comparators
        )
        #: Per-comparator memo: attribute value -> normalised length.
        self._length_memo: List[dict] = [dict() for _ in sim_func.comparators]

    def __getstate__(self):
        state = self.__dict__.copy()
        # Memos are per-process working state, not identity.
        state["_length_memo"] = [dict() for _ in self._tags]
        return state

    # -- per-attribute bounds -------------------------------------------------

    def _norm_length(self, index: int, value: str) -> int:
        memo = self._length_memo[index]
        length = memo.get(value)
        if length is None:
            length = normalised_length(value)
            memo[value] = length
        return length

    def _string_bound(self, index: int, tag: str, old: str, new: str) -> float:
        """Unweighted upper bound of one string comparator from lengths."""
        old_len = self._norm_length(index, old)
        new_len = self._norm_length(index, new)
        if tag == CMP_LENGTH:
            if old_len == 0 and new_len == 0:
                return 1.0
            return 1.0 - abs(old_len - new_len) / max(old_len, new_len)
        q = 2 if tag == CMP_QGRAM2 else 3
        old_count = old_len + q - 1 if old_len else 0
        new_count = new_len + q - 1 if new_len else 0
        if old_count == 0 and new_count == 0:
            return 1.0
        if old_count == 0 or new_count == 0:
            return 0.0
        return 2.0 * min(old_count, new_count) / (old_count + new_count)

    def upper_bound(
        self, old_record: PersonRecord, new_record: PersonRecord
    ) -> float:
        """Tightest cheap (pre-evaluation) upper bound on ``agg_sim``:
        the composed length / q-gram-count / exact-short-circuit bound.
        ``upper_bound(a, b) + MARGIN >= agg_sim(a, b)`` always."""
        known, bounds, denominator = self._attribute_terms(
            old_record, new_record
        )
        if denominator == 0.0:
            return 0.0
        total = 0.0
        for index in range(len(known)):
            term = known[index]
            total += bounds[index] if term is None else term
        return total / denominator if denominator != 1.0 else total

    def _attribute_terms(
        self, old_record: PersonRecord, new_record: PersonRecord
    ) -> Tuple[List[Optional[float]], List[float], float]:
        """Per-attribute analysis of a pair.

        Returns ``(known, bounds, denominator)``: ``known[i]`` is the
        exactly-resolved weighted numerator contribution of attribute
        ``i`` (missing-policy filler, or an exact comparator's value:
        the short-circuit) or ``None`` when the comparator still
        needs evaluating; ``bounds[i]`` is the weighted upper bound used
        in place of an unresolved contribution (equal to ``known[i]``
        when resolved).  ``denominator`` is 1 for the zero/neutral
        missing policies and the present-weight total under
        ``MISSING_IGNORE`` (0 when nothing is comparable).
        """
        sim_func = self.sim_func
        policy = sim_func.missing_policy
        ignore = policy == MISSING_IGNORE
        filler = 0.0 if policy == MISSING_ZERO else 0.5
        known: List[Optional[float]] = []
        bounds: List[float] = []
        denominator = 0.0 if ignore else 1.0
        for index, item in enumerate(sim_func.comparators):
            old_value = old_record.get(item.attribute)
            new_value = new_record.get(item.attribute)
            if _is_missing(old_value) or _is_missing(new_value):
                contribution = 0.0 if ignore else item.weight * filler
                known.append(contribution)
                bounds.append(contribution)
                continue
            if ignore:
                denominator += item.weight
            tag = self._tags[index]
            if tag == CMP_EXACT:
                contribution = item.weight * item.comparator(
                    old_value, new_value
                )
                known.append(contribution)
                bounds.append(contribution)
                continue
            known.append(None)
            if tag in (CMP_LENGTH, CMP_QGRAM2, CMP_QGRAM3):
                bound = self._string_bound(
                    index, tag, str(old_value), str(new_value)
                )
            else:
                bound = 1.0
            bounds.append(item.weight * bound)
        return known, bounds, denominator

    # -- the decision procedure ----------------------------------------------

    def evaluate(
        self,
        old_record: PersonRecord,
        new_record: PersonRecord,
        delta: float,
    ) -> PairOutcome:
        """Decide one pair against δ: an exact score or a pruning bound.

        Filters are staged strictly tightest-last, so each prune is
        attributed to the cheapest filter that resolved it: (a) length,
        (b) q-gram count, (d) early exit.  A stage runs wherever its
        comparators exist: (a) needs a length comparator, (b) a q-gram
        one.  A completed evaluation replays
        :meth:`SimilarityFunction.agg_sim`'s accumulation order exactly,
        so surviving pairs score bit-identically to an unfiltered run.

        This method is the scalar reference for
        :meth:`repro.core.kernel.BatchScoringKernel.evaluate_chunk`,
        which replays the same stages as boolean masks over whole
        chunks and is held to bit-identical ``(value, kind)`` outcomes
        (see docs/KERNEL.md).
        """
        sim_func = self.sim_func
        cutoff = delta - MARGIN
        known, bounds, denominator = self._attribute_terms(
            old_record, new_record
        )
        if denominator == 0.0:
            # MISSING_IGNORE with nothing comparable: agg_sim defines 0.
            return PairOutcome(0.0, KIND_EXACT)

        # Stage (a): exact short-circuits plus length bounds only (q-gram
        # attributes count their full weight).
        if CMP_LENGTH in self._tags:
            total = 0.0
            for index in range(len(bounds)):
                if known[index] is None and self._tags[index] in (
                    CMP_QGRAM2, CMP_QGRAM3,
                ):
                    total += sim_func.comparators[index].weight
                else:
                    total += bounds[index]
            bound = total / denominator
            if bound < cutoff:
                return PairOutcome(bound, PRUNED_LENGTH)

        # Stage (b): all cheap bounds composed (q-gram counts included).
        if CMP_QGRAM2 in self._tags or CMP_QGRAM3 in self._tags:
            total = 0.0
            for value in bounds:
                total += value
            bound = total / denominator
            if bound < cutoff:
                return PairOutcome(bound, PRUNED_QGRAM)

        # Stage (d): evaluate for real, abandoning when the rest cannot
        # reach δ.  ``suffix[i]`` = max possible numerator of attributes
        # i..n; the check never alters the accumulation arithmetic, so a
        # completed run equals agg_sim bit for bit.
        comparators = sim_func.comparators
        count = len(comparators)
        suffix: List[float] = [0.0] * (count + 1)
        for index in range(count - 1, -1, -1):
            suffix[index] = suffix[index + 1] + bounds[index]
        result = 0.0
        for index, item in enumerate(comparators):
            if index > 0:
                possible = (result + suffix[index]) / denominator
                if possible < cutoff:
                    return PairOutcome(possible, PRUNED_EARLY_EXIT)
            term = known[index]
            if term is not None:
                result += term
            else:
                result += item.weight * item.comparator(
                    old_record.get(item.attribute),
                    new_record.get(item.attribute),
                )
        return PairOutcome(result / denominator, KIND_EXACT)


class PairScorer:
    """The per-pair scorer behind the batch kernel's interface.

    :meth:`agg_sim_chunk` and :meth:`evaluate_chunk` answer what
    :class:`repro.core.kernel.BatchScoringKernel` answers, for the same
    row arrays and in row order, with one
    :meth:`SimilarityFunction.agg_sim` or :meth:`CandidateFilter.evaluate`
    call per pair, into stdlib :mod:`array` buffers.  Built over the
    records it may be asked about, like the kernel — row ``i`` of a side
    is its ``i``-th record, and ``old_ids``/``new_ids`` list the rows'
    record ids — and around a pruning engine (by default its own),
    whose memoised string lengths then stay warm across calls;
    picklable, so :mod:`repro.core.parallel` ships either scorer to its
    workers the same way.
    """

    #: Whether chunks are scored as arrays (and counted as ``kernel_*``
    #: effort); ``False`` here, ``True`` on the batch kernel.
    vectorized = False

    def __init__(
        self,
        sim_func: SimilarityFunction,
        old_records: Sequence[PersonRecord],
        new_records: Sequence[PersonRecord],
        candidate_filter: Optional[CandidateFilter] = None,
    ) -> None:
        self.sim_func = sim_func
        self.candidate_filter = candidate_filter or CandidateFilter(sim_func)
        self._old = list(old_records)
        self._new = list(new_records)
        self.old_ids = [record.record_id for record in self._old]
        self.new_ids = [record.record_id for record in self._new]

    def agg_sim_chunk(self, old_rows, new_rows) -> array:
        """``agg_sim`` (Eq. 3) of every (old row, new row) pair, in order."""
        agg_sim = self.sim_func.agg_sim
        old, new = self._old, self._new
        return array("d", [
            agg_sim(old[old_row], new[new_row])
            for old_row, new_row in zip(old_rows, new_rows)
        ])

    def evaluate_chunk(self, old_rows, new_rows, delta: float):
        """The pruning engine's outcome for every (old row, new row) pair
        at δ, in order: values and kind codes (:data:`KINDS`)."""
        evaluate = self.candidate_filter.evaluate
        old, new = self._old, self._new
        values, kinds = array("d"), array("b")
        for old_row, new_row in zip(old_rows, new_rows):
            value, kind = evaluate(old[old_row], new[new_row], delta)
            values.append(value)
            kinds.append(KIND_CODES[kind])
        return values, kinds
