"""Chunk-at-a-time scoring on the encoded columns (the batch kernel).

:class:`BatchScoringKernel` replays the two per-pair reference code
paths over whole candidate chunks:

* :meth:`agg_sim_chunk` ≡ :meth:`SimilarityFunction.agg_sim` (Eq. 3);
* :meth:`evaluate_chunk` ≡ :meth:`CandidateFilter.evaluate` — the
  staged pruning engine of :mod:`repro.core.filtering` (length filter,
  q-gram count filter, exact short-circuit, weighted early exit against
  the round's δ), with every stage's prune decision turned into a
  boolean mask over the chunk.

**Bit-identity.**  IEEE-754 float64 ``+``, ``*`` and ``/`` are exactly
rounded and deterministic, so two computations that perform the same
operations in the same order on the same operands produce the same bits
— whether each operation runs in a CPython frame or elementwise inside
a numpy ufunc loop.  The kernel therefore never re-associates the
reference arithmetic: weighted terms accumulate left to right in
comparator order (``result = result + w_i * sim_i``), early-exit suffix
bounds build right to left, Dice is ``2.0 * common / (total_l +
total_r)``, and the final division by the denominator happens exactly
where the scalar code divides (``x / 1.0`` is a bitwise no-op for the
zero/neutral missing policies).  ``docs/KERNEL.md`` walks through the
argument; ``tests/test_kernel.py`` and ``vectorized_vs_python`` in
``tests/differential.py`` enforce it.

**What is vectorized.**  Q-gram multiset overlap is the popcount of the
AND of two token bitsets, computed for exactly the rows a stage needs
(see :meth:`_common_grams`); exact attributes compare integer codes.
Only comparators with no array form (Levenshtein, Jaro-Winkler, custom
callables) fall back to one scalar Python call per *distinct value
combination* per batch (the sorted distinct paired codes, each pair's
found by ``searchsorted``), broadcast back — still never once per pair.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ...similarity.vector import (
    MISSING_IGNORE,
    MISSING_ZERO,
    SimilarityFunction,
)
from ..filtering import (
    CMP_EXACT,
    CMP_LENGTH,
    CMP_QGRAM2,
    CMP_QGRAM3,
    KIND_CODES,
    MARGIN,
    PRUNED_EARLY_EXIT,
    PRUNED_LENGTH,
    PRUNED_QGRAM,
    comparator_tag,
)
from ..pairtable import sorted_unique
from .encoding import encode_columns, np

#: Kind codes of the outcome arrays (see repro.core.filtering.KINDS).
_KIND_LENGTH_ID = KIND_CODES[PRUNED_LENGTH]
_KIND_QGRAM_ID = KIND_CODES[PRUNED_QGRAM]
_KIND_EARLY_ID = KIND_CODES[PRUNED_EARLY_EXIT]

_QGRAM_TAGS = (CMP_QGRAM2, CMP_QGRAM3)

#: Upper bound on the pairs scored by one internal batch.  Each pair's
#: outcome is computed independently, so splitting a chunk changes
#: nothing about the results — but it bounds the per-batch temporaries
#: (masks, gathered codes and words, per-attribute bound arrays), and
#: with them the peak resident memory of scoring a large chunk.
MAX_BATCH_PAIRS = 8192


class BatchScoringKernel:
    """Vectorized twin of ``agg_sim`` + ``CandidateFilter.evaluate``.

    Built once per run from the full record lists (every record the
    pipeline may ever pair), then handed chunks as two row arrays: row
    ``i`` of a side is its ``i``-th record, and ``old_ids``/``new_ids``
    list the rows' record ids.  The kernel is immutable after
    construction and picklable, so
    :mod:`repro.core.parallel` ships it to worker processes through the
    pool initializer like the per-pair
    :class:`~repro.core.filtering.PairScorer` — under ``fork`` the
    encoded arrays are inherited copy-on-write, not serialized.

    Parameters
    ----------
    sim_func:
        The similarity function whose ``agg_sim`` this kernel replays;
        weights, comparator order and missing policy are taken from it.
    old_records / new_records:
        Records to encode, in row order.
    """

    #: Chunks are scored as arrays (counted as ``kernel_*`` effort).
    vectorized = True

    def __init__(
        self,
        sim_func: SimilarityFunction,
        old_records: Sequence,
        new_records: Sequence,
    ) -> None:
        if np is None:  # pragma: no cover - guarded by build_scoring_kernel
            raise RuntimeError(
                "numpy is unavailable; use the python scoring backend"
            )
        self.sim_func = sim_func
        self._attrs = sim_func.comparators
        self._tags: Tuple[str, ...] = tuple(
            comparator_tag(item.comparator) for item in self._attrs
        )
        self._ignore = sim_func.missing_policy == MISSING_IGNORE
        self._filler = 0.0 if sim_func.missing_policy == MISSING_ZERO else 0.5
        self._has_length = CMP_LENGTH in self._tags
        self._has_qgram = any(tag in _QGRAM_TAGS for tag in self._tags)
        self.old_ids = [record.record_id for record in old_records]
        self.new_ids = [record.record_id for record in new_records]
        self._old_cols, self._new_cols = encode_columns(
            sim_func, old_records, new_records
        )

    def _common_grams(self, index: int, old_codes, new_codes):
        """Multiset q-gram overlap of each (old code, new code) pair.

        Occurrence expansion (see :mod:`.encoding`) made each value's
        tokens a set, so the overlap Σ min counts is the size of the
        set intersection: the popcount of the AND of the two bitsets,
        word by word.  ``np.bitwise_count`` answers in uint8, so the
        words are summed into int64 (a long value shares more than 255
        grams).  Words past the shorter bitset hold no token of the
        other side.
        """
        old_bits = self._old_cols[index].bits
        new_bits = self._new_cols[index].bits
        common = np.zeros(len(old_codes), dtype=np.int64)
        for word in range(min(len(old_bits), len(new_bits))):
            common += np.bitwise_count(
                old_bits[word][old_codes] & new_bits[word][new_codes]
            )
        return common

    # -- per-attribute similarity arrays --------------------------------------

    def _similarities(self, index: int, old_rows, new_rows, need):
        """Unweighted comparator values for the chunk rows where ``need``
        is set (raw comparator semantics; rows outside ``need`` are 0 and
        must be masked by the caller).  Q-gram and exact attributes are
        computed row by row; the scalar fallback runs once per distinct
        value combination, broadcast back over the chunk."""
        tag = self._tags[index]
        old_col = self._old_cols[index]
        new_col = self._new_cols[index]
        sims = np.zeros(len(old_rows))
        if not need.any():
            return sims
        rows = np.nonzero(need)[0]
        old_codes = old_col.codes[old_rows[rows]]
        new_codes = new_col.codes[new_rows[rows]]

        if tag == CMP_EXACT:
            equal = old_col.eq_codes[old_codes] == new_col.eq_codes[new_codes]
            sims[rows] = np.where(equal, 1.0, 0.0)
            return sims

        if tag in _QGRAM_TAGS:
            common = self._common_grams(index, old_codes, new_codes)
            count_old = old_col.gram_count[old_codes]
            count_new = new_col.gram_count[new_codes]
            totals = count_old + count_new
            # Same float ops as qgram_similarity: 2.0 * common (int ->
            # float64, exact) divided by the int gram total.
            dice = 2.0 * common / np.where(totals == 0, 1, totals)
            dice = np.where((count_old == 0) | (count_new == 0), 0.0, dice)
            sims[rows] = np.where(
                (count_old == 0) & (count_new == 0), 1.0, dice
            )
            return sims

        # Scalar fallback (Levenshtein / Jaro-Winkler / custom): the
        # reference comparator itself, once per distinct value
        # combination instead of once per pair — trivially bit-identical.
        combos = old_codes * new_col.n_distinct + new_codes
        unique = sorted_unique(combos)
        inverse = np.searchsorted(unique, combos)
        comparator = self._attrs[index].comparator
        old_values = old_col.values
        new_values = new_col.values
        unique_sims = np.array(
            [
                comparator(old_values[o], new_values[n])
                for o, n in zip(
                    (unique // new_col.n_distinct).tolist(),
                    (unique % new_col.n_distinct).tolist(),
                )
            ],
            dtype=np.float64,
        )
        sims[rows] = unique_sims[inverse]
        return sims

    def _known_and_bounds(self, index: int, old_rows, new_rows):
        """Vector twin of one attribute's slice of
        :meth:`CandidateFilter._attribute_terms`.

        Returns ``(missing, resolved, known, bounds)``: ``known`` is the
        exactly-resolved weighted contribution wherever ``resolved`` is
        set (missing filler, or the exact short-circuit), ``bounds`` the
        weighted upper bound standing in for unresolved contributions —
        matching the scalar engine's values bit for bit.
        """
        item = self._attrs[index]
        weight = item.weight
        tag = self._tags[index]
        old_col = self._old_cols[index]
        new_col = self._new_cols[index]
        old_codes = old_col.codes[old_rows]
        new_codes = new_col.codes[new_rows]
        missing = old_col.missing[old_rows] | new_col.missing[new_rows]
        # Missing contribution: 0 under MISSING_IGNORE, weight * filler
        # otherwise — a scalar, exactly as the reference computes it.
        missing_term = 0.0 if self._ignore else weight * self._filler
        known = np.where(missing, missing_term, 0.0)
        resolved = missing.copy()

        if tag == CMP_EXACT:
            equal = old_col.eq_codes[old_codes] == new_col.eq_codes[new_codes]
            known = np.where(
                missing, missing_term, np.where(equal, weight * 1.0, weight * 0.0)
            )
            resolved = np.ones(len(old_rows), dtype=bool)
            return missing, resolved, known, known

        if tag in _QGRAM_TAGS:
            count_old = old_col.gram_count[old_codes]
            count_new = new_col.gram_count[new_codes]
            totals = count_old + count_new
            unweighted = (
                2.0
                * np.minimum(count_old, count_new)
                / np.where(totals == 0, 1, totals)
            )
            unweighted = np.where(
                (count_old == 0) | (count_new == 0), 0.0, unweighted
            )
            unweighted = np.where(
                (count_old == 0) & (count_new == 0), 1.0, unweighted
            )
        elif tag == CMP_LENGTH:
            len_old = old_col.norm_len[old_codes]
            len_new = new_col.norm_len[new_codes]
            longest = np.maximum(len_old, len_new)
            unweighted = 1.0 - np.abs(len_old - len_new) / np.where(
                longest == 0, 1, longest
            )
            unweighted = np.where(
                (len_old == 0) & (len_new == 0), 1.0, unweighted
            )
        else:
            unweighted = 1.0
        bounds = np.where(resolved, known, weight * unweighted)
        return missing, resolved, known, bounds

    # -- public API -----------------------------------------------------------

    def agg_sim_chunk(self, old_rows, new_rows):
        """``agg_sim`` (Eq. 3) of every (old row, new row) pair, in
        order, as a float64 array — bit-identical to calling
        :meth:`SimilarityFunction.agg_sim` pair by pair.  Internally
        split at :data:`MAX_BATCH_PAIRS`."""
        old_rows, new_rows = _int_rows(old_rows), _int_rows(new_rows)
        if len(old_rows) <= MAX_BATCH_PAIRS:
            return self._agg_sim_batch(old_rows, new_rows)
        return np.concatenate([
            self._agg_sim_batch(
                old_rows[start:start + MAX_BATCH_PAIRS],
                new_rows[start:start + MAX_BATCH_PAIRS],
            )
            for start in range(0, len(old_rows), MAX_BATCH_PAIRS)
        ])

    def _agg_sim_batch(self, old_rows, new_rows):
        count = len(old_rows)
        if self._ignore:
            weighted = np.zeros(count)
            total = np.zeros(count)
            for index, item in enumerate(self._attrs):
                old_col = self._old_cols[index]
                new_col = self._new_cols[index]
                missing = (
                    old_col.missing[old_rows] | new_col.missing[new_rows]
                )
                present = ~missing
                sims = self._similarities(index, old_rows, new_rows, present)
                weighted = weighted + np.where(
                    present, item.weight * sims, 0.0
                )
                total = total + np.where(present, item.weight, 0.0)
            nothing = total == 0.0
            scores = weighted / np.where(nothing, 1.0, total)
            return np.where(nothing, 0.0, scores)
        result = np.zeros(count)
        for index, item in enumerate(self._attrs):
            old_col = self._old_cols[index]
            new_col = self._new_cols[index]
            missing = old_col.missing[old_rows] | new_col.missing[new_rows]
            sims = self._similarities(index, old_rows, new_rows, ~missing)
            result = result + np.where(
                missing, item.weight * self._filler, item.weight * sims
            )
        return result

    def evaluate_chunk(self, old_rows, new_rows, delta: float):
        """:meth:`CandidateFilter.evaluate` for every (old row, new row)
        pair, in order — same outcome kinds, same values, bit for bit —
        as a float64 value array and an int8 array of kind codes
        (:data:`repro.core.filtering.KINDS`).

        The scalar engine's sequential stages become mask refinements:
        ``alive`` starts all-true and each stage moves its failures into
        the result arrays.  The one intentional divergence is *effort*,
        not outcome: comparator values are computed for every pair still
        alive entering stage (d), where the scalar path stops mid-sum on
        early exit — the vector arithmetic is cheap enough that the
        wasted tail terms do not matter, and pruned pairs' outcomes are
        taken from the masks, never from those terms.

        Internally split at :data:`MAX_BATCH_PAIRS`.
        """
        old_rows, new_rows = _int_rows(old_rows), _int_rows(new_rows)
        if len(old_rows) <= MAX_BATCH_PAIRS:
            return self._evaluate_batch(old_rows, new_rows, delta)
        parts = [
            self._evaluate_batch(
                old_rows[start:start + MAX_BATCH_PAIRS],
                new_rows[start:start + MAX_BATCH_PAIRS],
                delta,
            )
            for start in range(0, len(old_rows), MAX_BATCH_PAIRS)
        ]
        return (
            np.concatenate([values for values, _ in parts]),
            np.concatenate([kinds for _, kinds in parts]),
        )

    def _evaluate_batch(self, old_rows, new_rows, delta: float):
        cutoff = delta - MARGIN
        count = len(old_rows)
        attr_count = len(self._attrs)

        per_attr = [
            self._known_and_bounds(index, old_rows, new_rows)
            for index in range(attr_count)
        ]
        values = np.zeros(count)
        kinds = np.zeros(count, dtype=np.int8)
        alive = np.ones(count, dtype=bool)

        if self._ignore:
            denominator = np.zeros(count)
            for index, item in enumerate(self._attrs):
                missing = per_attr[index][0]
                denominator = denominator + np.where(
                    missing, 0.0, item.weight
                )
            nothing = denominator == 0.0
            # MISSING_IGNORE with nothing comparable: agg_sim defines 0
            # (kind "exact") — those rows are settled already.
            alive &= ~nothing
            divisor = np.where(nothing, 1.0, denominator)
        else:
            divisor = 1.0  # dividing by it is a bitwise no-op

        def prune(bound, kind_id) -> None:
            failed = alive & (bound < cutoff)
            values[failed] = bound[failed]
            kinds[failed] = kind_id
            alive[failed] = False

        # Stage (a): length bounds (q-gram attributes at full weight).
        if self._has_length:
            total = np.zeros(count)
            for index, item in enumerate(self._attrs):
                _, resolved, _, bounds = per_attr[index]
                if self._tags[index] in _QGRAM_TAGS:
                    contribution = np.where(resolved, bounds, item.weight)
                else:
                    contribution = bounds
                total = total + contribution
            prune(total / divisor, _KIND_LENGTH_ID)

        # Stage (b): all cheap bounds composed.
        if self._has_qgram:
            total = np.zeros(count)
            for index in range(attr_count):
                total = total + per_attr[index][3]
            prune(total / divisor, _KIND_QGRAM_ID)

        # Stage (d): full evaluation with the weighted early exit.
        if alive.any():
            terms = []
            for index, item in enumerate(self._attrs):
                _, resolved, known, _ = per_attr[index]
                sims = self._similarities(
                    index, old_rows, new_rows, alive & ~resolved
                )
                terms.append(np.where(resolved, known, item.weight * sims))
            suffix = [None] * (attr_count + 1)
            suffix[attr_count] = np.zeros(count)
            for index in range(attr_count - 1, -1, -1):
                suffix[index] = suffix[index + 1] + per_attr[index][3]
            result = np.zeros(count)
            for index in range(attr_count):
                if index > 0:
                    prune(
                        (result + suffix[index]) / divisor, _KIND_EARLY_ID
                    )
                result = result + terms[index]
            final = result / divisor
            values[alive] = final[alive]
        return values, kinds


def _int_rows(rows):
    """Row indexes as an int64 array (zero-copy for int64 buffers)."""
    return np.asarray(rows, dtype=np.int64)
