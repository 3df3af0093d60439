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

**What is vectorized.**  Census columns repeat heavily, so every
expensive quantity is computed once per *distinct value combination*
per chunk (``np.unique`` over paired codes) and broadcast back.  Q-gram
multiset overlap runs as one sorted set intersection over the whole
chunk (see :meth:`_intersection_counts`); only comparators with no
array form (Levenshtein, Jaro-Winkler, custom callables) fall back to
one scalar Python call per distinct combination — still never once per
pair.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

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
    KIND_EXACT,
    PRUNED_EARLY_EXIT,
    PRUNED_LENGTH,
    PRUNED_QGRAM,
    FilteringConfig,
    PairOutcome,
    comparator_tag,
)
from .encoding import EncodedColumn, encode_columns, np

PairKey = Tuple[str, str]

#: Outcome-kind codes used internally (int8 masks -> PairOutcome.kind).
_KINDS = (KIND_EXACT, PRUNED_LENGTH, PRUNED_QGRAM, PRUNED_EARLY_EXIT)
_KIND_EXACT_ID = 0
_KIND_LENGTH_ID = 1
_KIND_QGRAM_ID = 2
_KIND_EARLY_ID = 3

_QGRAM_TAGS = (CMP_QGRAM2, CMP_QGRAM3)

#: Upper bound on the pairs scored by one internal batch.  Each pair's
#: outcome is computed independently, so splitting a chunk changes
#: nothing about the results — but it keeps the sort/unique working sets
#: cache-resident: one giant batch pays O(n log n) on multi-million-
#: element key arrays and measures ~25% slower per pair than 8k batches
#: on the benchmark grid.
MAX_BATCH_PAIRS = 8192


class BatchScoringKernel:
    """Vectorized twin of ``agg_sim`` + ``CandidateFilter.evaluate``.

    Built once per run from the full record lists (every record the
    pipeline may ever pair), then handed chunks of ``(old_id, new_id)``
    pairs.  The kernel is immutable after construction and picklable, so
    :mod:`repro.core.parallel` ships it to worker processes through the
    pool initializer exactly like the record indexes — under ``fork``
    the encoded arrays are inherited copy-on-write, not serialized.

    Parameters
    ----------
    sim_func:
        The similarity function whose ``agg_sim`` this kernel replays;
        weights, comparator order and missing policy are taken from it.
    old_records / new_records:
        Records to encode.  Chunks may only reference record ids given
        here.
    filtering:
        The :class:`FilteringConfig` :meth:`evaluate_chunk` replays
        (stage toggles and the δ margin).  Defaults to all filters on,
        matching :class:`CandidateFilter`.
    """

    def __init__(
        self,
        sim_func: SimilarityFunction,
        old_records: Sequence,
        new_records: Sequence,
        filtering: Optional[FilteringConfig] = None,
    ) -> None:
        if np is None:  # pragma: no cover - guarded by build_scoring_kernel
            raise RuntimeError(
                "numpy is unavailable; use the python scoring backend"
            )
        self.sim_func = sim_func
        self.filtering = filtering or FilteringConfig()
        self._attrs = sim_func.comparators
        self._tags: Tuple[str, ...] = tuple(
            comparator_tag(item.comparator) for item in self._attrs
        )
        self._ignore = sim_func.missing_policy == MISSING_IGNORE
        self._filler = 0.0 if sim_func.missing_policy == MISSING_ZERO else 0.5
        self._has_length = CMP_LENGTH in self._tags
        self._has_qgram = any(tag in _QGRAM_TAGS for tag in self._tags)
        self._old_rows: Dict[str, int] = {
            record.record_id: row for row, record in enumerate(old_records)
        }
        self._new_rows: Dict[str, int] = {
            record.record_id: row for row, record in enumerate(new_records)
        }
        self._old_cols, self._new_cols, self._token_space = encode_columns(
            sim_func, old_records, new_records
        )

    # -- gather helpers -------------------------------------------------------

    def _rows(self, pairs: Sequence[PairKey]):
        """Row indexes of a chunk's old and new records (C-level map
        chains: the per-pair Python frame is exactly what the kernel
        exists to avoid)."""
        count = len(pairs)
        old = np.fromiter(
            map(self._old_rows.__getitem__, map(itemgetter(0), pairs)),
            np.int64,
            count=count,
        )
        new = np.fromiter(
            map(self._new_rows.__getitem__, map(itemgetter(1), pairs)),
            np.int64,
            count=count,
        )
        return old, new

    def _intersection_counts(
        self,
        index: int,
        old_codes,
        new_codes,
    ):
        """Multiset q-gram overlap for each (old, new) distinct-value
        combination — the vectorized heart of the kernel.

        Occurrence expansion (see :mod:`.encoding`) made each side's
        token array duplicate-free, so the multiset overlap Σ min counts
        equals plain set intersection.  Both sides of every combination
        are merged into one key array ``combo_index * (n_tokens + 1) +
        token``; after a single sort, a token common to both sides of a
        combination is exactly an adjacent equal key pair, and a
        ``bincount`` of those collisions by combination yields all
        overlaps at once — no per-pair Python loop.
        """
        old_col = self._old_cols[index]
        new_col = self._new_cols[index]
        count = len(old_codes)
        lens_old = old_col.tok_off[old_codes + 1] - old_col.tok_off[old_codes]
        lens_new = new_col.tok_off[new_codes + 1] - new_col.tok_off[new_codes]
        combo_ids = np.arange(count, dtype=np.int64)

        def gather(col: EncodedColumn, codes, lens):
            total = int(lens.sum())
            if total == 0:
                return np.empty(0, dtype=np.int64)
            starts = col.tok_off[codes]
            shift = np.cumsum(lens) - lens
            flat_index = np.repeat(starts - shift, lens) + np.arange(
                total, dtype=np.int64
            )
            return col.tok_flat[flat_index]

        modulus = self._token_space[index] + 1
        keys = np.concatenate(
            [
                np.repeat(combo_ids * modulus, lens_old) + gather(
                    old_col, old_codes, lens_old
                ),
                np.repeat(combo_ids * modulus, lens_new) + gather(
                    new_col, new_codes, lens_new
                ),
            ]
        )
        keys.sort()
        collisions = keys[:-1][keys[1:] == keys[:-1]] if len(keys) else keys
        return np.bincount(collisions // modulus, minlength=count)

    # -- per-attribute similarity arrays --------------------------------------

    def _similarities(self, index: int, old_rows, new_rows, need):
        """Unweighted comparator values for the chunk rows where ``need``
        is set (raw comparator semantics; rows outside ``need`` are 0 and
        must be masked by the caller).  One evaluation per distinct value
        combination, broadcast back over the chunk."""
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

        combos = old_codes * new_col.n_distinct + new_codes
        unique, inverse = np.unique(combos, return_inverse=True)
        unique_old = unique // new_col.n_distinct
        unique_new = unique % new_col.n_distinct

        if tag in _QGRAM_TAGS:
            common = self._intersection_counts(index, unique_old, unique_new)
            count_old = old_col.gram_count[unique_old]
            count_new = new_col.gram_count[unique_new]
            totals = count_old + count_new
            # Same float ops as qgram_similarity: 2.0 * common (int ->
            # float64, exact) divided by the int gram total.
            unique_sims = 2.0 * common / np.where(totals == 0, 1, totals)
            unique_sims = np.where(
                (count_old == 0) | (count_new == 0), 0.0, unique_sims
            )
            unique_sims = np.where(
                (count_old == 0) & (count_new == 0), 1.0, unique_sims
            )
        else:
            # Scalar fallback (Levenshtein / Jaro-Winkler / custom):
            # the reference comparator itself, once per distinct value
            # combination instead of once per pair — trivially
            # bit-identical.
            comparator = self._attrs[index].comparator
            old_values = old_col.values
            new_values = new_col.values
            unique_sims = np.array(
                [
                    comparator(old_values[o], new_values[n])
                    for o, n in zip(
                        unique_old.tolist(), unique_new.tolist()
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
        config = self.filtering
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

        if tag == CMP_EXACT and config.exact_shortcircuit:
            equal = old_col.eq_codes[old_codes] == new_col.eq_codes[new_codes]
            known = np.where(
                missing, missing_term, np.where(equal, weight * 1.0, weight * 0.0)
            )
            resolved = np.ones(len(old_rows), dtype=bool)
            return missing, resolved, known, known

        if tag in _QGRAM_TAGS and config.qgram_filter:
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
        elif tag == CMP_LENGTH and config.length_filter:
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

    def agg_sim_chunk(self, pairs: Sequence[PairKey]) -> List[float]:
        """``agg_sim`` (Eq. 3) for every pair of the chunk, in order —
        bit-identical to calling :meth:`SimilarityFunction.agg_sim` pair
        by pair.  Internally split at :data:`MAX_BATCH_PAIRS`."""
        if len(pairs) > MAX_BATCH_PAIRS:
            scores: List[float] = []
            for start in range(0, len(pairs), MAX_BATCH_PAIRS):
                scores.extend(
                    self._agg_sim_batch(pairs[start:start + MAX_BATCH_PAIRS])
                )
            return scores
        return self._agg_sim_batch(pairs)

    def _agg_sim_batch(self, pairs: Sequence[PairKey]) -> List[float]:
        if not pairs:
            return []
        old_rows, new_rows = self._rows(pairs)
        count = len(pairs)
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
            scores = np.where(nothing, 0.0, scores)
            return scores.tolist()
        result = np.zeros(count)
        for index, item in enumerate(self._attrs):
            old_col = self._old_cols[index]
            new_col = self._new_cols[index]
            missing = old_col.missing[old_rows] | new_col.missing[new_rows]
            sims = self._similarities(index, old_rows, new_rows, ~missing)
            result = result + np.where(
                missing, item.weight * self._filler, item.weight * sims
            )
        return result.tolist()

    def evaluate_chunk(
        self, pairs: Sequence[PairKey], delta: float
    ) -> List[PairOutcome]:
        """:meth:`CandidateFilter.evaluate` for every pair of the chunk,
        in order — same outcome kinds, same values, bit for bit.

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
        if len(pairs) > MAX_BATCH_PAIRS:
            outcomes: List[PairOutcome] = []
            for start in range(0, len(pairs), MAX_BATCH_PAIRS):
                outcomes.extend(
                    self._evaluate_batch(
                        pairs[start:start + MAX_BATCH_PAIRS], delta
                    )
                )
            return outcomes
        return self._evaluate_batch(pairs, delta)

    def _evaluate_batch(
        self, pairs: Sequence[PairKey], delta: float
    ) -> List[PairOutcome]:
        if not pairs:
            return []
        config = self.filtering
        cutoff = delta - config.margin
        old_rows, new_rows = self._rows(pairs)
        count = len(pairs)
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
        if config.length_filter and self._has_length:
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
        if config.qgram_filter and self._has_qgram:
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
            early_exit = config.early_exit
            if early_exit:
                suffix = [None] * (attr_count + 1)
                suffix[attr_count] = np.zeros(count)
                for index in range(attr_count - 1, -1, -1):
                    suffix[index] = suffix[index + 1] + per_attr[index][3]
            result = np.zeros(count)
            for index in range(attr_count):
                if early_exit and index > 0:
                    prune(
                        (result + suffix[index]) / divisor, _KIND_EARLY_ID
                    )
                result = result + terms[index]
            final = result / divisor
            values[alive] = final[alive]

        # PairOutcome._make goes through tuple.__new__ directly — ~2x
        # cheaper than the NamedTuple constructor over a large chunk.
        return list(
            map(
                PairOutcome._make,
                zip(values.tolist(), map(_KINDS.__getitem__, kinds.tolist())),
            )
        )
