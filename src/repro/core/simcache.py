"""Cross-iteration similarity cache for the pre-matching hot path (§3.2).

``agg_sim`` (Eq. 3) does not depend on the threshold δ — only the cut-off
test does — so the iterative schedule of Alg. 1 can score each candidate
pair once and re-test the cached value every round.  The cache also backs
the lazy lookups of the group stage (subgraph vertex assignment and
Eq. 5 scoring, through
:meth:`repro.core.prematching.PreMatchResult.row_sims` and
``pair_sims``) and, when the remaining pass (Alg. 1 line 17) runs with
the same attribute weights, the final attribute-only matching as well.

Every score has one home, set by whether its pair is one of the shard's
blocked pairs — the :class:`~repro.core.pairtable.PairTable` attached
once per shard (:meth:`SimilarityCache.attach`) — and one key, the
pair's rows in that table:

* a **blocked pair** keeps its exact score or its bound in two arrays
  aligned with pair ids — a value and a kind (:data:`KIND_NONE`, or the
  code of an outcome kind, :data:`repro.core.filtering.KINDS`).  An
  exact score there is *pinned*: never evicted, whether the resolver
  scored the pair or a lazy lookup did.  Their number is bounded by
  blocking, and they are exactly the pairs re-tested every δ round.
* any **other pair** of the table's rows — same-cluster household
  members that blocking never proposed, remaining-pass pairs that
  re-blocking the leftovers proposes afresh — keeps only an exact
  score, in an LRU of at most ``max_lazy_entries`` keyed by the pair's
  integer key ``old_row * width + new_row`` (the form of
  :attr:`PairTable.keys <repro.core.pairtable.PairTable.keys>`); an
  evicted pair is simply re-scored on next use.

The candidate-pruning engine (:mod:`repro.core.filtering`) adds a
weaker kind of knowledge: an *upper bound* on a blocked pair's
similarity, recorded when a filter rejected the pair against some
round's δ.  Bounds are δ-independent facts, so they are cached **per
bound, not per round**: a later round with a lower δ first consults the
cached bound and only re-runs the engine when it no longer rules the
pair out.  A bound is superseded the moment the pair's exact score is
pinned.  The pre-matching resolver splits a round's candidates into its
three buckets with masks over the arrays (:meth:`SimilarityCache.buckets`,
``store``) and hands on the pair ids that reach δ (``reaching``).  Every
other lookup and store names its pairs by their rows
(:meth:`SimilarityCache.get_rows`, ``add_rows``).

Run checkpoints (:meth:`SimilarityCache.export_state`) and series pair
states carry pinned scores and bounds in one form, row space: the
columns of :meth:`SimilarityCache.entries` over the table's sorted id
lists, packed as one section (:mod:`repro.checkpoint.section`) and
seeded back by :meth:`SimilarityCache.seed` without a Python object per
entry.  Importing needs the table — it raises before ``attach`` — and
drops the entries of pairs off it.  Only a run checkpoint's lazy rows
name their pairs by id, ``[old_id, new_id, score]`` in LRU order:
:meth:`SimilarityCache.export_state` maps each key back to its ids, and
:meth:`SimilarityCache.from_export` maps them to keys again.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from ..checkpoint.section import CacheSeed, cache_parts, compress_rows
from .filtering import KIND_CODES, KINDS
from .pairtable import PairTable, numpy_or_none, view

#: Default cap on lazily-added entries (~a few MiB of floats and keys).
DEFAULT_MAX_LAZY_ENTRIES = 200_000

#: The score of a pair :meth:`SimilarityCache.get_rows` misses.
NAN = float("nan")

#: Kind code of a pair with neither a pinned score nor a bound; the code
#: of a pinned (exact) score is 0, bounds count up from 1 (see KINDS).
KIND_NONE = -1
_EXACT = KIND_CODES[KINDS[0]]


def _as_list(values) -> list:
    """A numpy array, stdlib array or list as a list of Python scalars."""
    return values.tolist() if hasattr(values, "tolist") else list(values)


class Buckets:
    """One resolver call's candidates — pair ids, ascending — split
    three ways: exactly known, kept pruned by a cached bound, and to
    evaluate (see :meth:`SimilarityCache.buckets`)."""

    def __init__(self, pids) -> None:
        #: Pair ids to hand to the scorer.
        self.evaluate = pids[:0]
        #: Pairs pruned per kind: by a cached bound, then fresh rejects.
        self.pruned: Dict[str, int] = dict.fromkeys(KINDS[1:], 0)


class SimilarityCache:
    """Bounded ``agg_sim`` memo over the pairs of one pair table's rows.

    Each score has one home and one key (module docstring): a pair of
    the attached :class:`~repro.core.pairtable.PairTable` keeps its
    pinned score or bound in the pair-id arrays, any other pair only an
    exact score in the lazy LRU, keyed ``old_row * width + new_row``.
    :meth:`get_rows` reads either home and :meth:`add_rows` stores an
    exact score in its pair's home; the resolver works on pair ids
    (:meth:`buckets`, :meth:`store`, :meth:`reaching`).
    ``hits``/``misses``/``evictions`` tally every lookup: while
    ``evictions == 0``, every miss that was scored added one entry, so
    no pair was scored twice.
    """

    def __init__(
        self, max_lazy_entries: Optional[int] = DEFAULT_MAX_LAZY_ENTRIES
    ) -> None:
        if max_lazy_entries is not None and max_lazy_entries < 0:
            raise ValueError("max_lazy_entries must be >= 0 or None")
        #: ``None`` or 0 disables the cap (unbounded lazy storage).
        self.max_lazy_entries = max_lazy_entries or None
        #: The shard's blocked pairs; ``None`` until :meth:`attach`.
        self.table: Optional[PairTable] = None
        # Per pair id: the pinned score or bound, and its kind code.
        self._value = array("d")
        self._kind = array("b")
        # Exact scores of pairs off the table by their integer keys,
        # least recently used first.
        self._lazy: "OrderedDict[int, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- the pair table ----------------------------------------------------------

    def attach(self, table: PairTable) -> None:
        """Hold the pinned scores and bounds of ``table``'s pairs in
        arrays aligned with its pair ids.  The cache must be empty."""
        if self.table is not None or self._lazy:
            raise ValueError("a pair table attaches to an empty cache only")
        self.table = table
        count = len(table)
        self._value = array("d", bytes(8 * count))
        self._kind = array("b", [KIND_NONE]) * count

    # -- lookups -------------------------------------------------------------

    def get_rows(self, old_rows, new_rows) -> Tuple[object, object]:
        """The cached scores of pairs given by their rows in the table
        (int64 arrays or sequences of ints), each pair at most once:
        their scores in order (NaN where missing; a float64 array, or a
        stdlib array without numpy) and the positions of the misses,
        ascending.

        A pair of the table is read off the pair-id arrays
        (:meth:`~repro.core.pairtable.PairTable.pids_of_rows`); only a
        pair off it is looked up, by its key, in the lazy LRU, which a
        hit refreshes.  Each pair counts one hit or one miss."""
        table = self.table
        width, lazy = table.width, self._lazy
        np = numpy_or_none()
        if np is None:
            values, missing = array("d"), []
            for position, (old_row, new_row) in enumerate(
                zip(old_rows, new_rows)
            ):
                pid = table.pid_of_rows(old_row, new_row)
                if pid >= 0:
                    exact = self._kind[pid] == _EXACT
                    score = self._value[pid] if exact else None
                else:
                    key = old_row * width + new_row
                    score = lazy.get(key)
                    if score is not None:
                        lazy.move_to_end(key)
                if score is None:
                    missing.append(position)
                values.append(NAN if score is None else score)
        else:
            old_rows = np.asarray(old_rows, dtype=np.int64)
            new_rows = np.asarray(new_rows, dtype=np.int64)
            pids = table.pids_of_rows(old_rows, new_rows)
            found = pids >= 0
            found[found] = view(self._kind, np.int8)[pids[found]] == _EXACT
            values = np.full(len(pids), NAN)
            values[found] = view(self._value, np.float64)[pids[found]]
            if lazy:
                off = np.flatnonzero(pids < 0)
                keys = old_rows[off] * width + new_rows[off]
                hit_at, hit_scores = [], []
                for position, key in zip(off.tolist(), keys.tolist()):
                    score = lazy.get(key)
                    if score is not None:
                        lazy.move_to_end(key)
                        hit_at.append(position)
                        hit_scores.append(score)
                values[hit_at] = hit_scores
                found[hit_at] = True
            missing = np.flatnonzero(~found)
        self.misses += len(missing)
        self.hits += len(values) - len(missing)
        return values, missing

    def __len__(self) -> int:
        return self.num_pinned + len(self._lazy)

    # -- insertion -----------------------------------------------------------

    def add_rows(self, old_rows, new_rows, scores) -> None:
        """Store exact scores of pairs given by their rows in the table
        (as :meth:`get_rows` takes them), in order, each in its pair's
        home: a pair of the table is pinned in the pair-id arrays, any
        other pair joins the lazy LRU under its key, evicting the least
        recently used beyond ``max_lazy_entries``."""
        table = self.table
        width = table.width
        np = numpy_or_none()
        if np is None:
            keys, lazy_scores = [], []
            for old_row, new_row, score in zip(old_rows, new_rows, scores):
                pid = table.pid_of_rows(old_row, new_row)
                if pid >= 0:
                    self._value[pid] = score
                    self._kind[pid] = _EXACT
                else:
                    keys.append(old_row * width + new_row)
                    lazy_scores.append(score)
        else:
            old_rows = np.asarray(old_rows, dtype=np.int64)
            new_rows = np.asarray(new_rows, dtype=np.int64)
            scores = np.asarray(scores, dtype=np.float64)
            pids = table.pids_of_rows(old_rows, new_rows)
            pinned = pids >= 0
            view(self._value, np.float64)[pids[pinned]] = scores[pinned]
            view(self._kind, np.int8)[pids[pinned]] = _EXACT
            off = ~pinned
            keys = (old_rows[off] * width + new_rows[off]).tolist()
            lazy_scores = scores[off].tolist()
        lazy, cap = self._lazy, self.max_lazy_entries
        for key, score in zip(keys, lazy_scores):
            lazy[key] = score
            lazy.move_to_end(key)
            if cap is not None and len(lazy) > cap:
                lazy.popitem(last=False)
                self.evictions += 1

    # -- the resolver's buckets (repro.core.prematching) ----------------------

    def buckets(self, pids, cutoff: Optional[float]) -> Buckets:
        """Split candidates — pair ids, ascending — into the resolver's
        three buckets.  Each candidate counts one hit (pinned) or one
        miss.  With a ``cutoff`` (δ − ``MARGIN``; pruning on) a miss
        whose cached bound is below it stays pruned."""
        found = Buckets(pids)
        pruned = found.pruned
        np = numpy_or_none()
        if np is None:
            evaluate = []
            for pid in pids:
                kind = self._kind[pid]
                if kind == _EXACT:
                    continue
                if (
                    cutoff is not None and kind > _EXACT
                    and self._value[pid] < cutoff
                ):
                    pruned[KINDS[kind]] += 1
                else:
                    evaluate.append(pid)
            found.evaluate = evaluate
        elif len(pids):
            kinds = view(self._kind, np.int8)[pids]
            rest = kinds != _EXACT
            if cutoff is not None:
                held = kinds > _EXACT
                held &= view(self._value, np.float64)[pids] < cutoff
                counts = np.bincount(kinds[held], minlength=len(KINDS))
                for kind, count in zip(KINDS[1:], counts[1:].tolist()):
                    pruned[kind] += count
                rest &= ~held
            found.evaluate = pids[rest]
        misses = len(found.evaluate) + sum(pruned.values())
        self.hits += len(pids) - misses
        self.misses += misses
        return found

    def store(self, found: Buckets, values, kinds=None) -> int:
        """Keep the scorer's answers for ``found.evaluate`` — values, and
        the kind codes when pruning (``None``: every value is exact) —
        and return how many were exact.  Fresh bounds join
        ``found.pruned``."""
        np = numpy_or_none()
        if np is None:
            if kinds is None:
                kinds = array("b", [_EXACT]) * len(values)
            for pid, value, kind in zip(found.evaluate, values, kinds):
                self._value[pid] = value
                self._kind[pid] = kind
            tally = [kinds.count(code) for code in range(len(KINDS))]
        else:
            values = np.asarray(values)
            kinds = (
                np.zeros(len(values), np.int8) if kinds is None
                else np.asarray(kinds)
            )
            view(self._value, np.float64)[found.evaluate] = values
            view(self._kind, np.int8)[found.evaluate] = kinds
            tally = np.bincount(kinds, minlength=len(KINDS)).tolist()
        for code, kind in enumerate(KINDS[1:], start=1):
            found.pruned[kind] += tally[code]
        return tally[_EXACT]

    def reaching(self, pids, delta: float):
        """The pair ids among ``pids`` (ascending) whose pinned score
        reaches ``delta``, ascending (after :meth:`store`)."""
        np = numpy_or_none()
        if np is None:
            return [
                pid for pid in pids
                if self._kind[pid] == _EXACT and self._value[pid] >= delta
            ]
        pids = np.asarray(pids, dtype=np.int64)
        reach = view(self._kind, np.int8)[pids] == _EXACT
        reach &= view(self._value, np.float64)[pids] >= delta
        return pids[reach]

    def values(self, pids):
        """The pinned scores (or bounds) of the given pair ids, in order:
        a float64 array, or a list of floats without numpy."""
        np = numpy_or_none()
        if np is None:
            return list(map(self._value.__getitem__, pids))
        return view(self._value, np.float64)[np.asarray(pids, dtype=np.int64)]

    # -- row-space entries (repro.checkpoint.section) -------------------------

    def entries(self) -> Tuple[object, object, object, object]:
        """Every pinned score and bound as four columns in pair-id order
        — sorted pair order: old rows, new rows, values and kind codes
        (numpy arrays, or stdlib arrays without numpy)."""
        np = numpy_or_none()
        if np is None:
            pids = [
                pid for pid, kind in enumerate(self._kind) if kind != KIND_NONE
            ]
            return (
                *self.table.rows(pids),
                array("d", map(self._value.__getitem__, pids)),
                array("b", map(self._kind.__getitem__, pids)),
            )
        kinds = view(self._kind, np.int8)
        pids = np.flatnonzero(kinds != KIND_NONE)
        return (
            *self.table.rows(pids),
            view(self._value, np.float64)[pids],
            kinds[pids],
        )

    def seed(self, seed: CacheSeed) -> None:
        """Pre-populate a fresh cache with the scores and bounds of a
        :class:`repro.checkpoint.section.CacheSeed`, settled by an
        earlier run over the same (unchanged) records.

        The seed's rows index its own stored id lists.  Each stored id
        is mapped onto this table's rows with one dict lookup, and the
        entries onto pair ids with one ``searchsorted`` of their keys
        (:meth:`~repro.core.pairtable.PairTable.pids_of_rows`): no
        Python object is built per entry.  Entries of pairs off the
        table are dropped, and a bound never replaces a pinned score.
        Unlike a resume import this is *knowledge*, not *run state*:
        the hit/miss/eviction tallies stay untouched, so the seeded
        run's own effort counters remain meaningful.  Pre-matching then
        treats every seeded pair exactly as if it had been scored in an
        earlier δ round: pinned pairs skip scoring outright, bounded
        pairs stay pruned while the bound clears the round's cutoff and
        are re-evaluated fresh otherwise — which is why seeding can
        never change a link decision.  Seed after :meth:`attach` (it
        raises before).
        """
        table = self.table
        if table is None:
            raise ValueError("import scores after attaching the pair table")
        if not seed.num_entries or not len(table):
            return
        old_rows, new_rows = (
            [index.get(record_id, -1) for record_id in ids]
            for index, ids in (
                (table.old_index, seed.old_ids),
                (table.new_index, seed.new_ids),
            )
        )
        np = numpy_or_none()
        if np is None:
            for old_row, new_row, value, kind in zip(
                seed.old_row, seed.new_row, seed.value, seed.kind
            ):
                pid = table.pid_of_rows(old_rows[old_row], new_rows[new_row])
                if pid < 0 or (kind != _EXACT and self._kind[pid] == _EXACT):
                    continue
                self._value[pid] = value
                self._kind[pid] = kind
            return
        pids = table.pids_of_rows(
            np.array(old_rows, np.int64)[seed.old_row],
            np.array(new_rows, np.int64)[seed.new_row],
        )
        kinds = view(self._kind, np.int8)
        keep = pids >= 0
        keep &= (seed.kind == _EXACT) | (kinds[pids] != _EXACT)
        view(self._value, np.float64)[pids[keep]] = seed.value[keep]
        kinds[pids[keep]] = seed.kind[keep]

    # -- checkpoint export / import -------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """The complete cache as a JSON-safe document (run checkpoints).

        The pinned scores and bounds are the table's id lists and the
        packed section of :meth:`entries`
        (:func:`repro.checkpoint.section.cache_parts`), written whole
        each time: their pair-id order is fixed by the entries, so two
        caches holding the same entries export the same bytes.  Lazy
        entries are ``[old_id, new_id, score]`` rows in LRU order (least
        recently used first), each key mapped back to its ids, as
        :func:`compress_rows` parts, so a restored cache evicts in
        exactly the order the original would have.  The
        hit/miss/eviction tallies ride along so a resumed run's counters
        continue where the interrupted run stopped.
        """
        old_ids, new_ids = self.table.old_ids, self.table.new_ids
        width = self.table.width
        lazy_rows = [
            [old_ids[key // width], new_ids[key % width], score]
            for key, score in self._lazy.items()
        ]
        return {
            **cache_parts(self),
            "lazy": [compress_rows(lazy_rows)] if lazy_rows else [],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    @classmethod
    def from_export(
        cls,
        document: Dict[str, object],
        entries: CacheSeed,
        lazy_rows: Sequence[Sequence[object]],
        table: PairTable,
        max_lazy_entries: Optional[int] = DEFAULT_MAX_LAZY_ENTRIES,
    ) -> "SimilarityCache":
        """Rebuild a cache from :meth:`export_state` output over the
        run's pair table.  ``entries`` is the document's section and
        ``lazy_rows`` its lazy rows, each decoded and checked once by
        the loader (:attr:`repro.checkpoint.RunState.cache_entries` and
        :attr:`~repro.checkpoint.RunState.cache_lazy`).

        The entries are seeded (:meth:`seed`), the lazy rows mapped to
        keys and replayed in order and the tallies restored, so the
        cache is observationally identical to the exported one: same
        entries, same LRU order, same bounds, same tallies.  A resumed
        pipeline run thus replays the exact hit/miss/eviction sequence
        an uninterrupted run would have produced.  Entries that break
        the one-home rule — section entries of pairs off the table, lazy
        rows of blocked pairs — and lazy rows whose ids are not rows of
        the table are dropped: their pairs are scored again when asked,
        with the same result.
        """
        cache = cls(max_lazy_entries=max_lazy_entries)
        cache.attach(table)
        cache.seed(entries)
        for old_id, new_id, score in lazy_rows:
            old_row = table.old_index.get(old_id, -1)
            new_row = table.new_index.get(new_id, -1)
            if (
                old_row >= 0 and new_row >= 0
                and table.pid_of_rows(old_row, new_row) < 0
            ):
                cache._lazy[old_row * table.width + new_row] = score
        cache.hits = document["hits"]
        cache.misses = document["misses"]
        cache.evictions = document["evictions"]
        return cache

    # -- introspection -------------------------------------------------------

    @property
    def num_pinned(self) -> int:
        return self._kind.count(_EXACT)

    @property
    def num_lazy(self) -> int:
        return len(self._lazy)

    @property
    def num_bounds(self) -> int:
        kinds = self._kind
        return len(kinds) - kinds.count(KIND_NONE) - kinds.count(_EXACT)

    def counters(self) -> Dict[str, int]:
        """Hit/miss/eviction tallies plus sizes, for instrumentation."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pinned": self.num_pinned,
            "lazy": len(self._lazy),
            "bounds": self.num_bounds,
        }

    def __repr__(self) -> str:
        return (
            f"SimilarityCache(pinned={self.num_pinned}, "
            f"lazy={len(self._lazy)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
