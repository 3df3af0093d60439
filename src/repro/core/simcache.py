"""Cross-iteration similarity cache for the pre-matching hot path (§3.2).

``agg_sim`` (Eq. 3) does not depend on the threshold δ — only the cut-off
test does — so the iterative schedule of Alg. 1 can score each candidate
pair once and re-test the cached value every round.  The cache also backs
the lazy lookups of the group stage
(:meth:`repro.core.prematching.PreMatchResult.pair_sims`: subgraph vertex
assignment and Eq. 5 scoring) and, when the remaining pass (Alg. 1 line
17) runs with the same attribute weights, the final attribute-only
matching as well.

Every score has one home, set by whether its pair is one of the shard's
blocked pairs — the :class:`~repro.core.pairtable.PairTable` attached
once per shard (:meth:`SimilarityCache.attach`):

* a **blocked pair** keeps its exact score or its bound in two arrays
  aligned with pair ids — a value and a kind (:data:`KIND_NONE`, or the
  code of an outcome kind, :data:`repro.core.filtering.KINDS`).  An
  exact score there is *pinned*: never evicted, whether the resolver
  scored the pair or a lazy lookup did.  Their number is bounded by
  blocking, and they are exactly the pairs re-tested every δ round.
* any **other pair** — same-cluster household members that blocking
  never proposed, remaining-pass pairs that re-blocking the leftovers
  proposes afresh — keeps only an exact score, in an LRU of at most
  ``max_lazy_entries``; an evicted pair is simply re-scored on next use.

The candidate-pruning engine (:mod:`repro.core.filtering`) adds a
weaker kind of knowledge: an *upper bound* on a blocked pair's
similarity, recorded when a filter rejected the pair against some
round's δ.  Bounds are δ-independent facts, so they are cached **per
bound, not per round**: a later round with a lower δ first consults the
cached bound and only re-runs the engine when it no longer rules the
pair out.  A bound is superseded the moment the pair's exact score is
pinned.  The pre-matching resolver splits a round's candidates into its
three buckets with masks over the arrays (:meth:`SimilarityCache.buckets`,
``store``, ``matches``).  Scores leave the arrays as Python floats.

Run checkpoints (:meth:`SimilarityCache.export_state`) and series pair
states carry pinned scores and bounds in one form, row space: the
columns of :meth:`SimilarityCache.entries` over the table's sorted id
lists, packed as one section (:mod:`repro.checkpoint.section`) and
seeded back by :meth:`SimilarityCache.seed` without a Python object per
entry.  Importing needs the table — it raises before ``attach`` — and
drops the entries of pairs off it.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..checkpoint.section import CacheSeed, cache_parts, compress_rows
from .filtering import KIND_CODES, KINDS
from .pairtable import PairTable, numpy_or_none, view

#: (old record id, new record id) — the cache key.
PairKey = Tuple[str, str]

#: Default cap on lazily-added entries (~a few MiB of floats and keys).
DEFAULT_MAX_LAZY_ENTRIES = 200_000

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
        self.pids = pids
        #: Pair ids to hand to the scorer.
        self.evaluate = pids[:0]
        #: Pairs pruned per kind: by a cached bound, then fresh rejects.
        self.pruned: Dict[str, int] = dict.fromkeys(KINDS[1:], 0)


class SimilarityCache:
    """Bounded ``agg_sim`` memo keyed by (old id, new id) pairs.

    Each score has one home (module docstring): a pair of the attached
    :class:`~repro.core.pairtable.PairTable` keeps its pinned score or
    bound in the pair-id arrays, any other pair only an exact score in
    the lazy LRU.  ``get``/``get_many``, item access and ``peek`` read
    either home; item assignment and :meth:`add` store an exact score in
    its pair's home.  ``hits``/``misses``/``evictions`` tally every
    lookup: while ``evictions == 0``, every miss that was scored added
    one entry, so no pair was scored twice.
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
        # Exact scores of pairs off the table, least recently used first.
        self._lazy: "OrderedDict[PairKey, float]" = OrderedDict()
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

    def _pid(self, key: PairKey) -> int:
        return -1 if self.table is None else self.table.pid(*key)

    def _pids_of(self, rows: Sequence[Sequence[object]]) -> List[int]:
        """The pair id (or -1) of each row's ``(row[0], row[1])`` pair."""
        if self.table is None:
            return [-1] * len(rows)
        if len(rows) < 64:  # a batch lookup costs more than a few bisects
            return [self.table.pid(row[0], row[1]) for row in rows]
        return _as_list(self.table.pids(rows))

    # -- lookups -------------------------------------------------------------

    def peek(self, key: PairKey) -> Optional[float]:
        """Cached score without side effects: no hit/miss tally and no
        LRU refresh.  Used by the validation layer, which must observe
        the cache without altering eviction order or instrumentation."""
        pid = self._pid(key)
        if pid < 0:
            return self._lazy.get(key)
        return self._value[pid] if self._kind[pid] == _EXACT else None

    def get(self, key: PairKey, default: Optional[float] = None) -> Optional[float]:
        """Cached score for ``key``, counting a hit or a miss."""
        score = self.peek(key)
        if score is None:
            self.misses += 1
            return default
        if key in self._lazy:
            self._lazy.move_to_end(key)  # LRU refresh
        self.hits += 1
        return score

    def get_many(
        self, keys: Sequence[PairKey]
    ) -> Tuple[Dict[PairKey, float], List[PairKey]]:
        """:meth:`get` for every key, in order: the found scores, and the
        keys that missed (in order, repeats kept)."""
        np = numpy_or_none()
        if self.table is None or np is None or not len(self.table):
            found: Dict[PairKey, float] = {}
            missing: List[PairKey] = []
            for key in keys:
                score = self.get(key)
                if score is None:
                    missing.append(key)
                else:
                    found[key] = score
            return found, missing
        pids = self.table.pids(keys)
        safe = np.maximum(pids, 0)
        exact = (pids >= 0) & (view(self._kind, np.int8)[safe] == _EXACT)
        found = dict(compress(
            zip(keys, view(self._value, np.float64)[safe].tolist()),
            exact.tolist(),
        ))
        missing = []
        for position in np.flatnonzero(~exact).tolist():
            key = keys[position]
            score = self._lazy.get(key)
            if score is None:
                missing.append(key)
            else:
                self._lazy.move_to_end(key)
                found[key] = score
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return found, missing

    def __getitem__(self, key: PairKey) -> float:
        score = self.get(key)
        if score is None:
            raise KeyError(key)
        return score

    def __contains__(self, key: PairKey) -> bool:
        """Membership test; does not touch the hit/miss tallies."""
        return self.peek(key) is not None

    def __len__(self) -> int:
        return self.num_pinned + len(self._lazy)

    def _pinned_pids(self) -> List[int]:
        """Pair ids holding a pinned score, ascending."""
        np = numpy_or_none()
        if np is None:
            return [
                pid for pid, kind in enumerate(self._kind) if kind == _EXACT
            ]
        return np.flatnonzero(view(self._kind, np.int8) == _EXACT).tolist()

    def items(self) -> Iterator[Tuple[PairKey, float]]:
        """All (pair, score) entries, pinned first."""
        pids = self._pinned_pids()
        if pids:
            yield from zip(
                self.table.pairs(pids), map(self._value.__getitem__, pids)
            )
        yield from self._lazy.items()

    # -- insertion -----------------------------------------------------------

    def __setitem__(self, key: PairKey, score: float) -> None:
        """:meth:`add` for one pair."""
        self.add([key], [score])

    def add(self, keys: Sequence[PairKey], scores: Sequence[float]) -> None:
        """Store exact scores, in order, each in its pair's home: a
        blocked pair's is pinned, any other pair's joins the lazy LRU,
        evicting the least recently used beyond ``max_lazy_entries``."""
        for key, pid, score in zip(keys, self._pids_of(keys), scores):
            if pid >= 0:
                self._value[pid] = score
                self._kind[pid] = _EXACT
                continue
            self._lazy[key] = score
            self._lazy.move_to_end(key)
            if (
                self.max_lazy_entries is not None
                and len(self._lazy) > self.max_lazy_entries
            ):
                self._lazy.popitem(last=False)
                self.evictions += 1

    # -- the resolver's buckets (repro.core.prematching) ----------------------

    def buckets(self, pids, cutoff: Optional[float]) -> Buckets:
        """Split candidates — pair ids, ascending — into the resolver's
        three buckets.  Each candidate counts one hit (pinned) or one
        miss.  With a ``cutoff`` (δ − margin; pruning on) a miss whose
        cached bound is below it stays pruned."""
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

    def matches(self, found: Buckets, delta: float) -> Dict[PairKey, float]:
        """The candidates' pinned scores that reach ``delta``, in sorted
        pair order (after :meth:`store`)."""
        pids = found.pids
        np = numpy_or_none()
        if np is None:
            selected = [
                pid for pid in pids
                if self._kind[pid] == _EXACT and self._value[pid] >= delta
            ]
            scores = list(map(self._value.__getitem__, selected))
        elif len(pids):
            values = view(self._value, np.float64)[pids]
            reach = view(self._kind, np.int8)[pids] == _EXACT
            reach &= values >= delta
            selected, scores = pids[reach], values[reach].tolist()
        else:
            selected, scores = pids, []
        return dict(zip(self.table.pairs(selected), scores))

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
        recently used first), as :func:`compress_rows` parts, so a
        restored cache evicts in exactly the order the original would
        have.  The hit/miss/eviction tallies ride along so a resumed
        run's counters continue where the interrupted run stopped.
        """
        lazy_rows = [
            [old_id, new_id, score]
            for (old_id, new_id), score in self._lazy.items()
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

        The entries are seeded (:meth:`seed`), the lazy rows replayed in
        order and the tallies restored, so the cache is observationally
        identical to the exported one: same entries, same LRU order,
        same bounds, same tallies.  A resumed pipeline run thus replays
        the exact hit/miss/eviction sequence an uninterrupted run would
        have produced.  Entries that break the one-home rule — section
        entries of pairs off the table, lazy rows of blocked pairs — are
        dropped: their pairs are scored again when asked, with the same
        result.
        """
        cache = cls(max_lazy_entries=max_lazy_entries)
        cache.attach(table)
        cache.seed(entries)
        cache._lazy.update(
            ((row[0], row[1]), row[2])
            for row, pid in zip(lazy_rows, cache._pids_of(lazy_rows))
            if pid < 0
        )
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
