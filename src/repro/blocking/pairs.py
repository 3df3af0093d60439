"""Candidate-pair utilities shared by blockers and matchers."""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import abc
from typing import Dict, Iterable, Iterator, List, Protocol, Sequence, Set, Tuple

from ..model.records import PersonRecord
from ..similarity.vector import SimilarityFunction

#: (old record id, new record id).
PairKey = Tuple[str, str]


class Blocker(Protocol):
    """Anything that proposes candidate (old id, new id) pairs."""

    def candidate_pairs(
        self,
        old_records: Sequence[PersonRecord],
        new_records: Sequence[PersonRecord],
    ) -> abc.Set[PairKey]:
        ...


def _row(ids: Sequence[str], record_id: object) -> int:
    """The position of ``record_id`` in the sorted ``ids``, or -1."""
    position = bisect_left(ids, record_id)
    if position < len(ids) and ids[position] == record_id:
        return position
    return -1


class BlockedPairs(abc.Set):
    """Blocked ``(old_id, new_id)`` pairs in row space.

    A record's *row* is its position in one of two sorted, unique id
    lists, ``old_ids`` and ``new_ids``.  Pair ``(old_ids[o],
    new_ids[n])`` is the integer key ``o * width + n`` (``width`` is the
    number of new ids, at least 1), and :attr:`keys` holds every pair's
    key once, ascending, in an ``array('q')``.  That is the form
    :class:`repro.core.pairtable.PairTable` interns, so a table over the
    same id lists adopts the keys as they are, and the remaining pass
    filters them on row arrays.

    As a set of id tuples it iterates in sorted pair order, answers
    ``in`` by bisecting the id lists and the keys, and compares equal to
    any set of the same pairs.  ``|``, ``&`` and ``-`` return a plain
    ``set``.  Immutable once built.
    """

    def __init__(
        self, old_ids: List[str], new_ids: List[str], keys: array
    ) -> None:
        self.old_ids = old_ids
        self.new_ids = new_ids
        self.width = max(1, len(new_ids))
        self.keys = keys

    @classmethod
    def _from_iterable(cls, iterable: Iterable[PairKey]) -> Set[PairKey]:
        return set(iterable)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[PairKey]:
        old_ids, new_ids, width = self.old_ids, self.new_ids, self.width
        for key in self.keys:
            old_row, new_row = divmod(key, width)
            yield old_ids[old_row], new_ids[new_row]

    def __contains__(self, pair: object) -> bool:
        try:
            old_id, new_id = pair
            old_row = _row(self.old_ids, old_id)
            new_row = _row(self.new_ids, new_id)
        except (TypeError, ValueError):  # not a pair of strings
            return False
        if old_row < 0 or new_row < 0:
            return False
        key = old_row * self.width + new_row
        position = bisect_left(self.keys, key)
        return position < len(self.keys) and self.keys[position] == key

    def __repr__(self) -> str:
        return (
            f"BlockedPairs({len(self)} pairs over {len(self.old_ids)} x "
            f"{len(self.new_ids)} rows)"
        )


class UnionBlocker:
    """Union of several blockers' candidate pairs (multi-source blocking).

    Each member contributes its full pair set, so the union's recall is
    at least every member's — e.g. ``"standard+qgram"`` runs the phonetic
    passes alongside the inverted q-gram index
    (:class:`repro.blocking.qgram_index.QGramIndexBlocker`).
    """

    def __init__(self, blockers: Sequence[Blocker]) -> None:
        if not blockers:
            raise ValueError("at least one blocker is required")
        self.blockers = tuple(blockers)

    def candidate_pairs(
        self,
        old_records: Sequence[PersonRecord],
        new_records: Sequence[PersonRecord],
    ) -> Set[PairKey]:
        pairs: Set[PairKey] = set()
        for blocker in self.blockers:
            pairs.update(blocker.candidate_pairs(old_records, new_records))
        return pairs

    def partition_keys(self, record: PersonRecord) -> Tuple[str, ...]:
        """Member keys tagged by member index (shard-planner protocol;
        see :meth:`repro.blocking.standard.StandardBlocker.partition_keys`).
        Raises :class:`TypeError` when a member blocker does not support
        key partitioning (e.g. the q-gram index)."""
        keys: List[str] = []
        for index, blocker in enumerate(self.blockers):
            member_keys = getattr(blocker, "partition_keys", None)
            if member_keys is None:
                raise TypeError(
                    f"blocker {type(blocker).__name__} does not support "
                    f"partition_keys; sharded runs need a key-partitionable "
                    f"blocker (standard, cross, region)"
                )
            keys.extend(f"u{index}|{key}" for key in member_keys(record))
        return tuple(keys)


def score_pairs(
    pairs: Iterable[Tuple[str, str]],
    old_index: Dict[str, PersonRecord],
    new_index: Dict[str, PersonRecord],
    sim_func: SimilarityFunction,
) -> Dict[Tuple[str, str], float]:
    """``agg_sim`` for every candidate pair (no threshold applied)."""
    return {
        (old_id, new_id): sim_func.agg_sim(old_index[old_id], new_index[new_id])
        for old_id, new_id in pairs
    }


def pairs_above_threshold(
    scores: Dict[Tuple[str, str], float], threshold: float
) -> List[Tuple[str, str]]:
    """Pairs whose score reaches ``threshold``, deterministically ordered."""
    return sorted(pair for pair, score in scores.items() if score >= threshold)


def reduction_ratio(
    num_candidates: int, num_old: int, num_new: int
) -> float:
    """Fraction of the full cross product avoided by blocking."""
    total = num_old * num_new
    if total == 0:
        return 0.0
    return 1.0 - num_candidates / total


def pairs_completeness(
    candidates: Set[Tuple[str, str]], true_pairs: Iterable[Tuple[str, str]]
) -> float:
    """Fraction of true matches surviving blocking (blocking recall)."""
    true_list = list(true_pairs)
    if not true_list:
        return 1.0
    found = sum(1 for pair in true_list if pair in candidates)
    return found / len(true_list)
