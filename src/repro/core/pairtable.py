"""A shard's blocked candidate pairs, interned once (§3.2 hot path).

Alg. 1 re-tests the blocked pairs of the still-unlinked records against
every δ of its schedule.  :class:`PairTable` interns them once, at the
shard's first visit: a record id becomes a *row* — its position in the
shard's sorted id list, the rows the pair scorer is built over — and a
blocked pair becomes a *pair id*, its position in two row arrays sorted
by ``(old_id, new_id)``.  That is the order every round has always
walked its candidates in, so tie-breaks and counter orders stay put.
The standard and region blockers already hand their pairs over in this
row space (:class:`~repro.blocking.pairs.BlockedPairs`: sorted integer
keys over the same sorted id lists), so interning them maps no id and
sorts nothing; other blockers' id pairs are mapped to rows once.

The similarity cache keeps each pair's pinned score or pruning bound in
arrays aligned with pair ids
(:class:`repro.core.simcache.SimilarityCache`), a round's frontier is
one boolean array per side, and the round selects its candidates with
one mask: no string pair is built, hashed or sorted on the round path.

Storage is stdlib :mod:`array` buffers.  With numpy installed the
vectorized steps view them zero-copy (:func:`view`); without it the
same arrays are walked by plain loops, each next to the numpy step it
replaces.  numpy is imported on first use, never at module load: the
query service imports this package and must stay numpy-free.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from ..blocking.pairs import BlockedPairs, PairKey

_UNSET = object()
_numpy = _UNSET


def numpy_or_none():
    """numpy, or ``None`` when it is not installed (imported on first
    use, so importing this module never loads it)."""
    global _numpy
    if _numpy is _UNSET:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
    return _numpy


def view(buffer, dtype):
    """A numpy array over ``buffer``'s memory (no copy); writes go
    through to the buffer."""
    return numpy_or_none().frombuffer(buffer, dtype=dtype)


def sorted_unique(keys):
    """The distinct values of an integer numpy array, ascending: one
    sort and an adjacent-difference mask.  Plain ``np.unique`` gives the
    same values, but since numpy 2.3 it finds them by hashing, which is
    15-30x slower on pair keys, and its first call imports
    ``numpy.ma``.  Membership in the result is a ``searchsorted``
    (:func:`sorted_member`)."""
    import numpy as np  # called on numpy arrays only, on either fork

    keys = np.sort(keys)
    if len(keys) > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def sorted_member(values, keys):
    """Whether each of ``values`` is among ``keys``, a sorted, unique
    numpy array (:func:`sorted_unique`): one ``searchsorted``, where
    ``np.isin`` would sort both sides and import ``numpy.ma``."""
    import numpy as np  # called on numpy arrays only, on either fork

    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    positions = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[positions] == values


def _sorted_ids(ids: Sequence[str], side: str) -> List[str]:
    ids = list(ids)
    if any(left >= right for left, right in zip(ids, ids[1:])):
        raise ValueError(
            f"{side} record ids must be unique and sorted: pair ids "
            "follow (old_id, new_id) order only over sorted rows"
        )
    return ids


class PairTable:
    """The blocked ``(old_id, new_id)`` pairs over two sorted id lists.

    ``old_ids``/``new_ids`` are the row spaces; pair ``p`` is
    ``(old_ids[old_row[p]], new_ids[new_row[p]])``, and pair ids run in
    sorted pair order.  ``keys[p] = old_row[p] * width + new_row[p]``
    (``width`` = number of new rows) is the sorted integer form used to
    look pairs up.  A table is immutable once built.
    """

    def __init__(
        self,
        old_ids: Sequence[str],
        new_ids: Sequence[str],
        pairs: Iterable[PairKey],
    ) -> None:
        """Intern ``pairs`` (ids of the two row spaces) as sorted,
        unique keys: a :class:`BlockedPairs` over these id lists hands
        over its keys as they are, any other collection of id pairs is
        mapped to rows first (:meth:`_keys_of`)."""
        self.old_ids = _sorted_ids(old_ids, "old")
        self.new_ids = _sorted_ids(new_ids, "new")
        self.old_index: Dict[str, int] = {
            record_id: row for row, record_id in enumerate(self.old_ids)
        }
        self.new_index: Dict[str, int] = {
            record_id: row for row, record_id in enumerate(self.new_ids)
        }
        self.width = width = max(1, len(self.new_ids))
        if (
            isinstance(pairs, BlockedPairs)
            and pairs.old_ids == self.old_ids
            and pairs.new_ids == self.new_ids
        ):
            self.keys = pairs.keys
        else:
            self.keys = self._keys_of(pairs)
        self._nodes = None
        np = numpy_or_none()
        if np is None:
            self.old_row = array("q", [key // width for key in self.keys])
            self.new_row = array("q", [key % width for key in self.keys])
            return
        keys = view(self.keys, np.int64)
        self.old_row = array("q", (keys // width).tobytes())
        self.new_row = array("q", (keys % width).tobytes())

    def _keys_of(self, pairs: Iterable[PairKey]) -> array:
        """The sorted, unique keys of id pairs of this table's row spaces
        (a custom blocker's set, ``standard+qgram``, ``cross``): ids →
        rows, one key per pair, repeats dropped."""
        if not isinstance(pairs, (set, frozenset, list, tuple)):
            pairs = list(pairs)
        width = self.width
        np = numpy_or_none()
        if np is None:
            return array("q", sorted({
                self.old_index[old_id] * width + self.new_index[new_id]
                for old_id, new_id in pairs
            }))
        old_rows, new_rows = (
            np.fromiter(
                map(index.__getitem__, map(itemgetter(side), pairs)),
                np.int64, count=len(pairs),
            )
            for side, index in ((0, self.old_index), (1, self.new_index))
        )
        return array("q", sorted_unique(old_rows * width + new_rows).tobytes())

    def __len__(self) -> int:
        return len(self.keys)

    def check_scorer(self, scorer) -> None:
        """Raise unless ``scorer`` was built over this table's rows — the
        scorer is handed row indexes, so a streamed shard's re-encoded
        records must land on the same rows at every visit."""
        if scorer.old_ids != self.old_ids or scorer.new_ids != self.new_ids:
            raise RuntimeError(
                "pair scorer rows differ from the pair table's rows: the "
                "shard's records changed between visits"
            )

    # -- lookups ---------------------------------------------------------------

    def pid_of_rows(self, old_row: int, new_row: int) -> int:
        """The pair id of the pair at ``(old_row, new_row)``, or -1 when
        the table lacks it (or a row is negative)."""
        if old_row < 0 or new_row < 0:
            return -1
        key = old_row * self.width + new_row
        position = bisect_left(self.keys, key)
        if position < len(self.keys) and self.keys[position] == key:
            return position
        return -1

    def pids_of_rows(self, old_rows, new_rows):
        """:meth:`pid_of_rows` of int64 row arrays (numpy only): one
        ``searchsorted`` of their keys into :attr:`keys`."""
        np = numpy_or_none()
        if not len(self.keys):
            return np.full(len(old_rows), -1, dtype=np.int64)
        wanted = old_rows * self.width + new_rows
        keys = view(self.keys, np.int64)
        positions = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        found = (old_rows >= 0) & (new_rows >= 0) & (keys[positions] == wanted)
        return np.where(found, positions, -1)

    def split(
        self, pairs: BlockedPairs
    ) -> Tuple[object, Tuple[object, object]]:
        """Blocked pairs over sorted ids of this table's records as
        their pair ids (ascending) and the rows of the pairs the table
        lacks: old rows and new rows, in sorted pair order.  Each of the
        pairs' ids is mapped to this table's row once, then every pair's
        rows come from one gather and its pair id from one
        ``searchsorted`` (:meth:`pids_of_rows`)."""
        old_map, new_map = (
            array("q", [index.get(record_id, -1) for record_id in ids])
            for index, ids in (
                (self.old_index, pairs.old_ids),
                (self.new_index, pairs.new_ids),
            )
        )
        if -1 in old_map or -1 in new_map:
            raise ValueError(
                "every record of the pairs to split must be a record of "
                "the pair table"
            )
        width = pairs.width
        np = numpy_or_none()
        if np is None:
            pids, old_rows, new_rows = [], array("q"), array("q")
            for key in pairs.keys:
                old_row, new_row = divmod(key, width)
                old_row, new_row = old_map[old_row], new_map[new_row]
                pid = self.pid_of_rows(old_row, new_row)
                if pid >= 0:
                    pids.append(pid)
                else:
                    old_rows.append(old_row)
                    new_rows.append(new_row)
            return pids, (old_rows, new_rows)
        keys = view(pairs.keys, np.int64)
        old_rows = view(old_map, np.int64)[keys // width]
        new_rows = view(new_map, np.int64)[keys % width]
        pids = self.pids_of_rows(old_rows, new_rows)
        beyond = pids < 0
        return pids[~beyond], (old_rows[beyond], new_rows[beyond])

    def nodes(self) -> Tuple[array, array, List[str]]:
        """The table's records as *nodes*, numbered by their position in
        the sorted union of the two id lists: each old row's node, each
        new row's node, and the node ids.  An old and a new record with
        the same id are one node.  Computed once per table."""
        if self._nodes is None:
            node_ids = sorted(set(self.old_ids).union(self.new_ids))
            node_of = {record_id: node for node, record_id in enumerate(node_ids)}
            self._nodes = (
                array("q", map(node_of.__getitem__, self.old_ids)),
                array("q", map(node_of.__getitem__, self.new_ids)),
                node_ids,
            )
        return self._nodes

    def frontier(
        self, old_ids: Iterable[str], new_ids: Iterable[str]
    ) -> Tuple[bytearray, bytearray]:
        """One boolean array per side over the rows: set at the rows of
        the given ids (a round's frontier); ids off the table are
        skipped."""
        old_mask = bytearray(len(self.old_ids))
        new_mask = bytearray(len(self.new_ids))
        for mask, index, ids in (
            (old_mask, self.old_index, old_ids),
            (new_mask, self.new_index, new_ids),
        ):
            for record_id in ids:
                row = index.get(record_id)
                if row is not None:
                    mask[row] = 1
        return old_mask, new_mask

    def select(self, old_ids: Iterable[str], new_ids: Iterable[str]):
        """Pair ids, ascending, of the pairs whose two records are both
        among the given ids (a round's frontier)."""
        return self.select_rows(*self.frontier(old_ids, new_ids))

    def select_rows(self, old_mask: bytearray, new_mask: bytearray):
        """Pair ids, ascending, of the pairs whose two rows are both set
        in the :meth:`frontier` masks: one mask over the pairs."""
        np = numpy_or_none()
        if np is None:
            return [
                pid
                for pid, (old_row, new_row) in enumerate(
                    zip(self.old_row, self.new_row)
                )
                if old_mask[old_row] and new_mask[new_row]
            ]
        selected = view(old_mask, np.bool_)[view(self.old_row, np.int64)]
        selected &= view(new_mask, np.bool_)[view(self.new_row, np.int64)]
        return np.flatnonzero(selected)

    def rows(self, pids) -> Tuple[object, object]:
        """The old and new rows of the given pairs, in order."""
        np = numpy_or_none()
        if np is None:
            return (
                array("q", [self.old_row[pid] for pid in pids]),
                array("q", [self.new_row[pid] for pid in pids]),
            )
        return (
            view(self.old_row, np.int64)[pids],
            view(self.new_row, np.int64)[pids],
        )

    def rows_of(self, pairs: Sequence[PairKey]) -> Tuple[array, array]:
        """The old and new rows of id pairs of this table's row spaces
        (blocked or not), in order."""
        return (
            array("q", map(self.old_index.__getitem__, map(itemgetter(0), pairs))),
            array("q", map(self.new_index.__getitem__, map(itemgetter(1), pairs))),
        )

    def ids(self, pids) -> Tuple[List[str], List[str]]:
        """The old and new record ids of the given pair ids, in order."""
        old_rows, new_rows = self.rows(pids)
        return (
            list(map(self.old_ids.__getitem__, old_rows.tolist())),
            list(map(self.new_ids.__getitem__, new_rows.tolist())),
        )

    def pairs(self, pids) -> List[PairKey]:
        """The id pairs of the given pair ids, in order."""
        return list(zip(*self.ids(pids)))
