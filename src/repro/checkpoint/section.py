"""The packed cache section: pinned scores and bounds in row space.

Both stores that persist a :class:`~repro.core.simcache.SimilarityCache`
— series pair states (:mod:`repro.checkpoint.series`) and run
checkpoints (:mod:`repro.checkpoint.state`) — keep its pinned scores
and pruning bounds in the row space of the run's
:class:`~repro.core.pairtable.PairTable`: the two sorted record-id lists
the table was built over (``old_ids``, ``new_ids``) and one **cache
section**, the base64 text of the zlib-compressed concatenation of four
fixed-width little-endian columns, one value per entry, entries in
pair-id order (strictly increasing ``(old_row, new_row)``):

=========  =======  ==================================================
column     type     meaning
=========  =======  ==================================================
old_row    uint32   index into ``old_ids``
new_row    uint32   index into ``new_ids``
value      float64  exact score, or pruning upper bound
kind       int8     index into ``repro.core.filtering.KINDS``: 0 is an
                    exact score, 1.. the filter that bounded the pair
=========  =======  ==================================================

so the order of ``KINDS`` is part of the format.  Writing reads the
columns straight from the cache's arrays
(:meth:`~repro.core.simcache.SimilarityCache.entries`), and reading
maps them onto a table
(:meth:`~repro.core.simcache.SimilarityCache.seed`): no Python object
is built per entry.  Each loader decodes and checks a section once; a
defect in it (a byte count that is not a whole number of entries, a row
outside its id list, entries out of order, an unknown kind code, bytes
that do not decompress) raises :class:`ValueError`, which the loader's
malformed block turns into :class:`~repro.checkpoint.CheckpointCorrupt`
naming the file.  Without numpy the same columns are stdlib arrays,
packed and read byte-identically.

A run checkpoint's cache document also holds the cache's *lazy* rows,
``[old_id, new_id, score]`` in LRU order (an order the section's
strictly increasing pairs cannot hold), as :func:`compress_rows` parts;
:func:`unpack_lazy_rows` decodes and checks them, with the same
:class:`ValueError` on a defect.
"""

from __future__ import annotations

import base64
import binascii
import json
import sys
import zlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: The columns of a packed cache section, in file order: (name, numpy
#: dtype, :mod:`array` typecode).  Each is fixed-width little-endian
#: with one value per entry (module docstring).
SECTION_COLUMNS = (
    ("old_row", "<u4", "I"),
    ("new_row", "<u4", "I"),
    ("value", "<f8", "d"),
    ("kind", "<i1", "b"),
)
#: Bytes of one entry over all columns.
SECTION_ENTRY_BYTES = 4 + 4 + 8 + 1
#: zlib level of lazy rows: they are extremely redundant (shared
#: record-id prefixes), so the fastest level already shrinks them ~8×.
ROWS_COMPRESSION_LEVEL = 1
#: zlib level of the section, the fastest: on the ``evolve`` benchmark's
#: states level 6 writes 17% fewer bytes in 2.3 times the time.  The
#: float64 values are most of the compressed bytes at any level.
SECTION_COMPRESSION_LEVEL = 1


def _numpy():
    # Imported lazily: repro.core.pipeline imports this package at module
    # load, so it must not import repro.core back at its own.
    from ..core.pairtable import numpy_or_none

    return numpy_or_none()


@dataclass(frozen=True)
class CacheSeed:
    """Similarity knowledge in the row space of a stored run's pair
    table, to pre-populate a
    :class:`~repro.core.simcache.SimilarityCache` with
    (:meth:`~repro.core.simcache.SimilarityCache.seed`).

    ``old_ids``/``new_ids`` are the table's sorted record ids.  Entry
    ``i`` is the pair ``(old_ids[old_row[i]], new_ids[new_row[i]])``
    with ``value[i]``: its exact score when ``kind[i]`` is 0, else an
    upper bound from the filter ``repro.core.filtering.KINDS[kind[i]]``.
    Entries run in strictly increasing ``(old_row, new_row)`` order.
    The columns are numpy arrays, or stdlib arrays without numpy.  Both
    kinds of entry are facts about record content only, so replaying
    them is indistinguishable from having scored the pairs in an
    earlier δ round.
    """

    old_ids: Sequence[str] = ()
    new_ids: Sequence[str] = ()
    old_row: Sequence[int] = ()
    new_row: Sequence[int] = ()
    value: Sequence[float] = ()
    kind: Sequence[int] = ()

    @property
    def num_entries(self) -> int:
        return len(self.kind)


def pack_section(columns: Sequence[Sequence]) -> str:
    """The packed cache section of four entry columns (old rows, new
    rows, values, kind codes; :data:`SECTION_COLUMNS`): "" when there
    are no entries."""
    if not len(columns[0]):
        return ""
    np = _numpy()
    if np is None:
        parts = []
        for (_, _, typecode), column in zip(SECTION_COLUMNS, columns):
            packed = array(typecode, column)
            if sys.byteorder == "big":
                packed.byteswap()
            parts.append(packed.tobytes())
    else:
        parts = [
            np.asarray(column).astype(dtype, copy=False).tobytes()
            for (_, dtype, _), column in zip(SECTION_COLUMNS, columns)
        ]
    return base64.b64encode(
        zlib.compress(b"".join(parts), SECTION_COMPRESSION_LEVEL)
    ).decode("ascii")


def unpack_section(
    old_ids: Sequence[str], new_ids: Sequence[str], text: str
) -> CacheSeed:
    """Every entry of a packed cache section over its stored id lists,
    checked: a defect raises :class:`ValueError` (the loader's
    malformed block turns it into :class:`CheckpointCorrupt`)."""
    for ids in (old_ids, new_ids):
        if not all(isinstance(record_id, str) for record_id in ids) or any(
            left >= right for left, right in zip(ids, ids[1:])
        ):
            raise ValueError("stored record ids must be sorted unique strings")
    if not isinstance(text, str):
        raise ValueError("cache section must be a string")
    if not text:
        return CacheSeed(old_ids, new_ids)
    try:
        data = zlib.decompress(base64.b64decode(text, validate=True))
    except zlib.error as error:
        raise ValueError(
            f"cache section does not decompress: {error}"
        ) from None
    count, rest = divmod(len(data), SECTION_ENTRY_BYTES)
    if rest:
        raise ValueError(
            f"cache section holds {len(data)} bytes, not a whole number "
            f"of {SECTION_ENTRY_BYTES}-byte entries"
        )
    np = _numpy()
    columns, offset = [], 0
    for _, dtype, typecode in SECTION_COLUMNS:
        if np is None:
            column = array(typecode)
            column.frombytes(data[offset:offset + column.itemsize * count])
            if sys.byteorder == "big":
                column.byteswap()
        else:
            column = np.frombuffer(data, dtype, count=count, offset=offset)
        columns.append(column)
        offset += column.itemsize * count
    old_row, new_row, _, kind = columns
    _check_entries(old_row, new_row, kind, len(old_ids), len(new_ids))
    return CacheSeed(old_ids, new_ids, *columns)


def _check_entries(old_row, new_row, kind, old_count, new_count) -> None:
    """Raise :class:`ValueError` unless every row lies inside its id
    list, the entries strictly increase in ``(old_row, new_row)`` and
    every kind code indexes ``KINDS``."""
    from ..core.filtering import KINDS  # see _numpy

    if not len(kind):
        return
    np = _numpy()
    if np is None:
        outside = max(old_row) >= old_count or max(new_row) >= new_count
        keys = [old * new_count + new for old, new in zip(old_row, new_row)]
        unordered = any(left >= right for left, right in zip(keys, keys[1:]))
        unknown = min(kind) < 0 or max(kind) >= len(KINDS)
    else:
        outside = old_row.max() >= old_count or new_row.max() >= new_count
        keys = old_row.astype(np.int64) * new_count + new_row
        unordered = bool((keys[1:] <= keys[:-1]).any())
        unknown = kind.min() < 0 or kind.max() >= len(KINDS)
    if outside:
        raise ValueError("cache section row index outside its id list")
    if unordered:
        raise ValueError(
            "cache section entries are not strictly increasing in "
            "(old row, new row)"
        )
    if unknown:
        raise ValueError("cache section kind code is not an index of KINDS")


def cache_parts(cache) -> Dict[str, object]:
    """The id lists and the packed section of ``cache``'s pinned scores
    and pruning bounds, read straight from its pair-id arrays: the
    ``old_ids``, ``new_ids`` and ``cache`` fields of a pair state and of
    a run checkpoint's cache document."""
    return {
        "old_ids": cache.table.old_ids,
        "new_ids": cache.table.new_ids,
        "cache": pack_section(cache.entries()),
    }


def compress_rows(rows: Sequence[Sequence[object]]) -> str:
    """One self-contained part of rows: compact JSON → zlib → base64."""
    body = json.dumps(rows, separators=(",", ":"))
    return base64.b64encode(
        zlib.compress(body.encode("ascii"), ROWS_COMPRESSION_LEVEL)
    ).decode("ascii")


def unpack_lazy_rows(parts: Sequence[str]) -> List[list]:
    """The ``[old_id, new_id, score]`` rows of a cache document's
    ``lazy`` parts, in order, checked: a part that is not base64 of
    zlib-compressed JSON rows, or a row that is not two ids and a
    number, raises :class:`ValueError` (see :func:`unpack_section`)."""
    if not isinstance(parts, list):
        raise ValueError("lazy rows must be a list of parts")
    rows: List[list] = []
    for part in parts:
        try:
            data = base64.b64decode(part, validate=True)
        except binascii.Error as error:
            raise ValueError(f"lazy rows are not base64: {error}") from None
        try:
            body = zlib.decompress(data)
        except zlib.error as error:
            raise ValueError(f"lazy rows do not decompress: {error}") from None
        rows.extend(json.loads(body.decode("ascii")))
    for row in rows:
        if not (
            isinstance(row, list)
            and len(row) == 3
            and isinstance(row[0], str)
            and isinstance(row[1], str)
            and isinstance(row[2], (int, float))
            and not isinstance(row[2], bool)
        ):
            raise ValueError(
                f"lazy row {row!r} is not [old_id, new_id, number]"
            )
    return rows
