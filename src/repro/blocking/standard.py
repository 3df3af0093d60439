"""Key-based (standard) blocking, with multi-pass support.

Blocking partitions records by a key; only pairs sharing a key are
compared.  Multi-pass blocking unions the candidate pairs of several key
functions, so that a single noisy attribute does not lose a true match.

The blocker works in row space (:func:`join_blocks`): each record's key
is computed once per pass and coded as an integer, the two sides are
joined per code, and the passes are unioned as sorted integer pair keys
— a :class:`~repro.blocking.pairs.BlockedPairs`, which the pair table
adopts without mapping ids back to rows.  With numpy the join is a few
array operations; without it a plain loop gives the same keys.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..model.records import PersonRecord
from ..similarity.phonetic import soundex
from .pairs import BlockedPairs

BlockKeyFunction = Callable[[PersonRecord], str]

#: Prefix of keys that must never form a block.  Key functions return
#: :func:`no_block_key` when a record lacks the attributes the key is
#: built from; the per-record suffix keeps such records in singleton
#: "blocks" even under naive group-by-key consumers, so they can never
#: be lumped into one giant everyone-missing block.
NO_BLOCK_PREFIX = "\x00no-block"


def no_block_key(record: PersonRecord) -> str:
    """A key that joins no block: unique per record, skipped by
    :class:`StandardBlocker` outright."""
    return f"{NO_BLOCK_PREFIX}|{record.record_id}"


def surname_soundex_key(record: PersonRecord) -> str:
    """Soundex of the surname — tolerant to most spelling variation."""
    return soundex(record.surname or "")


def surname_soundex_initial_key(record: PersonRecord) -> str:
    """Surname Soundex plus first-name initial — a tighter pass."""
    initial = (record.first_name or "")[:1].lower()
    return f"{soundex(record.surname or '')}|{initial}"


def firstname_soundex_key(record: PersonRecord) -> str:
    """Soundex of the first name — recovers pairs with a changed surname
    (e.g. women after marriage)."""
    return soundex(record.first_name or "")


def sex_birthyear_key(record: PersonRecord, year: int = 0) -> str:
    """Sex plus approximate birth decade (needs the census year bound in).

    Records missing age or sex get a :func:`no_block_key`: an empty
    string here would group *every* such record under one shared key,
    turning the missing-data population into a single giant block for
    any consumer that does not special-case empty keys.
    """
    if record.age is None or record.sex is None:
        return no_block_key(record)
    birth = year - record.age
    return f"{record.sex}|{birth // 10}"


#: The default multi-pass key set used by the pipeline.  Surname Soundex
#: alone (no first-name initial) keeps pairs with a corrupted first
#: letter; the first-name pass recovers pairs whose surname changed
#: (women after marriage).
DEFAULT_KEY_FUNCTIONS: Tuple[BlockKeyFunction, ...] = (
    surname_soundex_key,
    firstname_soundex_key,
)


class StandardBlocker:
    """Multi-pass key-based blocking between two record collections.

    Empty keys never block (records with a missing key attribute produce
    no pairs in that pass).  Oversized blocks can be skipped via
    ``max_block_size`` to bound worst-case cost on very frequent keys.
    """

    def __init__(
        self,
        key_functions: Sequence[BlockKeyFunction] = DEFAULT_KEY_FUNCTIONS,
        max_block_size: int = 0,
    ) -> None:
        if not key_functions:
            raise ValueError("at least one key function is required")
        self.key_functions = tuple(key_functions)
        self.max_block_size = max_block_size

    def candidate_pairs(
        self,
        old_records: Sequence[PersonRecord],
        new_records: Sequence[PersonRecord],
    ) -> BlockedPairs:
        """Union of candidate (old id, new id) pairs over all passes."""
        return join_blocks(
            old_records, new_records, self.key_functions, self.max_block_size
        )

    def partition_keys(self, record: PersonRecord) -> Tuple[str, ...]:
        """The pass-tagged blocking keys this record can block under.

        The shard planner (:mod:`repro.sharding.planner`) closes shards
        over shared partition keys, so two records that could ever land
        in one block must share a key here.  Keys are tagged with the
        pass index: the same key *string* from different passes (e.g. a
        surname and a first-name Soundex colliding) joins different
        blocks, and must not conflate shard components.  ``no_block``
        keys are omitted — they never form a block.
        """
        keys: List[str] = []
        for pass_index, key_function in enumerate(self.key_functions):
            key = key_function(record)
            if key and not key.startswith(NO_BLOCK_PREFIX):
                keys.append(f"{pass_index}|{key}")
        return tuple(keys)


def join_blocks(
    old_records: Sequence[PersonRecord],
    new_records: Sequence[PersonRecord],
    key_functions: Sequence[BlockKeyFunction],
    max_block_size: int = 0,
    region: Optional[Callable[[PersonRecord], str]] = None,
) -> BlockedPairs:
    """The pairs of records that share a block on any pass, in row
    space over the sorted ids of each side.

    Each record's key is computed once per pass and coded over one
    vocabulary of pass-tagged keys shared by both sides; with
    ``region``, the record's region is folded into its codes, so blocks
    (and the size cap) never span two regions.  An empty or no-block
    key codes to -1 and joins nothing.  Old and new rows are joined per
    code, skipping blocks with more than ``max_block_size`` records on
    either side (0: no cap), and the passes are unioned as sorted,
    unique ``old_row * width + new_row`` keys.
    """
    # Imported here: repro.core imports this package at module load.
    from ..core.pairtable import numpy_or_none, sorted_unique

    old_ids, old_rows = _rows(old_records)
    new_ids, new_rows = _rows(new_records)
    vocabulary: Dict[tuple, int] = {}
    old = _codes(old_records, key_functions, vocabulary, region), old_rows
    new = _codes(new_records, key_functions, vocabulary, region), new_rows
    width = max(1, len(new_ids))
    np = numpy_or_none()
    if np is None:
        keys = _loop_join(old, new, len(vocabulary), max_block_size, width)
    else:
        keys = array("q", sorted_unique(_numpy_join(
            np, old, new, len(vocabulary), max_block_size, width
        )).tobytes())
    return BlockedPairs(old_ids, new_ids, keys)


def _rows(records: Sequence[PersonRecord]) -> Tuple[List[str], Sequence[int]]:
    """The sorted, unique ids of ``records`` and each record's row
    among them (a repeated id names one row)."""
    ids = [record.record_id for record in records]
    if all(left < right for left, right in zip(ids, ids[1:])):
        return ids, range(len(ids))
    sorted_ids = sorted(set(ids))
    row_of = {record_id: row for row, record_id in enumerate(sorted_ids)}
    return sorted_ids, [row_of[record_id] for record_id in ids]


def _codes(
    records: Sequence[PersonRecord],
    key_functions: Sequence[BlockKeyFunction],
    vocabulary: Dict[tuple, int],
    region: Optional[Callable[[PersonRecord], str]],
) -> List[List[int]]:
    """Per pass, one code per record: the index of the record's
    ``(pass, region, key)`` in ``vocabulary`` (added when new), or -1
    for a key that joins no block."""
    regions = (
        repeat("") if region is None else [region(record) for record in records]
    )
    codes: List[List[int]] = []
    for pass_index, key_function in enumerate(key_functions):
        pass_codes: List[int] = []
        for record, record_region in zip(records, regions):
            key = key_function(record)
            if key and not key.startswith(NO_BLOCK_PREFIX):
                pass_codes.append(vocabulary.setdefault(
                    (pass_index, record_region, key), len(vocabulary)
                ))
            else:
                pass_codes.append(-1)
        codes.append(pass_codes)
    return codes


def _numpy_join(np, old, new, num_codes, max_block_size, width):
    """The pair keys of the blocks (repeats included) from each side's
    per-pass codes and rows: the new side's entries sorted by code, with
    counts and offsets per code, then every old entry repeated once per
    new entry of its block."""
    (old_codes, old_rows), (new_codes, new_rows) = (
        _entries(np, codes, rows) for codes, rows in (old, new)
    )
    old_count = np.bincount(old_codes, minlength=num_codes)
    new_count = np.bincount(new_codes, minlength=num_codes)
    new_start = np.cumsum(new_count) - new_count
    new_rows = new_rows[np.argsort(new_codes)]
    partners = new_count
    if max_block_size:
        oversized = (old_count > max_block_size) | (new_count > max_block_size)
        partners = np.where(oversized, 0, new_count)
    repeats = partners[old_codes]
    run_start = np.repeat(np.cumsum(repeats) - repeats, repeats)
    positions = np.repeat(new_start[old_codes], repeats)
    positions += np.arange(len(positions)) - run_start
    return np.repeat(old_rows, repeats) * width + new_rows[positions]


def _entries(np, codes, rows):
    """A side's joinable ``(code, row)`` entries as two int64 arrays."""
    rows = np.tile(np.asarray(rows, dtype=np.int64), len(codes))
    codes = np.array(codes, dtype=np.int64).reshape(-1)
    joinable = codes >= 0
    return codes[joinable], rows[joinable]


def _loop_join(old, new, num_codes, max_block_size, width):
    """:func:`_numpy_join` as a plain loop over the blocks, sorted and
    deduplicated."""
    blocks = []
    for codes, rows in (old, new):
        members: List[List[int]] = [[] for _ in range(num_codes)]
        for pass_codes in codes:
            for code, row in zip(pass_codes, rows):
                if code >= 0:
                    members[code].append(row)
        blocks.append(members)
    keys = set()
    for old_rows, new_rows in zip(*blocks):
        if not old_rows or not new_rows:
            continue
        if max_block_size and (
            len(old_rows) > max_block_size or len(new_rows) > max_block_size
        ):
            continue
        keys.update(
            old_row * width + new_row
            for old_row in old_rows
            for new_row in new_rows
        )
    return array("q", sorted(keys))


class CrossProductBlocker:
    """No blocking: every (old, new) pair is a candidate.

    Matches the paper's literal description of pre-matching; only viable
    for small datasets, but useful as an exactness baseline in the
    blocking ablation benchmark.
    """

    def candidate_pairs(
        self,
        old_records: Sequence[PersonRecord],
        new_records: Sequence[PersonRecord],
    ) -> Set[Tuple[str, str]]:
        return {
            (old.record_id, new.record_id)
            for old in old_records
            for new in new_records
        }

    def partition_keys(self, record: PersonRecord) -> Tuple[str, ...]:
        """Every record shares one universal key: the cross product is a
        single block, so sharding degenerates to one shard — correct,
        just not scalable (which is the point of this blocker)."""
        return ("*",)
