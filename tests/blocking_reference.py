"""The string-pair blocker: the reference the row-space join is checked
against.

:func:`repro.blocking.standard.join_blocks` codes each record's keys as
integers, joins rows per code and unions the passes as sorted integer
keys.  The functions here do the same work the plain way — one dict of
id lists per pass and side, the cross product of every shared block as
id tuples, the passes unioned as a set — and the remaining pass's age
filter as a loop over id pairs, so tests can require the same pairs
from both.
"""

from collections import defaultdict

from repro.blocking.region import record_region
from repro.blocking.standard import NO_BLOCK_PREFIX
from repro.similarity.numeric import normalised_age_difference


def index(records, key_function):
    """Record ids by block key; keys that join no block are left out."""
    blocks = defaultdict(list)
    for record in records:
        key = key_function(record)
        if key and not key.startswith(NO_BLOCK_PREFIX):
            blocks[key].append(record.record_id)
    return blocks


def candidate_pairs(old_records, new_records, key_functions,
                    max_block_size=0):
    """The union over passes of every shared block's ``(old_id,
    new_id)`` pairs, skipping blocks with more than ``max_block_size``
    records on either side (0: no cap)."""
    pairs = set()
    for key_function in key_functions:
        old_blocks = index(old_records, key_function)
        new_blocks = index(new_records, key_function)
        for key, old_ids in old_blocks.items():
            new_ids = new_blocks.get(key)
            if not new_ids:
                continue
            if max_block_size and (
                len(old_ids) > max_block_size or len(new_ids) > max_block_size
            ):
                continue
            pairs.update(
                (old_id, new_id) for old_id in old_ids for new_id in new_ids
            )
    return pairs


def region_candidate_pairs(old_records, new_records, key_functions,
                           max_block_size=0):
    """:func:`candidate_pairs` within each region both sides share."""
    old_by_region, new_by_region = defaultdict(list), defaultdict(list)
    for records, by_region in (
        (old_records, old_by_region), (new_records, new_by_region)
    ):
        for record in records:
            by_region[record_region(record)].append(record)
    pairs = set()
    for region, old_in_region in old_by_region.items():
        pairs |= candidate_pairs(
            old_in_region, new_by_region.get(region, []), key_functions,
            max_block_size,
        )
    return pairs


def plausible_pairs(pairs, old_index, new_index, year_gap, bound):
    """The remaining pass's age filter, one id pair at a time: the pairs
    whose normalised age difference is missing or at most ``bound``,
    sorted."""
    plausible = []
    for old_id, new_id in pairs:
        age_gap = normalised_age_difference(
            old_index[old_id].age, new_index[new_id].age, year_gap
        )
        if age_gap is not None and age_gap > bound:
            continue
        plausible.append((old_id, new_id))
    return sorted(plausible)
