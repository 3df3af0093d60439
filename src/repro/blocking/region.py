"""Region-local blocking: candidate pairs never cross a region boundary.

Country-scale data (:mod:`repro.datagen.country`) namespaces every
record id with its region (``lancashire::1871_12``).  The
:class:`RegionBlocker` groups both record collections by that prefix and
delegates to a base blocker *within* each region: two records from
different regions are never candidates, so the shard planner
(:mod:`repro.sharding.planner`) can place whole regions in different
shards with the decision-identity contract intact.

This is the documented scale trade-off of the paper's pre-matching
(§3.2): cross-region migration links are sacrificed for a candidate
space that is linear in the number of regions.  The base blocker's
behaviour (multi-pass phonetic keys, ``max_block_size`` skips) is
unchanged inside each region: over a
:class:`~repro.blocking.standard.StandardBlocker` (the default) the
base's row-space join runs once with the region folded into every
block key, and any other base runs once per region.
"""

from __future__ import annotations

from collections import abc, defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..model.records import PersonRecord
from .pairs import Blocker
from .standard import StandardBlocker, join_blocks


def record_region(record: PersonRecord) -> str:
    """The record's region prefix (``""`` for non-namespaced ids).

    Defined here (not imported from datagen) so that blocking stays
    importable without the generator package; the separator must match
    :data:`repro.datagen.country.REGION_SEP`.
    """
    record_id = record.record_id
    if "::" not in record_id:
        return ""
    return record_id.split("::", 1)[0]


class RegionBlocker:
    """Blocking restricted to region-local pairs (see module docstring)."""

    def __init__(self, base: Optional[Blocker] = None) -> None:
        self.base = base if base is not None else StandardBlocker()

    def _by_region(
        self, records: Sequence[PersonRecord]
    ) -> Dict[str, List[PersonRecord]]:
        """Records grouped by region (for a base that is not a
        :class:`StandardBlocker`)."""
        grouped: Dict[str, List[PersonRecord]] = defaultdict(list)
        for record in records:
            grouped[record_region(record)].append(record)
        return grouped

    def candidate_pairs(
        self,
        old_records: Sequence[PersonRecord],
        new_records: Sequence[PersonRecord],
    ) -> abc.Set[Tuple[str, str]]:
        """Union of the base blocker's pairs within each shared region."""
        if isinstance(self.base, StandardBlocker):
            return join_blocks(
                old_records, new_records, self.base.key_functions,
                self.base.max_block_size, region=record_region,
            )
        old_by_region = self._by_region(old_records)
        new_by_region = self._by_region(new_records)
        pairs: Set[Tuple[str, str]] = set()
        for region in sorted(old_by_region):
            new_in_region = new_by_region.get(region)
            if new_in_region:
                pairs.update(
                    self.base.candidate_pairs(
                        old_by_region[region], new_in_region
                    )
                )
        return pairs

    def partition_keys(self, record: PersonRecord) -> Tuple[str, ...]:
        """The base blocker's pass-tagged keys, region-tagged on top: the
        same phonetic key in two regions names two different blocks."""
        base_keys = getattr(self.base, "partition_keys", None)
        if base_keys is None:
            raise TypeError(
                f"base blocker {type(self.base).__name__} does not support "
                f"partition_keys; sharded runs need a key-partitionable "
                f"base (standard, cross)"
            )
        region = record_region(record)
        return tuple(f"{region}::{key}" for key in base_keys(record))
