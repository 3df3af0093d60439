"""SeriesState: settled per-pair linkage state for incremental re-linkage.

A rolling census series grows one snapshot at a time, but
:func:`repro.evolution.analysis.analyse_series` re-links every adjacent
pair from scratch on each call.  This module persists what each pair run
*settled* — the accepted record/group mappings, the pinned
:class:`~repro.core.simcache.SimilarityCache` scores and the pruning
bounds — together with the identity evidence needed to decide whether
that state is still valid when the series is analysed again:

* a **snapshot fingerprint** per dataset (full record content, like
  :func:`repro.checkpoint.state.dataset_fingerprint` but per side), the
  cheap exact-match test for "nothing changed at all";
* a **per-blocking-key fingerprint** map per side.  Blocking is the
  pipeline's unit of candidate generation: a record pair can only be
  proposed inside a shared key, so when a snapshot is revised the set
  of keys whose membership or member content changed — the *dirty
  keys* — bounds the records whose candidacy, scores or pruning bounds
  could possibly differ.  Everything outside the dirty keys is reused
  as a :class:`CacheSeed`.

Identity contract (what invalidates what):

* a different ``LinkageConfig.fingerprint()`` invalidates the whole
  pair state — thresholds, weights, blocking and backends all shape
  the decisions;
* equal snapshot fingerprints on both sides revalidate the stored
  mappings outright (byte-equal inputs, deterministic pipeline);
* otherwise the pair is re-linked, seeding the similarity cache with
  every pinned score and pruning bound whose two records both lie
  outside the dirty keys of their side.  A key's fingerprint covers
  the full content of *all* its member records, so any membership
  change (add, remove, edit) dirties the key — including block-size
  effects such as a block crossing ``max_block_size``.  Seeded scores
  are pure functions of record content and seeded bounds are true
  upper bounds regardless of δ, so seeding can never change a link
  decision (proven by ``incremental_vs_scratch``); it only avoids
  re-scoring.

On disk a :class:`SeriesStore` is one directory with one document per
adjacent pair (``pair_<old>_<new>.json``): the shared
:class:`repro.ioutil.Envelope` with schema key ``series_schema``
(:data:`SERIES_SCHEMA_VERSION` 2).  The pinned scores and bounds are
kept in the row space of the run's
:class:`~repro.core.pairtable.PairTable`, as run checkpoints keep
them: the payload holds the two sorted record-id lists the table was
built over (``old_ids``, ``new_ids``) and one packed **cache section**
(``cache``; layout and checks in :mod:`repro.checkpoint.section`).
Writing reads the columns straight from the cache's arrays
(:func:`cache_parts`), and seeding maps them onto the next run's table
(:meth:`~repro.core.simcache.SimilarityCache.seed`): no arrival builds
a Python object per entry.  The loader decodes and checks the section
once, and a defect in it raises :class:`CheckpointCorrupt` like a hash
mismatch.  A corrupt, unreadable or older-schema pair file is treated
as missing — the pair is simply re-linked from scratch and the file
rewritten — so recovery is always convergent.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..blocking.standard import (
    NO_BLOCK_PREFIX,
    CrossProductBlocker,
    StandardBlocker,
    no_block_key,
)
from ..instrumentation import Instrumentation
from ..ioutil import Envelope
# cache_parts is bound here too: evolution.analysis calls it through this
# module, where perfbench's tracer wraps it (checkpoint.series).
from .section import CacheSeed, _numpy, cache_parts, unpack_section
from .state import CheckpointCorrupt, CheckpointSchemaError, record_row
from .store import DocumentStore

#: Series pair-state document schema (independent of the RunState schema).
SERIES_SCHEMA_VERSION = 2

#: The on-disk format of pair states.
SERIES_ENVELOPE = Envelope(
    "series_schema", SERIES_SCHEMA_VERSION, "series pair state",
    CheckpointCorrupt, CheckpointSchemaError,
)

#: File name pattern of per-pair state documents.
PAIR_NAME_FORMAT = "pair_{old_year}_{new_year}.json"

#: The single all-encompassing key used for blockers without a key model
#: (union/custom blockers): any change dirties everything, so incremental
#: runs degrade to snapshot-fingerprint reuse only — conservative, never
#: wrong.
COARSE_KEY = "__all__"

#: Instrumentation stage names for series-state I/O.
SERIES_WRITE_STAGE = "series_state_write"
SERIES_LOAD_STAGE = "series_state_load"


def snapshot_fingerprint(dataset) -> str:
    """Short stable hash of one dataset's year and full record content."""
    digest = hashlib.sha256()
    digest.update(str(dataset.year).encode("utf-8"))
    for record in dataset.iter_records():
        digest.update(json.dumps(record_row(record)).encode("utf-8"))
    return digest.hexdigest()[:16]


def blocking_keys(dataset, config) -> Dict[str, List[str]]:
    """Record ids per blocking key, covering **every** record.

    Keys mirror the configured blocker's candidate generation:

    * :class:`StandardBlocker` — one key per (pass index, key value).
      Records whose key function yields an empty or no-block sentinel
      value get a per-record singleton key instead, so an edit to such
      a record still dirties a key (its own).
    * :class:`CrossProductBlocker` — every record pairs with every
      other, so a change to a record invalidates exactly the pairs
      involving it: one singleton key per record.
    * anything else (union/custom blockers) — no per-key model is
      assumed; a single :data:`COARSE_KEY` holds all records, making
      any change dirty everything (correct, merely unhelpful).
    """
    blocker = config.build_blocker()
    records = list(dataset.iter_records())
    if isinstance(blocker, StandardBlocker):
        keys: Dict[str, List[str]] = {}
        for pass_index, key_function in enumerate(blocker.key_functions):
            for record in records:
                value = key_function(record)
                if not value or value.startswith(NO_BLOCK_PREFIX):
                    value = no_block_key(record)
                keys.setdefault(f"{pass_index}|{value}", []).append(
                    record.record_id
                )
        return keys
    if isinstance(blocker, CrossProductBlocker):
        return {
            f"record|{record.record_id}": [record.record_id]
            for record in records
        }
    return {COARSE_KEY: [record.record_id for record in records]}


def blocking_key_fingerprints(
    dataset, config
) -> Tuple[Dict[str, List[str]], Dict[str, str]]:
    """(key → sorted member ids, key → content fingerprint) for a dataset.

    A key's fingerprint hashes the full canonical row of every member
    record in sorted-id order, so it changes whenever the key gains or
    loses a member *or* any member's content changes — the exact
    invalidation granularity of candidate generation.
    """
    keys = blocking_keys(dataset, config)
    fingerprints: Dict[str, str] = {}
    for key, record_ids in keys.items():
        record_ids.sort()
        digest = hashlib.sha256()
        for record_id in record_ids:
            row = record_row(dataset.record(record_id))
            digest.update(json.dumps(row).encode("utf-8"))
        fingerprints[key] = digest.hexdigest()[:16]
    return keys, fingerprints


def dirty_keys(
    stored: Mapping[str, str], current: Mapping[str, str]
) -> Set[str]:
    """Keys whose fingerprint differs between a stored and the current
    snapshot — including keys that appeared or vanished."""
    return {
        key
        for key in set(stored) | set(current)
        if stored.get(key) != current.get(key)
    }


def dirty_record_ids(
    current_keys: Mapping[str, Sequence[str]], dirty: Set[str]
) -> Set[str]:
    """Current records belonging to any dirty key.

    Membership is taken from the *current* snapshot: a deleted record
    cannot appear in any current candidate pair, and a changed or added
    record always changes all of its current keys (their fingerprints
    cover its content), so every record whose candidacy could have
    shifted is caught here.
    """
    records: Set[str] = set()
    for key in dirty:
        records.update(current_keys.get(key, ()))
    return records


def build_seed(
    state: "PairState",
    clean_old_ids: Set[str],
    clean_new_ids: Set[str],
) -> CacheSeed:
    """The stored cache entries whose both endpoints are clean records:
    one boolean mask per stored id list, one mask over the entries."""
    entries = state.entries
    if not entries.num_entries:
        return entries
    old_clean = [record_id in clean_old_ids for record_id in entries.old_ids]
    new_clean = [record_id in clean_new_ids for record_id in entries.new_ids]
    np = _numpy()
    columns = (entries.old_row, entries.new_row, entries.value, entries.kind)
    if np is None:
        keep = [
            old_clean[old_row] and new_clean[new_row]
            for old_row, new_row in zip(entries.old_row, entries.new_row)
        ]
        clean = [array(column.typecode, compress(column, keep))
                 for column in columns]
    else:
        keep = np.array(old_clean, bool)[entries.old_row]
        keep &= np.array(new_clean, bool)[entries.new_row]
        clean = [column[keep] for column in columns]
    return CacheSeed(entries.old_ids, entries.new_ids, *clean)


@dataclass
class PairState:
    """Everything one adjacent pair's linkage settled, plus the identity
    evidence that decides whether it is still valid (module docstring)."""

    old_year: int
    new_year: int
    #: Fingerprint of the LinkageConfig that produced this state.
    config_fingerprint: str
    #: :func:`snapshot_fingerprint` of each side at write time.
    old_snapshot: str
    new_snapshot: str
    #: Per-blocking-key content fingerprints of each side.
    old_keys: Dict[str, str] = field(default_factory=dict)
    new_keys: Dict[str, str] = field(default_factory=dict)
    #: Accepted links, canonical sorted ``[old_id, new_id]`` rows.
    record_pairs: List[List[str]] = field(default_factory=list)
    group_pairs: List[List[str]] = field(default_factory=list)
    #: The sorted record ids of the run's pair table, per side: the row
    #: spaces that :attr:`cache` indexes.
    old_ids: List[str] = field(default_factory=list)
    new_ids: List[str] = field(default_factory=list)
    #: The packed cache section (module docstring): every pinned score
    #: and pruning bound the run ended with, "" when it had none.  Lazy
    #: entries are deliberately absent — they are cheap, unbounded
    #: rediscoveries.
    cache: str = ""

    @cached_property
    def entries(self) -> CacheSeed:
        """Every entry of :attr:`cache`, decoded and checked once
        (:func:`unpack_section`)."""
        return unpack_section(self.old_ids, self.new_ids, self.cache)

    # -- serialization ---------------------------------------------------------

    def as_payload(self) -> Dict[str, object]:
        return {
            "old_year": self.old_year,
            "new_year": self.new_year,
            "config_fingerprint": self.config_fingerprint,
            "old_snapshot": self.old_snapshot,
            "new_snapshot": self.new_snapshot,
            "old_keys": dict(self.old_keys),
            "new_keys": dict(self.new_keys),
            "record_pairs": [list(pair) for pair in self.record_pairs],
            "group_pairs": [list(pair) for pair in self.group_pairs],
            "old_ids": list(self.old_ids),
            "new_ids": list(self.new_ids),
            "cache": self.cache,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "PairState":
        state = cls(
            old_year=payload["old_year"],
            new_year=payload["new_year"],
            config_fingerprint=payload["config_fingerprint"],
            old_snapshot=payload["old_snapshot"],
            new_snapshot=payload["new_snapshot"],
            old_keys=dict(payload["old_keys"]),
            new_keys=dict(payload["new_keys"]),
            record_pairs=[list(pair) for pair in payload["record_pairs"]],
            group_pairs=[list(pair) for pair in payload["group_pairs"]],
            old_ids=list(payload["old_ids"]),
            new_ids=list(payload["new_ids"]),
            cache=payload["cache"],
        )
        # Decoded and checked here, inside the loader's malformed block:
        # a defective section raises CheckpointCorrupt naming the file.
        state.entries
        return state

    def dumps(self) -> str:
        """The on-disk document (:data:`SERIES_ENVELOPE`)."""
        return SERIES_ENVELOPE.dumps(self.as_payload())

    @classmethod
    def loads(cls, text: str) -> "PairState":
        """Parse and verify a pair-state document."""
        return SERIES_ENVELOPE.build(cls.from_payload, data=text)


class SeriesStore(DocumentStore):
    """One series-state directory: a pair-state document per adjacent
    snapshot pair, written atomically and loaded leniently."""

    envelope = SERIES_ENVELOPE
    factory = PairState.from_payload
    write_stage = SERIES_WRITE_STAGE
    load_stage = SERIES_LOAD_STAGE

    def path_for(self, old_year: int, new_year: int) -> Path:
        return self.directory / PAIR_NAME_FORMAT.format(
            old_year=old_year, new_year=new_year
        )

    def write_pair(
        self,
        state: PairState,
        instrumentation: Optional[Instrumentation] = None,
    ) -> Path:
        """Persist one pair's settled state, atomically and flushed.

        Unlike per-round checkpoints, a pair state is written once per
        re-linked pair — it is the durable product of the run, so it is
        always fsynced.
        """
        return self._write(
            self.path_for(state.old_year, state.new_year),
            state.as_payload(),
            fsync=True,
            instrumentation=instrumentation,
        )

    def load_pair(
        self,
        old_year: int,
        new_year: int,
        instrumentation: Optional[Instrumentation] = None,
    ) -> Optional[PairState]:
        """The stored state of one pair, or ``None`` when absent or
        unusable.  Unusable files are recorded in :attr:`skipped` and
        treated as missing: the pair is re-linked from scratch and the
        file rewritten, so recovery always converges.
        """
        path = self.path_for(old_year, new_year)
        if not path.is_file():
            return None
        return self._load_or_skip(path, instrumentation)


#: ``analyse_series``'s ``series_state`` argument: a path or a store.
coerce_series_store = SeriesStore.coerce
