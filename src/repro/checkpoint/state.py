"""Run-state snapshots of the Alg. 1 driver (recovery points).

The Alg. 1 driver visits shards one after another, so a
:class:`RunState` captures progress shard-major: how many shards are
done, the per-round ledgers of those shards and of the shard in flight
(each round's statistics and accepted record and group links, plus the
links of the shard's remaining passes once they ran), the round the
shard in flight reached, the instrumentation counters, and — for a
resident run, optionally — the full cross-round
:class:`~repro.core.simcache.SimilarityCache` export.  The final state
instead holds the merged result: the record and group links (with
:class:`~repro.core.pipeline.LinkOrigin` provenance when the run is
validated) and the per-round statistics ledger, and no cache: resuming
from it is pure reconstruction.  Because every stage downstream of a
boundary is deterministic in that state (canonical sorted mappings,
hash-seed-independent selection), a run resumed from a snapshot makes
the same decisions as one that never stopped; with the cache export it
also does the same work.

The cache export keeps the pinned scores and pruning bounds as series
pair states do: the pair table's two sorted id lists and one packed
cache section (:mod:`repro.checkpoint.section`), written whole from the
cache's pair-id arrays at every state, so a state written after a
resume equals the uninterrupted run's by construction.  The section and
the lazy rows are decoded and checked once, when the state is loaded
(:attr:`RunState.cache_entries`, :attr:`RunState.cache_lazy`).

In-RAM and sharded runs write this one format
(:func:`repro.core.pipeline.run_linkage`).  On disk a checkpoint is the
shared :class:`repro.ioutil.Envelope` with schema key ``schema``
(:data:`CHECKPOINT_ENVELOPE`): a tampered or torn file raises
:class:`CheckpointCorrupt`, and any schema but :data:`SCHEMA_VERSION` —
schemas 1 to 3 included — raises :class:`CheckpointSchemaError` before
the payload is interpreted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..ioutil import CorruptFile, Envelope, UnsupportedSchema
from .section import CacheSeed, unpack_lazy_rows, unpack_section

#: Checkpoint document schema version (bump on incompatible layout changes).
#: Schema 2 added shard progress and dropped the sharded driver's
#: separate state format; schema 3 records progress shard-major, with
#: per-shard round ledgers instead of mid-round accumulators; schema 4
#: holds the cache's pinned scores and bounds as one packed section
#: instead of journals of JSON rows.
SCHEMA_VERSION = 4

#: ``RunState.phase`` while δ rounds are in progress.
PHASE_ROUND = "round"
#: ``RunState.phase`` after the final ``Sim_func_rem`` pass (run complete).
PHASE_FINAL = "final"


class CheckpointError(RuntimeError):
    """Base class of all checkpoint load/consistency failures."""


class CheckpointCorrupt(CheckpointError, CorruptFile):
    """The checkpoint bytes are unreadable or fail the content hash."""


class CheckpointSchemaError(CheckpointError, UnsupportedSchema):
    """The checkpoint declares a schema version this code cannot read."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different run (config or input data)."""


#: The on-disk format of run states.
CHECKPOINT_ENVELOPE = Envelope(
    "schema", SCHEMA_VERSION, "checkpoint",
    CheckpointCorrupt, CheckpointSchemaError,
)


def record_row(record) -> Tuple:
    """The canonical content row of one record — every attribute the
    pipeline compares or blocks on."""
    return (
        record.record_id,
        record.household_id,
        record.first_name,
        record.surname,
        record.sex,
        record.age,
        record.occupation,
        record.address,
        record.role,
    )


def dataset_fingerprint(old_dataset, new_dataset) -> str:
    """Short stable hash of both input snapshots' full record content.

    Resume refuses to continue from a checkpoint whose inputs differ —
    a snapshot of run state is only meaningful against the exact data
    the interrupted run saw.  The snapshots are :class:`CensusDataset`
    objects or record sources streamed from a shard store (anything
    with ``year`` and ``iter_records()``), so equal records give equal
    fingerprints whichever way they are held.  Records are serialized
    in iteration (sorted-id) order with every compared attribute, so the
    fingerprint is independent of construction order, hash seed and
    Python version.
    """
    digest = hashlib.sha256()
    for dataset in (old_dataset, new_dataset):
        digest.update(str(dataset.year).encode("utf-8"))
        for record in dataset.iter_records():
            digest.update(json.dumps(record_row(record)).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class RunState:
    """One recovery point of Algorithm 1 (see module docstring).

    A state is written after a round of the shard in flight
    (``round_index`` rounds of shard ``shards_done``, counting from 0),
    at a shard boundary (``shards_done`` shards finished,
    ``round_index == 0``) or after the run (``phase == PHASE_FINAL``).
    ``shard_parts`` holds one ledger per shard started — the finished
    ones, then the one in flight — as plain dicts (see
    :meth:`repro.core.pipeline.ShardLedger.as_jsonable`).  The final
    state carries the merged result instead: ``record_pairs``,
    ``group_pairs``, the ``iterations`` ledgers (including the effort
    diagnostics and wall-clock seconds) and ``provenance``, the per-link
    :class:`LinkOrigin` table as sorted rows, present only when the run
    records provenance (``LinkageConfig.validate``).  ``cache`` is the
    optional :meth:`SimilarityCache.export_state` document of a resident
    run's one cache that makes resumed *effort* counters — not just
    mappings — identical to an uninterrupted run; round and boundary
    states only.
    """

    #: δ rounds the shard in flight completed (0 at a shard boundary);
    #: in the final state, the run's stop round.
    round_index: int
    #: ``PHASE_ROUND`` or ``PHASE_FINAL``.
    phase: str
    #: δ of that round (``None`` before a shard's first round).
    delta: Optional[float]
    #: The full configured δ schedule, for inspection tooling.
    schedule: Tuple[float, ...]
    #: True when the δ loop is over: at the round the merged stopping
    #: rule ended it (an empty round under ``stop_on_empty_round``), and
    #: in the final state.
    rounds_finished: bool
    #: Final state: accepted record links, canonical sorted
    #: ``[old_id, new_id]`` rows.
    record_pairs: List[List[str]] = field(default_factory=list)
    #: Final state: accepted group links, canonical sorted rows.
    group_pairs: List[List[str]] = field(default_factory=list)
    #: Final state: per-round ``IterationStats`` ledgers as plain dicts.
    iterations: List[Dict[str, object]] = field(default_factory=list)
    #: Final state: sorted ``[old_id, new_id, source, round, threshold]``
    #: rows, or ``None`` when the run records no provenance.
    provenance: Optional[List[List[object]]] = None
    #: Instrumentation counter snapshot at this boundary.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Optional similarity-cache export (see module docstring):
    #: ``old_ids``, ``new_ids``, the packed section ``cache``, the
    #: ``lazy`` rows in LRU order and the ``hits``/``misses``/
    #: ``evictions`` tallies.
    cache: Optional[Dict[str, object]] = None
    #: Fingerprint of the LinkageConfig that produced this state.
    config_fingerprint: str = ""
    #: Fingerprint of the two input datasets (see
    #: :func:`dataset_fingerprint`).
    data_fingerprint: str = ""
    #: Final-phase bookkeeping (``None`` until ``phase == PHASE_FINAL``).
    subgraph_record_links: Optional[int] = None
    remaining_record_links: Optional[int] = None
    #: Shards of the run, and shards finished.
    shards_total: int = 1
    shards_done: int = 0
    #: Ledgers of the shards started, in plan order (not in the final
    #: state).
    shard_parts: List[Dict[str, object]] = field(default_factory=list)
    #: Fingerprint of the shard plan (``""`` for one resident shard).
    plan_fingerprint: str = ""

    @cached_property
    def cache_entries(self) -> Optional[CacheSeed]:
        """The pinned scores and bounds of :attr:`cache`, decoded and
        checked once (:func:`repro.checkpoint.section.unpack_section`);
        ``None`` without a cache."""
        if self.cache is None:
            return None
        return unpack_section(
            self.cache["old_ids"], self.cache["new_ids"], self.cache["cache"]
        )

    @cached_property
    def cache_lazy(self) -> Optional[List[list]]:
        """The lazy rows of :attr:`cache`, ``[old_id, new_id, score]``
        in LRU order, decoded and checked once
        (:func:`repro.checkpoint.section.unpack_lazy_rows`); ``None``
        without a cache."""
        if self.cache is None:
            return None
        return unpack_lazy_rows(self.cache["lazy"])

    @property
    def record_links(self) -> int:
        """Distinct record links the state holds: the final result's,
        or those the started shards' rounds recorded so far plus each
        shard's remaining pass on its latest frontier."""
        return self._distinct_links("record_pairs")

    @property
    def group_links(self) -> int:
        """Distinct group links the state holds (as
        :attr:`record_links`)."""
        return self._distinct_links("group_pairs")

    def _distinct_links(self, kind: str) -> int:
        if self.phase == PHASE_FINAL:
            return len(getattr(self, kind))
        links = set()
        for part in self.shard_parts:
            entries = list(part["rounds"])
            if part["remaining"]:
                entries.append(max(
                    part["remaining"], key=lambda entry: entry["after_round"]
                ))
            for entry in entries:
                links.update(tuple(pair) for pair in entry[kind])
        return len(links)

    # -- serialization ---------------------------------------------------------

    def as_payload(self) -> Dict[str, object]:
        """The hashed payload section as plain JSON-safe data."""
        return {
            "round_index": self.round_index,
            "phase": self.phase,
            "delta": self.delta,
            "schedule": list(self.schedule),
            "rounds_finished": self.rounds_finished,
            "record_pairs": [list(pair) for pair in self.record_pairs],
            "group_pairs": [list(pair) for pair in self.group_pairs],
            "iterations": [dict(stats) for stats in self.iterations],
            "provenance": (
                None
                if self.provenance is None
                else [list(row) for row in self.provenance]
            ),
            "counters": dict(self.counters),
            "cache": self.cache,
            "config_fingerprint": self.config_fingerprint,
            "data_fingerprint": self.data_fingerprint,
            "subgraph_record_links": self.subgraph_record_links,
            "remaining_record_links": self.remaining_record_links,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "shard_parts": [dict(part) for part in self.shard_parts],
            "plan_fingerprint": self.plan_fingerprint,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunState":
        state = cls(
            round_index=payload["round_index"],
            phase=payload["phase"],
            delta=payload["delta"],
            schedule=tuple(payload["schedule"]),
            rounds_finished=payload["rounds_finished"],
            record_pairs=[list(pair) for pair in payload["record_pairs"]],
            group_pairs=[list(pair) for pair in payload["group_pairs"]],
            iterations=[dict(stats) for stats in payload["iterations"]],
            provenance=(
                None
                if payload["provenance"] is None
                else [list(row) for row in payload["provenance"]]
            ),
            counters=dict(payload["counters"]),
            cache=payload["cache"],
            config_fingerprint=payload["config_fingerprint"],
            data_fingerprint=payload["data_fingerprint"],
            subgraph_record_links=payload["subgraph_record_links"],
            remaining_record_links=payload["remaining_record_links"],
            shards_total=payload["shards_total"],
            shards_done=payload["shards_done"],
            shard_parts=[dict(part) for part in payload["shard_parts"]],
            plan_fingerprint=payload["plan_fingerprint"],
        )
        # Decoded and checked here, inside the loader's malformed block:
        # a defective section or lazy row raises CheckpointCorrupt
        # naming the file.
        state.cache_entries
        state.cache_lazy
        return state

    def dumps(self) -> str:
        """The full on-disk document (:data:`CHECKPOINT_ENVELOPE`)."""
        return CHECKPOINT_ENVELOPE.dumps(self.as_payload())

    @classmethod
    def loads(cls, text: str) -> "RunState":
        """Parse and verify a checkpoint document."""
        return CHECKPOINT_ENVELOPE.build(cls.from_payload, data=text)

