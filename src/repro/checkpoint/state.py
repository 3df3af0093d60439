"""Run-state snapshots of the Alg. 1 driver (recovery points).

A :class:`RunState` captures everything Algorithm 1 has decided up to a
round or shard boundary: which δ rounds completed, how many shards of
the in-flight round were merged (with that round's accumulators), the
accepted record and group links (with
:class:`~repro.core.pipeline.LinkOrigin` provenance when the run is
validated), the per-round statistics ledger, the instrumentation
counters, and — for a resident run, optionally — the full cross-round
:class:`~repro.core.simcache.SimilarityCache` export.  Because every
stage downstream of a boundary is deterministic in that state
(canonical sorted mappings, hash-seed-independent selection), a run
resumed from a snapshot makes the same decisions as one that never
stopped; with the cache export it also does the same work.

In-RAM and sharded runs write this one format
(:func:`repro.core.pipeline.run_linkage`).  On disk a checkpoint is one
canonical JSON document::

    {"schema": 2, "content_hash": "<sha256 of the payload>", "payload": {...}}

``content_hash`` covers the *compact* canonical serialization of the
payload, so any byte of tampering (or torn write that survived the
atomic-rename discipline, e.g. on a corrupted filesystem) is detected at
load time and rejected with :class:`CheckpointCorrupt` rather than
half-loaded.  Unknown schema versions — schema 1 included — are rejected
up front with :class:`CheckpointSchemaError`: the payload of another
layout is never interpreted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Checkpoint document schema version (bump on incompatible layout changes).
#: Schema 2 added shard progress and dropped the sharded driver's
#: separate state format.
SCHEMA_VERSION = 2

#: ``RunState.phase`` while δ rounds are in progress.
PHASE_ROUND = "round"
#: ``RunState.phase`` after the final ``Sim_func_rem`` pass (run complete).
PHASE_FINAL = "final"


class CheckpointError(RuntimeError):
    """Base class of all checkpoint load/consistency failures."""


class CheckpointCorrupt(CheckpointError):
    """The checkpoint bytes are unreadable or fail the content hash."""


class CheckpointSchemaError(CheckpointError):
    """The checkpoint declares a schema version this code cannot read."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different run (config or input data)."""


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
            row = (
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
            digest.update(json.dumps(row).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class RunState:
    """One recovery point of Algorithm 1 (see module docstring).

    A state is written at a *round boundary* (all shards of round
    ``round_index`` merged, ``round_accum is None``), *mid-round*
    (``shards_done`` of ``shards_total`` shards merged, the round's
    partial statistics in ``round_accum``) or after the remaining pass
    (``phase == PHASE_FINAL``).  ``iterations`` holds the completed
    rounds' :class:`~repro.core.pipeline.IterationStats` ledgers as
    plain dicts (including the effort diagnostics and wall-clock
    seconds); ``provenance`` is the per-link :class:`LinkOrigin` table as
    sorted rows, present only when the run records provenance
    (``LinkageConfig.validate``).  ``cache`` is the optional
    :meth:`SimilarityCache.export_state` document of a resident run's
    one cache that makes resumed *effort* counters — not just
    mappings — identical to an uninterrupted run.
    """

    #: 1-based index of the δ round the state was written in: the last
    #: completed round at a boundary, the in-flight round mid-round.
    round_index: int
    #: ``PHASE_ROUND`` or ``PHASE_FINAL``.
    phase: str
    #: δ of that round (``None`` before the first round).
    delta: Optional[float]
    #: The full configured δ schedule, for inspection tooling.
    schedule: Tuple[float, ...]
    #: True when the δ loop is over (empty round under
    #: ``stop_on_empty_round``, exhausted frontier, or exhausted schedule)
    #: and only the remaining pass is outstanding.
    rounds_finished: bool
    #: Accepted record links, canonical sorted ``[old_id, new_id]`` rows.
    record_pairs: List[List[str]] = field(default_factory=list)
    #: Accepted group links, canonical sorted ``[old_id, new_id]`` rows.
    group_pairs: List[List[str]] = field(default_factory=list)
    #: Per-round ``IterationStats`` ledgers as plain dicts.
    iterations: List[Dict[str, object]] = field(default_factory=list)
    #: Sorted ``[old_id, new_id, source, round, threshold]`` rows, or
    #: ``None`` when the run records no provenance.
    provenance: Optional[List[List[object]]] = None
    #: Instrumentation counter snapshot at this boundary.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Optional similarity-cache export (see module docstring).
    cache: Optional[Dict[str, object]] = None
    #: Fingerprint of the LinkageConfig that produced this state.
    config_fingerprint: str = ""
    #: Fingerprint of the two input datasets (see
    #: :func:`dataset_fingerprint`).
    data_fingerprint: str = ""
    #: Final-phase bookkeeping (``None`` until ``phase == PHASE_FINAL``).
    subgraph_record_links: Optional[int] = None
    remaining_record_links: Optional[int] = None
    #: Shards of the run, and shards of round ``round_index`` merged.
    shards_total: int = 1
    shards_done: int = 1
    #: The in-flight round's partial statistics (the summed
    #: ``IterationStats`` effort and decision fields of its merged
    #: shards), or ``None`` at a round boundary.
    round_accum: Optional[Dict[str, object]] = None
    #: Fingerprint of the shard plan (``""`` for one resident shard).
    plan_fingerprint: str = ""

    @property
    def mid_round(self) -> bool:
        """True when written between two shard merges of one round."""
        return self.round_accum is not None

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
            "round_accum": (
                None if self.round_accum is None else dict(self.round_accum)
            ),
            "plan_fingerprint": self.plan_fingerprint,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunState":
        try:
            return cls(
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
                round_accum=(
                    None
                    if payload["round_accum"] is None
                    else dict(payload["round_accum"])
                ),
                plan_fingerprint=payload["plan_fingerprint"],
            )
        except (KeyError, TypeError) as error:
            raise CheckpointCorrupt(
                f"checkpoint payload is missing or malformed: {error!r}"
            ) from None

    def dumps(self) -> str:
        """The full on-disk document: schema + content hash + payload.

        Floats are serialized by ``json`` verbatim (shortest round-trip
        repr), never rounded — a checkpoint must restore *exactly* the
        values the interrupted run held.

        The payload is serialized exactly once, in the compact canonical
        form the content hash is defined over, and spliced into the
        document envelope by hand: checkpoints are written at every
        round boundary, so serialization cost is pipeline overhead, and
        a second (or prettified) ``json.dumps`` pass over a
        multi-megabyte cache export would double it for nothing.
        """
        payload_text = json.dumps(
            self.as_payload(),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        digest = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
        # Keys in sorted order, mirroring json.dumps(sort_keys=True).
        return (
            f'{{"content_hash":"{digest}","payload":{payload_text},'
            f'"schema":{SCHEMA_VERSION}}}\n'
        )

    @classmethod
    def loads(cls, text: str) -> "RunState":
        """Parse and verify a checkpoint document.

        Raises :class:`CheckpointCorrupt` on unparseable bytes, a
        missing section or a content-hash mismatch (tampering, torn
        write), and :class:`CheckpointSchemaError` on an unknown schema
        version — checked *before* the payload is interpreted, so a
        future layout is never half-loaded.
        """
        try:
            document = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointCorrupt(
                f"checkpoint is not valid JSON: {error}"
            ) from None
        if not isinstance(document, dict):
            raise CheckpointCorrupt(
                f"checkpoint document must be an object, got "
                f"{type(document).__name__}"
            )
        schema = document.get("schema")
        if schema != SCHEMA_VERSION:
            raise CheckpointSchemaError(
                f"unsupported checkpoint schema {schema!r} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        payload = document.get("payload")
        declared = document.get("content_hash")
        if payload is None or declared is None:
            raise CheckpointCorrupt(
                "checkpoint document lacks a payload/content_hash section"
            )
        actual = content_hash(payload)
        if actual != declared:
            raise CheckpointCorrupt(
                f"checkpoint content hash mismatch: declared {declared}, "
                f"recomputed {actual} — the payload was altered after it "
                f"was written"
            )
        return cls.from_payload(payload)


def content_hash(payload: Dict[str, object]) -> str:
    """SHA-256 over the compact canonical JSON form of ``payload``."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
