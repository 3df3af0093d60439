"""Checkpoint directories: atomic persistence and recovery of run state.

A :class:`CheckpointStore` manages one directory of
:class:`~repro.checkpoint.state.RunState` documents, written by in-RAM
and sharded runs alike.  The driver visits shards one after another, so
the names follow the shard in flight::

    checkpoints/
      round_0001.json             one-shard run: after δ round 1
      round_0002.json             one-shard run: after δ round 2
      ...
      shard_0001_round_0001.json  sharded run: shard 1, after its round 1
      shard_0001_round_0002.json  shard 1, after its round 2
      ...
      shard_0001.json             shard 1 done (its rounds and
                                  remaining passes)
      shard_0002_round_0001.json  shard 2, after its round 1
      ...
      final.json                  after the last remaining pass (run
                                  complete)

Writing, verifying and listing are :mod:`repro.ioutil`'s, shared with
the series store through :class:`DocumentStore`.  The recovery policy is
this store's own: :meth:`CheckpointStore.load_latest` walks candidates
newest-first (``final`` > highest round) and *skips* unusable files —
recording them in :attr:`DocumentStore.skipped` — so one corrupted
checkpoint degrades recovery by one snapshot instead of aborting it;
:meth:`DocumentStore.load` of a specific path stays strict and raises.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..instrumentation import (
    CHECKPOINT_BYTES,
    CHECKPOINT_LOADS,
    CHECKPOINT_WRITES,
    Instrumentation,
)
from ..ioutil import (
    CorruptFile, Envelope, PathLike, Replace, WriteSeam, is_temp_artifact,
)
from .state import CHECKPOINT_ENVELOPE, PHASE_FINAL, RunState

#: File name of the run-complete checkpoint.
FINAL_NAME = "final.json"
#: File name pattern of a one-shard run's round checkpoints.
ROUND_NAME_FORMAT = "round_{index:04d}.json"
#: File name pattern of a sharded run's round checkpoints (the shard in
#: flight, counting from 1, after its round ``index``).
SHARD_ROUND_NAME_FORMAT = "shard_{shard:04d}_round_{index:04d}.json"
#: File name pattern of shard-boundary checkpoints (``shard`` shards
#: done).
SHARD_NAME_FORMAT = "shard_{shard:04d}.json"
_NAME_RE = re.compile(
    r"^(?:round_(?P<round>\d{4,})"
    r"|shard_(?P<shard>\d{4,})(?:_round_(?P<shard_round>\d{4,}))?)\.json$"
)

#: Instrumentation stage names for checkpoint I/O.
WRITE_STAGE = "checkpoint_write"
LOAD_STAGE = "checkpoint_load"


@dataclass(frozen=True)
class CheckpointEntry:
    """One file of a checkpoint directory, as listed (not yet loaded)."""

    path: Path
    #: ``"round"`` (after a round of the shard in flight), ``"shard"``
    #: (a shard boundary) or ``"final"``.
    kind: str
    #: Rounds the shard in flight completed (round checkpoints only).
    round_index: Optional[int]
    #: Shards done: before the shard in flight, or at the boundary
    #: (``None`` for the final checkpoint).
    shards_done: Optional[int] = None


def _stage(instrumentation: Optional[Instrumentation], name: str):
    if instrumentation is None:
        return contextlib.nullcontext()
    return instrumentation.stage(name)


class DocumentStore:
    """One directory of enveloped documents, each loaded strictly or
    skipped: the half the checkpoint and series stores share.

    A subclass names its ``envelope``, the ``factory`` building its
    document object from a verified payload and its instrumentation
    stage names.  ``replace`` substitutes ``os.replace`` in every write
    (:class:`repro.ioutil.WriteSeam`).
    """

    envelope: Envelope
    factory: Callable[[Dict[str, object]], object]
    write_stage: str
    load_stage: str

    def __init__(
        self, directory: PathLike, replace: Optional[Replace] = None
    ) -> None:
        self.directory = Path(directory)
        self.seam = WriteSeam(replace)
        #: ``(path, defect)`` of files a lenient load could not use
        #: (corrupt, unknown schema) and treated as missing.
        self.skipped: List[Tuple[Path, str]] = []

    def _write(
        self,
        path: Path,
        payload: Dict[str, object],
        fsync: bool,
        instrumentation: Optional[Instrumentation],
    ) -> Path:
        text = self.envelope.dumps(payload)
        with _stage(instrumentation, self.write_stage):
            self.seam.write(path, text, fsync=fsync)
        if instrumentation is not None:
            instrumentation.count(CHECKPOINT_WRITES)
            instrumentation.count(CHECKPOINT_BYTES, len(text))
        return path

    def load(
        self,
        path: PathLike,
        instrumentation: Optional[Instrumentation] = None,
    ):
        """Load and verify one file (strict: raises
        :class:`repro.ioutil.CorruptFile` on any defect)."""
        with _stage(instrumentation, self.load_stage):
            document = self.envelope.build(self.factory, path)
        if instrumentation is not None:
            instrumentation.count(CHECKPOINT_LOADS)
        return document

    @classmethod
    def coerce(cls, directory):
        """Accept a directory path or an existing store; ``None`` passes
        through."""
        if directory is None or isinstance(directory, cls):
            return directory
        return cls(directory)

    def _load_or_skip(
        self, path: Path, instrumentation: Optional[Instrumentation]
    ):
        """:meth:`load`, or ``None`` with the file recorded in
        :attr:`skipped` when it is unusable."""
        try:
            return self.load(path, instrumentation=instrumentation)
        except CorruptFile as error:
            self.skipped.append((path, error.defect))
            return None


class CheckpointStore(DocumentStore):
    """One checkpoint directory: write, list, load, inspect."""

    envelope = CHECKPOINT_ENVELOPE
    factory = RunState.from_payload
    write_stage = WRITE_STAGE
    load_stage = LOAD_STAGE

    def path_for(self, state: RunState) -> Path:
        if state.phase == PHASE_FINAL:
            return self.directory / FINAL_NAME
        if state.round_index == 0:
            name = SHARD_NAME_FORMAT.format(shard=state.shards_done)
        elif state.shards_total == 1:
            name = ROUND_NAME_FORMAT.format(index=state.round_index)
        else:
            name = SHARD_ROUND_NAME_FORMAT.format(
                shard=state.shards_done + 1, index=state.round_index
            )
        return self.directory / name

    def write_state(
        self,
        state: RunState,
        instrumentation: Optional[Instrumentation] = None,
    ) -> Path:
        """Serialize ``state`` to its canonical file, atomically.

        Round and shard-boundary snapshots skip the fsync: losing an
        unsynced tip to a machine crash is detected by the content hash
        at load time and costs exactly one snapshot (``load_latest``
        falls back to the previous one), which is the same degradation
        already guaranteed for any corrupt checkpoint — not worth a disk
        flush per δ round or shard.  The final checkpoint is flushed: it
        certifies a completed, validated run.
        """
        return self._write(
            self.path_for(state),
            state.as_payload(),
            fsync=state.phase == PHASE_FINAL,
            instrumentation=instrumentation,
        )

    def entries(self) -> List[CheckpointEntry]:
        """All checkpoint files in progress order — shard by shard, each
        shard's round checkpoints in round order before its boundary,
        then final; temporary artifacts of in-flight writes are never
        listed."""
        if not self.directory.is_dir():
            return []
        progress: List[CheckpointEntry] = []
        final: List[CheckpointEntry] = []
        for path in sorted(self.directory.iterdir()):
            if is_temp_artifact(path) or not path.is_file():
                continue
            if path.name == FINAL_NAME:
                final.append(CheckpointEntry(path, "final", None))
                continue
            match = _NAME_RE.match(path.name)
            if match is None:
                continue
            if match.group("round") is not None:
                entry = CheckpointEntry(
                    path, "round", int(match.group("round")), 0
                )
            elif match.group("shard_round") is not None:
                entry = CheckpointEntry(
                    path,
                    "round",
                    int(match.group("shard_round")),
                    int(match.group("shard")) - 1,
                )
            else:
                entry = CheckpointEntry(
                    path, "shard", None, int(match.group("shard"))
                )
            progress.append(entry)
        # A boundary (shards done = s) precedes the rounds of shard s + 1.
        progress.sort(
            key=lambda entry: (entry.shards_done, entry.round_index or 0)
        )
        return progress + final

    def load_latest(
        self, instrumentation: Optional[Instrumentation] = None
    ) -> Optional[RunState]:
        """The newest loadable run state, or ``None`` when the directory
        holds no usable checkpoint.

        Candidates are tried newest-first (the reverse of
        :meth:`entries`); unreadable files are skipped and recorded in
        :attr:`skipped` so that one corrupted file costs one snapshot of
        progress, never the whole run.
        """
        self.skipped = []
        for entry in reversed(self.entries()):
            state = self._load_or_skip(entry.path, instrumentation)
            if state is not None:
                return state
        return None

    # -- inspection -------------------------------------------------------------

    def describe(self) -> List[Dict[str, object]]:
        """One summary row per checkpoint file, for ``repro checkpoints``.

        Corrupt or unreadable files are described rather than raised —
        inspection must work precisely when something went wrong.
        """
        rows: List[Dict[str, object]] = []
        for entry in self.entries():
            row: Dict[str, object] = {"file": entry.path.name}
            try:
                state = self.load(entry.path)
            except CorruptFile as error:
                row.update(status=f"CORRUPT ({error.defect})")
                rows.append(row)
                continue
            row.update(
                status="ok",
                phase=state.phase,
                round=state.round_index,
                shards=f"{state.shards_done}/{state.shards_total}",
                delta=state.delta,
                rounds_finished=state.rounds_finished,
                record_links=state.record_links,
                group_links=state.group_links,
                has_cache=state.cache is not None,
                config_fingerprint=state.config_fingerprint,
                data_fingerprint=state.data_fingerprint,
            )
            rows.append(row)
        return rows


#: The pipeline's ``checkpoint_dir`` argument: a path or a store.
coerce_store = CheckpointStore.coerce
