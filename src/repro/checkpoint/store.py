"""Checkpoint directories: atomic persistence and recovery of run state.

A :class:`CheckpointStore` manages one directory of
:class:`~repro.checkpoint.state.RunState` documents, written by in-RAM
and sharded runs alike::

    checkpoints/
      round_0001.json             after δ round 1
      round_0002_shard_0001.json  round 2, after the first shard merge
      round_0002_shard_0002.json  round 2, after the second shard merge
      round_0002.json             after δ round 2 (all shards merged)
      ...
      final.json                  after the remaining pass (run complete)

Every write goes through :func:`repro.ioutil.atomic_write_text`
(write-then-``os.replace``), so a crash mid-write leaves the previous
round's file intact and at worst a stray temporary file that scanners
skip.  :meth:`load_latest` walks candidates newest-first (``final`` >
highest round) and *skips* unreadable files — recording them in
:attr:`CheckpointStore.skipped` — so one corrupted checkpoint degrades
recovery by one round instead of aborting it; :meth:`load` of a specific
path stays strict and raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..instrumentation import (
    CHECKPOINT_BYTES,
    CHECKPOINT_LOADS,
    CHECKPOINT_WRITES,
    Instrumentation,
)
from ..ioutil import PathLike, atomic_write_text, is_temp_artifact
from .state import (
    PHASE_FINAL,
    CheckpointCorrupt,
    CheckpointError,
    CheckpointSchemaError,
    RunState,
)

#: File name of the run-complete checkpoint.
FINAL_NAME = "final.json"
#: File name pattern of round-boundary checkpoints.
ROUND_NAME_FORMAT = "round_{index:04d}.json"
#: File name pattern of mid-round checkpoints (after a shard merge).
SHARD_NAME_FORMAT = "round_{index:04d}_shard_{shards:04d}.json"
_ROUND_NAME_RE = re.compile(r"^round_(\d{4,})(?:_shard_(\d{4,}))?\.json$")

#: Instrumentation stage names for checkpoint I/O.
WRITE_STAGE = "checkpoint_write"
LOAD_STAGE = "checkpoint_load"


@dataclass(frozen=True)
class CheckpointEntry:
    """One file of a checkpoint directory, as listed (not yet loaded)."""

    path: Path
    #: ``"round"`` (round boundary), ``"shard"`` (mid-round, after a
    #: shard merge) or ``"final"``.
    kind: str
    #: Round index for round and shard checkpoints; ``None`` for the
    #: final one.
    round_index: Optional[int]
    #: Shards merged, for shard checkpoints only.
    shards_done: Optional[int] = None


class CheckpointStore:
    """One checkpoint directory: write, list, load, inspect.

    ``replace`` substitutes ``os.replace`` in the atomic write — the
    fault-injection seam used by the crash-matrix battery (see
    :mod:`repro.checkpoint.faults`).
    """

    def __init__(
        self,
        directory: PathLike,
        replace: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.directory = Path(directory)
        self._replace = replace
        #: ``(path, reason)`` of files the last :meth:`load_latest` call
        #: could not use (corrupt, unknown schema).
        self.skipped: List[Tuple[Path, str]] = []

    # -- naming ---------------------------------------------------------------

    def path_for(self, state: RunState) -> Path:
        if state.phase == PHASE_FINAL:
            return self.directory / FINAL_NAME
        if state.mid_round:
            return self.directory / SHARD_NAME_FORMAT.format(
                index=state.round_index, shards=state.shards_done
            )
        return self.directory / ROUND_NAME_FORMAT.format(
            index=state.round_index
        )

    # -- writing --------------------------------------------------------------

    def write_state(
        self,
        state: RunState,
        instrumentation: Optional[Instrumentation] = None,
    ) -> Path:
        """Serialize ``state`` to its canonical file, atomically.

        Round and mid-round snapshots skip the fsync: losing an unsynced
        tip to a machine crash is detected by the content hash at load
        time and costs exactly one snapshot (``load_latest`` falls back
        to the previous one), which is the same degradation already
        guaranteed for any corrupt checkpoint — not worth a disk flush
        per δ round or shard merge.  The final checkpoint is flushed: it
        certifies a completed, validated run.
        """
        text = state.dumps()
        fsync = state.phase == PHASE_FINAL
        if instrumentation is not None:
            with instrumentation.stage(WRITE_STAGE):
                path = atomic_write_text(
                    self.path_for(state), text,
                    replace=self._replace, fsync=fsync,
                )
            instrumentation.count(CHECKPOINT_WRITES)
            instrumentation.count(CHECKPOINT_BYTES, len(text))
        else:
            path = atomic_write_text(
                self.path_for(state), text,
                replace=self._replace, fsync=fsync,
            )
        return path

    # -- listing / loading ------------------------------------------------------

    def entries(self) -> List[CheckpointEntry]:
        """All checkpoint files in progress order — rounds ascending,
        each round's shard checkpoints before its round checkpoint, then
        final; temporary artifacts of in-flight writes are never
        listed."""
        if not self.directory.is_dir():
            return []
        rounds: List[CheckpointEntry] = []
        final: List[CheckpointEntry] = []
        for path in sorted(self.directory.iterdir()):
            if is_temp_artifact(path) or not path.is_file():
                continue
            if path.name == FINAL_NAME:
                final.append(CheckpointEntry(path, "final", None))
                continue
            match = _ROUND_NAME_RE.match(path.name)
            if match is None:
                continue
            if match.group(2) is None:
                rounds.append(
                    CheckpointEntry(path, "round", int(match.group(1)))
                )
            else:
                rounds.append(CheckpointEntry(
                    path, "shard", int(match.group(1)), int(match.group(2))
                ))
        rounds.sort(key=lambda entry: (
            entry.round_index,
            entry.kind == "round",
            entry.shards_done or 0,
        ))
        return rounds + final

    def load(
        self,
        path: PathLike,
        instrumentation: Optional[Instrumentation] = None,
    ) -> RunState:
        """Load and verify one checkpoint file (strict: raises on any
        corruption or schema problem)."""
        target = Path(path)
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as error:
            raise CheckpointCorrupt(
                f"cannot read checkpoint {target}: {error}"
            ) from None
        if instrumentation is not None:
            with instrumentation.stage(LOAD_STAGE):
                state = RunState.loads(text)
            instrumentation.count(CHECKPOINT_LOADS)
        else:
            state = RunState.loads(text)
        return state

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
            try:
                return self.load(entry.path, instrumentation=instrumentation)
            except (CheckpointCorrupt, CheckpointSchemaError) as error:
                self.skipped.append((entry.path, str(error)))
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
            except CheckpointError as error:
                row.update(status=f"CORRUPT ({error})")
                rows.append(row)
                continue
            row.update(
                status="ok",
                phase=state.phase,
                round=state.round_index,
                shards=f"{state.shards_done}/{state.shards_total}",
                delta=state.delta,
                rounds_finished=state.rounds_finished,
                record_links=len(state.record_pairs),
                group_links=len(state.group_pairs),
                has_cache=state.cache is not None,
                config_fingerprint=state.config_fingerprint,
                data_fingerprint=state.data_fingerprint,
            )
            rows.append(row)
        return rows


def coerce_store(
    checkpoint_dir: Union[PathLike, CheckpointStore, None]
) -> Optional[CheckpointStore]:
    """Accept a directory path or an existing store (the pipeline's
    ``checkpoint_dir`` argument does both); ``None`` passes through."""
    if checkpoint_dir is None:
        return None
    if isinstance(checkpoint_dir, CheckpointStore):
        return checkpoint_dir
    return CheckpointStore(checkpoint_dir)
