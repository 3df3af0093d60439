"""Fault injection for the crash-matrix battery (process-lifetime faults).

The crash-matrix tests (and the resumed golden spec) must *prove* crash
recovery, not assume it.  Two injection points cover the interesting
failure classes:

* :class:`CrashingStore` — a :class:`~repro.checkpoint.store.CheckpointStore`
  that raises :class:`SimulatedCrash` immediately **after** persisting a
  chosen checkpoint (a round, the n-th write — mid-round ones included —
  or the final one): the moral equivalent of ``kill -9`` at that
  boundary (the state the next process sees is exactly what was on
  disk).  In-RAM and sharded runs write through the same store, so one
  battery kills both.
* :func:`failing_os_replace` — substituted for ``os.replace`` inside
  :func:`repro.ioutil.atomic_write_text` to model a crash **mid-write**,
  at the worst possible instant: the payload is fully staged but never
  published.  The atomic-write discipline must then leave the previous
  checkpoint untouched and no partial file behind.
"""

from __future__ import annotations

from typing import Optional

from ..instrumentation import Instrumentation
from .series import PairState, SeriesStore
from .state import PHASE_FINAL, RunState
from .store import CheckpointStore


class SimulatedCrash(RuntimeError):
    """Stands in for an abrupt process death in fault-injection tests.

    Raised *after* the triggering checkpoint hit the disk, so the
    on-disk state is indistinguishable from a real kill at that
    boundary.  Nothing in the pipeline catches it.
    """


def failing_os_replace(src: str, dst: str) -> None:
    """An ``os.replace`` stand-in that always fails — models a crash (or
    I/O error) between staging a checkpoint and publishing it."""
    raise OSError(
        f"injected failure: os.replace({src!r}, {dst!r}) never happened"
    )


class CrashingStore(CheckpointStore):
    """A checkpoint store that dies right after a chosen write.

    ``crash_after_writes=n`` raises :class:`SimulatedCrash` once the
    ``n``-th checkpoint (of any kind) is durably on disk;
    ``crash_after_round=k`` does the same after the round-``k``
    boundary checkpoint, and ``crash_after_final`` after the
    run-complete one.  ``fail_replace_at=n`` instead injects
    :func:`failing_os_replace` into the ``n``-th write — that
    checkpoint is *not* published and the write's error propagates.
    """

    def __init__(
        self,
        directory,
        crash_after_round: Optional[int] = None,
        crash_after_final: bool = False,
        fail_replace_at: Optional[int] = None,
        crash_after_writes: Optional[int] = None,
    ) -> None:
        super().__init__(directory)
        self.crash_after_round = crash_after_round
        self.crash_after_final = crash_after_final
        self.fail_replace_at = fail_replace_at
        self.crash_after_writes = crash_after_writes
        self.writes = 0

    def write_state(
        self,
        state: RunState,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.writes += 1
        if self.writes == self.fail_replace_at:
            self._replace = failing_os_replace
        try:
            path = super().write_state(state, instrumentation=instrumentation)
        finally:
            self._replace = None
        if self.writes == self.crash_after_writes:
            raise SimulatedCrash(
                f"simulated kill after checkpoint write {self.writes}"
            )
        if state.phase == PHASE_FINAL:
            if self.crash_after_final:
                raise SimulatedCrash(
                    "simulated kill after the final checkpoint"
                )
        elif (
            not state.mid_round
            and state.round_index == self.crash_after_round
        ):
            raise SimulatedCrash(
                f"simulated kill after round {state.round_index}"
            )
        return path


class CrashingSeriesStore(SeriesStore):
    """A series-state store that dies around a chosen pair write.

    ``crash_after_writes=n`` raises :class:`SimulatedCrash` once the
    ``n``-th pair state is durably on disk — a kill mid-incremental-
    update, after some pairs were re-linked and persisted but before
    the series run finished.  ``fail_replace_at=n`` instead injects
    :func:`failing_os_replace` into the ``n``-th write, so that pair's
    state is staged but never published (the previous file, if any,
    survives untouched).
    """

    def __init__(
        self,
        directory,
        crash_after_writes: Optional[int] = None,
        fail_replace_at: Optional[int] = None,
    ) -> None:
        super().__init__(directory)
        self.crash_after_writes = crash_after_writes
        self.fail_replace_at = fail_replace_at
        self.writes = 0

    def write_pair(
        self,
        state: PairState,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.writes += 1
        if self.writes == self.fail_replace_at:
            self._replace = failing_os_replace
        try:
            path = super().write_pair(state, instrumentation=instrumentation)
        finally:
            self._replace = None
        if (
            self.crash_after_writes is not None
            and self.writes >= self.crash_after_writes
        ):
            raise SimulatedCrash(
                f"simulated kill after series pair write {self.writes}"
            )
        return path
