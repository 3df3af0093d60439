"""Fault injection for the crash-matrix battery (process-lifetime faults).

The crash-matrix tests (and the resumed golden spec) must *prove* crash
recovery, not assume it.  Every store writes through one
:class:`repro.ioutil.WriteSeam`, so two injection points cover the
interesting failure classes of all four stores:

* a kill **between writes** — :class:`repro.ioutil.SimulatedCrash`
  raised right after a chosen file is on disk: the moral equivalent of
  ``kill -9`` at that boundary (the state the next process sees is
  exactly what was on disk);
* a kill **mid-write** — :func:`repro.ioutil.failing_os_replace` in
  place of ``os.replace``, at the worst possible instant: the file is
  fully staged but never published.  The atomic-write discipline must
  then leave the previous file untouched and no partial file behind.

:class:`CrashingStore` and :class:`CrashingSeriesStore` arm those
faults on a checkpoint and a series store by round, by final state or
by write count; any other store arms its ``seam`` directly.
"""

from __future__ import annotations

from typing import Optional

from ..ioutil import SimulatedCrash, WriteSeam, failing_os_replace
from .series import SeriesStore
from .store import FINAL_NAME, ROUND_NAME_FORMAT, CheckpointStore

__all__ = [
    "CrashingSeriesStore", "CrashingStore", "SimulatedCrash",
    "failing_os_replace",
]


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
        names = [FINAL_NAME] if crash_after_final else []
        if crash_after_round is not None:
            names.append(ROUND_NAME_FORMAT.format(index=crash_after_round))
        self.seam = WriteSeam(
            fail_replace_at=fail_replace_at,
            crash_after_writes=crash_after_writes,
            crash_after_names=names,
        )


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
        self.seam = WriteSeam(
            fail_replace_at=fail_replace_at,
            crash_after_writes=crash_after_writes,
        )
