"""Checkpoint/resume subsystem: durable run state for Alg. 1.

The Alg. 1 driver's natural boundaries (each δ of the schedule, each
shard merge inside a round of a sharded run, plus the final
``Sim_func_rem`` pass) become recovery points: a :class:`RunState`
snapshot is atomically persisted to a checkpoint directory at the
boundaries ``LinkageConfig.checkpoint_every`` selects, and
``link_datasets(checkpoint_dir=..., resume=True)`` continues an
interrupted run from the newest loadable snapshot — **deterministically**.
In-RAM and sharded runs write the one format under the one cadence
rule; a resumed in-RAM run's mappings, per-round ledgers and event
counters are byte-identical to an uninterrupted run's, and a resumed
sharded run makes the same decisions (proven at every kill point by
``tests/test_checkpoint_crash_matrix.py``).

Layout::

    checkpoint/
      state.py    RunState + canonical serialization, content hash, schema
      store.py    CheckpointStore: atomic writes, recovery scan, inspection
      ledger.py   the canonical "resumed == uninterrupted" comparison docs
      series.py   SeriesState: settled pair linkage for incremental re-runs
      faults.py   crash/fault injection for the test battery
"""

from .ledger import (
    analysis_ledger,
    analysis_ledger_hash,
    decision_ledger,
    decision_ledger_hash,
    ledger_hash,
    result_ledger,
)
from .state import (
    PHASE_FINAL,
    PHASE_ROUND,
    SCHEMA_VERSION,
    CheckpointCorrupt,
    CheckpointError,
    CheckpointMismatch,
    CheckpointSchemaError,
    RunState,
    content_hash,
    dataset_fingerprint,
)
from .store import CheckpointEntry, CheckpointStore, coerce_store

# .series is imported last: it pulls in repro.blocking, and it must be
# fully loaded before repro.core.pipeline (which imports this package,
# then repro.checkpoint.series) finishes importing.
from .series import (
    SERIES_SCHEMA_VERSION,
    CacheSeed,
    PairState,
    SeriesStore,
    coerce_series_store,
    snapshot_fingerprint,
)

__all__ = [
    "PHASE_FINAL",
    "PHASE_ROUND",
    "SCHEMA_VERSION",
    "SERIES_SCHEMA_VERSION",
    "CacheSeed",
    "CheckpointCorrupt",
    "CheckpointEntry",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointSchemaError",
    "CheckpointStore",
    "PairState",
    "RunState",
    "SeriesStore",
    "analysis_ledger",
    "analysis_ledger_hash",
    "decision_ledger",
    "decision_ledger_hash",
    "coerce_series_store",
    "coerce_store",
    "content_hash",
    "dataset_fingerprint",
    "ledger_hash",
    "result_ledger",
    "snapshot_fingerprint",
]
