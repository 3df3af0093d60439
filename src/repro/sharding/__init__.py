"""Sharded out-of-core linkage: store, planner and streamed shards.

The in-RAM pipeline (:mod:`repro.core.pipeline`) holds both full
datasets, every candidate pair and one global scoring kernel in memory —
fine at town scale, the wall at country scale.  This package splits the
run along the only seams the algorithm offers:

* :mod:`repro.sharding.store` — an on-disk columnar census store
  (memory-mapped numpy column files with a JSONL fallback, per-shard
  content fingerprints in a JSON manifest), so snapshots need not be
  resident to be linkable;
* :mod:`repro.sharding.planner` — a :class:`ShardPlanner` that closes
  records over shared blocking keys and household co-membership and
  packs the resulting components into balanced work units, guaranteeing
  that every candidate pair, cluster, group pair and selection conflict
  is shard-local;
* :mod:`repro.sharding.pipeline` — streamed shards for the one Alg. 1
  driver, which visits them one after another: each shard is read,
  enriched and encoded once and runs the whole δ schedule, and the
  stopping rule is applied to the merged per-round ledgers after the
  last visit, so the result is **decision-identical** to the in-RAM
  path (``sharded_vs_unsharded`` in ``tests/differential.py``).

Enable via ``LinkageConfig(shards=N)`` or ``repro link --shards N``.
"""

from .planner import ShardPlan, ShardPlanner, ShardSpec, plan_shards
from .pipeline import ShardedRecordSource, link_datasets_sharded
from .store import (
    HAVE_NUMPY,
    STORE_SCHEMA_VERSION,
    ShardStore,
    ShardStoreError,
    shard_fingerprint,
)

__all__ = [
    "HAVE_NUMPY",
    "STORE_SCHEMA_VERSION",
    "ShardPlan",
    "ShardPlanner",
    "ShardSpec",
    "ShardStore",
    "ShardStoreError",
    "ShardedRecordSource",
    "link_datasets_sharded",
    "plan_shards",
    "shard_fingerprint",
]
