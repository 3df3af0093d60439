"""Streamed shards for the Alg. 1 driver: out-of-core linkage.

:func:`link_datasets_sharded` runs the one Alg. 1 driver
(:func:`repro.core.pipeline.run_linkage`) over the shards of a
:class:`~repro.sharding.planner.ShardPlan`, where the in-RAM pipeline
(:class:`repro.core.pipeline.IterativeGroupLinkage`) runs it over one
resident shard.  The driver visits shards one after another.  A
:class:`StreamedShard` reads its records from the record source at the
first round of a visit (:func:`_shard_round`), enriches and encodes them
once, keeps them for every δ round and the remaining pass of the visit
(:func:`_shard_remaining`), and releases them — together with its
similarity cache, pair table and pruning engine — when the visit ends,
so each shard is built once and only one shard's records are resident
at a time.  With a :class:`ShardedRecordSource` backed by a
:class:`~repro.sharding.store.ShardStore`, records stream from
memory-mapped column files and the full datasets are never resident
(``benchmarks/test_ci_gates.py`` gates the peak-RSS gap).

The result is **decision-identical** to the in-RAM run
(``sharded_vs_unsharded`` in ``tests/differential.py``,
:func:`repro.checkpoint.decision_ledger_hash`), by construction:

* The planner closes shards over shared blocking keys *and* household
  co-membership, so candidate pairs, pre-matching clusters, candidate
  group pairs, common subgraphs and every Alg. 2 / remaining-pass
  conflict set are shard-local.  Restricting a greedy selection to a
  shard therefore removes no competitor it would have had globally, and
  the union of per-shard selections equals the global selection; a
  shard's rounds read only its own earlier links.
* The only *global* couplings of Alg. 1 — the ``stop_on_empty_round``
  test and the exhausted-frontier break — read the **merged** round, so
  the stop round R is a function of per-shard, per-round statistics.
  The driver records them in each shard's ledger and applies the
  stopping rule once every shard is visited (the *deferred stop*): the
  links a shard made in rounds after R are dropped, and of the
  remaining passes its visit ran — one per frontier R could still leave
  it with — the one on its frontier at R is kept.  A shard stopping at
  its own empty round would diverge from the global run; the deferred
  stop cannot.

What legitimately differs from the in-RAM run is *effort*: per-shard
caches, pruning warm-up and kernel batching change ``pairs_scored``,
hit/miss tallies and batch counts, and so do the rounds and remaining
passes a shard runs before R is known.  Hence the comparison document
is the decisions-only ledger, not :func:`repro.checkpoint.ledger_hash`.

Checkpoints are the driver's one :class:`~repro.checkpoint.RunState`
format, written shard-major: after the rounds of the shard in flight and
at shard boundaries.  Streamed caches are not persisted: a resumed run
re-scores what the interrupted run had cached, with identical decisions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..checkpoint import CheckpointStore
from ..core.config import LinkageConfig
# Unused here; kept bound because perfbench/tracing.py wraps it by name.
from ..core.enrichment import complete_groups  # noqa: F401
from ..core.pipeline import (
    LinkageResult,
    Shard,
    ShardVisit,
    build_visit,
    match_shard_remaining,
    match_shard_round,
    run_linkage,
    scoring_state,
)
from ..core.prematching import prematching
# Unused here; kept bound because perfbench/tracing.py wraps it by name.
from ..core.remaining import match_remaining  # noqa: F401
from ..model.dataset import CensusDataset
from ..model.mappings import RecordMapping
from ..model.records import PersonRecord
from .planner import ShardSpec, plan_shards
from .store import ShardStore


class ShardedRecordSource:
    """Record access for the sharded driver: stream all, or load a subset.

    Two backings:

    * ``ShardedRecordSource.from_dataset(dataset)`` — in-RAM; ``load``
      subsets the resident dataset (useful for the differential harness
      and small data).
    * ``ShardedRecordSource.from_store(store, year)`` — out-of-core;
      ``load`` groups the requested ids by store shard (the region
      prefix) and materializes only those shards' memory-mapped columns.
    """

    def __init__(self, year: int) -> None:
        self.year = year

    @staticmethod
    def from_dataset(dataset: CensusDataset) -> "_DatasetSource":
        return _DatasetSource(dataset)

    @staticmethod
    def from_store(store: ShardStore, year: int) -> "_StoreSource":
        return _StoreSource(store, year)

    @staticmethod
    def coerce(source) -> "ShardedRecordSource":
        if isinstance(source, ShardedRecordSource):
            return source
        if isinstance(source, CensusDataset):
            return ShardedRecordSource.from_dataset(source)
        raise TypeError(
            f"expected a CensusDataset or ShardedRecordSource, got "
            f"{type(source).__name__}"
        )

    # Subclass protocol ------------------------------------------------------

    def iter_records(self):
        """Stream every record once (dataset iteration order)."""
        raise NotImplementedError

    def load(self, record_ids: Sequence[str]) -> List[PersonRecord]:
        """Materialize exactly the given records."""
        raise NotImplementedError


class _DatasetSource(ShardedRecordSource):
    def __init__(self, dataset: CensusDataset) -> None:
        super().__init__(dataset.year)
        self.dataset = dataset

    def iter_records(self):
        return self.dataset.iter_records()

    def load(self, record_ids: Sequence[str]) -> List[PersonRecord]:
        return self.dataset.subset(record_ids)


class _StoreSource(ShardedRecordSource):
    def __init__(self, store: ShardStore, year: int) -> None:
        super().__init__(year)
        self.store = store

    def iter_records(self):
        return self.store.iter_records(self.year)

    def load(self, record_ids: Sequence[str]) -> List[PersonRecord]:
        wanted = set(record_ids)
        # Group by store shard via the manifest's region tags, so only
        # the store shards actually referenced are materialized.
        by_region = {
            entry["region"]: entry["name"]
            for entry in self.store.shard_entries(self.year)
        }
        shards_needed: Dict[str, List[str]] = {}
        for record_id in record_ids:
            region = (
                record_id.split("::", 1)[0] if "::" in record_id else ""
            )
            shard_name = by_region.get(region)
            if shard_name is None:
                raise KeyError(
                    f"record {record_id!r} maps to no store shard of "
                    f"year {self.year}"
                )
            shards_needed.setdefault(shard_name, []).append(record_id)
        records: List[PersonRecord] = []
        for shard_name in sorted(shards_needed):
            records.extend(
                record
                for record in self.store.read_shard(self.year, shard_name)
                if record.record_id in wanted
            )
        if len(records) != len(wanted):
            found = {record.record_id for record in records}
            missing = sorted(wanted - found)[:5]
            raise KeyError(
                f"store year {self.year} is missing records {missing} "
                f"(and possibly more)"
            )
        return records


class StreamedShard(Shard):
    """One planner shard whose records are read once per visit."""

    def __init__(
        self,
        spec: ShardSpec,
        config: LinkageConfig,
        old_source: ShardedRecordSource,
        new_source: ShardedRecordSource,
    ) -> None:
        super().__init__(config, spec.old_ids, spec.new_ids)
        self.spec = spec
        self.old_source = old_source
        self.new_source = new_source
        #: The records, households, index and scorer of the visit in
        #: progress, built at its first round.
        self.visit: Optional[ShardVisit] = None

    def match_round(
        self, sim_func, blocker, config, backend, record_mapping, delta,
        round_index, instrumentation, round_timer,
    ):
        return _shard_round(
            self, sim_func, blocker, config, backend, record_mapping,
            delta, round_index, instrumentation, round_timer,
        )

    def match_remaining(
        self, sim_func_rem, blocker, config, group_mapping, instrumentation
    ) -> RecordMapping:
        if not self.remaining_old_ids or not self.remaining_new_ids:
            return RecordMapping()  # a side is exhausted: nothing to pair
        return _shard_remaining(
            self, sim_func_rem, blocker, config, group_mapping,
            instrumentation,
        )

    def release(self) -> None:
        """Drop the visit and start the next one (if any) with a fresh
        cache, pair table and pruning engine."""
        self.visit = None
        self.cache, self.candidate_filter = scoring_state(self.config)

    def load(self) -> Tuple[CensusDataset, CensusDataset]:
        """Materialize this shard's records of both snapshots."""
        return (
            CensusDataset.from_records(
                self.old_source.year, self.old_source.load(self.spec.old_ids)
            ),
            CensusDataset.from_records(
                self.new_source.year, self.new_source.load(self.spec.new_ids)
            ),
        )


def link_datasets_sharded(
    old_source,
    new_source,
    config: Optional[LinkageConfig] = None,
    checkpoint_dir: Optional[Union[str, Path, CheckpointStore]] = None,
    resume: bool = False,
) -> LinkageResult:
    """Run Algorithm 1 shard by shard (see module docstring).

    ``old_source``/``new_source`` are :class:`CensusDataset` objects or
    :class:`ShardedRecordSource` instances (``from_store`` for
    out-of-core runs).  ``config.shards`` fixes the shard count
    (coerced to at least 1).  ``checkpoint_dir``/``resume`` behave as
    for the in-RAM run (:func:`repro.core.pipeline.run_linkage`), with
    resume re-entering at the shard in flight, after its last recorded
    round.
    """
    config = config or LinkageConfig()
    old_source = ShardedRecordSource.coerce(old_source)
    new_source = ShardedRecordSource.coerce(new_source)

    def streamed(blocker, instrumentation):
        with instrumentation.stage("shard_planning"):
            plan = plan_shards(
                old_source.iter_records(),
                new_source.iter_records(),
                blocker,
                max(1, config.shards),
            )
        shards = [
            StreamedShard(spec, config, old_source, new_source)
            for spec in plan.shards
        ]
        return shards, plan.fingerprint()

    return run_linkage(
        old_source,
        new_source,
        config,
        streamed,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )


def _shard_round(
    context: StreamedShard,
    sim_func,
    blocker,
    config: LinkageConfig,
    backend,
    record_mapping: RecordMapping,
    delta: float,
    round_index: int,
    instrumentation,
    round_timer,
):
    """One shard's step in one δ round.  The first round of a visit
    reads the shard's records and builds its households, index and pair
    scorer; later rounds of the visit reuse them."""
    if context.visit is None:
        old, new = context.load()
        context.visit = build_visit(
            old, new, config, context.candidate_filter, instrumentation
        )
    return match_shard_round(
        context, context.visit, sim_func, blocker, config, backend,
        record_mapping, delta, round_index, instrumentation, round_timer,
        prematch=prematching,
    )


def _shard_remaining(
    context: StreamedShard,
    sim_func_rem,
    blocker,
    config: LinkageConfig,
    group_mapping,
    instrumentation,
) -> RecordMapping:
    """One shard's remaining pass, on the visit in progress.  A resumed
    shard whose rounds all ran before the interruption has no visit yet:
    it reads its records and builds what the pass needs, without
    households or index.  The main pair scorer is built only when the
    pass shares the main weights; custom remaining weights build their
    own over the leftover records."""
    if context.visit is None:
        old, new = context.load()
        context.visit = build_visit(
            old, new, config, context.candidate_filter, instrumentation,
            groups=False, scorer=config.remaining_weights is None,
        )
    return match_shard_remaining(
        context, context.visit, sim_func_rem, blocker, config, group_mapping,
        instrumentation,
    )
