"""Differential-equivalence harness: one pipeline, two configs, a claim.

Several configuration knobs are documented as *pure speed/scale knobs*
that must not change the output:

* ``n_workers`` — parallel scoring is byte-identical to serial
  (:mod:`repro.core.parallel`);
* ``max_lazy_cache_entries`` — evicted similarity-cache entries are
  recomputed to the same value, so a bounded cache equals an unbounded
  one (:mod:`repro.core.simcache`);
* ``filtering`` — the candidate-pruning engine only rejects pairs whose
  similarity upper bound proves they cannot reach the round's δ, so a
  filtered run's mappings are byte-identical to an unfiltered run's
  (:mod:`repro.core.filtering`), serial and parallel alike;
* ``group_pair_indexing`` — the inverted record→household index emits
  exactly the candidate group pairs the brute-force |G_i| × |G_{i+1}|
  scan keeps (:mod:`repro.core.subgraph`), so indexed and brute-force
  runs are byte-identical down to the scoring effort;
* ``scoring_backend`` — the vectorized batch kernel
  (:mod:`repro.core.kernel`) replays the reference comparators'
  float operations in the same order on whole candidate chunks, so
  ``vectorized`` runs are bit-identical to ``python`` runs, serial and
  parallel alike, down to the scoring effort (see ``docs/KERNEL.md``);

one is a declared *pure memory-layout* knob:

* ``shards`` — the sharded out-of-core driver
  (:mod:`repro.sharding.pipeline`) runs the δ loop one blocking-closed
  shard at a time and must reproduce the in-RAM run's *decisions*
  exactly (:func:`sharded_vs_unsharded`); effort counters legitimately
  differ, so the comparison document is the decisions-only
  :func:`repro.checkpoint.decision_ledger_hash`;

one is a declared *pure reuse* knob:

* ``series_state`` — incremental re-linkage of a rolling series
  (:mod:`repro.checkpoint.series`) reuses settled pair mappings and
  seeds similarity caches from stored state, so the resulting
  ``EvolutionAnalysis`` must be decision-identical to a from-scratch
  run across every arrival sequence — append, no-op re-run, revised
  snapshot (:func:`incremental_vs_scratch`);

and one is a declared *coverage* knob:

* ``blocking`` — the exact cross product proposes a superset of the
  standard blocker's candidates, so its final links must cover the
  standard run's links on data where both are feasible.

This module turns those promises into executable checks: a runner
executes the pipeline under a base and a variant configuration and
asserts the declared relation (``identical`` or ``superset``), producing
a human-readable mapping diff on failure.  It is a test oracle and
lives with the tests: ``tests/test_validation_differential.py`` runs the
declared set, and the sharding and service tests run their own checks.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.checkpoint import analysis_ledger_hash, decision_ledger_hash
from repro.core.backends import (
    _REGISTRY,
    RoundOutcome,
    register_backend,
)
from repro.core.config import LinkageConfig
from repro.core.pipeline import LinkageResult, link_datasets
from repro.core.scoring import score_subgraphs
from repro.core.selection import select_group_matches
from repro.core.subgraph import build_all_subgraphs
from repro.datagen.revision import revise_middle_record
from repro.evolution.analysis import analyse_series
from repro.evolution.queries import (
    frequent_change_sequences,
    group_neighborhood,
    household_lineage,
    person_timeline,
    preserve_chains,
)
from repro.instrumentation import PAIRS_RESCORED, SERIES_PAIRS_REUSED
from repro.model.dataset import CensusDataset
from repro.service import EvolutionQueryService, EvolutionStore
from repro.service.core import (
    edge_rows,
    frequency_rows,
    path_rows,
    sequence_rows,
    step_rows,
)

#: The relations a differential check may declare.
IDENTICAL = "identical"
SUPERSET = "superset"  # variant links ⊇ base links


class EquivalenceViolation(AssertionError):
    """A declared equivalence between two configurations failed."""

    def __init__(self, outcomes: Sequence["DifferentialOutcome"]) -> None:
        failed = [outcome for outcome in outcomes if not outcome.ok]
        super().__init__(
            "\n\n".join(outcome.report() for outcome in failed)
            or "equivalence violation"
        )
        self.outcomes = list(outcomes)


@dataclass
class MappingDiff:
    """Pair-level difference between two mappings of the same kind."""

    label: str
    only_in_base: List[Tuple[str, str]] = field(default_factory=list)
    only_in_variant: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def is_identical(self) -> bool:
        return not self.only_in_base and not self.only_in_variant

    def satisfies(self, relation: str) -> bool:
        if relation == IDENTICAL:
            return self.is_identical
        if relation == SUPERSET:
            return not self.only_in_base  # every base pair also in variant
        raise ValueError(f"unknown relation {relation!r}")

    def report(self, limit: int = 15) -> List[str]:
        lines: List[str] = []
        for side, pairs in (
            ("only in base", self.only_in_base),
            ("only in variant", self.only_in_variant),
        ):
            for old_id, new_id in pairs[:limit]:
                lines.append(f"{self.label} {side}: {old_id}->{new_id}")
            if len(pairs) > limit:
                lines.append(
                    f"{self.label} {side}: ... {len(pairs) - limit} more"
                )
        return lines


def _diff_pairs(
    label: str,
    base_pairs: Iterable[Tuple[str, str]],
    variant_pairs: Iterable[Tuple[str, str]],
) -> MappingDiff:
    base_set = set(base_pairs)
    variant_set = set(variant_pairs)
    return MappingDiff(
        label=label,
        only_in_base=sorted(base_set - variant_set),
        only_in_variant=sorted(variant_set - base_set),
    )


@dataclass
class DifferentialOutcome:
    """Result of one base-vs-variant pipeline comparison."""

    name: str
    relation: str
    base_config: LinkageConfig
    variant_config: LinkageConfig
    record_diff: MappingDiff
    group_diff: MappingDiff
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.record_diff.satisfies(self.relation)
            and self.group_diff.satisfies(self.relation)
            and not self.notes
        )

    def report(self) -> str:
        """Human-readable verdict, with the mapping diff on failure."""
        verdict = "holds" if self.ok else "VIOLATED"
        lines = [f"differential {self.name} [{self.relation}]: {verdict}"]
        if not self.ok:
            lines.extend(f"  {line}" for line in self.notes)
            lines.extend(f"  {line}" for line in self.record_diff.report())
            lines.extend(f"  {line}" for line in self.group_diff.report())
        return "\n".join(lines)


def compare_results(
    name: str,
    relation: str,
    base_config: LinkageConfig,
    variant_config: LinkageConfig,
    base_result: LinkageResult,
    variant_result: LinkageResult,
    check_diagnostics: bool = False,
) -> DifferentialOutcome:
    """Judge two finished runs against a declared relation.

    ``check_diagnostics`` additionally requires identical round structure
    and scoring effort (iteration count and pairs scored) — appropriate
    for knobs like ``n_workers`` that claim to change *nothing at all*.
    """
    record_diff = _diff_pairs(
        "record link",
        base_result.record_mapping.pairs(),
        variant_result.record_mapping.pairs(),
    )
    group_diff = _diff_pairs(
        "group link",
        base_result.group_mapping.pairs(),
        variant_result.group_mapping.pairs(),
    )
    notes: List[str] = []
    if check_diagnostics:
        if len(base_result.iterations) != len(variant_result.iterations):
            notes.append(
                f"iteration count differs: base "
                f"{len(base_result.iterations)}, variant "
                f"{len(variant_result.iterations)}"
            )
        if base_result.profile is not None and variant_result.profile is not None:
            base_scored = base_result.profile.value("pairs_scored")
            variant_scored = variant_result.profile.value("pairs_scored")
            if base_scored != variant_scored:
                notes.append(
                    f"pairs scored differ: base {base_scored}, "
                    f"variant {variant_scored}"
                )
    return DifferentialOutcome(
        name=name,
        relation=relation,
        base_config=base_config,
        variant_config=variant_config,
        record_diff=record_diff,
        group_diff=group_diff,
        notes=notes,
    )


def run_differential(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    base_config: LinkageConfig,
    variant_config: LinkageConfig,
    relation: str = IDENTICAL,
    name: str = "differential",
    check_diagnostics: bool = False,
    base_result: Optional[LinkageResult] = None,
) -> DifferentialOutcome:
    """Execute the pipeline under two configs and judge the relation.

    ``base_result`` (optional) reuses an already-computed base run —
    callers sweeping several variants against one base (e.g.
    :func:`serial_vs_parallel` over worker counts) link the base once.
    """
    if base_result is None:
        base_result = link_datasets(old_dataset, new_dataset, base_config)
    variant_result = link_datasets(old_dataset, new_dataset, variant_config)
    return compare_results(
        name,
        relation,
        base_config,
        variant_config,
        base_result,
        variant_result,
        check_diagnostics=check_diagnostics,
    )


# -- declared equivalences ---------------------------------------------------


def serial_vs_parallel(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    workers: Sequence[int] = (2, 4),
) -> List[DifferentialOutcome]:
    """Serial output is identical for every worker count."""
    config = config or LinkageConfig()
    base_config = dataclasses.replace(config, n_workers=1)
    base_result = link_datasets(old_dataset, new_dataset, base_config)
    outcomes = []
    for count in workers:
        variant = dataclasses.replace(
            config,
            n_workers=count,
            worker_chunk_size=64,
            # Small enough that the group stage (§3.3–§3.4) genuinely
            # fans out on test-sized data instead of staying serial.
            group_worker_chunk_size=4,
        )
        outcomes.append(
            run_differential(
                old_dataset,
                new_dataset,
                base_config,
                variant,
                relation=IDENTICAL,
                name=f"serial-vs-parallel(n_workers={count})",
                check_diagnostics=True,
                base_result=base_result,
            )
        )
    return outcomes


def cache_bounded_vs_unbounded(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    bound: int = 64,
) -> DifferentialOutcome:
    """A tightly bounded lazy cache yields the unbounded run's output.

    Evicted entries are recomputed to the same deterministic score, so
    only the hit/miss/eviction tallies may differ — never a mapping.
    """
    config = config or LinkageConfig()
    return run_differential(
        old_dataset,
        new_dataset,
        dataclasses.replace(config, max_lazy_cache_entries=0),  # unbounded
        dataclasses.replace(config, max_lazy_cache_entries=bound),
        relation=IDENTICAL,
        name=f"cache-unbounded-vs-bounded({bound})",
    )


def filtering_on_vs_off(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    workers: Sequence[int] = (1, 2),
) -> List[DifferentialOutcome]:
    """Candidate pruning is lossless: on == off, serial and parallel.

    The unfiltered serial run is the base; each variant enables the
    pruning engine at one worker count.  ``check_diagnostics`` stays off
    on purpose — pruning exists to *change* the scoring effort
    (``pairs_scored`` drops), only the mappings must be byte-identical.
    """
    config = config or LinkageConfig()
    base_config = dataclasses.replace(config, filtering=False, n_workers=1)
    base_result = link_datasets(old_dataset, new_dataset, base_config)
    outcomes = []
    for count in workers:
        variant = dataclasses.replace(config, filtering=True, n_workers=count)
        if count > 1:
            variant = dataclasses.replace(variant, worker_chunk_size=64)
        outcomes.append(
            run_differential(
                old_dataset,
                new_dataset,
                base_config,
                variant,
                relation=IDENTICAL,
                name=f"filtering-off-vs-on(n_workers={count})",
                base_result=base_result,
            )
        )
    return outcomes


def indexed_vs_brute_force(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
) -> DifferentialOutcome:
    """Indexed group-pair enumeration equals the brute-force scan.

    The inverted record→household index keeps exactly the group pairs
    "connected by at least one initial person link" — the same predicate
    the reference |G_i| × |G_{i+1}| scan evaluates pair by pair — so the
    subgraphs built, the links selected *and the scoring effort* must all
    be byte-identical (``check_diagnostics``).  Only the enumeration cost
    differs, visible in ``group_pairs_skipped_by_index``.
    """
    config = config or LinkageConfig()
    return run_differential(
        old_dataset,
        new_dataset,
        dataclasses.replace(config, group_pair_indexing=True),
        dataclasses.replace(config, group_pair_indexing=False),
        relation=IDENTICAL,
        name="indexed-vs-brute-force-group-pairs",
        check_diagnostics=True,
    )


def vectorized_vs_python(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    workers: Sequence[int] = (1, 2),
) -> List[DifferentialOutcome]:
    """The batch scoring kernel equals the per-pair reference backend.

    The ``python`` serial run is the base; each variant scores with the
    vectorized kernel at one worker count.  ``check_diagnostics`` is on:
    the kernel replays the reference float-operation order exactly
    (``docs/KERNEL.md``), so the δ rounds, the mappings *and* the scoring
    effort must all be byte-identical — the kernel only changes how many
    Python-level calls that effort costs (``kernel_batches`` /
    ``kernel_pairs`` count the batched share).

    Skipped gracefully when numpy is absent: ``build_scoring_kernel``
    then returns ``None`` and both configs take the same per-pair path,
    so the comparison would be vacuous rather than wrong — we still run
    it, proving the fallback is lossless too.
    """
    config = config or LinkageConfig()
    base_config = dataclasses.replace(
        config, scoring_backend="python", n_workers=1
    )
    base_result = link_datasets(old_dataset, new_dataset, base_config)
    outcomes = []
    for count in workers:
        variant = dataclasses.replace(
            config, scoring_backend="vectorized", n_workers=count
        )
        if count > 1:
            variant = dataclasses.replace(variant, worker_chunk_size=64)
        outcomes.append(
            run_differential(
                old_dataset,
                new_dataset,
                base_config,
                variant,
                relation=IDENTICAL,
                name=f"vectorized-vs-python(n_workers={count})",
                check_diagnostics=True,
                base_result=base_result,
            )
        )
    return outcomes


class _PreRefactorReferenceBackend:
    """The group stage exactly as the pipeline inlined it before the
    :class:`~repro.core.backends.GroupMatcherBackend` protocol existed.

    This is a frozen verbatim copy of the pre-refactor per-round block —
    ``build_all_subgraphs`` → ``score_subgraphs`` →
    ``select_group_matches`` with the original argument set, stage names
    and parallel fan-out — kept *here*, outside ``repro.core.backends``,
    so that a future edit to the default backend cannot silently edit
    its own reference.  :func:`backend_default_vs_protocol` runs it
    against the registered default backend and requires byte-identical
    mappings and effort counters, serial and parallel.
    """

    name = "prerefactor-reference"

    def match_round(self, ctx):
        config = ctx.config
        with ctx.stage("subgraphs"):
            subgraphs = build_all_subgraphs(
                ctx.prematch,
                ctx.old_households,
                ctx.new_households,
                config,
                record_mapping=ctx.record_mapping,
                instrumentation=ctx.instrumentation,
                index=ctx.group_index,
                n_workers=config.n_workers,
                chunk_size=config.group_worker_chunk_size,
            )
        with ctx.stage("scoring"):
            score_subgraphs(subgraphs, ctx.prematch, config)
        with ctx.stage("selection"):
            selection = select_group_matches(
                subgraphs,
                instrumentation=ctx.instrumentation,
                prematch=ctx.prematch,
                config=config,
                requeue_stale=config.selection_requeue,
            )
        return RoundOutcome(selection=selection, candidate_units=len(subgraphs))


def backend_default_vs_protocol(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    workers: Sequence[int] = (1, 2),
) -> List[DifferentialOutcome]:
    """The refactored default backend is byte-identical to the
    pre-refactor engine — mappings *and* counters, serial and parallel.

    The base runs the group stage through the registered ``default``
    backend (the post-protocol code path); each variant runs the frozen
    pre-refactor copy above at one worker count.  ``check_diagnostics``
    is on: the protocol introduced only a dispatch seam, so δ rounds,
    mappings and scoring effort must all match exactly.

    The reference is registered only while this check runs and removed
    afterwards, so which ``group_backend`` names ``LinkageConfig``
    accepts never depends on whether the oracle ran earlier.
    """
    config = config or LinkageConfig()
    reference = register_backend(_PreRefactorReferenceBackend()).name
    try:
        base_config = dataclasses.replace(
            config, group_backend="default", n_workers=1
        )
        base_result = link_datasets(old_dataset, new_dataset, base_config)
        outcomes = []
        for count in workers:
            variant = dataclasses.replace(
                config, group_backend=reference, n_workers=count
            )
            if count > 1:
                variant = dataclasses.replace(
                    variant, worker_chunk_size=64, group_worker_chunk_size=4
                )
            base = base_config
            use_base_result = base_result
            if count > 1:
                # Parallel-vs-parallel: re-run the default backend at the
                # same worker count so the only difference is the dispatch.
                base = dataclasses.replace(
                    base_config,
                    n_workers=count,
                    worker_chunk_size=64,
                    group_worker_chunk_size=4,
                )
                use_base_result = None
            outcomes.append(
                run_differential(
                    old_dataset,
                    new_dataset,
                    base,
                    variant,
                    relation=IDENTICAL,
                    name=f"backend-default-vs-protocol(n_workers={count})",
                    check_diagnostics=True,
                    base_result=use_base_result,
                )
            )
    finally:
        del _REGISTRY[reference]
    return outcomes


def _analysis_mapping_pairs(analysis) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """All (record pairs, group pairs) of an analysis, across every
    adjacent snapshot pair.  Record and household ids are year-prefixed
    (``1871_12``, ``g1871_3``), so pooling the pairs of different
    snapshot pairs into one set is unambiguous."""
    record_pairs: List[Tuple[str, str]] = []
    group_pairs: List[Tuple[str, str]] = []
    for linkage in analysis.pair_linkages:
        record_pairs.extend(linkage.record_mapping.pairs())
        group_pairs.extend(linkage.group_mapping.pairs())
    return record_pairs, group_pairs


def _compare_analyses(
    name: str, config: LinkageConfig, base, variant
) -> DifferentialOutcome:
    """Judge two EvolutionAnalysis objects for decision identity:
    pair-level mapping diffs plus analysis-ledger-hash equality (which
    additionally covers the derived evolution patterns)."""
    base_records, base_groups = _analysis_mapping_pairs(base)
    variant_records, variant_groups = _analysis_mapping_pairs(variant)
    notes: List[str] = []
    base_hash = analysis_ledger_hash(base)
    variant_hash = analysis_ledger_hash(variant)
    if base_hash != variant_hash:
        notes.append(
            f"analysis ledger hash differs: base {base_hash[:16]}…, "
            f"variant {variant_hash[:16]}…"
        )
    return DifferentialOutcome(
        name=name,
        relation=IDENTICAL,
        base_config=config,
        variant_config=config,
        record_diff=_diff_pairs("record link", base_records, variant_records),
        group_diff=_diff_pairs("group link", base_groups, variant_groups),
        notes=notes,
    )


def incremental_vs_scratch(
    series: Sequence[CensusDataset],
    config: Optional[LinkageConfig] = None,
    workers: Sequence[int] = (1, 2),
) -> List[DifferentialOutcome]:
    """Incremental series re-linkage is decision-identical to from-scratch
    across every arrival sequence.

    Per worker count, against a from-scratch ``analyse_series`` baseline:

    * **cold** — first incremental run into an empty series-state store;
    * **no-op** — immediate re-run over the warm store; additionally
      must *prove the reuse*: every pair revalidated by snapshot
      fingerprint and ``pairs_rescored == 0``;
    * **append** (series of ≥ 3 snapshots) — warm a fresh store on the
      series prefix, then the final snapshot "arrives" and only its new
      pair may be linked;
    * **revise** — the middle snapshot is revised in place
      (:func:`repro.datagen.revision.revise_middle_record`) and the warm
      store must converge to the revised from-scratch result.

    Decision identity means pooled pair-level mapping equality *and*
    equal ``analysis_ledger_hash`` — mappings, evolution patterns and
    graph content; effort counters are exactly what incremental mode is
    licensed to change, so they stay out of the comparison (except the
    no-op work proof above).
    """
    config = config or LinkageConfig()
    datasets = list(series)
    num_pairs = len(datasets) - 1
    outcomes: List[DifferentialOutcome] = []
    for count in workers:
        run_config = dataclasses.replace(config, n_workers=count)
        if count > 1:
            run_config = dataclasses.replace(
                run_config, worker_chunk_size=64, group_worker_chunk_size=4
            )
        scratch = analyse_series(datasets, config=run_config)
        with tempfile.TemporaryDirectory(
            prefix="differential-series-"
        ) as state_dir:
            cold = analyse_series(
                datasets, config=run_config, series_state=state_dir
            )
            outcomes.append(
                _compare_analyses(
                    f"incremental-vs-scratch(cold,n_workers={count})",
                    run_config,
                    scratch,
                    cold,
                )
            )
            noop = analyse_series(
                datasets, config=run_config, series_state=state_dir
            )
            outcome = _compare_analyses(
                f"incremental-vs-scratch(no-op,n_workers={count})",
                run_config,
                scratch,
                noop,
            )
            rescored = noop.profile.value(PAIRS_RESCORED)
            if rescored:
                outcome.notes.append(
                    f"no-op re-run re-scored {rescored} pairs (expected 0)"
                )
            reused = noop.profile.value(SERIES_PAIRS_REUSED)
            if reused != num_pairs:
                outcome.notes.append(
                    f"no-op re-run reused {reused} of {num_pairs} pairs"
                )
            outcomes.append(outcome)
            if len(datasets) >= 3:
                with tempfile.TemporaryDirectory(
                    prefix="differential-series-append-"
                ) as append_dir:
                    analyse_series(
                        datasets[:-1],
                        config=run_config,
                        series_state=append_dir,
                    )
                    appended = analyse_series(
                        datasets, config=run_config, series_state=append_dir
                    )
                outcome = _compare_analyses(
                    f"incremental-vs-scratch(append,n_workers={count})",
                    run_config,
                    scratch,
                    appended,
                )
                reused = appended.profile.value(SERIES_PAIRS_REUSED)
                if reused != num_pairs - 1:
                    outcome.notes.append(
                        f"append arrival reused {reused} of "
                        f"{num_pairs - 1} prefix pairs"
                    )
                outcomes.append(outcome)
            revised = list(datasets)
            middle = len(revised) // 2
            revised[middle] = revise_middle_record(revised[middle])
            scratch_revised = analyse_series(revised, config=run_config)
            incremental_revised = analyse_series(
                revised, config=run_config, series_state=state_dir
            )
            outcomes.append(
                _compare_analyses(
                    f"incremental-vs-scratch(revise,n_workers={count})",
                    run_config,
                    scratch_revised,
                    incremental_revised,
                )
            )
    return outcomes


def sharded_vs_unsharded(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    shards: Sequence[int] = (1, 4),
    workers: Sequence[int] = (1, 2),
) -> List[DifferentialOutcome]:
    """The sharded out-of-core driver is decision-identical to in-RAM
    (:mod:`repro.sharding.pipeline`).

    Per (shard count × worker count), against one in-RAM baseline:
    pair-level mapping identity **plus** equal
    :func:`repro.checkpoint.decision_ledger_hash` — the mappings, link
    accounting and every round's decision ledger.  Effort diagnostics
    (pairs scored, cache hits/misses) are exactly what sharding is
    licensed to change — per-shard caches, pruning engines and kernels
    do different work — so ``check_diagnostics`` stays off and the
    full-effort :func:`repro.checkpoint.ledger_hash` is not compared.
    """
    config = config or LinkageConfig()
    base_config = dataclasses.replace(config, shards=0, n_workers=1)
    base_result = link_datasets(old_dataset, new_dataset, base_config)
    base_hash = decision_ledger_hash(base_result)
    outcomes: List[DifferentialOutcome] = []
    for num_shards in shards:
        for count in workers:
            variant_config = dataclasses.replace(
                config, shards=num_shards, n_workers=count
            )
            if count > 1:
                variant_config = dataclasses.replace(
                    variant_config, worker_chunk_size=64
                )
            variant_result = link_datasets(
                old_dataset, new_dataset, variant_config
            )
            outcome = compare_results(
                f"sharded-vs-unsharded(shards={num_shards},"
                f"n_workers={count})",
                IDENTICAL,
                base_config,
                variant_config,
                base_result,
                variant_result,
            )
            if decision_ledger_hash(variant_result) != base_hash:
                outcome.notes.append(
                    "decision ledger hash differs: the per-round decision "
                    "sequence diverged even though the final mappings "
                    "matched"
                )
            outcomes.append(outcome)
    return outcomes


def blocking_standard_qgram_covers_standard(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
) -> DifferentialOutcome:
    """``standard+qgram`` blocking links cover the standard run's links.

    The union blocker proposes every pair the standard blocker proposes
    plus the q-gram index's additions, so its final links must be a
    superset (same argument as the cross-product check, at far lower
    candidate cost).
    """
    config = config or LinkageConfig()
    return run_differential(
        old_dataset,
        new_dataset,
        dataclasses.replace(config, blocking="standard"),
        dataclasses.replace(config, blocking="standard+qgram"),
        relation=SUPERSET,
        name="blocking-standard-qgram-covers-standard",
    )


def blocking_cross_covers_standard(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
) -> DifferentialOutcome:
    """Cross-product blocking links are a superset of standard blocking's.

    The cross product proposes every pair the standard blocker proposes
    (and more), so on data small enough to afford it the final links must
    cover the standard run's links.  Quadratic in the record count — keep
    workloads small.
    """
    config = config or LinkageConfig()
    return run_differential(
        old_dataset,
        new_dataset,
        dataclasses.replace(config, blocking="standard"),
        dataclasses.replace(config, blocking="cross"),
        relation=SUPERSET,
        name="blocking-cross-covers-standard",
    )


def service_vs_inprocess(
    series: Sequence[CensusDataset],
    config: Optional[LinkageConfig] = None,
) -> List[DifferentialOutcome]:
    """The HTTP query surface answers exactly like in-process queries.

    Analyses ``series``, publishes the result into a throwaway
    :class:`repro.service.store.EvolutionStore`, and drives the sans-IO
    request entry point (:meth:`EvolutionQueryService.handle_request`)
    across every endpoint family — graph metadata, preserve chains,
    pattern frequencies and sequences, plus per-vertex lineage,
    neighborhood and timeline for every (bounded sample of) graph
    vertex — comparing each served ``items`` list against the same
    query run directly through :mod:`repro.evolution.queries` and the
    shared row serializers.  Runs once with the
    ``(graph_version, query)`` LRU cache enabled and once disabled:
    the cache is licensed to change latency, never bytes.

    There are no linkage mappings to diff here; any divergence is a
    note, which fails the outcome just the same.
    """
    config = config or LinkageConfig()
    analysis = analyse_series(list(series), config=config)
    outcomes: List[DifferentialOutcome] = []
    with tempfile.TemporaryDirectory(prefix="differential-service-") as tmp:
        store = EvolutionStore(tmp)
        store.publish(analysis)
        for cache_enabled in (True, False):
            service = EvolutionQueryService(store, cache_enabled=cache_enabled)
            graph = service.graph
            notes: List[str] = []

            def check(target: str, expected_items) -> None:
                status, body = service.handle_request("GET", target)
                if status != 200:
                    notes.append(f"{target}: HTTP {status}")
                    return
                served = json.loads(body)["items"]
                if served != expected_items:
                    notes.append(
                        f"{target}: served items diverge from the "
                        f"in-process query"
                    )

            status, body = service.handle_request("GET", "/graph")
            if status != 200 or json.loads(body)["graph_version"] != (
                service.graph_version
            ):
                notes.append("/graph did not echo the store's graph_version")
            check("/chains/preserve", path_rows(preserve_chains(graph)))
            check(
                "/patterns/frequencies",
                frequency_rows(graph.pattern_counts_by_pair()),
            )
            for length in (2, 3):
                check(
                    f"/patterns/sequences?length={length}",
                    sequence_rows(
                        frequent_change_sequences(graph, length=length)
                    ),
                )
            groups = sorted(v for v in graph.vertices if v[0] == "group")
            records = sorted(v for v in graph.vertices if v[0] == "record")
            for _, year, household_id in groups[:40]:
                check(
                    f"/households/{year}/{household_id}/lineage",
                    path_rows(household_lineage(graph, year, household_id)),
                )
                check(
                    f"/households/{year}/{household_id}/neighborhood?radius=2",
                    edge_rows(
                        group_neighborhood(graph, year, household_id, radius=2)
                    ),
                )
            for _, year, record_id in records[:40]:
                check(
                    f"/persons/{year}/{record_id}/timeline",
                    step_rows(person_timeline(graph, year, record_id)),
                )
            # Replay one target: the cache must engage when enabled and
            # stay silent when disabled — still byte-identically.
            check("/chains/preserve", path_rows(preserve_chains(graph)))
            if cache_enabled and service.stats["cache_hits"] == 0:
                notes.append("cache-on service never hit its cache")
            if not cache_enabled and service.stats["cache_hits"]:
                notes.append("cache-off service reported cache hits")
            label = "cache" if cache_enabled else "no-cache"
            outcomes.append(
                DifferentialOutcome(
                    name=f"service-vs-inprocess({label})",
                    relation=IDENTICAL,
                    base_config=config,
                    variant_config=config,
                    record_diff=_diff_pairs("record link", [], []),
                    group_diff=_diff_pairs("group link", [], []),
                    notes=notes,
                )
            )
    return outcomes


def assert_equivalences(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    workers: Sequence[int] = (2, 4),
    include_blocking: bool = False,
    series: Optional[Sequence[CensusDataset]] = None,
) -> List[DifferentialOutcome]:
    """Run the declared equivalence suite; raise on any violation.

    Always runs serial-vs-parallel, bounded-vs-unbounded cache,
    filtering-on-vs-off (serial and 2 workers), vectorized-vs-python
    scoring (serial and 2 workers), indexed-vs-brute-force group-pair
    enumeration, incremental-vs-scratch series re-linkage
    (cold/no-op/revise — plus append when the series has ≥ 3 snapshots —
    serial and 2 workers, over ``series`` or, by default, the two
    datasets as a minimal series), sharded-vs-unsharded linkage
    (shards 1 and 4, serial and 2 workers) and service-vs-inprocess
    query identity (HTTP surface vs direct evolution queries, cache on
    and off).  ``include_blocking``
    adds the quadratic cross-product comparison and the ``standard+qgram``
    coverage check — off by default so the suite stays usable on larger
    workloads.
    """
    outcomes = serial_vs_parallel(old_dataset, new_dataset, config, workers)
    outcomes.append(cache_bounded_vs_unbounded(old_dataset, new_dataset, config))
    outcomes.extend(
        filtering_on_vs_off(old_dataset, new_dataset, config, workers=(1, 2))
    )
    outcomes.extend(
        vectorized_vs_python(old_dataset, new_dataset, config, workers=(1, 2))
    )
    outcomes.append(indexed_vs_brute_force(old_dataset, new_dataset, config))
    outcomes.extend(
        backend_default_vs_protocol(
            old_dataset, new_dataset, config, workers=(1, 2)
        )
    )
    outcomes.extend(
        incremental_vs_scratch(
            list(series) if series is not None else [old_dataset, new_dataset],
            config,
            workers=(1, 2),
        )
    )
    outcomes.extend(
        sharded_vs_unsharded(
            old_dataset, new_dataset, config, shards=(1, 4), workers=(1, 2)
        )
    )
    outcomes.extend(
        service_vs_inprocess(
            list(series) if series is not None else [old_dataset, new_dataset],
            config,
        )
    )
    if include_blocking:
        outcomes.append(
            blocking_cross_covers_standard(old_dataset, new_dataset, config)
        )
        outcomes.append(
            blocking_standard_qgram_covers_standard(
                old_dataset, new_dataset, config
            )
        )
    if any(not outcome.ok for outcome in outcomes):
        raise EquivalenceViolation(outcomes)
    return outcomes
