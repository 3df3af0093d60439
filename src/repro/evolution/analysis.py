"""Multi-census evolution analysis (Section 5.4).

Links every successive dataset pair of a series, derives the evolution
patterns, assembles the evolution graph and computes the aggregate
statistics the paper reports: pattern frequencies per census pair
(Fig. 6), preserve-chain counts per interval length (Table 8) and the
largest connected household component.

A rolling series does not have to re-link from scratch on every call:
pass ``series_state`` (a directory or
:class:`repro.checkpoint.series.SeriesStore`) and :func:`analyse_series`
persists what each adjacent pair settled, then on later calls reuses
every stored mapping whose inputs are untouched and re-links only the
pairs a new or revised snapshot actually dirtied — seeding their
similarity caches with the scores and bounds of unchanged blocking keys.
Incremental output is provably identical to from-scratch
(``incremental_vs_scratch`` in ``tests/differential.py``);
only the work differs, which ``analysis.profile`` quantifies
(``series_pairs_reused``, ``pairs_rescored``, …).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checkpoint import series as series_state_mod
from ..checkpoint.series import CacheSeed, PairState, coerce_series_store
from ..core.config import LinkageConfig
from ..core.pipeline import IterativeGroupLinkage
from ..instrumentation import (
    PAIRS_RESCORED,
    PAIRS_SCORED,
    SERIES_KEYS_DIRTY,
    SERIES_KEYS_TOTAL,
    SERIES_PAIRS_RELINKED,
    SERIES_PAIRS_REUSED,
    Instrumentation,
)
from ..model.dataset import CensusDataset
from ..model.mappings import GroupMapping, RecordMapping
from .graph import EvolutionGraph
from .patterns import PairPatterns, extract_patterns

#: Anything that produces (record mapping, group mapping) for a pair.
PairLinker = Callable[
    [CensusDataset, CensusDataset], Tuple[RecordMapping, GroupMapping]
]


@dataclass
class PairLinkage:
    """The settled mappings of one adjacent snapshot pair — the decisions
    behind the corresponding :class:`~repro.evolution.patterns.PairPatterns`."""

    old_year: int
    new_year: int
    record_mapping: RecordMapping
    group_mapping: GroupMapping


@dataclass
class EvolutionAnalysis:
    """The evolution graph plus per-pair patterns of a census series."""

    graph: EvolutionGraph
    pair_patterns: List[PairPatterns] = field(default_factory=list)
    #: Per-pair settled mappings, in series order; populated by
    #: :func:`analyse_series` (empty when built by hand from patterns).
    pair_linkages: List[PairLinkage] = field(default_factory=list)
    #: Series-level effort profile (reuse, dirty-key and seed counters);
    #: populated by the incremental path of :func:`analyse_series`.
    profile: Optional[Instrumentation] = None

    def pattern_frequency_table(self) -> Dict[Tuple[int, int], Dict[str, int]]:
        """Group-pattern counts per census pair — the data behind Fig. 6."""
        return {
            (patterns.old_year, patterns.new_year): patterns.groups.counts()
            for patterns in self.pair_patterns
        }

    def preserve_interval_table(self, interval_years: int = 10) -> Dict[int, int]:
        """|preserve_G| per time interval in years — Table 8."""
        return {
            chain_length * interval_years: count
            for chain_length, count in sorted(
                self.graph.preserve_chain_counts().items()
            )
        }

    def largest_component_share(self) -> float:
        """Fraction of all household vertices inside the largest connected
        component of the evolution graph (reported as ~52% in §5.4)."""
        total = self.graph.num_group_vertices()
        if total == 0:
            return 0.0
        return len(self.graph.largest_group_component()) / total


def linkage_pair_linker(config: Optional[LinkageConfig] = None) -> PairLinker:
    """A pair linker running the paper's iterative approach."""
    linker = IterativeGroupLinkage(config)

    def run(
        old_dataset: CensusDataset, new_dataset: CensusDataset
    ) -> Tuple[RecordMapping, GroupMapping]:
        result = linker.link(old_dataset, new_dataset)
        return result.record_mapping, result.group_mapping

    return run


def analyse_series(
    datasets: Sequence[CensusDataset],
    pair_linker: Optional[PairLinker] = None,
    config: Optional[LinkageConfig] = None,
    series_state=None,
) -> EvolutionAnalysis:
    """Run the full evolution analysis over a series of census datasets.

    ``pair_linker`` defaults to the iterative group linkage with the
    given (or default) configuration; pass a custom callable to analyse
    e.g. ground-truth mappings or baseline results instead.

    ``series_state`` (a directory path or
    :class:`~repro.checkpoint.series.SeriesStore`) turns the run
    incremental: stored per-pair state is reused wherever the inputs are
    untouched, dirty pairs are re-linked with seeded similarity caches,
    and the store is refreshed for the next arrival (module docstring).
    Incremental mode drives the default linkage pipeline directly, so it
    cannot be combined with a custom ``pair_linker``.
    """
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ValueError("evolution analysis needs at least two datasets")
    years = [dataset.year for dataset in datasets]
    if years != sorted(set(years)):
        raise ValueError("datasets must have strictly increasing years")
    store = coerce_series_store(series_state)
    if store is not None:
        if pair_linker is not None:
            raise ValueError(
                "series_state drives the default linkage pipeline; a "
                "custom pair_linker cannot run incrementally"
            )
        return _analyse_series_incremental(datasets, config, store)
    linker = pair_linker or linkage_pair_linker(config)

    graph = EvolutionGraph()
    for dataset in datasets:
        graph.add_snapshot(dataset.year, dataset.record_ids, dataset.household_ids)

    analysis = EvolutionAnalysis(graph=graph)
    for old_dataset, new_dataset in zip(datasets, datasets[1:]):
        record_mapping, group_mapping = linker(old_dataset, new_dataset)
        _append_pair(analysis, old_dataset, new_dataset, record_mapping, group_mapping)
    return analysis


def _append_pair(
    analysis: EvolutionAnalysis,
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    record_mapping: RecordMapping,
    group_mapping: GroupMapping,
) -> None:
    """Derive one pair's patterns and fold them into the analysis."""
    patterns = extract_patterns(
        old_dataset, new_dataset, record_mapping, group_mapping
    )
    analysis.graph.add_pair_patterns(patterns)
    analysis.pair_patterns.append(patterns)
    analysis.pair_linkages.append(
        PairLinkage(
            old_year=old_dataset.year,
            new_year=new_dataset.year,
            record_mapping=record_mapping,
            group_mapping=group_mapping,
        )
    )


def _analyse_series_incremental(
    datasets: List[CensusDataset],
    config: Optional[LinkageConfig],
    store,
) -> EvolutionAnalysis:
    """The incremental path of :func:`analyse_series`.

    Per adjacent pair, in series order:

    1. equal config + snapshot fingerprints vs the stored pair state →
       reuse the stored mappings outright (``series_pairs_reused``);
    2. otherwise re-link, seeding the similarity cache with every
       stored pinned score and pruning bound whose two records lie
       outside the dirty blocking keys of their side (decisions are
       provably unaffected — see :mod:`repro.checkpoint.series`), and
       persist the refreshed pair state before moving on, so a crash
       mid-update never loses settled pairs.

    Patterns are always *recomputed* from the mappings and the current
    datasets — only decisions are stored, never derived artifacts.
    """
    config = config or LinkageConfig()
    instrumentation = Instrumentation()
    config_fp = config.fingerprint()
    snapshot_fps = [
        series_state_mod.snapshot_fingerprint(dataset) for dataset in datasets
    ]
    keyed = [
        series_state_mod.blocking_key_fingerprints(dataset, config)
        for dataset in datasets
    ]

    graph = EvolutionGraph()
    for dataset in datasets:
        graph.add_snapshot(dataset.year, dataset.record_ids, dataset.household_ids)
    analysis = EvolutionAnalysis(graph=graph, profile=instrumentation)

    linker = IterativeGroupLinkage(config)
    for index, (old_dataset, new_dataset) in enumerate(
        zip(datasets, datasets[1:])
    ):
        old_members, old_key_fps = keyed[index]
        new_members, new_key_fps = keyed[index + 1]
        instrumentation.count(
            SERIES_KEYS_TOTAL, len(old_key_fps) + len(new_key_fps)
        )
        stored = store.load_pair(
            old_dataset.year, new_dataset.year, instrumentation=instrumentation
        )
        if stored is not None and stored.config_fingerprint != config_fp:
            # Different thresholds/weights/blocking settle different
            # links: the stored state is inapplicable, even as a seed.
            stored = None
        if (
            stored is not None
            and stored.old_snapshot == snapshot_fps[index]
            and stored.new_snapshot == snapshot_fps[index + 1]
        ):
            instrumentation.count(SERIES_PAIRS_REUSED)
            record_mapping = RecordMapping(
                tuple(pair) for pair in stored.record_pairs
            )
            group_mapping = GroupMapping(
                tuple(pair) for pair in stored.group_pairs
            )
        else:
            seed: Optional[CacheSeed] = None
            if stored is not None:
                dirty_old_keys = series_state_mod.dirty_keys(
                    stored.old_keys, old_key_fps
                )
                dirty_new_keys = series_state_mod.dirty_keys(
                    stored.new_keys, new_key_fps
                )
                instrumentation.count(
                    SERIES_KEYS_DIRTY,
                    len(dirty_old_keys) + len(dirty_new_keys),
                )
                dirty_old = series_state_mod.dirty_record_ids(
                    old_members, dirty_old_keys
                )
                dirty_new = series_state_mod.dirty_record_ids(
                    new_members, dirty_new_keys
                )
                clean_old = set(old_dataset.records) - dirty_old
                clean_new = set(new_dataset.records) - dirty_new
                seed = series_state_mod.build_seed(
                    stored, clean_old, clean_new
                )
            result = linker.link(
                old_dataset, new_dataset, cache_seed=seed, keep_cache=True
            )
            instrumentation.count(SERIES_PAIRS_RELINKED)
            instrumentation.merge(result.profile)
            instrumentation.count(
                PAIRS_RESCORED, result.profile.value(PAIRS_SCORED)
            )
            store.write_pair(
                PairState(
                    old_year=old_dataset.year,
                    new_year=new_dataset.year,
                    config_fingerprint=config_fp,
                    old_snapshot=snapshot_fps[index],
                    new_snapshot=snapshot_fps[index + 1],
                    old_keys=dict(old_key_fps),
                    new_keys=dict(new_key_fps),
                    record_pairs=result.record_mapping.as_jsonable(),
                    group_pairs=result.group_mapping.as_jsonable(),
                    pinned=series_state_mod.cache_parts(
                        result.cache.pinned_rows()
                    ),
                    bounds=series_state_mod.cache_parts(
                        result.cache.bound_rows()
                    ),
                ),
                instrumentation=instrumentation,
            )
            record_mapping = result.record_mapping
            group_mapping = result.group_mapping
        _append_pair(
            analysis, old_dataset, new_dataset, record_mapping, group_mapping
        )
    return analysis


def ground_truth_pair_linker(ground_truth) -> PairLinker:
    """A pair linker that replays the generator's true mappings —
    useful to study the *actual* household dynamics of a synthetic
    series, independent of linkage quality."""

    def run(
        old_dataset: CensusDataset, new_dataset: CensusDataset
    ) -> Tuple[RecordMapping, GroupMapping]:
        return (
            ground_truth.record_mapping(old_dataset.year, new_dataset.year),
            ground_truth.group_mapping(old_dataset.year, new_dataset.year),
        )

    return run
