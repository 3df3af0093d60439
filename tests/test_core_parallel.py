"""Parallel pre-matching engine: determinism and serial equivalence.

The multiprocess scorer (repro.core.parallel) must be a pure speed knob:
for any worker count the scores, and therefore every downstream mapping,
are identical to a serial run.
"""

from array import array

import pytest

from repro.core.config import LinkageConfig
from repro.core.filtering import PairScorer
from repro.core.kernel import BatchScoringKernel, kernel_available
from repro.core.parallel import resolve_workers, score_pairs_chunked
from repro.core.pipeline import link_datasets
from repro.core.prematching import prematching
from repro.blocking.standard import CrossProductBlocker
from repro.datagen import generate_pair
from repro.similarity.vector import build_similarity_function

from tests.conftest import cached_scores

SIM = build_similarity_function(
    [("first_name", "qgram", 0.5), ("surname", "qgram", 0.5)], 0.7
)

#: Both implementations of the pair-scorer interface.
SCORERS = [
    PairScorer,
    pytest.param(
        BatchScoringKernel,
        marks=pytest.mark.skipif(
            not kernel_available(), reason="the batch kernel needs numpy"
        ),
    ),
]


@pytest.fixture(scope="module")
def workload():
    series = generate_pair(seed=20170321, initial_households=40)
    return series.datasets


@pytest.fixture(scope="module")
def indexes(workload):
    old, new = workload
    old_index = {r.record_id: r for r in old.iter_records()}
    new_index = {r.record_id: r for r in new.iter_records()}
    pairs = sorted(
        (old_id, new_id)
        for old_id in list(old_index)[:40]
        for new_id in list(new_index)[:40]
    )
    return old_index, new_index, pairs


def _scorer(scorer_class, indexes):
    old_index, new_index, _ = indexes
    return scorer_class(
        SIM, list(old_index.values()), list(new_index.values())
    )


def _rows(indexes, pairs):
    """The scorer rows (record positions) of id pairs."""
    old_index, new_index, _ = indexes
    old_rows = {record_id: row for row, record_id in enumerate(old_index)}
    new_rows = {record_id: row for row, record_id in enumerate(new_index)}
    return (
        array("q", [old_rows[old_id] for old_id, _ in pairs]),
        array("q", [new_rows[new_id] for _, new_id in pairs]),
    )


def _lists(result):
    """Scorer output — values, or (values, kind codes) — as lists."""
    if isinstance(result, tuple):
        return tuple(part.tolist() for part in result)
    return result.tolist()


class TestScorePairsChunked:
    def test_serial_scores_every_pair(self, indexes):
        pairs = indexes[2]
        scores = score_pairs_chunked(
            _scorer(PairScorer, indexes), *_rows(indexes, pairs)
        ).tolist()
        assert len(scores) == len(pairs)
        assert all(0.0 <= score <= 1.0 for score in scores)

    @pytest.mark.parametrize("scorer_class", SCORERS)
    @pytest.mark.parametrize("delta", [None, 0.7])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_equals_serial(
        self, indexes, scorer_class, delta, workers
    ):
        """Pooled scoring returns exactly the serial arrays: the same
        floats, or the same values and kind codes at δ, in row order."""
        scorer = _scorer(scorer_class, indexes)
        rows = _rows(indexes, indexes[2])
        serial = _lists(score_pairs_chunked(scorer, *rows, delta))
        # Tiny chunks force a real multi-chunk pool even on this workload.
        parallel = _lists(score_pairs_chunked(
            scorer, *rows, delta, n_workers=workers, chunk_size=97,
        ))
        assert parallel == serial
        if delta is not None:
            assert set(serial[1]) > {0}  # pruned kinds besides exact

    def test_small_workload_short_circuits_to_serial(self, indexes):
        subset = indexes[2][:10]
        # chunk_size >= workload: must not start a pool (same result).
        scores = score_pairs_chunked(
            _scorer(PairScorer, indexes), *_rows(indexes, subset),
            n_workers=8, chunk_size=1024,
        )
        assert len(scores) == len(subset)

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1


class TestParallelPrematching:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_prematch_clusters_identical(self, workload, workers):
        old, new = workload
        old_records = list(old.iter_records())[:60]
        new_records = list(new.iter_records())[:60]
        serial = prematching(
            old_records, new_records, SIM, CrossProductBlocker()
        )
        parallel = prematching(
            old_records, new_records, SIM, CrossProductBlocker(),
            n_workers=workers, chunk_size=128,
        )
        assert parallel.matched_pairs == serial.matched_pairs
        assert parallel.labels == serial.labels
        assert parallel.clusters == serial.clusters


class TestParallelPipeline:
    """Acceptance: n_workers in {2, 4} yields mappings identical to serial
    on a seeded generate_pair workload."""

    @pytest.fixture(scope="class")
    def serial_result(self, workload):
        old, new = workload
        return link_datasets(old, new, LinkageConfig(n_workers=1))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_link_datasets_identical(self, workload, serial_result, workers):
        old, new = workload
        config = LinkageConfig(n_workers=workers, worker_chunk_size=256)
        result = link_datasets(old, new, config)
        assert (
            result.record_mapping.pairs()
            == serial_result.record_mapping.pairs()
        )
        assert sorted(result.group_mapping.pairs()) == sorted(
            serial_result.group_mapping.pairs()
        )
        # Same work, same diagnostics.
        assert len(result.iterations) == len(serial_result.iterations)
        assert result.profile.value("pairs_scored") == \
            serial_result.profile.value("pairs_scored")

    def test_all_cores_setting(self, workload):
        old, new = workload
        result = link_datasets(old, new, LinkageConfig(n_workers=0))
        serial = link_datasets(old, new, LinkageConfig())
        assert result.record_mapping.pairs() == serial.record_mapping.pairs()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            LinkageConfig(n_workers=-1)
        with pytest.raises(ValueError):
            LinkageConfig(worker_chunk_size=0)
        with pytest.raises(ValueError):
            LinkageConfig(group_worker_chunk_size=0)


class TestParallelGroupStage:
    """The §3.3 fan-out: chunked subgraph construction (scored after the
    merge) is byte-identical to the serial loop, including the score
    store."""

    @pytest.fixture(scope="class")
    def stage(self, workload):
        from repro.core.enrichment import complete_groups

        old, new = workload
        config = LinkageConfig()
        prematch = prematching(
            list(old.iter_records()),
            list(new.iter_records()),
            config.build_sim_func(),
            config.build_blocker(),
        )
        return prematch, complete_groups(old), complete_groups(new), config

    def _signature(self, subgraphs):
        return [
            (s.old_group_id, s.new_group_id, tuple(s.vertices),
             tuple(s.edges), s.num_anchors, s.g_sim)
            for s in subgraphs
        ]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_chunked_equals_serial(self, stage, workers):
        from repro.core.scoring import score_subgraphs
        from repro.core.subgraph import build_all_subgraphs

        prematch, old, new, config = stage
        serial = build_all_subgraphs(prematch, old, new, config)
        score_subgraphs(serial, prematch, config)
        parallel = build_all_subgraphs(
            prematch, old, new, config, n_workers=workers, chunk_size=4,
        )
        score_subgraphs(parallel, prematch, config)
        assert self._signature(parallel) == self._signature(serial)

    def test_worker_fresh_scores_folded_back(self, stage):
        """The parallel run leaves the shared score store exactly as a
        serial run does: the round's vertex pairs are scored before the
        fan-out, and workers only read them."""
        import copy

        from repro.core.scoring import score_subgraphs
        from repro.core.subgraph import build_all_subgraphs

        prematch, old, new, config = stage
        serial_prematch = copy.deepcopy(prematch)
        parallel_prematch = copy.deepcopy(prematch)
        serial = build_all_subgraphs(serial_prematch, old, new, config)
        score_subgraphs(serial, serial_prematch, config)
        parallel = build_all_subgraphs(
            parallel_prematch, old, new, config, n_workers=2, chunk_size=4,
        )
        score_subgraphs(parallel, parallel_prematch, config)
        assert cached_scores(parallel_prematch.scores) == cached_scores(
            serial_prematch.scores
        )

    def test_small_task_list_stays_serial(self, stage):
        """Fewer tasks than one chunk: no pool, same result."""
        from repro.core.subgraph import build_all_subgraphs

        prematch, old, new, config = stage
        serial = build_all_subgraphs(prematch, old, new, config)
        short_circuit = build_all_subgraphs(
            prematch, old, new, config,
            n_workers=4, chunk_size=10_000,
        )
        assert self._signature(short_circuit) == self._signature(serial)
