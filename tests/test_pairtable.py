"""The interned pair table and the score store's pair-id arrays.

:class:`repro.core.pairtable.PairTable` turns a shard's blocked pairs
into pair ids in sorted ``(old_id, new_id)`` order, and the similarity
cache keeps their pinned scores and bounds in arrays aligned with those
ids.  Every vectorized step has a plain-loop twin for interpreters
without numpy; the ``fork`` fixture (``tests/conftest.py``) runs each
test on both, so the two stay interchangeable.
"""

from array import array

import pytest

import repro.core.pairtable as pairtable_module
from repro.blocking.pairs import BlockedPairs
from repro.checkpoint import ledger_hash
from repro.core.config import LinkageConfig
from repro.core.filtering import PairScorer
from repro.core.pairtable import PairTable
from repro.core.pipeline import link_datasets
from repro.core.simcache import KIND_NONE, SimilarityCache
from repro.datagen import generate_pair

from tests.conftest import (
    add_scores, cache_seed, cached_scores, entry_rows, lookup_scores,
    numpy_hidden, restored_cache,
)

OLD_IDS = ["a1", "a2", "a3"]
NEW_IDS = ["b1", "b2"]
PAIRS = {("a3", "b1"), ("a1", "b2"), ("a2", "b1"), ("a1", "b1")}


def as_list(values):
    return values.tolist() if hasattr(values, "tolist") else list(values)


def table_cache():
    cache = SimilarityCache()
    cache.attach(PairTable(OLD_IDS, NEW_IDS, PAIRS))
    return cache


class TestPairTable:
    def test_pair_ids_follow_sorted_pair_order(self, fork):
        table = PairTable(OLD_IDS, NEW_IDS, list(PAIRS) + [("a1", "b1")])
        assert len(table) == 4
        assert table.pairs(range(4)) == sorted(PAIRS)
        assert [
            table.pid_of_rows(old_row, new_row)
            for old_row, new_row in zip(*table.rows_of(sorted(PAIRS)))
        ] == [0, 1, 2, 3]
        assert table.pid_of_rows(1, 1) == -1  # (a2, b2): not blocked
        assert table.pid_of_rows(-1, 0) == -1  # no row

    def test_batch_lookups_match_scalar_ones(self, fork):
        """``split`` maps blocked pairs over a subset of the table's
        records (the remaining pass's leftovers) to pair ids and the
        rows of the pairs the table lacks, as ``pid_of_rows`` does one
        pair at a time; a pair of an unknown record is refused."""
        table = PairTable(OLD_IDS, NEW_IDS, PAIRS)
        # (a2, b1), (a2, b2), (a3, b1) over the leftovers a2, a3 and b1, b2.
        leftovers = BlockedPairs(["a2", "a3"], NEW_IDS, array("q", [0, 1, 2]))
        pids, (old_rows, new_rows) = table.split(leftovers)
        assert as_list(pids) == [2, 3]
        assert (as_list(old_rows), as_list(new_rows)) == ([1], [1])
        old_rows, new_rows = table.rows_of(list(leftovers))
        assert [
            table.pid_of_rows(old_row, new_row)
            for old_row, new_row in zip(old_rows, new_rows)
        ] == [2, -1, 3]
        if fork == "numpy":
            np = pairtable_module.numpy_or_none()
            assert table.pids_of_rows(
                np.asarray(old_rows, dtype=np.int64),
                np.asarray(new_rows, dtype=np.int64),
            ).tolist() == [2, -1, 3]
        with pytest.raises(ValueError, match="pair table"):
            table.split(BlockedPairs(["x"], ["b1"], array("q", [0])))

    def test_frontier_selects_pairs_of_given_records(self, fork):
        table = PairTable(OLD_IDS, NEW_IDS, PAIRS)
        assert as_list(table.select(["a1", "a3", "gone"], ["b1"])) == [0, 3]
        old_rows, new_rows = table.rows([1, 3])
        assert (as_list(old_rows), as_list(new_rows)) == ([0, 2], [1, 0])
        assert table.ids([3]) == (["a3"], ["b1"])

    def test_rows_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            PairTable(["a2", "a1"], NEW_IDS, [])

    def test_scorer_over_other_rows_is_rejected(self):
        config = LinkageConfig(scoring_backend="python")
        old, new = generate_pair(seed=7, initial_households=3).datasets
        records = list(old.iter_records()), list(new.iter_records())
        table = PairTable(old.record_ids, new.record_ids, [])
        sim_func = config.build_sim_func()
        table.check_scorer(PairScorer(sim_func, *records))
        with pytest.raises(RuntimeError, match="rows"):
            table.check_scorer(
                PairScorer(sim_func, records[0][1:], records[1])
            )


class TestScoresOverTheTable:
    def test_blocked_pairs_live_in_the_arrays(self, fork):
        cache = table_cache()
        add_scores(cache, [("a1", "b1")], [0.9])
        cache.seed(cache_seed([("a2", "b1", 0.4, "qgram")]))
        add_scores(cache, [("a2", "b2")], [0.7])  # not blocked: a lazy entry
        assert as_list(cache._value) == [0.9, 0.0, 0.4, 0.0]
        assert as_list(cache._kind) == [0, KIND_NONE, 2, KIND_NONE]
        assert dict(cache._lazy) == {1 * 2 + 1: 0.7}  # old row 1, new row 1
        assert lookup_scores(cache, [("a1", "b1")]) == [0.9]
        assert (cache.num_pinned, cache.num_bounds, cache.num_lazy) == (1, 1, 1)
        assert entry_rows(cache) == (
            [["a1", "b1", 0.9]], [["a2", "b1", 0.4, "qgram"]]
        )

    def test_export_roundtrip_over_a_table(self, fork):
        cache = table_cache()
        every_pair = cache.table.select(OLD_IDS, NEW_IDS)
        # Two rounds of the resolver: the bound of ("a1", "b1") is set,
        # then replaced at a lower cutoff.
        cache.store(
            cache.buckets(every_pair, 0.5),
            array("d", [0.2, 0.1, 0.4, 0.8]), array("b", [2, 1, 3, 0]),
        )
        cache.store(
            cache.buckets(every_pair, 0.15),
            array("d", [0.3, 0.6]), array("b", [3, 0]),
        )
        add_scores(cache, [("a1", "b2")], [0.25])  # pinned over its bound
        add_scores(cache, [("a2", "b2")], [0.5])  # not blocked: a lazy entry
        document = cache.export_state()
        restored = restored_cache(document, PairTable(OLD_IDS, NEW_IDS, PAIRS))
        assert entry_rows(restored) == (
            [["a1", "b2", 0.25], ["a2", "b1", 0.6], ["a3", "b1", 0.8]],
            [["a1", "b1", 0.3, "early_exit"]],
        )
        assert dict(restored._lazy) == {1 * 2 + 1: 0.5}
        assert cached_scores(restored) == cached_scores(cache)
        assert restored.export_state() == document

    def test_buckets_count_every_candidate_once(self, fork):
        cache = table_cache()
        cache.seed(cache_seed([
            ("a1", "b1", 0.9, "exact"),
            ("a1", "b2", 0.3, "qgram"), ("a2", "b1", 0.69, "length"),
        ]))
        # An exact score supersedes the bound.
        add_scores(cache, [("a2", "b1")], [0.8])
        buckets = cache.buckets(cache.table.select(OLD_IDS, NEW_IDS), 0.5)
        assert cache.hits == 2 and cache.misses == 2
        assert buckets.pruned == {"length": 0, "qgram": 1, "early_exit": 0}
        assert as_list(buckets.evaluate) == [3]


def test_loop_fork_links_like_the_numpy_fork():
    """The whole pipeline on the plain-loop fork: same ledger (decisions
    and effort counters) as the vectorized bookkeeping, per-pair scorer
    on both sides."""
    if pairtable_module.numpy_or_none() is None:
        pytest.skip("numpy unavailable: only the loop fork exists")
    old, new = generate_pair(seed=7, initial_households=20).datasets
    config = LinkageConfig(scoring_backend="python", max_block_size=8)
    vectorized = ledger_hash(link_datasets(old, new, config))
    with numpy_hidden():
        assert ledger_hash(link_datasets(old, new, config)) == vectorized
