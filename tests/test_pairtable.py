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
from repro.checkpoint import ledger_hash
from repro.core.config import LinkageConfig
from repro.core.filtering import PairScorer
from repro.core.pairtable import PairTable
from repro.core.pipeline import link_datasets
from repro.core.simcache import KIND_NONE, SimilarityCache
from repro.datagen import generate_pair

from tests.conftest import cache_seed, entry_rows, numpy_hidden, restored_cache

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
        assert [table.pid(*pair) for pair in sorted(PAIRS)] == [0, 1, 2, 3]
        assert table.pid("a2", "b2") == -1
        assert table.pid("zz", "b1") == -1

    def test_batch_lookups_match_scalar_ones(self, fork):
        table = PairTable(OLD_IDS, NEW_IDS, PAIRS)
        queries = [("a2", "b2"), ("a3", "b1"), ("x", "b1"), ("a1", "b1")]
        assert as_list(table.pids(queries)) == [
            table.pid(*pair) for pair in queries
        ]
        pids, extra = table.split(sorted(queries))
        assert as_list(pids) == [0, 3]
        assert extra == [("a2", "b2"), ("x", "b1")]

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
        cache["a1", "b1"] = 0.9
        cache.seed(cache_seed([("a2", "b1", 0.4, "qgram")]))
        cache["a2", "b2"] = 0.7  # not blocked: a lazy entry
        assert as_list(cache._value) == [0.9, 0.0, 0.4, 0.0]
        assert as_list(cache._kind) == [0, KIND_NONE, 2, KIND_NONE]
        assert dict(cache._lazy) == {("a2", "b2"): 0.7}
        assert cache.get(("a1", "b1")) == 0.9
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
        cache["a1", "b2"] = 0.25  # pinned over its bound
        cache["a2", "b2"] = 0.5  # not blocked: a lazy entry
        document = cache.export_state()
        restored = restored_cache(document, PairTable(OLD_IDS, NEW_IDS, PAIRS))
        assert entry_rows(restored) == (
            [["a1", "b2", 0.25], ["a2", "b1", 0.6], ["a3", "b1", 0.8]],
            [["a1", "b1", 0.3, "early_exit"]],
        )
        assert dict(restored._lazy) == {("a2", "b2"): 0.5}
        assert list(restored.items()) == list(cache.items())
        assert restored.export_state() == document

    def test_buckets_count_every_candidate_once(self, fork):
        cache = table_cache()
        cache.seed(cache_seed([
            ("a1", "b1", 0.9, "exact"),
            ("a1", "b2", 0.3, "qgram"), ("a2", "b1", 0.69, "length"),
        ]))
        cache["a2", "b1"] = 0.8  # an exact score supersedes the bound
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
