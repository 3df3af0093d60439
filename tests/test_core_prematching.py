"""Unit tests for pre-matching (Section 3.2), including Fig. 3."""

import pytest

from repro.blocking.standard import CrossProductBlocker
from repro.core.config import LinkageConfig
from repro.core.filtering import PairScorer
from repro.core.pairtable import PairTable
from repro.core.prematching import prematching
from repro.core.simcache import SimilarityCache
from repro.datagen import generate_pair
from repro.instrumentation import CANDIDATE_PAIRS, Instrumentation
from repro.similarity.vector import build_similarity_function

NAME_FUNC = build_similarity_function(
    [("first_name", "qgram", 0.5), ("surname", "qgram", 0.5)], 1.0
)


def run_prematch(census_1871, census_1881, func=NAME_FUNC):
    return prematching(
        list(census_1871.iter_records()),
        list(census_1881.iter_records()),
        func,
        CrossProductBlocker(),
    )


class TestFig3Clusters:
    """The running example with ω = (0.5, 0.5) on names and δ = 1 must
    reproduce the ten clusters of Fig. 3."""

    def test_number_of_clusters(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        assert result.num_clusters == 10

    def test_john_ashworth_cluster(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        assert result.cluster_of("1871_1") == ["1871_1", "1881_1", "1881_9"]

    def test_elizabeth_ashworth_cluster(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        assert result.cluster_of("1871_2") == ["1871_2", "1881_10", "1881_2"]

    def test_smith_clusters(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        assert result.cluster_of("1871_6") == ["1871_6", "1881_4"]
        assert result.cluster_of("1871_8") == ["1871_8", "1881_6"]

    def test_singletons(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        # John Riley (H), Alice Ashworth (I), Alice Smith (K), Mary (G).
        for record_id in ("1871_5", "1871_3", "1881_7", "1881_8"):
            assert result.cluster_of(record_id) == [record_id]

    def test_alice_records_have_different_labels(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        assert not result.same_label("1871_3", "1881_7")


class TestPreMatchResult:
    def test_every_record_labelled(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        total = len(census_1871) + len(census_1881)
        assert len(result.labels) == total

    def test_cluster_size(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        assert result.cluster_size("1871_1") == 3
        assert result.cluster_size("1871_5") == 1

    def test_matched_pairs_above_threshold(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        assert ("1871_1", "1881_1") in result.matched_pairs
        assert ("1871_3", "1881_7") not in result.matched_pairs

    def test_pair_sim_lazy_computation(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        # Alice/Alice is not a candidate at δ=1 but can still be scored.
        value = result.pair_sims([("1871_3", "1881_7")])["1871_3", "1881_7"]
        assert 0.0 < value < 1.0

    def test_relaxed_threshold_merges_more(self, census_1871, census_1881):
        relaxed = build_similarity_function(
            [("first_name", "qgram", 0.5), ("surname", "qgram", 0.5)], 0.5
        )
        result = run_prematch(census_1871, census_1881, relaxed)
        assert result.num_clusters < 10
        # At δ = 0.5 Alice Ashworth and Alice Smith share a cluster.
        assert result.same_label("1871_3", "1881_7")

    def test_cached_scores_reused(self, census_1871, census_1881):
        cache = SimilarityCache()
        old = list(census_1871.iter_records())
        new = list(census_1881.iter_records())
        blocker = CrossProductBlocker()
        first = prematching(old, new, NAME_FUNC, blocker, cached_scores=cache)
        key = ("1871_1", "1881_1")
        assert len(cache) and key in first.matched_pairs  # populated
        # Prove the cache is consulted.
        cache.add_rows(*cache.table.rows_of([key]), [0.0])
        second = prematching(old, new, NAME_FUNC, blocker, cached_scores=cache)
        assert key not in second.matched_pairs

    def test_pair_scored_in_the_same_call_is_no_cache_hit(self):
        """With filtering off, a fresh cache is read once per candidate:
        every candidate misses, and scoring it does not turn the later
        threshold test into a hit."""
        old, new = generate_pair(seed=7, initial_households=30).datasets
        config = LinkageConfig()
        cache = SimilarityCache()
        instrumentation = Instrumentation()
        prematching(
            list(old.iter_records()),
            list(new.iter_records()),
            config.build_sim_func(),
            config.build_blocker(),
            cached_scores=cache,
            instrumentation=instrumentation,
        )
        candidates = instrumentation.value(CANDIDATE_PAIRS)
        assert candidates > 0
        assert cache.hits == 0
        assert cache.misses == candidates

    def test_cached_pairs_filtered_to_current_records(
        self, census_1871, census_1881
    ):
        """A cache's pair table may hold pairs of records outside the
        current frontier; only pairs among the given records are
        candidates."""
        old_all = list(census_1871.iter_records())
        new = list(census_1881.iter_records())
        cache = SimilarityCache()
        cache.attach(PairTable(
            census_1871.record_ids, census_1881.record_ids,
            {("1871_1", "1881_1"), ("1871_8", "1881_1"), ("1871_2", "1881_9")},
        ))
        instrumentation = Instrumentation()
        result = prematching(
            old_all[:2], new, NAME_FUNC, CrossProductBlocker(),
            cached_scores=cache, instrumentation=instrumentation,
            scorer=PairScorer(NAME_FUNC, old_all, new),
        )
        assert ("1871_1", "1881_1") in result.matched_pairs
        assert instrumentation.value(CANDIDATE_PAIRS) == 2

    def test_multi_record_clusters(self, census_1871, census_1881):
        result = run_prematch(census_1871, census_1881)
        multi = result.multi_record_clusters()
        assert all(len(members) > 1 for members in multi.values())
        assert len(multi) == 6  # clusters A-F of Fig. 3
