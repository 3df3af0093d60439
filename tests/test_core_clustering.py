"""Tests for the pre-matching clustering strategies.

:func:`repro.core.clustering.cluster_records` clusters a round's
matched pair ids over the rows of its pair table.  The examples below
give every record id to both sides of the table, so a chain such as
(a, b), (b, c) joins through the one node of ``b``; the battery at the
end checks labels, clusters and matched pairs against the id-based
reference of ``tests/clustering_reference.py`` on random pair tables,
on the numpy steps and on their plain-loop twins (the ``fork``
fixture).
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    ALL_STRATEGIES,
    CENTER,
    CONNECTED_COMPONENTS,
    STAR,
    cluster_records,
)
from repro.core.pairtable import PairTable
from repro.core.prematching import PreMatchResult
from repro.core.simcache import SimilarityCache

from tests import clustering_reference as reference

IDS = ["a", "b", "c", "d", "e"]


def prematch_of(old_ids, new_ids, scores, frontier, threshold, strategy):
    """A round's :class:`PreMatchResult` over a pair table of ``scores``'
    pairs (each pinned in the cache), its frontier ``(old ids, new
    ids)``: the matched pair ids the resolver would hand on, and their
    row labels."""
    cache = SimilarityCache()
    cache.attach(PairTable(old_ids, new_ids, list(scores)))
    table = cache.table
    cache.add_rows(*table.rows_of(list(scores)), list(scores.values()))
    rows = table.frontier(*frontier)
    matched = cache.reaching(table.select_rows(*rows), threshold)
    return PreMatchResult(
        sim_func=None, old_index={}, new_index={}, scorer=None,
        scores=cache, matched_pids=matched,
        row_labels=cluster_records(
            table, rows, matched, cache.values(matched), strategy
        ),
    )


def clusters_of(strategy, scores, threshold=0.5, ids=IDS):
    """The clusters of ``ids`` (each id on both sides of the table) as
    sorted member lists, ordered by label."""
    prematch = prematch_of(ids, ids, scores, (ids, ids), threshold, strategy)
    return list(prematch.clusters.values())


class TestConnectedComponents:
    def test_chains_merge(self):
        scores = {("a", "b"): 0.9, ("b", "c"): 0.6}
        clusters = clusters_of(CONNECTED_COMPONENTS, scores)
        assert ["a", "b", "c"] in clusters

    def test_threshold_filters(self):
        scores = {("a", "b"): 0.4}
        clusters = clusters_of(CONNECTED_COMPONENTS, scores)
        assert ["a"] in clusters and ["b"] in clusters

    def test_singletons_for_unmatched(self):
        clusters = clusters_of(CONNECTED_COMPONENTS, {})
        assert clusters == [["a"], ["b"], ["c"], ["d"], ["e"]]


class TestCenterClustering:
    def test_chain_broken_at_center(self):
        """b joins a's cluster; c is only similar to b (a satellite), so
        it cannot chain in — the mega-cluster problem is avoided."""
        scores = {("a", "b"): 0.9, ("b", "c"): 0.8}
        clusters = clusters_of(CENTER, scores)
        assert ["a", "b"] in clusters
        assert ["c"] in clusters

    def test_join_via_center_allowed(self):
        scores = {("a", "b"): 0.9, ("a", "c"): 0.8}
        clusters = clusters_of(CENTER, scores)
        assert ["a", "b", "c"] in clusters

    def test_deterministic(self):
        scores = {("a", "b"): 0.9, ("b", "c"): 0.8, ("c", "d"): 0.7}
        assert clusters_of(CENTER, scores) == clusters_of(CENTER, scores)


class TestStarClustering:
    def test_satellite_prefers_best_center(self):
        # Two stars a and d; c is adjacent to both centers — it must
        # join the better-scoring one (d).
        scores = {
            ("a", "b"): 0.95,
            ("d", "e"): 0.9,
            ("a", "c"): 0.6,
            ("c", "d"): 0.8,
        }
        clusters = clusters_of(STAR, scores)
        cluster_with_c = next(group for group in clusters if "c" in group)
        assert "d" in cluster_with_c

    def test_chain_broken_at_satellite(self):
        scores = {("a", "b"): 0.9, ("b", "c"): 0.8}
        clusters = clusters_of(STAR, scores)
        assert ["c"] in clusters

    def test_every_record_exactly_once(self):
        scores = {
            ("a", "b"): 0.9,
            ("b", "c"): 0.85,
            ("c", "d"): 0.8,
            ("d", "e"): 0.75,
        }
        clusters = clusters_of(STAR, scores)
        flattened = sorted(record for group in clusters for record in group)
        assert flattened == IDS


class TestCommon:
    def test_unknown_strategy(self):
        table = PairTable(IDS, IDS, [])
        with pytest.raises(ValueError):
            cluster_records(
                table, table.frontier(IDS, IDS), [], [], "agglomerative"
            )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_partition_property(self, strategy):
        scores = {
            ("a", "b"): 0.9,
            ("b", "c"): 0.7,
            ("a", "d"): 0.55,
            ("d", "e"): 0.5,
        }
        clusters = clusters_of(strategy, scores)
        flattened = sorted(record for group in clusters for record in group)
        assert flattened == IDS

    @pytest.mark.parametrize("strategy", (CENTER, STAR))
    def test_finer_than_connected_components(self, strategy):
        scores = {
            ("a", "b"): 0.9,
            ("b", "c"): 0.8,
            ("c", "d"): 0.7,
            ("d", "e"): 0.6,
        }
        fine = clusters_of(strategy, scores)
        coarse = clusters_of(CONNECTED_COMPONENTS, scores)
        assert len(fine) >= len(coarse)
        # Every fine cluster lies inside one coarse cluster.
        coarse_of = {
            record: index
            for index, group in enumerate(coarse)
            for record in group
        }
        for group in fine:
            assert len({coarse_of[record] for record in group}) == 1

    def test_pipeline_accepts_all_strategies(self, census_1871, census_1881,
                                             example_config):
        import dataclasses

        from repro.core.pipeline import link_datasets

        for strategy in ALL_STRATEGIES:
            config = dataclasses.replace(example_config, clustering=strategy)
            result = link_datasets(census_1871, census_1881, config)
            assert ("1871_1", "1881_1") in result.record_mapping


# -- the row-space clustering against the id-based reference ------------------

#: Function-scoped ``fork`` fixture under @given: it only hides numpy
#: for the whole test, which every example shares.
FORKED = settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: One id pool for both sides: ids collide across the sides (one node)
#: and interleave in sorted order.
POOL = [f"r{number:02d}" for number in range(12)]

#: Scores with ties and values right at δ = 0.5.
SCORES = (0.2, 0.49, 0.5, 0.5, 0.7, 0.9, 0.9, 1.0)


@st.composite
def rounds(draw):
    """A pair table over two id lists from :data:`POOL`, a score per
    blocked pair and a frontier of each side."""
    old_ids = sorted(draw(st.sets(st.sampled_from(POOL), max_size=9)))
    new_ids = sorted(draw(st.sets(st.sampled_from(POOL), max_size=9)))
    every_pair = [(old_id, new_id) for old_id in old_ids for new_id in new_ids]
    pairs = draw(st.lists(
        st.sampled_from(every_pair), unique=True, max_size=24
    )) if every_pair else []
    scores = {pair: draw(st.sampled_from(SCORES)) for pair in pairs}
    frontier = tuple(
        sorted(draw(st.sets(st.sampled_from(ids)))) if ids else []
        for ids in (old_ids, new_ids)
    )
    return old_ids, new_ids, scores, frontier


def assert_like_reference(old_ids, new_ids, scores, frontier, strategy):
    prematch = prematch_of(old_ids, new_ids, scores, frontier, 0.5, strategy)
    old_front, new_front = (set(ids) for ids in frontier)
    candidates = {
        pair: score for pair, score in scores.items()
        if pair[0] in old_front and pair[1] in new_front
    }
    expected = reference.cluster_records(
        old_front | new_front, candidates, 0.5, strategy
    )
    assert prematch.matched_pairs == sorted(
        pair for pair, score in candidates.items() if score >= 0.5
    )
    assert prematch.labels == reference.labels_of(expected)
    assert prematch.clusters == dict(enumerate(expected))
    assert prematch.num_clusters == len(expected)
    for members in expected:
        assert prematch.cluster_size(members[0]) == len(members)


class TestAgainstReference:
    @FORKED
    @given(case=rounds())
    @example(case=(["r01"], ["r02"], {}, (["r01"], ["r02"])))
    @example(case=(
        ["r01", "r03"], ["r01", "r02"],
        {("r01", "r01"): 0.9, ("r03", "r02"): 0.2, ("r03", "r01"): 0.49},
        (["r01", "r03"], ["r01", "r02"]),
    ))
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_random_rounds(self, fork, strategy, case):
        assert_like_reference(*case, strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_long_chain(self, fork, strategy):
        """A path over 2,400 nodes whose ids are shuffled along it: the
        numpy fork needs many rounds of hooking and pointer jumping."""
        rng = random.Random(2017)
        ids = [f"n{number:05d}" for number in range(2400)]
        rng.shuffle(ids)
        path_old, path_new = ids[0::2], ids[1::2]
        scores = {}
        for step, new_id in enumerate(path_new):
            scores[path_old[step], new_id] = rng.choice(SCORES[2:])
            if step + 1 < len(path_old):
                scores[path_old[step + 1], new_id] = rng.choice(SCORES[2:])
        old_ids, new_ids = sorted(path_old), sorted(path_new)
        assert_like_reference(
            old_ids, new_ids, scores, (old_ids, new_ids), strategy
        )
        if strategy == CONNECTED_COMPONENTS:
            prematch = prematch_of(
                old_ids, new_ids, scores, (old_ids, new_ids), 0.5, strategy
            )
            assert prematch.num_clusters == 1
