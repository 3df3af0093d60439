"""SimilarityCache over a pair table: one home per score.

A blocked pair — one of the attached :class:`PairTable`'s — keeps its
exact score or its bound in the pair-id arrays and is never evicted;
any other pair keeps only an exact score, in the bounded lazy LRU.
"""

from importlib import import_module

import pytest

from repro.checkpoint.section import compress_rows
from repro.core.config import LinkageConfig
from repro.core.pairtable import PairTable
from repro.core.pipeline import link_datasets
from repro.core.prematching import _lazy_scores, prematching
from repro.core.simcache import SimilarityCache
from repro.datagen import generate_pair
from repro.instrumentation import PAIRS_SCORED

from tests.conftest import (
    cache_section, cache_seed, entry_rows, restored_cache,
)

#: The table's pairs; every other pair is off the table.
BLOCKED = [(f"p{index}", f"q{index}") for index in range(10)]


def table_cache(max_lazy_entries=None):
    cache = SimilarityCache(max_lazy_entries=max_lazy_entries)
    cache.attach(PairTable(
        [old_id for old_id, _ in BLOCKED],
        [new_id for _, new_id in BLOCKED],
        BLOCKED,
    ))
    return cache


class TestBasics:
    def test_get_miss_then_hit(self):
        cache = table_cache()
        for key in (BLOCKED[0], ("a", "b")):
            assert cache.get(key) is None
            cache[key] = 0.5
            assert cache.get(key) == 0.5
        assert cache.misses == 2
        assert cache.hits == 2

    def test_getitem_and_contains(self):
        cache = table_cache()
        cache[BLOCKED[0]] = 0.9
        assert BLOCKED[0] in cache
        assert cache[BLOCKED[0]] == 0.9
        with pytest.raises(KeyError):
            cache[("x", "y")]

    def test_len_and_items(self):
        cache = table_cache()
        cache[("c", "d")] = 0.1
        cache[BLOCKED[0]] = 0.9
        assert len(cache) == 2
        assert list(cache.items()) == [(BLOCKED[0], 0.9), (("c", "d"), 0.1)]
        assert cache.num_pinned == 1
        assert cache.num_lazy == 1


class TestEviction:
    def test_lazy_entries_are_capped(self):
        cache = table_cache(max_lazy_entries=3)
        for index in range(5):
            cache[(f"o{index}", f"n{index}")] = float(index)
        assert cache.num_lazy == 3
        assert cache.evictions == 2
        # Oldest entries were dropped, newest survive.
        assert ("o0", "n0") not in cache
        assert ("o4", "n4") in cache

    def test_pinned_entries_never_evicted(self):
        cache = table_cache(max_lazy_entries=2)
        for index, key in enumerate(BLOCKED):
            cache[key] = float(index)
        for index in range(10):
            cache[(f"o{index}", f"n{index}")] = float(index)
        assert cache.num_pinned == 10
        assert cache.num_lazy == 2
        assert cache.get(BLOCKED[0]) == 0.0

    def test_lru_refresh_on_get(self):
        cache = table_cache(max_lazy_entries=2)
        cache[("a", "a")] = 0.1
        cache[("b", "b")] = 0.2
        cache.get(("a", "a"))  # refresh: a becomes most recent
        cache[("c", "c")] = 0.3  # evicts b, not a
        assert ("a", "a") in cache
        assert ("b", "b") not in cache

    def test_pin_promotes_lazy_entry(self):
        """A score stored the lazy way for a blocked pair is pinned: the
        one-entry LRU evicts around it."""
        cache = table_cache(max_lazy_entries=1)
        cache[BLOCKED[0]] = 0.1
        cache[("b", "b")] = 0.2
        cache[("c", "c")] = 0.3
        assert BLOCKED[0] in cache
        assert (cache.num_pinned, cache.num_lazy, cache.evictions) == (1, 1, 1)

    def test_setitem_does_not_shadow_pinned(self):
        """A blocked pair's score never enters the LRU, so no lazy copy
        can shadow its pin."""
        cache = table_cache()
        cache.seed(cache_seed([BLOCKED[0] + (0.9, "exact")]))
        cache[BLOCKED[0]] = 0.9
        assert cache[BLOCKED[0]] == 0.9
        assert cache.num_lazy == 0
        assert entry_rows(cache)[0] == [["p0", "q0", 0.9]]

    def test_unbounded_when_disabled(self):
        cache = table_cache(max_lazy_entries=None)
        for index in range(1000):
            cache[(f"o{index}", f"n{index}")] = float(index)
        assert cache.num_lazy == 1000
        assert cache.evictions == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            SimilarityCache(max_lazy_entries=-1)


class TestCounters:
    def test_counters_snapshot(self):
        cache = table_cache()
        cache.get(BLOCKED[0])
        cache[BLOCKED[0]] = 0.5
        cache.get(BLOCKED[0])
        counters = cache.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["pinned"] == 1

    def test_no_double_scoring_invariant(self):
        """While evictions == 0, each miss that was scored added one
        entry (misses == len(cache)): nothing was computed twice."""
        cache = table_cache()
        keys = BLOCKED + [(f"o{index}", f"n{index}") for index in range(10)]
        for index, key in enumerate(keys):
            if cache.get(key) is None:
                cache[key] = float(index)
        for key in keys:  # all hits now
            assert cache.get(key) is not None
        assert cache.misses == len(cache) == 20
        assert cache.evictions == 0
        assert cache.hits == 20


def _round(max_lazy_entries):
    """Pre-matching of a small generated pair, pruning on: a round whose
    table holds exact scores, bounds and unknown pairs."""
    old, new = generate_pair(seed=7, initial_households=5).datasets
    config = LinkageConfig(scoring_backend="python")
    sim_func = config.build_sim_func()
    return prematching(
        list(old.iter_records()),
        list(new.iter_records()),
        sim_func,
        config.build_blocker(),
        cached_scores=SimilarityCache(max_lazy_entries=max_lazy_entries),
        candidate_filter=config.build_candidate_filter(sim_func),
    )


def _off_table_pairs(result, count):
    table = result.scores.table
    return [
        (old_id, new_id)
        for old_id in sorted(result.old_index)
        for new_id in sorted(result.new_index)
        if table.pid(old_id, new_id) < 0
    ][:count]


class TestOneHome:
    def test_seed_rows_off_the_table_are_dropped(self, fork):
        """Entries whose ids the table lacks, and entries of unblocked
        pairs of its ids, are dropped."""
        cache = table_cache()
        cache.seed(cache_seed([
            ("p0", "q0", 0.9, "exact"), ("x", "y", 0.8, "exact"),
            ("p1", "q1", 0.3, "qgram"), ("x", "z", 0.2, "length"),
            ("p0", "q1", 0.5, "exact"),
        ]))
        assert entry_rows(cache) == (
            [["p0", "q0", 0.9]], [["p1", "q1", 0.3, "qgram"]]
        )
        assert ("x", "y") not in cache and ("p0", "q1") not in cache
        assert cache.num_lazy == 0

    def test_export_rows_breaking_the_rule_are_dropped(self, fork):
        """Section entries of pairs off the table, and lazy rows of
        blocked pairs, are dropped on import."""
        document = {
            **cache_section([
                ("p0", "q0", 0.9, "exact"), ("x", "y", 0.8, "exact"),
                ("x", "z", 0.2, "length"),
            ]),
            "lazy": [compress_rows([["p2", "q2", 0.7], ["u", "v", 0.6]])],
            "hits": 3,
            "misses": 4,
            "evictions": 0,
        }
        restored = restored_cache(document, table_cache().table)
        assert entry_rows(restored) == ([["p0", "q0", 0.9]], [])
        assert list(restored.items()) == [(("p0", "q0"), 0.9), (("u", "v"), 0.6)]
        assert restored.peek(("p2", "q2")) is None

    def test_seed_before_attach_raises(self):
        with pytest.raises(ValueError, match="attach"):
            SimilarityCache().seed(cache_seed([("p0", "q0", 0.9, "exact")]))

    def test_blocked_pair_scored_on_demand_is_pinned(self, fork):
        result = _round(max_lazy_entries=1)
        cache = result.scores
        blocked = next(
            pair
            for pair in cache.table.pairs(range(len(cache.table)))
            if cache.peek(pair) is None
        )
        off_table = _off_table_pairs(result, 2)
        score = result.pair_sims([blocked])[blocked]
        result.pair_sims(off_table)  # the one-entry LRU evicts once
        assert cache.evictions == 1 and cache.num_lazy == 1
        assert cache.peek(blocked) == score
        assert list(blocked) + [score] in entry_rows(cache)[0]
        # The checkpoint's cache section holds the pin.
        exported = restored_cache(cache.export_state(), cache.table)
        assert list(blocked) + [score] in entry_rows(exported)[0]

    def test_evicted_off_table_pair_is_scored_again(self, fork):
        result = _round(max_lazy_entries=1)
        first, second = _off_table_pairs(result, 2)
        scored = result.instrumentation.value(PAIRS_SCORED)
        score = result.pair_sims([first])[first]
        result.pair_sims([second])  # evicts the first
        assert first not in result.scores
        assert result.pair_sims([first]) == {first: score}
        assert result.instrumentation.value(PAIRS_SCORED) == scored + 3
        assert result.scores.evictions == 2

    def test_remaining_pairs_beyond_the_table_stay_lazy(self, fork, monkeypatch):
        """A block size cap makes the remaining pass's re-blocking
        propose pairs the table lacks: they are scored exactly and kept
        in the LRU, with no pin and no bound."""
        beyond = []

        def spy(pairs, *args):
            beyond.extend(pairs)
            return _lazy_scores(pairs, *args)

        # import_module: repro.core re-exports functions under their
        # submodules' names.
        monkeypatch.setattr(
            import_module("repro.core.remaining"), "_lazy_scores", spy
        )
        old, new = generate_pair(seed=20170321, initial_households=50).datasets
        result = link_datasets(
            old, new,
            LinkageConfig(scoring_backend="python", max_block_size=8),
            keep_cache=True,
        )
        cache = result.cache
        assert beyond and all(cache.table.pid(*pair) < 0 for pair in beyond)
        assert all(pair in cache._lazy for pair in beyond)
        pinned, bounds = entry_rows(cache)
        assert all(
            cache.table.pid(row[0], row[1]) >= 0 for row in pinned + bounds
        )
        assert result.num_record_links == 108
        assert result.remaining_record_links == 24
