"""SimilarityCache over a pair table: one home and one key per score.

A blocked pair — one of the attached :class:`PairTable`'s — keeps its
exact score or its bound in the pair-id arrays and is never evicted;
any other pair of the table's rows keeps only an exact score, in the
bounded lazy LRU keyed by ``old_row * width + new_row``.  Every lookup
and store names its pairs by their rows; tests name them by ids and map
them with ``PairTable.rows_of`` (``add_scores``, ``lookup_scores``).
"""

from importlib import import_module

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint.section import compress_rows, unpack_lazy_rows
from repro.core.config import LinkageConfig
from repro.core.pairtable import PairTable
from repro.core.pipeline import link_datasets
from repro.core.prematching import (
    _filtered_bulk_scores, _lazy_row_scores, prematching,
)
from repro.core.remaining import plausible_pairs
from repro.core.simcache import SimilarityCache, _as_list
from repro.datagen import generate_pair
from repro.instrumentation import PAIRS_SCORED

from tests.conftest import (
    add_scores, cache_section, cache_seed, cached_scores, entry_rows,
    lookup_scores, restored_cache,
)
from tests.simcache_reference import IdKeyedCache

#: The table's pairs; every other pair of its rows is off the table.
BLOCKED = [(f"p{index}", f"q{index}") for index in range(10)]

#: Pairs of the table's rows that it lacks.
OFF = [(f"p{index}", f"q{(index + 1) % 10}") for index in range(10)]


def table_cache(max_lazy_entries=None, size=10):
    """A cache over a table whose blocked pairs are ``(p<i>, q<i>)``."""
    blocked = [(f"p{index}", f"q{index}") for index in range(size)]
    cache = SimilarityCache(max_lazy_entries=max_lazy_entries)
    cache.attach(PairTable(
        sorted(old_id for old_id, _ in blocked),
        sorted(new_id for _, new_id in blocked),
        blocked,
    ))
    return cache


class TestBasics:
    def test_get_miss_then_hit(self):
        cache = table_cache()
        for pair in (BLOCKED[0], OFF[0]):
            assert lookup_scores(cache, [pair]) == [None]
            add_scores(cache, [pair], [0.5])
            assert lookup_scores(cache, [pair]) == [0.5]
        assert cache.misses == 2
        assert cache.hits == 2

    def test_len_and_items(self):
        cache = table_cache()
        add_scores(cache, [OFF[2]], [0.1])
        add_scores(cache, [BLOCKED[0]], [0.9])
        assert len(cache) == 2
        assert entry_rows(cache) == ([["p0", "q0", 0.9]], [])
        assert cached_scores(cache) == {BLOCKED[0]: 0.9, OFF[2]: 0.1}
        assert cache.num_pinned == 1
        assert cache.num_lazy == 1


class TestEviction:
    def test_lazy_entries_are_capped(self):
        cache = table_cache(max_lazy_entries=3)
        add_scores(cache, OFF[:5], [float(index) for index in range(5)])
        assert cache.num_lazy == 3
        assert cache.evictions == 2
        # Oldest entries were dropped, newest survive.
        assert list(cached_scores(cache)) == OFF[2:5]

    def test_pinned_entries_never_evicted(self):
        cache = table_cache(max_lazy_entries=2)
        add_scores(cache, BLOCKED, [float(index) for index in range(10)])
        add_scores(cache, OFF, [float(index) for index in range(10)])
        assert cache.num_pinned == 10
        assert cache.num_lazy == 2
        assert lookup_scores(cache, [BLOCKED[0]]) == [0.0]

    def test_lru_refresh_on_get(self):
        cache = table_cache(max_lazy_entries=2)
        add_scores(cache, OFF[:2], [0.1, 0.2])
        lookup_scores(cache, [OFF[0]])  # the first becomes most recent
        add_scores(cache, [OFF[2]], [0.3])  # evicts the second, not the first
        assert cached_scores(cache) == {OFF[0]: 0.1, OFF[2]: 0.3}

    def test_pin_promotes_lazy_entry(self):
        """A score stored the lazy way for a blocked pair is pinned: the
        one-entry LRU evicts around it."""
        cache = table_cache(max_lazy_entries=1)
        add_scores(cache, [BLOCKED[0]], [0.1])
        add_scores(cache, OFF[1:3], [0.2, 0.3])
        assert cached_scores(cache) == {BLOCKED[0]: 0.1, OFF[2]: 0.3}
        assert (cache.num_pinned, cache.num_lazy, cache.evictions) == (1, 1, 1)

    def test_add_rows_does_not_shadow_pinned(self):
        """A blocked pair's score never enters the LRU, so no lazy copy
        can shadow its pin."""
        cache = table_cache()
        cache.seed(cache_seed([BLOCKED[0] + (0.9, "exact")]))
        add_scores(cache, [BLOCKED[0]], [0.9])
        assert lookup_scores(cache, [BLOCKED[0]]) == [0.9]
        assert cache.num_lazy == 0
        assert entry_rows(cache)[0] == [["p0", "q0", 0.9]]

    def test_unbounded_when_disabled(self):
        cache = table_cache(max_lazy_entries=None, size=40)
        off = [
            (f"p{old}", f"q{new}")
            for old in range(40) for new in range(40) if old != new
        ][:1000]
        add_scores(cache, off, [float(index) for index in range(1000)])
        assert cache.num_lazy == 1000
        assert cache.evictions == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            SimilarityCache(max_lazy_entries=-1)


class TestCounters:
    def test_counters_snapshot(self):
        cache = table_cache()
        lookup_scores(cache, [BLOCKED[0]])
        add_scores(cache, [BLOCKED[0]], [0.5])
        lookup_scores(cache, [BLOCKED[0]])
        counters = cache.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["pinned"] == 1

    def test_no_double_scoring_invariant(self):
        """While evictions == 0, each miss that was scored added one
        entry (misses == len(cache)): nothing was computed twice."""
        cache = table_cache()
        pairs = BLOCKED + OFF
        for index, pair in enumerate(pairs):
            if lookup_scores(cache, [pair]) == [None]:
                add_scores(cache, [pair], [float(index)])
        assert None not in lookup_scores(cache, pairs)  # all hits now
        assert cache.misses == len(cache) == 20
        assert cache.evictions == 0
        assert cache.hits == 20


# -- the row-keyed LRU against the id-keyed reference ------------------------

#: Function-scoped ``fork`` fixture under @given: it only hides numpy
#: for the whole test, which every example shares.
FORKED = settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SCORES = (0.1, 0.25, 0.5, 0.75, 0.9)


@st.composite
def lru_programs(draw):
    """A small pair table (some pairs of its rows blocked, the rest
    off it), a lazy cap (1–4 or none) and a sequence of lookups and
    stores of distinct pairs, on and off the table."""
    old_ids = [f"o{index}" for index in range(draw(st.integers(1, 4)))]
    new_ids = [f"n{index}" for index in range(draw(st.integers(1, 4)))]
    every_pair = [(old_id, new_id) for old_id in old_ids for new_id in new_ids]
    blocked = draw(st.lists(st.sampled_from(every_pair), unique=True))
    cap = draw(st.one_of(st.none(), st.integers(1, 4)))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(("get", "add")),
            st.lists(st.sampled_from(every_pair), unique=True),
        ),
        min_size=1, max_size=12,
    ))
    steps = [
        (kind, pairs, [draw(st.sampled_from(SCORES)) for _ in pairs])
        for kind, pairs in steps
    ]
    return old_ids, new_ids, blocked, cap, steps


def assert_like_reference(cache, reference):
    assert (cache.hits, cache.misses, cache.evictions) == (
        reference.hits, reference.misses, reference.evictions
    )
    assert entry_rows(cache) == (
        [[*pair, score] for pair, score in sorted(reference.pinned.items())],
        [],
    )
    assert unpack_lazy_rows(cache.export_state()["lazy"]) == (
        reference.lazy_rows()
    )


class TestLazyLRUAgainstIdReference:
    """``get_rows``/``add_rows`` keep the lazy LRU under integer keys;
    :class:`tests.simcache_reference.IdKeyedCache` keeps the same
    entries under id tuples.  After every step both give the same
    scores and misses, the same tallies, pins and lazy rows in LRU
    order; a cache restored from the export drops the lazy rows whose
    ids are off the row spaces or whose pair is on the table."""

    @FORKED
    @given(program=lru_programs())
    def test_random_programs(self, fork, program):
        old_ids, new_ids, blocked, cap, steps = program
        cache = SimilarityCache(max_lazy_entries=cap)
        cache.attach(PairTable(old_ids, new_ids, blocked))
        reference = IdKeyedCache(blocked, cap)
        for kind, pairs, scores in steps:
            if kind == "get":
                expected = reference.get(pairs)
                values, missing = cache.get_rows(*cache.table.rows_of(pairs))
                assert _as_list(missing) == [
                    position for position, score in enumerate(expected)
                    if score is None
                ]
                assert [
                    score for score in _as_list(values) if score == score
                ] == [score for score in expected if score is not None]
            else:
                reference.add(pairs, scores)
                add_scores(cache, pairs, scores)
            assert_like_reference(cache, reference)

        document = cache.export_state()
        rows = reference.lazy_rows()
        rows.insert(0, ["stranger", new_ids[0], 0.5])  # off the old rows
        rows.append([old_ids[0], "stranger", 0.5])  # off the new rows
        rows.extend([*pair, 0.5] for pair in blocked[:1])  # on the table
        document["lazy"] = [compress_rows(rows)]
        restored = restored_cache(document, cache.table)
        assert_like_reference(restored, reference)
        assert len(restored) == len(cache)


# -- one home per score, over a generated round -------------------------------


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
        if table.pid_of_rows(table.old_index[old_id], table.new_index[new_id])
        < 0
    ][:count]


def _reference_pair_sims(result, pairs):
    """The lazy lookups one pair at a time: one ``get_rows`` call per
    pair (a hit or a miss; a hit in the LRU refreshes it), then the
    misses scored one by one in sorted pair order and each stored with
    its own ``add_rows`` call."""
    cache = result.scores
    found, missing = {}, []
    for pair in pairs:
        score = lookup_scores(cache, [pair])[0]
        if score is None:
            missing.append(pair)
        else:
            found[pair] = score
    for old_id, new_id in sorted(missing):
        score = result.sim_func.agg_sim(
            result.old_index[old_id], result.new_index[new_id]
        )
        add_scores(cache, [(old_id, new_id)], [score])
        result.instrumentation.count(PAIRS_SCORED)
        found[old_id, new_id] = score
    return found


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
        assert cached_scores(cache) == {("p0", "q0"): 0.9}
        assert cache.num_lazy == 0

    def test_export_rows_breaking_the_rule_are_dropped(self, fork):
        """Section entries of pairs off the table, lazy rows of blocked
        pairs and lazy rows of ids off the row spaces are dropped on
        import."""
        document = {
            **cache_section([
                ("p0", "q0", 0.9, "exact"), ("x", "y", 0.8, "exact"),
                ("x", "z", 0.2, "length"),
            ]),
            "lazy": [compress_rows([
                ["p2", "q2", 0.7], ["u", "v", 0.6], ["p0", "q1", 0.5],
            ])],
            "hits": 3,
            "misses": 4,
            "evictions": 0,
        }
        restored = restored_cache(document, table_cache().table)
        assert entry_rows(restored) == ([["p0", "q0", 0.9]], [])
        assert cached_scores(restored) == {
            ("p0", "q0"): 0.9, ("p0", "q1"): 0.5,
        }
        assert (restored.hits, restored.misses) == (3, 4)

    def test_seed_before_attach_raises(self):
        with pytest.raises(ValueError, match="attach"):
            SimilarityCache().seed(cache_seed([("p0", "q0", 0.9, "exact")]))

    def test_blocked_pair_scored_on_demand_is_pinned(self, fork):
        result = _round(max_lazy_entries=1)
        cache = result.scores
        pinned = {tuple(row[:2]) for row in entry_rows(cache)[0]}
        blocked = next(
            pair
            for pair in cache.table.pairs(range(len(cache.table)))
            if pair not in pinned
        )
        off_table = _off_table_pairs(result, 2)
        score = result.pair_sims([blocked])[blocked]
        result.pair_sims(off_table)  # the one-entry LRU evicts once
        assert cache.evictions == 1 and cache.num_lazy == 1
        assert cached_scores(cache)[blocked] == score
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
        assert first not in cached_scores(result.scores)
        assert result.pair_sims([first]) == {first: score}
        assert result.instrumentation.value(PAIRS_SCORED) == scored + 3
        assert result.scores.evictions == 2

    def test_remaining_pairs_beyond_the_table_stay_lazy(self, fork, monkeypatch):
        """A block size cap makes the remaining pass's re-blocking
        propose pairs the table lacks: they are scored exactly and kept
        in the LRU, with no pin and no bound."""
        beyond = []

        def spy(old_rows, new_rows, *args):
            beyond.extend(zip(_as_list(old_rows), _as_list(new_rows)))
            return _lazy_row_scores(old_rows, new_rows, *args)

        # import_module: repro.core re-exports functions under their
        # submodules' names.
        monkeypatch.setattr(
            import_module("repro.core.remaining"), "_lazy_row_scores", spy
        )
        old, new = generate_pair(seed=20170321, initial_households=50).datasets
        result = link_datasets(
            old, new,
            LinkageConfig(scoring_backend="python", max_block_size=8),
            keep_cache=True,
        )
        cache = result.cache
        table = cache.table
        assert beyond and all(
            table.pid_of_rows(*rows) < 0 for rows in beyond
        )
        assert all(
            old_row * table.width + new_row in cache._lazy
            for old_row, new_row in beyond
        )
        pinned, bounds = entry_rows(cache)
        assert all(
            table.pid_of_rows(table.old_index[row[0]], table.new_index[row[1]])
            >= 0
            for row in pinned + bounds
        )
        assert result.num_record_links == 108
        assert result.remaining_record_links == 24

    @pytest.mark.parametrize("max_lazy_entries", [1, 3])
    @pytest.mark.parametrize("entry", ["rows", "ids"])
    def test_lazy_lookups_match_the_id_reference(
        self, fork, entry, max_lazy_entries
    ):
        """The group stage's row entry point (``row_sims``), and
        ``pair_sims`` over it, leave the cache as lookups one pair at a
        time do (:func:`_reference_pair_sims`): the same scores, hits,
        misses, evictions, pins, bounds, LRU order and ``pairs_scored``.
        The pairs mix pinned and bounded blocked pairs with off-table
        pairs in an unsorted order; of the two off-table pairs already
        scored, the older one is asked for again (a hit that refreshes
        it, unless the one-entry LRU evicted it)."""
        reference, result = _round(max_lazy_entries), _round(max_lazy_entries)
        cache = reference.scores
        pinned, bounds = entry_rows(cache)
        assert pinned and bounds
        off_table = _off_table_pairs(reference, 3)
        _reference_pair_sims(reference, off_table[:2])
        result.pair_sims(off_table[:2])
        pairs = (
            off_table[2:] + [tuple(row[:2]) for row in bounds[2::-1]]
            + [tuple(row[:2]) for row in pinned[:2]] + off_table[:1]
        )
        expected = _reference_pair_sims(reference, pairs)
        if entry == "ids":
            found = result.pair_sims(pairs)
        else:
            values = result.row_sims(*cache.table.rows_of(pairs))
            found = dict(zip(pairs, values.tolist()))
        assert found == expected
        assert result.scores.counters() == cache.counters()
        assert entry_rows(result.scores) == entry_rows(cache)
        assert list(result.scores._lazy.items()) == list(cache._lazy.items())
        assert result.instrumentation.value(PAIRS_SCORED) == (
            reference.instrumentation.value(PAIRS_SCORED)
        )
        assert cache.evictions == (3 if max_lazy_entries == 1 else 0)

    def test_remaining_pass_maps_its_pairs_like_split(self, fork, monkeypatch):
        """The remaining pass hands the resolver the pair ids and the
        lazy path the rows of the pairs beyond the table that its
        age-plausible pairs give one at a time: each id pair's rows in
        the table, and its pair id, or none."""
        remaining = import_module("repro.core.remaining")
        seen = {}

        def kept_spy(*args):
            seen["kept"] = kept = plausible_pairs(*args)
            return kept

        def resolver_spy(pids, scores, *args):
            seen["pids"], seen["table"] = pids, scores.table
            return _filtered_bulk_scores(pids, scores, *args)

        def lazy_spy(old_rows, new_rows, *args):
            seen["beyond"] = list(zip(_as_list(old_rows), _as_list(new_rows)))
            return _lazy_row_scores(old_rows, new_rows, *args)

        monkeypatch.setattr(remaining, "plausible_pairs", kept_spy)
        monkeypatch.setattr(remaining, "_filtered_bulk_scores", resolver_spy)
        monkeypatch.setattr(remaining, "_lazy_row_scores", lazy_spy)
        old, new = generate_pair(seed=20170321, initial_households=50).datasets
        result = link_datasets(
            old, new,
            LinkageConfig(scoring_backend="python", max_block_size=8),
        )
        table = seen["table"]
        rows = list(zip(*table.rows_of(list(seen["kept"]))))
        pids = [table.pid_of_rows(*pair) for pair in rows]
        assert _as_list(seen["pids"]) == [pid for pid in pids if pid >= 0]
        assert seen["beyond"] == [
            pair for pair, pid in zip(rows, pids) if pid < 0
        ]
        assert len(seen["beyond"]) == 19
        assert result.remaining_record_links == 24
