"""Instrumentation layer: timers, counters and the pipeline's guarantees.

The load-bearing test here is the cache guarantee of the cross-iteration
pre-matching engine: over a full seeded linkage run, ``Sim_func.agg_sim``
is evaluated at most once per record pair — every δ round after the
first, and the final remaining pass, work from cached scores.
"""

import time
from collections import Counter

import pytest

from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair
from repro.instrumentation import (
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    FULL_AGG_SIM_CALLS,
    PAIRS_PRUNED_EARLY_EXIT,
    PAIRS_PRUNED_LENGTH,
    PAIRS_PRUNED_QGRAM,
    PAIRS_SCORED,
    QUEUE_POPS,
    SUBGRAPHS_BUILT,
    Instrumentation,
)
from repro.similarity.vector import SimilarityFunction


class TestInstrumentation:
    def test_stage_accumulates_time_and_calls(self):
        inst = Instrumentation()
        for _ in range(3):
            with inst.stage("work"):
                time.sleep(0.001)
        assert inst.stages["work"].calls == 3
        assert inst.seconds("work") >= 0.003
        assert inst.total_seconds() == inst.seconds("work")

    def test_counters(self):
        inst = Instrumentation()
        inst.count("pairs", 5)
        inst.count("pairs")
        assert inst.value("pairs") == 6
        assert inst.value("never") == 0
        inst.set_counter("pairs", 2)
        assert inst.value("pairs") == 2

    def test_merge(self):
        first = Instrumentation()
        second = Instrumentation()
        first.count("x", 1)
        second.count("x", 2)
        with second.stage("s"):
            pass
        first.merge(second)
        assert first.value("x") == 3
        assert first.stages["s"].calls == 1

    def test_report_lists_stages_and_counters(self):
        inst = Instrumentation()
        with inst.stage("prematching"):
            pass
        inst.count("pairs_scored", 42)
        report = inst.report()
        assert "prematching" in report
        assert "pairs_scored" in report
        assert "42" in report

    def test_nested_stage_not_added_to_total(self):
        inst = Instrumentation()
        with inst.stage("outer"):
            with inst.stage("inner"):
                time.sleep(0.002)
        assert inst.stages["inner"].nested_seconds == inst.seconds("inner")
        assert inst.stages["outer"].nested_seconds == 0.0
        assert inst.total_seconds() == inst.seconds("outer")

    def test_report_marks_nested_rows(self):
        inst = Instrumentation()
        with inst.stage("outer"):
            with inst.stage("inner"):
                pass
        rows = inst.report().splitlines()
        assert any(row.startswith("inner *") for row in rows)
        assert not any(row.startswith("outer *") for row in rows)

    def test_merge_keeps_nested_time_out_of_total(self):
        first = Instrumentation()
        second = Instrumentation()
        with second.stage("outer"):
            with second.stage("inner"):
                time.sleep(0.001)
        first.merge(second)
        assert first.total_seconds() == second.total_seconds()

    def test_report_on_empty_collector(self):
        assert "(empty)" in Instrumentation().report()

    def test_as_dict_round_trip(self):
        inst = Instrumentation()
        with inst.stage("s"):
            pass
        inst.count("c", 7)
        snapshot = inst.as_dict()
        assert snapshot["counters"] == {"c": 7}
        assert snapshot["stages"]["s"]["calls"] == 1


@pytest.fixture(scope="module")
def linked():
    """One seeded serial run with a call-count spy on agg_sim.

    Filtering is off: this module proves the *cache* guarantee (each pair
    computed at most once, misses == computations), which predates the
    pruning engine and must keep holding without it.  The engine
    evaluates comparators directly — invisible to an ``agg_sim`` spy and
    with its own counter semantics — and is covered by
    :class:`TestFilteringCounters` and ``tests/test_filtering_soundness``.
    The scoring backend is pinned to ``python`` for the same reason: the
    batch kernel (:mod:`repro.core.kernel`) scores whole chunks without
    ever calling ``agg_sim``, so the spy premise only holds on the
    per-pair reference path (kernel equivalence is proven separately in
    ``tests/test_kernel.py``).
    """
    series = generate_pair(seed=7, initial_households=40)
    old, new = series.datasets
    calls = Counter()
    original = SimilarityFunction.agg_sim

    def spy(self, old_record, new_record):
        calls[(old_record.record_id, new_record.record_id)] += 1
        return original(self, old_record, new_record)

    SimilarityFunction.agg_sim = spy
    try:
        result = link_datasets(
            old, new,
            LinkageConfig(filtering=False, scoring_backend="python"),
        )
    finally:
        SimilarityFunction.agg_sim = original
    return result, calls


class TestPipelineProfile:
    def test_profile_attached_with_stage_timers(self, linked):
        result, _ = linked
        profile = result.profile
        assert profile is not None
        for stage in ("enrichment", "blocking", "prematching", "subgraphs",
                      "scoring", "selection", "remaining"):
            assert stage in profile.stages
        # Alg. 2 pops every candidate subgraph from its queue exactly once.
        assert profile.value(QUEUE_POPS) == profile.value(SUBGRAPHS_BUILT)
        assert profile.value(SUBGRAPHS_BUILT) > 0

    def test_no_pair_scored_twice_across_iterations(self, linked):
        """Acceptance: zero repeat agg_sim computations for cached pairs."""
        result, calls = linked
        assert len(result.iterations) > 1  # the δ schedule actually iterated
        assert calls, "spy saw no scoring at all"
        repeated = {pair: n for pair, n in calls.items() if n > 1}
        assert not repeated, f"{len(repeated)} pairs scored more than once"

    def test_cache_counters_match_spy(self, linked):
        result, calls = linked
        profile = result.profile
        # Every miss triggered exactly one computation; no evictions on
        # this workload, so misses == unique pairs == pairs_scored.
        assert profile.value(CACHE_MISSES) == len(calls)
        assert profile.value(PAIRS_SCORED) == len(calls)
        assert profile.value(CACHE_EVICTIONS) == 0
        # The δ schedule re-tested candidate pairs from cache.
        assert profile.value(CACHE_HITS) > 0

    def test_later_rounds_score_no_candidate_pairs(self, linked):
        """From round 2 on, bulk pre-matching is pure cache lookups; the
        only new computations are lazy vertex pairs inside subgraphs."""
        result, _ = linked
        first = result.iterations[0]
        assert first.pairs_scored > 0
        assert first.cache_misses == first.pairs_scored
        for stats in result.iterations[1:]:
            assert stats.cache_hits > 0
            # Whatever was scored in a later round was a genuinely new
            # (lazily discovered) pair, never a recomputation.
            assert stats.pairs_scored == stats.cache_misses

    def test_iteration_stats_have_timings(self, linked):
        result, _ = linked
        assert all(stats.seconds >= 0.0 for stats in result.iterations)


@pytest.mark.parametrize("shards", [0, 2])
def test_profile_total_within_wall_clock(shards):
    """Stages nest (``filtering`` inside ``prematching``, and in the
    sharded pipeline per-shard stages inside ``remaining``), yet the total
    counts each second once: it never exceeds the run's wall clock."""
    old, new = generate_pair(seed=7, initial_households=40).datasets
    start = time.perf_counter()
    result = link_datasets(old, new, LinkageConfig(shards=shards))
    wall = time.perf_counter() - start
    profile = result.profile
    assert any(stats.nested_seconds for stats in profile.stages.values())
    assert profile.total_seconds() <= wall
    # Summing every row would count the nested stages twice.
    assert sum(stats.seconds for stats in profile.stages.values()) > (
        profile.total_seconds()
    )


class TestFilteringCounters:
    """Counter semantics of the candidate-pruning engine (default-on)."""

    @pytest.fixture(scope="class")
    def filtered_and_plain(self):
        series = generate_pair(seed=7, initial_households=40)
        old, new = series.datasets
        filtered = link_datasets(old, new, LinkageConfig())
        plain = link_datasets(old, new, LinkageConfig(filtering=False))
        return filtered, plain

    def test_full_calls_mirror_pairs_scored(self, filtered_and_plain):
        """full_agg_sim_calls counts exactly the full Eq. 3 evaluations —
        equal to pairs_scored with and without filtering."""
        for result in filtered_and_plain:
            assert result.profile.value(FULL_AGG_SIM_CALLS) == \
                result.profile.value(PAIRS_SCORED)

    def test_filtering_reduces_full_evaluations(self, filtered_and_plain):
        filtered, plain = filtered_and_plain
        filtered_calls = filtered.profile.value(FULL_AGG_SIM_CALLS)
        plain_calls = plain.profile.value(FULL_AGG_SIM_CALLS)
        assert 0 < filtered_calls < plain_calls
        # The headline promise: at least 2x fewer full evaluations.
        assert plain_calls >= 2 * filtered_calls
        # And strictly fewer full evaluations than candidate pairs.
        assert filtered_calls < filtered.profile.value("candidate_pairs")

    def test_prune_counters_attribute_the_decisions(self, filtered_and_plain):
        filtered, plain = filtered_and_plain
        profile = filtered.profile
        pruned = (
            profile.value(PAIRS_PRUNED_LENGTH)
            + profile.value(PAIRS_PRUNED_QGRAM)
            + profile.value(PAIRS_PRUNED_EARLY_EXIT)
        )
        assert pruned > 0
        # Default ω2 has q-gram and exact attributes only, so the q-gram
        # count filter and the early exit do the work; the length filter
        # only engages for edit-distance comparators.
        assert profile.value(PAIRS_PRUNED_QGRAM) > 0
        assert profile.value(PAIRS_PRUNED_EARLY_EXIT) > 0
        assert profile.value(PAIRS_PRUNED_LENGTH) == 0
        # The unfiltered run records no pruning at all.
        for name in (PAIRS_PRUNED_LENGTH, PAIRS_PRUNED_QGRAM,
                     PAIRS_PRUNED_EARLY_EXIT):
            assert plain.profile.value(name) == 0

    def test_filtering_stage_timer_present(self, filtered_and_plain):
        filtered, plain = filtered_and_plain
        assert "filtering" in filtered.profile.stages
        assert "filtering" not in plain.profile.stages

    def test_mappings_identical_to_unfiltered(self, filtered_and_plain):
        filtered, plain = filtered_and_plain
        assert sorted(filtered.record_mapping.pairs()) == \
            sorted(plain.record_mapping.pairs())
        assert sorted(filtered.group_mapping.pairs()) == \
            sorted(plain.group_mapping.pairs())
