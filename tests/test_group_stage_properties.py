"""Property-based tests of the group-matching engine (§3.3–§3.4).

Four contracts of the indexed parallel group stage, each exercised on
generated towns rather than hand-picked fixtures:

* the inverted record→household index emits exactly the candidate group
  pairs the brute-force |G_i| × |G_{i+1}| scan keeps;
* the batched round pass (``build_all_subgraphs``) builds, in every δ
  round, exactly the subgraphs a loop of one-pair ``build_subgraph``
  calls builds (``tests/group_reference.py``), and scores the same
  record pairs except those of group pairs that provably cannot yield a
  subgraph — with a kernel, without any per-pair ``agg_sim`` call;
* group-link selection is invariant under shuffling of the candidate
  subgraph order, for both conflict policies (reject and lazy requeue);
* the selection outcome is independent of the interpreter hash seed —
  checked for real, in subprocesses launched with different
  ``PYTHONHASHSEED`` values.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.backends as backends
import repro.core.pairtable as pairtable_module
from repro.core.config import LinkageConfig
from repro.core.enrichment import complete_groups
from repro.core.kernel import kernel_available
from repro.core.pipeline import link_datasets
from repro.core.prematching import prematching
from repro.core.scoring import score_subgraphs
from repro.core.selection import select_group_matches
from repro.core.subgraph import (
    GroupPairIndex,
    brute_force_group_pairs,
    build_all_subgraphs,
    group_tasks,
)
from repro.datagen import generate_pair
from repro.instrumentation import KERNEL_PAIRS, PAIRS_SCORED, Instrumentation
from repro.similarity.vector import SimilarityFunction

from tests.conftest import cached_scores, numpy_hidden
from tests.group_reference import (
    one_pair_at_a_time,
    pair_anchors,
    vertex_candidates,
)
from tests.strategies import census_dataset_pairs

RELAXED = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _group_stage(pair, config=None):
    """Run pre-matching + subgraph construction + scoring on a town pair."""
    old_dataset, new_dataset, _ = pair
    config = config or LinkageConfig()
    prematch = prematching(
        list(old_dataset.iter_records()),
        list(new_dataset.iter_records()),
        config.build_sim_func(),
        config.build_blocker(),
    )
    enriched_old = complete_groups(old_dataset)
    enriched_new = complete_groups(new_dataset)
    subgraphs = build_all_subgraphs(
        prematch, enriched_old, enriched_new, config
    )
    score_subgraphs(subgraphs, prematch, config)
    return prematch, enriched_old, enriched_new, subgraphs, config


def _selection_signature(selection):
    """Order-sensitive content signature of a selection outcome."""
    return (
        sorted(selection.group_mapping.pairs()),
        sorted(selection.extract_record_mapping().pairs()),
        [
            (s.old_group_id, s.new_group_id, tuple(s.vertices))
            for s in selection.accepted
        ],
    )


class TestIndexEqualsBruteForce:
    @given(census_dataset_pairs(min_households=4, max_households=10))
    @RELAXED
    def test_candidate_sets_identical(self, pair):
        """The inverted index emits exactly the brute-force candidate
        set — same pairs, same deterministic order."""
        old_dataset, new_dataset, _ = pair
        config = LinkageConfig()
        prematch = prematching(
            list(old_dataset.iter_records()),
            list(new_dataset.iter_records()),
            config.build_sim_func(),
            config.build_blocker(),
        )
        enriched_old = complete_groups(old_dataset)
        enriched_new = complete_groups(new_dataset)
        index = GroupPairIndex(enriched_old, enriched_new)
        indexed = index.candidate_pairs(prematch)
        brute = brute_force_group_pairs(prematch, enriched_old, enriched_new)
        assert indexed == brute
        # The skip count the instrumentation derives is never negative.
        assert index.cross_product_size >= len(indexed)


@contextmanager
def _around_group_stage(before):
    """Call ``before(args, kwargs)`` ahead of every group-stage call the
    default backend makes during the block."""
    original = backends.build_all_subgraphs

    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return original(*args, **kwargs)

    backends.build_all_subgraphs = wrapper
    try:
        yield
    finally:
        backends.build_all_subgraphs = original


def _subgraph_signature(subgraphs):
    return [
        (s.old_group_id, s.new_group_id, s.vertices, s.edges, s.num_anchors,
         s.avg_sim, s.e_sim, s.unique, s.g_sim)
        for s in subgraphs
    ]


def _private_copy(prematch):
    """The round's pre-match result with its own score store and
    counters, so two group stages can run on the same round."""
    return dataclasses.replace(
        prematch,
        scores=copy.deepcopy(prematch.scores),
        instrumentation=Instrumentation(),
    )


def _cannot_yield(group_pair, prematch, old_households, new_households,
                  config, record_mapping):
    """The rule the round pass applies before scoring, restated: without
    anchors and singleton subgraphs, a group pair whose vertex
    candidates hold fewer than two distinct old or two distinct new
    members cannot yield a subgraph."""
    old_household = old_households[group_pair[0]]
    new_household = new_households[group_pair[1]]
    anchors = pair_anchors(old_household, new_household, record_mapping)
    candidates = vertex_candidates(
        old_household, new_household, prematch, config, anchors
    )
    return not anchors and not config.allow_singleton_subgraphs and (
        len({old_id for old_id, _, _ in candidates}) < 2
        or len({new_id for _, new_id, _ in candidates}) < 2
    )


def _compare_with_one_pair_reference(observed):
    """A group-stage hook: run the batched pass and the one-pair
    reference on private copies of the round and require the same
    subgraphs.  The batched pass scores a subset of the reference's
    pairs; each pair it leaves out belongs to a group pair that cannot
    yield a subgraph."""

    def check(args, kwargs):
        prematch, old_households, new_households, config = args
        mapping = kwargs["record_mapping"]
        batched_prematch = _private_copy(prematch)
        batched = build_all_subgraphs(
            batched_prematch, old_households, new_households, config,
            record_mapping=mapping, index=kwargs["index"],
        )
        score_subgraphs(batched, batched_prematch, config)
        reference_prematch = _private_copy(prematch)
        reference = one_pair_at_a_time(
            reference_prematch, old_households, new_households, config,
            mapping, kwargs["index"],
        )
        assert _subgraph_signature(batched) == _subgraph_signature(reference)
        batched_scores = cached_scores(batched_prematch.scores)
        reference_scores = cached_scores(reference_prematch.scores)
        assert batched_scores.items() <= reference_scores.items()
        left_out = reference_scores.keys() - batched_scores.keys()
        group_of = {
            record_id: group_id
            for households in (old_households, new_households)
            for group_id, household in households.items()
            for record_id in household.members
        }
        for group_pair in {
            (group_of[old_id], group_of[new_id]) for old_id, new_id in left_out
        }:
            assert _cannot_yield(
                group_pair, prematch, old_households, new_households,
                config, mapping,
            )
        assert batched_prematch.instrumentation.value(PAIRS_SCORED) == (
            reference_prematch.instrumentation.value(PAIRS_SCORED)
            - len(left_out)
        )
        observed["rounds"] += 1
        observed["anchors"] += sum(s.num_anchors for s in reference)
        observed["left_out"] += len(left_out)

    return check


class TestBatchedGroupStageEqualsOnePairLoop:
    """The round pass is an optimisation of a per-pair loop, not a new
    algorithm: at every δ round (the schedule runs to its end, so links
    from earlier rounds turn into anchors), with the direct-threshold
    guard and singleton subgraphs each on and off, on both scoring
    backends."""

    @given(
        census_dataset_pairs(min_households=4, max_households=9),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["python", "vectorized"]),
    )
    @RELAXED
    def test_same_subgraphs_and_scored_pairs(
        self, pair, direct, singletons, scoring
    ):
        old_dataset, new_dataset, _ = pair
        config = LinkageConfig(
            require_direct_pair_threshold=direct,
            allow_singleton_subgraphs=singletons,
            scoring_backend=scoring,
            stop_on_empty_round=False,
        )
        observed = {"rounds": 0, "anchors": 0, "left_out": 0}
        with _around_group_stage(_compare_with_one_pair_reference(observed)):
            link_datasets(old_dataset, new_dataset, config)
        assert observed["rounds"] >= 1

    def test_anchors_occur_in_later_rounds(self):
        """On a seeded town the comparison meets anchored subgraphs and
        group pairs the rule skips, so both paths of the round pass are
        covered, not just possible."""
        old_dataset, new_dataset = generate_pair(
            seed=7, initial_households=30
        ).datasets
        observed = {"rounds": 0, "anchors": 0, "left_out": 0}
        with _around_group_stage(_compare_with_one_pair_reference(observed)):
            link_datasets(
                old_dataset, new_dataset,
                LinkageConfig(stop_on_empty_round=False),
            )
        assert observed["rounds"] == len(LinkageConfig().threshold_schedule())
        assert observed["anchors"] > 0
        assert observed["left_out"] > 0


def _compare_row_join_with_loop_twin(observed):
    """A group-stage hook: run the round on both forks, each on private
    copies of the round and a fresh index, and require the same tasks,
    the same subgraphs and the same scored pairs."""

    def check(args, kwargs):
        prematch, old_households, new_households, config = args
        mapping = kwargs["record_mapping"]
        forks = []
        for fork in (nullcontext, numpy_hidden):
            with fork():
                task_prematch = _private_copy(prematch)
                tasks, _ = group_tasks(
                    task_prematch,
                    GroupPairIndex(old_households, new_households),
                    config, mapping,
                )
                stage_prematch = _private_copy(prematch)
                subgraphs = build_all_subgraphs(
                    stage_prematch, old_households, new_households, config,
                    record_mapping=mapping,
                )
            forks.append((
                tasks,
                _subgraph_signature(subgraphs),
                cached_scores(task_prematch.scores),
                task_prematch.instrumentation.value(PAIRS_SCORED),
                cached_scores(stage_prematch.scores),
            ))
        assert forks[0] == forks[1]
        observed["rounds"] += 1
        observed["tasks"] += len(forks[0][0])
        observed["anchored"] += sum(1 for task in forks[0][0] if task[2])

    return check


@pytest.mark.skipif(
    pairtable_module.numpy_or_none() is None,
    reason="numpy unavailable: only the loop fork exists",
)
@pytest.mark.parametrize("direct", [True, False])
@pytest.mark.parametrize("singletons", [False, True])
def test_row_join_and_loop_twin_give_the_same_round(direct, singletons):
    """The numpy row-space join and the plain-loop twin emit the same
    group tasks — pair, anchors, candidates, in order — at every round
    of a town whose later rounds are anchored, with the direct-threshold
    guard and singleton subgraphs each on and off."""
    old_dataset, new_dataset = generate_pair(
        seed=7, initial_households=30
    ).datasets
    observed = {"rounds": 0, "tasks": 0, "anchored": 0}
    with _around_group_stage(_compare_row_join_with_loop_twin(observed)):
        link_datasets(
            old_dataset, new_dataset,
            LinkageConfig(
                require_direct_pair_threshold=direct,
                allow_singleton_subgraphs=singletons,
                stop_on_empty_round=False,
            ),
        )
    assert observed["rounds"] == len(LinkageConfig().threshold_schedule())
    assert observed["tasks"] > 0 and observed["anchored"] > 0


@pytest.mark.skipif(
    not kernel_available(), reason="the batch kernel needs numpy >= 2.0"
)
def test_kernel_round_batch_makes_no_scalar_agg_sim_call():
    """With a kernel, the group stage scores its vertex pairs in one
    batch per round: no per-pair ``SimilarityFunction.agg_sim`` call runs
    inside ``build_all_subgraphs``, yet the kernel does score pairs
    there."""
    old_dataset, new_dataset = generate_pair(
        seed=7, initial_households=30
    ).datasets
    inside = {"active": False, "agg_sim": 0, "kernel_pairs": 0}
    original_agg_sim = SimilarityFunction.agg_sim
    original_stage = backends.build_all_subgraphs

    def counting_agg_sim(self, old_record, new_record):
        if inside["active"]:
            inside["agg_sim"] += 1
        return original_agg_sim(self, old_record, new_record)

    def group_stage(*args, **kwargs):
        profile = kwargs["instrumentation"]
        before = profile.value(KERNEL_PAIRS)
        inside["active"] = True
        try:
            return original_stage(*args, **kwargs)
        finally:
            inside["active"] = False
            inside["kernel_pairs"] += profile.value(KERNEL_PAIRS) - before

    SimilarityFunction.agg_sim = counting_agg_sim
    backends.build_all_subgraphs = group_stage
    try:
        link_datasets(old_dataset, new_dataset, LinkageConfig())
        assert inside["agg_sim"] == 0
        assert inside["kernel_pairs"] > 0
        # The spy does see scalar scoring: the python backend scores the
        # same round batches pair by pair.
        link_datasets(
            old_dataset, new_dataset, LinkageConfig(scoring_backend="python")
        )
        assert inside["agg_sim"] > 0
    finally:
        SimilarityFunction.agg_sim = original_agg_sim
        backends.build_all_subgraphs = original_stage


class TestSelectionShuffleInvariance:
    @given(
        census_dataset_pairs(min_households=4, max_households=10),
        st.randoms(use_true_random=False),
    )
    @RELAXED
    def test_reject_policy_order_independent(self, pair, rng):
        prematch, _, _, subgraphs, config = _group_stage(pair)
        baseline = _selection_signature(select_group_matches(subgraphs))
        shuffled = list(subgraphs)
        rng.shuffle(shuffled)
        assert _selection_signature(select_group_matches(shuffled)) == baseline

    @given(
        census_dataset_pairs(min_households=4, max_households=10),
        st.randoms(use_true_random=False),
    )
    @RELAXED
    def test_requeue_policy_order_independent(self, pair, rng):
        prematch, _, _, subgraphs, config = _group_stage(
            pair, LinkageConfig(allow_singleton_subgraphs=True)
        )
        baseline = _selection_signature(
            select_group_matches(
                subgraphs, prematch=prematch, config=config, requeue_stale=True
            )
        )
        shuffled = list(subgraphs)
        rng.shuffle(shuffled)
        again = _selection_signature(
            select_group_matches(
                shuffled, prematch=prematch, config=config, requeue_stale=True
            )
        )
        assert again == baseline

    @given(
        census_dataset_pairs(min_households=4, max_households=10),
        st.randoms(use_true_random=False),
    )
    @RELAXED
    def test_requeued_selection_stays_record_disjoint(self, pair, rng):
        """The lazy-invalidation path never lets a stale entry re-emit a
        link referencing an already-consumed record — re-derived from
        the accepted subgraphs, not trusted from the queue loop."""
        prematch, _, _, subgraphs, config = _group_stage(
            pair, LinkageConfig(allow_singleton_subgraphs=True)
        )
        shuffled = list(subgraphs)
        rng.shuffle(shuffled)
        selection = select_group_matches(
            shuffled, prematch=prematch, config=config, requeue_stale=True
        )
        assert selection.disjointness_violations() == []


#: Subprocess payload: link a small seeded town and print a content
#: signature of the result.  Run under different PYTHONHASHSEED values,
#: the output must be byte-identical — the executable form of the
#: "hash-seed independent selection" claim.
_HASHSEED_SCRIPT = """
import json
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair

series = generate_pair(seed=99, initial_households=12)
old, new = series.datasets
for requeue in (False, True):
    config = LinkageConfig(selection_requeue=requeue,
                           allow_singleton_subgraphs=requeue)
    result = link_datasets(old, new, config)
    print(json.dumps({
        "requeue": requeue,
        "records": sorted(result.record_mapping.pairs()),
        "groups": sorted(result.group_mapping.pairs()),
    }, sort_keys=True))
"""


@pytest.mark.parametrize("other_seed", ["1", "424242"])
def test_selection_is_hash_seed_independent(other_seed):
    src_dir = Path(__file__).resolve().parent.parent / "src"

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src_dir))
        return subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        ).stdout

    assert run("0") == run(other_seed)
