"""Unit tests for subgraph matching (Section 3.3, Fig. 4)."""

import pytest

import repro.core.subgraph as subgraph_module
import repro.model.roles as R
from repro.blocking.standard import CrossProductBlocker
from repro.core.config import LinkageConfig
from repro.core.enrichment import complete_groups
from repro.core.prematching import prematching
from repro.core.subgraph import (
    GroupPairIndex,
    assemble_subgraph,
    brute_force_group_pairs,
    build_all_subgraphs,
    candidate_group_pairs,
    group_tasks,
)
from repro.instrumentation import (
    GROUP_PAIRS_CANDIDATES,
    GROUP_PAIRS_SKIPPED,
    PAIRS_SCORED,
    SUBGRAPHS_BUILT,
    Instrumentation,
)
from repro.model import CensusDataset, PersonRecord
from repro.model.mappings import RecordMapping, household_of_map
from repro.similarity.vector import build_similarity_function

from tests.conftest import cached_scores
from tests.group_reference import build_subgraph

NAME_FUNC = build_similarity_function(
    [("first_name", "qgram", 0.5), ("surname", "qgram", 0.5)], 1.0
)


@pytest.fixture
def setup(census_1871, census_1881):
    prematch = prematching(
        list(census_1871.iter_records()),
        list(census_1881.iter_records()),
        NAME_FUNC,
        CrossProductBlocker(),
    )
    enriched_old = complete_groups(census_1871)
    enriched_new = complete_groups(census_1881)
    config = LinkageConfig(blocking="cross")
    return prematch, enriched_old, enriched_new, config


class TestFig4:
    def test_true_pair_keeps_three_vertices(self, setup):
        prematch, old, new, config = setup
        subgraph = build_subgraph(old["a71"], new["a81"], prematch, config)
        assert subgraph is not None
        assert subgraph.size == 3
        assert subgraph.old_record_ids == {"1871_1", "1871_2", "1871_4"}
        assert subgraph.new_record_ids == {"1881_1", "1881_2", "1881_3"}
        assert len(subgraph.edges) == 3

    def test_decoy_pair_reduced(self, setup):
        """(a71, d81) shares labels A, B, C but only the spouse edge has a
        similar age difference, so the subgraph shrinks (Fig. 4, right).
        Reproduced with the record-level age filter relaxed to the
        paper's setting (it would otherwise drop John and Elizabeth as vertices and
        reject the decoy outright — see TestAgeFilters)."""
        prematch, old, new, _ = setup
        relaxed = LinkageConfig(blocking="cross", max_normalised_age_difference=99.0)
        subgraph = build_subgraph(old["a71"], new["d81"], prematch, relaxed)
        assert subgraph is not None
        assert subgraph.size == 2  # John + Elizabeth only
        assert subgraph.old_record_ids == {"1871_1", "1871_2"}
        assert len(subgraph.edges) == 1

    def test_decoy_pair_rejected_with_default_age_filter(self, setup):
        """With the default footnote-2 vertex filter, the decoy loses
        Elizabeth (37 -> 40 is a 7-year deviation) and then every edge:
        the decoy household is rejected before scoring even starts."""
        prematch, old, new, config = setup
        assert build_subgraph(old["a71"], new["d81"], prematch, config) is None

    def test_edge_totals_record_full_graph_sizes(self, setup):
        prematch, old, new, config = setup
        subgraph = build_subgraph(old["a71"], new["a81"], prematch, config)
        assert subgraph.old_edge_total == 10  # 5 members
        assert subgraph.new_edge_total == 3  # 3 members

    def test_unrelated_pair_yields_none(self, setup):
        prematch, old, new, config = setup
        assert build_subgraph(old["b71"], new["a81"], prematch, config) is None

    def test_single_shared_member_pruned(self, setup):
        """(b71, c81) shares only Steve; with no matching edge the vertex
        is pruned and no subgraph remains (movers are left to the
        remaining pass)."""
        prematch, old, new, config = setup
        assert build_subgraph(old["b71"], new["c81"], prematch, config) is None

    def test_singleton_allowed_when_configured(self, setup):
        prematch, old, new, config = setup
        config.allow_singleton_subgraphs = True
        subgraph = build_subgraph(old["b71"], new["c81"], prematch, config)
        assert subgraph is not None
        assert subgraph.size == 1
        assert not subgraph.edges


class TestAgeFilters:
    def test_vertex_age_filter(self, setup, census_1871, census_1881):
        """A pair whose normalised age difference exceeds the bound must
        not become a vertex even with identical names (footnote 2)."""
        prematch, old, new, config = setup
        # William Ashworth 1871 (age 2) vs the d-household William (15):
        # expected age 12, deviation 3 -> allowed; tighten the config to
        # exclude it and the vertex disappears.
        config.max_normalised_age_difference = 2.0
        subgraph = build_subgraph(old["a71"], new["d81"], prematch, config)
        assert subgraph is None or "1871_4" not in subgraph.old_record_ids

    def test_edge_age_deviation_filter(self, setup):
        prematch, old, new, config = setup
        config.max_age_diff_deviation = 0.0
        subgraph = build_subgraph(old["a71"], new["d81"], prematch, config)
        # The spouse edge (diff 2 vs 1) no longer matches.
        assert subgraph is None


class TestAnchors:
    def test_anchor_supports_straggler(self, setup):
        """With John/Elizabeth anchored, William alone still exhibits a
        matching parent-child edge to his anchored parents."""
        prematch, old, new, config = setup
        anchors = [("1871_1", "1881_1"), ("1871_2", "1881_2")]
        subgraph = build_subgraph(
            old["a71"], new["a81"], prematch, config, anchors=anchors
        )
        assert subgraph is not None
        assert subgraph.num_anchors == 2
        assert subgraph.old_record_ids == {"1871_4"}  # only the new link
        assert subgraph.anchor_vertices == sorted(anchors)

    def test_no_new_vertex_returns_none(self, setup):
        prematch, old, new, config = setup
        anchors = [
            ("1871_1", "1881_1"),
            ("1871_2", "1881_2"),
            ("1871_4", "1881_3"),
        ]
        assert (
            build_subgraph(old["a71"], new["a81"], prematch, config, anchors)
            is None
        )


class TestCandidateGroupPairs:
    def test_pairs_from_matched_records(self, setup, census_1871, census_1881):
        prematch, old, new, config = setup
        pairs = candidate_group_pairs(
            prematch,
            household_of_map(census_1871),
            household_of_map(census_1881),
        )
        assert ("a71", "a81") in pairs
        assert ("a71", "d81") in pairs
        assert ("b71", "b81") in pairs
        assert ("b71", "c81") in pairs
        assert ("a71", "c81") not in pairs  # Alice is not pre-matched at δ=1

    def test_build_all_subgraphs(self, setup):
        prematch, old, new, config = setup
        subgraphs = build_all_subgraphs(prematch, old, new, config)
        keys = {(s.old_group_id, s.new_group_id) for s in subgraphs}
        # The decoy (a71, d81) is rejected by the default vertex age
        # filter; (b71, c81) has no surviving edge.
        assert keys == {("a71", "a81"), ("b71", "b81")}

    def test_build_all_with_record_mapping_anchors(self, setup):
        prematch, old, new, config = setup
        mapping = RecordMapping([("1871_1", "1881_1")])
        subgraphs = build_all_subgraphs(
            prematch, old, new, config, record_mapping=mapping
        )
        target = next(
            s for s in subgraphs if (s.old_group_id, s.new_group_id) == ("a71", "a81")
        )
        assert target.num_anchors == 1


class TestGroupPairIndex:
    def test_index_matches_brute_force(self, setup):
        prematch, old, new, _ = setup
        index = GroupPairIndex(old, new)
        assert index.candidate_pairs(prematch) == brute_force_group_pairs(
            prematch, old, new
        )

    def test_cross_product_size(self, setup):
        _, old, new, _ = setup
        index = GroupPairIndex(old, new)
        assert index.cross_product_size == len(old) * len(new)

    def test_index_counters(self, setup):
        """The indexed path reports how much of the cross product the
        inverted index never examined."""
        prematch, old, new, config = setup
        collector = Instrumentation()
        index = GroupPairIndex(old, new)
        subgraphs = build_all_subgraphs(
            prematch, old, new, config,
            instrumentation=collector, index=index,
        )
        candidates = collector.value(GROUP_PAIRS_CANDIDATES)
        assert candidates == len(index.candidate_pairs(prematch))
        assert (
            collector.value(GROUP_PAIRS_SKIPPED)
            == index.cross_product_size - candidates
        )
        assert collector.value(SUBGRAPHS_BUILT) == len(subgraphs)

    def test_brute_force_mode_skips_nothing(self, setup):
        """With group_pair_indexing off the full cross product is
        examined — the skip counter must stay 0 while the resulting
        subgraphs are identical to the indexed path."""
        prematch, old, new, config = setup
        indexed = build_all_subgraphs(prematch, old, new, config)
        config.group_pair_indexing = False
        collector = Instrumentation()
        brute = build_all_subgraphs(
            prematch, old, new, config, instrumentation=collector
        )
        assert collector.value(GROUP_PAIRS_SKIPPED) == 0
        assert [
            (s.old_group_id, s.new_group_id, s.vertices) for s in brute
        ] == [
            (s.old_group_id, s.new_group_id, s.vertices) for s in indexed
        ]


class _FixedBlocker:
    """Proposes exactly the given candidate pairs."""

    def __init__(self, pairs):
        self.pairs = set(pairs)

    def candidate_pairs(self, old_records, new_records):
        return set(self.pairs)


@pytest.fixture
def namesakes():
    """Old household p71 holds one John Smith; new household p81 holds
    two, both age-plausible for him.  Only (p_1, r_1) is blocked between
    the two households; the second John of q71 links both new Johns, so
    all four Johns share one label and (p_1, r_2) is a vertex candidate
    the score store lacks.  The wives share no label."""
    old = CensusDataset.from_records(1871, [
        PersonRecord("p_1", "p71", "john", "smith", "m", 30, None, None,
                     R.HEAD),
        PersonRecord("p_2", "p71", "mary", "smith", "f", 28, None, None,
                     R.WIFE),
        PersonRecord("q_1", "q71", "john", "smith", "m", 31, None, None,
                     R.HEAD),
    ])
    new = CensusDataset.from_records(1881, [
        PersonRecord("r_1", "p81", "john", "smith", "m", 40, None, None,
                     R.HEAD),
        PersonRecord("r_2", "p81", "john", "smith", "m", 41, None, None,
                     R.BROTHER),
        PersonRecord("r_3", "p81", "maria", "jones", "f", 38, None, None,
                     R.WIFE),
    ])
    blocker = _FixedBlocker([("p_1", "r_1"), ("q_1", "r_1"), ("q_1", "r_2")])
    prematch = prematching(
        list(old.iter_records()), list(new.iter_records()), NAME_FUNC,
        blocker,
    )
    return prematch, complete_groups(old), complete_groups(new)


class TestPairsThatCannotYieldASubgraph:
    """A group pair without anchors whose candidates hold one old member
    (or one new member) gives greedy 1:1 assignment at most one vertex,
    and a vertex without a matched edge is pruned: the round pass
    neither scores its vertex pairs nor assembles it."""

    def _round(self, namesakes, monkeypatch, config, mapping=None):
        prematch, old, new = namesakes
        assembled = []

        def spy(old_household, new_household, *args):
            assembled.append(
                (old_household.household_id, new_household.household_id)
            )
            return assemble_subgraph(old_household, new_household, *args)

        monkeypatch.setattr(subgraph_module, "assemble_subgraph", spy)
        before = prematch.instrumentation.value(PAIRS_SCORED)
        subgraphs = build_all_subgraphs(
            prematch, old, new, config, record_mapping=mapping
        )
        scored = prematch.instrumentation.value(PAIRS_SCORED) - before
        return (
            subgraphs, assembled, scored,
            cached_scores(prematch.scores).get(("p_1", "r_2")),
        )

    def test_one_old_namesake_is_neither_scored_nor_assembled(
        self, namesakes, monkeypatch, fork
    ):
        prematch, old, new = namesakes
        assert prematch.same_label("p_1", "r_2")
        assert ("p_1", "r_2") not in prematch.matched_pairs
        subgraphs, assembled, scored, score = self._round(
            namesakes, monkeypatch, LinkageConfig()
        )
        assert subgraphs == [] and assembled == []
        assert scored == 0 and score is None

    def test_an_anchor_makes_the_pair_scored_and_assembled(
        self, namesakes, monkeypatch, fork
    ):
        prematch, old, new = namesakes
        mapping = RecordMapping([("p_2", "r_3")])
        config = LinkageConfig()
        subgraphs, assembled, scored, score = self._round(
            namesakes, monkeypatch, config, mapping
        )
        assert ("p71", "p81") in assembled
        assert scored == 1 and score is not None
        assert [s.vertices for s in subgraphs] == [
            [("p_2", "r_3"), ("p_1", "r_1")]
        ]
        reference = build_subgraph(
            old["p71"], new["p81"], prematch, config, [("p_2", "r_3")]
        )
        assert subgraphs[0].vertices == reference.vertices
        assert subgraphs[0].edges == reference.edges

    def test_singleton_subgraphs_make_the_pair_scored_and_assembled(
        self, namesakes, monkeypatch, fork
    ):
        prematch, old, new = namesakes
        config = LinkageConfig(allow_singleton_subgraphs=True)
        subgraphs, assembled, scored, score = self._round(
            namesakes, monkeypatch, config
        )
        assert assembled == [("p71", "p81"), ("q71", "p81")]
        assert scored == 1 and score is not None
        assert [(s.old_group_id, s.vertices) for s in subgraphs] == [
            ("p71", [("p_1", "r_1")]),
            ("q71", [("q_1", "r_2")]),
        ]


class TestAnchorMask:
    """A linked record is an anchor only inside the group pair its link
    falls in: there it is no vertex candidate, elsewhere it still is."""

    @pytest.mark.parametrize("link, expected", [
        (
            ("p_1", "r_2"),
            [("q71", "p81", [], [("q_1", "r_1"), ("q_1", "r_2")])],
        ),
        (
            ("p_2", "r_1"),
            [
                ("p71", "p81", [("p_2", "r_1")], [("p_1", "r_2")]),
                ("q71", "p81", [], [("q_1", "r_1"), ("q_1", "r_2")]),
            ],
        ),
    ])
    def test_anchored_members_leave_only_their_own_pair(
        self, namesakes, fork, link, expected
    ):
        prematch, old, new = namesakes
        tasks, _ = group_tasks(
            prematch, GroupPairIndex(old, new),
            LinkageConfig(allow_singleton_subgraphs=True),
            RecordMapping([link]),
        )
        assert [
            (old_group, new_group, anchors, [c[:2] for c in candidates])
            for old_group, new_group, anchors, candidates in tasks
        ] == expected


@pytest.fixture
def transitive_namesake():
    """Jon (a_1, old household a71) and Johnny (x_1, new household x81)
    share a label only through John: jon~john and john~johnny reach
    δ = 0.8, jon~johnny (0.68) does not.  The wives Mary link a71 to
    x81 directly and are the pair's anchor."""
    old = CensusDataset.from_records(1871, [
        PersonRecord("a_1", "a71", "jon", "smith", "m", 30, None, None,
                     R.HEAD),
        PersonRecord("a_2", "a71", "mary", "smith", "f", 28, None, None,
                     R.WIFE),
        PersonRecord("b_1", "b71", "john", "smith", "m", 31, None, None,
                     R.HEAD),
    ])
    new = CensusDataset.from_records(1881, [
        PersonRecord("x_1", "x81", "johnny", "smith", "m", 40, None, None,
                     R.HEAD),
        PersonRecord("x_2", "x81", "mary", "smith", "f", 38, None, None,
                     R.WIFE),
        PersonRecord("y_1", "y81", "john", "smith", "m", 41, None, None,
                     R.HEAD),
    ])
    blocker = _FixedBlocker(
        [("a_1", "y_1"), ("b_1", "y_1"), ("b_1", "x_1"), ("a_2", "x_2")]
    )
    sim_func = build_similarity_function(
        [("first_name", "qgram", 0.5), ("surname", "qgram", 0.5)], 0.8
    )
    prematch = prematching(
        list(old.iter_records()), list(new.iter_records()), sim_func,
        blocker,
    )
    return prematch, complete_groups(old), complete_groups(new)


class TestAnchoredPairWithoutDirectCandidate:
    """Under ``require_direct_pair_threshold`` an anchored group pair
    whose only vertex candidate misses δ has no fresh vertex, so it gets
    no task, with singleton subgraphs on or off; without the guard it
    keeps its task."""

    def _tasks(self, transitive_namesake, config):
        prematch, old, new = transitive_namesake
        tasks, sims = group_tasks(
            prematch, GroupPairIndex(old, new), config,
            RecordMapping([("a_2", "x_2")]),
        )
        assert prematch.same_label("a_1", "x_1")
        assert sims["a_1", "x_1"] < prematch.sim_func.threshold
        return [
            (old_group, new_group, anchors, [c[:2] for c in candidates])
            for old_group, new_group, anchors, candidates in tasks
        ]

    @pytest.mark.parametrize("singletons", [False, True])
    def test_no_task_under_the_guard(
        self, transitive_namesake, fork, singletons
    ):
        tasks = self._tasks(
            transitive_namesake,
            LinkageConfig(allow_singleton_subgraphs=singletons),
        )
        assert [task[:2] for task in tasks] == (
            [("a71", "y81"), ("b71", "x81"), ("b71", "y81")]
            if singletons else []
        )

    def test_task_kept_without_the_guard(self, transitive_namesake, fork):
        tasks = self._tasks(
            transitive_namesake,
            LinkageConfig(require_direct_pair_threshold=False),
        )
        assert tasks == [
            ("a71", "x81", [("a_2", "x_2")], [("a_1", "x_1")]),
        ]
