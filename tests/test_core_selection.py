"""Unit tests for greedy group-link selection (Algorithm 2)."""

import pytest

from repro.core.config import LinkageConfig
from repro.core.selection import select_group_matches
from repro.core.subgraph import SubgraphMatch
from repro.instrumentation import (
    QUEUE_POPS,
    SELECTION_REQUEUES,
    Instrumentation,
)
from repro.model.mappings import MappingConflictError


def subgraph(old_group, new_group, vertices, g_sim, num_anchors=0, edges=None):
    return SubgraphMatch(
        old_group_id=old_group,
        new_group_id=new_group,
        vertices=vertices,
        edges=edges or [],
        old_edge_total=3,
        new_edge_total=3,
        num_anchors=num_anchors,
        g_sim=g_sim,
    )


class FakePrematch:
    """The two-method surface re-scoring needs: pair_sims + cluster_size."""

    def pair_sims(self, pairs):
        return dict.fromkeys(pairs, 0.8)

    def cluster_size(self, record_id):
        return 1


class TestSelection:
    def test_best_candidate_wins(self):
        good = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        bad = subgraph("g1", "h2", [("o1", "n3"), ("o2", "n4")], 0.5)
        result = select_group_matches([bad, good])
        assert ("g1", "h1") in result.group_mapping
        assert ("g1", "h2") not in result.group_mapping
        assert bad in result.rejected

    def test_disjoint_subgraphs_both_accepted(self):
        """A household split: the same old group links to two new groups
        with disjoint record sets (N:M group mapping)."""
        first = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        second = subgraph("g1", "h2", [("o3", "n3"), ("o4", "n4")], 0.8)
        result = select_group_matches([first, second])
        assert len(result.group_mapping) == 2
        assert result.group_mapping.partners_of_old("g1") == {"h1", "h2"}

    def test_overlap_on_new_side_rejected(self):
        first = subgraph("g1", "h1", [("o1", "n1")], 0.9)
        second = subgraph("g2", "h1", [("o9", "n1")], 0.8)
        result = select_group_matches([first, second])
        assert ("g2", "h1") not in result.group_mapping

    def test_record_mapping_extraction(self):
        chosen = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        result = select_group_matches([chosen])
        mapping = result.extract_record_mapping()
        assert mapping.pairs() == [("o1", "n1"), ("o2", "n2")]

    def test_anchors_not_extracted_as_new_links(self):
        chosen = subgraph(
            "g1", "h1", [("a1", "b1"), ("o1", "n1")], 0.9, num_anchors=1
        )
        result = select_group_matches([chosen])
        assert result.extract_record_mapping().pairs() == [("o1", "n1")]

    def test_deterministic_tie_break(self):
        left = subgraph("g1", "h1", [("o1", "n1")], 0.7)
        right = subgraph("g2", "h2", [("o2", "n2")], 0.7)
        first_run = select_group_matches([left, right]).group_mapping.pairs()
        second_run = select_group_matches([right, left]).group_mapping.pairs()
        assert first_run == second_run

    def test_larger_subgraph_preferred_on_tie(self):
        small = subgraph("g1", "h2", [("o1", "n9")], 0.7)
        large = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.7)
        result = select_group_matches([small, large])
        assert ("g1", "h1") in result.group_mapping
        assert ("g1", "h2") not in result.group_mapping

    def test_empty_input(self):
        result = select_group_matches([])
        assert len(result.group_mapping) == 0
        assert result.accepted == []

    def test_all_records_claimed_once(self):
        subgraphs = [
            subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9),
            subgraph("g1", "h2", [("o2", "n3")], 0.8),
            subgraph("g2", "h1", [("o3", "n2")], 0.7),
        ]
        result = select_group_matches(subgraphs)
        mapping = result.extract_record_mapping()  # must not raise
        assert mapping.get_new("o2") == "n2"
        assert not mapping.contains_old("o3")  # n2 already claimed


class TestLazyRequeue:
    """The lazy-invalidation conflict policy (requeue_stale=True)."""

    def requeue(self, subgraphs, config=None, instrumentation=None):
        return select_group_matches(
            subgraphs,
            instrumentation=instrumentation,
            prematch=FakePrematch(),
            config=config or LinkageConfig(allow_singleton_subgraphs=True),
            requeue_stale=True,
        )

    def test_stale_entry_trimmed_and_requeued(self):
        """Under the reject policy the split loses o3->n4; the requeue
        policy trims the consumed o1 vertex and recovers the link."""
        winner = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        stale = subgraph("g1", "h2", [("o1", "n3"), ("o3", "n4")], 0.8)
        rejected = select_group_matches([winner, stale])
        assert not rejected.extract_record_mapping().contains_old("o3")

        result = self.requeue([winner, stale])
        mapping = result.extract_record_mapping()
        assert mapping.get_new("o1") == "n1"
        assert mapping.get_new("o3") == "n4"
        assert ("g1", "h2") in result.group_mapping
        assert result.disjointness_violations() == []

    def test_trimmed_subgraph_rescored(self):
        winner = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        stale = subgraph("g1", "h2", [("o1", "n3"), ("o3", "n4")], 0.8)
        result = self.requeue([winner, stale])
        trimmed = next(s for s in result.accepted if s.new_group_id == "h2")
        assert trimmed.vertices == [("o3", "n4")]
        # Re-scored by the fake prematch, not carried over from the
        # original entry: α·0.8 + β·0 + (1-α-β)·1 with the defaults.
        config = LinkageConfig()
        expected = config.alpha * 0.8 + config.uniqueness_weight * 1.0
        assert trimmed.g_sim == pytest.approx(expected)

    def test_requeue_counter_and_pops(self):
        winner = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        stale = subgraph("g1", "h2", [("o1", "n3"), ("o3", "n4")], 0.8)
        collector = Instrumentation()
        self.requeue([winner, stale], instrumentation=collector)
        assert collector.value(SELECTION_REQUEUES) == 1
        # winner + stale pop + the trimmed re-entry.
        assert collector.value(QUEUE_POPS) == 3

    def test_fully_consumed_entry_still_rejected(self):
        winner = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        hopeless = subgraph("g1", "h2", [("o1", "n3"), ("o2", "n4")], 0.8)
        result = self.requeue([winner, hopeless])
        assert hopeless in result.rejected
        assert ("g1", "h2") not in result.group_mapping

    def test_singleton_gate_respected(self):
        """Without allow_singleton_subgraphs an edgeless remainder is no
        structural evidence — the trim rejects instead of requeueing."""
        winner = subgraph("g1", "h1", [("o1", "n1")], 0.9)
        stale = subgraph("g1", "h2", [("o1", "n3"), ("o3", "n4")], 0.8)
        result = self.requeue([winner, stale], config=LinkageConfig())
        assert stale in result.rejected
        assert ("g1", "h2") not in result.group_mapping

    def test_trim_keeps_surviving_edges(self):
        winner = subgraph("g1", "h1", [("o1", "n1")], 0.9)
        stale = subgraph(
            "g1", "h2",
            [("o1", "n3"), ("o3", "n4"), ("o4", "n5")],
            0.8,
            edges=[(0, 1, 0.9), (1, 2, 0.7)],
        )
        result = self.requeue([winner, stale], config=LinkageConfig())
        trimmed = next(s for s in result.accepted if s.new_group_id == "h2")
        assert trimmed.vertices == [("o3", "n4"), ("o4", "n5")]
        assert trimmed.edges == [(0, 1, 0.7)]

    def test_trim_prunes_fresh_vertices_left_without_edges(self):
        """A vertex whose only edge went to the consumed vertex loses its
        structural evidence and is pruned, as build_subgraph would."""
        winner = subgraph("g1", "h1", [("o1", "n1")], 0.9)
        stale = subgraph(
            "g1", "h2",
            [("o1", "n3"), ("o3", "n4"), ("o4", "n5"), ("o5", "n6")],
            0.8,
            edges=[(0, 1, 0.9), (2, 3, 0.7)],
        )
        result = self.requeue([winner, stale], config=LinkageConfig())
        trimmed = next(s for s in result.accepted if s.new_group_id == "h2")
        assert trimmed.vertices == [("o4", "n5"), ("o5", "n6")]
        assert trimmed.edges == [(0, 1, 0.7)]

    def test_anchors_survive_the_trim(self):
        winner = subgraph("g1", "h1", [("o1", "n1")], 0.9)
        stale = subgraph(
            "g1", "h2",
            [("a1", "b1"), ("o1", "n3"), ("o3", "n4")],
            0.8,
            num_anchors=1,
            edges=[(0, 2, 0.9)],
        )
        result = self.requeue([winner, stale], config=LinkageConfig())
        trimmed = next(s for s in result.accepted if s.new_group_id == "h2")
        assert trimmed.num_anchors == 1
        assert trimmed.vertices == [("a1", "b1"), ("o3", "n4")]
        assert result.extract_record_mapping().pairs() == [
            ("o1", "n1"), ("o3", "n4"),
        ]

    def test_requeue_requires_prematch_and_config(self):
        entry = subgraph("g1", "h1", [("o1", "n1")], 0.9)
        with pytest.raises(ValueError, match="requeue_stale"):
            select_group_matches([entry], requeue_stale=True)
        with pytest.raises(ValueError, match="requeue_stale"):
            select_group_matches(
                [entry], prematch=FakePrematch(), requeue_stale=True
            )

    def test_default_policy_unchanged_by_new_arguments(self):
        """Passing prematch/config without requeue_stale keeps the
        seed's reject semantics byte for byte."""
        winner = subgraph("g1", "h1", [("o1", "n1"), ("o2", "n2")], 0.9)
        stale = subgraph("g1", "h2", [("o1", "n3"), ("o3", "n4")], 0.8)
        plain = select_group_matches([winner, stale])
        armed = select_group_matches(
            [winner, stale], prematch=FakePrematch(), config=LinkageConfig()
        )
        assert plain.group_mapping.pairs() == armed.group_mapping.pairs()
        assert plain.rejected == armed.rejected
