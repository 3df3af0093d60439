"""Invariant registry: clean runs validate, corrupted results raise."""

import pytest

from repro.core.config import LinkageConfig
from repro.core.pipeline import LinkOrigin, link_datasets
from repro.core.selection import SelectionResult, select_group_matches
from repro.core.subgraph import SubgraphMatch
from repro.datagen import generate_pair
from repro.validation.invariants import (
    REGISTRY,
    InvariantViolation,
    ValidationReport,
    Violation,
    invariant,
    validate_result,
    validate_selection,
)


@pytest.fixture(scope="module")
def workload():
    series = generate_pair(seed=7, initial_households=25)
    return series.datasets


@pytest.fixture(scope="module")
def validated(workload):
    old, new = workload
    config = LinkageConfig(validate=True)
    return link_datasets(old, new, config), config


class TestRegistry:
    def test_expected_invariants_registered(self):
        assert {
            "record-mapping-one-to-one",
            "record-links-within-datasets",
            "group-links-witnessed",
            "delta-schedule-strictly-decreasing",
            "iteration-accounting",
            "link-scores-reach-threshold",
        } <= set(REGISTRY)

    def test_descriptions_present(self):
        for entry in REGISTRY.values():
            assert entry.description

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            invariant("record-mapping-one-to-one", "dup")(lambda ctx: [])


class TestCleanRun:
    def test_validated_run_passes_standalone(self, workload, validated):
        old, new = workload
        result, config = validated
        report = validate_result(result, old, new, config)
        assert report.ok
        assert report.violated_invariants() == []
        assert "all invariants hold" in report.summary()
        report.raise_if_failed()  # must not raise

    def test_provenance_recorded_for_every_link(self, validated):
        result, _ = validated
        assert result.provenance is not None
        assert set(result.provenance) == set(result.record_mapping.pairs())
        sources = {origin.source for origin in result.provenance.values()}
        assert sources <= {"subgraph", "remaining"}

    def test_unvalidated_run_skips_score_check(self, workload):
        old, new = workload
        config = LinkageConfig()
        result = link_datasets(old, new, config)
        assert result.provenance is None
        report = validate_result(result, old, new, config)
        assert report.ok
        assert "link-scores-reach-threshold" in report.skipped

    def test_invariant_checks_counted(self, validated):
        result, _ = validated
        assert result.profile.value("invariant_checks") > 0
        assert result.profile.seconds("validation") >= 0.0


class TestCorruptedResults:
    """Deliberate corruption raises InvariantViolation naming the invariant."""

    def _fresh(self, workload):
        old, new = workload
        config = LinkageConfig(validate=True)
        return link_datasets(old, new, config), old, new, config

    def test_corrupt_record_mapping_one_to_one(self, workload):
        result, old, new, config = self._fresh(workload)
        # Bypass RecordMapping.add: point one old record at another's
        # partner, desynchronising the forward and backward indexes.
        old_id, new_id = result.record_mapping.pairs()[0]
        _, other_new = result.record_mapping.pairs()[1]
        result.record_mapping._old_to_new[old_id] = other_new
        with pytest.raises(InvariantViolation) as excinfo:
            validate_result(result, old, new, config).raise_if_failed()
        assert "record-mapping-one-to-one" in str(excinfo.value)
        assert (
            "record-mapping-one-to-one"
            in excinfo.value.report.violated_invariants()
        )

    def test_unwitnessed_group_link(self, workload):
        result, old, new, config = self._fresh(workload)
        old_group = sorted(old.households)[0]
        new_group = sorted(new.households)[-1]
        linked = {
            (origin, target) for origin, target in result.group_mapping
        }
        assert (old_group, new_group) not in linked
        result.group_mapping.add(old_group, new_group)
        with pytest.raises(InvariantViolation, match="group-links-witnessed"):
            validate_result(result, old, new, config).raise_if_failed()

    def test_unknown_record_endpoint(self, workload):
        result, old, new, config = self._fresh(workload)
        result.record_mapping.add("ghost_old", "ghost_new")
        with pytest.raises(
            InvariantViolation, match="record-links-within-datasets"
        ):
            validate_result(result, old, new, config).raise_if_failed()

    def test_non_decreasing_delta_schedule(self, workload):
        result, old, new, config = self._fresh(workload)
        if len(result.iterations) < 2:
            pytest.skip("run converged in one round")
        result.iterations[-1].delta = result.iterations[0].delta + 0.1
        with pytest.raises(
            InvariantViolation, match="delta-schedule-strictly-decreasing"
        ):
            validate_result(result, old, new, config).raise_if_failed()

    def test_iteration_accounting_drift(self, workload):
        result, old, new, config = self._fresh(workload)
        result.subgraph_record_links += 1
        with pytest.raises(InvariantViolation, match="iteration-accounting"):
            validate_result(result, old, new, config).raise_if_failed()

    def test_link_score_below_threshold(self, workload):
        result, old, new, config = self._fresh(workload)
        pair = next(iter(sorted(result.provenance)))
        # Claim the pair was accepted at an impossible threshold.
        result.provenance[pair] = LinkOrigin("subgraph", 1, 1.5)
        with pytest.raises(
            InvariantViolation, match="link-scores-reach-threshold"
        ):
            validate_result(result, old, new, config).raise_if_failed()


def _subgraph(old_group, new_group, vertices):
    return SubgraphMatch(
        old_group_id=old_group,
        new_group_id=new_group,
        vertices=list(vertices),
        edges=[(0, 1, 1.0)] if len(vertices) > 1 else [],
        old_edge_total=1,
        new_edge_total=1,
        g_sim=0.9,
    )


class _FixedSimilarity:
    """A similarity function that knows fixed scores of record pairs."""

    def __init__(self, scores):
        self.scores = scores

    def agg_sim(self, old_record, new_record):
        return self.scores[old_record, new_record]


class _StubPrematch:
    """Minimal PreMatchResult stand-in: fixed scores from its similarity
    function, over records that are their own ids."""

    def __init__(self, scores):
        self.sim_func = _FixedSimilarity(scores)
        self.old_index = {old_id: old_id for old_id, _ in scores}
        self.new_index = {new_id: new_id for _, new_id in scores}


class TestValidateSelection:
    def test_disjoint_selection_passes(self):
        selection = SelectionResult()
        selection.accepted.append(_subgraph("a", "b", [("o1", "n1"), ("o2", "n2")]))
        selection.group_mapping.add("a", "b")
        from repro.model.mappings import RecordMapping

        scores = {("o1", "n1"): 0.9, ("o2", "n2"): 0.8}
        report = validate_selection(
            selection, RecordMapping(), _StubPrematch(scores), 0.7,
            LinkageConfig(),
        )
        assert report.ok

    def test_overlapping_subgraphs_flagged(self):
        selection = SelectionResult()
        selection.accepted.append(_subgraph("a", "b", [("o1", "n1")]))
        selection.accepted.append(_subgraph("a", "c", [("o1", "n2")]))
        selection.group_mapping.add("a", "b")
        selection.group_mapping.add("a", "c")
        from repro.model.mappings import RecordMapping

        scores = {("o1", "n1"): 0.9, ("o1", "n2"): 0.9}
        report = validate_selection(
            selection, RecordMapping(), _StubPrematch(scores), 0.7,
            LinkageConfig(),
        )
        assert not report.ok
        assert "selection-record-disjoint" in report.violated_invariants()

    def test_group_mapping_drift_flagged(self):
        selection = SelectionResult()
        selection.accepted.append(_subgraph("a", "b", [("o1", "n1")]))
        selection.group_mapping.add("a", "zzz")  # not justified by a subgraph
        from repro.model.mappings import RecordMapping

        report = validate_selection(
            selection, RecordMapping(), _StubPrematch({("o1", "n1"): 0.9}),
            0.7, LinkageConfig(),
        )
        assert "selection-group-links-consistent" in report.violated_invariants()

    def test_below_delta_link_flagged(self):
        selection = SelectionResult()
        selection.accepted.append(_subgraph("a", "b", [("o1", "n1")]))
        selection.group_mapping.add("a", "b")
        from repro.model.mappings import RecordMapping

        report = validate_selection(
            selection, RecordMapping(), _StubPrematch({("o1", "n1"): 0.5}),
            0.7, LinkageConfig(),
        )
        assert "selection-links-reach-delta" in report.violated_invariants()

    def test_threshold_check_skipped_without_guard(self):
        selection = SelectionResult()
        selection.accepted.append(_subgraph("a", "b", [("o1", "n1")]))
        selection.group_mapping.add("a", "b")
        from repro.model.mappings import RecordMapping

        report = validate_selection(
            selection, RecordMapping(), _StubPrematch({("o1", "n1"): 0.1}),
            0.7, LinkageConfig(require_direct_pair_threshold=False),
        )
        assert report.ok
        assert "selection-links-reach-delta" in report.skipped


class TestSelectionDisjointnessHelper:
    def test_select_group_matches_is_disjoint(self):
        subgraphs = [
            _subgraph("a", "b", [("o1", "n1"), ("o2", "n2")]),
            _subgraph("a", "c", [("o2", "n3")]),  # conflicts on o2
        ]
        selection = select_group_matches(subgraphs)
        assert selection.disjointness_violations() == []
        assert len(selection.accepted) == 1

    def test_helper_reports_duplicates(self):
        selection = SelectionResult()
        selection.accepted.append(_subgraph("a", "b", [("o1", "n1")]))
        selection.accepted.append(_subgraph("c", "d", [("o1", "n9")]))
        assert "o1" in selection.disjointness_violations()


class TestReportShape:
    def test_summary_lists_examples(self):
        report = ValidationReport(
            violations=[
                Violation("some-invariant", "broke", ("x->y", "p->q"))
            ],
            checked=["some-invariant"],
        )
        text = report.summary()
        assert "some-invariant" in text
        assert "x->y" in text
        with pytest.raises(InvariantViolation):
            report.raise_if_failed()
