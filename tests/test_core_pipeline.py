"""Integration tests for the full iterative pipeline (Algorithm 1)."""

import pytest

from repro.core.config import LinkageConfig
from repro.core.pipeline import IterativeGroupLinkage, link_datasets
from repro.datagen import generate_pair
from repro.evaluation.metrics import evaluate_mapping

#: Effort counters of a serial run on the 50-household pair of seed
#: 20170321.  Pinned exactly: a change to blocking, pruning, the
#: group-pair index or selection that moves any of them updates this
#: table on purpose.  Both scoring backends must reproduce it.
PINNED_EFFORT = {
    "candidate_pairs": 14426,
    "pairs_scored": 2424,
    "full_agg_sim_calls": 2424,
    "group_pairs_candidates": 731,
    "subgraphs_built": 40,
    "queue_pops": 40,
    "group_pairs_skipped_by_index": 5669,
    "pairs_pruned_length": 0,
    "pairs_pruned_qgram": 2628,
    "pairs_pruned_early_exit": 9187,
}


class TestRunningExample:
    def test_safe_links_found(self, census_1871, census_1881, example_config):
        result = link_datasets(census_1871, census_1881, example_config)
        expected_safe = {
            ("1871_1", "1881_1"),
            ("1871_2", "1881_2"),
            ("1871_4", "1881_3"),
            ("1871_6", "1881_4"),
            ("1871_7", "1881_5"),
            ("1871_8", "1881_6"),
        }
        assert expected_safe <= set(result.record_mapping.pairs())

    def test_alice_recovered_by_remaining_pass(
        self, census_1871, census_1881, example_config
    ):
        """Alice Ashworth -> Alice Smith: surname changed by marriage,
        only the relaxed attribute pass can find her."""
        result = link_datasets(census_1871, census_1881, example_config)
        assert result.record_mapping.get_new("1871_3") == "1881_7"

    def test_decoy_household_not_linked(
        self, census_1871, census_1881, example_config
    ):
        """Household d81 mimics a71's attributes; edge similarity must
        route the link to a81 instead (the paper's headline example)."""
        result = link_datasets(census_1871, census_1881, example_config)
        assert ("a71", "a81") in result.group_mapping
        assert ("a71", "d81") not in result.group_mapping

    def test_john_riley_unlinked(self, census_1871, census_1881, example_config):
        result = link_datasets(census_1871, census_1881, example_config)
        assert not result.record_mapping.contains_old("1871_5")

    def test_mary_unlinked(self, census_1871, census_1881, example_config):
        result = link_datasets(census_1871, census_1881, example_config)
        assert not result.record_mapping.contains_new("1881_8")

    def test_group_links_of_running_example(
        self, census_1871, census_1881, example_config
    ):
        """§2: four group links — both preserved households plus the two
        marriage-induced links into household c."""
        result = link_datasets(census_1871, census_1881, example_config)
        assert set(result.group_mapping.pairs()) == {
            ("a71", "a81"),
            ("b71", "b81"),
            ("a71", "c81"),
            ("b71", "c81"),
        }

    def test_iteration_stats_recorded(
        self, census_1871, census_1881, example_config
    ):
        result = link_datasets(census_1871, census_1881, example_config)
        assert result.iterations
        deltas = [stats.delta for stats in result.iterations]
        assert deltas == sorted(deltas, reverse=True)
        assert result.iterations[0].delta == pytest.approx(0.7)

    def test_links_split_between_phases(
        self, census_1871, census_1881, example_config
    ):
        result = link_datasets(census_1871, census_1881, example_config)
        assert result.subgraph_record_links == 5
        assert result.remaining_record_links == 2  # Alice and Steve


class TestMappingInvariants:
    def test_record_mapping_is_one_to_one(self, small_pair):
        old, new = small_pair.datasets
        result = link_datasets(old, new, LinkageConfig())
        pairs = result.record_mapping.pairs()
        assert len({o for o, _ in pairs}) == len(pairs)
        assert len({n for _, n in pairs}) == len(pairs)

    def test_all_linked_ids_exist(self, small_pair):
        old, new = small_pair.datasets
        result = link_datasets(old, new, LinkageConfig())
        for old_id, new_id in result.record_mapping:
            assert old_id in old.records
            assert new_id in new.records
        for old_group, new_group in result.group_mapping:
            assert old_group in old.households
            assert new_group in new.households

    def test_record_links_imply_group_links(self, small_pair):
        old, new = small_pair.datasets
        result = link_datasets(old, new, LinkageConfig())
        for old_id, new_id in result.record_mapping:
            pair = (
                old.record(old_id).household_id,
                new.record(new_id).household_id,
            )
            assert pair in result.group_mapping

    def test_deterministic(self, small_pair):
        old, new = small_pair.datasets
        first = link_datasets(old, new, LinkageConfig())
        second = link_datasets(old, new, LinkageConfig())
        assert first.record_mapping == second.record_mapping
        assert first.group_mapping == second.group_mapping

    def test_quality_on_synthetic_pair(self, small_pair):
        old, new = small_pair.datasets
        truth = small_pair.ground_truth.record_mapping(old.year, new.year)
        result = link_datasets(old, new, LinkageConfig())
        quality = evaluate_mapping(result.record_mapping, truth)
        assert quality.precision > 0.85
        assert quality.recall > 0.75


class TestConfigurationVariants:
    def test_non_iterative_single_round(self, small_pair):
        old, new = small_pair.datasets
        result = link_datasets(old, new, LinkageConfig().non_iterative())
        assert len(result.iterations) == 1

    def test_stop_on_empty_round(self, census_1871, census_1881):
        config = LinkageConfig(blocking="cross", stop_on_empty_round=True)
        result = link_datasets(census_1871, census_1881, config)
        # Round 2 (δ=0.65) finds nothing new, so the loop stops there.
        assert len(result.iterations) < len(config.threshold_schedule())

    def test_linker_class_equivalent_to_helper(self, census_1871, census_1881,
                                               example_config):
        by_class = IterativeGroupLinkage(example_config).link(
            census_1871, census_1881
        )
        by_helper = link_datasets(census_1871, census_1881, example_config)
        assert by_class.record_mapping == by_helper.record_mapping

    def test_result_counts(self, census_1871, census_1881, example_config):
        result = link_datasets(census_1871, census_1881, example_config)
        assert result.num_record_links == len(result.record_mapping)
        assert result.num_group_links == len(result.group_mapping)

    def test_empty_datasets(self):
        from repro.model.dataset import CensusDataset

        result = link_datasets(
            CensusDataset(1871), CensusDataset(1881), LinkageConfig()
        )
        assert result.num_record_links == 0
        assert result.num_group_links == 0


@pytest.mark.parametrize("scoring_backend", ("vectorized", "python"))
def test_effort_counters_pinned(scoring_backend):
    old, new = generate_pair(seed=20170321, initial_households=50).datasets
    config = LinkageConfig(n_workers=1, scoring_backend=scoring_backend)
    profile = link_datasets(old, new, config).profile
    assert {name: profile.value(name) for name in PINNED_EFFORT} == (
        PINNED_EFFORT
    )
