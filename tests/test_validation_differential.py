"""Differential-equivalence harness: declared config equivalences hold."""

import dataclasses

import pytest

from repro.core.backends import available_backends
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair

from tests.differential import (
    IDENTICAL,
    SUPERSET,
    EquivalenceViolation,
    MappingDiff,
    assert_equivalences,
    backend_default_vs_protocol,
    blocking_cross_covers_standard,
    blocking_standard_qgram_covers_standard,
    cache_bounded_vs_unbounded,
    compare_results,
    filtering_on_vs_off,
    indexed_vs_brute_force,
    run_differential,
    serial_vs_parallel,
    vectorized_vs_python,
)


@pytest.fixture(scope="module")
def workload():
    series = generate_pair(seed=7, initial_households=30)
    return series.datasets


class TestDeclaredEquivalences:
    def test_serial_vs_parallel_identity(self, workload):
        """Ports the serial-vs-parallel assertion of test_core_parallel.py
        onto the differential runner: workers 2 and 4 must match serial
        byte for byte, including round structure and scoring effort."""
        old, new = workload
        outcomes = serial_vs_parallel(old, new, workers=(2, 4))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.ok, outcome.report()
            assert outcome.relation == IDENTICAL
            assert outcome.record_diff.is_identical
            assert outcome.group_diff.is_identical

    def test_cache_bounded_vs_unbounded_identity(self, workload):
        old, new = workload
        outcome = cache_bounded_vs_unbounded(old, new, bound=64)
        assert outcome.ok, outcome.report()
        assert outcome.variant_config.max_lazy_cache_entries == 64
        assert outcome.base_config.max_lazy_cache_entries == 0

    def test_blocking_cross_covers_standard(self, workload):
        old, new = workload
        outcome = blocking_cross_covers_standard(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == SUPERSET

    def test_blocking_standard_qgram_covers_standard(self, workload):
        old, new = workload
        outcome = blocking_standard_qgram_covers_standard(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == SUPERSET

    def test_filtering_on_vs_off_serial_and_parallel(self, workload):
        """The tentpole's acceptance check: pruning on produces mappings
        byte-identical to pruning off, serially and with 2 workers."""
        old, new = workload
        outcomes = filtering_on_vs_off(old, new, workers=(1, 2))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.ok, outcome.report()
            assert outcome.relation == IDENTICAL
            assert outcome.record_diff.is_identical
            assert outcome.group_diff.is_identical

    def test_indexed_vs_brute_force_identity(self, workload):
        """The group-stage acceptance check: inverted-index candidate
        enumeration matches the |G_i| x |G_{i+1}| reference scan byte for
        byte, down to the scoring effort."""
        old, new = workload
        outcome = indexed_vs_brute_force(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == IDENTICAL
        assert outcome.base_config.group_pair_indexing
        assert not outcome.variant_config.group_pair_indexing

    def test_vectorized_vs_python_serial_and_parallel(self, workload):
        """PR 6 acceptance check: the batch scoring kernel yields
        mappings, round structure and scoring effort byte-identical to
        the per-pair reference backend, serially and with 2 workers."""
        old, new = workload
        outcomes = vectorized_vs_python(old, new, workers=(1, 2))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.ok, outcome.report()
            assert outcome.relation == IDENTICAL
            assert outcome.base_config.scoring_backend == "python"
            assert outcome.variant_config.scoring_backend == "vectorized"
            assert not outcome.notes  # diagnostics (effort) matched too

    def test_backend_default_vs_protocol_serial_and_parallel(self, workload):
        """PR 7 acceptance check: the group stage routed through the
        GroupMatcherBackend protocol is byte-identical — mappings, round
        structure and scoring effort — to the frozen pre-refactor
        engine, serially and with 2 workers."""
        old, new = workload
        outcomes = backend_default_vs_protocol(old, new, workers=(1, 2))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.ok, outcome.report()
            assert outcome.relation == IDENTICAL
            assert outcome.base_config.group_backend == "default"
            assert (
                outcome.variant_config.group_backend
                == "prerefactor-reference"
            )
            assert not outcome.notes  # diagnostics (effort) matched too

    def test_assert_equivalences_passes(self, workload):
        old, new = workload
        outcomes = assert_equivalences(old, new, workers=(2,))
        assert all(outcome.ok for outcome in outcomes)
        # one worker variant + the cache check + two filtering variants
        # + two scoring-backend variants + the indexed-vs-brute-force
        # group-pair check + two backend-protocol variants + six
        # incremental-series variants (cold/no-op/revise × workers 1, 2;
        # no append: the default 2-snapshot series has no prefix) + four
        # sharded-vs-unsharded variants (shards 1, 4 × workers 1, 2)
        # + two service-vs-inprocess variants (cache on, cache off)
        assert len(outcomes) == 21

    def test_incremental_vs_scratch_arrival_sequences(self, workload):
        """The tentpole's headline proof: incremental re-linkage over a
        3-snapshot series is decision-identical to from-scratch for the
        cold start, the no-op re-run (with zero pairs re-scored), the
        append arrival and the revised-middle-snapshot arrival — serial
        and with 2 workers."""
        from repro.datagen import GeneratorConfig, generate_series

        from tests.differential import incremental_vs_scratch

        series = generate_series(
            GeneratorConfig(seed=7, num_snapshots=3, initial_households=18)
        )
        outcomes = incremental_vs_scratch(series.datasets, workers=(1, 2))
        # (cold + no-op + append + revise) × workers (1, 2)
        assert len(outcomes) == 8
        names = {outcome.name for outcome in outcomes}
        for scenario in ("cold", "no-op", "append", "revise"):
            for count in (1, 2):
                assert (
                    f"incremental-vs-scratch({scenario},n_workers={count})"
                    in names
                )
        for outcome in outcomes:
            assert outcome.ok, outcome.report()


class TestReferenceBackendScope:
    def test_registry_unchanged_after_reference_check(
        self, census_1871, census_1881
    ):
        """The frozen reference is registered only while
        backend_default_vs_protocol runs: afterwards the registry holds
        the shipped backends and production rejects the reference."""
        outcomes = backend_default_vs_protocol(
            census_1871, census_1881, workers=(1,)
        )
        assert all(outcome.ok for outcome in outcomes)
        assert available_backends() == ("default", "hausdorff", "rgl")
        with pytest.raises(ValueError, match="prerefactor-reference"):
            LinkageConfig(group_backend="prerefactor-reference")


class TestFailurePaths:
    def test_identity_violation_reported_with_diff(self, workload):
        """A knob that genuinely changes the output must fail IDENTICAL
        with a mapping diff that names the divergent pairs."""
        old, new = workload
        base = LinkageConfig()
        # Raising delta_low prunes late low-confidence rounds, so the
        # variant links strictly less — a real behavioural difference.
        variant = dataclasses.replace(base, delta_low=0.69, remaining_threshold=0.95)
        outcome = run_differential(
            old, new, base, variant, relation=IDENTICAL, name="knob-differs"
        )
        assert not outcome.ok
        report = outcome.report()
        assert "VIOLATED" in report
        assert "only in" in report

    def test_equivalence_violation_raised(self, workload):
        old, new = workload
        base = LinkageConfig()
        base_result = link_datasets(old, new, base)
        variant = dataclasses.replace(base, delta_low=0.69, remaining_threshold=0.95)
        outcome = run_differential(
            old, new, base, variant, relation=IDENTICAL,
            name="forced-failure", base_result=base_result,
        )
        with pytest.raises(EquivalenceViolation) as excinfo:
            if not outcome.ok:
                raise EquivalenceViolation([outcome])
        assert "forced-failure" in str(excinfo.value)

    def test_diagnostics_mismatch_noted(self, workload):
        old, new = workload
        config = LinkageConfig()
        base_result = link_datasets(old, new, config)
        variant = dataclasses.replace(config, delta_low=0.69)
        variant_result = link_datasets(old, new, variant)
        outcome = compare_results(
            "diag", IDENTICAL, config, variant, base_result, variant_result,
            check_diagnostics=True,
        )
        assert any("iteration count" in note or "pairs scored" in note
                   for note in outcome.notes)


class TestMappingDiff:
    def test_superset_semantics(self):
        diff = MappingDiff(
            "record link", only_in_base=[], only_in_variant=[("o1", "n1")]
        )
        assert diff.satisfies(SUPERSET)
        assert not diff.satisfies(IDENTICAL)
        assert not diff.is_identical

    def test_identical_semantics(self):
        diff = MappingDiff("record link")
        assert diff.is_identical
        assert diff.satisfies(IDENTICAL)
        assert diff.satisfies(SUPERSET)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            MappingDiff("record link").satisfies("subset")

    def test_report_truncates(self):
        pairs = [(f"o{i}", f"n{i}") for i in range(20)]
        diff = MappingDiff("record link", only_in_base=pairs)
        lines = diff.report(limit=15)
        assert any("... 5 more" in line for line in lines)
        assert "record link only in base: o0->n0" in lines[0]
