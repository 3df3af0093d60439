"""Crash matrix: kill the pipeline at every boundary, resume, compare.

The checkpoint subsystem's contract is *byte identity*: a run killed
after any round boundary (or after the final pass, or mid-write) and
then resumed must produce exactly the result an uninterrupted run
produces — same mappings, same per-round ledgers, same effort and event
counters (``repro.checkpoint.ledger_hash``).  This battery proves the
contract at **every** kill point, serial and with 2 workers, instead of
sampling one.  In-RAM and sharded runs share the one driver and the one
checkpoint format, so the kill-at-every-boundary test covers both
residencies: a 3-shard run is also killed at every shard boundary inside
a round, and must resume to the in-RAM run's decisions
(``repro.checkpoint.decision_ledger_hash``) — its shard caches are not
persisted, so its effort counters may differ.
"""

import pytest

from repro.checkpoint import (
    CheckpointMismatch,
    CheckpointStore,
    decision_ledger_hash,
    ledger_hash,
    result_ledger,
)
from repro.checkpoint.faults import CrashingStore, SimulatedCrash
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair
from repro.datagen.country import CountryConfig, generate_country
from repro.instrumentation import CHECKPOINT_LOADS, CHECKPOINT_WRITES

SEED = 7
HOUSEHOLDS = 24


@pytest.fixture(scope="module")
def datasets():
    series = generate_pair(seed=SEED, initial_households=HOUSEHOLDS)
    return series.datasets


def make_config(workers: int = 1, **overrides) -> LinkageConfig:
    return LinkageConfig(validate=True, n_workers=workers, **overrides)


@pytest.fixture(scope="module")
def baselines(datasets):
    """Uninterrupted reference runs per worker count."""
    old, new = datasets
    return {
        workers: link_datasets(old, new, make_config(workers))
        for workers in (1, 2)
    }


@pytest.fixture(scope="module")
def country():
    """Three regions.  Region blocking gives each shard of a 3-shard run
    one region's work, so its kills inside a round land between shards
    that link records (the town pair is one blocking component, which
    the planner cannot split)."""
    return generate_country(
        CountryConfig(seed=SEED, regions=3, households_per_region=8)
    ).successive_pairs()[0]


@pytest.fixture(scope="module")
def country_baselines(country):
    """Uninterrupted in-RAM reference runs of ``country`` per worker
    count."""
    old, new = country
    return {
        workers: link_datasets(
            old, new, make_config(workers, blocking="region")
        )
        for workers in (1, 2)
    }


def crash_then_resume(datasets, config, tmp_path, **crash_kwargs):
    """Run until the injected kill, then resume from the directory."""
    old, new = datasets
    store = CrashingStore(tmp_path, **crash_kwargs)
    with pytest.raises(SimulatedCrash):
        link_datasets(old, new, config, checkpoint_dir=store)
    return link_datasets(
        old, new, config, checkpoint_dir=tmp_path, resume=True
    )


class TestCrashMatrix:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [0, 3])
    def test_every_round_boundary_resumes_byte_identical(
        self, datasets, baselines, country, country_baselines, tmp_path,
        shards, workers,
    ):
        """The tentpole guarantee, at every kill point of both
        residencies: after each checkpoint write but the final one —
        every δ-round boundary and, for a 3-shard run, every shard
        boundary inside a round.  The resident run resumes to the
        uninterrupted run's full ledger, the streamed one to the in-RAM
        run's decisions."""
        if shards == 0:
            pair, baseline = datasets, baselines[workers]
            config = make_config(workers)
            digest = ledger_hash
        else:
            pair, baseline = country, country_baselines[workers]
            config = make_config(workers, blocking="region", shards=shards)
            digest = decision_ledger_hash
        expected = digest(baseline)
        assert len(baseline.iterations) >= 2, (
            "workload too small to exercise the matrix"
        )
        reference = link_datasets(
            *pair, config, checkpoint_dir=tmp_path / "reference"
        )
        boundaries = reference.profile.value(CHECKPOINT_WRITES) - 1
        assert boundaries == len(baseline.iterations) * max(1, shards)
        for kill_after in range(1, boundaries + 1):
            directory = tmp_path / f"k{kill_after}"
            resumed = crash_then_resume(
                pair, config, directory, crash_after_writes=kill_after
            )
            assert digest(resumed) == expected, (
                f"resume after write {kill_after} (shards={shards}, "
                f"workers={workers}) diverged:\n{result_ledger(resumed)}"
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_after_final_checkpoint_reconstructs(
        self, datasets, baselines, tmp_path, workers
    ):
        """A kill after the run-complete snapshot: resume rebuilds the
        result outright, without recomputing, and still hash-matches."""
        resumed = crash_then_resume(
            datasets,
            make_config(workers),
            tmp_path,
            crash_after_final=True,
        )
        assert ledger_hash(resumed) == ledger_hash(baselines[workers])
        # Reconstruction performs exactly one load and zero new writes.
        assert resumed.profile.value(CHECKPOINT_LOADS) == 1
        assert resumed.profile.value(CHECKPOINT_WRITES) == 0

    def test_mid_write_kill_leaves_prior_round_loadable(
        self, datasets, baselines, tmp_path
    ):
        """The worst instant: payload staged, never published.  The
        previous round must remain the loadable tip — no corrupt file,
        no temp residue — and resume from it must still be identical."""
        old, new = datasets
        store = CrashingStore(tmp_path, fail_replace_at=2)
        with pytest.raises(OSError, match="injected failure"):
            link_datasets(old, new, make_config(), checkpoint_dir=store)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["round_0001.json"]

        recovery = CheckpointStore(tmp_path)
        state = recovery.load_latest()
        assert state is not None and state.round_index == 1
        assert recovery.skipped == []

        resumed = link_datasets(
            old, new, make_config(), checkpoint_dir=tmp_path, resume=True
        )
        assert ledger_hash(resumed) == ledger_hash(baselines[1])

    def test_mid_round_write_failure_leaves_prior_state_loadable(
        self, country, country_baselines, tmp_path
    ):
        """The same worst instant inside a round of a 3-shard run: the
        second shard's state is staged, never published.  The first
        shard's state stays the loadable tip, and resume re-enters the
        round after that shard."""
        old, new = country
        config = make_config(blocking="region", shards=3)
        store = CrashingStore(tmp_path, fail_replace_at=2)
        with pytest.raises(OSError, match="injected failure"):
            link_datasets(old, new, config, checkpoint_dir=store)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["round_0001_shard_0001.json"]

        recovery = CheckpointStore(tmp_path)
        state = recovery.load_latest()
        assert state is not None and state.mid_round
        assert (state.round_index, state.shards_done) == (1, 1)
        assert recovery.skipped == []

        resumed = link_datasets(
            old, new, config, checkpoint_dir=tmp_path, resume=True
        )
        assert decision_ledger_hash(resumed) == decision_ledger_hash(
            country_baselines[1]
        )

    def test_resumed_run_loads_exactly_once(self, datasets, tmp_path):
        resumed = crash_then_resume(
            datasets, make_config(), tmp_path, crash_after_round=1
        )
        assert resumed.profile.value(CHECKPOINT_LOADS) == 1


class TestResumedRunsValidate:
    def test_resumed_result_passes_full_registry(
        self, datasets, tmp_path
    ):
        """Resumed results satisfy every registered invariant — including
        the chain-consistency check over the restored rounds."""
        from repro.validation.invariants import validate_result

        resumed = crash_then_resume(
            datasets, make_config(), tmp_path, crash_after_round=2
        )
        old, new = datasets
        report = validate_result(resumed, old, new, make_config())
        assert report.ok, report.summary()
        assert "checkpoint-chain-consistent" in report.checked

    def test_stitched_iteration_chain_is_detectable(
        self, datasets, tmp_path
    ):
        """The chain invariant actually bites: corrupting a restored
        round's frontier accounting is flagged."""
        from repro.validation.invariants import validate_result

        resumed = crash_then_resume(
            datasets, make_config(), tmp_path, crash_after_round=1
        )
        resumed.iterations[0].remaining_old += 1
        old, new = datasets
        report = validate_result(resumed, old, new, make_config())
        assert "checkpoint-chain-consistent" in report.violated_invariants()


class TestCadenceAndOptions:
    def test_checkpoint_every_skips_intermediate_rounds(
        self, datasets, baselines, tmp_path
    ):
        old, new = datasets
        config = make_config(checkpoint_every=2)
        link_datasets(old, new, config, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        round_indices = [
            entry.round_index
            for entry in store.entries()
            if entry.kind == "round"
        ]
        assert round_indices, "no round checkpoints written"
        final_round = len(baselines[1].iterations)
        for index in round_indices:
            assert index % 2 == 0 or index == final_round, (
                f"round {index} checkpointed despite checkpoint_every=2"
            )
        assert store.entries()[-1].kind == "final"

    def test_checkpoint_every_applies_to_sharded_runs(
        self, country, country_baselines, tmp_path
    ):
        """A 3-shard run under checkpoint_every=2 writes nothing in
        round 1, and in round 2 a state after each shard merge but the
        last, then the round state."""
        old, new = country
        link_datasets(
            old, new,
            make_config(blocking="region", shards=3, checkpoint_every=2),
            checkpoint_dir=tmp_path,
        )
        entries = CheckpointStore(tmp_path).entries()
        assert [e.round_index for e in entries].count(1) == 0
        assert [
            (e.kind, e.shards_done) for e in entries if e.round_index == 2
        ] == [("shard", 1), ("shard", 2), ("round", None)]
        final_round = len(country_baselines[1].iterations)
        for entry in entries[:-1]:
            assert entry.round_index % 2 == 0 or (
                entry.round_index == final_round and entry.kind == "round"
            )
        assert entries[-1].kind == "final"

    def test_resume_from_sparse_cadence_is_identical(
        self, datasets, baselines, tmp_path
    ):
        """Killed between checkpoints: resume replays the uncheckpointed
        rounds and still converges byte-identically."""
        config = make_config(checkpoint_every=2)
        resumed = crash_then_resume(
            datasets, config, tmp_path, crash_after_round=2
        )
        # checkpoint_every is part of the config fingerprint, so compare
        # against a fresh uninterrupted run under the same config.
        old, new = datasets
        baseline = link_datasets(old, new, make_config(checkpoint_every=2))
        assert ledger_hash(resumed) == ledger_hash(baseline)

    def test_without_cache_export_mappings_still_identical(
        self, datasets, baselines, tmp_path
    ):
        """checkpoint_cache=False trades effort-counter identity for
        smaller snapshots; the decided mappings must not change."""
        config = make_config(checkpoint_cache=False)
        resumed = crash_then_resume(
            datasets, config, tmp_path, crash_after_round=2
        )
        baseline = baselines[1]
        assert (
            resumed.record_mapping.as_jsonable()
            == baseline.record_mapping.as_jsonable()
        )
        assert (
            resumed.group_mapping.as_jsonable()
            == baseline.group_mapping.as_jsonable()
        )

    def test_resume_on_empty_directory_runs_fresh(
        self, datasets, baselines, tmp_path
    ):
        """resume=True with no checkpoint yet is resume-on-start: the
        run starts from scratch and checkpoints normally."""
        old, new = datasets
        result = link_datasets(
            old, new, make_config(), checkpoint_dir=tmp_path, resume=True
        )
        assert ledger_hash(result) == ledger_hash(baselines[1])
        assert (tmp_path / "final.json").exists()

    def test_resume_without_directory_rejected(self, datasets):
        old, new = datasets
        with pytest.raises(ValueError, match="checkpoint directory"):
            link_datasets(old, new, make_config(), resume=True)


class TestSeriesStateCrashMatrix:
    """Kill the *series-state* store mid-incremental-update: a plain
    re-run against the surviving directory must converge to the same
    SeriesState — byte-identical pair files — and the same decisions
    ledger as an uninterrupted run."""

    @pytest.fixture(scope="class")
    def series(self):
        from repro.datagen.generator import GeneratorConfig, generate_series

        return generate_series(GeneratorConfig(
            seed=SEED, num_snapshots=3, initial_households=18
        )).datasets

    @pytest.fixture(scope="class")
    def control(self, series, tmp_path_factory):
        """Uninterrupted incremental run: reference store + ledger hash."""
        from repro.checkpoint import analysis_ledger_hash
        from repro.evolution.analysis import analyse_series

        directory = tmp_path_factory.mktemp("series-control")
        analysis = analyse_series(
            series, config=LinkageConfig(), series_state=directory
        )
        return directory, analysis_ledger_hash(analysis)

    @staticmethod
    def assert_stores_byte_identical(control_dir, recovered_dir):
        control_files = sorted(p.name for p in control_dir.iterdir())
        recovered_files = sorted(p.name for p in recovered_dir.iterdir())
        assert recovered_files == control_files
        for name in control_files:
            assert (recovered_dir / name).read_bytes() == (
                control_dir / name
            ).read_bytes(), f"series pair file {name} diverged after crash"

    def test_kill_mid_update_then_rerun_converges(
        self, series, control, tmp_path
    ):
        from repro.checkpoint import analysis_ledger_hash
        from repro.checkpoint.faults import CrashingSeriesStore
        from repro.evolution.analysis import analyse_series
        from repro.instrumentation import (
            SERIES_PAIRS_RELINKED,
            SERIES_PAIRS_REUSED,
        )

        control_dir, expected = control
        store = CrashingSeriesStore(tmp_path, crash_after_writes=1)
        with pytest.raises(SimulatedCrash):
            analyse_series(
                series, config=LinkageConfig(), series_state=store
            )
        # Exactly the first pair survived, durably published.
        assert len(list(tmp_path.iterdir())) == 1
        resumed = analyse_series(
            series, config=LinkageConfig(), series_state=tmp_path
        )
        assert analysis_ledger_hash(resumed) == expected
        # The surviving pair was reused, only the missing one re-linked.
        assert resumed.profile.value(SERIES_PAIRS_REUSED) == 1
        assert resumed.profile.value(SERIES_PAIRS_RELINKED) == 1
        self.assert_stores_byte_identical(control_dir, tmp_path)

    def test_publish_failure_leaves_no_corrupt_state(
        self, series, control, tmp_path
    ):
        """The worst instant for a pair write: payload staged, rename
        fails.  No temp residue, no corrupt file — the re-run re-links
        the unpublished pair and converges byte-identically."""
        from repro.checkpoint import analysis_ledger_hash
        from repro.checkpoint.faults import CrashingSeriesStore
        from repro.evolution.analysis import analyse_series

        control_dir, expected = control
        store = CrashingSeriesStore(tmp_path, fail_replace_at=2)
        with pytest.raises(OSError, match="injected failure"):
            analyse_series(
                series, config=LinkageConfig(), series_state=store
            )
        assert len(list(tmp_path.iterdir())) == 1  # no temp residue
        resumed = analyse_series(
            series, config=LinkageConfig(), series_state=tmp_path
        )
        assert analysis_ledger_hash(resumed) == expected
        self.assert_stores_byte_identical(control_dir, tmp_path)

    def test_kill_during_revision_update_converges(
        self, series, control, tmp_path
    ):
        """Crash while a *revision* is being folded in (both pairs dirty,
        killed after rewriting the first): the re-run finishes the
        update and matches an uninterrupted revised control exactly."""
        from repro.checkpoint import analysis_ledger_hash
        from repro.checkpoint.faults import CrashingSeriesStore
        from repro.datagen import revise_middle_record
        from repro.evolution.analysis import analyse_series

        revised = list(series)
        revised[1] = revise_middle_record(series[1])

        control_dir = tmp_path / "revised-control"
        revised_control = analyse_series(
            revised, config=LinkageConfig(), series_state=control_dir
        )
        expected = analysis_ledger_hash(revised_control)

        crash_dir = tmp_path / "crash"
        # Warm on the original series, then crash mid-revision-update.
        analyse_series(
            series, config=LinkageConfig(), series_state=crash_dir
        )
        store = CrashingSeriesStore(crash_dir, crash_after_writes=1)
        with pytest.raises(SimulatedCrash):
            analyse_series(
                revised, config=LinkageConfig(), series_state=store
            )
        resumed = analyse_series(
            revised, config=LinkageConfig(), series_state=crash_dir
        )
        assert analysis_ledger_hash(resumed) == expected
        self.assert_stores_byte_identical(control_dir, crash_dir)


class TestMismatchGuards:
    def test_config_change_rejected(self, datasets, tmp_path):
        old, new = datasets
        store = CrashingStore(tmp_path, crash_after_round=1)
        with pytest.raises(SimulatedCrash):
            link_datasets(old, new, make_config(), checkpoint_dir=store)
        with pytest.raises(CheckpointMismatch, match="configuration"):
            link_datasets(
                old,
                new,
                make_config(delta_low=0.55),
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_data_change_rejected(self, datasets, tmp_path):
        old, new = datasets
        store = CrashingStore(tmp_path, crash_after_round=1)
        with pytest.raises(SimulatedCrash):
            link_datasets(old, new, make_config(), checkpoint_dir=store)
        other = generate_pair(seed=11, initial_households=HOUSEHOLDS)
        other_old, other_new = other.datasets
        with pytest.raises(CheckpointMismatch, match="input data"):
            link_datasets(
                other_old,
                other_new,
                make_config(),
                checkpoint_dir=tmp_path,
                resume=True,
            )
