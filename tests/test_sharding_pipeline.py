"""Tests for the sharded out-of-core linkage driver
(:mod:`repro.sharding.planner` / :mod:`repro.sharding.pipeline`).

The identity contract under test: a sharded run makes **exactly** the
decisions of the in-RAM run — same mappings, same per-round ledgers
(:func:`repro.checkpoint.decision_ledger_hash`) — for any shard count,
any worker count, either record-source backing, and across any
mid-round crash/resume boundary.
"""

import dataclasses
import shutil

import pytest

from repro.blocking import RegionBlocker, StandardBlocker
from repro.checkpoint import (
    CheckpointMismatch,
    CheckpointStore,
    decision_ledger_hash,
)
from repro.checkpoint.faults import CrashingStore, SimulatedCrash
from repro.cli import main
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair
from repro.datagen.country import CountryConfig, generate_country
from repro.model import roles
from repro.model.dataset import CensusDataset
from repro.model.records import PersonRecord
from repro.sharding import (
    ShardStore,
    ShardedRecordSource,
    link_datasets_sharded,
    plan_shards,
)

from tests.differential import sharded_vs_unsharded


def family(region, year, number, surname, head, age):
    """A three-person household of ``region`` in census ``year``."""
    household = f"{region}::h{year}_{number}"
    prefix = f"{region}::{year}_{number}"
    return [
        PersonRecord(f"{prefix}_1", household, head, surname, "m", age,
                     "weaver", f"{surname} st", roles.HEAD),
        PersonRecord(f"{prefix}_2", household, "mary", surname, "f",
                     age - 2, None, f"{surname} st", roles.WIFE),
        PersonRecord(f"{prefix}_3", household, "tom", surname, "m",
                     age - 30, None, f"{surname} st", roles.SON),
    ]


@pytest.fixture(scope="module")
def town_pair():
    series = generate_pair(seed=21, initial_households=40)
    return series.successive_pairs()[0]


@pytest.fixture(scope="module")
def country_pair():
    country = generate_country(
        CountryConfig(seed=13, regions=3, households_per_region=18)
    )
    return country.successive_pairs()[0]


class TestPlanner:
    def test_partition_is_exact(self, town_pair):
        old, new = town_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 4
        )
        old_ids = [i for shard in plan.shards for i in shard.old_ids]
        new_ids = [i for shard in plan.shards for i in shard.new_ids]
        assert sorted(old_ids) == sorted(old.record_ids)
        assert sorted(new_ids) == sorted(new.record_ids)
        assert len(set(old_ids)) == len(old_ids)
        assert len(set(new_ids)) == len(new_ids)

    def test_candidate_pairs_never_cross_shards(self, town_pair):
        old, new = town_pair
        blocker = StandardBlocker()
        plan = plan_shards(
            old.iter_records(), new.iter_records(), blocker, 5
        )
        shard_of = {}
        for shard in plan.shards:
            for record_id in shard.old_ids:
                shard_of[("o", record_id)] = shard.index
            for record_id in shard.new_ids:
                shard_of[("n", record_id)] = shard.index
        pairs = blocker.candidate_pairs(
            list(old.iter_records()), list(new.iter_records())
        )
        for old_id, new_id in pairs:
            assert shard_of[("o", old_id)] == shard_of[("n", new_id)]

    def test_households_never_cross_shards(self, town_pair):
        old, new = town_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 5
        )
        for dataset, ids_of in (
            (old, lambda s: s.old_ids), (new, lambda s: s.new_ids)
        ):
            household_shard = {}
            for shard in plan.shards:
                for record_id in ids_of(shard):
                    household = dataset.records[record_id].household_id
                    assert household_shard.setdefault(
                        household, shard.index
                    ) == shard.index

    def test_region_blocking_shards_by_region(self, country_pair):
        old, new = country_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), RegionBlocker(), 3
        )
        # Region blocking makes regions independent, so no shard may mix
        # records whose candidate pairs could interact across regions —
        # and with 3 regions over 3 shards each shard holds whole regions.
        for shard in plan.shards:
            assert shard.old_ids or shard.new_ids

    def test_fingerprint_tracks_assignment(self, town_pair):
        old, new = town_pair
        plan_a = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 4
        )
        plan_b = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 4
        )
        plan_c = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 2
        )
        assert plan_a.fingerprint() == plan_b.fingerprint()
        assert plan_a.fingerprint() != plan_c.fingerprint()

    def test_describe_rows(self, town_pair):
        old, new = town_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 2
        )
        rows = plan.describe()
        assert len(rows) == 2
        assert {"shard", "old_records", "new_records", "components",
                "cost"} <= set(rows[0])

    def test_unsupported_blocker_rejected(self, town_pair):
        old, new = town_pair
        config = LinkageConfig(blocking="standard+qgram")
        with pytest.raises(TypeError, match="partition"):
            plan_shards(
                old.iter_records(), new.iter_records(),
                config.build_blocker(), 2,
            )


class TestDecisionIdentity:
    def test_differential_suite(self, town_pair):
        old, new = town_pair
        outcomes = sharded_vs_unsharded(
            old, new, shards=(1, 4), workers=(1, 2)
        )
        assert [outcome.ok for outcome in outcomes] == [True] * 4

    def test_region_blocked_country(self, country_pair):
        old, new = country_pair
        config = LinkageConfig(blocking="region")
        base = link_datasets(old, new, config)
        sharded = link_datasets(
            old, new, dataclasses.replace(config, shards=3)
        )
        assert decision_ledger_hash(sharded) == decision_ledger_hash(base)

    def test_store_backed_source(self, tmp_path, country_pair, monkeypatch):
        old, new = country_pair
        store = ShardStore(tmp_path / "store")
        store.write_datasets([old, new])
        config = LinkageConfig(blocking="region", shards=3)
        base = link_datasets(
            old, new, dataclasses.replace(config, shards=0)
        )
        sources = [
            ShardedRecordSource.from_store(store, old.year),
            ShardedRecordSource.from_store(store, new.year),
        ]
        plan = plan_shards(
            store.iter_records(old.year), store.iter_records(new.year),
            config.build_blocker(), config.shards,
        )
        shard_ids = {
            old.year: [set(spec.old_ids) for spec in plan.shards],
            new.year: [set(spec.new_ids) for spec in plan.shards],
        }

        # Residency: the run streams each year once (the planner's pass)
        # and loads at most one planner shard's records at a time.
        def read_whole_year(*args):
            raise AssertionError("the sharded run read a whole year")

        monkeypatch.setattr(ShardStore, "read_dataset", read_whole_year)
        loads, streams = [], []
        for source in sources:
            def load(ids, source=source, inner=source.load):
                loads.append((source.year, set(ids)))
                return inner(ids)

            def iter_records(source=source, inner=source.iter_records):
                streams.append(source.year)
                return inner()

            monkeypatch.setattr(source, "load", load)
            monkeypatch.setattr(source, "iter_records", iter_records)
        result = link_datasets_sharded(*sources, config)
        assert sorted(streams) == [old.year, new.year]
        assert loads
        for year, ids in loads:
            assert any(ids <= shard for shard in shard_ids[year]), (
                f"a load of {len(ids)} {year} records spans planner shards"
            )
        assert decision_ledger_hash(result) == decision_ledger_hash(base)
        assert decision_ledger_hash(result) == (
            "69fa442c3bf6b0a041415479e936aaa0f32edb7fb957fe3775cdc19a8f77c7ad"
        )

    def test_validation_inline(self, town_pair):
        old, new = town_pair
        result = link_datasets(
            old, new, LinkageConfig(shards=3, validate=True)
        )
        assert result.provenance is not None
        assert len(result.provenance) == result.num_record_links

    def test_more_shards_than_components_ok(self, town_pair):
        old, new = town_pair
        base = link_datasets(old, new, LinkageConfig())
        result = link_datasets(old, new, LinkageConfig(shards=500))
        assert decision_ledger_hash(result) == decision_ledger_hash(base)

    def test_cache_seed_and_keep_cache_rejected(self, town_pair):
        old, new = town_pair
        with pytest.raises(ValueError, match="in-RAM"):
            link_datasets(
                old, new, LinkageConfig(shards=2), keep_cache=True
            )


class TestCrashResume:
    """Mid-round shard-boundary recovery: every checkpoint prefix of a
    completed run must resume to the identical decision ledger."""

    @pytest.fixture()
    def completed(self, tmp_path, country_pair):
        old, new = country_pair
        config = LinkageConfig(blocking="region", shards=3)
        ckpt = tmp_path / "ckpt"
        result = link_datasets(old, new, config, checkpoint_dir=ckpt)
        return old, new, config, ckpt, decision_ledger_hash(result)

    @staticmethod
    def progress_names(ckpt):
        """The completed run's non-final states, in progress order."""
        return [
            entry.path.name for entry in CheckpointStore(ckpt).entries()
            if entry.kind != "final"
        ]

    def test_resume_from_every_prefix(self, tmp_path, completed):
        old, new, config, ckpt, expected = completed
        names = self.progress_names(ckpt)
        assert len(names) >= 4  # several shard boundaries to crash at
        for cut in range(1, len(names) + 1):
            trunc = tmp_path / f"cut{cut}"
            trunc.mkdir()
            for name in names[:cut]:
                shutil.copy(ckpt / name, trunc / name)
            resumed = link_datasets(
                old, new, config, checkpoint_dir=trunc, resume=True
            )
            assert decision_ledger_hash(resumed) == expected, (
                f"diverged resuming after {names[cut - 1]}"
            )

    def test_resume_after_frontier_exhausted_mid_round(self, tmp_path):
        """Killed after the round's first shard merge linked every old
        record: the resumed round still visits the other shard and
        records its statistics, instead of stopping at the round's
        exhausted-frontier test."""
        old = CensusDataset.from_records(
            1871, family("a", 1871, 1, "ashworth", "john", 40)
            + family("a", 1871, 2, "pickup", "henry", 38),
        )
        new = CensusDataset.from_records(
            1881, family("a", 1881, 1, "ashworth", "john", 50)
            + family("a", 1881, 2, "pickup", "henry", 48)
            + family("b", 1881, 3, "zebedee", "quentin", 30),
        )
        config = LinkageConfig(blocking="region", shards=2)
        uninterrupted = link_datasets(old, new, config)
        assert uninterrupted.iterations[0].remaining_old == 0
        store = CrashingStore(tmp_path, crash_after_writes=1)
        with pytest.raises(SimulatedCrash):
            link_datasets(old, new, config, checkpoint_dir=store)
        assert CheckpointStore(tmp_path).load_latest().mid_round
        resumed = link_datasets(
            old, new, config, checkpoint_dir=tmp_path, resume=True
        )
        assert decision_ledger_hash(resumed) == decision_ledger_hash(
            uninterrupted
        )

    def test_resume_from_final_short_circuits(self, completed):
        old, new, config, ckpt, expected = completed
        resumed = link_datasets(
            old, new, config, checkpoint_dir=ckpt, resume=True
        )
        assert decision_ledger_hash(resumed) == expected

    def test_corrupt_state_skipped(self, tmp_path, completed):
        old, new, config, ckpt, expected = completed
        trunc = tmp_path / "corrupt"
        trunc.mkdir()
        names = self.progress_names(ckpt)
        for name in names[:2]:
            shutil.copy(ckpt / name, trunc / name)
        (trunc / names[2]).write_text("{torn", encoding="utf-8")
        resumed = link_datasets(
            old, new, config, checkpoint_dir=trunc, resume=True
        )
        assert decision_ledger_hash(resumed) == expected

    def test_config_mismatch_rejected(self, completed):
        old, new, config, ckpt, _ = completed
        changed = dataclasses.replace(config, delta_low=0.55)
        with pytest.raises(CheckpointMismatch, match="configuration"):
            link_datasets(
                old, new, changed, checkpoint_dir=ckpt, resume=True
            )

    def test_plan_mismatch_rejected(self, tmp_path, completed):
        old, new, config, ckpt, _ = completed
        # Drop the final state so resume must re-plan and re-enter.
        trunc = tmp_path / "noplanfinal"
        trunc.mkdir()
        for path in ckpt.iterdir():
            if path.name != "final.json":
                shutil.copy(path, trunc / path.name)
        changed = dataclasses.replace(config, shards=2)
        with pytest.raises(CheckpointMismatch):
            link_datasets(
                old, new, changed, checkpoint_dir=trunc, resume=True
            )

    def test_resume_without_dir_rejected(self, country_pair):
        old, new = country_pair
        with pytest.raises(ValueError, match="checkpoint"):
            link_datasets_sharded(
                old, new, LinkageConfig(shards=2), resume=True
            )

    def test_store_describe(self, completed):
        _, _, _, ckpt, _ = completed
        rows = CheckpointStore(ckpt).describe()
        assert rows and all(row["status"] == "ok" for row in rows)
        assert rows[-1]["phase"] in ("round", "final")


class TestCli:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        code = main([
            "generate", "--out", str(tmp_path / "data"),
            "--seed", "3", "--regions", "2",
            "--households-per-region", "15",
            "--store", str(tmp_path / "store"),
        ])
        assert code == 0
        return tmp_path

    def test_link_from_store(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "--shards", "2", "--blocking", "region",
            "--records", str(store_dir / "links.csv"),
        ])
        assert code == 0
        assert "record links" in capsys.readouterr().out
        assert (store_dir / "links.csv").exists()

    def test_store_and_csv_paths_agree(self, store_dir, capsys):
        main([
            "link", "--store", str(store_dir / "store"),
            "--shards", "2", "--blocking", "region",
            "--records", str(store_dir / "from_store.csv"),
        ])
        main([
            "link",
            str(store_dir / "data" / "census_1871.csv"),
            str(store_dir / "data" / "census_1881.csv"),
            "--blocking", "region",
            "--records", str(store_dir / "from_csv.csv"),
        ])
        capsys.readouterr()
        assert (
            (store_dir / "from_store.csv").read_text()
            == (store_dir / "from_csv.csv").read_text()
        )

    def test_store_with_year_selection(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "1871", "1881", "--shards", "2", "--blocking", "region",
        ])
        assert code == 0
        assert "record links" in capsys.readouterr().out

    def test_store_rejects_paths(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "a.csv", "b.csv",
        ])
        assert code == 2
        assert "years" in capsys.readouterr().err

    def test_checkpoints_lists_sharded_states(self, store_dir, capsys):
        """``repro checkpoints`` reads a sharded run's directory — the one
        checkpoint format — with a shards-done column."""
        ckpt = store_dir / "ckpt"
        assert main([
            "link", "--store", str(store_dir / "store"),
            "--shards", "2", "--blocking", "region",
            "--checkpoint-dir", str(ckpt),
        ]) == 0
        capsys.readouterr()
        assert main(["checkpoints", str(ckpt)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "shards" in lines[0].split()
        rows = {line.split()[0]: line.split() for line in lines[1:]}
        assert rows["round_0001_shard_0001.json"][1:5] == [
            "ok", "round", "1", "1/2"
        ]
        assert rows["round_0001.json"][4] == "2/2"
        assert rows["final.json"][1:3] == ["ok", "final"]

    def test_shards_with_series_state_rejected(self, store_dir, capsys):
        code = main([
            "link",
            str(store_dir / "data" / "census_1871.csv"),
            str(store_dir / "data" / "census_1881.csv"),
            "--shards", "2", "--series-state", str(store_dir / "state"),
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_store_with_series_state_rejected(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "--series-state", str(store_dir / "state"),
        ])
        assert code == 2
        assert "--series-state" in capsys.readouterr().err
