"""Tests for the sharded out-of-core linkage driver
(:mod:`repro.sharding.planner` / :mod:`repro.sharding.pipeline`).

The identity contract under test: a sharded run makes **exactly** the
decisions of the in-RAM run — same mappings, same per-round ledgers
(:func:`repro.checkpoint.decision_ledger_hash`) — for any shard count,
any worker count, either record-source backing, and across any
crash/resume boundary, although it visits each shard once and applies
the stopping rule only after the last visit.
"""

import dataclasses
import inspect
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
from repro.instrumentation import CHECKPOINT_WRITES
from repro.model import roles
from repro.model.dataset import CensusDataset
from repro.model.records import PersonRecord
from repro.sharding import (
    ShardStore,
    ShardedRecordSource,
    link_datasets_sharded,
    plan_shards,
)

import repro.sharding.pipeline as sharded_module
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


#: 1881 first names of a household whose 1871 head, wife and son are
#: ("john", "mary", "tom"), by the δ round of the default schedule in
#: which that household links (from round 2 on, :func:`staged_pair` also
#: changes its occupation and address): the further the names drift,
#: the lower the δ it waits for.
NAMES_LINKED_IN = {
    1: ("john", "mary", "tom"),
    2: ("jon", "marey", "thom"),
    3: ("jon", "maria", "tommy"),
    5: ("jon", "molly", "thomas"),
}


def household(region, year, number, surname, age, names=NAMES_LINKED_IN[1],
              occupation="weaver", address=None, extra=()):
    """Head, wife and son (plus ``extra`` ``(name, sex, age, role)``
    members) of one household of ``region`` in census ``year``."""
    household_id = f"{region}::h{year}_{number}"
    address = address or f"{surname} st"
    head, wife, son = names
    members = [
        (head, "m", age, roles.HEAD), (wife, "f", age - 2, roles.WIFE),
        (son, "m", age - 30, roles.SON), *extra,
    ]
    return [
        PersonRecord(f"{region}::{year}_{number}_{index}", household_id,
                     first, surname, sex, member_age,
                     occupation if role == roles.HEAD else None, address,
                     role)
        for index, (first, sex, member_age, role) in enumerate(members, 1)
    ]


def staged_pair(*households):
    """A census pair of ``(region, number, surname, age, link_round)``
    households, each linking in δ round ``link_round``, with optional
    ``old_extra=``/``new_extra=`` members (a dict as sixth item)."""
    old, new = [], []
    for region, number, surname, age, link_round, *options in households:
        options = options[0] if options else {}
        old += household(region, 1871, number, surname, age,
                         extra=options.get("old_extra", ()))
        moved = {} if link_round == 1 else {
            "occupation": "carter", "address": "mill lane",
        }
        new += household(region, 1881, number, surname, age + 10,
                         NAMES_LINKED_IN[link_round],
                         extra=options.get("new_extra", ()), **moved)
    return (
        CensusDataset.from_records(1871, old),
        CensusDataset.from_records(1881, new),
    )


#: Region "a" is visited first.  Its shard links household 1 in round
#: 1 and household 2 only in round 5; region "b" links in round 1 only,
#: so round 2 is empty everywhere and the run stops there.  The region
#: "a" shard, visited before that is known, runs all five rounds.
SPECULATION_DROPPED = staged_pair(
    ("a", 1, "ashworth", 40, 1),
    ("a", 2, "ashworth", 62, 5),
    ("b", 3, "pickup", 38, 1),
)
#: Region "a" links in round 2 only, region "b" in rounds 1 and 3: each
#: shard has an empty round of its own before it links again.
OWN_EMPTY_ROUND = staged_pair(
    ("a", 1, "ashworth", 40, 2),
    ("b", 2, "pickup", 38, 1),
    ("b", 3, "pickup", 64, 3),
)
#: Round 1 links every old record of region "a" and every new record of
#: region "b": each shard has lost a side, but the run's frontier has
#: not, so round 2 still runs — empty — and stops the loop.
SIDE_EXHAUSTED = staged_pair(
    ("a", 1, "ashworth", 40, 1,
     {"new_extra": [("ann", "f", 1, roles.DAUGHTER)]}),
    ("b", 2, "pickup", 38, 1,
     {"old_extra": [("martha", "f", 70, roles.MOTHER)]}),
)


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
        encodings = []
        build_scoring_kernel = LinkageConfig.build_scoring_kernel

        def encode(self, *args, **kwargs):
            encodings.append(len(args[1]))
            return build_scoring_kernel(self, *args, **kwargs)

        monkeypatch.setattr(LinkageConfig, "build_scoring_kernel", encode)
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
        # One build per shard: each planner shard is read once per year
        # and encoded once, for all its δ rounds and its remaining pass.
        assert sorted(
            (year, sorted(ids)) for year, ids in loads
        ) == sorted(
            (year, sorted(ids))
            for year in (old.year, new.year)
            for ids in shard_ids[year]
        )
        assert len(encodings) == len(plan.shards)
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


class TestDeferredStop:
    """Pinned inputs for the deferred stopping rule: the stop round is
    applied to the shards' ledgers after the last visit."""

    @pytest.mark.parametrize("pair", [
        SPECULATION_DROPPED, OWN_EMPTY_ROUND, SIDE_EXHAUSTED,
    ], ids=["speculation-dropped", "own-empty-round", "side-exhausted"])
    def test_in_ram_decisions(self, pair):
        outcomes = sharded_vs_unsharded(
            *pair, LinkageConfig(blocking="region"), shards=(1, 4),
            workers=(1, 2),
        )
        assert [outcome.ok for outcome in outcomes] == [True] * 4, [
            outcome.report() for outcome in outcomes if not outcome.ok
        ]

    @staticmethod
    def visited_rounds(monkeypatch):
        """``(shard, round)`` of every ``_shard_round`` call."""
        calls = []
        original = sharded_module._shard_round

        def shard_round(context, *args, **kwargs):
            bound = inspect.signature(original).bind(
                context, *args, **kwargs
            )
            calls.append((context.spec.index, bound.arguments["round_index"]))
            return original(context, *args, **kwargs)

        monkeypatch.setattr(sharded_module, "_shard_round", shard_round)
        return calls

    def test_links_past_the_stop_round_are_dropped(self, monkeypatch):
        old, new = SPECULATION_DROPPED
        config = LinkageConfig(blocking="region", shards=4)
        base = link_datasets(old, new, dataclasses.replace(config, shards=0))
        calls = self.visited_rounds(monkeypatch)
        result = link_datasets(old, new, config)
        # Shards 0 and 1 are empty; shard 2 (region "a") runs the whole
        # schedule and links household 2 in round 5; shard 3 links all
        # it has in round 1.  The run stops at round 2.
        assert calls == [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1)]
        assert len(result.iterations) == 2
        assert not any(
            old_id.startswith("a::1871_2_") for old_id, _ in result.record_mapping
        )
        assert decision_ledger_hash(result) == decision_ledger_hash(base)

    def test_speculation_validated(self):
        old, new = SPECULATION_DROPPED
        config = LinkageConfig(blocking="region", shards=4, validate=True)
        result = link_datasets(old, new, config)
        assert result.provenance is not None
        assert set(result.provenance) == set(result.record_mapping.pairs())
        assert {origin.round for origin in result.provenance.values()} <= {
            1, 2, None,
        }
        base = link_datasets(old, new, dataclasses.replace(config, shards=0))
        assert decision_ledger_hash(result) == decision_ledger_hash(base)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_speculation_killed_at_every_write(self, tmp_path, workers):
        old, new = SPECULATION_DROPPED
        config = LinkageConfig(
            blocking="region", shards=4, validate=True, n_workers=workers,
        )
        expected = decision_ledger_hash(
            link_datasets(old, new, dataclasses.replace(config, shards=0))
        )
        reference = link_datasets(
            old, new, config, checkpoint_dir=tmp_path / "reference"
        )
        writes = reference.profile.value(CHECKPOINT_WRITES)
        # Shard 2: five rounds and its boundary; shard 3: one round.
        assert writes - 1 == 5 + 1 + 1
        for kill_after in range(1, writes + 1):
            directory = tmp_path / f"k{kill_after}"
            store = CrashingStore(directory, crash_after_writes=kill_after)
            with pytest.raises(SimulatedCrash):
                link_datasets(old, new, config, checkpoint_dir=store)
            resumed = link_datasets(
                old, new, config, checkpoint_dir=directory, resume=True
            )
            assert decision_ledger_hash(resumed) == expected, kill_after


class TestCrashResume:
    """Shard-major recovery: every checkpoint prefix of a completed run
    — after any round of a shard's visit or at any shard boundary — must
    resume to the identical decision ledger."""

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
        """Killed after the round in which the only shard with work
        linked every old record: the resumed run still counts the other
        shard's unlinked records in the round's statistics, and stops at
        the exhausted frontier."""
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
        assert uninterrupted.iterations[0].remaining_new == 3
        store = CrashingStore(tmp_path, crash_after_writes=1)
        with pytest.raises(SimulatedCrash):
            link_datasets(old, new, config, checkpoint_dir=store)
        state = CheckpointStore(tmp_path).load_latest()
        assert (state.round_index, state.shards_done) == (1, 0)
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
        checkpoint format, shard-major — with a shards-done column."""
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
        assert rows["shard_0001_round_0001.json"][1:5] == [
            "ok", "round", "1", "0/2"
        ]
        assert rows["shard_0001.json"][1:5] == ["ok", "round", "0", "1/2"]
        assert rows["shard_0002_round_0001.json"][4] == "1/2"
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
