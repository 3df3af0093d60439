"""One fault matrix over the four stores: store × fault.

Every store writes through :class:`repro.ioutil.WriteSeam` and reads
through :class:`repro.ioutil.Envelope` (or, for shard files, a digest
the enveloped manifest records), so one battery attacks all of them
with the same six faults:

* ``kill_mid_write`` — the second write of an update is staged but its
  ``os.replace`` fails;
* ``torn_tip`` — the store's newest file cut in half;
* ``tamper`` — one payload byte changed;
* ``truncate`` — the newest file truncated to zero bytes;
* ``donor_swap`` — the newest file replaced by the same-role file of
  another instance of the store;
* ``schema_bump`` — a document declares the next schema version.

Each cell asserts the typed error naming the file, or the store's
documented fallback:

* checkpoint store — ``load_latest`` falls back one state and records
  the file in ``skipped`` (a donor state is refused on resume by
  :class:`~repro.checkpoint.CheckpointMismatch`).  Three victims:
  ``final.json`` of a completed run, and, for a run killed before its
  final write, the resident run's newest ``round_NNNN.json`` (which
  holds the packed cache section) and a 2-shard run's newest
  shard-major state; those two resume to the uninterrupted run's
  ``ledger_hash`` and ``decision_ledger_hash``;
* series store — the pair is treated as missing and re-linked, reaching
  the same ``analysis_ledger_hash``;
* evolution store — ``EvolutionQueryService.refresh`` keeps the last
  good graph and counts the failure in ``refresh_failures``;
* shard store — reading raises the typed error.
"""

import json
import shutil

import pytest

from repro.checkpoint import (
    CheckpointCorrupt,
    CheckpointMismatch,
    CheckpointStore,
    SeriesStore,
    analysis_ledger_hash,
    decision_ledger_hash,
    ledger_hash,
)
from repro.checkpoint.faults import CrashingSeriesStore, CrashingStore
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair
from repro.datagen.country import CountryConfig, generate_country
from repro.datagen.generator import GeneratorConfig, generate_series
from repro.evolution.analysis import analyse_series
from repro.instrumentation import SERIES_PAIRS_RELINKED
from repro.ioutil import CorruptFile, UnsupportedSchema
from repro.model.dataset import CensusDataset
from repro.service import EvolutionQueryService, EvolutionStore, StoreCorrupt
from repro.service.store import graph_version_of
from repro.sharding import HAVE_NUMPY, ShardStore
from repro.sharding.store import ShardStoreCorrupt

FAULTS = (
    "kill_mid_write",
    "torn_tip",
    "tamper",
    "truncate",
    "donor_swap",
    "schema_bump",
)


# -- the faults ---------------------------------------------------------------


def tear(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def tamper(path):
    """Change one payload byte: the first digit after the middle of a
    document's payload (JSON stays valid, only the hash can tell), or
    the last byte of a binary file."""
    data = bytearray(path.read_bytes())
    start = data.find(b'"payload":')
    start = len(data) // 2 if start < 0 else start + len(data[start:]) // 2
    for index in range(start, len(data)):
        if chr(data[index]).isdigit():
            data[index] = ord(str((int(chr(data[index])) + 1) % 10))
            break
    else:
        data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def bump_schema(path, key):
    document = json.loads(path.read_text(encoding="utf-8"))
    document[key] += 1
    path.write_text(json.dumps(document), encoding="utf-8")


def damage(fault, victim, donor, schema_key):
    """Apply a file fault (all but ``kill_mid_write``) to ``victim``."""
    if fault == "torn_tip":
        tear(victim)
    elif fault == "tamper":
        tamper(victim)
    elif fault == "truncate":
        victim.write_bytes(b"")
    elif fault == "donor_swap":
        victim.write_bytes(donor.read_bytes())
    else:
        bump_schema(victim, schema_key)


# -- checkpoint store ---------------------------------------------------------

CHECKPOINT_CONFIG = LinkageConfig(validate=True)
SHARDED_CONFIG = LinkageConfig(validate=True, blocking="region", shards=2)


@pytest.fixture(scope="module")
def checkpoint_runs(tmp_path_factory):
    """A completed checkpoint directory, its run, and a donor directory
    of a run over other input data."""
    pair = generate_pair(seed=7, initial_households=16).datasets
    directory = tmp_path_factory.mktemp("checkpoint-pristine")
    baseline = link_datasets(*pair, CHECKPOINT_CONFIG, checkpoint_dir=directory)
    donor = tmp_path_factory.mktemp("checkpoint-donor")
    link_datasets(
        *generate_pair(seed=11, initial_households=16).datasets,
        CHECKPOINT_CONFIG,
        checkpoint_dir=donor,
    )
    store = CheckpointStore(directory)
    entries = store.entries()
    assert [entry.kind for entry in entries][-2:] == ["round", "final"]
    assert store.load(entries[-2].path).cache_entries.num_entries
    return pair, directory, baseline, donor


@pytest.fixture(scope="module")
def sharded_runs(tmp_path_factory):
    """A completed 2-shard checkpoint directory, its run, and a donor
    directory of a 2-shard run over another country.  Region blocking
    gives each shard one region's work."""
    def country_pair(seed):
        return generate_country(CountryConfig(
            seed=seed, regions=2, households_per_region=8
        )).successive_pairs()[0]

    pair = country_pair(7)
    directory = tmp_path_factory.mktemp("sharded-pristine")
    baseline = link_datasets(*pair, SHARDED_CONFIG, checkpoint_dir=directory)
    donor = tmp_path_factory.mktemp("sharded-donor")
    link_datasets(*country_pair(11), SHARDED_CONFIG, checkpoint_dir=donor)
    entries = CheckpointStore(directory).entries()
    assert {entry.shards_done for entry in entries[:-1]} == {0, 1}
    return pair, directory, baseline, donor


def checkpoint_cell(fault, runs, tmp_path):
    pair, pristine, baseline, donor = runs
    directory = tmp_path / "checkpoints"
    if fault == "kill_mid_write":
        store = CrashingStore(directory, fail_replace_at=2)
        with pytest.raises(OSError, match="injected failure"):
            link_datasets(*pair, CHECKPOINT_CONFIG, checkpoint_dir=store)
        recovery = CheckpointStore(directory)
        assert recovery.load_latest().round_index == 1
        assert recovery.skipped == []
        return
    shutil.copytree(pristine, directory)
    victim = directory / "final.json"
    damage(fault, victim, donor / "final.json", "schema")
    if fault == "donor_swap":
        with pytest.raises(CheckpointMismatch, match="input data"):
            link_datasets(
                *pair, CHECKPOINT_CONFIG, checkpoint_dir=directory,
                resume=True,
            )
        return
    store = CheckpointStore(directory)
    previous = CheckpointStore(pristine).entries()[-2]
    assert store.load_latest() == store.load(directory / previous.path.name)
    assert [path for path, _ in store.skipped] == [victim]
    resumed = link_datasets(
        *pair, CHECKPOINT_CONFIG, checkpoint_dir=directory, resume=True
    )
    assert ledger_hash(resumed) == ledger_hash(baseline)


def interrupted_cell(fault, runs, config, ledger, tmp_path):
    """A run killed before its final write: its newest state is damaged,
    or the run is killed while writing it.  ``load_latest`` falls back
    to the state before it in ``CheckpointStore.entries()`` order, and
    the resumed run's ``ledger`` equals the uninterrupted run's."""
    pair, pristine, baseline, donor = runs
    directory = tmp_path / "checkpoints"
    entries = CheckpointStore(pristine).entries()
    *_, previous, newest, _ = entries
    victim = directory / newest.path.name
    if fault == "kill_mid_write":
        store = CrashingStore(directory, fail_replace_at=len(entries) - 1)
        with pytest.raises(OSError, match="injected failure"):
            link_datasets(*pair, config, checkpoint_dir=store)
        skipped = []
    else:
        shutil.copytree(pristine, directory)
        (directory / "final.json").unlink()
        donor_newest = CheckpointStore(donor).entries()[-2].path
        damage(fault, victim, donor_newest, "schema")
        skipped = [victim]
    if fault == "donor_swap":
        with pytest.raises(CheckpointMismatch, match="input data"):
            link_datasets(
                *pair, config, checkpoint_dir=directory, resume=True
            )
        return
    store = CheckpointStore(directory)
    assert store.load_latest() == store.load(directory / previous.path.name)
    assert [path for path, _ in store.skipped] == skipped
    resumed = link_datasets(
        *pair, config, checkpoint_dir=directory, resume=True
    )
    assert ledger(resumed) == ledger(baseline)


# -- series store -------------------------------------------------------------


@pytest.fixture(scope="module")
def series_runs(tmp_path_factory):
    """A warm series-state directory, its series and ledger hash, and a
    donor directory of another series over the same years."""
    def series_of(seed):
        return generate_series(GeneratorConfig(
            seed=seed, num_snapshots=3, initial_households=10
        )).datasets

    series = series_of(7)
    directory = tmp_path_factory.mktemp("series-pristine")
    control = analyse_series(
        series, config=LinkageConfig(), series_state=directory
    )
    donor = tmp_path_factory.mktemp("series-donor")
    analyse_series(series_of(12), config=LinkageConfig(), series_state=donor)
    return series, directory, analysis_ledger_hash(control), donor


def series_cell(fault, runs, tmp_path):
    series, pristine, expected, donor = runs
    directory = tmp_path / "series"
    if fault == "kill_mid_write":
        store = CrashingSeriesStore(directory, fail_replace_at=2)
        with pytest.raises(OSError, match="injected failure"):
            analyse_series(series, config=LinkageConfig(), series_state=store)
    else:
        shutil.copytree(pristine, directory)
        victim = sorted(directory.glob("pair_*.json"))[-1]
        damage(fault, victim, donor / victim.name, "series_schema")
    store = SeriesStore(directory)
    analysis = analyse_series(
        series, config=LinkageConfig(), series_state=store
    )
    assert analysis_ledger_hash(analysis) == expected
    assert analysis.profile.value(SERIES_PAIRS_RELINKED) == 1
    skipped = [path.name for path, _ in store.skipped]
    if fault in ("kill_mid_write", "donor_swap"):
        assert skipped == []
    else:
        assert skipped == [victim.name]


# -- evolution store ----------------------------------------------------------


@pytest.fixture(scope="module")
def evolution_runs(tmp_path_factory):
    """A store holding the two-snapshot view, the three-snapshot
    analysis that supersedes it, and a donor store of another series
    over the same years."""
    def analysis_of(seed, snapshots):
        datasets = generate_series(GeneratorConfig(
            seed=seed, num_snapshots=3, initial_households=12
        )).datasets
        return analyse_series(datasets[:snapshots], config=LinkageConfig())

    directory = tmp_path_factory.mktemp("evolution-pristine")
    EvolutionStore(directory).publish(analysis_of(11, 2))
    donor = tmp_path_factory.mktemp("evolution-donor")
    EvolutionStore(donor).publish(analysis_of(12, 3))
    return directory, analysis_of(11, 3), donor


def evolution_cell(fault, runs, tmp_path):
    pristine, newer, donor = runs
    directory = tmp_path / "evolution"
    shutil.copytree(pristine, directory)
    service = EvolutionQueryService(EvolutionStore(directory))
    last_good = service.graph_version
    store = EvolutionStore(directory)
    if fault == "kill_mid_write":
        store.seam.fail_replace_at = 2
        with pytest.raises(OSError, match="injected failure"):
            store.publish(newer)
        assert service.refresh() is False
        assert service.stats["refresh_failures"] == 0
        assert graph_version_of(store.load_graph()) == last_good
        return
    report = store.publish(newer)
    victim = directory / report.segments_written[-1]
    [donor_file] = donor.glob(victim.name.rsplit("_", 1)[0] + "_*.json")
    damage(fault, victim, donor_file, "service_schema")
    assert service.refresh() is False
    assert service.stats["refresh_failures"] == 1
    assert service.graph_version == last_good
    expected = UnsupportedSchema if fault == "schema_bump" else CorruptFile
    with pytest.raises(expected) as excinfo:
        store.load_graph()
    assert excinfo.value.path == victim
    if fault == "donor_swap":
        assert "does not match the manifest" in str(excinfo.value)


# -- shard store --------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_snapshots():
    """One snapshot, a revision of it, and the same year of another
    country (the donor)."""
    def first_snapshot(seed):
        return generate_country(CountryConfig(
            seed=seed, regions=3, households_per_region=6
        )).datasets[0]

    snapshot = first_snapshot(5)
    revised = CensusDataset.from_records(snapshot.year, [
        record.replace(surname=f"{record.surname}x")
        for record in snapshot.iter_records()
    ])
    return snapshot, revised, first_snapshot(6)


def rows(records):
    return [
        tuple(getattr(record, name) for name in (
            "record_id", "household_id", "first_name", "surname", "sex",
            "age", "occupation", "address", "role", "entity_id",
        ))
        for record in records
    ]


def shard_cell(fault, snapshots, tmp_path, format):
    snapshot, revised, other = snapshots
    directory = tmp_path / "shards"
    ShardStore(directory, format=format).write_dataset(snapshot)
    year = snapshot.year
    if fault == "kill_mid_write":
        store = ShardStore(directory)
        store.seam.fail_replace_at = 2
        with pytest.raises(OSError, match="injected failure"):
            store.write_dataset(revised)
        assert rows(ShardStore(directory).read_dataset(year).iter_records()) \
            == rows(snapshot.iter_records())
        return
    if fault == "schema_bump":
        bump_schema(directory / "manifest.json", "schema")
        with pytest.raises(UnsupportedSchema, match="rewrite the store") as \
                excinfo:
            ShardStore(directory)
        assert excinfo.value.path == directory / "manifest.json"
        return
    donor = tmp_path / "donor"
    ShardStore(donor, format=format).write_dataset(other)
    victim = sorted(directory.glob("census_*/shard_*/*"))[-1]
    relative = victim.relative_to(directory)
    stem = victim.name.rsplit("_", 1)[0]
    [donor_file] = (donor / relative.parent).glob(f"{stem}_*")
    damage(fault, victim, donor_file, None)
    with pytest.raises(CorruptFile) as excinfo:
        ShardStore(directory).read_dataset(year)
    assert excinfo.value.path == victim
    assert victim.name in str(excinfo.value)


# -- the matrix ---------------------------------------------------------------

SHARD_FORMATS = ("npy", "jsonl") if HAVE_NUMPY else ("jsonl",)
STORES = (
    "checkpoint", "checkpoint-round", "checkpoint-shard", "series",
    "evolution",
) + tuple(f"shard-{format}" for format in SHARD_FORMATS)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("store", STORES)
def test_fault(store, fault, request, tmp_path):
    if store == "checkpoint":
        checkpoint_cell(
            fault, request.getfixturevalue("checkpoint_runs"), tmp_path
        )
    elif store == "checkpoint-round":
        interrupted_cell(
            fault, request.getfixturevalue("checkpoint_runs"),
            CHECKPOINT_CONFIG, ledger_hash, tmp_path,
        )
    elif store == "checkpoint-shard":
        interrupted_cell(
            fault, request.getfixturevalue("sharded_runs"), SHARDED_CONFIG,
            decision_ledger_hash, tmp_path,
        )
    elif store == "series":
        series_cell(fault, request.getfixturevalue("series_runs"), tmp_path)
    elif store == "evolution":
        evolution_cell(
            fault, request.getfixturevalue("evolution_runs"), tmp_path
        )
    else:
        shard_cell(
            fault,
            request.getfixturevalue("shard_snapshots"),
            tmp_path,
            store.split("-", 1)[1],
        )


@pytest.mark.parametrize(
    "store", ("checkpoint", "series", "evolution", "shard")
)
def test_corrupt_error_names_file(store, request, tmp_path):
    """Each store's corruption error carries the file as ``path`` and
    names it in its message."""
    directory = tmp_path / store
    if store == "checkpoint":
        shutil.copytree(request.getfixturevalue("checkpoint_runs")[1],
                        directory)
        victim = directory / "final.json"
        tamper(victim)
        with pytest.raises(CheckpointCorrupt) as excinfo:
            CheckpointStore(directory).load(victim)
    elif store == "series":
        shutil.copytree(request.getfixturevalue("series_runs")[1], directory)
        victim = sorted(directory.glob("pair_*.json"))[0]
        tamper(victim)
        with pytest.raises(CheckpointCorrupt) as excinfo:
            SeriesStore(directory).load(victim)
    elif store == "evolution":
        shutil.copytree(request.getfixturevalue("evolution_runs")[0],
                        directory)
        victim = sorted(directory.glob("seg_*.json"))[0]
        tamper(victim)
        with pytest.raises(StoreCorrupt) as excinfo:
            EvolutionStore(directory).load_graph()
    else:
        snapshot = request.getfixturevalue("shard_snapshots")[0]
        ShardStore(directory).write_dataset(snapshot)
        victim = sorted(directory.glob("census_*/shard_*/*"))[0]
        tamper(victim)
        with pytest.raises(ShardStoreCorrupt) as excinfo:
            ShardStore(directory).read_dataset(snapshot.year)
    assert excinfo.value.path == victim
    assert victim.name in str(excinfo.value)
    assert excinfo.value.defect in str(excinfo.value)
