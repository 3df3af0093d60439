"""Tests for the on-disk columnar shard store
(:mod:`repro.sharding.store`).

The two contracts that matter downstream:

* **roundtrip byte-identity** — every field of every record, including
  ``None`` values and ``entity_id`` (which ``PersonRecord`` equality
  ignores), survives write → read in both formats;
* **format-independent fingerprints** — an ``npy`` store and a
  ``jsonl`` store of the same snapshot carry identical shard and
  snapshot fingerprints, so checkpoint binding never depends on the
  storage encoding.
"""

import json

import pytest

import repro.sharding.store as store_mod
from repro.datagen import generate_pair
from repro.datagen.country import CountryConfig, generate_country
from repro.model.records import PersonRecord
from repro.sharding import (
    HAVE_NUMPY,
    ShardStore,
    ShardStoreError,
    shard_fingerprint,
)

FIELDS = (
    "record_id", "household_id", "first_name", "surname", "sex",
    "age", "occupation", "address", "role", "entity_id",
)


def rows(records):
    return [
        tuple(getattr(record, field) for field in FIELDS)
        for record in records
    ]


@pytest.fixture(scope="module")
def country():
    return generate_country(
        CountryConfig(seed=5, regions=3, households_per_region=15)
    )


@pytest.fixture(scope="module")
def snapshot(country):
    return country.datasets[0]


FORMATS = ("npy", "jsonl") if HAVE_NUMPY else ("jsonl",)


class TestRoundtrip:
    @pytest.mark.parametrize("format", FORMATS)
    def test_field_identical(self, tmp_path, snapshot, format):
        store = ShardStore(tmp_path / format, format=format)
        store.write_dataset(snapshot)
        back = ShardStore(tmp_path / format)
        assert rows(back.iter_records(snapshot.year)) == rows(
            snapshot.iter_records()
        )

    @pytest.mark.parametrize("format", FORMATS)
    def test_none_values_survive(self, tmp_path, format):
        records = [
            PersonRecord("r1", "h1", "a", "b", None, None, None, None,
                         "head", None),
            PersonRecord("r2", "h1", "c", "d", "f", 30, "weaver",
                         "york st", "wife", "e7"),
        ]
        from repro.model.dataset import CensusDataset

        dataset = CensusDataset.from_records(1871, records)
        store = ShardStore(tmp_path / format, format=format)
        store.write_dataset(dataset)
        read = list(ShardStore(tmp_path / format).iter_records(1871))
        assert rows(read) == rows(dataset.iter_records())
        # Plain Python values, never numpy scalars: records read back
        # hash, compare and serialize like the ones written.
        for record in read:
            for field in FIELDS:
                value = getattr(record, field)
                assert value is None or type(value) is (
                    int if field == "age" else str
                ), (field, type(value))

    def test_read_dataset_equals_source(self, tmp_path, snapshot):
        store = ShardStore(tmp_path / "s")
        store.write_dataset(snapshot)
        rebuilt = store.read_dataset(snapshot.year)
        assert rows(rebuilt.iter_records()) == rows(snapshot.iter_records())

    def test_one_shard_per_region(self, tmp_path, country, snapshot):
        store = ShardStore(tmp_path / "s")
        store.write_dataset(snapshot)
        entries = store.shard_entries(snapshot.year)
        assert [entry["region"] for entry in entries] == sorted(
            country.regions
        )
        assert sum(entry["num_records"] for entry in entries) == len(
            snapshot
        )

    def test_non_namespaced_data_single_shard(self, tmp_path):
        series = generate_pair(seed=4, initial_households=10)
        dataset = series.datasets[0]
        store = ShardStore(tmp_path / "s")
        store.write_dataset(dataset)
        entries = store.shard_entries(dataset.year)
        assert len(entries) == 1 and entries[0]["region"] == ""


class TestFingerprints:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs both formats")
    def test_format_independent(self, tmp_path, snapshot):
        npy = ShardStore(tmp_path / "npy", format="npy")
        jsonl = ShardStore(tmp_path / "jsonl", format="jsonl")
        npy.write_dataset(snapshot)
        jsonl.write_dataset(snapshot)
        year = snapshot.year
        assert npy.snapshot_fingerprint(year) == jsonl.snapshot_fingerprint(
            year
        )
        assert [e["fingerprint"] for e in npy.shard_entries(year)] == [
            e["fingerprint"] for e in jsonl.shard_entries(year)
        ]

    def test_construction_order_invariant(self, snapshot):
        records = list(snapshot.iter_records())
        assert shard_fingerprint(records) == shard_fingerprint(
            list(reversed(records))
        )

    def test_content_sensitive(self, snapshot):
        records = list(snapshot.iter_records())
        import dataclasses

        tweaked = [dataclasses.replace(records[0], age=None)] + records[1:]
        assert shard_fingerprint(records) != shard_fingerprint(tweaked)


class TestNoNumpyFallback:
    def test_auto_format_is_jsonl(self, tmp_path, snapshot, monkeypatch):
        monkeypatch.setattr(store_mod, "HAVE_NUMPY", False)
        store = store_mod.ShardStore(tmp_path / "s")
        assert store.format == "jsonl"
        store.write_dataset(snapshot)
        assert rows(
            store_mod.ShardStore(tmp_path / "s").iter_records(snapshot.year)
        ) == rows(snapshot.iter_records())

    def test_npy_store_rejected_without_numpy(
        self, tmp_path, snapshot, monkeypatch
    ):
        if not HAVE_NUMPY:
            pytest.skip("needs numpy to write the npy store first")
        ShardStore(tmp_path / "s", format="npy").write_dataset(snapshot)
        monkeypatch.setattr(store_mod, "HAVE_NUMPY", False)
        with pytest.raises(ShardStoreError, match="numpy"):
            store_mod.ShardStore(tmp_path / "s")


class TestErrors:
    def test_unknown_format(self, tmp_path):
        with pytest.raises(ShardStoreError, match="format"):
            ShardStore(tmp_path, format="parquet")

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs a second format")
    def test_format_conflict(self, tmp_path, snapshot):
        ShardStore(tmp_path / "s", format="jsonl").write_dataset(snapshot)
        with pytest.raises(ShardStoreError, match="jsonl"):
            ShardStore(tmp_path / "s", format="npy")

    def test_missing_year(self, tmp_path, snapshot):
        store = ShardStore(tmp_path / "s")
        store.write_dataset(snapshot)
        with pytest.raises(ShardStoreError, match="no snapshot"):
            store.read_shard(1899, "shard_0000")

    def test_missing_shard(self, tmp_path, snapshot):
        store = ShardStore(tmp_path / "s")
        store.write_dataset(snapshot)
        with pytest.raises(ShardStoreError, match="no shard"):
            store.read_shard(snapshot.year, "shard_9999")

    def test_corrupt_manifest(self, tmp_path, snapshot):
        store = ShardStore(tmp_path / "s")
        store.write_dataset(snapshot)
        store.manifest_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ShardStoreError, match="not valid JSON"):
            ShardStore(tmp_path / "s")

    def test_schema_1_store_rejected(self, tmp_path):
        """A store written before manifest schema 2 is never half-read:
        opening it names the manifest and says to rewrite the store."""
        (tmp_path / "s").mkdir()
        manifest = tmp_path / "s" / "manifest.json"
        manifest.write_text(json.dumps(
            {"format": "jsonl", "schema": 1, "snapshots": {}}
        ))
        with pytest.raises(ShardStoreError, match="rewrite the store") as \
                excinfo:
            ShardStore(tmp_path / "s")
        assert "unsupported store schema 1" in str(excinfo.value)
        assert excinfo.value.path == manifest

    @pytest.mark.skipif(not HAVE_NUMPY, reason="sentinel is npy-only")
    def test_reserved_sentinel_rejected(self, tmp_path):
        from repro.model.dataset import CensusDataset

        bad = PersonRecord(
            "r1", "h1", store_mod.NONE_STRING, "b", "m", 30, None, None,
            "head",
        )
        dataset = CensusDataset.from_records(1871, [bad])
        store = ShardStore(tmp_path / "s", format="npy")
        with pytest.raises(ShardStoreError, match="sentinel"):
            store.write_dataset(dataset)

    def test_no_manifest(self, tmp_path):
        store = ShardStore(tmp_path / "empty")
        assert store.years() == []
        with pytest.raises(ShardStoreError, match="manifest"):
            store.read_shard(1871, "shard_0000")


class TestIntegrity:
    """Shard files are verified on read and published manifest last: a
    changed byte is a typed error naming the file, never a wrong
    record, and a killed re-write never mixes old and new columns."""

    @staticmethod
    def shard_file(store_dir, pattern):
        [path] = store_dir.glob(f"census_*/shard_0000/{pattern}")
        return path

    def test_changed_jsonl_row_detected(self, tmp_path, snapshot):
        store = ShardStore(tmp_path / "s", format="jsonl")
        store.write_dataset(snapshot)
        victim = self.shard_file(tmp_path / "s", "rows*.jsonl")
        first, rest = victim.read_text(encoding="utf-8").split("\n", 1)
        row = json.loads(first)
        row[3] = row[3] + "x"  # the surname column
        victim.write_text(json.dumps(row) + "\n" + rest, encoding="utf-8")
        with pytest.raises(ShardStoreError) as excinfo:
            store.read_shard(snapshot.year, "shard_0000")
        assert excinfo.value.path == victim
        assert victim.name in str(excinfo.value)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="npy needs numpy")
    def test_changed_npy_byte_detected(self, tmp_path, snapshot):
        store = ShardStore(tmp_path / "s", format="npy")
        store.write_dataset(snapshot)
        victim = self.shard_file(tmp_path / "s", "surname*.npy")
        data = bytearray(victim.read_bytes())
        data[-4] = ord("Q") if data[-4] != ord("Q") else ord("R")
        victim.write_bytes(bytes(data))
        with pytest.raises(ShardStoreError) as excinfo:
            store.read_shard(snapshot.year, "shard_0000")
        assert excinfo.value.path == victim
        assert victim.name in str(excinfo.value)

    @pytest.mark.parametrize("format", FORMATS)
    def test_killed_rewrite_keeps_old_records(self, tmp_path, format):
        """Re-writing a year with a new surname and age everywhere,
        killed at the 5th file write: the store still reads the old
        records, field for field."""
        from repro.model.dataset import CensusDataset

        old = generate_country(
            CountryConfig(seed=5, regions=6, households_per_region=3)
        ).datasets[0]
        new = CensusDataset.from_records(old.year, [
            record.replace(
                surname=f"{record.surname}x",
                age=None if record.age is None else record.age + 1,
            )
            for record in old.iter_records()
        ])
        store = ShardStore(tmp_path / "s", format=format)
        store.write_dataset(old)
        store.seam.fail_replace_at = store.seam.writes + 5
        with pytest.raises(OSError, match="injected failure"):
            store.write_dataset(new)
        assert rows(ShardStore(tmp_path / "s").iter_records(old.year)) == (
            rows(old.iter_records())
        )

    @pytest.mark.parametrize("format", FORMATS)
    def test_finished_rewrite_leaves_only_referenced_files(
        self, tmp_path, snapshot, format
    ):
        from repro.model.dataset import CensusDataset

        store = ShardStore(tmp_path / "s", format=format)
        store.write_dataset(snapshot)
        revised = CensusDataset.from_records(snapshot.year, [
            record.replace(surname=f"{record.surname}x")
            for record in snapshot.iter_records()
        ])
        store.write_dataset(revised)
        referenced = {
            f"census_{snapshot.year}/{entry['name']}/{file['file']}"
            for entry in store.shard_entries(snapshot.year)
            for file in entry["files"].values()
        }
        on_disk = {
            path.relative_to(tmp_path / "s").as_posix()
            for path in (tmp_path / "s").glob("census_*/*/*")
        }
        assert on_disk == referenced
        assert rows(store.iter_records(snapshot.year)) == rows(
            revised.iter_records()
        )
