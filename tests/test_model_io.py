"""Round-trip tests for CSV dataset and mapping I/O, and the typed
errors malformed census CSVs raise."""

import csv

import pytest

from repro.cli import main
from repro.model.io import (
    RECORD_FIELDS,
    IngestError,
    read_dataset,
    read_group_mapping,
    read_record_mapping,
    write_dataset,
    write_group_mapping,
    write_record_mapping,
)
from repro.model.mappings import GroupMapping, RecordMapping


class TestDatasetRoundTrip:
    def test_roundtrip_preserves_records(self, census_1871, tmp_path):
        path = tmp_path / "census_1871.csv"
        write_dataset(census_1871, path)
        loaded = read_dataset(path)
        assert loaded.year == 1871
        assert loaded.record_ids == census_1871.record_ids
        assert loaded.household_ids == census_1871.household_ids
        original = census_1871.record("1871_1")
        restored = loaded.record("1871_1")
        assert restored == original

    def test_roundtrip_preserves_missing_values(self, census_1871, tmp_path):
        path = tmp_path / "census.csv"
        write_dataset(census_1871, path)
        loaded = read_dataset(path)
        assert loaded.record("1871_2").occupation is None

    def test_roundtrip_preserves_entity_ids(self, small_pair, tmp_path):
        dataset = small_pair.datasets[0]
        path = tmp_path / "snapshot.csv"
        write_dataset(dataset, path)
        loaded = read_dataset(path)
        some_record = next(loaded.iter_records())
        assert some_record.entity_id is not None

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("year,record_id,household_id,first_name,surname,sex,"
                        "age,occupation,address,role,entity_id\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_mixed_years_rejected(self, census_1871, tmp_path):
        path = tmp_path / "census.csv"
        write_dataset(census_1871, path)
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace("1871", "1881", 1))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_dataset(path)


class TestMappingRoundTrip:
    def test_record_mapping(self, tmp_path):
        mapping = RecordMapping([("o1", "n1"), ("o2", "n2")])
        path = tmp_path / "records.csv"
        write_record_mapping(mapping, path)
        assert read_record_mapping(path) == mapping

    def test_group_mapping(self, tmp_path):
        mapping = GroupMapping([("g1", "h1"), ("g1", "h2")])
        path = tmp_path / "groups.csv"
        write_group_mapping(mapping, path)
        assert read_group_mapping(path) == mapping

    def test_empty_mapping(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_record_mapping(RecordMapping(), path)
        assert len(read_record_mapping(path)) == 0


# -- malformed census CSVs ---------------------------------------------------


@pytest.fixture
def generated_csv(small_pair, tmp_path):
    """A generated snapshot written to CSV, and its rows (header first)."""
    path = tmp_path / "census_1871.csv"
    write_dataset(small_pair.datasets[0], path)
    with open(path, newline="", encoding="utf-8") as handle:
        return path, list(csv.reader(handle))


def corrupted(generated_csv, edit):
    """A copy of the generated CSV with ``edit(rows)`` applied.  Row ``k``
    of ``rows`` is physical line ``k + 1`` (the header is line 1)."""
    path, rows = generated_csv
    rows = [list(row) for row in rows]
    edit(rows)
    target = path.with_name("corrupted.csv")
    with open(target, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    return target


def column(name):
    """Index of a column in the written CSV."""
    return ["year", *RECORD_FIELDS].index(name)


def set_cell(line, name, value):
    def edit(rows):
        rows[line - 1][column(name)] = value
    return edit


class TestIngestErrors:
    def test_valid_file_loads_unchanged(self, small_pair, generated_csv):
        path, _ = generated_csv
        original = small_pair.datasets[0]
        loaded = read_dataset(path)
        assert loaded.year == original.year
        assert list(loaded.iter_records()) == list(original.iter_records())
        assert [r.entity_id for r in loaded.iter_records()] == [
            r.entity_id for r in original.iter_records()
        ]

    def test_bad_age(self, generated_csv):
        path = corrupted(generated_csv, set_cell(4, "age", "4x"))
        with pytest.raises(IngestError) as caught:
            read_dataset(path)
        error = caught.value
        assert (error.path, error.line, error.column) == (str(path), 4, "age")
        assert "'4x'" in error.reason
        assert str(error).startswith(f"{path}:4 (column age): ")

    def test_missing_column(self, generated_csv):
        def drop_age(rows):
            index = column("age")
            for row in rows:
                del row[index]

        path = corrupted(generated_csv, drop_age)
        with pytest.raises(IngestError) as caught:
            read_dataset(path)
        assert (caught.value.line, caught.value.column) == (1, "age")

    def test_unknown_role(self, generated_csv):
        path = corrupted(generated_csv, set_cell(3, "role", "butler"))
        with pytest.raises(IngestError) as caught:
            read_dataset(path)
        assert (caught.value.line, caught.value.column) == (3, "role")
        assert "'butler'" in caught.value.reason

    def test_blank_record_id(self, generated_csv):
        path = corrupted(generated_csv, set_cell(5, "record_id", ""))
        with pytest.raises(IngestError) as caught:
            read_dataset(path)
        assert (caught.value.line, caught.value.column) == (5, "record_id")

    def test_duplicate_record_id(self, generated_csv):
        def duplicate(rows):
            rows[6][column("record_id")] = rows[2][column("record_id")]

        path = corrupted(generated_csv, duplicate)
        with pytest.raises(IngestError) as caught:
            read_dataset(path)
        assert (caught.value.line, caught.value.column) == (7, "record_id")
        assert "first on line 3" in caught.value.reason

    def test_invalid_sex(self, generated_csv):
        path = corrupted(generated_csv, set_cell(2, "sex", "x"))
        with pytest.raises(IngestError) as caught:
            read_dataset(path)
        assert (caught.value.line, caught.value.column) == (2, "sex")

    def test_short_row(self, generated_csv):
        def truncate(rows):
            del rows[3][5:]

        path = corrupted(generated_csv, truncate)
        with pytest.raises(IngestError) as caught:
            read_dataset(path)
        assert (caught.value.line, caught.value.column) == (4, None)

    def test_cli_reports_error_without_traceback(
        self, generated_csv, capsys
    ):
        path, _ = generated_csv
        bad = corrupted(generated_csv, set_cell(4, "age", "4x"))
        assert main(["link", str(bad), str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:4 (column age)" in err
        assert "Traceback" not in err
