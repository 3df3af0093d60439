"""CSV round-trip for census datasets and mappings.

The on-disk format is one row per person with the columns used throughout
the paper, so that real census extracts (or the synthetic data emitted by
:mod:`repro.datagen`) can be stored, inspected and reloaded.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from . import roles
from .dataset import CensusDataset
from .mappings import GroupMapping, RecordMapping
from .records import PersonRecord

RECORD_FIELDS = (
    "record_id",
    "household_id",
    "first_name",
    "surname",
    "sex",
    "age",
    "occupation",
    "address",
    "role",
    "entity_id",
)

#: Columns every census CSV must have (``entity_id`` is optional).
REQUIRED_FIELDS = ("year",) + RECORD_FIELDS[:-1]

PathLike = Union[str, Path]


class IngestError(ValueError):
    """A census CSV that cannot be read as a dataset.

    ``line`` is the file's 1-based physical line (1 is the header) and
    ``column`` the offending column; either is ``None`` when the defect
    is not tied to one.
    """

    def __init__(
        self,
        path: PathLike,
        line: Optional[int],
        column: Optional[str],
        reason: str,
    ) -> None:
        self.path = str(path)
        self.line = line
        self.column = column
        self.reason = reason
        where = self.path if line is None else f"{self.path}:{line}"
        if column is not None:
            where += f" (column {column})"
        super().__init__(f"{where}: {reason}")


def _cell(value) -> str:
    return "" if value is None else str(value)


def write_dataset(dataset: CensusDataset, path: PathLike) -> None:
    """Write a dataset to CSV (one row per person record)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("year",) + RECORD_FIELDS)
        for record in dataset.iter_records():
            writer.writerow(
                (dataset.year,)
                + tuple(_cell(getattr(record, field)) for field in RECORD_FIELDS)
            )


def read_dataset(path: PathLike) -> CensusDataset:
    """Read a dataset previously written by :func:`write_dataset`.

    Raises :class:`IngestError` naming the file, line and column of the
    first defect: a missing required column, a row of the wrong width, a
    malformed or mixed year, a malformed or negative age, a blank record
    or household id, an invalid sex, an unknown role, or a duplicate
    record id.
    """
    records: List[PersonRecord] = []
    first_seen: Dict[str, int] = {}
    year = None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [name for name in REQUIRED_FIELDS if name not in header]
        if missing:
            raise IngestError(
                path, 1, missing[0],
                f"missing required column(s) {', '.join(missing)}",
            )
        for row in reader:
            line = reader.line_num

            def fail(column, reason):
                raise IngestError(path, line, column, reason)

            if None in row or None in row.values():
                fail(None, f"row width differs from the header's "
                           f"{len(header)} columns")
            row_year = _integer(row["year"]) if row["year"] else None
            if row_year is None:
                fail("year", f"invalid year {row['year']!r}")
            if year is None:
                year = row_year
            elif row_year != year:
                fail("year", f"year {row_year} differs from the file's "
                             f"{year} (dataset files hold one census year)")
            for column in ("record_id", "household_id"):
                if not row[column]:
                    fail(column, f"blank {column}")
            record_id = row["record_id"]
            if record_id in first_seen:
                fail("record_id", f"duplicate record id {record_id!r} "
                                  f"(first on line {first_seen[record_id]})")
            first_seen[record_id] = line
            age = None
            if row["age"]:
                age = _integer(row["age"])
                if age is None or age < 0:
                    fail("age", f"invalid age {row['age']!r}")
            if row["sex"] not in ("", "m", "f"):
                fail("sex", f"invalid sex {row['sex']!r} (m, f or blank)")
            if row["role"] not in roles.ALL_ROLES:
                fail("role", f"unknown role {row['role']!r}")
            records.append(
                PersonRecord(
                    record_id=record_id,
                    household_id=row["household_id"],
                    first_name=row["first_name"] or None,
                    surname=row["surname"] or None,
                    sex=row["sex"] or None,
                    age=age,
                    occupation=row["occupation"] or None,
                    address=row["address"] or None,
                    role=row["role"],
                    entity_id=row.get("entity_id") or None,
                )
            )
    if year is None:
        raise IngestError(path, None, None, "no records found")
    return CensusDataset.from_records(year, records)


def _integer(text: str) -> Optional[int]:
    try:
        return int(text)
    except ValueError:
        return None


def write_record_mapping(mapping: RecordMapping, path: PathLike) -> None:
    _write_pairs(mapping.pairs(), path, ("old_record_id", "new_record_id"))


def read_record_mapping(path: PathLike) -> RecordMapping:
    return RecordMapping(_read_pairs(path))


def write_group_mapping(mapping: GroupMapping, path: PathLike) -> None:
    _write_pairs(mapping.pairs(), path, ("old_household_id", "new_household_id"))


def read_group_mapping(path: PathLike) -> GroupMapping:
    return GroupMapping(_read_pairs(path))


def _write_pairs(
    pairs: List[Tuple[str, str]], path: PathLike, header: Tuple[str, str]
) -> None:
    # Canonical order on disk regardless of the caller's iteration order:
    # mapping CSVs must be byte-stable across runs, hash seeds and
    # Python versions (the golden fixtures depend on this).
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(sorted(pairs))


def _read_pairs(path: PathLike) -> List[Tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # header
        return [(row[0], row[1]) for row in reader if row]
