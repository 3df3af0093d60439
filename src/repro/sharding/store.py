"""On-disk columnar census store with per-shard content fingerprints.

A :class:`ShardStore` persists census snapshots as one directory per
year, one subdirectory per store shard (by default one shard per region
of :mod:`repro.datagen.country`; non-namespaced data lands in a single
shard).  Two interchangeable formats:

* ``npy`` — one numpy ``.npy`` file per record column, loaded back with
  ``mmap_mode="r"`` so reading a shard touches only the pages actually
  gathered.  Missing values use in-band sentinels (``"\\x00N"`` for
  strings — rejected in real data at write time — and ``-1`` for ages,
  which are validated non-negative).
* ``jsonl`` — one JSON row per record; the dependency-free fallback,
  picked automatically when numpy is unavailable.

The manifest carries a **format-independent** content fingerprint per
shard (:func:`shard_fingerprint`): the hash covers canonical JSON rows
of the records, not the storage bytes, so an ``npy`` store and a
``jsonl`` store of the same snapshot fingerprint identically, and the
sharded pipeline can bind checkpoints to input content without reading
every column back.  Roundtrips are byte-identical field for field —
including ``entity_id``, which :class:`~repro.model.records.PersonRecord`
equality ignores (``tests/test_sharding_store.py`` pins this).

Persistence goes through :mod:`repro.ioutil` (manifest schema 2): shard
files are content-addressed (``<column>_<digest12>.npy`` or
``rows_<digest12>.jsonl``) and published manifest last, the manifest is
the shared envelope recording each file's SHA-256, :meth:`read_shard`
verifies the bytes of every file it opens, and the files a re-write
superseded are swept after the manifest flips.  A tampered or torn file
raises :class:`ShardStoreCorrupt` naming it; a killed re-write leaves
the previous snapshot readable.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..ioutil import (
    CorruptFile, Envelope, UnsupportedSchema, WriteSeam, check_file, publish,
    sweep,
)
from ..model.dataset import CensusDataset
from ..model.records import PersonRecord

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when the memory-mapped ``npy`` format is available.
HAVE_NUMPY = _np is not None

#: Store manifest schema version (bump on incompatible layout changes).
#: Schema 2 puts the manifest in the shared envelope, names shard files
#: by content and records each file's digest.
STORE_SCHEMA_VERSION = 2

#: Record columns in serialization order (the PersonRecord field order).
COLUMNS = (
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

#: String columns use this in-band sentinel for ``None``; real data may
#: not contain it (enforced at write time).  The NUL is deliberately
#: *leading*, not trailing: numpy ``<U`` arrays strip trailing NULs on
#: read-back (they double as padding), so a bare ``"\\x00"`` would
#: round-trip as ``""``.
NONE_STRING = "\x00N"
#: Age sentinel for ``None`` (real ages are validated non-negative).
NONE_AGE = -1

MANIFEST_NAME = "manifest.json"
#: Shard files, relative to their year's directory.
_SHARD_FILE_RE = re.compile(r"shard_\d{4,}/\w+_[0-9a-f]{12}\.(?:npy|jsonl)")


class ShardStoreError(RuntimeError):
    """Malformed store layout, unreadable manifest or format mismatch."""


class ShardStoreCorrupt(ShardStoreError, CorruptFile):
    """A manifest or shard file failed its integrity verification."""


class ShardStoreSchemaError(ShardStoreCorrupt, UnsupportedSchema):
    """The manifest declares an unsupported schema."""


#: The on-disk format of the store manifest.
MANIFEST_ENVELOPE = Envelope(
    "schema", STORE_SCHEMA_VERSION, "store",
    ShardStoreCorrupt, ShardStoreSchemaError,
    hint="; rewrite the store: write its snapshots into an empty directory",
)


def _record_row(record: PersonRecord) -> List[object]:
    return [getattr(record, column) for column in COLUMNS]


def _record_from_row(row: Sequence[object]) -> PersonRecord:
    return PersonRecord(**dict(zip(COLUMNS, row)))


def shard_fingerprint(records: Iterable[PersonRecord]) -> str:
    """Format-independent content hash of a shard's records.

    Canonical JSON rows in sorted-record-id order — the same digest for
    an ``npy`` and a ``jsonl`` store of the same records, and stable
    against construction order.
    """
    digest = hashlib.sha256()
    rows = sorted(
        (_record_row(record) for record in records),
        key=lambda row: row[0],
    )
    for row in rows:
        digest.update(json.dumps(row, ensure_ascii=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def _region_of_id(record_id: str) -> str:
    # Mirrors repro.datagen.country.region_of without importing datagen:
    # the store must stay importable in minimal deployments.
    if "::" not in record_id:
        return ""
    return record_id.split("::", 1)[0]


class ShardStore:
    """Columnar on-disk census snapshots (see module docstring).

    ``format`` is ``"npy"``, ``"jsonl"`` or ``None`` (auto: ``npy`` when
    numpy is importable).  A store directory has one format for all
    snapshots, recorded in the manifest; opening an existing store with
    a conflicting explicit format raises :class:`ShardStoreError`.
    Every write passes through ``seam`` (:class:`repro.ioutil.WriteSeam`).
    """

    def __init__(
        self, path, format: Optional[str] = None  # noqa: A002 - CLI term
    ) -> None:
        self.path = Path(path)
        self.seam = WriteSeam()
        if format not in (None, "npy", "jsonl"):
            raise ShardStoreError(
                f"unknown store format {format!r} (use 'npy' or 'jsonl')"
            )
        manifest = self._load_manifest()
        if manifest is not None:
            existing = manifest["format"]
            if format is not None and format != existing:
                raise ShardStoreError(
                    f"store at {self.path} is {existing!r}, "
                    f"requested {format!r}"
                )
            self.format = existing
        else:
            self.format = format or ("npy" if HAVE_NUMPY else "jsonl")
        if self.format == "npy" and not HAVE_NUMPY:
            raise ShardStoreError(
                f"store at {self.path} uses the npy format but numpy is "
                f"not importable; rewrite it with format='jsonl'"
            )

    # -- manifest --------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    def _load_manifest(self) -> Optional[Dict[str, object]]:
        if not self.manifest_path.exists():
            return None
        return MANIFEST_ENVELOPE.read(self.manifest_path, what="manifest")[0]

    # -- writing ---------------------------------------------------------------

    def write_dataset(self, dataset: CensusDataset) -> Dict[str, object]:
        """Persist one snapshot, one store shard per region.

        Returns the snapshot's manifest entry.  Re-writing a year
        replaces its entry; the files only the old entry referenced are
        swept once the manifest has flipped.
        """
        by_region: Dict[str, List[PersonRecord]] = defaultdict(list)
        for record in dataset.iter_records():
            by_region[_region_of_id(record.record_id)].append(record)

        year_dir = self.path / f"census_{dataset.year}"
        shards = []

        def shard_files():
            for index, region in enumerate(sorted(by_region)):
                records = by_region[region]
                shard_name = f"shard_{index:04d}"
                files = {}
                for stem, data, fsync in self._encode_shard(records):
                    digest = hashlib.sha256(data).hexdigest()
                    name = f"{stem}_{digest[:12]}.{self.format}"
                    files[stem] = {"file": name, "hash": digest}
                    yield year_dir / shard_name / name, data, fsync
                shards.append({
                    "name": shard_name,
                    "region": region,
                    "num_records": len(records),
                    "fingerprint": shard_fingerprint(records),
                    "files": files,
                })

        manifest = self._load_manifest() or {
            "format": self.format,
            "snapshots": {},
        }
        entry = {"num_records": len(dataset), "shards": shards}
        manifest["snapshots"][str(dataset.year)] = entry
        publish(
            self.seam, shard_files(), self.manifest_path,
            lambda: MANIFEST_ENVELOPE.dumps(manifest),
        )
        keep = {
            f"{shard['name']}/{file['file']}"
            for shard in shards
            for file in shard["files"].values()
        }
        sweep(year_dir, _SHARD_FILE_RE, keep)
        return entry

    def write_datasets(self, datasets: Iterable[CensusDataset]) -> None:
        for dataset in datasets:
            self.write_dataset(dataset)

    def _encode_shard(
        self, records: Sequence[PersonRecord]
    ) -> Iterator[Tuple[str, bytes, bool]]:
        """``(file stem, bytes, fsync)`` of each file of one shard: the
        jsonl rows are fsynced, the npy columns are not."""
        if self.format == "jsonl":
            lines = [
                json.dumps(_record_row(record), ensure_ascii=True)
                for record in records
            ]
            yield "rows", ("\n".join(lines) + "\n").encode("utf-8"), True
            return
        for column in COLUMNS:
            values = [getattr(record, column) for record in records]
            if column == "age":
                array = _np.array(
                    [NONE_AGE if value is None else value for value in values],
                    dtype=_np.int64,
                )
            else:
                if NONE_STRING in values:
                    raise ShardStoreError(
                        f"column {column} contains the reserved None "
                        f"sentinel {NONE_STRING!r}"
                    )
                array = _np.array(
                    [
                        NONE_STRING if value is None else value
                        for value in values
                    ],
                    dtype=str,
                )
            buffer = io.BytesIO()
            _np.save(buffer, array)
            yield column, buffer.getvalue(), False

    # -- reading ---------------------------------------------------------------

    def _snapshot_entry(self, year: int) -> Dict[str, object]:
        manifest = self._load_manifest()
        if manifest is None:
            raise ShardStoreError(f"no manifest in store {self.path}")
        entry = manifest["snapshots"].get(str(year))
        if entry is None:
            raise ShardStoreError(
                f"store {self.path} has no snapshot for year {year} "
                f"(has: {', '.join(sorted(manifest['snapshots'])) or 'none'})"
            )
        return entry

    def years(self) -> List[int]:
        manifest = self._load_manifest()
        if manifest is None:
            return []
        return sorted(int(year) for year in manifest["snapshots"])

    def shard_names(self, year: int) -> List[str]:
        return [
            shard["name"] for shard in self._snapshot_entry(year)["shards"]
        ]

    def shard_entries(self, year: int) -> List[Dict[str, object]]:
        """The manifest rows (name, region, count, fingerprint, files) of
        a year."""
        return [dict(shard) for shard in self._snapshot_entry(year)["shards"]]

    def snapshot_fingerprint(self, year: int) -> str:
        """One hash over the year's per-shard fingerprints, for cheap
        whole-snapshot identity checks (checkpoint binding)."""
        parts = [
            f"{shard['name']}:{shard['fingerprint']}"
            for shard in self._snapshot_entry(year)["shards"]
        ]
        digest = hashlib.sha256("|".join(parts).encode("utf-8"))
        return digest.hexdigest()[:16]

    def read_shard(self, year: int, shard_name: str) -> List[PersonRecord]:
        """Materialize one shard's records after verifying the bytes of
        every file read (columns memory-mapped in the npy format, so
        only this shard's pages are touched)."""
        for shard in self._snapshot_entry(year)["shards"]:
            if shard["name"] == shard_name:
                break
        else:
            raise ShardStoreError(
                f"year {year} has no shard {shard_name!r} in {self.path}"
            )
        shard_dir = self.path / f"census_{year}" / shard_name
        paths = {}
        for stem, file in shard["files"].items():
            paths[stem] = shard_dir / file["file"]
            check_file(
                paths[stem], file["hash"], ShardStoreCorrupt, "shard file"
            )
        if self.format == "jsonl":
            rows = [
                json.loads(line)
                for line in paths["rows"].read_text(encoding="utf-8")
                .splitlines()
                if line
            ]
            return [_record_from_row(row) for row in rows]
        # One decode per column (plain ints and strs), then the
        # sentinels become None.
        columns = []
        for column in COLUMNS:
            sentinel = NONE_AGE if column == "age" else NONE_STRING
            columns.append([
                None if value == sentinel else value
                for value in _np.load(paths[column], mmap_mode="r").tolist()
            ])
        return [PersonRecord(*values) for values in zip(*columns)]

    def iter_records(self, year: int) -> Iterator[PersonRecord]:
        """Stream a year's records shard by shard (planner input): at
        most one shard is materialized at a time."""
        for shard_name in self.shard_names(year):
            yield from self.read_shard(year, shard_name)

    def read_dataset(self, year: int) -> CensusDataset:
        """Materialize a full snapshot (small data / validation paths)."""
        return CensusDataset.from_records(year, list(self.iter_records(year)))
