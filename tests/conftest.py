"""Shared fixtures: the paper's running example, small generated data,
the numpy fork switch, cache sections and their defects."""

import base64
import struct
import zlib
from contextlib import contextmanager

import pytest

import repro.core.pairtable as pairtable_module
import repro.model.roles as R
from repro.checkpoint.section import (
    SECTION_ENTRY_BYTES,
    pack_section,
    unpack_lazy_rows,
    unpack_section,
)
from repro.core.config import LinkageConfig
from repro.core.filtering import KIND_CODES, KINDS
from repro.core.simcache import SimilarityCache, _as_list
from repro.datagen import GeneratorConfig, generate_series
from repro.model import CensusDataset, PersonRecord


def build_1871_dataset() -> CensusDataset:
    """The 1871 snapshot of the paper's running example (Fig. 1).

    Household a: John Ashworth's family plus his father-in-law John Riley.
    Household b: John Smith's family.
    """
    records = [
        PersonRecord("1871_1", "a71", "john", "ashworth", "m", 39, "weaver",
                     "bacup rd", R.HEAD),
        PersonRecord("1871_2", "a71", "elizabeth", "ashworth", "f", 37, None,
                     "bacup rd", R.WIFE),
        PersonRecord("1871_3", "a71", "alice", "ashworth", "f", 8, None,
                     "bacup rd", R.DAUGHTER),
        PersonRecord("1871_4", "a71", "william", "ashworth", "m", 2, None,
                     "bacup rd", R.SON),
        PersonRecord("1871_5", "a71", "john", "riley", "m", 65, None,
                     "bacup rd", R.FATHER_IN_LAW),
        PersonRecord("1871_6", "b71", "john", "smith", "m", 44, "miner",
                     "york st", R.HEAD),
        PersonRecord("1871_7", "b71", "elizabeth", "smith", "f", 41, None,
                     "york st", R.WIFE),
        PersonRecord("1871_8", "b71", "steve", "smith", "m", 12, None,
                     "york st", R.SON),
    ]
    return CensusDataset.from_records(1871, records)


def build_1881_dataset() -> CensusDataset:
    """The 1881 snapshot: John Riley died, Alice married Steve (household
    c), Mary was born, and a look-alike Ashworth family (household d)
    moved into the district."""
    records = [
        PersonRecord("1881_1", "a81", "john", "ashworth", "m", 49, "weaver",
                     "bacup rd", R.HEAD),
        PersonRecord("1881_2", "a81", "elizabeth", "ashworth", "f", 47, None,
                     "bacup rd", R.WIFE),
        PersonRecord("1881_3", "a81", "william", "ashworth", "m", 12, None,
                     "bacup rd", R.SON),
        PersonRecord("1881_4", "b81", "john", "smith", "m", 54, "miner",
                     "york st", R.HEAD),
        PersonRecord("1881_5", "b81", "elizabeth", "smith", "f", 51, None,
                     "york st", R.WIFE),
        PersonRecord("1881_6", "c81", "steve", "smith", "m", 22, "weaver",
                     "mill ln", R.HEAD),
        PersonRecord("1881_7", "c81", "alice", "smith", "f", 18, None,
                     "mill ln", R.WIFE),
        PersonRecord("1881_8", "c81", "mary", "smith", "f", 1, None,
                     "mill ln", R.DAUGHTER),
        PersonRecord("1881_9", "d81", "john", "ashworth", "m", 41, "farmer",
                     "moor end", R.HEAD),
        PersonRecord("1881_10", "d81", "elizabeth", "ashworth", "f", 40, None,
                     "moor end", R.WIFE),
        PersonRecord("1881_11", "d81", "william", "ashworth", "m", 15, None,
                     "moor end", R.SON),
    ]
    return CensusDataset.from_records(1881, records)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="re-record the golden-run fixtures in tests/goldens/ "
        "instead of diffing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """True when the run should refresh fixtures instead of checking."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def census_1871() -> CensusDataset:
    return build_1871_dataset()


@pytest.fixture
def census_1881() -> CensusDataset:
    return build_1881_dataset()


@pytest.fixture
def example_config() -> LinkageConfig:
    """Configuration suited to the tiny running example: exact candidate
    generation and a relaxed remaining threshold (so that Alice's
    surname change is recoverable)."""
    return LinkageConfig(
        blocking="cross",
        remaining_threshold=0.6,
        stop_on_empty_round=False,
    )


@pytest.fixture(scope="session")
def small_series():
    """A session-cached 3-snapshot synthetic series (fast, deterministic)."""
    return generate_series(
        GeneratorConfig(seed=99, num_snapshots=3, initial_households=60)
    )


@pytest.fixture(scope="session")
def small_pair():
    """A session-cached 2-snapshot pair for linkage tests."""
    return generate_series(
        GeneratorConfig(
            seed=7, start_year=1871, num_snapshots=2, initial_households=80
        )
    )


@contextmanager
def numpy_hidden():
    """Run the block on the plain-loop fork: numpy hidden from
    :func:`repro.core.pairtable.numpy_or_none`, which every vectorized
    step asks before it runs."""
    saved = pairtable_module._numpy
    pairtable_module._numpy = None
    try:
        yield
    finally:
        pairtable_module._numpy = saved


def cache_section(entries):
    """The ``old_ids``, ``new_ids`` and packed ``cache`` section of
    ``(old_id, new_id, value, kind)`` entries (``kind`` a name of
    :data:`repro.core.filtering.KINDS`) over the sorted ids they name."""
    old_ids = sorted({entry[0] for entry in entries})
    new_ids = sorted({entry[1] for entry in entries})
    rows = sorted(
        (old_ids.index(old_id), new_ids.index(new_id), value, KIND_CODES[kind])
        for old_id, new_id, value, kind in entries
    )
    return {
        "old_ids": old_ids,
        "new_ids": new_ids,
        "cache": pack_section([list(column) for column in zip(*rows)]),
    }


def cache_seed(entries):
    """A cache seed of ``entries`` (see :func:`cache_section`), packed
    and read back through the section codec, so its columns are those
    of the fork in force."""
    section = cache_section(entries)
    return unpack_section(
        section["old_ids"], section["new_ids"], section["cache"]
    )


def restored_cache(document, table):
    """A similarity cache rebuilt over ``table`` from an
    ``export_state`` document, its section and lazy rows decoded as a
    run state's loader decodes them."""
    entries = unpack_section(
        document["old_ids"], document["new_ids"], document["cache"]
    )
    return SimilarityCache.from_export(
        document, entries, unpack_lazy_rows(document["lazy"]), table
    )


def entry_rows(cache):
    """A similarity cache's pinned scores as ``[old_id, new_id, score]``
    rows and its bounds as ``[old_id, new_id, bound, kind]`` rows, in
    pair-id order, read through ``SimilarityCache.entries``."""
    table = cache.table
    pinned, bounds = [], []
    for old_row, new_row, value, kind in zip(
        *(column.tolist() for column in cache.entries())
    ):
        row = [table.old_ids[old_row], table.new_ids[new_row], value]
        if kind:
            bounds.append(row + [KINDS[kind]])
        else:
            pinned.append(row)
    return pinned, bounds


def add_scores(cache, pairs, scores):
    """Store exact scores of id pairs of the cache's table rows."""
    cache.add_rows(*cache.table.rows_of(pairs), scores)


def lookup_scores(cache, pairs):
    """The cached score of each id pair (``None`` on a miss), read with
    one ``get_rows`` call: it tallies hits and misses and refreshes the
    lazy LRU."""
    values, missing = cache.get_rows(*cache.table.rows_of(pairs))
    missed = set(_as_list(missing))
    return [
        None if position in missed else score
        for position, score in enumerate(_as_list(values))
    ]


def cached_scores(cache):
    """Every exact score a similarity cache holds, pinned and lazy, as
    ``{(old_id, new_id): score}``: the pinned ones in pair-id order, then
    the lazy LRU's, least recently used first, read through
    ``SimilarityCache.entries`` and ``export_state``."""
    scores = {
        (old_id, new_id): score
        for old_id, new_id, score in entry_rows(cache)[0]
    }
    for old_id, new_id, score in unpack_lazy_rows(
        cache.export_state()["lazy"]
    ):
        scores[old_id, new_id] = score
    return scores


# -- defects of a cache section -----------------------------------------------
#
# Each takes the stored document (its ``old_ids``), the decompressed
# section and its entry count, and returns damaged section bytes.
# Layout: old_row uint32, new_row uint32, value float64, kind int8
# columns, entries in order.


def torn_entry(document, data, count):
    return data[:-1]


def row_outside_its_ids(document, data, count):
    """The last entry's old row points one past the old id list (the
    entries stay strictly increasing)."""
    offset = 4 * (count - 1)
    return (data[:offset] + struct.pack("<I", len(document["old_ids"]))
            + data[offset + 4:])


def repeated_entry(document, data, count):
    """The second entry repeats the first pair."""
    data = bytearray(data)
    for column in (0, 4 * count):
        data[column + 4:column + 8] = data[column:column + 4]
    return bytes(data)


def unknown_kind(document, data, count):
    data = bytearray(data)
    data[16 * count] = len(KINDS)
    return bytes(data)


def not_compressed(document, data, count):
    return None


#: Every structural defect of a section, with the loader's message.
SECTION_DEFECTS = [
    (torn_entry, "not a whole number"),
    (row_outside_its_ids, "outside its id list"),
    (repeated_entry, "not strictly increasing"),
    (unknown_kind, "not an index of KINDS"),
    (not_compressed, "does not decompress"),
]


def damaged_section(document, defect):
    """The ``cache`` section of ``document`` (a pair-state payload or a
    run state's cache document) damaged by ``defect``, packed again so
    that only the section checks can tell."""
    data = zlib.decompress(base64.b64decode(document["cache"]))
    damaged = defect(document, data, len(data) // SECTION_ENTRY_BYTES)
    return base64.b64encode(
        b"\x00" * 8 if damaged is None else zlib.compress(damaged)
    ).decode("ascii")


@pytest.fixture(params=["numpy", "loop"])
def fork(request):
    """Run the test on the vectorized steps and on their plain-loop twins
    (:func:`numpy_hidden`), so the two stay interchangeable."""
    if request.param == "loop":
        with numpy_hidden():
            yield request.param
        return
    if pairtable_module.numpy_or_none() is None:
        pytest.skip("numpy unavailable")
    yield request.param
