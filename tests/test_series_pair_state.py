"""Series pair states in row space (schema 2).

A pair state keeps the pinned scores and bounds of its run as the pair
table's two sorted id lists plus one packed cache section (see
:mod:`repro.checkpoint.section`).  These tests pin that both numpy forks
write and read that layout alike, that every structural defect of a
section is refused with the typed error (the pair is then re-linked,
like any unusable pair state), and that a state of the previous layout
is refused by schema and its pair re-linked cold.
"""

import json
import shutil
from contextlib import nullcontext

import pytest

from repro.checkpoint import (
    CheckpointCorrupt,
    PairState,
    SeriesStore,
    analysis_ledger_hash,
)
from repro.checkpoint.section import compress_rows
from repro.checkpoint.series import SERIES_ENVELOPE
from repro.core.config import LinkageConfig
from repro.core.filtering import KINDS
from repro.core.pairtable import numpy_or_none
from repro.datagen import revise_middle_record
from repro.datagen.generator import GeneratorConfig, generate_series
from repro.evolution.analysis import analyse_series
from repro.instrumentation import (
    SERIES_PAIRS_RELINKED,
    SERIES_PAIRS_REUSED,
    SERIES_SEED_ENTRIES,
)
from repro.ioutil import Envelope

from tests.conftest import SECTION_DEFECTS, damaged_section, numpy_hidden

#: The per-pair scorer on both forks: the batch kernel needs numpy, and
#: the configuration fingerprint must match for states to be reused.
CONFIG = LinkageConfig(scoring_backend="python")


@pytest.fixture(scope="module")
def series():
    """Three snapshots, and the same series with its middle one revised."""
    datasets = generate_series(
        GeneratorConfig(seed=7, num_snapshots=3, initial_households=16)
    ).datasets
    revised = list(datasets)
    revised[1] = revise_middle_record(datasets[1])
    return datasets, revised


@pytest.fixture(scope="module")
def scratch(series):
    """From-scratch ledger hashes of the series and of its revision."""
    return tuple(
        analysis_ledger_hash(analyse_series(datasets, config=CONFIG))
        for datasets in series
    )


@pytest.fixture(scope="module")
def warm(series, tmp_path_factory):
    """A series-state directory holding the series' pair states."""
    directory = tmp_path_factory.mktemp("warm")
    run(directory, series[0])
    return directory


def run(directory, datasets):
    """One incremental run; returns the analysis and its store."""
    store = SeriesStore(directory)
    analysis = analyse_series(datasets, config=CONFIG, series_state=store)
    return analysis, store


def state_files(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("pair_*.json"))
    }


class TestForks:
    @pytest.fixture(scope="class")
    def written(self, series, tmp_path_factory):
        """Per fork: the warm states of the series, the states after the
        revised arrival, and that arrival's ``series_seed_entries``."""
        if numpy_or_none() is None:
            pytest.skip("numpy unavailable")
        written = {}
        for fork in ("numpy", "loop"):
            directory = tmp_path_factory.mktemp(f"states-{fork}")
            with numpy_hidden() if fork == "loop" else nullcontext():
                run(directory, series[0])
                warm = state_files(directory)
                analysis, _ = run(directory, series[1])
            written[fork] = (
                warm, state_files(directory),
                analysis.profile.value(SERIES_SEED_ENTRIES),
            )
        return written

    def test_forks_write_identical_pair_states(self, written):
        assert written["numpy"] == written["loop"]
        warm, arrived, seeded = written["numpy"]
        assert len(warm) == 2 and warm != arrived and seeded > 0
        for data in arrived.values():
            assert json.loads(data)["payload"]["cache"]

    @pytest.mark.parametrize("writer", ["numpy", "loop"])
    def test_each_fork_reads_the_others_states(
        self, written, writer, fork, series, scratch, tmp_path
    ):
        """The revised arrival on warm states written by ``writer`` and
        read by ``fork`` seeds what each fork seeds from its own states
        and links like a from-scratch run."""
        for name, data in written[writer][0].items():
            (tmp_path / name).write_bytes(data)
        analysis, store = run(tmp_path, series[1])
        assert store.skipped == []
        assert analysis_ledger_hash(analysis) == scratch[1]
        assert analysis.profile.value(SERIES_PAIRS_RELINKED) == 2
        assert analysis.profile.value(SERIES_SEED_ENTRIES) == (
            written[writer][2]
        )


# -- defects of the cache section (shared: tests/conftest.py) -----------------


@pytest.mark.parametrize(
    "defect, message", SECTION_DEFECTS,
    ids=[defect.__name__ for defect, _ in SECTION_DEFECTS],
)
def test_malformed_section_is_refused_and_relinked(
    defect, message, fork, series, scratch, warm, tmp_path
):
    """A section sealed with a valid content hash but structurally
    defective raises the typed error naming its file; the pair lands in
    ``skipped`` and is re-linked to the from-scratch result."""
    shutil.copytree(warm, tmp_path, dirs_exist_ok=True)
    victim = sorted(tmp_path.glob("pair_*.json"))[-1]
    payload = json.loads(victim.read_text())["payload"]
    payload["cache"] = damaged_section(payload, defect)
    victim.write_text(SERIES_ENVELOPE.dumps(payload))
    with pytest.raises(CheckpointCorrupt, match=message) as error:
        SeriesStore(tmp_path).load(victim)
    assert error.value.path == victim
    analysis, store = run(tmp_path, series[0])
    assert [(path, message in why) for path, why in store.skipped] == [
        (victim, True)
    ]
    assert analysis.profile.value(SERIES_PAIRS_RELINKED) == 1
    assert analysis.profile.value(SERIES_PAIRS_REUSED) == 1
    assert analysis_ledger_hash(analysis) == scratch[0]


def test_schema_1_state_is_relinked_cold(
    fork, series, scratch, warm, tmp_path
):
    """A pair state of the previous layout (``pinned``/``bounds`` JSON
    row parts, series schema 1) is refused by schema: its pair is
    re-linked with no seed and rewritten in the current layout."""
    shutil.copytree(warm, tmp_path, dirs_exist_ok=True)
    victim = sorted(tmp_path.glob("pair_*.json"))[-1]
    payload = json.loads(victim.read_text())["payload"]
    entries = PairState.from_payload(payload).entries
    rows = [
        [entries.old_ids[old_row], entries.new_ids[new_row], value, kind]
        for old_row, new_row, value, kind in zip(
            *(list(column) for column in (
                entries.old_row, entries.new_row, entries.value, entries.kind
            ))
        )
    ]
    for key in ("old_ids", "new_ids", "cache"):
        del payload[key]
    payload["pinned"] = [compress_rows([row[:3] for row in rows if not row[3]])]
    payload["bounds"] = [compress_rows(
        [row[:3] + [KINDS[row[3]]] for row in rows if row[3]]
    )]
    victim.write_text(
        Envelope("series_schema", 1, "series pair state").dumps(payload)
    )
    analysis, store = run(tmp_path, series[0])
    assert [(path, "schema 1" in why) for path, why in store.skipped] == [
        (victim, True)
    ]
    assert analysis.profile.value(SERIES_PAIRS_RELINKED) == 1
    assert analysis.profile.value(SERIES_SEED_ENTRIES) == 0
    assert analysis_ledger_hash(analysis) == scratch[0]
    assert state_files(tmp_path) == state_files(warm)
