"""Run checkpoints hold the cache in row space (RunState schema 4).

A resident run's checkpoint keeps the pinned scores and bounds of its
similarity cache as series pair states do: the pair table's two sorted
id lists plus one packed cache section (see
:mod:`repro.checkpoint.section`), and its lazy rows beside them.  These
tests pin that a section or lazy rows sealed with a valid content hash
but structurally defective are refused with the typed error naming the
file, so resume falls back one state instead of crashing, and that both
numpy forks write the same bytes and resume from each other's states.
"""

import base64
import shutil
import types
from contextlib import nullcontext

import pytest

import repro.instrumentation as instrumentation_module
from repro.checkpoint import CheckpointCorrupt, CheckpointStore, ledger_hash
from repro.checkpoint.section import compress_rows
from repro.core.config import LinkageConfig
from repro.core.pairtable import numpy_or_none
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair

from tests.conftest import SECTION_DEFECTS, damaged_section, numpy_hidden

#: The per-pair scorer on both forks: the batch kernel needs numpy, and
#: the configuration fingerprint must match for a state to be resumed.
CONFIG = LinkageConfig(scoring_backend="python")


@pytest.fixture(scope="module")
def pair():
    """A pair whose run checkpoints three rounds."""
    return generate_pair(seed=7, initial_households=16).datasets


@pytest.fixture(scope="module")
def uninterrupted(pair):
    return ledger_hash(link_datasets(*pair, CONFIG))


def section_defect(defect):
    """A cache document's change: its section damaged by ``defect``."""
    return lambda cache: dict(cache, cache=damaged_section(cache, defect))


def lazy_defect(parts):
    """A cache document's change: its lazy rows replaced by ``parts``."""
    return lambda cache: dict(cache, lazy=parts)


#: Every defect of a run state's cache document — each section defect,
#: then lazy parts that are not base64, base64 that is not zlib, and a
#: row that is not two ids and a number — with the loader's message.
CACHE_DEFECTS = [
    (defect.__name__, section_defect(defect), message)
    for defect, message in SECTION_DEFECTS
] + [
    ("lazy_not_base64", lazy_defect(["not base64 at all!"]),
     "lazy rows are not base64"),
    ("lazy_not_zlib",
     lazy_defect([base64.b64encode(b"not zlib").decode("ascii")]),
     "lazy rows do not decompress"),
    ("lazy_row_without_a_score", lazy_defect([compress_rows([["a", "b"]])]),
     r"not \[old_id, new_id, number\]"),
]


def state_files(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("*.json"))
    }


@pytest.mark.parametrize(
    "damage, message", [defect[1:] for defect in CACHE_DEFECTS],
    ids=[name for name, _, _ in CACHE_DEFECTS],
)
def test_malformed_section_falls_back_one_state(
    damage, message, fork, pair, uninterrupted, tmp_path
):
    """A run killed before its final write whose newest round state
    holds a defective section or defective lazy rows: loading that
    state raises the typed error naming it, ``load_latest`` falls back
    to the state before it, and the resumed run equals the
    uninterrupted one."""
    link_datasets(*pair, CONFIG, checkpoint_dir=tmp_path)
    (tmp_path / "final.json").unlink()
    store = CheckpointStore(tmp_path)
    *_, previous, newest = store.entries()
    state = store.load(newest.path)
    state.cache = damage(state.cache)
    assert store.write_state(state) == newest.path
    with pytest.raises(CheckpointCorrupt, match=message) as error:
        store.load(newest.path)
    assert error.value.path == newest.path
    assert store.load_latest() == store.load(previous.path)
    assert [path for path, _ in store.skipped] == [newest.path]
    resumed = link_datasets(
        *pair, CONFIG, checkpoint_dir=tmp_path, resume=True
    )
    assert ledger_hash(resumed) == uninterrupted


class TestForks:
    @pytest.fixture(scope="class")
    def written(self, pair, tmp_path_factory):
        """Per fork: the state files of one checkpointed run, written
        with the clock frozen (states record round timings), and its
        ledger hash."""
        if numpy_or_none() is None:
            pytest.skip("numpy unavailable")
        frozen = types.SimpleNamespace(perf_counter=lambda: 0.0)
        written = {}
        for fork in ("numpy", "loop"):
            directory = tmp_path_factory.mktemp(f"run-{fork}")
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(instrumentation_module, "time", frozen)
                with numpy_hidden() if fork == "loop" else nullcontext():
                    result = link_datasets(
                        *pair, CONFIG, checkpoint_dir=directory
                    )
            written[fork] = (directory, ledger_hash(result))
        return written

    def test_forks_write_identical_run_states(self, written, uninterrupted):
        files = {
            fork: state_files(directory)
            for fork, (directory, _) in written.items()
        }
        assert files["numpy"] == files["loop"]
        assert list(files["numpy"]) == [
            "final.json", "round_0001.json", "round_0002.json",
            "round_0003.json",
        ]
        state = CheckpointStore(written["numpy"][0]).load(
            written["numpy"][0] / "round_0002.json"
        )
        assert state.cache_entries.num_entries
        assert {digest for _, digest in written.values()} == {uninterrupted}

    @pytest.mark.parametrize("writer", ["numpy", "loop"])
    def test_each_fork_resumes_from_the_others_round_2_state(
        self, written, writer, fork, pair, uninterrupted, tmp_path
    ):
        """The states ``writer`` wrote up to round 2, resumed by
        ``fork``, give the uninterrupted run's full ledger."""
        for name in ("round_0001.json", "round_0002.json"):
            shutil.copy(written[writer][0] / name, tmp_path / name)
        resumed = link_datasets(
            *pair, CONFIG, checkpoint_dir=tmp_path, resume=True
        )
        assert ledger_hash(resumed) == uninterrupted
