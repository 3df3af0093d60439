"""RunState serialization properties: roundtrip identity, tamper
detection, schema gating.

A checkpoint that silently loses a field, half-loads a tampered payload
or guesses at a future schema would convert a crash into a *wrong
answer* — strictly worse than the crash.  These tests pin the three
defenses: exact roundtrip, content-hash verification, and
schema-before-payload rejection.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    PHASE_FINAL,
    PHASE_ROUND,
    SCHEMA_VERSION,
    CheckpointCorrupt,
    CheckpointSchemaError,
    CheckpointStore,
    RunState,
    content_hash,
)
from repro.checkpoint.section import compress_rows, pack_section
from repro.core.filtering import KINDS
from tests.strategies import words

# -- strategies ---------------------------------------------------------------

record_ids = st.tuples(words, words).map(
    lambda pair: [f"o_{pair[0]}", f"n_{pair[1]}"]
)

scores = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)

iteration_dicts = st.fixed_dictionaries(
    {
        "iteration": st.integers(min_value=1, max_value=50),
        "delta": scores,
        "candidate_subgraphs": st.integers(min_value=0, max_value=1000),
        "accepted_group_links": st.integers(min_value=0, max_value=1000),
        "new_record_links": st.integers(min_value=0, max_value=1000),
        "remaining_old": st.integers(min_value=0, max_value=10000),
        "remaining_new": st.integers(min_value=0, max_value=10000),
        "pairs_scored": st.integers(min_value=0, max_value=100000),
        "cache_hits": st.integers(min_value=0, max_value=100000),
        "cache_misses": st.integers(min_value=0, max_value=100000),
        "seconds": st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False
        ),
    }
)

@st.composite
def cache_documents(draw):
    """A resident run's cache export (``SimilarityCache.export_state``):
    sorted id lists, a packed section of entries over them in strictly
    increasing row order, lazy rows and the tallies."""
    old_ids = sorted(draw(st.sets(words, max_size=4)))
    new_ids = sorted(draw(st.sets(words, max_size=4)))
    cells = [
        (old_row, new_row)
        for old_row in range(len(old_ids))
        for new_row in range(len(new_ids))
    ]
    entries = []
    if cells:
        entries = sorted(draw(st.sets(st.sampled_from(cells), max_size=8)))
    kinds = st.integers(min_value=0, max_value=len(KINDS) - 1)
    columns = [
        [old_row for old_row, _ in entries],
        [new_row for _, new_row in entries],
        [draw(scores) for _ in entries],
        [draw(kinds) for _ in entries],
    ]
    lazy = draw(
        st.lists(st.tuples(words, words, scores).map(list), max_size=8)
    )
    return {
        "old_ids": old_ids,
        "new_ids": new_ids,
        "cache": pack_section(columns),
        "lazy": [compress_rows(lazy)] if lazy else [],
        "hits": draw(st.integers(min_value=0, max_value=10**9)),
        "misses": draw(st.integers(min_value=0, max_value=10**9)),
        "evictions": draw(st.integers(min_value=0, max_value=10**9)),
    }

provenance_rows = st.lists(
    st.tuples(
        words,
        words,
        st.sampled_from(["subgraph", "remaining"]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
        scores,
    ).map(list),
    max_size=8,
)


link_rows = st.lists(record_ids, max_size=4)

shard_parts = st.fixed_dictionaries(
    {
        "rounds": st.lists(
            st.tuples(iteration_dicts, link_rows, link_rows).map(
                lambda item: dict(
                    item[0], record_pairs=item[1], group_pairs=item[2]
                )
            ),
            max_size=3,
        ),
        "remaining": st.lists(
            st.fixed_dictionaries({
                "after_round": st.integers(min_value=0, max_value=9),
                "record_pairs": link_rows,
                "group_pairs": link_rows,
            }),
            max_size=2,
        ),
    }
)


@st.composite
def run_states(draw):
    phase = draw(st.sampled_from([PHASE_ROUND, PHASE_FINAL]))
    final = phase == PHASE_FINAL
    return RunState(
        round_index=draw(st.integers(min_value=0, max_value=50)),
        phase=phase,
        delta=draw(st.one_of(st.none(), scores)),
        schedule=tuple(draw(st.lists(scores, max_size=6))),
        rounds_finished=draw(st.booleans()),
        record_pairs=draw(st.lists(record_ids, max_size=10)),
        group_pairs=draw(st.lists(record_ids, max_size=10)),
        iterations=draw(st.lists(iteration_dicts, max_size=5)),
        provenance=draw(st.one_of(st.none(), provenance_rows)),
        counters=draw(
            st.dictionaries(words, st.integers(min_value=0), max_size=8)
        ),
        cache=draw(st.one_of(st.none(), cache_documents())),
        config_fingerprint=draw(words),
        data_fingerprint=draw(words),
        subgraph_record_links=(
            draw(st.integers(min_value=0, max_value=10000)) if final else None
        ),
        remaining_record_links=(
            draw(st.integers(min_value=0, max_value=10000)) if final else None
        ),
        shards_total=draw(st.integers(min_value=1, max_value=4)),
        shards_done=draw(st.integers(min_value=0, max_value=4)),
        shard_parts=[] if final else draw(st.lists(shard_parts, max_size=3)),
    )


# -- roundtrip ----------------------------------------------------------------


class TestRoundtrip:
    @given(state=run_states())
    @settings(max_examples=60, deadline=None)
    def test_dumps_loads_identity(self, state):
        """RunState → bytes → RunState is the identity, field for field
        — floats included (shortest-roundtrip repr, never rounded)."""
        assert RunState.loads(state.dumps()) == state

    @given(state=run_states())
    @settings(max_examples=30, deadline=None)
    def test_serialization_is_deterministic(self, state):
        assert state.dumps() == RunState.loads(state.dumps()).dumps()

    @given(state=run_states())
    @settings(max_examples=30, deadline=None)
    def test_document_declares_schema_and_hash(self, state):
        document = json.loads(state.dumps())
        assert document["schema"] == SCHEMA_VERSION
        assert document["content_hash"] == content_hash(document["payload"])


# -- tampering ----------------------------------------------------------------


def _tamper(text: str, field: str, replacement: str) -> str:
    tampered = text.replace(field, replacement, 1)
    assert tampered != text, f"nothing replaced for {field!r}"
    return tampered


class TestTamperDetection:
    def sample_state(self) -> RunState:
        return RunState(
            round_index=2,
            phase=PHASE_ROUND,
            delta=0.65,
            schedule=(0.7, 0.65, 0.6),
            rounds_finished=False,
            record_pairs=[["o1", "n1"], ["o2", "n2"]],
            group_pairs=[["ga", "gb"]],
            iterations=[],
            counters={"pairs_scored": 41},
            config_fingerprint="cafe" * 4,
            data_fingerprint="beef" * 4,
        )

    def test_altered_payload_fails_content_hash(self):
        text = self.sample_state().dumps()
        tampered = _tamper(text, '"o2",', '"oX",')
        with pytest.raises(CheckpointCorrupt, match="content hash"):
            RunState.loads(tampered)

    def test_altered_counter_fails_content_hash(self):
        text = self.sample_state().dumps()
        tampered = _tamper(text, '"pairs_scored":41', '"pairs_scored":14')
        with pytest.raises(CheckpointCorrupt, match="content hash"):
            RunState.loads(tampered)

    def test_truncated_document_is_corrupt(self):
        text = self.sample_state().dumps()
        with pytest.raises(CheckpointCorrupt, match="not valid JSON"):
            RunState.loads(text[: len(text) // 2])

    def test_non_object_document_is_corrupt(self):
        with pytest.raises(CheckpointCorrupt, match="must be an object"):
            RunState.loads("[1, 2, 3]")

    def test_missing_sections_are_corrupt(self):
        document = {"schema": SCHEMA_VERSION}
        with pytest.raises(CheckpointCorrupt, match="payload"):
            RunState.loads(json.dumps(document))

    def test_malformed_payload_is_corrupt_not_half_loaded(self):
        payload = {"round_index": 1}  # most fields missing
        document = {
            "schema": SCHEMA_VERSION,
            "content_hash": content_hash(payload),
            "payload": payload,
        }
        with pytest.raises(CheckpointCorrupt, match="missing or malformed"):
            RunState.loads(json.dumps(document))


class TestSchemaGate:
    def test_unknown_schema_rejected_before_payload(self):
        """A future schema is refused outright — even with a garbage
        payload that would crash any attempt at interpretation."""
        document = {
            "schema": SCHEMA_VERSION + 1,
            "content_hash": "irrelevant",
            "payload": {"layout": ["nobody", "knows"]},
        }
        with pytest.raises(CheckpointSchemaError, match="unsupported"):
            RunState.loads(json.dumps(document))

    def test_missing_schema_rejected(self):
        with pytest.raises(CheckpointSchemaError):
            RunState.loads(json.dumps({"payload": {}, "content_hash": "x"}))


# -- store-level recovery ------------------------------------------------------


class TestStoreRecovery:
    def write_rounds(self, tmp_path, count: int) -> CheckpointStore:
        store = CheckpointStore(tmp_path)
        for index in range(1, count + 1):
            store.write_state(
                RunState(
                    round_index=index,
                    phase=PHASE_ROUND,
                    delta=0.7 - 0.05 * (index - 1),
                    schedule=(0.7, 0.65, 0.6),
                    rounds_finished=False,
                )
            )
        return store

    def test_load_latest_prefers_newest(self, tmp_path):
        store = self.write_rounds(tmp_path, 3)
        assert store.load_latest().round_index == 3

    def test_strict_load_raises_on_corrupt_file(self, tmp_path):
        store = self.write_rounds(tmp_path, 1)
        target = tmp_path / "round_0001.json"
        target.write_text("not json", encoding="utf-8")
        with pytest.raises(CheckpointCorrupt):
            store.load(target)

    def test_missing_file_is_corrupt_not_oserror(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupt, match="cannot read"):
            store.load(tmp_path / "round_0001.json")

    def test_schema_1_state_skipped_like_any_unknown_schema(self, tmp_path):
        """A state written before the in-RAM and sharded formats merged
        (schema 1) is never interpreted: resume falls back past it."""
        store = self.write_rounds(tmp_path, 1)
        payload = {"round_index": 2, "phase": "round", "cache_totals": {}}
        (tmp_path / "round_0002.json").write_text(json.dumps({
            "schema": 1,
            "content_hash": content_hash(payload),
            "payload": payload,
        }), encoding="utf-8")
        assert store.load_latest().round_index == 1
        [(path, reason)] = store.skipped
        assert path.name == "round_0002.json"
        assert "unsupported checkpoint schema 1" in reason

    def test_schema_2_state_rejected(self, tmp_path):
        """A state of the round-major layout (schema 2, mid-round
        accumulators) is refused before its payload is read, and resume
        falls back past it."""
        store = self.write_rounds(tmp_path, 1)
        payload = {"round_index": 2, "phase": "round", "round_accum": {}}
        document = json.dumps({
            "schema": 2,
            "content_hash": content_hash(payload),
            "payload": payload,
        })
        with pytest.raises(CheckpointSchemaError, match="schema 2"):
            RunState.loads(document)
        (tmp_path / "round_0002.json").write_text(document, encoding="utf-8")
        assert store.load_latest().round_index == 1
        [(path, reason)] = store.skipped
        assert path.name == "round_0002.json"

    def test_schema_3_state_rejected(self, tmp_path):
        """A state whose cache holds journals of JSON rows (schema 3) is
        refused before its payload is read, and resume falls back past
        it."""
        store = self.write_rounds(tmp_path, 1)
        payload = {
            "round_index": 2,
            "phase": "round",
            "cache": {"pinned": [], "bounds": [], "lazy": []},
        }
        document = json.dumps({
            "schema": 3,
            "content_hash": content_hash(payload),
            "payload": payload,
        })
        with pytest.raises(CheckpointSchemaError, match="schema 3"):
            RunState.loads(document)
        (tmp_path / "round_0002.json").write_text(document, encoding="utf-8")
        assert store.load_latest().round_index == 1
        [(path, reason)] = store.skipped
        assert path.name == "round_0002.json"

    def test_shard_major_progress_order(self, tmp_path):
        """A sharded run's states list shard by shard: a shard's rounds,
        then its boundary, then the next shard's rounds."""
        store = CheckpointStore(tmp_path)
        for shards_done, round_index in ((1, 0), (1, 2), (0, 1), (0, 10)):
            store.write_state(RunState(
                round_index=round_index,
                phase=PHASE_ROUND,
                delta=None,
                schedule=(),
                rounds_finished=False,
                shards_total=3,
                shards_done=shards_done,
            ))
        assert [entry.path.name for entry in store.entries()] == [
            "shard_0001_round_0001.json", "shard_0001_round_0010.json",
            "shard_0001.json", "shard_0002_round_0002.json",
        ]
        assert store.load_latest().shards_done == 1
        assert store.load_latest().round_index == 2

    def test_in_progress_link_counts_are_distinct(self):
        """``repro checkpoints`` counts a group link accepted in two
        rounds once, and a shard's remaining pass on its latest frontier
        only."""
        part = {
            "rounds": [
                {"record_pairs": [["o1", "n1"]], "group_pairs": [["g", "h"]]},
                {"record_pairs": [["o2", "n2"]], "group_pairs": [["g", "h"]]},
            ],
            "remaining": [
                {"after_round": 1, "record_pairs": [["o3", "n3"]],
                 "group_pairs": [["g", "h"]]},
                {"after_round": 2, "record_pairs": [], "group_pairs": []},
            ],
        }
        state = RunState(
            round_index=0, phase=PHASE_ROUND, delta=None, schedule=(),
            rounds_finished=False, shards_total=2, shards_done=1,
            shard_parts=[part],
        )
        assert (state.record_links, state.group_links) == (2, 1)

    def test_temp_artifacts_never_listed(self, tmp_path):
        store = self.write_rounds(tmp_path, 1)
        (tmp_path / ".round_0002.json.abc.tmp").write_text(
            "in-flight garbage", encoding="utf-8"
        )
        assert [entry.path.name for entry in store.entries()] == [
            "round_0001.json"
        ]
        assert store.load_latest().round_index == 1
