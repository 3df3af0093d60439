"""The on-disk bytes of every enveloped store format, pinned.

Each test writes one fixed document through its store and compares the
SHA-256 of the bytes on disk with a literal.  The literals were taken
from the per-store writers before the four stores moved onto the shared
primitive in :mod:`repro.ioutil`, so a green run proves that no byte of
an existing format changed: old checkpoints, pair states, segments and
service manifests stay readable without a migration.
"""

import hashlib

from repro.checkpoint import (
    PHASE_ROUND,
    CheckpointStore,
    PairState,
    RunState,
    SeriesStore,
)
from repro.evolution.graph import EvolutionGraph
from repro.evolution.patterns import GroupPatterns, PairPatterns, RecordPatterns
from repro.service.store import EvolutionStore


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fixed_run_state():
    return RunState(
        round_index=2,
        phase=PHASE_ROUND,
        delta=0.65,
        schedule=(0.7, 0.65, 0.6),
        rounds_finished=False,
        record_pairs=[["o1", "n1"], ["o2", "n2"]],
        group_pairs=[["ga", "gb"]],
        iterations=[{"iteration": 1, "delta": 0.7, "seconds": 0.125}],
        provenance=[["o1", "n1", "subgraph", 1, 0.7]],
        counters={"pairs_scored": 41, "cache_hits": 3},
        cache={"pinned": ["eJyLjgUAARUAuQ=="], "hits": 3, "misses": 41},
        config_fingerprint="cafe" * 4,
        data_fingerprint="beef" * 4,
        shards_total=3,
        shards_done=2,
        round_accum={"new_record_links": 5},
        plan_fingerprint="f00d" * 4,
    )


def fixed_pair_state():
    return PairState(
        old_year=1871,
        new_year=1881,
        config_fingerprint="cafe" * 4,
        old_snapshot="0123456789abcdef",
        new_snapshot="fedcba9876543210",
        old_keys={"0|smith": "aaaa" * 4, "1|jon": "bbbb" * 4},
        new_keys={"0|smith": "cccc" * 4},
        record_pairs=[["o1", "n1"]],
        group_pairs=[["ga", "gb"]],
        pinned=["eJyLjgUAARUAuQ=="],
        bounds=[],
    )


def fixed_graph():
    graph = EvolutionGraph()
    graph.add_snapshot(1871, ["r1", "r2"], ["g1"])
    graph.add_snapshot(1881, ["s1", "s2", "s3"], ["h1", "h2"])
    graph.add_pair_patterns(PairPatterns(
        1871,
        1881,
        RecordPatterns(preserved=[("r1", "s1"), ("r2", "s2")]),
        GroupPatterns(preserved=[("g1", "h1")]),
    ))
    return graph


def test_run_state_bytes(tmp_path):
    path = CheckpointStore(tmp_path).write_state(fixed_run_state())
    assert path.name == "round_0002_shard_0002.json"
    assert sha256_of(path) == RUN_STATE_SHA256


def test_pair_state_bytes(tmp_path):
    path = SeriesStore(tmp_path).write_pair(fixed_pair_state())
    assert path.name == "pair_1871_1881.json"
    assert sha256_of(path) == PAIR_STATE_SHA256


def test_segment_and_manifest_bytes(tmp_path):
    report = EvolutionStore(tmp_path).publish(fixed_graph())
    assert report.segments_written == SEGMENT_NAMES
    assert {
        name: sha256_of(tmp_path / name) for name in report.segments_written
    } == SEGMENT_SHA256
    assert sha256_of(tmp_path / "manifest.json") == MANIFEST_SHA256


RUN_STATE_SHA256 = (
    "25442d9f052ec0da359abd18d87e18d5fc5418348d5507ab9965bb704dc09661"
)
PAIR_STATE_SHA256 = (
    "8d3e839dead176930d8976ad0ec7eda8ea8079790b87fbfdf458e2bdaf3d8581"
)
SEGMENT_NAMES = ["seg_1871_2579112cb375.json", "seg_1881_db8f03eedf54.json"]
SEGMENT_SHA256 = {
    "seg_1871_2579112cb375.json":
        "0256c494cf5aa5c1dd0b37e51dfcf123f2a31e28b2b422603172bfe28005fe2a",
    "seg_1881_db8f03eedf54.json":
        "8892fe6319eff788bf7fcef7ff7d6ecc9aae781f65eae28c139eaf721f4b5f58",
}
MANIFEST_SHA256 = (
    "9f8d6a989961ce8c09376e4e1a08b4ab5f789fccc8029894e21a8b6d46a4e6df"
)
