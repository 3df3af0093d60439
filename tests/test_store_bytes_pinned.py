"""The on-disk bytes of every enveloped store format, pinned.

Each test writes one fixed document through its store and compares the
SHA-256 of the bytes on disk with a literal.  The literals were taken
from the per-store writers before the four stores moved onto the shared
primitive in :mod:`repro.ioutil`, so a green run proves that no byte of
an existing format changed: pair states, segments and service manifests
stay readable without a migration.  The run-state literal was re-taken
when checkpoints became shard-major (schema 3, per-shard round ledgers
instead of mid-round accumulators); older states are refused by schema.

The similarity-cache rows a real run journals are pinned too: the
``cache`` section of every checkpoint of a resident run, and the
``pinned``/``bounds`` parts of the pair states a series analysis writes
(cold, then re-linked with a seed after a revision).  Those literals
were taken before the score store moved into pair-id arrays.
"""

import hashlib

from repro.checkpoint import (
    PHASE_ROUND,
    CheckpointStore,
    PairState,
    RunState,
    SeriesStore,
)
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair, revise_middle_record
from repro.datagen.generator import GeneratorConfig, generate_series
from repro.evolution.analysis import analyse_series
from repro.evolution.graph import EvolutionGraph
from repro.ioutil import content_hash
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
        counters={"pairs_scored": 41, "cache_hits": 3},
        cache={"pinned": ["eJyLjgUAARUAuQ=="], "hits": 3, "misses": 41},
        config_fingerprint="cafe" * 4,
        data_fingerprint="beef" * 4,
        shards_total=3,
        shards_done=2,
        shard_parts=[
            {
                "rounds": [{
                    "iteration": 1, "delta": 0.7, "seconds": 0.125,
                    "record_pairs": [["o1", "n1"]], "group_pairs": [],
                }],
                "remaining": [{
                    "after_round": 1, "record_pairs": [["o2", "n2"]],
                    "group_pairs": [["ga", "gb"]],
                }],
            },
            {"rounds": [], "remaining": []},
            {"rounds": [], "remaining": []},
        ],
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
    assert path.name == "shard_0003_round_0002.json"
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


def test_run_cache_journal_bytes(tmp_path):
    """Checkpoint every round of the 50-household pair: the hash of each
    state's cache section (pinned, bounds and lazy parts plus tallies)
    is pinned; the rest of a state holds round timings."""
    old, new = generate_pair(seed=20170321, initial_households=50).datasets
    link_datasets(
        old, new, LinkageConfig(checkpoint_every=1), checkpoint_dir=tmp_path
    )
    assert {
        path.name: content_hash(RunState.loads(path.read_text()).cache)
        for path in tmp_path.glob("*.json")
    } == RUN_CACHE_SECTIONS


def test_series_cache_parts_bytes(tmp_path):
    series = generate_series(
        GeneratorConfig(seed=7, num_snapshots=3, initial_households=40)
    ).datasets
    config = LinkageConfig()
    analyse_series(series, config=config, series_state=tmp_path)
    assert _cache_parts(tmp_path) == SERIES_CACHE_PARTS
    revised = list(series)
    revised[1] = revise_middle_record(revised[1])
    analyse_series(revised, config=config, series_state=tmp_path)
    assert _cache_parts(tmp_path) == REVISED_SERIES_CACHE_PARTS


def _cache_parts(directory):
    """Hashes of the pinned and bounds parts of every pair state."""
    states = {
        path.name: PairState.loads(path.read_text())
        for path in directory.glob("pair_*.json")
    }
    return {
        name: (content_hash(state.pinned), content_hash(state.bounds))
        for name, state in states.items()
    }


RUN_CACHE_SECTIONS = {
    "round_0001.json":
        "4dfa7c6ad1bc36927ccc9d59a1265b58515f07c6018c48cacfc5daa4911ee7cf",
    "round_0002.json":
        "8ed2657c18578ad1144bde9b0fe684bf9ab15721562a94fd7d4bc9a2753f7437",
    "final.json":
        "ce3846d41c5939e6882c02da1915e6c600b75aa861f76f8eb5257c668c2496c1",
}
SERIES_CACHE_PARTS = {
    "pair_1851_1861.json": (
        "028235656b81c7e3da36fa5882c9f665cbb82790c9b97295eb9bd3b69317e94b",
        "7b25c868980fd7c7e2537f706356bc02077e4b6e00e09a26e487151423e01068",
    ),
    "pair_1861_1871.json": (
        "50f47b620c1aeac93909abaf769aca0dbdd0b423f1ae72d665a0dd20353e67d6",
        "81a3b297aa4f3da43e803f77da976e93cae962d2a3375151279cf079b6ee8dcb",
    ),
}
REVISED_SERIES_CACHE_PARTS = {
    "pair_1851_1861.json": (
        "028235656b81c7e3da36fa5882c9f665cbb82790c9b97295eb9bd3b69317e94b",
        "a9b7df3a9b1d9eadc6c959eb374d50f75e7c28d377b271459548b29ce72cf1f9",
    ),
    "pair_1861_1871.json": (
        "50f47b620c1aeac93909abaf769aca0dbdd0b423f1ae72d665a0dd20353e67d6",
        "8893d0928a66f131361e0aa74b18dd41c318777a087091eca5f97fefaba99b84",
    ),
}
RUN_STATE_SHA256 = (
    "68e0bb89ff2ee9a3380883b6ed7757951b486d0da43a9e8b6692cde466bf5cfd"
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
