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
were taken before the score store moved into pair-id arrays, and
re-taken when the group stage stopped scoring the vertex pairs of
group pairs that cannot yield a subgraph: the caches hold fewer lazy
scores, and fewer pruning bounds are superseded by them.
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
        "82605c9c366d5d450e77b1c563a83fa7c4ff2b371c6d07571cf6b88640816178",
    "round_0002.json":
        "552835de68db66216faa51fa8358a2288c0c693ca3c7c4d0ac726803a004d69a",
    "final.json":
        "eaed0a99ea5e74440da5714412469645cf2eca49247b0eb24deada22783c084c",
}
SERIES_CACHE_PARTS = {
    "pair_1851_1861.json": (
        "335b474601f5374a9dad24a78d019777daae0a8ba122ba828886b656fc3165b1",
        "7417ac81c515f70e7e07e6f5adf5d2dd973a1ca4b09cff913e5b8c3823310aa8",
    ),
    "pair_1861_1871.json": (
        "47c7d477ea7fa8fcd1e6e45c3e22b5a7a6b56d6aab9d88eb38878d1cabcc02f4",
        "f66e21f8b14b08cddd97d407b468081d335b4a780ae5df9bb2ebf35afbf85442",
    ),
}
REVISED_SERIES_CACHE_PARTS = {
    "pair_1851_1861.json": (
        "335b474601f5374a9dad24a78d019777daae0a8ba122ba828886b656fc3165b1",
        "4401817fcdff6c3918d91ee284319ee7a0f95b0e8632a6029696a279a19e4db4",
    ),
    "pair_1861_1871.json": (
        "47c7d477ea7fa8fcd1e6e45c3e22b5a7a6b56d6aab9d88eb38878d1cabcc02f4",
        "a551741b1bc61016b9ea716faa4712df0778830e223adee552ed2eb44ee58a1c",
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
