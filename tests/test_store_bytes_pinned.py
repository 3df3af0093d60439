"""The on-disk bytes of every enveloped store format, pinned.

Each test writes one fixed document through its store and compares the
SHA-256 of the bytes on disk with a literal.  The literals were taken
from the per-store writers before the four stores moved onto the shared
primitive in :mod:`repro.ioutil`, so a green run proves that no byte of
an existing format changed: pair states, segments and service manifests
stay readable without a migration.  The run-state literal was re-taken
when checkpoints became shard-major (schema 3, per-shard round ledgers
instead of mid-round accumulators), and again when their cache moved to
row space (schema 4); older states are refused by schema.

The similarity caches a real run persists are pinned too: the ``cache``
document of every checkpoint of a resident run, and the cache knowledge
of the pair states a series analysis writes (cold, then re-linked with
a seed after a revision).  Those literals were taken before the score
store moved into pair-id arrays, and re-taken when the group stage
stopped scoring the vertex pairs of group pairs that cannot yield a
subgraph (the caches hold fewer lazy scores, and fewer pruning bounds
are superseded by them), and again when every score got one home: a
blocked pair that the group stage scores on demand is now pinned, and
its pin supersedes its bound.  The pair-state literals were re-taken
once more when pair states moved to row space (series schema 2): the id
lists and one packed cache section replace the ``pinned``/``bounds``
row parts, holding the same entries.  The run-state literals were
re-taken when run checkpoints adopted that section (schema 4), holding
the same entries as the journals they replace; the final state holds
no cache.
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
        # The pair state's section below: ("o1", "n1") exact 0.9,
        # ("o2", "n1") bounded 0.25 by q-grams.
        cache={
            "old_ids": ["o1", "o2"],
            "new_ids": ["n1"],
            "cache": "eAFjYGBgYARiGDh7BgTe2EP4F+wZmABcMgcH",
            "lazy": [],
            "hits": 3,
            "misses": 41,
            "evictions": 0,
        },
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
        old_ids=["o1", "o2"],
        new_ids=["n1"],
        # ("o1", "n1") exact 0.9, ("o2", "n1") bounded 0.25 by q-grams.
        cache="eAFjYGBgYARiGDh7BgTe2EP4F+wZmABcMgcH",
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
    state's cache document (id lists, packed section, lazy rows and
    tallies) is pinned, and the final state holds none; the rest of a
    state holds round timings."""
    old, new = generate_pair(seed=20170321, initial_households=50).datasets
    link_datasets(
        old, new, LinkageConfig(checkpoint_every=1), checkpoint_dir=tmp_path
    )
    caches = {
        path.name: RunState.loads(path.read_text()).cache
        for path in tmp_path.glob("*.json")
    }
    assert {
        name: None if cache is None else content_hash(cache)
        for name, cache in caches.items()
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
    """Hashes of the id lists and the packed cache section of every
    pair state."""
    states = {
        path.name: PairState.loads(path.read_text())
        for path in directory.glob("pair_*.json")
    }
    return {
        name: (
            content_hash([state.old_ids, state.new_ids]),
            content_hash(state.cache),
        )
        for name, state in states.items()
    }


RUN_CACHE_SECTIONS = {
    "round_0001.json":
        "2e4468ada6cf0e209e49af598264f9aa99e0d871233a343bfa3b18cfd27566ad",
    "round_0002.json":
        "f4d3464e476b7a220e3bb63c479ba97df2c22449fbd4bf5188a00ab30bc93055",
    "final.json": None,
}
SERIES_CACHE_PARTS = {
    "pair_1851_1861.json": (
        "c950396d8ffba481eb169d8a5e65cee08217abac7126e0d1c122f41c2a3153f6",
        "25905add2c3e0e36642b59be7bdaeffab93d7a2d9c97c82d152b91b25c68ffe8",
    ),
    "pair_1861_1871.json": (
        "eb70db41084034c3edeee3fdabd275724ad095df11d71103d52b4edad5924b59",
        "f1d1af1c6b5d0f589c4ed8abd36cc67982df0ae47837dce645657db1eda48be9",
    ),
}
REVISED_SERIES_CACHE_PARTS = {
    "pair_1851_1861.json": (
        "c950396d8ffba481eb169d8a5e65cee08217abac7126e0d1c122f41c2a3153f6",
        "a5db69fb988f92cf82a477fc8afd5ce80433bf58862612e5328ec22f9a0400e2",
    ),
    "pair_1861_1871.json": (
        "eb70db41084034c3edeee3fdabd275724ad095df11d71103d52b4edad5924b59",
        "c6510bf790098f2ee5c21a2b6564ec0a2d8ebb77939ea670a0e709352ccd395a",
    ),
}
RUN_STATE_SHA256 = (
    "c5bab3c3b7ace064644e367a6f1c4c080f6e12ed10645df3135c5094a7bbab23"
)
PAIR_STATE_SHA256 = (
    "c2efe76ac264b68555f8247e402aec648bab427fb264cb00825566f4ff206168"
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
