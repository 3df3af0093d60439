"""EvolutionStore battery: round-trip fidelity, byte-level no-op
republish, crash/corruption behaviour (docs/SERVICE.md contracts).

The store is only allowed to serve a graph it can prove is exactly the
one published — so the tests here attack every layer of that proof:
payload bytes, envelope hashes, the manifest cross-check and the final
graph-version recomputation.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.faults import failing_os_replace
from repro.core.config import LinkageConfig
from repro.datagen.generator import GeneratorConfig, generate_series
from repro.evolution.analysis import analyse_series
from repro.evolution.graph import EvolutionGraph
from repro.evolution.io import graph_to_dict
from repro.evolution.patterns import (
    GroupPatterns,
    PairPatterns,
    RecordPatterns,
)
from repro.service.store import (
    EvolutionStore,
    PublishReport,
    StoreCorrupt,
    StoreMissing,
    graph_version_of,
    node_id,
)


def small_analysis(num_snapshots=3, households=12, seed=11):
    datasets = generate_series(GeneratorConfig(
        seed=seed,
        num_snapshots=num_snapshots,
        initial_households=households,
    )).datasets
    return analyse_series(datasets, config=LinkageConfig())


@pytest.fixture(scope="module")
def analysis():
    return small_analysis()


def directory_bytes(directory):
    """Every file's bytes, keyed by name — the no-op comparison."""
    return {
        path.name: path.read_bytes()
        for path in Path(directory).iterdir()
        if path.is_file()
    }


class TestPublishAndLoad:
    def test_round_trip_is_exact(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        report = store.publish(analysis)
        assert isinstance(report, PublishReport)
        assert not report.is_noop
        loaded = store.load_graph()
        assert graph_to_dict(loaded) == graph_to_dict(analysis.graph)
        assert store.graph_version() == graph_version_of(analysis.graph)

    def test_accepts_graph_or_analysis(self, analysis, tmp_path):
        direct = EvolutionStore(tmp_path / "graph")
        wrapped = EvolutionStore(tmp_path / "analysis")
        assert (
            direct.publish(analysis.graph).graph_version
            == wrapped.publish(analysis).graph_version
        )

    def test_publish_rejects_non_graph(self, tmp_path):
        with pytest.raises(TypeError):
            EvolutionStore(tmp_path).publish(object())

    def test_empty_store(self, tmp_path):
        store = EvolutionStore(tmp_path)
        assert store.graph_version() is None
        with pytest.raises(StoreMissing):
            store.manifest()
        with pytest.raises(StoreMissing):
            store.load_graph()

    def test_republish_is_byte_noop(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        before = directory_bytes(tmp_path)
        report = store.publish(analysis)
        assert report.is_noop
        assert not report.segments_written and not report.manifest_written
        assert directory_bytes(tmp_path) == before

    def test_append_rewrites_exactly_two_segments(self, tmp_path):
        """Snapshot N+1 arriving touches segment N (new ``next`` links),
        the new segment N+1 and the manifest — nothing else."""
        datasets = generate_series(GeneratorConfig(
            seed=11, num_snapshots=4, initial_households=12,
        )).datasets
        config = LinkageConfig()
        store = EvolutionStore(tmp_path)
        store.publish(analyse_series(datasets[:-1], config=config))
        report = store.publish(analyse_series(datasets, config=config))
        years = [int(name.split("_")[1])
                 for name in report.segments_written]
        assert years == [datasets[-2].year, datasets[-1].year]
        assert report.manifest_written
        assert len(report.segments_unchanged) == len(datasets) - 2

    def test_stray_year_rejected(self, tmp_path):
        graph = EvolutionGraph()
        graph.add_snapshot(1851, ["r1"], ["g1"])
        graph.vertices.add(("group", 1999, "zz"))
        with pytest.raises(ValueError, match="1999"):
            EvolutionStore(tmp_path).publish(graph)

    def test_lookup_node(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        graph = analysis.graph
        vertex = sorted(v for v in graph.vertices if v[0] == "group")[0]
        kind, year, identifier = vertex
        node = store.lookup_node(kind, year, identifier)
        assert node is not None
        assert node["node"] == node_id(kind, year, identifier)
        assert node["kind"] == kind and node["id"] == identifier
        assert store.lookup_node("group", year, "no-such-household") is None

    def test_node_ids_are_stable_and_distinct(self):
        assert node_id("group", 1871, "g1") == node_id("group", 1871, "g1")
        assert node_id("group", 1871, "g1") != node_id("record", 1871, "g1")
        assert node_id("group", 1871, "g1") != node_id("group", 1881, "g1")


class TestCrashAndCorruption:
    def test_crash_mid_publish_keeps_old_view(self, tmp_path):
        """A publish that dies before the manifest flip leaves the
        previous view fully intact and loadable."""
        old = small_analysis(num_snapshots=2)
        new = small_analysis(num_snapshots=3)
        EvolutionStore(tmp_path).publish(old)
        crashing = EvolutionStore(tmp_path, replace=failing_os_replace)
        with pytest.raises(OSError, match="injected failure"):
            crashing.publish(new)
        survivor = EvolutionStore(tmp_path)
        assert survivor.graph_version() == graph_version_of(old.graph)
        assert graph_to_dict(survivor.load_graph()) == graph_to_dict(
            old.graph
        )

    def test_sweep_removes_orphans_only(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        orphan = tmp_path / "seg_1700_000000000000.json"
        orphan.write_text("{}", encoding="utf-8")
        unrelated = tmp_path / "notes.txt"
        unrelated.write_text("keep me", encoding="utf-8")
        removed = store.sweep()
        assert removed == [orphan]
        assert unrelated.exists()
        assert graph_to_dict(store.load_graph()) == graph_to_dict(
            analysis.graph
        )

    def test_tampered_segment_detected(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        segment = sorted(tmp_path.glob("seg_*.json"))[0]
        document = json.loads(segment.read_text(encoding="utf-8"))
        document["payload"]["nodes"][0]["id"] = "tampered"
        segment.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(StoreCorrupt, match="content hash mismatch"):
            store.load_graph()

    def test_truncated_segment_detected(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        segment = sorted(tmp_path.glob("seg_*.json"))[0]
        segment.write_bytes(segment.read_bytes()[:40])
        with pytest.raises(StoreCorrupt, match="not valid JSON"):
            store.load_graph()

    def test_missing_segment_detected(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        sorted(tmp_path.glob("seg_*.json"))[0].unlink()
        with pytest.raises(StoreCorrupt, match="cannot read segment"):
            store.load_graph()

    def test_tampered_manifest_detected(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        manifest = tmp_path / "manifest.json"
        document = json.loads(manifest.read_text(encoding="utf-8"))
        document["payload"]["graph_version"] = "0" * 16
        manifest.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(StoreCorrupt, match="content hash mismatch"):
            store.load_graph()

    def test_unsupported_schema_detected(self, analysis, tmp_path):
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        manifest = tmp_path / "manifest.json"
        document = json.loads(manifest.read_text(encoding="utf-8"))
        document["service_schema"] = 99
        manifest.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(StoreCorrupt, match="unsupported service schema"):
            store.manifest()

    def test_republish_heals_tampering(self, analysis, tmp_path):
        """write_if_changed compares content, not existence — a
        publish over a tampered store restores every byte."""
        store = EvolutionStore(tmp_path)
        store.publish(analysis)
        pristine = directory_bytes(tmp_path)
        segment = sorted(tmp_path.glob("seg_*.json"))[0]
        segment.write_text("garbage", encoding="utf-8")
        report = store.publish(analysis)
        assert segment.name in report.segments_written
        assert directory_bytes(tmp_path) == pristine


# -- hypothesis: round-trip over arbitrary analysis-shaped graphs -----------

ids = st.lists(
    st.text(alphabet="abcdefgh12345", min_size=1, max_size=4),
    min_size=1, max_size=4, unique=True,
)


@st.composite
def pattern_graphs(draw):
    """Small analysis-shaped graphs: ascending years, per-pair patterns
    over fresh id pools (the shape ``analyse_series`` produces)."""
    years = sorted(draw(st.lists(
        st.integers(min_value=1801, max_value=1901),
        min_size=2, max_size=4, unique=True,
    )))
    graph = EvolutionGraph()
    pools = {}
    for year in years:
        records = [f"r{year}_{i}" for i in draw(ids)]
        groups = [f"g{year}_{i}" for i in draw(ids)]
        pools[year] = (records, groups)
        graph.add_snapshot(year, records, groups)
    for old_year, new_year in zip(years, years[1:]):
        old_records, old_groups = pools[old_year]
        new_records, new_groups = pools[new_year]
        preserved_r = list(zip(old_records, new_records))[
            : draw(st.integers(0, min(len(old_records), len(new_records))))
        ]
        preserved_g = [(old_groups[0], new_groups[0])] if draw(
            st.booleans()
        ) else []
        splits = {}
        if len(old_groups) > 1 and len(new_groups) > 1 and draw(
            st.booleans()
        ):
            splits[old_groups[1]] = new_groups[:2]
        graph.add_pair_patterns(PairPatterns(
            old_year,
            new_year,
            RecordPatterns(preserved=preserved_r),
            GroupPatterns(preserved=preserved_g, splits=splits),
        ))
    return graph


@given(graph=pattern_graphs())
@settings(max_examples=25, deadline=None)
def test_store_round_trip_preserves_graph_to_dict(graph, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("store-prop")
    store = EvolutionStore(tmp)
    report = store.publish(graph)
    assert report.graph_version == graph_version_of(graph)
    assert graph_to_dict(store.load_graph()) == graph_to_dict(graph)
    assert store.publish(graph).is_noop
