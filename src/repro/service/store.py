"""EvolutionStore: a versioned on-disk evolution graph spanning censuses.

The evolution graph of a rolling census series is expensive to produce
(one linkage run per adjacent pair) and cheap to serve — provided it is
persisted in a layout a long-running service can reload, verify and
refresh incrementally.  This module is that layout:

* **Stable node IDs.**  Every household-year and person-year vertex gets
  a content-hash ID — :func:`node_id` over its canonical
  ``(kind, year, identifier)`` triple — so IDs never depend on insertion
  order, process, or Python hash seed, and two stores publishing the
  same graph agree byte for byte.

* **Per-year segments with prev/next temporal links.**  One document per
  census year (``seg_<year>_<digest>.json``) holds that year's node
  records (each with its sorted ``prev``/``next`` typed links into the
  neighbouring censuses), the ordered pattern edges *leaving* that year,
  and the year's slice of the preserve index.  When snapshot ``N+1``
  lands, only segment ``N`` (which gains ``next`` links) and the new
  segment ``N+1`` change — every other segment is byte-identical and is
  **not rewritten**.

* **A manifest as the commit point.**  Segments are content-addressed
  (the payload hash is part of the file name) and published manifest
  last (:func:`repro.ioutil.publish`); the manifest records the
  ``graph_version`` and every segment's name and hash.  Re-publishing
  the same analysis is a byte-level no-op.

* **Verified loads.**  Manifest and segments are the shared
  :class:`repro.ioutil.Envelope` with schema key ``service_schema``.
  :meth:`EvolutionStore.load_graph` also checks each segment's hash
  against the manifest's record and that the reconstructed graph
  reproduces the manifest's ``graph_version`` — any tampered or torn
  file raises :class:`StoreCorrupt` instead of serving a silently wrong
  graph.

``graph_version`` — :func:`repro.ioutil.content_hash` over
:func:`repro.evolution.io.graph_to_dict` — is the identity the query
service keys its result cache on (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..evolution.graph import EvolutionEdge, EvolutionGraph, Vertex
from ..evolution.io import graph_to_dict
from ..ioutil import (
    CorruptFile, Envelope, PathLike, Replace, UnsupportedSchema, WriteSeam,
    content_hash, publish, sweep,
)

#: On-disk document schema of manifests and segments.
SERVICE_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
SEGMENT_NAME_FORMAT = "seg_{year}_{digest}.json"
_SEGMENT_NAME_RE = re.compile(r"seg_(\d+)_([0-9a-f]{12})\.json")

#: Length of the short hashes used for node IDs and graph versions.
_SHORT_HASH = 16


class StoreError(RuntimeError):
    """Base class of evolution-store failures."""


class StoreMissing(StoreError):
    """The store directory holds no published manifest yet."""


class StoreCorrupt(StoreError, CorruptFile):
    """A manifest or segment failed its integrity verification."""


class StoreSchemaError(StoreCorrupt, UnsupportedSchema):
    """A manifest or segment declares an unsupported schema."""


#: The on-disk format of manifests and segments.
SERVICE_ENVELOPE = Envelope(
    "service_schema", SERVICE_SCHEMA_VERSION, "service",
    StoreCorrupt, StoreSchemaError,
)


def node_id(kind: str, year: int, identifier: str) -> str:
    """Stable content-hash ID of one entity-year vertex.

    A pure function of the canonical ``(kind, year, identifier)``
    triple; the same household-year resolves to the same ID in every
    process, publish and store.
    """
    return content_hash([kind, int(year), identifier])[:_SHORT_HASH]


def graph_version_of(graph: EvolutionGraph) -> str:
    """The version identity of a graph: content hash of its canonical
    JSON form (:func:`repro.evolution.io.graph_to_dict`)."""
    return content_hash(graph_to_dict(graph))[:_SHORT_HASH]


@dataclass
class PublishReport:
    """What one :meth:`EvolutionStore.publish` actually wrote."""

    graph_version: str
    #: Segment file names newly written by this publish.
    segments_written: List[str] = field(default_factory=list)
    #: Segment file names found on disk already byte-identical.
    segments_unchanged: List[str] = field(default_factory=list)
    manifest_written: bool = False

    @property
    def is_noop(self) -> bool:
        """True when the publish changed no byte on disk — the
        re-publish-same-analysis contract."""
        return not self.segments_written and not self.manifest_written


def _coerce_graph(source: Union[EvolutionGraph, object]) -> EvolutionGraph:
    """Accept an :class:`EvolutionGraph` or anything carrying one in a
    ``graph`` attribute (an :class:`~repro.evolution.analysis.EvolutionAnalysis`)."""
    if isinstance(source, EvolutionGraph):
        return source
    graph = getattr(source, "graph", None)
    if isinstance(graph, EvolutionGraph):
        return graph
    raise TypeError(
        f"expected an EvolutionGraph or EvolutionAnalysis, got "
        f"{type(source).__name__}"
    )


def _segment_payload(graph: EvolutionGraph, year: int) -> Dict[str, object]:
    """The canonical per-year segment: node documents with prev/next
    links, the ordered edges leaving this year, the preserve-index slice."""
    next_links: Dict[Vertex, List[List[str]]] = {}
    prev_links: Dict[Vertex, List[List[str]]] = {}
    edges: List[Dict[str, object]] = []
    for edge in graph.edges:
        if edge.source[1] == year:
            edges.append(
                {
                    "source": list(edge.source),
                    "target": list(edge.target),
                    "type": edge.edge_type,
                }
            )
            next_links.setdefault(edge.source, []).append(
                [edge.edge_type, node_id(*edge.target)]
            )
        if edge.target[1] == year:
            prev_links.setdefault(edge.target, []).append(
                [edge.edge_type, node_id(*edge.source)]
            )
    nodes = []
    for vertex in sorted(v for v in graph.vertices if v[1] == year):
        kind, _, identifier = vertex
        nodes.append(
            {
                "node": node_id(kind, year, identifier),
                "kind": kind,
                "id": identifier,
                "prev": sorted(prev_links.get(vertex, [])),
                "next": sorted(next_links.get(vertex, [])),
            }
        )
    preserve = sorted(
        [old_id, new_id]
        for (index_year, old_id), new_id in graph._preserve_index.items()
        if index_year == year
    )
    return {"year": year, "nodes": nodes, "edges": edges, "preserve": preserve}


class EvolutionStore:
    """One store directory: per-year segments plus a manifest commit
    point (module docstring).

    ``replace`` substitutes ``os.replace`` in every write
    (:class:`repro.ioutil.WriteSeam`, the fault seam).
    """

    def __init__(
        self, directory: PathLike, replace: Optional[Replace] = None
    ) -> None:
        self.directory = Path(directory)
        self.seam = WriteSeam(replace)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    # -- publishing -----------------------------------------------------------

    def publish(self, source: Union[EvolutionGraph, object]) -> PublishReport:
        """Persist a graph (or an analysis carrying one) as the store's
        current view.

        Segments first, manifest last; every write is atomic; files
        whose bytes are already correct are left untouched, so
        publishing an unchanged graph writes nothing and appending one
        snapshot rewrites exactly two segments plus the manifest.
        """
        graph = _coerce_graph(source)
        years_with_content = {vertex[1] for vertex in graph.vertices}
        years_with_content.update(edge.source[1] for edge in graph.edges)
        stray = years_with_content - set(graph.years)
        if stray:
            raise ValueError(
                f"graph has vertices or edges in years outside its "
                f"snapshot list: {sorted(stray)}"
            )
        version = graph_version_of(graph)
        segments: List[Dict[str, object]] = []

        def segment_files():
            for year in graph.years:
                text, digest = SERVICE_ENVELOPE.seal(
                    _segment_payload(graph, year)
                )
                name = SEGMENT_NAME_FORMAT.format(
                    year=year, digest=digest[:12]
                )
                segments.append({"year": year, "file": name, "hash": digest})
                yield self.directory / name, text, True

        def manifest() -> str:
            return SERVICE_ENVELOPE.dumps({
                "graph_version": version,
                "years": list(graph.years),
                "segments": segments,
                "counts": {
                    "vertices": len(graph.vertices),
                    "group_vertices": graph.num_group_vertices(),
                    "edges": len(graph.edges),
                },
            })

        written, unchanged, manifest_written = publish(
            self.seam, segment_files(), self.manifest_path, manifest
        )
        return PublishReport(
            graph_version=version,
            segments_written=[path.name for path in written],
            segments_unchanged=[path.name for path in unchanged],
            manifest_written=manifest_written,
        )

    # -- loading --------------------------------------------------------------

    def manifest(self) -> Dict[str, object]:
        """The verified manifest payload; :class:`StoreMissing` when the
        store has never published, :class:`StoreCorrupt` on tamper."""
        if not self.manifest_path.exists():
            raise StoreMissing(
                f"no manifest in {self.directory} — publish an analysis "
                f"first"
            )
        payload, _ = SERVICE_ENVELOPE.read(self.manifest_path, what="manifest")
        return payload

    def graph_version(self) -> Optional[str]:
        """The currently published graph version, or ``None`` for an
        empty store (corruption still raises)."""
        try:
            manifest = self.manifest()
        except StoreMissing:
            return None
        with SERVICE_ENVELOPE.malformed(self.manifest_path, "manifest"):
            return str(manifest["graph_version"])

    def _load_segment(
        self, entry: Dict[str, object]
    ) -> Tuple[Path, Dict[str, object]]:
        """The verified payload of one manifest segment entry."""
        with SERVICE_ENVELOPE.malformed(self.manifest_path, "manifest"):
            path = self.directory / str(entry["file"])
            declared = entry.get("hash")
        payload, digest = SERVICE_ENVELOPE.read(path, what="segment")
        if digest != declared:
            raise StoreCorrupt(
                path,
                f"segment does not match the manifest: manifest records "
                f"hash {declared}, file holds {digest}",
            )
        return path, payload

    def load_graph(self) -> EvolutionGraph:
        """Rebuild the published graph, fully verified.

        The per-segment envelope hashes catch byte tampering, the
        manifest cross-check catches a segment swapped for a valid
        document of different content, and the final graph-version
        recomputation proves the reconstruction reproduces exactly what
        was published.
        """
        manifest = self.manifest()
        graph = EvolutionGraph()
        with SERVICE_ENVELOPE.malformed(self.manifest_path, "manifest"):
            graph.years = [int(year) for year in manifest["years"]]
            segment_entries = list(manifest["segments"])
            declared_version = str(manifest["graph_version"])
        for entry in segment_entries:
            path, payload = self._load_segment(entry)
            with SERVICE_ENVELOPE.malformed(path, "segment"):
                year = int(payload["year"])
                for node in payload["nodes"]:
                    graph.vertices.add(
                        (str(node["kind"]), year, str(node["id"]))
                    )
                for item in payload["edges"]:
                    source = item["source"]
                    target = item["target"]
                    graph.edges.append(
                        EvolutionEdge(
                            (str(source[0]), int(source[1]), str(source[2])),
                            (str(target[0]), int(target[1]), str(target[2])),
                            str(item["type"]),
                        )
                    )
                for old_id, new_id in payload["preserve"]:
                    graph._preserve_index[(year, str(old_id))] = str(new_id)
        actual_version = graph_version_of(graph)
        if actual_version != declared_version:
            raise StoreCorrupt(
                self.manifest_path,
                f"reconstructed graph version {actual_version} does not "
                f"reproduce the published {declared_version}: the store "
                f"content and manifest disagree",
            )
        return graph

    # -- point lookup ---------------------------------------------------------

    def lookup_node(
        self, kind: str, year: int, identifier: str
    ) -> Optional[Dict[str, object]]:
        """One entity-year node document — ID, prev/next links — read
        from just its year's segment, without loading the whole graph."""
        manifest = self.manifest()
        wanted = node_id(kind, year, identifier)
        for entry in manifest.get("segments", []):
            if int(entry.get("year", -1)) != int(year):
                continue
            _, payload = self._load_segment(entry)
            for node in payload.get("nodes", []):
                if node.get("node") == wanted:
                    return dict(node)
        return None

    # -- housekeeping ---------------------------------------------------------

    def sweep(self) -> List[Path]:
        """Delete orphan segment files older publishes (or crashes
        mid-publish) left behind; returns the removed paths.  Never
        touches the current view, unknown files or in-flight temps."""
        try:
            segments = self.manifest().get("segments", [])
        except StoreMissing:
            segments = []
        keep = {str(entry["file"]) for entry in segments}
        return sweep(self.directory, _SEGMENT_NAME_RE, keep)
