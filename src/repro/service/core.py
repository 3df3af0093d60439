"""EvolutionQueryService: the sans-IO core of the evolution-graph API.

The HTTP (:mod:`repro.service.http`) and ASGI (:mod:`repro.service.asgi`)
layers are thin byte shovels; everything observable about the API —
routing, parameter validation, pagination, serialization, caching —
lives here in plain synchronous code.  That split is what makes the
query-identity differential possible: tests and
``service_vs_inprocess`` in ``tests/differential.py`` drive
:meth:`EvolutionQueryService.handle_request` directly and compare every
endpoint's items to the corresponding in-process
:mod:`repro.evolution.queries` call, serialized by the same row
functions the service itself uses (:func:`step_rows`, :func:`path_rows`,
:func:`edge_rows`, :func:`frequency_rows`, :func:`sequence_rows`).

**Response identity.**  Bodies are canonical JSON (sorted keys, compact
separators, trailing newline) — a pure function of ``(graph_version,
query)``.  That purity is the licence for the LRU result cache: entries
are keyed on ``(graph_version, normalized target)``, so a store refresh
that changes the graph can never serve a stale body — the version in
the key no longer matches — and cache-on vs cache-off byte-identity is
a tested invariant, not an aspiration.

**Pagination.**  Every list endpoint accepts ``offset``/``limit`` and
wraps its items as ``{"graph_version", "total", "offset", "limit",
"items"}``; ``limit=0`` (the default) returns everything, so the union
of pages is provably equal to the unpaginated result.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from ..evolution.graph import EvolutionEdge, EvolutionGraph
from ..evolution.patterns import GROUP_PATTERN_TYPES
from ..evolution.queries import (
    DEFAULT_MAX_DEPTH,
    TimelineStep,
    WalkDepthExceeded,
    frequent_change_sequences,
    group_neighborhood,
    household_lineage,
    person_timeline,
    preserve_chains,
)
from .store import EvolutionStore, StoreError, graph_version_of

#: Result-cache entries kept per service (LRU beyond this).
DEFAULT_CACHE_SIZE = 1024

#: ``limit`` when the client sends none: 0 = unlimited, so a plain GET
#: is the unpaginated ground truth the pagination tests union against.
DEFAULT_PAGE_SIZE = 0


class ApiError(Exception):
    """A client-visible request failure with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


# -- canonical serialization --------------------------------------------------


def canonical_json(payload: object) -> bytes:
    """The service's one body encoding: sorted keys, compact, newline."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"),
                   allow_nan=False) + "\n"
    ).encode("utf-8")


def step_rows(steps: Sequence[TimelineStep]) -> List[Dict[str, object]]:
    """Timeline steps as JSON rows (shared with the differential)."""
    return [
        {"year": step.year, "id": step.identifier,
         "edge_type": step.edge_type}
        for step in steps
    ]


def path_rows(
    paths: Sequence[Sequence[TimelineStep]],
) -> List[List[Dict[str, object]]]:
    """Lineage paths / preserve chains as lists of step rows."""
    return [step_rows(path) for path in paths]


def edge_rows(edges: Sequence[EvolutionEdge]) -> List[Dict[str, object]]:
    """Typed edges as JSON rows."""
    return [
        {"source": list(edge.source), "target": list(edge.target),
         "type": edge.edge_type}
        for edge in edges
    ]


def frequency_rows(
    counts_by_pair: Dict[Tuple[int, int], Dict[str, int]],
) -> List[Dict[str, object]]:
    """Per-census-pair pattern counts as sorted JSON rows."""
    return [
        {"old_year": old_year, "new_year": new_year,
         "counts": dict(counts)}
        for (old_year, new_year), counts in sorted(counts_by_pair.items())
    ]


def sequence_rows(sequences) -> List[Dict[str, object]]:
    """A change-sequence counter as deterministic JSON rows, most
    frequent first (ties broken by the sequence itself)."""
    return [
        {"sequence": list(sequence), "count": count}
        for sequence, count in sorted(
            sequences.items(), key=lambda item: (-item[1], item[0])
        )
    ]


# -- parameter parsing --------------------------------------------------------


def _int_param(
    params: Dict[str, str],
    name: str,
    default: int,
    minimum: int = 0,
) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(400, f"{name} must be an integer, got {raw!r}")
    if value < minimum:
        raise ApiError(400, f"{name} must be >= {minimum}, got {value}")
    return value


def _year_segment(segment: str) -> int:
    try:
        return int(segment)
    except ValueError:
        raise ApiError(400, f"year must be an integer, got {segment!r}")


class EvolutionQueryService:
    """Route evolution-graph queries, paginate, cache (module docstring).

    ``source`` is an :class:`~repro.service.store.EvolutionStore` (the
    production path: the graph is loaded now and re-loaded by
    :meth:`refresh` when a publish lands) or a bare
    :class:`~repro.evolution.graph.EvolutionGraph` for in-process use.
    """

    def __init__(
        self,
        source: Union[EvolutionStore, EvolutionGraph],
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_enabled: bool = True,
    ) -> None:
        if isinstance(source, EvolutionStore):
            self._store: Optional[EvolutionStore] = source
            self.graph = source.load_graph()
        else:
            self._store = None
            self.graph = source
        self.graph_version = graph_version_of(self.graph)
        self.cache_enabled = cache_enabled and cache_size != 0
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[str, str], Tuple[int, bytes]]" = (
            OrderedDict()
        )
        self.stats: Dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "refreshes": 0,
            "refreshes_noop": 0,
            "refresh_failures": 0,
        }

    # -- refresh --------------------------------------------------------------

    def refresh(self) -> bool:
        """Reload the store view if a newer publish landed.

        Returns whether the served graph changed.  A corrupt store is a
        *fallback*, not an outage: the error is counted and the service
        keeps answering from the last good graph.  The result cache is
        cleared on change — entries were keyed on the old
        ``graph_version`` and can only waste memory now.
        """
        if self._store is None:
            return False
        try:
            published = self._store.graph_version()
            if published == self.graph_version:
                self.stats["refreshes_noop"] += 1
                return False
            graph = self._store.load_graph()
        except StoreError:
            self.stats["refresh_failures"] += 1
            return False
        self.graph = graph
        self.graph_version = graph_version_of(graph)
        self._cache.clear()
        self.stats["refreshes"] += 1
        return True

    # -- request entry point --------------------------------------------------

    def handle_request(self, method: str, target: str) -> Tuple[int, bytes]:
        """One request in, ``(status, canonical JSON body)`` out."""
        self.stats["requests"] += 1
        split = urlsplit(target)
        path = split.path
        try:
            params = dict(parse_qsl(split.query, keep_blank_values=True))
        except ValueError:
            return 400, canonical_json({"error": "malformed query string"})
        if method == "POST":
            if path == "/refresh":
                changed = self.refresh()
                return 200, canonical_json(
                    {"refreshed": changed,
                     "graph_version": self.graph_version}
                )
            return 405, canonical_json({"error": "method not allowed"})
        if method != "GET":
            return 405, canonical_json({"error": "method not allowed"})
        if path in ("/health", "/stats"):
            return 200, canonical_json(self._meta_payload(path))
        cache_key = (self.graph_version, self._normalize(path, params))
        if self.cache_enabled:
            cached = self._cache.get(cache_key)
            if cached is not None:
                self._cache.move_to_end(cache_key)
                self.stats["cache_hits"] += 1
                return cached
            self.stats["cache_misses"] += 1
        try:
            status, payload = 200, self._route(path, params)
        except ApiError as error:
            status, payload = error.status, {"error": error.message}
        except WalkDepthExceeded as error:
            status, payload = 422, {"error": str(error)}
        body = canonical_json(payload)
        if self.cache_enabled and status == 200:
            self._cache[cache_key] = (status, body)
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return status, body

    @staticmethod
    def _normalize(path: str, params: Dict[str, str]) -> str:
        """Parameter order never splits the cache."""
        return path + "?" + "&".join(
            f"{key}={value}" for key, value in sorted(params.items())
        )

    # -- routing --------------------------------------------------------------

    def _route(self, path: str, params: Dict[str, str]) -> Dict[str, object]:
        segments = [seg for seg in path.split("/") if seg]
        if path == "/graph":
            return self._graph_meta()
        if path == "/chains/preserve":
            return self._chains(params)
        if path == "/patterns/frequencies":
            return self._frequencies(params)
        if path == "/patterns/sequences":
            return self._sequences(params)
        if len(segments) == 4 and segments[0] == "households":
            year = _year_segment(segments[1])
            if segments[3] == "lineage":
                return self._lineage(year, segments[2], params)
            if segments[3] == "neighborhood":
                return self._neighborhood(year, segments[2], params)
        if (
            len(segments) == 4
            and segments[0] == "persons"
            and segments[3] == "timeline"
        ):
            return self._timeline(_year_segment(segments[1]), segments[2],
                                  params)
        raise ApiError(404, f"no such endpoint: {path}")

    # -- endpoints ------------------------------------------------------------

    def _meta_payload(self, path: str) -> Dict[str, object]:
        if path == "/health":
            return {"status": "ok", "graph_version": self.graph_version}
        hits, misses = self.stats["cache_hits"], self.stats["cache_misses"]
        looked_up = hits + misses
        return {
            "graph_version": self.graph_version,
            "cache_enabled": self.cache_enabled,
            "cache_entries": len(self._cache),
            "cache_hit_rate": (hits / looked_up) if looked_up else 0.0,
            **self.stats,
        }

    def _graph_meta(self) -> Dict[str, object]:
        edge_counts: Dict[str, int] = {}
        for edge in self.graph.edges:
            edge_counts[edge.edge_type] = edge_counts.get(edge.edge_type, 0) + 1
        return {
            "graph_version": self.graph_version,
            "years": list(self.graph.years),
            "vertices": len(self.graph.vertices),
            "group_vertices": self.graph.num_group_vertices(),
            "record_vertices": (
                len(self.graph.vertices) - self.graph.num_group_vertices()
            ),
            "edges": len(self.graph.edges),
            "edge_counts": edge_counts,
        }

    def _paginate(
        self, items: List[object], params: Dict[str, str]
    ) -> Dict[str, object]:
        offset = _int_param(params, "offset", 0)
        limit = _int_param(params, "limit", DEFAULT_PAGE_SIZE)
        page = items[offset:] if limit == 0 else items[offset:offset + limit]
        return {
            "graph_version": self.graph_version,
            "total": len(items),
            "offset": offset,
            "limit": limit,
            "items": page,
        }

    def _max_depth(self, params: Dict[str, str]) -> int:
        return _int_param(params, "max_depth", DEFAULT_MAX_DEPTH, minimum=1)

    def _require_vertex(self, kind: str, year: int, identifier: str) -> None:
        if (kind, year, identifier) not in self.graph.vertices:
            raise ApiError(
                404, f"no {kind} vertex ({year}, {identifier!r}) in the graph"
            )

    def _lineage(
        self, year: int, household_id: str, params: Dict[str, str]
    ) -> Dict[str, object]:
        self._require_vertex("group", year, household_id)
        paths = household_lineage(
            self.graph, year, household_id, max_depth=self._max_depth(params)
        )
        return self._paginate(path_rows(paths), params)

    def _timeline(
        self, year: int, record_id: str, params: Dict[str, str]
    ) -> Dict[str, object]:
        self._require_vertex("record", year, record_id)
        steps = person_timeline(
            self.graph, year, record_id, max_depth=self._max_depth(params)
        )
        return self._paginate(step_rows(steps), params)

    def _neighborhood(
        self, year: int, household_id: str, params: Dict[str, str]
    ) -> Dict[str, object]:
        self._require_vertex("group", year, household_id)
        radius = _int_param(params, "radius", 1)
        types_raw = params.get("types")
        edge_types: Optional[Sequence[str]] = None
        if types_raw is not None:
            edge_types = [part for part in types_raw.split(",") if part]
            unknown = set(edge_types) - set(GROUP_PATTERN_TYPES)
            if unknown:
                raise ApiError(
                    400,
                    f"unknown edge types: {', '.join(sorted(unknown))} "
                    f"(known: {', '.join(GROUP_PATTERN_TYPES)})",
                )
        edges = group_neighborhood(
            self.graph,
            year,
            household_id,
            radius=radius,
            edge_types=edge_types,
            max_depth=self._max_depth(params),
        )
        return self._paginate(edge_rows(edges), params)

    def _chains(self, params: Dict[str, str]) -> Dict[str, object]:
        min_length = _int_param(params, "min_length", 1, minimum=1)
        chains = preserve_chains(
            self.graph, min_length=min_length,
            max_depth=self._max_depth(params),
        )
        return self._paginate(path_rows(chains), params)

    def _frequencies(self, params: Dict[str, str]) -> Dict[str, object]:
        rows = frequency_rows(self.graph.pattern_counts_by_pair())
        return self._paginate(rows, params)

    def _sequences(self, params: Dict[str, str]) -> Dict[str, object]:
        length = _int_param(params, "length", 2, minimum=1)
        rows = sequence_rows(
            frequent_change_sequences(
                self.graph, length=length, max_depth=self._max_depth(params)
            )
        )
        return self._paginate(rows, params)
