"""Id-based clustering of matched pairs: the reference the row-space
clustering is checked against.

:func:`repro.core.clustering.cluster_records` clusters a round's
matched pair ids over the nodes of its pair table and returns one label
per table row.  The functions here do the same work the plain way, over
record ids: a string-keyed union-find for connected components, and
center and star clustering walking ``(score, old id, new id)`` triples
by descending score, then ids.  Each returns the clusters as sorted
member lists ordered by their smallest member; a record's label is its
cluster's position in that list.

One deliberate difference from the code this replaced: when a matched
pair joins an old and a new record of the same id, center and star
clustering used to list that id twice in its cluster (and count it
twice in ``cluster_size``).  Here, as in connected components and in
the row-space code, one id is one member.
"""

from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.clustering import ALL_STRATEGIES, CENTER, CONNECTED_COMPONENTS
from repro.graphutil.union_find import UnionFind


def _connected_component_clusters(
    record_ids: List[str], matched_pairs: List[Tuple[str, str]]
) -> List[List[str]]:
    union_find: UnionFind[str] = UnionFind(record_ids)
    for old_id, new_id in matched_pairs:
        union_find.union(old_id, new_id)
    return union_find.groups()


def _center_clusters(
    record_ids: List[str],
    scored_pairs: List[Tuple[float, str, str]],
) -> List[List[str]]:
    """Center clustering: join a cluster only via its center record."""
    center_of: Dict[str, str] = {}
    members: Dict[str, List[str]] = defaultdict(list)

    def assign(record_id: str, center: str) -> None:
        center_of[record_id] = center
        members[center].append(record_id)

    for _, old_id, new_id in scored_pairs:
        old_center = center_of.get(old_id)
        new_center = center_of.get(new_id)
        if old_center is None and new_center is None:
            # The (lexicographically smaller) record becomes the center.
            center = min(old_id, new_id)
            other = new_id if center == old_id else old_id
            assign(center, center)
            if other != center:
                assign(other, center)
        elif old_center is None and new_center is not None:
            if new_center == new_id:  # joining via the center is allowed
                assign(old_id, new_center)
        elif new_center is None and old_center is not None:
            if old_center == old_id:
                assign(new_id, old_center)
        # Both already assigned: clusters stay as they are.

    for record_id in record_ids:
        if record_id not in center_of:
            assign(record_id, record_id)
    clusters = [sorted(group) for group in members.values() if group]
    return sorted(clusters, key=lambda group: group[0])


def _star_clusters(
    record_ids: List[str],
    scored_pairs: List[Tuple[float, str, str]],
) -> List[List[str]]:
    """Star clustering: satellites pick their best-scoring center."""
    is_center: Set[str] = set()
    is_satellite: Set[str] = set()
    best_center: Dict[str, Tuple[float, str]] = {}

    def try_attach(record_id: str, center: str, score: float) -> None:
        is_satellite.add(record_id)
        current = best_center.get(record_id)
        if current is None or score > current[0]:
            best_center[record_id] = (score, center)

    # Pairs in descending score order: unassigned pairs found a new star,
    # records adjacent to a center become satellites of their best star.
    for score, old_id, new_id in scored_pairs:
        old_free = old_id not in is_center and old_id not in is_satellite
        new_free = new_id not in is_center and new_id not in is_satellite
        if old_free and new_free:
            center = min(old_id, new_id)
            satellite = new_id if center == old_id else old_id
            is_center.add(center)
            if satellite != center:
                try_attach(satellite, center, score)
        elif old_free and new_id in is_center:
            try_attach(old_id, new_id, score)
        elif new_free and old_id in is_center:
            try_attach(new_id, old_id, score)
        elif old_id in is_satellite and new_id in is_center:
            try_attach(old_id, new_id, score)
        elif new_id in is_satellite and old_id in is_center:
            try_attach(new_id, old_id, score)

    members: Dict[str, List[str]] = defaultdict(list)
    for center in is_center:
        members[center].append(center)
    for satellite in is_satellite:
        members[best_center[satellite][1]].append(satellite)
    for record_id in record_ids:
        if record_id not in is_center and record_id not in is_satellite:
            members[record_id].append(record_id)
    clusters = [sorted(group) for group in members.values() if group]
    return sorted(clusters, key=lambda group: group[0])


def cluster_records(
    record_ids: Iterable[str],
    scores: Dict[Tuple[str, str], float],
    threshold: float,
    strategy: str = CONNECTED_COMPONENTS,
) -> List[List[str]]:
    """Cluster records from scored candidate pairs (§3.2, Fig. 3).

    ``scores`` maps (old id, new id) candidate pairs to ``agg_sim``;
    only pairs at or above ``threshold`` participate.  Singleton
    clusters are emitted for unmatched records, exactly as the paper's
    Fig. 3 labels require.  An old and a new record of the same id are
    one record.
    """
    if strategy not in ALL_STRATEGIES:
        raise ValueError(f"unknown clustering strategy {strategy!r}")
    ids = sorted(set(record_ids))
    matched = sorted(
        (pair for pair, score in scores.items() if score >= threshold)
    )
    if strategy == CONNECTED_COMPONENTS:
        return _connected_component_clusters(ids, matched)
    scored = sorted(
        ((scores[pair], pair[0], pair[1]) for pair in matched),
        key=lambda item: (-item[0], item[1], item[2]),
    )
    if strategy == CENTER:
        return _center_clusters(ids, scored)
    return _star_clusters(ids, scored)


def labels_of(clusters: List[List[str]]) -> Dict[str, int]:
    """Record id → label: its cluster's position in ``clusters``."""
    return {
        record_id: label
        for label, members in enumerate(clusters)
        for record_id in members
    }
