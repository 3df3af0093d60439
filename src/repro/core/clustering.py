"""Clustering of a δ round's matched pairs (Section 3.2), in row space.

The paper clusters matching record pairs by connected components and
gives every record its cluster's label (Fig. 3).  With frequent names
and relaxed thresholds this chains unrelated records into mega-clusters
("every John is one label"), which both slows subgraph matching down
and dilutes the uniqueness score.  Two standard entity-resolution
alternatives are provided:

* **center clustering** — pairs are processed by descending similarity;
  the first record of a new cluster becomes its *center*, and other
  records join only through a direct match with the center.
* **star clustering** — high-degree records become star centers and
  every other record attaches to its best-matching center.

Both produce strictly finer clusterings than connected components.  The
pipeline's ``LinkageConfig.clustering`` selects the strategy.

:func:`cluster_records` works on the round's pair table
(:class:`~repro.core.pairtable.PairTable`): the matched pairs are pair
ids, and the result is one label per row of each side.  Records are
*nodes*, numbered by their position in the sorted union of the table's
two id lists (:meth:`~repro.core.pairtable.PairTable.nodes`), so an old
and a new record with the same id are one node, a cluster's smallest
node is its smallest member id, and labels number the clusters by it —
the order Fig. 3 lists them in.  Connected components are computed with
numpy by hooking roots onto their smallest neighbouring root and
jumping pointers, and without it by an integer union-find; center and
star clustering walk the pairs in (descending score, pair id) order,
which is (descending score, old id, new id) order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .pairtable import numpy_or_none, view

#: Strategy names accepted by :func:`cluster_records`.
CONNECTED_COMPONENTS = "connected-components"
CENTER = "center"
STAR = "star"

ALL_STRATEGIES = (CONNECTED_COMPONENTS, CENTER, STAR)

#: A matched pair as ``(old node, new node, score)``.
Edge = Tuple[int, int, float]


def _hooked_roots(np, count: int, left, right):
    """Each node's root, the smallest node of its connected component,
    over the edges ``left[i] — right[i]`` (int64 arrays).

    Every root is hooked onto the smallest root it shares an edge with,
    then pointers jump until each node points at a root; the rounds end
    when no edge joins two roots.  A pointer only ever moves to a smaller
    node, so the root left in each component is its smallest node."""
    parent = np.arange(count, dtype=np.int64)
    while len(left):
        left_root, right_root = parent[left], parent[right]
        apart = left_root != right_root
        if not apart.any():
            break
        left_root, right_root = left_root[apart], right_root[apart]
        np.minimum.at(
            parent,
            np.maximum(left_root, right_root),
            np.minimum(left_root, right_root),
        )
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        left, right = left[apart], right[apart]
    return parent


def _union_find_roots(count: int, left, right) -> List[int]:
    """:func:`_hooked_roots` by an integer union-find (no numpy): the
    smaller root always wins, paths are halved on the way up."""
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for old_node, new_node in zip(left, right):
        old_root, new_root = find(old_node), find(new_node)
        if old_root < new_root:
            parent[new_root] = old_root
        elif new_root < old_root:
            parent[old_root] = new_root
    return [find(node) for node in range(count)]


def _center_owners(order: List[Edge]) -> Dict[int, int]:
    """Center clustering over the matched pairs in walking order: each
    assigned node's center.  A node joins a cluster only through the
    cluster's center; a pair of two free nodes opens a cluster centered
    on the smaller one."""
    center_of: Dict[int, int] = {}
    for old_node, new_node, _ in order:
        old_center = center_of.get(old_node)
        new_center = center_of.get(new_node)
        if old_center is None and new_center is None:
            center = min(old_node, new_node)
            center_of[old_node] = center_of[new_node] = center
        elif old_center is None:
            if new_center == new_node:  # joining via the center is allowed
                center_of[old_node] = new_center
        elif new_center is None:
            if old_center == old_node:
                center_of[new_node] = old_center
        # Both already assigned: clusters stay as they are.
    return center_of


def _star_owners(order: List[Edge]) -> Dict[int, int]:
    """Star clustering over the matched pairs in walking order: each
    center owns itself, each satellite belongs to its best-scoring
    center (the first of equal scores)."""
    is_center = set()
    best: Dict[int, Tuple[float, int]] = {}

    def attach(node: int, center: int, score: float) -> None:
        current = best.get(node)
        if current is None or score > current[0]:
            best[node] = (score, center)

    # A pair of two free nodes founds a new star; nodes adjacent to a
    # center become satellites of their best star.
    for old_node, new_node, score in order:
        old_free = old_node not in is_center and old_node not in best
        new_free = new_node not in is_center and new_node not in best
        if old_free and new_free:
            center = min(old_node, new_node)
            is_center.add(center)
            if old_node != new_node:
                attach(max(old_node, new_node), center, score)
        elif old_free and new_node in is_center:
            attach(old_node, new_node, score)
        elif new_free and old_node in is_center:
            attach(new_node, old_node, score)
        elif old_node in best and new_node in is_center:
            attach(old_node, new_node, score)
        elif new_node in best and old_node in is_center:
            attach(new_node, old_node, score)
    owners = {center: center for center in is_center}
    owners.update((node, center) for node, (_, center) in best.items())
    return owners


#: Strategy → the walk that assigns nodes to their cluster's owner.
_OWNERS = {CENTER: _center_owners, STAR: _star_owners}


def _least_members(count: int, owners: Dict[int, int]) -> List[int]:
    """Each node's cluster as its smallest node, from the owner of every
    assigned node; unassigned nodes are singletons."""
    least: Dict[int, int] = {}
    for node in sorted(owners):
        least.setdefault(owners[node], node)
    roots = list(range(count))
    for node, owner in owners.items():
        roots[node] = least[owner]
    return roots


def cluster_records(
    table, frontier, pids, scores, strategy: str = CONNECTED_COMPONENTS
):
    """Cluster a round's records by its matched pairs (§3.2, Fig. 3).

    ``table`` is the round's :class:`~repro.core.pairtable.PairTable`,
    ``frontier`` the round's ``(old mask, new mask)`` over its rows
    (:meth:`~repro.core.pairtable.PairTable.frontier`), ``pids`` the
    pair ids, ascending, of the candidates that reach δ and ``scores``
    their ``agg_sim`` in the same order (read by center and star
    clustering only).

    Returns the cluster label of every old row and of every new row.
    Every frontier record is labelled — unmatched ones as singleton
    clusters, exactly as Fig. 3 requires — and clusters are numbered
    from 0 by their smallest member id; a record off the frontier gets
    -1 (unless the other side's record of the same id is on it).  Two
    int64 numpy arrays, or two lists without numpy.
    """
    if strategy not in ALL_STRATEGIES:
        raise ValueError(
            f"unknown clustering strategy {strategy!r}; choose from "
            f"{ALL_STRATEGIES}"
        )
    old_node, new_node, node_ids = table.nodes()
    count = len(node_ids)
    old_mask, new_mask = frontier
    old_rows, new_rows = table.rows(pids)
    np = numpy_or_none()
    if np is None:
        left = [old_node[row] for row in old_rows]
        right = [new_node[row] for row in new_rows]
        if strategy == CONNECTED_COMPONENTS:
            roots = _union_find_roots(count, left, right)
        else:
            # sorted() is stable: equal scores keep pair-id order.
            order = sorted(
                zip(left, right, scores), key=lambda edge: -edge[2]
            )
            roots = _least_members(count, _OWNERS[strategy](order))
        in_frontier = bytearray(count)
        for nodes, mask in ((old_node, old_mask), (new_node, new_mask)):
            for node, flag in zip(nodes, mask):
                if flag:
                    in_frontier[node] = 1
        # A frontier node's root is a frontier node (pairs join frontier
        # records only): number the roots in node order.
        rank: Dict[int, int] = {}
        for node in range(count):
            if in_frontier[node] and roots[node] == node:
                rank[node] = len(rank)
        labels = [
            rank[roots[node]] if in_frontier[node] else -1
            for node in range(count)
        ]
        return (
            [labels[node] for node in old_node],
            [labels[node] for node in new_node],
        )
    old_node = view(old_node, np.int64)
    new_node = view(new_node, np.int64)
    left, right = old_node[old_rows], new_node[new_rows]
    if strategy == CONNECTED_COMPONENTS:
        roots = _hooked_roots(np, count, left, right)
    else:
        order = np.argsort(-scores, kind="stable")
        roots = np.array(_least_members(count, _OWNERS[strategy](list(zip(
            left[order].tolist(), right[order].tolist(),
            scores[order].tolist(),
        )))), dtype=np.int64)
    in_frontier = np.zeros(count, dtype=bool)
    in_frontier[old_node[view(old_mask, np.bool_)]] = True
    in_frontier[new_node[view(new_mask, np.bool_)]] = True
    rank = np.cumsum(in_frontier & (roots == np.arange(count))) - 1
    labels = np.where(in_frontier, rank[roots], -1)
    return labels[old_node], labels[new_node]
