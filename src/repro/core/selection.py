"""Greedy selection of group links under record disjointness (Alg. 2).

Scored subgraphs are consumed from a priority queue in descending
``g_sim`` order.  A subgraph is accepted only when none of its old or new
records has been claimed by a previously accepted subgraph — this keeps
the derived record mapping 1:1 while still allowing N:M group mappings
(two subgraphs of the same old group may both win if their record sets
are disjoint, which is exactly a household split).

Two conflict policies are supported:

* **reject** (the default, Alg. 2 as reproduced since the seed): a
  popped subgraph that overlaps previously claimed records is rejected
  outright.
* **lazy requeue** (``requeue_stale=True``, closer to the paper's queue
  update in Alg. 2): a popped conflicting subgraph is *trimmed* — the
  already-consumed vertices and their incident edges are dropped, fresh
  vertices left without structural evidence are pruned exactly as
  :func:`repro.core.subgraph.assemble_subgraph` would prune them — then
  re-scored (Eq. 4–7) and pushed back.  Conflicting candidates are thus
  re-scored only when popped (a stale-entry check), never eagerly
  rebuilt.  Every requeue strictly shrinks the subgraph, so the loop
  terminates; a stale entry can never emit a link referencing an
  already-consumed record because the consumed vertices are removed
  before the entry re-enters the queue, and the pop-time conflict check
  runs again on every pop.

The priority-queue key is explicit and content-based —
``(-g_sim, -size, old group id, new group id, vertices)`` — so the
selection outcome is independent of both the candidate input order and
the interpreter's hash seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..instrumentation import QUEUE_POPS, SELECTION_REQUEUES, Instrumentation
from ..model.mappings import GroupMapping, RecordMapping
from .subgraph import SubgraphMatch, prune_fresh_vertices


@dataclass
class SelectionResult:
    """Accepted group links and the subgraphs that justify them.

    Under the lazy-requeue policy, ``accepted`` may contain *trimmed*
    variants of the input subgraphs (same group pair, fewer vertices);
    :meth:`disjointness_violations` re-derives record disjointness from
    whatever was accepted, so the check covers the requeue path too.
    """

    group_mapping: GroupMapping = field(default_factory=GroupMapping)
    accepted: List[SubgraphMatch] = field(default_factory=list)
    rejected: List[SubgraphMatch] = field(default_factory=list)

    def extract_record_mapping(self) -> RecordMapping:
        """Record links contained in the accepted subgraphs (Alg. 1 l.11).

        Anchor vertices are already part of the overall record mapping
        from earlier rounds and are not extracted again.
        """
        mapping = RecordMapping()
        for subgraph in self.accepted:
            for old_id, new_id in subgraph.new_link_vertices:
                mapping.add(old_id, new_id)
        return mapping

    def disjointness_violations(self) -> List[str]:
        """Record ids claimed by more than one accepted subgraph.

        Alg. 2 guarantees this list is empty; the validation layer
        re-derives it from the accepted subgraphs instead of trusting the
        selection loop, so a future refactor of the queue logic cannot
        silently break record-disjoint consumption (§3.4).  The walk is
        in acceptance order, which makes it exactly the check that a
        stale requeued entry never re-emitted a link referencing a
        record some earlier-accepted subgraph already consumed.
        """
        seen_old: Set[str] = set()
        seen_new: Set[str] = set()
        duplicated: List[str] = []
        for subgraph in self.accepted:
            for old_id, new_id in subgraph.new_link_vertices:
                if old_id in seen_old:
                    duplicated.append(old_id)
                if new_id in seen_new:
                    duplicated.append(new_id)
                seen_old.add(old_id)
                seen_new.add(new_id)
        return duplicated


#: Priority-queue key: best (highest g_sim, then largest, then smallest
#: group-id pair, then smallest vertex list) pops first.  Content-based —
#: no input positions, no hash-order — so selection is deterministic
#: under candidate shuffling and PYTHONHASHSEED variation.  The trailing
#: sequence number only separates entries whose content is fully
#: identical (either order then yields the same mapping).
QueueKey = Tuple[float, int, str, str, Tuple[Tuple[str, str], ...], int]


def _queue_key(subgraph: SubgraphMatch, sequence: int) -> QueueKey:
    return (
        -subgraph.g_sim,
        -len(subgraph.vertices),
        subgraph.old_group_id,
        subgraph.new_group_id,
        tuple(subgraph.vertices),
        sequence,
    )


def _trim_consumed(
    subgraph: SubgraphMatch,
    claimed_old: Set[str],
    claimed_new: Set[str],
    allow_singleton: bool,
) -> Optional[SubgraphMatch]:
    """The subgraph minus its already-consumed fresh vertices, or ``None``.

    Anchors always survive and edges are kept only between surviving
    vertices; then the prune rule of
    :func:`repro.core.subgraph.assemble_subgraph` applies
    (:func:`~repro.core.subgraph.prune_fresh_vertices`).  Returns
    ``None`` when no fresh vertex would remain, i.e. the subgraph can no
    longer contribute a new record link.  Score fields are zeroed; the
    caller re-scores (Eq. 4–7).
    """
    keep = [
        index
        for index, (old_id, new_id) in enumerate(subgraph.vertices)
        if index < subgraph.num_anchors
        or not (old_id in claimed_old or new_id in claimed_new)
    ]
    remap = {old_index: new_index for new_index, old_index in enumerate(keep)}
    kept = prune_fresh_vertices(
        [subgraph.vertices[index] for index in keep],
        [
            (remap[index_a], remap[index_b], rp_sim)
            for index_a, index_b, rp_sim in subgraph.edges
            if index_a in remap and index_b in remap
        ],
        subgraph.num_anchors,
        allow_singleton,
    )
    if kept is None:
        return None
    return replace(
        subgraph,
        vertices=kept[0],
        edges=kept[1],
        avg_sim=0.0,
        e_sim=0.0,
        unique=0.0,
        g_sim=0.0,
    )


def select_group_matches(
    subgraphs: Sequence[SubgraphMatch],
    instrumentation: Optional[Instrumentation] = None,
    prematch=None,
    config=None,
    requeue_stale: bool = False,
) -> SelectionResult:
    """``selectGroupMatches`` of Alg. 1 (line 10) / Algorithm 2 of the
    paper, as an incremental priority queue with lazy invalidation.

    Ties on ``g_sim`` break deterministically and content-based: larger
    subgraphs first, then lexicographic group ids, then the vertex list
    itself — never input positions or hash order.  ``instrumentation``
    (optional) tallies priority-queue pops and, under the requeue
    policy, stale entries trimmed and re-inserted.

    With ``requeue_stale`` (needs ``prematch`` and ``config`` for
    re-scoring), a popped subgraph overlapping already-claimed records is
    trimmed to its unconsumed remainder, re-scored and re-queued instead
    of rejected — see the module docstring for the exact policy.
    """
    if requeue_stale and (prematch is None or config is None):
        raise ValueError(
            "requeue_stale selection needs prematch and config to re-score "
            "trimmed subgraphs"
        )
    if requeue_stale:
        from .scoring import score_subgraph

    queue: List[QueueKey] = []
    current: Dict[int, SubgraphMatch] = {}
    original: Dict[int, SubgraphMatch] = {}
    for sequence, subgraph in enumerate(subgraphs):
        current[sequence] = subgraph
        original[sequence] = subgraph
        heapq.heappush(queue, _queue_key(subgraph, sequence))

    linked_old: Dict[str, Set[str]] = {}
    linked_new: Dict[str, Set[str]] = {}
    result = SelectionResult()

    while queue:
        key = heapq.heappop(queue)
        sequence = key[-1]
        if instrumentation is not None:
            instrumentation.count(QUEUE_POPS)
        subgraph = current[sequence]
        old_claimed = linked_old.setdefault(subgraph.old_group_id, set())
        new_claimed = linked_new.setdefault(subgraph.new_group_id, set())
        old_ids = subgraph.old_record_ids
        new_ids = subgraph.new_record_ids
        if old_claimed & old_ids or new_claimed & new_ids:
            if requeue_stale:
                trimmed = _trim_consumed(
                    subgraph,
                    old_claimed,
                    new_claimed,
                    getattr(config, "allow_singleton_subgraphs", False),
                )
                if trimmed is not None:
                    # Lazy invalidation: re-score only now, at pop time,
                    # and let the shrunken remainder compete again.
                    score_subgraph(trimmed, prematch, config)
                    current[sequence] = trimmed
                    heapq.heappush(queue, _queue_key(trimmed, sequence))
                    if instrumentation is not None:
                        instrumentation.count(SELECTION_REQUEUES)
                    continue
            result.rejected.append(original[sequence])
            continue
        result.group_mapping.add(subgraph.old_group_id, subgraph.new_group_id)
        result.accepted.append(subgraph)
        old_claimed.update(old_ids)
        new_claimed.update(new_ids)
    return result
