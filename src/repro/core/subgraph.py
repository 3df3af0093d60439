"""Subgraph matching between pairs of household graphs (Section 3.3).

For every pair of groups sharing at least one cluster label, the common
subgraph is computed: its vertices are pairs of equally-labelled records,
and two vertices are connected when the corresponding member pairs are
related in *both* enriched household graphs with the same relationship
type and highly similar age differences (Fig. 4).  Vertices left without
any matched edge are pruned — attribute similarity alone does not anchor
a group link (this is what disambiguates the two "Ashworth" households in
the running example).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..instrumentation import (
    GROUP_PAIRS,
    GROUP_PAIRS_CANDIDATES,
    GROUP_PAIRS_SKIPPED,
    SUBGRAPHS_BUILT,
    Instrumentation,
)
from ..model.households import Household
from ..model.mappings import RecordMapping
from ..similarity.numeric import age_difference_similarity
from .config import LinkageConfig
from .parallel import GroupTask, build_subgraphs_chunked, resolve_workers
from .prematching import PreMatchResult


@dataclass
class SubgraphMatch:
    """A common subgraph of one old and one new household.

    ``vertices`` are (old record id, new record id) pairs; ``edges`` are
    (vertex index, vertex index, rp_sim) triples.  The first
    ``num_anchors`` vertices are *anchors*: record pairs already linked
    in earlier δ rounds, re-used as trusted structural context for the
    remaining members (they contribute edges and scores, but no new
    record links).  The ``*_edge_total`` fields hold |E_i| and |E_{i+1}|
    of the two enriched household graphs for the edge-similarity
    denominator (Eq. 6).  Score fields are filled by
    :mod:`repro.core.scoring`.
    """

    old_group_id: str
    new_group_id: str
    vertices: List[Tuple[str, str]]
    edges: List[Tuple[int, int, float]]
    old_edge_total: int
    new_edge_total: int
    num_anchors: int = 0
    avg_sim: float = 0.0
    e_sim: float = 0.0
    unique: float = 0.0
    g_sim: float = 0.0

    @property
    def anchor_vertices(self) -> List[Tuple[str, str]]:
        return self.vertices[: self.num_anchors]

    @property
    def new_link_vertices(self) -> List[Tuple[str, str]]:
        """Vertices contributing new record links (non-anchors)."""
        return self.vertices[self.num_anchors :]

    @property
    def old_record_ids(self) -> Set[str]:
        """``getOldRecords`` of Alg. 2 (new links only)."""
        return {old_id for old_id, _ in self.new_link_vertices}

    @property
    def new_record_ids(self) -> Set[str]:
        """``getNewRecords`` of Alg. 2 (new links only)."""
        return {new_id for _, new_id in self.new_link_vertices}

    @property
    def size(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return (
            f"SubgraphMatch({self.old_group_id}->{self.new_group_id}, "
            f"|V|={len(self.vertices)}, |E|={len(self.edges)}, "
            f"g_sim={self.g_sim:.3f})"
        )


def greedy_assignment(
    scored: List[Tuple[float, float, str, str]],
) -> List[Tuple[str, str, float]]:
    """Greedy 1:1 assignment over ``(sim, age deviation, old id, new id)``
    rows: best similarity first — rounded, so that attribute noise does
    not outweigh age plausibility between namesake siblings — then age
    plausibility, then lexicographic ids."""
    order = sorted(
        (-round(sim, 2), deviation, old_id, new_id, sim)
        for sim, deviation, old_id, new_id in scored
    )
    used_old: Set[str] = set()
    used_new: Set[str] = set()
    assigned: List[Tuple[str, str, float]] = []
    for _, _, old_id, new_id, sim in order:
        if old_id in used_old or new_id in used_new:
            continue
        used_old.add(old_id)
        used_new.add(new_id)
        assigned.append((old_id, new_id, sim))
    return assigned


#: An age-plausible member pair: (old record id, new record id, age
#: deviation).
VertexCandidate = Tuple[str, str, float]

#: (record id, age) of a household member.
Member = Tuple[str, Optional[int]]

#: Cluster label → a household's labelled members.
LabelBuckets = Dict[int, List[Member]]


def plausible_pairs(
    old_members: Sequence[Member],
    new_members: Sequence[Member],
    config: LinkageConfig,
) -> List[VertexCandidate]:
    """The age-plausible pairs of two member lists, in member order.

    Pairs whose normalised age difference exceeds
    ``max_normalised_age_difference`` are never linked — subgraph
    matching must not accept temporally impossible links (footnote 2 of
    the paper).  The deviation only breaks assignment ties; an unknown
    age is always plausible, with the worst tie-break (``year_gap``).
    """
    gap = config.year_gap
    limit = config.max_normalised_age_difference
    pairs: List[VertexCandidate] = []
    for old_id, old_age in old_members:
        for new_id, new_age in new_members:
            if old_age is None or new_age is None:
                deviation = float(gap)
            else:
                deviation = abs(new_age - (old_age + gap))
                if deviation > limit:
                    continue
            pairs.append((old_id, new_id, deviation))
    return pairs


def _label_buckets(
    household: Household, labels: Dict[str, int]
) -> LabelBuckets:
    """A household's labelled members bucketed by cluster label, in
    member-id order."""
    buckets: LabelBuckets = defaultdict(list)
    for record in household.iter_records():
        label = labels.get(record.record_id)
        if label is not None:
            buckets[label].append((record.record_id, record.age))
    return buckets


def _vertex_candidates(
    old_by_label: LabelBuckets,
    new_by_label: LabelBuckets,
    config: LinkageConfig,
    anchors: Sequence[Tuple[str, str]] = (),
) -> List[VertexCandidate]:
    """Every age-plausible pair of equally-labelled members of two
    households, anchors excluded, in label order."""
    anchor_old = {old_id for old_id, _ in anchors}
    anchor_new = {new_id for _, new_id in anchors}
    candidates: List[VertexCandidate] = []
    for label in sorted(old_by_label.keys() & new_by_label.keys()):
        old_members = old_by_label[label]
        new_members = new_by_label[label]
        if anchors:
            old_members = [m for m in old_members if m[0] not in anchor_old]
            new_members = [m for m in new_members if m[0] not in anchor_new]
        candidates.extend(plausible_pairs(old_members, new_members, config))
    return candidates


def _edge_between(
    old_household: Household,
    new_household: Household,
    vertex_a: Tuple[str, str],
    vertex_b: Tuple[str, str],
    config: LinkageConfig,
) -> Optional[float]:
    """rp_sim of the matched edge between two vertices, or ``None``.

    The edge exists when both member pairs are related in their enriched
    graphs with the same relationship type and age differences deviating
    by at most ``max_age_diff_deviation`` (the "highly similar
    relationship properties" requirement of §3.3).
    """
    old_a, new_a = vertex_a
    old_b, new_b = vertex_b
    old_edge = old_household.get_relationship(old_a, old_b)
    new_edge = new_household.get_relationship(new_a, new_b)
    if old_edge is None or new_edge is None:
        return None
    if old_edge.rel_type != new_edge.rel_type:
        return None
    if old_edge.age_diff is None or new_edge.age_diff is None:
        return None
    if abs(old_edge.age_diff - new_edge.age_diff) > config.max_age_diff_deviation:
        return None
    return age_difference_similarity(
        old_edge.age_diff, new_edge.age_diff, config.rp_tolerance
    )


def assemble_subgraph(
    old_household: Household,
    new_household: Household,
    candidates: Sequence[VertexCandidate],
    sims: Mapping[Tuple[str, str], float],
    delta: float,
    config: LinkageConfig,
    anchors: Sequence[Tuple[str, str]] = (),
) -> Optional[SubgraphMatch]:
    """The common subgraph of two households from their scored vertex
    candidates (``sims`` holds ``agg_sim`` of every candidate), or
    ``None``.

    Equally-labelled members are assigned greedily 1:1 (homonyms such
    as father and son John go to the best-scoring disjoint pairs).
    Shared labels arise transitively, so two records in one cluster can
    be direct non-matches: with ``require_direct_pair_threshold`` a
    vertex pair must itself reach δ.  Fresh vertices without a matched
    edge are then pruned (Fig. 4); anchors always stay.
    """
    rows = []
    for old_id, new_id, deviation in candidates:
        sim = sims[(old_id, new_id)]
        if config.require_direct_pair_threshold and sim < delta:
            continue
        rows.append((sim, deviation, old_id, new_id))
    if not rows:
        return None
    fresh_vertices = sorted(
        (old_id, new_id) for old_id, new_id, _ in greedy_assignment(rows)
    )
    vertices = sorted(anchors) + fresh_vertices
    num_anchors = len(anchors)

    edges: List[Tuple[int, int, float]] = []
    for index_a in range(len(vertices)):
        for index_b in range(index_a + 1, len(vertices)):
            rp_sim = _edge_between(
                old_household, new_household, vertices[index_a],
                vertices[index_b], config,
            )
            if rp_sim is not None:
                edges.append((index_a, index_b, rp_sim))

    if not edges:
        if not config.allow_singleton_subgraphs:
            return None
        kept_vertices = vertices
        kept_edges: List[Tuple[int, int, float]] = []
    else:
        # Prune *fresh* vertices not incident to any matched edge (Fig. 4);
        # anchors always stay.
        incident: Set[int] = set(range(num_anchors))
        for index_a, index_b, _ in edges:
            incident.add(index_a)
            incident.add(index_b)
        keep = sorted(incident)
        remap = {old_index: new_index for new_index, old_index in enumerate(keep)}
        kept_vertices = [vertices[index] for index in keep]
        kept_edges = [
            (remap[index_a], remap[index_b], rp_sim)
            for index_a, index_b, rp_sim in edges
        ]

    if len(kept_vertices) <= num_anchors:
        return None  # no new record link would result
    return SubgraphMatch(
        old_group_id=old_household.household_id,
        new_group_id=new_household.household_id,
        vertices=kept_vertices,
        edges=kept_edges,
        old_edge_total=old_household.num_relationships,
        new_edge_total=new_household.num_relationships,
        num_anchors=num_anchors,
    )


def build_subgraph(
    old_household: Household,
    new_household: Household,
    prematch: PreMatchResult,
    config: LinkageConfig,
    anchors: Optional[List[Tuple[str, str]]] = None,
) -> Optional[SubgraphMatch]:
    """The common subgraph of two enriched households (§3.3, Fig. 4),
    or ``None``.

    ``anchors`` are record pairs between these two households that were
    already linked in earlier rounds; they join the subgraph as trusted
    vertices so that a single remaining member can still exhibit matching
    relationships (to its already-linked relatives).  ``None`` means the
    pair shares no label, contributes no new link, or every new vertex
    lost all its edges (no structural evidence for a group link).

    This is the one-pair form of :func:`build_all_subgraphs`: it buckets
    both households itself and scores vertex pairs one at a time through
    :meth:`PreMatchResult.pair_sim`.
    """
    anchors = anchors or []
    candidates = _vertex_candidates(
        _label_buckets(old_household, prematch.labels),
        _label_buckets(new_household, prematch.labels),
        config,
        anchors,
    )
    sims = {
        (old_id, new_id): prematch.pair_sim(old_id, new_id)
        for old_id, new_id, _ in candidates
    }
    return assemble_subgraph(
        old_household, new_household, candidates, sims,
        prematch.sim_func.threshold, config, anchors,
    )


def candidate_group_pairs(
    prematch: PreMatchResult,
    old_group_of: Dict[str, str],
    new_group_of: Dict[str, str],
) -> List[Tuple[str, str]]:
    """Group pairs connected by at least one initial person link.

    This replaces the cross product over G_i × G_{i+1}: only pairs of
    groups "connected by at least one (initial) person link" are
    considered (Alg. 1, Section 3).  Using the direct links above δ —
    rather than full cluster co-membership — avoids a quadratic blow-up
    from transitively merged clusters of frequent names, and loses
    nothing: vertex assignment requires direct pair similarity ≥ δ, so a
    group pair whose only shared labels are transitive would produce no
    vertices anyway.
    """
    pairs: Set[Tuple[str, str]] = set()
    for old_id, new_id in prematch.matched_pairs:
        old_group = old_group_of.get(old_id)
        new_group = new_group_of.get(new_id)
        if old_group is not None and new_group is not None:
            pairs.add((old_group, new_group))
    return sorted(pairs)


def brute_force_group_pairs(
    prematch: PreMatchResult,
    old_households: Dict[str, Household],
    new_households: Dict[str, Household],
) -> List[Tuple[str, str]]:
    """Reference enumeration of candidate group pairs: the full
    |G_i| × |G_{i+1}| scan.

    Every group pair is examined and kept exactly when it is connected
    by at least one initial person link — the same predicate as the
    indexed path, evaluated the expensive way.  This exists solely as
    the ground truth that :class:`GroupPairIndex` is pinned against
    (tests and the differential harness run it on small workloads);
    it is quadratic in the group counts and must never
    sit on the hot path.
    """
    links = prematch.matched_pairs
    pairs: List[Tuple[str, str]] = []
    for old_group_id in sorted(old_households):
        old_members = old_households[old_group_id].members
        for new_group_id in sorted(new_households):
            new_members = new_households[new_group_id].members
            if any(
                old_id in old_members and new_id in new_members
                for old_id, new_id in links
            ):
                pairs.append((old_group_id, new_group_id))
    return pairs


class GroupPairIndex:
    """Inverted record → household and label → household index (§3.3).

    Candidate enumeration is the group-side hot path: the naive approach
    examines every pair of G_i × G_{i+1} households per δ round
    (:func:`brute_force_group_pairs`).  This index inverts the problem —
    each household's members are indexed once per linkage run, and each
    δ round then probes the index once per *initial person link*, so
    group pairs sharing no link (the overwhelming majority of the cross
    product) are never touched.  The emitted candidate set is exactly the
    brute-force set (pinned by ``tests/test_group_stage_properties.py``
    and ``indexed_vs_brute_force`` in ``tests/differential.py``).

    The index is δ-independent (household membership does not change
    across rounds), so the pipeline builds it once and reuses it for the
    whole schedule.  ``groups_by_label`` additionally buckets each
    round's candidates by the cluster labels connecting them — the
    inverted cluster-label → household view used by diagnostics.
    """

    def __init__(
        self,
        old_households: Dict[str, Household],
        new_households: Dict[str, Household],
    ) -> None:
        self.old_households = old_households
        self.new_households = new_households
        self.old_group_of: Dict[str, str] = {
            record_id: household.household_id
            for household in old_households.values()
            for record_id in household.members
        }
        self.new_group_of: Dict[str, str] = {
            record_id: household.household_id
            for household in new_households.values()
            for record_id in household.members
        }

    @property
    def cross_product_size(self) -> int:
        """|G_i| × |G_{i+1}| — what a brute-force scan would examine."""
        return len(self.old_households) * len(self.new_households)

    def candidate_pairs(self, prematch: PreMatchResult) -> List[Tuple[str, str]]:
        """This round's candidate group pairs, sorted; set-equal to
        :func:`brute_force_group_pairs` on the same pre-match result."""
        return candidate_group_pairs(
            prematch, self.old_group_of, self.new_group_of
        )

    def groups_by_label(
        self, prematch: PreMatchResult
    ) -> Dict[int, Tuple[Set[str], Set[str]]]:
        """Cluster label → (old households, new households) over the
        initial links, the inverted-label view of this round's
        candidates.  Only labels carried by at least one matched record
        appear."""
        buckets: Dict[int, Tuple[Set[str], Set[str]]] = {}
        for old_id, new_id in prematch.matched_pairs:
            old_group = self.old_group_of.get(old_id)
            new_group = self.new_group_of.get(new_id)
            if old_group is None or new_group is None:
                continue
            for record_id, group_id, side in (
                (old_id, old_group, 0),
                (new_id, new_group, 1),
            ):
                label = prematch.labels.get(record_id)
                if label is None:
                    continue
                bucket = buckets.setdefault(label, (set(), set()))
                bucket[side].add(group_id)
        return buckets


def anchors_by_group_pair(
    group_pairs: Sequence[Tuple[str, str]],
    old_households: Dict[str, Household],
    new_group_of: Dict[str, str],
    record_mapping: Optional[RecordMapping],
) -> Dict[Tuple[str, str], List[Tuple[str, str]]]:
    """Links from earlier δ rounds inside each of a round's candidate
    group pairs, keyed by pair (pairs without anchors are absent).

    Each candidate old household is scanned once per round, whatever
    its number of candidate partners: every linked member is mapped to
    its partner's household through the inverted record → household
    index.
    """
    anchors: Dict[Tuple[str, str], List[Tuple[str, str]]] = defaultdict(list)
    if not record_mapping:
        return anchors
    wanted = set(group_pairs)
    for old_group_id in dict.fromkeys(old for old, _ in group_pairs):
        for record_id in old_households[old_group_id].member_ids:
            linked_new = record_mapping.get_new(record_id)
            if linked_new is None:
                continue
            pair = (old_group_id, new_group_of.get(linked_new))
            if pair in wanted:
                anchors[pair].append((record_id, linked_new))
    return anchors


def build_all_subgraphs(
    prematch: PreMatchResult,
    old_households: Dict[str, Household],
    new_households: Dict[str, Household],
    config: LinkageConfig,
    record_mapping: Optional["RecordMapping"] = None,
    instrumentation: Optional[Instrumentation] = None,
    index: Optional[GroupPairIndex] = None,
    n_workers: int = 1,
    chunk_size: int = 32,
    score: bool = False,
    kernel=None,
) -> List[SubgraphMatch]:
    """``subgroups`` of Alg. 1 (line 7, §3.3): common subgraphs of all
    candidate group pairs, in one pass over the δ round; each equals
    :func:`build_subgraph` on its pair.

    ``record_mapping`` holds the links accepted in earlier δ rounds;
    links that fall inside a candidate household pair become anchors.
    ``index`` is a prebuilt :class:`GroupPairIndex`; one is built on the
    fly when omitted, and the brute-force scan is used instead when
    ``config.group_pair_indexing`` is off (same candidate set, counted
    differently).

    Every touched household is bucketed by label once, and a group pair
    without an age-plausible same-label member pair is dropped before
    construction (it cannot have a vertex).  The enumerated member pairs
    the score store lacks are scored in one batch
    (:meth:`PreMatchResult.pair_sims`: one ``kernel`` call, else
    per-pair ``agg_sim`` on ``n_workers`` processes), and construction
    reads vertex similarities from that batch — serially, or with
    ``n_workers != 1`` over worker chunks merged in order
    (:mod:`repro.core.parallel`).  ``score`` also fills the Eq. 4–7
    scores.

    ``instrumentation`` (optional) tallies the candidate pairs emitted,
    the cross-product pairs the index skipped and the non-empty
    subgraphs built.
    """
    if index is None:
        index = GroupPairIndex(old_households, new_households)
    if getattr(config, "group_pair_indexing", True):
        group_pairs = index.candidate_pairs(prematch)
        skipped = index.cross_product_size - len(group_pairs)
    else:
        group_pairs = brute_force_group_pairs(
            prematch, old_households, new_households
        )
        skipped = 0  # the brute-force scan examined the full cross product
    if instrumentation is not None:
        instrumentation.count(GROUP_PAIRS, len(group_pairs))
        instrumentation.count(GROUP_PAIRS_CANDIDATES, len(group_pairs))
        instrumentation.count(GROUP_PAIRS_SKIPPED, skipped)

    anchors = anchors_by_group_pair(
        group_pairs, old_households, index.new_group_of, record_mapping
    )
    old_buckets: Dict[str, LabelBuckets] = {}
    new_buckets: Dict[str, LabelBuckets] = {}
    tasks: List[GroupTask] = []
    for old_group_id, new_group_id in group_pairs:
        old_by_label = old_buckets.get(old_group_id)
        if old_by_label is None:
            old_by_label = old_buckets[old_group_id] = _label_buckets(
                old_households[old_group_id], prematch.labels
            )
        new_by_label = new_buckets.get(new_group_id)
        if new_by_label is None:
            new_by_label = new_buckets[new_group_id] = _label_buckets(
                new_households[new_group_id], prematch.labels
            )
        pair_anchors = anchors.get((old_group_id, new_group_id), [])
        candidates = _vertex_candidates(
            old_by_label, new_by_label, config, pair_anchors
        )
        if candidates:
            tasks.append(
                (old_group_id, new_group_id, pair_anchors, candidates)
            )

    sims = prematch.pair_sims(
        [
            (old_id, new_id)
            for *_, candidates in tasks
            for old_id, new_id, _ in candidates
        ],
        kernel=kernel,
        n_workers=n_workers,
        chunk_size=config.worker_chunk_size,
    )
    delta = prematch.sim_func.threshold
    if resolve_workers(n_workers) > 1 and len(tasks) > chunk_size:
        subgraphs = build_subgraphs_chunked(
            tasks, old_households, new_households, sims, delta, config,
            n_workers=n_workers, chunk_size=chunk_size,
        )
    else:
        subgraphs = []
        for old_group_id, new_group_id, pair_anchors, candidates in tasks:
            subgraph = assemble_subgraph(
                old_households[old_group_id],
                new_households[new_group_id],
                candidates, sims, delta, config, pair_anchors,
            )
            if subgraph is not None:
                subgraphs.append(subgraph)
    if score:
        from .scoring import score_subgraphs

        score_subgraphs(subgraphs, prematch, config)
    if instrumentation is not None:
        instrumentation.count(SUBGRAPHS_BUILT, len(subgraphs))
    return subgraphs
