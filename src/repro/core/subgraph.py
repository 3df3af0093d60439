"""Subgraph matching between pairs of household graphs (Section 3.3).

For every pair of groups sharing at least one cluster label, the common
subgraph is computed: its vertices are pairs of equally-labelled records,
and two vertices are connected when the corresponding member pairs are
related in *both* enriched household graphs with the same relationship
type and highly similar age differences (Fig. 4).  Vertices left without
any matched edge are pruned — attribute similarity alone does not anchor
a group link (this is what disambiguates the two "Ashworth" households in
the running example).

The default backend builds a δ round's subgraphs in one pass
(:func:`build_all_subgraphs`).  Its work list (:func:`group_tasks`)
leaves out every candidate group pair that provably cannot yield a
subgraph, before the round's vertex pairs are scored.  With numpy the
vertex candidates come from one join of old to new members in row space
(:class:`GroupPairIndex`); without it, plain loops over label buckets
give the same tasks, as in :mod:`repro.core.pairtable`.  numpy is
imported on first use, never at module load.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
from .pairtable import numpy_or_none, sorted_unique
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

    kept = prune_fresh_vertices(
        vertices, edges, num_anchors, config.allow_singleton_subgraphs
    )
    if kept is None:
        return None
    return SubgraphMatch(
        old_group_id=old_household.household_id,
        new_group_id=new_household.household_id,
        vertices=kept[0],
        edges=kept[1],
        old_edge_total=old_household.num_relationships,
        new_edge_total=new_household.num_relationships,
        num_anchors=num_anchors,
    )


def prune_fresh_vertices(
    vertices: Sequence[Tuple[str, str]],
    edges: Sequence[Tuple[int, int, float]],
    num_anchors: int,
    allow_singleton: bool,
) -> Optional[Tuple[List[Tuple[str, str]], List[Tuple[int, int, float]]]]:
    """Fig. 4's prune rule over a subgraph's vertices (anchors first) and
    edges (vertex index pairs): the kept vertices and re-indexed edges,
    or ``None`` when no fresh vertex — hence no new record link — is
    left.

    A fresh vertex without an incident edge is dropped (attribute
    similarity alone does not anchor a group link); anchors always
    stay.  With no edge at all the subgraph survives only under
    ``allow_singleton``.
    """
    if edges:
        incident: Set[int] = set(range(num_anchors))
        for index_a, index_b, _ in edges:
            incident.add(index_a)
            incident.add(index_b)
        keep = sorted(incident)
        remap = {old_index: new_index for new_index, old_index in enumerate(keep)}
        vertices = [vertices[index] for index in keep]
        edges = [
            (remap[index_a], remap[index_b], rp_sim)
            for index_a, index_b, rp_sim in edges
        ]
    elif not allow_singleton:
        return None
    if len(vertices) <= num_anchors:
        return None
    return list(vertices), list(edges)


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
    from transitively merged clusters of frequent names.  With
    ``require_direct_pair_threshold`` on (the default) this loses
    nothing: every vertex pair must reach δ directly, so a group pair
    whose only shared labels are transitive would produce no vertices
    anyway.  With the guard off such a pair could have vertices, but it
    is never considered.
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


class MemberRows:
    """One side's households in row space (numpy only).

    Households are numbered in sorted-id order (*household rows*) and
    member records in sorted-id order (*record rows*).  The members are
    listed household by household, each household's in member-id order
    (a CSR layout): ``member_group``, ``member_row`` and ``member_age``
    hold each member's household row, record row and age (NaN when
    unknown).
    """

    def __init__(self, households: Dict[str, Household]) -> None:
        np = numpy_or_none()
        self.group_ids = sorted(households)
        self.group_row = {
            group_id: row for row, group_id in enumerate(self.group_ids)
        }
        members = [
            record
            for group_id in self.group_ids
            for record in households[group_id].iter_records()
        ]
        self.ids = sorted(record.record_id for record in members)
        self.row_of = {
            record_id: row for row, record_id in enumerate(self.ids)
        }
        self.member_group = np.repeat(
            np.arange(len(self.group_ids)),
            [households[group_id].size for group_id in self.group_ids],
        )
        self.member_row = np.fromiter(
            (self.row_of[record.record_id] for record in members),
            np.int64, count=len(members),
        )
        self.member_age = np.fromiter(
            (np.nan if record.age is None else record.age
             for record in members),
            np.float64, count=len(members),
        )
        self.group_of_row = np.empty(len(self.ids), np.int64)
        self.group_of_row[self.member_row] = self.member_group

    def rows(self, ids: Iterable[str]):
        """The record row of each id, -1 for ids of no member."""
        np = numpy_or_none()
        ids = list(ids)
        return np.fromiter(
            map(self.row_of.get, ids, repeat(-1)), np.int64, count=len(ids)
        )

    def by_group_label(self, labels: Mapping[str, int], span: int):
        """The labelled members sorted by ``household row * span +
        label`` (each run in member-id order): ``(keys, members)``."""
        np = numpy_or_none()
        row_label = np.fromiter(
            map(labels.get, self.ids, repeat(-1)), np.int64,
            count=len(self.ids),
        )
        member_label = row_label[self.member_row]
        members = np.flatnonzero(member_label >= 0)
        keys = self.member_group[members] * span + member_label[members]
        order = np.argsort(keys, kind="stable")
        return keys[order], members[order]


class GroupPairIndex:
    """Inverted record → household index over one shard visit (§3.3).

    Candidate enumeration is the group-side hot path: the naive approach
    examines every pair of G_i × G_{i+1} households per δ round
    (:func:`brute_force_group_pairs`).  This index inverts the problem —
    each household's members are indexed once per visit, and each δ
    round then probes the index once per *initial person link*, so
    group pairs sharing no link (the overwhelming majority of the cross
    product) are never touched.  The emitted candidate set is exactly the
    brute-force set (pinned by ``tests/test_group_stage_properties.py``
    and ``indexed_vs_brute_force`` in ``tests/differential.py``).

    The index is δ-independent (household membership does not change
    across rounds), so the pipeline builds it once per visit and reuses
    it for the whole schedule.  With numpy, :meth:`sides` holds both
    sides in row space (:class:`MemberRows`, built at the first round
    that asks), and :meth:`candidate_keys` gives a round's candidates as
    household-row keys, for the default backend's vertex-candidate join
    (:func:`group_tasks`).
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
        self._sides: Optional[Tuple[MemberRows, MemberRows]] = None

    @property
    def cross_product_size(self) -> int:
        """|G_i| × |G_{i+1}| — what a brute-force scan would examine."""
        return len(self.old_households) * len(self.new_households)

    def sides(self) -> Tuple[MemberRows, MemberRows]:
        """The old and new sides in row space (numpy only)."""
        if self._sides is None:
            self._sides = (
                MemberRows(self.old_households),
                MemberRows(self.new_households),
            )
        return self._sides

    @property
    def width(self) -> int:
        """The household-row key of group pair ``(o, n)`` is
        ``o * width + n``."""
        return max(1, len(self.new_households))

    def candidate_pairs(self, prematch: PreMatchResult) -> List[Tuple[str, str]]:
        """This round's candidate group pairs, sorted; set-equal to
        :func:`brute_force_group_pairs` on the same pre-match result."""
        return candidate_group_pairs(
            prematch, self.old_group_of, self.new_group_of
        )

    def candidate_keys(self, prematch: PreMatchResult):
        """:meth:`candidate_pairs` as sorted household-row keys (numpy
        only): the matched pairs' households, sorted and deduplicated
        (:func:`~repro.core.pairtable.sorted_unique`)."""
        old, new = self.sides()
        matched = prematch.matched_pairs
        old_rows = old.rows(map(itemgetter(0), matched))
        new_rows = new.rows(map(itemgetter(1), matched))
        found = (old_rows >= 0) & (new_rows >= 0)
        return sorted_unique(
            old.group_of_row[old_rows[found]] * self.width
            + new.group_of_row[new_rows[found]]
        )

    def keys_of(self, group_pairs: Sequence[Tuple[str, str]]):
        """The household-row keys of group id pairs (numpy only)."""
        np = numpy_or_none()
        old, new = self.sides()
        return np.fromiter(
            (
                old.group_row[old_group] * self.width
                + new.group_row[new_group]
                for old_group, new_group in group_pairs
            ),
            np.int64, count=len(group_pairs),
        )


def round_group_pairs(
    prematch: PreMatchResult,
    index: GroupPairIndex,
    config: LinkageConfig,
    instrumentation: Optional[Instrumentation] = None,
    keys: bool = False,
):
    """This δ round's candidate group pairs (§3.3), sorted, for every
    group backend: through ``index``, or through the brute-force scan
    when ``config.group_pair_indexing`` is off (same pairs, counted
    differently).  ``keys`` asks for household-row keys instead of id
    pairs (numpy only).  ``instrumentation`` tallies the pairs emitted
    and the cross-product pairs the index skipped."""
    if config.group_pair_indexing:
        group_pairs = (
            index.candidate_keys(prematch) if keys
            else index.candidate_pairs(prematch)
        )
        skipped = index.cross_product_size - len(group_pairs)
    else:
        group_pairs = brute_force_group_pairs(
            prematch, index.old_households, index.new_households
        )
        if keys:
            group_pairs = index.keys_of(group_pairs)
        skipped = 0  # the brute-force scan examined the full cross product
    if instrumentation is not None:
        instrumentation.count(GROUP_PAIRS, len(group_pairs))
        instrumentation.count(GROUP_PAIRS_CANDIDATES, len(group_pairs))
        instrumentation.count(GROUP_PAIRS_SKIPPED, skipped)
    return group_pairs


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


def _may_yield(
    candidates: Sequence[VertexCandidate],
    anchors: Sequence[Tuple[str, str]],
    config: LinkageConfig,
) -> bool:
    """Whether a group pair with these vertex candidates can yield a
    subgraph.

    A pair without candidates has no fresh vertex.  A fresh vertex
    survives only with a matched edge (Fig. 4), and an edge joins two
    vertices.  Without anchors, and unless singleton subgraphs are
    allowed, a pair therefore needs two distinct old and two distinct
    new members among its candidates: greedy 1:1 assignment gives at
    most one vertex otherwise.
    """
    if not candidates:
        return False
    if anchors or config.allow_singleton_subgraphs:
        return True
    return (
        len({old_id for old_id, _, _ in candidates}) > 1
        and len({new_id for _, new_id, _ in candidates}) > 1
    )


def _yielding(pair, old_row, new_row, exempt):
    """:func:`_may_yield` over a round's vertex candidates in row space:
    ``pair`` holds each candidate's group pair (grouped, ascending),
    ``exempt`` flags the group pairs that need only one candidate
    (anchored, or all when singleton subgraphs are allowed).  Returns
    the group pairs that can yield a subgraph, ascending."""
    np = numpy_or_none()
    if not len(pair):
        return pair
    starts = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
    present = pair[starts]
    spread = (
        np.maximum.reduceat(old_row, starts)
        > np.minimum.reduceat(old_row, starts)
    ) & (
        np.maximum.reduceat(new_row, starts)
        > np.minimum.reduceat(new_row, starts)
    )
    return present[exempt[present] | spread]


def _expand(first, counts):
    """Owner and position of every element of the ranges
    ``[first[i], first[i] + counts[i])``, range after range."""
    np = numpy_or_none()
    owner = np.repeat(np.arange(len(counts)), counts)
    position = np.arange(len(owner))
    position += np.repeat(first - (np.cumsum(counts) - counts), counts)
    return owner, position


def _row_tasks(
    prematch: PreMatchResult,
    index: GroupPairIndex,
    config: LinkageConfig,
    record_mapping: Optional[RecordMapping],
    instrumentation: Optional[Instrumentation],
    n_workers: int,
) -> Tuple[List[GroupTask], Dict[Tuple[str, str], float]]:
    """:func:`group_tasks` in row space (numpy)."""
    np = numpy_or_none()
    old, new = index.sides()
    keys = round_group_pairs(prematch, index, config, instrumentation, True)
    pair_old, pair_new = keys // index.width, keys % index.width

    # Links of earlier rounds: each linked record's partner's household,
    # and the group pairs they anchor.
    linked = np.array(
        [
            (old.row_of[old_id], new.row_of[new_id])
            for old_id, new_id in (record_mapping or ())
            if old_id in old.row_of and new_id in new.row_of
        ],
        np.int64,
    ).reshape(-1, 2)
    old_partner_group = np.full(len(old.ids), -1, np.int64)
    new_partner_group = np.full(len(new.ids), -1, np.int64)
    old_partner_group[linked[:, 0]] = new.group_of_row[linked[:, 1]]
    new_partner_group[linked[:, 1]] = old.group_of_row[linked[:, 0]]
    anchored = np.isin(
        keys,
        old.group_of_row[linked[:, 0]] * index.width
        + new.group_of_row[linked[:, 1]],
    )
    exempt = anchored | config.allow_singleton_subgraphs

    # Old members of each group pair, label by label in member-id order,
    # anchors excluded; then the join on (new household row, label).
    labels = prematch.labels
    span = max(labels.values(), default=0) + 1
    old_keys, old_members = old.by_group_label(labels, span)
    new_keys, new_members = new.by_group_label(labels, span)
    first = np.searchsorted(old_keys, pair_old * span)
    pair, at = _expand(
        first, np.searchsorted(old_keys, (pair_old + 1) * span) - first
    )
    old_member = old_members[at]
    label = old_keys[at] - pair_old[pair] * span
    keep = old_partner_group[old.member_row[old_member]] != pair_new[pair]
    pair, old_member = pair[keep], old_member[keep]
    wanted = pair_new[pair] * span + label[keep]
    first = np.searchsorted(new_keys, wanted)
    owner, at = _expand(
        first, np.searchsorted(new_keys, wanted, side="right") - first
    )
    # The member-pair arrays are the round's largest: each is filtered
    # and released as soon as it is used (peak RSS).
    pair, old_member = pair[owner], old_member[owner]
    del owner
    new_member = new_members[at]
    del at
    # Footnote 2: the age test of plausible_pairs; unknown ages pass.
    gap = config.year_gap
    deviation = new.member_age[new_member]
    deviation -= old.member_age[old_member]
    deviation -= gap
    np.abs(deviation, out=deviation)
    keep = ~(deviation > config.max_normalised_age_difference)
    keep &= new_partner_group[new.member_row[new_member]] != pair_old[pair]
    pair, deviation = pair[keep], deviation[keep]
    old_row = old.member_row[old_member[keep]]
    new_row = new.member_row[new_member[keep]]
    del old_member, new_member
    deviation[np.isnan(deviation)] = gap
    kept = _yielding(pair, old_row, new_row, exempt)
    keep = np.isin(pair, kept)
    pair, old_row, new_row = pair[keep], old_row[keep], new_row[keep]
    deviation = deviation[keep]

    old_ids = list(map(old.ids.__getitem__, old_row.tolist()))
    new_ids = list(map(new.ids.__getitem__, new_row.tolist()))
    sims = prematch.pair_sims(
        list(zip(old_ids, new_ids)),
        n_workers=n_workers,
        chunk_size=config.worker_chunk_size,
    )
    if config.require_direct_pair_threshold:
        reach = np.fromiter(
            map(sims.__getitem__, zip(old_ids, new_ids)), np.float64,
            count=len(old_ids),
        ) >= prematch.sim_func.threshold
        kept = _yielding(pair[reach], old_row[reach], new_row[reach], exempt)

    group_pairs = list(zip(
        map(old.group_ids.__getitem__, pair_old[kept].tolist()),
        map(new.group_ids.__getitem__, pair_new[kept].tolist()),
    ))
    anchors = anchors_by_group_pair(
        list(compress(group_pairs, anchored[kept].tolist())),
        index.old_households, index.new_group_of, record_mapping,
    )
    deviations = deviation.tolist()
    return [
        (
            old_group_id,
            new_group_id,
            anchors.get((old_group_id, new_group_id), []),
            list(zip(
                old_ids[start:stop], new_ids[start:stop],
                deviations[start:stop],
            )),
        )
        for (old_group_id, new_group_id), start, stop in zip(
            group_pairs,
            np.searchsorted(pair, kept).tolist(),
            np.searchsorted(pair, kept, side="right").tolist(),
        )
    ], sims


def _loop_tasks(
    prematch: PreMatchResult,
    index: GroupPairIndex,
    config: LinkageConfig,
    record_mapping: Optional[RecordMapping],
    instrumentation: Optional[Instrumentation],
    n_workers: int,
) -> Tuple[List[GroupTask], Dict[Tuple[str, str], float]]:
    """:func:`group_tasks` by plain loops (no numpy): each touched
    household is bucketed by label once."""
    group_pairs = round_group_pairs(prematch, index, config, instrumentation)
    anchors = anchors_by_group_pair(
        group_pairs, index.old_households, index.new_group_of, record_mapping
    )
    old_buckets: Dict[str, LabelBuckets] = {}
    new_buckets: Dict[str, LabelBuckets] = {}
    tasks: List[GroupTask] = []
    for old_group_id, new_group_id in group_pairs:
        old_by_label = old_buckets.get(old_group_id)
        if old_by_label is None:
            old_by_label = old_buckets[old_group_id] = _label_buckets(
                index.old_households[old_group_id], prematch.labels
            )
        new_by_label = new_buckets.get(new_group_id)
        if new_by_label is None:
            new_by_label = new_buckets[new_group_id] = _label_buckets(
                index.new_households[new_group_id], prematch.labels
            )
        pair_anchors = anchors.get((old_group_id, new_group_id), [])
        candidates = _vertex_candidates(
            old_by_label, new_by_label, config, pair_anchors
        )
        if _may_yield(candidates, pair_anchors, config):
            tasks.append(
                (old_group_id, new_group_id, pair_anchors, candidates)
            )
    sims = prematch.pair_sims(
        [
            (old_id, new_id)
            for *_, candidates in tasks
            for old_id, new_id, _ in candidates
        ],
        n_workers=n_workers,
        chunk_size=config.worker_chunk_size,
    )
    if config.require_direct_pair_threshold:
        delta = prematch.sim_func.threshold
        tasks = [
            task for task in tasks
            if _may_yield(
                [c for c in task[3] if sims[c[0], c[1]] >= delta],
                task[2], config,
            )
        ]
    return tasks, sims


def group_tasks(
    prematch: PreMatchResult,
    index: GroupPairIndex,
    config: LinkageConfig,
    record_mapping: Optional[RecordMapping] = None,
    instrumentation: Optional[Instrumentation] = None,
    n_workers: int = 1,
) -> Tuple[List[GroupTask], Dict[Tuple[str, str], float]]:
    """This δ round's group-stage work: one :data:`GroupTask` per
    candidate group pair (:func:`round_group_pairs`) that can yield a
    subgraph, and the ``agg_sim`` of every vertex candidate of those
    tasks.

    A task holds the pair's anchors (links from earlier rounds inside
    it, from ``record_mapping``) and its vertex candidates: the
    age-plausible pairs of equally-labelled members, anchors excluded,
    ordered by label, then old and new member id.  Pairs
    :func:`_may_yield` rules out get no task: it is applied to all
    candidates, then, under ``require_direct_pair_threshold``, to the
    candidates that reach δ.
    The candidates that pass the first test and that the score store
    lacks are scored in one :meth:`PreMatchResult.pair_sims` batch,
    on ``n_workers`` processes.

    With numpy the candidates come from one join of old to new members
    on (new household row, label) over :meth:`GroupPairIndex.sides`;
    without it, from label buckets per household.  Both give the same
    tasks in the same order.
    """
    if numpy_or_none() is None:
        return _loop_tasks(
            prematch, index, config, record_mapping, instrumentation,
            n_workers,
        )
    return _row_tasks(
        prematch, index, config, record_mapping, instrumentation, n_workers
    )


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
) -> List[SubgraphMatch]:
    """``subgroups`` of Alg. 1 (line 7, §3.3): common subgraphs of all
    candidate group pairs, in one pass over the δ round.

    ``record_mapping`` holds the links accepted in earlier δ rounds;
    links that fall inside a candidate household pair become anchors.
    ``index`` is a prebuilt :class:`GroupPairIndex`; one is built on the
    fly when omitted.  The round's work comes from :func:`group_tasks`,
    which drops the pairs that cannot yield a subgraph before their
    vertex pairs are scored.  Construction (:func:`assemble_subgraph`)
    reads vertex similarities from the round's batch — serially, or
    with ``n_workers != 1`` over worker chunks merged in order
    (:mod:`repro.core.parallel`).

    ``instrumentation`` (optional) tallies the candidate pairs emitted,
    the cross-product pairs the index skipped and the non-empty
    subgraphs built.
    """
    if index is None:
        index = GroupPairIndex(old_households, new_households)
    tasks, sims = group_tasks(
        prematch, index, config, record_mapping, instrumentation, n_workers
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
    if instrumentation is not None:
        instrumentation.count(SUBGRAPHS_BUILT, len(subgraphs))
    return subgraphs
