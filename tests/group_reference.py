"""The one-pair §3.3 group stage: the reference the round pass is
checked against.

:func:`repro.core.subgraph.build_all_subgraphs` builds a δ round's
subgraphs in one pass and skips the group pairs that cannot yield one.
The functions here do the same work the plain way — one candidate pair
at a time, its own label buckets, anchors from a scan of the old
household's members, lazy scoring of one vertex pair at a time — so
tests can require the same subgraphs from both.
"""

from repro.core.scoring import score_subgraph
from repro.core.subgraph import (
    _label_buckets,
    _vertex_candidates,
    assemble_subgraph,
)


def pair_anchors(old_household, new_household, record_mapping):
    """Links of earlier rounds inside one group pair, from a scan of the
    old household's members."""
    return [
        (old_id, record_mapping.get_new(old_id))
        for old_id in old_household.member_ids
        if record_mapping.get_new(old_id) in new_household.members
    ]


def vertex_candidates(old_household, new_household, prematch, config,
                      anchors):
    """The pair's age-plausible, equally-labelled member pairs, anchors
    excluded, from its own label buckets."""
    return _vertex_candidates(
        _label_buckets(old_household, prematch.labels),
        _label_buckets(new_household, prematch.labels),
        config,
        anchors,
    )


def build_subgraph(old_household, new_household, prematch, config,
                   anchors=None):
    """The common subgraph of two enriched households (§3.3, Fig. 4),
    or ``None``.

    ``anchors`` are record pairs between these two households that were
    already linked in earlier rounds; they join the subgraph as trusted
    vertices so that a single remaining member can still exhibit
    matching relationships (to its already-linked relatives).  ``None``
    means the pair shares no label, contributes no new link, or every
    new vertex lost all its edges (no structural evidence for a group
    link).  Vertex pairs are scored one at a time, each its own
    :meth:`PreMatchResult.pair_sims` batch.
    """
    anchors = anchors or []
    candidates = vertex_candidates(
        old_household, new_household, prematch, config, anchors
    )
    sims = {}
    for old_id, new_id, _ in candidates:
        sims.update(prematch.pair_sims([(old_id, new_id)]))
    return assemble_subgraph(
        old_household, new_household, candidates, sims,
        prematch.sim_func.threshold, config, anchors,
    )


def one_pair_at_a_time(prematch, old_households, new_households, config,
                       record_mapping, index):
    """:func:`build_subgraph` per candidate pair of the round, anchors
    from a scan of the old household's members, then ``g_sim`` scoring:
    the round pass the slow way."""
    subgraphs = []
    for old_group_id, new_group_id in index.candidate_pairs(prematch):
        old_household = old_households[old_group_id]
        new_household = new_households[new_group_id]
        anchors = pair_anchors(old_household, new_household, record_mapping)
        subgraph = build_subgraph(
            old_household, new_household, prematch, config, anchors=anchors
        )
        if subgraph is not None:
            score_subgraph(subgraph, prematch, config)
            subgraphs.append(subgraph)
    return subgraphs
