"""Group-pair scoring: Eq. 4–7 of the paper (Section 3.4).

``g_sim = α·avg_sim + β·e_sim + (1-α-β)·unique`` combines

* **avg_sim** — mean pre-matching similarity of the subgraph's record pairs,
* **e_sim** — Dice-style coverage-weighted sum of edge-property
  similarities over the total relationships of both groups, and
* **unique** — how exclusively the matched records' cluster labels belong
  to this group pair.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

from .config import LinkageConfig
from .prematching import PreMatchResult
from .subgraph import SubgraphMatch


def average_record_similarity(
    subgraph: SubgraphMatch, sims: Mapping[Tuple[str, str], float]
) -> float:
    """Eq. 5: mean ``agg_sim`` over the new-link vertex record pairs,
    read from ``sims`` (:meth:`PreMatchResult.pair_sims` of them).

    Anchor vertices (links accepted in earlier rounds) are excluded:
    they carry scores from earlier similarity functions and would only
    dilute the quality signal of the links under decision.
    """
    vertices = subgraph.new_link_vertices
    if not vertices:
        return 0.0
    return sum(map(sims.__getitem__, vertices)) / len(vertices)


def edge_similarity(subgraph: SubgraphMatch) -> float:
    """Eq. 6: 2·Σ rp_sim / (|E_i| + |E_{i+1}|), capped at 1.

    The Dice-style denominator rewards subgraphs covering a large share
    of both households' relationships.
    """
    denominator = subgraph.old_edge_total + subgraph.new_edge_total
    if denominator == 0:
        return 0.0
    total = sum(rp_sim for _, _, rp_sim in subgraph.edges)
    return min(1.0, 2.0 * total / denominator)


def uniqueness(subgraph: SubgraphMatch, prematch: PreMatchResult) -> float:
    """Eq. 7: 2·|R_sub| / Σ |label(r_i)|.

    Equals 1 when every matched record's label occurs nowhere outside
    this subgraph's record pairs; smaller for ambiguous (frequent) names.
    """
    vertices = subgraph.new_link_vertices
    if not vertices:
        return 0.0
    label_total = sum(prematch.cluster_size(old_id) for old_id, _ in vertices)
    if label_total == 0:
        return 0.0
    return min(1.0, 2.0 * len(vertices) / label_total)


def aggregate_group_similarity(
    avg_sim: float, e_sim: float, unique: float, config: LinkageConfig
) -> float:
    """Eq. 4 with the configured α and β."""
    return (
        config.alpha * avg_sim
        + config.beta * e_sim
        + config.uniqueness_weight * unique
    )


def score_subgraph(
    subgraph: SubgraphMatch, prematch: PreMatchResult, config: LinkageConfig
) -> SubgraphMatch:
    """Fill the four score fields of a subgraph in place (and return it):
    :func:`score_subgraphs` of this one subgraph."""
    score_subgraphs([subgraph], prematch, config)
    return subgraph


def score_subgraphs(
    subgraphs: Iterable[SubgraphMatch],
    prematch: PreMatchResult,
    config: LinkageConfig,
) -> None:
    """Score a batch of subgraphs in place (Eq. 4–7; Alg. 1, line 8):
    ``avg_sim``, ``e_sim``, ``unique`` and their combination ``g_sim``.

    The record similarities of every subgraph's new-link vertices come
    from the pre-matching score store in one
    :meth:`PreMatchResult.pair_sims` batch, so nothing is recomputed
    for already-scored pairs.  A record pair lies in one household
    pair, and each subgraph is one household pair's, so no pair is
    asked for twice.
    """
    subgraphs = list(subgraphs)
    sims = prematch.pair_sims([
        vertex
        for subgraph in subgraphs
        for vertex in subgraph.new_link_vertices
    ])
    for subgraph in subgraphs:
        subgraph.avg_sim = average_record_similarity(subgraph, sims)
        subgraph.e_sim = edge_similarity(subgraph)
        subgraph.unique = uniqueness(subgraph, prematch)
        subgraph.g_sim = aggregate_group_similarity(
            subgraph.avg_sim, subgraph.e_sim, subgraph.unique, config
        )
