"""The paper's core contribution: iterative temporal record and group
linkage (Sections 3.1–3.4, Algorithms 1 and 2)."""

from .config import OMEGA1, OMEGA2, LinkageConfig
from .filtering import (
    CandidateFilter,
    PairOutcome,
    PairScorer,
)
from .enrichment import (
    age_difference,
    complete_groups,
    enrich_household,
    restrict_household,
)
from .pipeline import (
    IterationStats,
    IterativeGroupLinkage,
    LinkageResult,
    link_datasets,
)
from .parallel import resolve_workers, score_pairs_chunked
from .prematching import PreMatchResult, prematching
from .remaining import match_remaining
from .simcache import SimilarityCache
from .scoring import (
    aggregate_group_similarity,
    average_record_similarity,
    edge_similarity,
    score_subgraph,
    score_subgraphs,
    uniqueness,
)
from .selection import SelectionResult, select_group_matches
from .subgraph import (
    SubgraphMatch,
    build_all_subgraphs,
    candidate_group_pairs,
)

__all__ = [
    "OMEGA1",
    "OMEGA2",
    "LinkageConfig",
    "CandidateFilter",
    "PairOutcome",
    "PairScorer",
    "age_difference",
    "complete_groups",
    "enrich_household",
    "restrict_household",
    "IterationStats",
    "IterativeGroupLinkage",
    "LinkageResult",
    "link_datasets",
    "PreMatchResult",
    "prematching",
    "match_remaining",
    "SimilarityCache",
    "resolve_workers",
    "score_pairs_chunked",
    "aggregate_group_similarity",
    "average_record_similarity",
    "edge_similarity",
    "score_subgraph",
    "score_subgraphs",
    "uniqueness",
    "SelectionResult",
    "select_group_matches",
    "SubgraphMatch",
    "build_all_subgraphs",
    "candidate_group_pairs",
]
