"""Pluggable group-matching backends for the §3.3–§3.4 slot of Alg. 1.

The iterative pipeline (:mod:`repro.core.pipeline`) fixes everything
around the group stage — blocking, the cross-round
:class:`~repro.core.simcache.SimilarityCache`, the δ schedule, the final
remaining pass, checkpointing and validation — but the per-round step
that turns a :class:`~repro.core.prematching.PreMatchResult` into
accepted group links is an algorithmic choice.  This module defines the
:class:`GroupMatcherBackend` protocol around that step and registers
three implementations:

``default``
    The paper's engine: common-subgraph construction over candidate
    household pairs (§3.3, Fig. 4), ``g_sim`` scoring (Eq. 4–7) and
    greedy record-disjoint selection (Alg. 2).  Byte-identical to the
    pre-refactor pipeline — enforced by ``backend_default_vs_protocol``
    in ``tests/differential.py``.

``rgl``
    A *Robust Group Linkage*–style two-stage matcher (Li et al.): CORE
    seed groups from high-confidence record pairs (``agg_sim`` at or
    above δ_high), then refinement of the remaining ambiguous members at
    the round's δ.  It deliberately ignores relationship structure — its
    robustness claim is tolerance of erroneous or incomplete group
    membership, so a household pair is accepted on the strength of its
    seed pairs and member coverage alone.

``hausdorff``
    A set-distance household matcher (after Menezes et al.): the group
    score is the Hausdorff similarity — min over both directions of each
    member's best cross-household ``agg_sim`` (min-max over the pairwise
    matrix, batched through the run's pair scorer).  Permutation-invariant
    in household member order by construction (pinned by
    ``tests/test_backend_properties.py``).

Every backend emits its candidates as :class:`SubgraphMatch` objects and
routes them through :func:`~repro.core.selection.select_group_matches`,
so record-disjoint consumption, content-based deterministic tie-breaking
and :func:`~repro.validation.invariants.validate_selection` apply
uniformly, and every backend is checked against the full invariant
registry.

Select a backend with ``LinkageConfig(group_backend=...)`` or the CLI
flag ``repro link --group-backend {default,rgl,hausdorff}``.
"""

from __future__ import annotations

import abc
import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..instrumentation import SUBGRAPHS_BUILT, Instrumentation
from ..model.households import Household
from ..model.mappings import RecordMapping
from .config import LinkageConfig
from .prematching import PreMatchResult
from .scoring import score_subgraphs
from .selection import SelectionResult, select_group_matches
from .subgraph import (
    GroupPairIndex,
    Member,
    SubgraphMatch,
    anchors_by_group_pair,
    build_all_subgraphs,
    greedy_assignment,
    plausible_pairs,
    round_group_pairs,
)


@dataclass
class GroupRoundContext:
    """Everything one δ round hands to a backend.

    The pipeline owns the loop; the backend sees one round at a time:
    the round's pre-matching result (clusters, labels, lazily-memoising
    ``pair_sims`` over the shared cache), the enriched household graphs,
    the links settled in earlier rounds (``record_mapping`` — a backend
    must only propose links over still-unlinked records) and the
    δ-independent :class:`GroupPairIndex`.  Pair scores beyond the
    cache come from ``prematch.pair_sims``, batched through the round's
    pair scorer.  ``round_timer``
    is the per-round wall-clock collector: backends wrap their stages in
    ``round_timer.stage("round")`` so ``IterationStats.seconds`` stays
    comparable across backends.
    """

    prematch: PreMatchResult
    old_households: Dict[str, Household]
    new_households: Dict[str, Household]
    config: LinkageConfig
    record_mapping: RecordMapping
    group_index: GroupPairIndex
    delta: float
    round_index: int
    instrumentation: Optional[Instrumentation] = None
    round_timer: Optional[Instrumentation] = None

    def stage(self, name: str):
        """Joint context manager: round timer + named pipeline stage."""
        stack = contextlib.ExitStack()
        if self.round_timer is not None:
            stack.enter_context(self.round_timer.stage("round"))
        if self.instrumentation is not None:
            stack.enter_context(self.instrumentation.stage(name))
        return stack


@dataclass
class RoundOutcome:
    """A backend's answer for one δ round.

    ``candidate_units`` is whatever the backend considered competing
    candidates (scored subgraphs, seeded household pairs, …); it lands
    in ``IterationStats.candidate_subgraphs``.
    """

    selection: SelectionResult
    candidate_units: int = 0


class GroupMatcherBackend(abc.ABC):
    """One δ round's group matching: pre-match result → selected links.

    Contract: links may only involve records absent from
    ``ctx.record_mapping``; every accepted link must carry ``agg_sim ≥
    ctx.delta``; and the returned
    :class:`SelectionResult` must be record-disjoint (routing candidates
    through :func:`select_group_matches` guarantees that).  Backends are
    stateless across rounds — all cross-round state lives in the
    pipeline.
    """

    #: Registry key (``LinkageConfig.group_backend`` value).
    name: str = ""

    @abc.abstractmethod
    def match_round(self, ctx: GroupRoundContext) -> RoundOutcome:
        """Produce this round's record-disjoint group-link selection."""


# -- registry -----------------------------------------------------------------

_REGISTRY: Dict[str, GroupMatcherBackend] = {}


def register_backend(
    backend: GroupMatcherBackend, replace: bool = False
) -> GroupMatcherBackend:
    """Register a backend instance under its ``name``.

    Re-registering a taken name is an error unless ``replace`` is set —
    shadowing the default engine silently would invalidate goldens.
    """
    if not backend.name:
        raise ValueError("backend must carry a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"group backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> GroupMatcherBackend:
    """The registered backend, or ``ValueError`` naming the known ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown group backend {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- shared helpers -----------------------------------------------------------


def _fresh_members(
    household: Household,
    is_linked: Callable[[str], bool],
) -> List[Member]:
    """(record id, age) of the members not yet linked in an earlier δ
    round, in member-id order."""
    return [
        (record.record_id, record.age)
        for record in household.iter_records()
        if not is_linked(record.record_id)
    ]


def _plausible_rows(
    ctx: GroupRoundContext,
    old_members: Sequence[Member],
    new_members: Sequence[Member],
    sims: Dict[Tuple[str, str], float],
) -> List[Tuple[float, float, str, str]]:
    """``(sim, age deviation, old id, new id)`` rows of the age-plausible
    member pairs that reach the round's δ — the input of
    :func:`~repro.core.subgraph.greedy_assignment`."""
    rows: List[Tuple[float, float, str, str]] = []
    for old_id, new_id, deviation in plausible_pairs(
        old_members, new_members, ctx.config
    ):
        sim = sims[(old_id, new_id)]
        if sim >= ctx.delta:
            rows.append((sim, deviation, old_id, new_id))
    return rows


# -- the paper's engine -------------------------------------------------------


class DefaultSubgraphBackend(GroupMatcherBackend):
    """The paper's group stage, unchanged: common subgraphs (§3.3),
    Eq. 4–7 scoring, Alg. 2 selection.

    This is the exact pre-refactor pipeline block — same stage names,
    same parallel fan-out, same counters — so every golden, checkpoint
    and differential fixture recorded before the backend protocol keeps
    replaying byte-identically
    (``backend_default_vs_protocol`` in ``tests/differential.py`` is
    the executable proof).
    """

    name = "default"

    def match_round(self, ctx: GroupRoundContext) -> RoundOutcome:
        config = ctx.config
        with ctx.stage("subgraphs"):
            subgraphs = build_all_subgraphs(
                ctx.prematch,
                ctx.old_households,
                ctx.new_households,
                config,
                record_mapping=ctx.record_mapping,
                instrumentation=ctx.instrumentation,
                index=ctx.group_index,
                n_workers=config.n_workers,
                chunk_size=config.group_worker_chunk_size,
            )
        with ctx.stage("scoring"):
            score_subgraphs(subgraphs, ctx.prematch, config)
        with ctx.stage("selection"):
            selection = select_group_matches(
                subgraphs,
                instrumentation=ctx.instrumentation,
                prematch=ctx.prematch,
                config=config,
                requeue_stale=config.selection_requeue,
            )
        return RoundOutcome(selection=selection, candidate_units=len(subgraphs))


# -- member-matrix backends ---------------------------------------------------


class _MemberMatrixBackend(GroupMatcherBackend):
    """The round loop shared by the backends that judge a candidate
    household pair from the ``agg_sim`` matrix of its fresh members.

    Anchors (earlier links inside a pair) come from one pass per round
    (:func:`~repro.core.subgraph.anchors_by_group_pair`); each pair's
    matrix comes from :meth:`PreMatchResult.pair_sims`, one batch through
    the round's pair scorer.  Candidates go through Alg. 2 selection.
    """

    def match_round(self, ctx: GroupRoundContext) -> RoundOutcome:
        mapping = ctx.record_mapping
        with ctx.stage("group_matching"):
            group_pairs = round_group_pairs(
                ctx.prematch, ctx.group_index, ctx.config,
                ctx.instrumentation,
            )
            anchors = anchors_by_group_pair(
                group_pairs, ctx.old_households,
                ctx.group_index.new_group_of, mapping,
            )
            candidates: List[SubgraphMatch] = []
            for old_group_id, new_group_id in group_pairs:
                old_household = ctx.old_households[old_group_id]
                new_household = ctx.new_households[new_group_id]
                old_fresh = _fresh_members(old_household, mapping.contains_old)
                new_fresh = _fresh_members(new_household, mapping.contains_new)
                if not old_fresh or not new_fresh:
                    continue
                sims = ctx.prematch.pair_sims(
                    [
                        (old_id, new_id)
                        for old_id, _ in old_fresh
                        for new_id, _ in new_fresh
                    ]
                )
                candidate = self._match_pair(
                    ctx, old_household, new_household,
                    anchors.get((old_group_id, new_group_id), []),
                    old_fresh, new_fresh, sims,
                )
                if candidate is not None:
                    candidates.append(candidate)
            if ctx.instrumentation is not None:
                ctx.instrumentation.count(SUBGRAPHS_BUILT, len(candidates))
        with ctx.stage("selection"):
            selection = select_group_matches(
                candidates,
                instrumentation=ctx.instrumentation,
                prematch=ctx.prematch,
                config=ctx.config,
                requeue_stale=False,
            )
        return RoundOutcome(
            selection=selection, candidate_units=len(candidates)
        )

    @abc.abstractmethod
    def _match_pair(
        self,
        ctx: GroupRoundContext,
        old_household: Household,
        new_household: Household,
        anchors: List[Tuple[str, str]],
        old_fresh: List[Member],
        new_fresh: List[Member],
        sims: Dict[Tuple[str, str], float],
    ) -> Optional[SubgraphMatch]:
        """The pair's candidate group link, or ``None``."""


# -- Robust Group Linkage (two-stage CORE + refinement) -----------------------


class RobustGroupLinkageBackend(_MemberMatrixBackend):
    """Two-stage group matcher in the spirit of *Robust Group Linkage*
    (Li et al.): CORE seeds, then refinement of ambiguous members.

    Per candidate household pair:

    1. **CORE** — greedy 1:1 assignment of member pairs whose ``agg_sim``
       reaches ``max(δ, δ_high)``: only high-confidence pairs may seed a
       group link.  Links from earlier δ rounds inside the pair count as
       seeds too (they were accepted at a higher δ).  A pair with no
       seed is dropped — that is the robustness claim: noisy members
       alone never open a group hypothesis.
    2. **Refinement** — the remaining (ambiguous) members are greedily
       assigned at the round's δ, extending the seeded group.

    The group score blends seed strength with member coverage
    (``0.7 · seed_avg + 0.3 · coverage``); relationship structure is
    deliberately ignored, so households whose recorded relationships are
    erroneous or incomplete can still link on membership evidence.  All
    proposed links carry ``agg_sim ≥ δ`` and are routed through
    Alg. 2 selection, so the full invariant registry holds.
    """

    name = "rgl"

    #: Weight of seed strength vs member coverage in the group score.
    SEED_WEIGHT = 0.7

    def _match_pair(
        self,
        ctx: GroupRoundContext,
        old_household: Household,
        new_household: Household,
        anchors: List[Tuple[str, str]],
        old_fresh: List[Member],
        new_fresh: List[Member],
        sims: Dict[Tuple[str, str], float],
    ) -> Optional[SubgraphMatch]:
        core_delta = max(ctx.delta, ctx.config.delta_high)
        # Refinement floor: the round's δ.
        assigned = greedy_assignment(
            _plausible_rows(ctx, old_fresh, new_fresh, sims)
        )
        core = [(o, n, s) for o, n, s in assigned if s >= core_delta - 1e-9]
        if not core and not anchors:
            return None  # no high-confidence seed: RGL refuses the pair
        if not assigned:
            return None  # anchors only — no new record link would result
        seed_sims = [sim for _, _, sim in core] + [1.0] * len(anchors)
        seed_strength = sum(seed_sims) / len(seed_sims)
        matched = len(assigned) + len(anchors)
        coverage = min(
            1.0, 2.0 * matched / (old_household.size + new_household.size)
        )
        member_sims = [sim for _, _, sim in assigned]
        vertices = sorted(anchors) + sorted(
            (old_id, new_id) for old_id, new_id, _ in assigned
        )
        return SubgraphMatch(
            old_group_id=old_household.household_id,
            new_group_id=new_household.household_id,
            vertices=vertices,
            edges=[],
            old_edge_total=old_household.num_relationships,
            new_edge_total=new_household.num_relationships,
            num_anchors=len(anchors),
            avg_sim=sum(member_sims) / len(member_sims),
            e_sim=0.0,
            unique=0.0,
            g_sim=(
                self.SEED_WEIGHT * seed_strength
                + (1.0 - self.SEED_WEIGHT) * coverage
            ),
        )


# -- Hausdorff set-distance matcher -------------------------------------------


def hausdorff_similarity(
    old_ids: Sequence[str],
    new_ids: Sequence[str],
    similarity: Callable[[str, str], float],
) -> float:
    """Hausdorff similarity of two record sets under ``similarity``.

    ``min`` over both directions of the worst member's best
    cross-household similarity — i.e. ``1 − H(A, B)`` for the Hausdorff
    distance under ``d = 1 − sim``.  A pure function of the two *sets*:
    permutation-invariant in member order, symmetric in direction
    handling, no tie-breaking (pinned by
    ``tests/test_backend_properties.py``).
    """
    if not old_ids or not new_ids:
        return 0.0
    forward = min(
        max(similarity(old_id, new_id) for new_id in new_ids)
        for old_id in old_ids
    )
    backward = min(
        max(similarity(old_id, new_id) for old_id in old_ids)
        for new_id in new_ids
    )
    return min(forward, backward)


class HausdorffBackend(_MemberMatrixBackend):
    """Set-distance household matcher (after Menezes et al.): a
    household pair scores the Hausdorff similarity of its member sets —
    min-max over the pairwise ``agg_sim`` matrix.

    The full cross-product matrix per candidate pair is batched through
    the run's pair scorer (one ``agg_sim_chunk`` call for the pairs
    pre-matching has not already cached).  A pair is a candidate only
    when its Hausdorff similarity reaches the round's δ — every member
    on *both* sides must then have a ≥ δ best match, a strict
    whole-household criterion that tolerates attribute noise but
    deliberately punishes member churn (births, deaths, migration); the
    scenario matrix quantifies exactly that trade-off.
    Record links are the greedy 1:1 member assignment at δ, so the full
    invariant registry holds.
    """

    name = "hausdorff"

    def _match_pair(
        self,
        ctx: GroupRoundContext,
        old_household: Household,
        new_household: Household,
        anchors: List[Tuple[str, str]],
        old_fresh: List[Member],
        new_fresh: List[Member],
        sims: Dict[Tuple[str, str], float],
    ) -> Optional[SubgraphMatch]:
        group_sim = hausdorff_similarity(
            [old_id for old_id, _ in old_fresh],
            [new_id for new_id, _ in new_fresh],
            lambda old_id, new_id: sims[(old_id, new_id)],
        )
        if group_sim < ctx.delta:
            return None
        assigned = greedy_assignment(
            _plausible_rows(ctx, old_fresh, new_fresh, sims)
        )
        if not assigned:
            return None  # every ≥ δ pair was age-implausible
        member_sims = [sim for _, _, sim in assigned]
        vertices = sorted(anchors) + sorted(
            (old_id, new_id) for old_id, new_id, _ in assigned
        )
        return SubgraphMatch(
            old_group_id=old_household.household_id,
            new_group_id=new_household.household_id,
            vertices=vertices,
            edges=[],
            old_edge_total=old_household.num_relationships,
            new_edge_total=new_household.num_relationships,
            num_anchors=len(anchors),
            avg_sim=sum(member_sims) / len(member_sims),
            e_sim=0.0,
            unique=0.0,
            g_sim=group_sim,
        )


register_backend(DefaultSubgraphBackend())
register_backend(RobustGroupLinkageBackend())
register_backend(HausdorffBackend())
