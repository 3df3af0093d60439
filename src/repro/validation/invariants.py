"""Runtime invariant checks over linkage results (Alg. 1/2 contracts).

Algorithm 1/2 of the paper rest on hard structural invariants — the
record mapping is 1:1 (Eq. 1), accepted subgraphs consume records
disjointly (§3.4), every group link is witnessed by at least one record
link between its member households (Eq. 2 / ``extractGroupLinks``), and
the δ schedule is strictly decreasing (Alg. 1 line 15).  This module
makes those invariants *checkable*: each one is a named entry in a
registry, runnable standalone over a finished
:class:`~repro.core.pipeline.LinkageResult` via :func:`validate_result`,
or inline per δ round via :func:`validate_selection` when
``LinkageConfig(validate=True)`` is set.

Violations never pass silently: a failed check raises
:class:`InvariantViolation` carrying a structured
:class:`ValidationReport` that names the violated invariant and lists
offending examples.  All checks are side-effect free — a pair's score
is recomputed with ``agg_sim``, never read from the similarity cache
(which would tally a hit or a miss and refresh its LRU), so a validated
run produces byte-identical mappings, counters and goldens to an
unvalidated one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..instrumentation import INVARIANT_CHECKS, Instrumentation
from ..model.mappings import household_of_map

if TYPE_CHECKING:  # imported for typing only; no runtime cycle with core
    from ..core.config import LinkageConfig
    from ..core.pipeline import LinkageResult
    from ..core.prematching import PreMatchResult
    from ..core.selection import SelectionResult
    from ..model.dataset import CensusDataset
    from ..model.mappings import RecordMapping

#: Numerical slack for threshold comparisons on recomputed similarities.
EPSILON = 1e-9

#: How many offending items a violation reports before truncating.
MAX_EXAMPLES = 5


@dataclass(frozen=True)
class Violation:
    """One failed invariant with a message and offending examples."""

    invariant: str
    message: str
    examples: Tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"[{self.invariant}] {self.message}"
        if self.examples:
            text += " (e.g. " + ", ".join(self.examples) + ")"
        return text


@dataclass
class ValidationReport:
    """Structured outcome of a validation pass.

    ``checked`` lists the invariants that ran, ``skipped`` maps the ones
    that could not run to the reason (e.g. no link provenance recorded),
    and ``violations`` holds every failure found.
    """

    violations: List[Violation] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_invariants(self) -> List[str]:
        """Names of all violated invariants, deduplicated, in order."""
        seen: List[str] = []
        for violation in self.violations:
            if violation.invariant not in seen:
                seen.append(violation.invariant)
        return seen

    def summary(self) -> str:
        """Human-readable report naming every violated invariant."""
        if self.ok:
            return (
                f"all invariants hold ({len(self.checked)} checked, "
                f"{len(self.skipped)} skipped)"
            )
        lines = [
            f"{len(self.violations)} invariant violation(s) in "
            f"{', '.join(self.violated_invariants())}:"
        ]
        lines.extend(f"  {violation}" for violation in self.violations)
        if self.skipped:
            lines.append(
                "skipped: "
                + "; ".join(
                    f"{name} ({reason})"
                    for name, reason in sorted(self.skipped.items())
                )
            )
        return "\n".join(lines)

    def raise_if_failed(self) -> "ValidationReport":
        """Raise :class:`InvariantViolation` when any check failed."""
        if not self.ok:
            raise InvariantViolation(self)
        return self

    def merge(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)
        self.checked.extend(other.checked)
        self.skipped.update(other.skipped)


class InvariantViolation(AssertionError):
    """A linkage result broke one of the paper's structural invariants.

    The exception message names the violated invariant(s); the full
    structured report is available as :attr:`report`.
    """

    def __init__(self, report: ValidationReport) -> None:
        super().__init__(report.summary())
        self.report = report


# -- registry ----------------------------------------------------------------

#: An invariant check: context in, violations out (empty = holds).
CheckFunc = Callable[["ValidationContext"], List[Violation]]


@dataclass(frozen=True)
class Invariant:
    """A named, checkable property of a :class:`LinkageResult`."""

    name: str
    description: str
    check: CheckFunc


#: All registered result-level invariants, in registration order.
REGISTRY: Dict[str, Invariant] = {}


def invariant(name: str, description: str) -> Callable[[CheckFunc], CheckFunc]:
    """Register a check function as a named invariant."""

    def decorate(func: CheckFunc) -> CheckFunc:
        if name in REGISTRY:
            raise ValueError(f"invariant {name!r} registered twice")
        REGISTRY[name] = Invariant(name=name, description=description, check=func)
        return func

    return decorate


@dataclass
class ValidationContext:
    """Everything a result-level invariant may inspect."""

    result: "LinkageResult"
    old_dataset: "CensusDataset"
    new_dataset: "CensusDataset"
    config: "LinkageConfig"

    def __post_init__(self) -> None:
        self.old_records = {
            record.record_id: record
            for record in self.old_dataset.iter_records()
        }
        self.new_records = {
            record.record_id: record
            for record in self.new_dataset.iter_records()
        }
        self.old_household_of = household_of_map(self.old_dataset)
        self.new_household_of = household_of_map(self.new_dataset)


def _truncate(items: Sequence[str]) -> Tuple[str, ...]:
    shown = tuple(items[:MAX_EXAMPLES])
    if len(items) > MAX_EXAMPLES:
        shown += (f"... {len(items) - MAX_EXAMPLES} more",)
    return shown


# -- result-level invariants -------------------------------------------------


@invariant(
    "record-mapping-one-to-one",
    "The record mapping is a consistent 1:1 mapping (Eq. 1): forward and "
    "backward indexes are mutual inverses and no id occurs twice.",
)
def _check_one_to_one(ctx: ValidationContext) -> List[Violation]:
    mapping = ctx.result.record_mapping
    violations: List[Violation] = []
    pairs = mapping.pairs()
    old_counts = Counter(old_id for old_id, _ in pairs)
    new_counts = Counter(new_id for _, new_id in pairs)
    duplicated = sorted(
        [record_id for record_id, count in old_counts.items() if count > 1]
        + [record_id for record_id, count in new_counts.items() if count > 1]
    )
    if duplicated:
        violations.append(
            Violation(
                "record-mapping-one-to-one",
                "record id linked more than once",
                _truncate(duplicated),
            )
        )
    # Forward and backward indexes must agree pair by pair (a corrupted
    # mapping typically breaks exactly this).
    inconsistent = [
        f"{old_id}->{new_id}"
        for old_id, new_id in pairs
        if mapping.get_old(new_id) != old_id or mapping.get_new(old_id) != new_id
    ]
    if inconsistent:
        violations.append(
            Violation(
                "record-mapping-one-to-one",
                "forward and backward indexes disagree",
                _truncate(inconsistent),
            )
        )
    return violations


@invariant(
    "record-links-within-datasets",
    "Every record link connects a record of the old dataset to a record "
    "of the new dataset.",
)
def _check_link_endpoints(ctx: ValidationContext) -> List[Violation]:
    unknown = [
        f"{old_id}->{new_id}"
        for old_id, new_id in ctx.result.record_mapping
        if old_id not in ctx.old_records or new_id not in ctx.new_records
    ]
    if unknown:
        return [
            Violation(
                "record-links-within-datasets",
                "link endpoint not found in its dataset",
                _truncate(unknown),
            )
        ]
    return []


@invariant(
    "group-links-witnessed",
    "Every group link is witnessed by at least one record link between "
    "members of the two households (Eq. 2 / extractGroupLinks).",
)
def _check_group_witnesses(ctx: ValidationContext) -> List[Violation]:
    witnessed = set()
    for old_id, new_id in ctx.result.record_mapping:
        old_group = ctx.old_household_of.get(old_id)
        new_group = ctx.new_household_of.get(new_id)
        if old_group is not None and new_group is not None:
            witnessed.add((old_group, new_group))
    orphaned = [
        f"{old_group}->{new_group}"
        for old_group, new_group in ctx.result.group_mapping
        if (old_group, new_group) not in witnessed
    ]
    if orphaned:
        return [
            Violation(
                "group-links-witnessed",
                "group link has no witnessing record link",
                _truncate(orphaned),
            )
        ]
    return []


@invariant(
    "delta-schedule-strictly-decreasing",
    "The δ schedule of Alg. 1 strictly decreases from δ_high towards "
    "δ_low, and the recorded iterations follow it.",
)
def _check_delta_schedule(ctx: ValidationContext) -> List[Violation]:
    violations: List[Violation] = []
    schedule = ctx.config.threshold_schedule()
    bad_steps = [
        f"{earlier:.4f}->{later:.4f}"
        for earlier, later in zip(schedule, schedule[1:])
        if later >= earlier
    ]
    if bad_steps:
        violations.append(
            Violation(
                "delta-schedule-strictly-decreasing",
                "configured schedule is not strictly decreasing",
                _truncate(bad_steps),
            )
        )
    deltas = [stats.delta for stats in ctx.result.iterations]
    bad_rounds = [
        f"round {index + 2}: {later:.4f} after {earlier:.4f}"
        for index, (earlier, later) in enumerate(zip(deltas, deltas[1:]))
        if later >= earlier
    ]
    if bad_rounds:
        violations.append(
            Violation(
                "delta-schedule-strictly-decreasing",
                "recorded iteration deltas are not strictly decreasing",
                _truncate(bad_rounds),
            )
        )
    return violations


@invariant(
    "iteration-accounting",
    "Per-round link counts add up: subgraph links equal the sum of the "
    "rounds' new links, and together with the remaining pass they equal "
    "the final record mapping.",
)
def _check_iteration_accounting(ctx: ValidationContext) -> List[Violation]:
    result = ctx.result
    violations: List[Violation] = []
    from_rounds = sum(stats.new_record_links for stats in result.iterations)
    if from_rounds != result.subgraph_record_links:
        violations.append(
            Violation(
                "iteration-accounting",
                f"sum of per-round new links ({from_rounds}) != "
                f"subgraph_record_links ({result.subgraph_record_links})",
            )
        )
    total = result.subgraph_record_links + result.remaining_record_links
    if total != len(result.record_mapping):
        violations.append(
            Violation(
                "iteration-accounting",
                f"subgraph ({result.subgraph_record_links}) + remaining "
                f"({result.remaining_record_links}) links != mapping size "
                f"({len(result.record_mapping)})",
            )
        )
    return violations


@invariant(
    "checkpoint-chain-consistent",
    "The per-round ledgers form a consistent chain: rounds are numbered "
    "consecutively from 1 and each round's remaining frontier shrinks by "
    "exactly the records it linked.  A resumed run restores rounds 1..k "
    "from a checkpoint, so a restore that dropped, duplicated or "
    "mis-stitched a round breaks this chain.",
)
def _check_checkpoint_chain(ctx: ValidationContext) -> List[Violation]:
    violations: List[Violation] = []
    bad_numbering = [
        f"position {position}: iteration {stats.iteration}"
        for position, stats in enumerate(ctx.result.iterations, start=1)
        if stats.iteration != position
    ]
    if bad_numbering:
        violations.append(
            Violation(
                "checkpoint-chain-consistent",
                "iterations are not numbered consecutively from 1",
                _truncate(bad_numbering),
            )
        )
    remaining_old = len(ctx.old_records)
    remaining_new = len(ctx.new_records)
    broken: List[str] = []
    for stats in ctx.result.iterations:
        remaining_old -= stats.new_record_links
        remaining_new -= stats.new_record_links
        if (
            stats.remaining_old != remaining_old
            or stats.remaining_new != remaining_new
        ):
            broken.append(
                f"round {stats.iteration}: recorded "
                f"{stats.remaining_old}/{stats.remaining_new} remaining, "
                f"chain implies {remaining_old}/{remaining_new}"
            )
            # Re-anchor on the recorded values so one broken round is
            # reported once, not echoed by every later round.
            remaining_old = stats.remaining_old
            remaining_new = stats.remaining_new
    if broken:
        violations.append(
            Violation(
                "checkpoint-chain-consistent",
                "round frontier does not shrink by exactly the links found",
                _truncate(broken),
            )
        )
    return violations


@invariant(
    "link-scores-reach-threshold",
    "Every linked pair scores at least the threshold of the pass that "
    "accepted it: the round's δ for subgraph links (when the direct-pair "
    "threshold guard is on), the remaining threshold for the final pass.",
)
def _check_link_scores(ctx: ValidationContext) -> List[Violation]:
    provenance = ctx.result.provenance
    if provenance is None:
        # Signalled to validate_result via _SkipCheck; runs without
        # validate=True record no per-link provenance.
        raise _SkipCheck("run recorded no link provenance (validate=False)")
    sim_func = ctx.config.build_sim_func()
    remaining_func = ctx.config.build_remaining_sim_func()
    too_low: List[str] = []
    for (old_id, new_id), origin in sorted(provenance.items()):
        old_record = ctx.old_records.get(old_id)
        new_record = ctx.new_records.get(new_id)
        if old_record is None or new_record is None:
            continue  # record-links-within-datasets reports these
        if origin.source == "subgraph":
            if not ctx.config.require_direct_pair_threshold:
                continue  # vertex pairs may then rely on labels alone
            score = sim_func.agg_sim(old_record, new_record)
        else:
            score = remaining_func.agg_sim(old_record, new_record)
        if score < origin.threshold - EPSILON:
            too_low.append(
                f"{old_id}->{new_id} ({origin.source}, score {score:.4f} "
                f"< {origin.threshold:.4f})"
            )
    if too_low:
        return [
            Violation(
                "link-scores-reach-threshold",
                "linked pair scores below the accepting threshold",
                _truncate(too_low),
            )
        ]
    return []


class _SkipCheck(Exception):
    """Raised inside a check to mark it skipped (with a reason)."""


def validate_result(
    result: "LinkageResult",
    old_dataset: "CensusDataset",
    new_dataset: "CensusDataset",
    config: "LinkageConfig",
    instrumentation: Optional[Instrumentation] = None,
) -> ValidationReport:
    """Run every registered invariant over a finished linkage result.

    Returns a :class:`ValidationReport`; callers that want failures to
    raise chain ``.raise_if_failed()``.  ``instrumentation`` (optional)
    tallies one :data:`~repro.instrumentation.INVARIANT_CHECKS` count per
    invariant evaluated.
    """
    context = ValidationContext(result, old_dataset, new_dataset, config)
    report = ValidationReport()
    for name, entry in REGISTRY.items():
        try:
            violations = entry.check(context)
        except _SkipCheck as skip:
            report.skipped[name] = str(skip)
            continue
        report.checked.append(name)
        report.violations.extend(violations)
        if instrumentation is not None:
            instrumentation.count(INVARIANT_CHECKS)
    return report


# -- round-level (inline) invariants -----------------------------------------


def _fresh_score(
    prematch: "PreMatchResult", old_id: str, new_id: str
) -> float:
    """A pair's ``agg_sim``, recomputed without touching the cache it
    checks: validation must never perturb what it observes, and the
    cached score it would read is bit-identical to this one."""
    return prematch.sim_func.agg_sim(
        prematch.old_index[old_id], prematch.new_index[new_id]
    )


def validate_selection(
    selection: "SelectionResult",
    prior_mapping: "RecordMapping",
    prematch: "PreMatchResult",
    delta: float,
    config: "LinkageConfig",
    instrumentation: Optional[Instrumentation] = None,
) -> ValidationReport:
    """Check one δ round's selection before its links are merged.

    Three invariants of Alg. 2 / §3.4, re-derived from the accepted
    subgraphs rather than trusted from the selection loop.  That
    re-derivation deliberately covers the lazy-requeue policy
    (``LinkageConfig.selection_requeue``) too: a requeued entry is a
    *trimmed* subgraph, and whatever the queue ultimately accepted is
    what gets checked here — so a stale popped entry that somehow
    re-emitted a link referencing an already-consumed record would fail
    ``selection-record-disjoint``, whichever engine produced it:

    * ``selection-record-disjoint`` — no record is claimed by two
      accepted subgraphs, and none was already linked in a prior round;
    * ``selection-group-links-consistent`` — the round's group mapping is
      exactly the set of accepted subgraphs' group pairs;
    * ``selection-links-reach-delta`` — every new record link reaches the
      round's δ (only when ``require_direct_pair_threshold`` is on).
    """
    report = ValidationReport()
    duplicated = selection.disjointness_violations()
    already_linked = sorted(
        {
            record_id
            for subgraph in selection.accepted
            for old_id, new_id in subgraph.new_link_vertices
            for record_id in (
                ([old_id] if prior_mapping.contains_old(old_id) else [])
                + ([new_id] if prior_mapping.contains_new(new_id) else [])
            )
        }
    )
    report.checked.append("selection-record-disjoint")
    if duplicated:
        report.violations.append(
            Violation(
                "selection-record-disjoint",
                f"record claimed by two accepted subgraphs at "
                f"δ={delta:.4f}",
                _truncate(sorted(set(duplicated))),
            )
        )
    if already_linked:
        report.violations.append(
            Violation(
                "selection-record-disjoint",
                f"record re-linked at δ={delta:.4f} despite an "
                "earlier-round link",
                _truncate(already_linked),
            )
        )

    accepted_groups = {
        (subgraph.old_group_id, subgraph.new_group_id)
        for subgraph in selection.accepted
    }
    round_groups = set(selection.group_mapping.pairs())
    report.checked.append("selection-group-links-consistent")
    if accepted_groups != round_groups:
        drift = sorted(
            f"{old_id}->{new_id}"
            for old_id, new_id in accepted_groups ^ round_groups
        )
        report.violations.append(
            Violation(
                "selection-group-links-consistent",
                "round group mapping diverges from the accepted "
                "subgraphs",
                _truncate(drift),
            )
        )

    if config.require_direct_pair_threshold:
        report.checked.append("selection-links-reach-delta")
        too_low = [
            f"{old_id}->{new_id} ({score:.4f})"
            for subgraph in selection.accepted
            for old_id, new_id in subgraph.new_link_vertices
            for score in [_fresh_score(prematch, old_id, new_id)]
            if score < delta - EPSILON
        ]
        if too_low:
            report.violations.append(
                Violation(
                    "selection-links-reach-delta",
                    f"accepted record link below the round's δ={delta:.4f}",
                    _truncate(too_low),
                )
            )
    else:
        report.skipped["selection-links-reach-delta"] = (
            "require_direct_pair_threshold is off"
        )

    if instrumentation is not None:
        instrumentation.count(INVARIANT_CHECKS, len(report.checked))
    return report
