"""Configuration of the iterative record and group linkage (Alg. 1 inputs).

The attribute sets and weighting vectors ω1/ω2 reproduce Table 2 of the
paper; the default thresholds (δ_high = 0.7, Δ = 0.05, δ_low = 0.5) and
group-selection weights (α = 0.2, β = 0.7) are the paper's best
configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..blocking.pairs import Blocker, UnionBlocker
from ..blocking.qgram_index import QGramIndexBlocker
from ..blocking.standard import CrossProductBlocker, StandardBlocker
from ..similarity.vector import (
    MISSING_ZERO,
    SimilarityFunction,
    build_similarity_function,
)
from .filtering import CandidateFilter, FilteringConfig

#: Weight spec entries: (attribute, comparator name, weight).
WeightSpec = Tuple[str, str, float]

#: ω1 — equal weights over the five compared attributes (Table 2).
OMEGA1: Tuple[WeightSpec, ...] = (
    ("first_name", "qgram", 0.2),
    ("sex", "exact", 0.2),
    ("surname", "qgram", 0.2),
    ("address", "qgram", 0.2),
    ("occupation", "qgram", 0.2),
)

#: ω2 — first name up-weighted, unstable address/occupation down-weighted.
OMEGA2: Tuple[WeightSpec, ...] = (
    ("first_name", "qgram", 0.4),
    ("sex", "exact", 0.2),
    ("surname", "qgram", 0.2),
    ("address", "qgram", 0.1),
    ("occupation", "qgram", 0.1),
)


@dataclass
class LinkageConfig:
    """All tunables of Algorithm 1 with the paper's defaults.

    Attributes
    ----------
    weights:
        Weight spec for ``Sim_func`` (pre-matching); default ω2.
    delta_high / delta_low / delta_step:
        Iterative threshold schedule: δ starts at ``delta_high`` and is
        decremented by ``delta_step`` until below ``delta_low``.
    alpha / beta:
        Weights of record similarity and edge similarity in the group
        score ``g_sim`` (Eq. 4); the uniqueness weight is ``1 - α - β``.
    rp_tolerance:
        Linear scale of the relationship-property similarity ``rp_sim``
        for age differences (Eq. 6).
    max_age_diff_deviation:
        Edges whose age differences deviate by more than this are not
        matched in a common subgraph ("highly similar" filter, §3.3).
    remaining_weights / remaining_threshold:
        ``Sim_func_rem`` for the final attribute-only pass (line 17);
        defaults to the main weights at a conservative threshold.
    max_normalised_age_difference:
        Hard filter for the remaining pass: reject pairs whose age,
        normalised by the census gap, differs by more than this
        (footnote 2 of the paper).
    year_gap:
        Years between the two compared censuses.
    blocking:
        ``"standard"`` (multi-pass phonetic), ``"cross"`` (exact cross
        product, small data only), ``"standard+qgram"`` (the phonetic
        passes unioned with an inverted q-gram index over names),
        ``"region"`` (the standard passes kept region-local for
        country-scale data, see :mod:`repro.blocking.region`) or a
        custom :class:`Blocker` instance.
    allow_singleton_subgraphs:
        Keep one-vertex common subgraphs with no matched edge.  Off by
        default: single shared members are handled by the remaining pass
        and surface as ``move`` patterns.
    n_workers / worker_chunk_size:
        Worker processes (and pairs per task) for bulk candidate-pair
        scoring; ``n_workers=1`` is serial, ``0`` uses every core.
        Output is byte-identical to serial for any worker count.  The
        same setting fans out the group stage (subgraph construction and
        ``g_sim`` scoring, §3.3–§3.4) in chunks of
        ``group_worker_chunk_size``.
    group_pair_indexing:
        Enumerate candidate group pairs through the inverted
        record→household index (on by default) instead of the quadratic
        brute-force scan; same pair set, less work.
    selection_requeue:
        Lazy-invalidation conflict policy in group-link selection
        (Alg. 2): trim + re-score + requeue stale queue entries instead
        of rejecting them.  Off by default because it changes results.
    max_lazy_cache_entries:
        LRU bound on lazily-added similarity-cache entries (pairs scored
        on demand outside the blocked candidate set).
    validate:
        Enforce the paper's structural invariants inline (per δ round
        and on the final result); violations raise ``InvariantViolation``.
    """

    weights: Sequence[WeightSpec] = OMEGA2
    delta_high: float = 0.7
    delta_low: float = 0.5
    delta_step: float = 0.05
    alpha: float = 0.2
    beta: float = 0.7
    rp_tolerance: float = 3.0
    max_age_diff_deviation: float = 2.0
    remaining_weights: Optional[Sequence[WeightSpec]] = None
    remaining_threshold: float = 0.75
    #: A remaining-pass link must beat all competing candidates of both
    #: endpoints by this score margin (0 disables the ambiguity check).
    remaining_ambiguity_margin: float = 0.03
    max_normalised_age_difference: float = 3.0
    year_gap: int = 10
    blocking: object = "standard"
    #: Pre-matching clustering strategy: "connected-components" (the
    #: paper's transitive closure), "center" or "star" (finer clusters
    #: that avoid frequent-name chaining; see repro.core.clustering).
    clustering: str = "connected-components"
    missing_policy: str = MISSING_ZERO
    allow_singleton_subgraphs: bool = False
    #: Require a subgraph vertex pair to reach the current δ directly
    #: (not merely share a transitively merged cluster label).  The paper
    #: relies on labels alone; the direct check is an extension that
    #: protects single-shot (non-iterative) runs from mega-cluster noise.
    #: The Table 5 benchmark disables it to expose the paper's iterative
    #: vs non-iterative contrast.
    require_direct_pair_threshold: bool = True
    #: Stop the δ loop when a round yields no group links (Alg. 1 line 16).
    #: Setting this to False always runs the full schedule — useful on
    #: small or sparse data where one barren round need not end the search.
    stop_on_empty_round: bool = True
    max_iterations: int = 50
    #: Skip blocking passes whose blocks exceed this many records (0 = off).
    max_block_size: int = 0
    #: Worker processes for bulk candidate-pair scoring, the §3.2 hot
    #: path: 1 = serial (the default), 0 = one worker per CPU core.
    #: Results are merged deterministically, so all mappings are
    #: identical to a serial run (see repro.core.parallel).
    n_workers: int = 1
    #: Candidate pairs per worker task when ``n_workers != 1``.
    worker_chunk_size: int = 1024
    #: Enumerate candidate group pairs (§3.3) through the inverted
    #: record→household index instead of the quadratic cross-product
    #: scan.  The emitted pair set is identical either way (enforced by
    #: ``indexed_vs_brute_force`` in ``tests/differential.py``); only
    #: the enumeration cost changes.  Brute force exists as a reference
    #: and for the differential harness — leave this on.
    group_pair_indexing: bool = True
    #: Group pairs per worker task when the subgraph/scoring stage runs
    #: under ``n_workers != 1``.  Small grids stay serial: the pool only
    #: spins up when more than one chunk's worth of group pairs exists.
    group_worker_chunk_size: int = 32
    #: Selection conflict policy (§3.4): ``False`` rejects a popped
    #: subgraph that overlaps previously claimed records (the behaviour
    #: reproduced since the seed); ``True`` trims the consumed vertices,
    #: re-scores the remainder lazily at pop time and requeues it, which
    #: can recover additional links from split households.  Changing this
    #: changes results — goldens pin both settings separately.
    selection_requeue: bool = False
    #: Cap on lazily-added entries in the cross-round similarity cache
    #: (pairs scored on demand outside the blocked candidate set; see
    #: repro.core.simcache).  0 disables the cap.
    max_lazy_cache_entries: int = 200_000
    #: Run the validation layer inline: every δ round checks the Alg. 2
    #: invariants (record-disjoint subgraph consumption, 1:1 links, links
    #: reaching the round's δ) and the final result is validated against
    #: the full registry of repro.validation.invariants.  Violations raise
    #: :class:`repro.validation.invariants.InvariantViolation` with a
    #: structured report.  Off by default; the checks never change the
    #: result, its mappings or its instrumentation counters.
    validate: bool = False
    #: Lossless candidate pruning for the §3.2 hot path (see
    #: repro.core.filtering): cheap per-pair upper bounds on ``agg_sim``
    #: reject pairs that cannot reach the round's δ before the full Eq. 3
    #: sum runs.  ``True``/``"on"`` (the default), ``False``/``"off"``, or
    #: a :class:`repro.core.filtering.FilteringConfig` for per-filter
    #: control.  Mappings are byte-identical either way (enforced by
    #: ``filtering_on_vs_off`` in ``tests/differential.py``); only the
    #: amount of computation changes.
    filtering: object = True
    #: Batch scoring backend for the §3.2 hot path (see
    #: repro.core.kernel and docs/KERNEL.md).  ``"vectorized"`` (the
    #: default) encodes attribute columns once per run and scores whole
    #: candidate chunks with numpy set-intersection/length arithmetic,
    #: falling back to the per-pair path silently when numpy is not
    #: installed; ``"python"`` forces the per-pair reference
    #: implementation.  Outcomes — scores, pruning bounds and kinds,
    #: and therefore all mappings, counters and goldens — are
    #: bit-identical either way (enforced by
    #: ``vectorized_vs_python`` in ``tests/differential.py``); only the
    #: cost per scored pair changes (≥10x, see PERFORMANCE.md).
    scoring_backend: str = "vectorized"
    #: Group-matching backend for the §3.3–§3.4 slot of Alg. 1 (see
    #: repro.core.backends).  ``"default"`` is the paper's engine
    #: (common subgraphs + g_sim + Alg. 2 selection) and replays all
    #: pre-protocol results byte-identically (enforced by
    #: ``backend_default_vs_protocol`` in ``tests/differential.py``);
    #: ``"rgl"`` is the two-stage CORE-refinement matcher (Robust Group
    #: Linkage, Li et al.); ``"hausdorff"`` is the min-max set-distance
    #: household matcher (Menezes et al.).  Changing the backend changes
    #: results — goldens pin each backend separately, and the scenario
    #: matrix (benchmarks/bench_scenarios.py) compares their P/R/F under
    #: adversarial populations.
    group_backend: str = "default"
    #: Shard count for the out-of-core sharded driver
    #: (:mod:`repro.sharding.pipeline`).  0 (the default) runs the
    #: in-RAM pipeline; ``shards >= 1`` partitions the blocking-key
    #: graph into that many balanced work units and streams them in
    #: lockstep δ rounds — decision-identical to the in-RAM path for
    #: any shard count (enforced by
    #: ``sharded_vs_unsharded`` in ``tests/differential.py``), only
    #: peak memory and effort counters change.  Requires a
    #: key-partitionable blocker (standard, cross, region).
    shards: int = 0
    #: Checkpoint cadence when the run persists state (a ``checkpoint_dir``
    #: was passed to ``link_datasets``): write a recovery snapshot after
    #: every Nth δ round.  1 (the default) checkpoints every round
    #: boundary; the terminal round and the final remaining-pass state
    #: are always persisted regardless of cadence.
    checkpoint_every: int = 1
    #: Include the full cross-round similarity-cache export in each
    #: checkpoint.  With it (the default) a resumed run re-does *no*
    #: similarity work and its effort counters are byte-identical to an
    #: uninterrupted run's; without it resume still yields identical
    #: mappings but re-scores pairs the interrupted run had cached.
    checkpoint_cache: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise ValueError("alpha and beta must lie in [0, 1]")
        if self.alpha + self.beta > 1.0 + 1e-9:
            raise ValueError("alpha + beta must not exceed 1")
        if self.delta_low > self.delta_high:
            raise ValueError("delta_low must not exceed delta_high")
        if self.delta_step <= 0:
            raise ValueError("delta_step must be positive")
        if self.year_gap <= 0:
            raise ValueError("year_gap must be positive")
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0 (0 = one per core)")
        if self.worker_chunk_size <= 0:
            raise ValueError("worker_chunk_size must be positive")
        if self.group_worker_chunk_size <= 0:
            raise ValueError("group_worker_chunk_size must be positive")
        if self.max_lazy_cache_entries < 0:
            raise ValueError("max_lazy_cache_entries must be >= 0 (0 = off)")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.shards < 0:
            raise ValueError("shards must be >= 0 (0 = in-RAM pipeline)")
        if self.scoring_backend not in ("python", "vectorized"):
            raise ValueError(
                f"scoring_backend must be 'python' or 'vectorized', "
                f"got {self.scoring_backend!r}"
            )
        # Imported lazily: the backend registry imports subgraph/selection,
        # which import this module — by construction time the cycle has
        # resolved, at module-load time it has not.
        from .backends import available_backends

        if self.group_backend not in available_backends():
            raise ValueError(
                f"group_backend must be one of "
                f"{', '.join(available_backends())}, "
                f"got {self.group_backend!r}"
            )
        # Reject malformed filtering settings at construction time.
        FilteringConfig.coerce(self.filtering)

    @property
    def uniqueness_weight(self) -> float:
        """Weight of the uniqueness score in ``g_sim``: 1 - α - β."""
        return max(0.0, 1.0 - self.alpha - self.beta)

    def as_jsonable(self) -> Dict[str, object]:
        """A JSON-safe snapshot of every config field.

        Custom blocker instances are represented by their ``repr`` —
        good enough for fingerprinting, which only needs *stable
        distinctness*, not round-tripping.
        """
        snapshot = dataclasses.asdict(self)
        if not isinstance(snapshot["blocking"], str):
            snapshot["blocking"] = repr(snapshot["blocking"])
        return snapshot

    def fingerprint(self) -> str:
        """Short stable hash of the full configuration.

        Golden fixtures pin it per spec, and the checkpoint subsystem
        refuses to resume a run under a different fingerprint — run
        state is only meaningful under the exact configuration that
        produced it.
        """
        canonical = json.dumps(self.as_jsonable(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def build_sim_func(self, threshold: Optional[float] = None) -> SimilarityFunction:
        """``Sim_func`` (Eq. 3) with the configured weights ω (Table 2);
        δ defaults to δ_high."""
        delta = self.delta_high if threshold is None else threshold
        return build_similarity_function(
            list(self.weights), delta, self.missing_policy
        )

    def build_remaining_sim_func(self) -> SimilarityFunction:
        """``Sim_func_rem`` for the final attribute-only matching pass
        (Alg. 1, line 17)."""
        weights = self.remaining_weights or self.weights
        return build_similarity_function(
            list(weights), self.remaining_threshold, self.missing_policy
        )

    def build_candidate_filter(
        self, sim_func: SimilarityFunction
    ) -> Optional[CandidateFilter]:
        """The candidate-pruning engine for ``sim_func`` per the
        ``filtering`` setting, or ``None`` when filtering is off."""
        config = FilteringConfig.coerce(self.filtering)
        if not config.enabled:
            return None
        return CandidateFilter(sim_func, config)

    def build_scoring_kernel(
        self,
        sim_func: SimilarityFunction,
        old_records,
        new_records,
        candidate_filter: Optional[CandidateFilter] = None,
    ):
        """The batch scoring kernel (:mod:`repro.core.kernel`) for
        ``sim_func`` over both record lists, or ``None`` when the
        ``scoring_backend`` is ``"python"`` or numpy is unavailable —
        callers treat ``None`` as "use the per-pair reference path".
        When a ``candidate_filter`` is given the kernel replays its
        exact :class:`~repro.core.filtering.FilteringConfig`."""
        if self.scoring_backend != "vectorized":
            return None
        # Imported lazily: the kernel package probes for numpy, and the
        # python backend must not pay for (or depend on) that probe.
        from .kernel import build_scoring_kernel

        return build_scoring_kernel(
            sim_func,
            old_records,
            new_records,
            filtering=(
                candidate_filter.config
                if candidate_filter is not None
                else None
            ),
        )

    def build_blocker(self) -> Blocker:
        """The configured candidate-pair generator (a documented
        extension of §3.2 pre-matching: the paper compares all record
        pairs; see README "Faithfulness and extensions")."""
        if self.blocking == "standard":
            return StandardBlocker(max_block_size=self.max_block_size)
        if self.blocking == "cross":
            return CrossProductBlocker()
        if self.blocking == "region":
            # Region-local multi-pass phonetic blocking for country-scale
            # data (repro.datagen.country); see repro.blocking.region.
            from ..blocking.region import RegionBlocker

            return RegionBlocker(
                StandardBlocker(max_block_size=self.max_block_size)
            )
        if self.blocking == "standard+qgram":
            # Multi-pass union: the phonetic passes plus an inverted
            # q-gram index over names, catching pairs whose soundex codes
            # diverge but whose gram overlap is high (extra recall at
            # extra candidate cost; see repro.blocking.qgram_index).
            return UnionBlocker(
                (
                    StandardBlocker(max_block_size=self.max_block_size),
                    QGramIndexBlocker(),
                )
            )
        if hasattr(self.blocking, "candidate_pairs"):
            return self.blocking  # custom blocker instance
        raise ValueError(f"unknown blocking setting {self.blocking!r}")

    def threshold_schedule(self) -> Tuple[float, ...]:
        """The δ values visited by the iterative loop (Alg. 1, lines
        2 and 15: δ_high down to δ_low in Δ steps), high to low."""
        values = []
        delta = self.delta_high
        while delta >= self.delta_low - 1e-9 and len(values) < self.max_iterations:
            values.append(round(delta, 10))
            delta -= self.delta_step
        return tuple(values)

    def non_iterative(self) -> "LinkageConfig":
        """A copy collapsing the schedule to one round at δ_low (Table 5)."""
        import dataclasses

        return dataclasses.replace(
            self, delta_high=self.delta_low, delta_low=self.delta_low
        )
