"""Chunked multiprocess scoring of candidate pairs (§3.2 hot path).

Scoring a candidate pair with ``Sim_func.agg_sim`` (Eq. 3) is pure and
independent per pair, so the bulk scoring step of pre-matching is
embarrassingly parallel.  :func:`score_pairs_chunked` splits the sorted
pair list into fixed-size chunks, scores them on a ``multiprocessing``
pool and merges the results in chunk order.  Because every score depends
only on its own pair, the merged dict — and therefore every downstream
mapping — is *identical* to a serial run, whatever the worker count.

Worker processes receive the similarity function and both record indexes
once (via the pool initializer), not per chunk; on platforms with
``fork`` this is inherited memory rather than pickled state.

:func:`filter_and_score_chunked` is the same machinery with the
candidate-pruning engine (:mod:`repro.core.filtering`) run *inside* the
worker chunks: each pair comes back either exactly scored or pruned with
an upper bound, and — filters being pure per-pair functions too — the
merged outcome list is byte-identical to a serial filtered run.

Both pair-level entry points optionally take a batch scoring ``kernel``
(:mod:`repro.core.kernel`): encoded column tables are built once by the
pipeline and shipped to the pool through the initializer (inherited
copy-on-write under ``fork``), and each worker then resolves its chunks
with one vectorized call instead of a per-pair loop — same chunks, same
merge order, bit-identical outcomes.

:func:`build_subgraphs_chunked` extends the same contract to §3.3
subgraph construction: candidate group pairs are chunked, each worker
builds the common subgraphs of its chunk from the δ round's vertex-pair
scores, which the parent computed before the fan-out, and the parent
merges chunks in order.  Workers only read, so the subgraph list is
byte-identical to a serial run.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, Iterable, List, Sequence, Tuple

from ..model.records import PersonRecord
from ..similarity.vector import SimilarityFunction
from .filtering import CandidateFilter, PairOutcome, filter_pairs

PairKey = Tuple[str, str]

#: Default candidate pairs per worker task.  Large enough to amortise
#: task dispatch, small enough to balance uneven chunks.
DEFAULT_CHUNK_SIZE = 1024

#: Per-worker state installed by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}


def resolve_workers(n_workers: int) -> int:
    """Effective worker count: ``0`` means one per CPU core, minimum 1."""
    if n_workers <= 0:
        return max(1, os.cpu_count() or 1)
    return n_workers


def _init_worker(
    sim_func: SimilarityFunction,
    old_index: Dict[str, PersonRecord],
    new_index: Dict[str, PersonRecord],
) -> None:
    _WORKER_STATE["sim_func"] = sim_func
    _WORKER_STATE["old_index"] = old_index
    _WORKER_STATE["new_index"] = new_index


def _score_chunk(chunk: Sequence[PairKey]) -> List[float]:
    sim_func = _WORKER_STATE["sim_func"]
    old_index = _WORKER_STATE["old_index"]
    new_index = _WORKER_STATE["new_index"]
    return [
        sim_func.agg_sim(old_index[old_id], new_index[new_id])
        for old_id, new_id in chunk
    ]


def _init_kernel_score_worker(kernel) -> None:
    _WORKER_STATE["kernel"] = kernel


def _kernel_score_chunk(chunk: Sequence[PairKey]) -> List[float]:
    return _WORKER_STATE["kernel"].agg_sim_chunk(chunk)


def _init_kernel_filter_worker(kernel, delta: float) -> None:
    _WORKER_STATE["kernel"] = kernel
    _WORKER_STATE["delta"] = delta


def _kernel_filter_chunk(chunk: Sequence[PairKey]) -> List[PairOutcome]:
    return _WORKER_STATE["kernel"].evaluate_chunk(
        chunk, _WORKER_STATE["delta"]
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap, shares indexes copy-on-write),
    ``spawn`` otherwise — all scored state here is picklable either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def score_pairs_chunked(
    pairs: Iterable[PairKey],
    old_index: Dict[str, PersonRecord],
    new_index: Dict[str, PersonRecord],
    sim_func: SimilarityFunction,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    kernel=None,
) -> Dict[PairKey, float]:
    """``agg_sim`` (Eq. 3) for every pair, serial or parallel.

    Pairs are sorted before chunking, so the work split — and the result,
    which per pair is a pure function of the records — is deterministic.
    Falls back to the serial loop when ``n_workers`` resolves to 1 or the
    workload is smaller than a single chunk (a pool would only add
    start-up latency).

    With a ``kernel`` (:class:`repro.core.kernel.BatchScoringKernel`,
    built over supersets of both record lists) each chunk is scored in
    one batch call instead of per-pair Python; the kernel ships to
    workers through the pool initializer exactly like the indexes, and
    its scores are bit-identical to ``agg_sim``, so the contract above
    is unchanged.
    """
    ordered = sorted(pairs)
    workers = resolve_workers(n_workers)
    if workers <= 1 or len(ordered) <= chunk_size:
        if kernel is not None:
            return dict(zip(ordered, kernel.agg_sim_chunk(ordered)))
        return {
            (old_id, new_id): sim_func.agg_sim(
                old_index[old_id], new_index[new_id]
            )
            for old_id, new_id in ordered
        }

    chunks = [
        ordered[start : start + chunk_size]
        for start in range(0, len(ordered), chunk_size)
    ]
    context = _pool_context()
    if kernel is not None:
        with context.Pool(
            processes=min(workers, len(chunks)),
            initializer=_init_kernel_score_worker,
            initargs=(kernel,),
        ) as pool:
            chunk_scores = pool.map(_kernel_score_chunk, chunks)
    else:
        with context.Pool(
            processes=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(sim_func, old_index, new_index),
        ) as pool:
            chunk_scores = pool.map(_score_chunk, chunks)

    scores: Dict[PairKey, float] = {}
    for chunk, values in zip(chunks, chunk_scores):
        for pair, score in zip(chunk, values):
            scores[pair] = score
    return scores


def _init_filter_worker(
    candidate_filter: CandidateFilter,
    delta: float,
    old_index: Dict[str, PersonRecord],
    new_index: Dict[str, PersonRecord],
) -> None:
    _WORKER_STATE["candidate_filter"] = candidate_filter
    _WORKER_STATE["delta"] = delta
    _WORKER_STATE["old_index"] = old_index
    _WORKER_STATE["new_index"] = new_index


def _filter_chunk(chunk: Sequence[PairKey]) -> List[PairOutcome]:
    return filter_pairs(
        chunk,
        _WORKER_STATE["old_index"],
        _WORKER_STATE["new_index"],
        _WORKER_STATE["candidate_filter"],
        _WORKER_STATE["delta"],
    )


def filter_and_score_chunked(
    pairs: Iterable[PairKey],
    old_index: Dict[str, PersonRecord],
    new_index: Dict[str, PersonRecord],
    candidate_filter: CandidateFilter,
    delta: float,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    kernel=None,
) -> Dict[PairKey, PairOutcome]:
    """Run the pruning engine over every pair, serial or parallel.

    Each pair maps to a :class:`repro.core.filtering.PairOutcome`: the
    exact ``agg_sim`` when the pair survived the filters (bit-identical
    to :func:`score_pairs_chunked`), or a sub-δ upper bound naming the
    filter that rejected it.  Same determinism contract as
    :func:`score_pairs_chunked`: sorted pairs, fixed chunks, chunk-order
    merge — the worker count never changes a single outcome.

    With a ``kernel`` the staged filters run as chunk-wide masks
    (:meth:`repro.core.kernel.BatchScoringKernel.evaluate_chunk`) —
    same outcomes, kinds and bound values bit for bit, so downstream
    cache bounds and prune counters cannot tell the backends apart.
    """
    ordered = sorted(pairs)
    workers = resolve_workers(n_workers)
    if workers <= 1 or len(ordered) <= chunk_size:
        if kernel is not None:
            return dict(zip(ordered, kernel.evaluate_chunk(ordered, delta)))
        outcomes = filter_pairs(
            ordered, old_index, new_index, candidate_filter, delta
        )
        return dict(zip(ordered, outcomes))

    chunks = [
        ordered[start : start + chunk_size]
        for start in range(0, len(ordered), chunk_size)
    ]
    context = _pool_context()
    if kernel is not None:
        with context.Pool(
            processes=min(workers, len(chunks)),
            initializer=_init_kernel_filter_worker,
            initargs=(kernel, delta),
        ) as pool:
            chunk_outcomes = pool.map(_kernel_filter_chunk, chunks)
        merged: Dict[PairKey, PairOutcome] = {}
        for chunk, values in zip(chunks, chunk_outcomes):
            for pair, outcome in zip(chunk, values):
                merged[pair] = outcome
        return merged
    with context.Pool(
        processes=min(workers, len(chunks)),
        initializer=_init_filter_worker,
        initargs=(candidate_filter, delta, old_index, new_index),
    ) as pool:
        chunk_outcomes = pool.map(_filter_chunk, chunks)

    merged: Dict[PairKey, PairOutcome] = {}
    for chunk, values in zip(chunks, chunk_outcomes):
        for pair, outcome in zip(chunk, values):
            merged[pair] = outcome
    return merged


# -- group stage (§3.3 subgraph construction) ---------------------------------

#: One unit of group-stage work: (old group id, new group id, anchors,
#: vertex candidates as (old id, new id, age deviation) triples).
GroupTask = Tuple[str, str, List[PairKey], List[Tuple[str, str, float]]]


def _init_group_worker(
    sims: Dict[PairKey, float],
    delta: float,
    old_households: Dict[str, object],
    new_households: Dict[str, object],
    config: object,
) -> None:
    _WORKER_STATE["sims"] = sims
    _WORKER_STATE["delta"] = delta
    _WORKER_STATE["old_households"] = old_households
    _WORKER_STATE["new_households"] = new_households
    _WORKER_STATE["config"] = config


def _group_chunk(chunk: Sequence[GroupTask]) -> list:
    """The common subgraph (or ``None``) of every task of one chunk, in
    order."""
    # Imported here: subgraph imports this module at load time.
    from .subgraph import assemble_subgraph

    state = _WORKER_STATE
    return [
        assemble_subgraph(
            state["old_households"][old_group_id],
            state["new_households"][new_group_id],
            candidates, state["sims"], state["delta"], state["config"],
            anchors,
        )
        for old_group_id, new_group_id, anchors, candidates in chunk
    ]


def build_subgraphs_chunked(
    tasks: Sequence[GroupTask],
    old_households: Dict[str, object],
    new_households: Dict[str, object],
    sims: Dict[PairKey, float],
    delta: float,
    config,
    n_workers: int = 1,
    chunk_size: int = 32,
) -> list:
    """Fan the §3.3 subgraph construction over workers.

    ``tasks`` must already be in the deterministic (sorted candidate)
    order and ``sims`` must hold the score of every vertex candidate;
    chunks are merged back in order, so the returned subgraph list is
    byte-identical to a serial loop.
    """
    workers = resolve_workers(n_workers)
    chunks = [
        list(tasks[start : start + chunk_size])
        for start in range(0, len(tasks), chunk_size)
    ]
    context = _pool_context()
    with context.Pool(
        processes=min(workers, len(chunks)),
        initializer=_init_group_worker,
        initargs=(sims, delta, old_households, new_households, config),
    ) as pool:
        chunk_results = pool.map(_group_chunk, chunks)
    return [
        subgraph
        for chunk_subgraphs in chunk_results
        for subgraph in chunk_subgraphs
        if subgraph is not None
    ]
