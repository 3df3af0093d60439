"""Chunked multiprocess scoring of candidate pairs (§3.2 hot path).

Scoring a candidate pair — ``Sim_func.agg_sim`` (Eq. 3), or the
pruning engine's exact-score-or-bound outcome at δ — is pure and
independent per pair, so the bulk scoring steps of Alg. 1 are
embarrassingly parallel.  :func:`score_pairs_chunked` splits the sorted
pair list into fixed-size chunks, hands each to the run's pair scorer
(:class:`repro.core.kernel.BatchScoringKernel` or the per-pair
:class:`repro.core.filtering.PairScorer`, one interface) on a
``multiprocessing`` pool and merges the results in chunk order.
Because every outcome depends only on its own pair, the merged dict —
and therefore every downstream mapping — is *identical* to a serial
run, whatever the worker count.

:func:`build_subgraphs_chunked` extends the same contract to §3.3
subgraph construction: candidate group pairs are chunked, each worker
builds the common subgraphs of its chunk from the δ round's vertex-pair
scores, which the parent computed before the fan-out, and the parent
merges chunks in order.  Workers only read, so the subgraph list is
byte-identical to a serial run.

Both go through one pool helper: read-only worker state (the scorer, or
the round's scores and households) is installed once per worker by the
pool initializer, not shipped per chunk; under ``fork`` it is inherited
memory rather than pickled state.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


def _init_worker(state: Dict[str, object]) -> None:
    _WORKER_STATE.update(state)


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap, shares state copy-on-write),
    ``spawn`` otherwise — all worker state here is picklable either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _map_chunks(
    function: Callable[[Sequence], list],
    items: Sequence,
    chunk_size: int,
    workers: int,
    state: Dict[str, object],
) -> list:
    """``function`` over ``chunk_size`` slices of ``items`` on a pool of
    at most ``workers`` processes, each holding ``state``: the per-item
    results, concatenated in item order."""
    chunks = [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]
    with _pool_context().Pool(
        processes=min(workers, len(chunks)),
        initializer=_init_worker,
        initargs=(state,),
    ) as pool:
        return list(chain.from_iterable(pool.map(function, chunks)))


def _score_chunk(
    chunk: Sequence[PairKey], state: Dict[str, object] = _WORKER_STATE
) -> list:
    """The scorer's answer for one chunk: ``agg_sim`` values when
    ``state["delta"]`` is ``None``, pruning outcomes at that δ otherwise."""
    scorer, delta = state["scorer"], state["delta"]
    if delta is None:
        return scorer.agg_sim_chunk(chunk)
    return scorer.evaluate_chunk(chunk, delta)


def score_pairs_chunked(
    scorer,
    pairs: Iterable[PairKey],
    delta: Optional[float] = None,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Dict[PairKey, object]:
    """Score every pair with ``scorer``, serially or on worker processes.

    ``scorer`` is a pair scorer built over supersets of the pairs'
    records (``LinkageConfig.build_scoring_kernel``).  With ``delta`` at
    ``None`` each pair maps to its ``agg_sim`` (Eq. 3); with a δ, to the
    pruning engine's :class:`~repro.core.filtering.PairOutcome` — the
    exact ``agg_sim``, or a sub-δ upper bound naming the filter that
    rejected the pair.

    Pairs are sorted before chunking, so the work split — and the result,
    which per pair is a pure function of the records — is deterministic.
    Falls back to one serial call when ``n_workers`` resolves to 1 or the
    workload is smaller than a single chunk (a pool would only add
    start-up latency).
    """
    ordered = sorted(pairs)
    state = {"scorer": scorer, "delta": delta}
    workers = resolve_workers(n_workers)
    if workers <= 1 or len(ordered) <= chunk_size:
        values = _score_chunk(ordered, state)
    else:
        values = _map_chunks(
            _score_chunk, ordered, chunk_size, workers, state
        )
    return dict(zip(ordered, values))


# -- group stage (§3.3 subgraph construction) ---------------------------------

#: One unit of group-stage work: (old group id, new group id, anchors,
#: vertex candidates as (old id, new id, age deviation) triples).
GroupTask = Tuple[str, str, List[PairKey], List[Tuple[str, str, float]]]


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
    subgraphs = _map_chunks(
        _group_chunk,
        tasks,
        chunk_size,
        resolve_workers(n_workers),
        {
            "sims": sims,
            "delta": delta,
            "old_households": old_households,
            "new_households": new_households,
            "config": config,
        },
    )
    return [subgraph for subgraph in subgraphs if subgraph is not None]
