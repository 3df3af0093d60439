"""Chunked multiprocess scoring of candidate pairs (§3.2 hot path).

Scoring a candidate pair — ``Sim_func.agg_sim`` (Eq. 3), or the
pruning engine's exact-score-or-bound outcome at δ — is pure and
independent per pair, so the bulk scoring steps of Alg. 1 are
embarrassingly parallel.  :func:`score_pairs_chunked` splits the pairs'
two row arrays into fixed-size chunks, hands each to the run's pair
scorer (:class:`repro.core.kernel.BatchScoringKernel` or the per-pair
:class:`repro.core.filtering.PairScorer`, one interface) on a
``multiprocessing`` pool and joins the result arrays in chunk order.
Because every outcome depends only on its own pair, the joined arrays
— and therefore every downstream mapping — are *identical* to a serial
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .pairtable import numpy_or_none

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


def _slices(items: Sequence, size: int) -> list:
    """``items`` cut into consecutive slices of ``size``."""
    return [items[start:start + size] for start in range(0, len(items), size)]


def _map_chunks(
    function: Callable[[object], object],
    chunks: Sequence,
    workers: int,
    state: Dict[str, object],
) -> list:
    """``function`` over ``chunks`` on a pool of at most ``workers``
    processes, each holding ``state``: the per-chunk results, in order."""
    with _pool_context().Pool(
        processes=min(workers, len(chunks)),
        initializer=_init_worker,
        initargs=(state,),
    ) as pool:
        return pool.map(function, chunks)


def _score_chunk(rows, state: Dict[str, object] = _WORKER_STATE):
    """The scorer's answer for one ``(old rows, new rows)`` chunk:
    ``agg_sim`` values when ``state["delta"]`` is ``None``, pruning
    outcomes ``(values, kind codes)`` at that δ otherwise."""
    scorer, delta = state["scorer"], state["delta"]
    if delta is None:
        return scorer.agg_sim_chunk(*rows)
    return scorer.evaluate_chunk(*rows, delta)


def _join(parts: list):
    """Per-chunk result arrays (numpy or stdlib) as one, in order."""
    np = numpy_or_none()
    if np is not None:
        return np.concatenate(parts)
    joined = parts[0]
    for part in parts[1:]:
        joined += part
    return joined


def score_pairs_chunked(
    scorer,
    old_rows,
    new_rows,
    delta: Optional[float] = None,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
):
    """Score every ``(old_rows[i], new_rows[i])`` pair with ``scorer``,
    serially or on worker processes.

    ``scorer`` is a pair scorer built over the rows' records
    (``LinkageConfig.build_scoring_kernel``).  With ``delta`` at
    ``None`` the result is the pairs' ``agg_sim`` values (Eq. 3); with a
    δ, the pruning engine's outcomes as ``(values, kind codes)`` — the
    exact ``agg_sim``, or a sub-δ upper bound coded by the filter that
    rejected the pair (:data:`repro.core.filtering.KINDS`).  Either way
    in row order, as arrays.

    The rows are chunked in the order given, so the work split — and
    the result, which per pair is a pure function of the records — is
    deterministic.  Falls back to one serial call when ``n_workers``
    resolves to 1 or the workload is smaller than a single chunk (a pool
    would only add start-up latency).
    """
    state = {"scorer": scorer, "delta": delta}
    workers = resolve_workers(n_workers)
    if workers <= 1 or len(old_rows) <= chunk_size:
        return _score_chunk((old_rows, new_rows), state)
    parts = _map_chunks(
        _score_chunk,
        list(zip(_slices(old_rows, chunk_size), _slices(new_rows, chunk_size))),
        workers,
        state,
    )
    if delta is None:
        return _join(parts)
    return _join([values for values, _ in parts]), _join(
        [kinds for _, kinds in parts]
    )


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
    subgraphs = chain.from_iterable(_map_chunks(
        _group_chunk,
        _slices(tasks, chunk_size),
        resolve_workers(n_workers),
        {
            "sims": sims,
            "delta": delta,
            "old_households": old_households,
            "new_households": new_households,
            "config": config,
        },
    ))
    return [subgraph for subgraph in subgraphs if subgraph is not None]
