"""Vectorized batch similarity kernel for the §3.2 pre-matching hot path.

The kernel (see ``docs/KERNEL.md``) encodes each dataset's compared
attribute columns once per run — q-gram multisets packed into uint64
bitsets, normalised string lengths, exact-attribute codes — then scores
whole candidate chunks with numpy popcounts and length arithmetic
instead of one Python call per pair.  It is one of two implementations
of the pipeline's pair-scorer interface (``agg_sim_chunk`` /
``evaluate_chunk``); the other is the per-pair
:class:`repro.core.filtering.PairScorer`, which
``LinkageConfig.build_scoring_kernel`` returns under
``scoring_backend="python"`` or when numpy (>= 2.0) is not installed.
Outcomes are **bit-identical** between the two.

Public surface:

* :func:`build_scoring_kernel` — a :class:`BatchScoringKernel`, or
  ``None`` when the vectorized backend cannot run here.
* :class:`BatchScoringKernel` — ``agg_sim_chunk`` / ``evaluate_chunk``.
* :func:`kernel_available` — the capability probe, over
  :data:`HAVE_NUMPY` and :data:`HAVE_BITWISE_COUNT`.
* :data:`SCORING_BACKENDS` and the ``BACKEND_*`` constants — the legal
  ``LinkageConfig.scoring_backend`` values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .batch import BatchScoringKernel
from .encoding import (
    HAVE_BITWISE_COUNT,
    HAVE_NUMPY,
    ColumnEncoder,
    EncodedColumn,
    encode_columns,
)

#: Legal values of ``LinkageConfig.scoring_backend``.
BACKEND_PYTHON = "python"
BACKEND_VECTORIZED = "vectorized"
SCORING_BACKENDS = (BACKEND_PYTHON, BACKEND_VECTORIZED)


def kernel_available() -> bool:
    """True when the vectorized backend can run in this interpreter:
    numpy importable, and new enough (2.0) for ``np.bitwise_count``."""
    return HAVE_NUMPY and HAVE_BITWISE_COUNT


def build_scoring_kernel(
    sim_func,
    old_records: Sequence,
    new_records: Sequence,
) -> Optional[BatchScoringKernel]:
    """A :class:`BatchScoringKernel` over both record lists, or ``None``
    when the kernel cannot run here (:func:`kernel_available`)."""
    if not kernel_available():
        return None
    return BatchScoringKernel(sim_func, old_records, new_records)


__all__ = [
    "BACKEND_PYTHON",
    "BACKEND_VECTORIZED",
    "BatchScoringKernel",
    "ColumnEncoder",
    "EncodedColumn",
    "HAVE_BITWISE_COUNT",
    "HAVE_NUMPY",
    "SCORING_BACKENDS",
    "build_scoring_kernel",
    "encode_columns",
    "kernel_available",
]
