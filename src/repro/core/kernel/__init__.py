"""Vectorized batch similarity kernel for the §3.2 pre-matching hot path.

The kernel (see ``docs/KERNEL.md``) encodes each dataset's compared
attribute columns once per run — q-gram multisets packed into sorted
int arrays with CSR offsets, normalised string lengths, exact-attribute
codes — then scores whole candidate chunks with numpy set-intersection
and length arithmetic instead of one Python call per pair.  It is one
of two implementations of the pipeline's pair-scorer interface
(``agg_sim_chunk`` / ``evaluate_chunk``); the other is the per-pair
:class:`repro.core.filtering.PairScorer`, which
``LinkageConfig.build_scoring_kernel`` returns under
``scoring_backend="python"`` or when numpy is not installed.  Outcomes
are **bit-identical** between the two.

Public surface:

* :func:`build_scoring_kernel` — a :class:`BatchScoringKernel`, or
  ``None`` when the vectorized backend cannot run here.
* :class:`BatchScoringKernel` — ``agg_sim_chunk`` / ``evaluate_chunk``.
* :data:`HAVE_NUMPY`, :func:`kernel_available` — capability probes.
* :data:`SCORING_BACKENDS` and the ``BACKEND_*`` constants — the legal
  ``LinkageConfig.scoring_backend`` values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..filtering import FilteringConfig
from .batch import BatchScoringKernel
from .encoding import HAVE_NUMPY, ColumnEncoder, EncodedColumn, encode_columns

#: Legal values of ``LinkageConfig.scoring_backend``.
BACKEND_PYTHON = "python"
BACKEND_VECTORIZED = "vectorized"
SCORING_BACKENDS = (BACKEND_PYTHON, BACKEND_VECTORIZED)


def kernel_available() -> bool:
    """True when the vectorized backend can run in this interpreter
    (numpy importable)."""
    return HAVE_NUMPY


def build_scoring_kernel(
    sim_func,
    old_records: Sequence,
    new_records: Sequence,
    filtering: Optional[FilteringConfig] = None,
) -> Optional[BatchScoringKernel]:
    """A :class:`BatchScoringKernel` over both record lists, or ``None``
    when numpy is unavailable."""
    if not HAVE_NUMPY:
        return None
    return BatchScoringKernel(
        sim_func, old_records, new_records, filtering=filtering
    )


__all__ = [
    "BACKEND_PYTHON",
    "BACKEND_VECTORIZED",
    "BatchScoringKernel",
    "ColumnEncoder",
    "EncodedColumn",
    "HAVE_NUMPY",
    "SCORING_BACKENDS",
    "build_scoring_kernel",
    "encode_columns",
    "kernel_available",
]
