"""Validation subsystem: invariants and golden runs.

Two complementary correctness tools for the linkage pipeline:

* :mod:`repro.validation.invariants` — a registry of runtime-checkable
  structural invariants over :class:`~repro.core.pipeline.LinkageResult`
  (Alg. 1/2 of the paper), runnable standalone via
  :func:`~repro.validation.invariants.validate_result` or inline via
  ``LinkageConfig(validate=True)``;
* :mod:`repro.validation.golden` — canonical JSON serialization of
  seeded end-to-end runs, pinned as committed fixtures and replayed by
  ``repro golden --check`` and the tier-1 suite.
"""

from .golden import (
    DEFAULT_SPECS,
    GoldenCheck,
    GoldenSpec,
    analysis_jsonable,
    canonical_json,
    check_golden,
    config_fingerprint,
    diff_documents,
    record_golden,
    run_golden,
)
from .invariants import (
    REGISTRY,
    InvariantViolation,
    ValidationReport,
    Violation,
    invariant,
    validate_result,
    validate_selection,
)

__all__ = [
    "DEFAULT_SPECS",
    "GoldenCheck",
    "GoldenSpec",
    "analysis_jsonable",
    "canonical_json",
    "check_golden",
    "config_fingerprint",
    "diff_documents",
    "record_golden",
    "run_golden",
    "REGISTRY",
    "InvariantViolation",
    "ValidationReport",
    "Violation",
    "invariant",
    "validate_result",
    "validate_selection",
]
