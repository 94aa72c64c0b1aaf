"""Transform validation: differential equivalence, lint, and fuzzing.

The three layers of the correctness story (see ``docs/VALIDATION.md``):

* :mod:`~repro.validate.differential` — run baseline and alternatives
  through the interpreter on seeded inputs and diff device memory;
* :mod:`~repro.validate.lint` — static barrier-legality lint over
  gpu_wrapper IR (thread divergence, §V-C block dependence, shared-memory
  write races);
* :mod:`~repro.validate.fuzz` — hypothesis strategies generating
  adversarial barrier placements, checking the transforms' accept/reject
  decisions against interpreter semantics.
"""

from .differential import (AlternativeVerdict, BufferDiff, ValidationReport,
                           compare_buffers, validate_alternatives,
                           validate_benchmark, validate_source,
                           DIVERGED, ERROR, EXECUTION_ERRORS, OK, SKIPPED)
from .lint import (LintFinding, LintReport, block_coarsening_illegal,
                   lint_module, lint_wrapper,
                   BARRIER_BLOCK_DEPENDENT, BARRIER_DIVERGENT,
                   SHARED_WRITE_RACE)

__all__ = [
    "AlternativeVerdict", "BARRIER_BLOCK_DEPENDENT", "BARRIER_DIVERGENT",
    "BufferDiff", "DIVERGED", "ERROR", "EXECUTION_ERRORS", "LintFinding",
    "LintReport", "OK", "SHARED_WRITE_RACE", "SKIPPED", "ValidationReport",
    "block_coarsening_illegal", "compare_buffers", "lint_module",
    "lint_wrapper", "validate_alternatives", "validate_benchmark",
    "validate_source",
]
