"""IR transformations.

Cleanup rewrites (canonicalize/CSE/load elimination/LICM/barrier
elimination/DCE, applied by the one worklist driver in :mod:`cleanup`)
mirror the pre-existing Polygeist/MLIR optimizations the paper builds on
(§III); the paper's own contributions live in :mod:`unroll_interleave`
(nested parallel loop unroll-and-interleave, §IV), :mod:`coarsen` (thread
and block coarsening, §V), and :mod:`alternatives` (compile-time
multi-versioning, §VI).
"""

from .alternatives import (AlternativeInfo, PlannedAlternatives,
                           plan_coarsening_alternatives, select_alternative)
from .cleanup import run_rewrites
from .coarsen import (CoarsenError, CoarsenResult, balance_factors,
                      block_coarsen, coarsen_wrapper, is_uncoarsened,
                      thread_coarsen)
from .outline import outline_gpu_wrappers
from .pipeline import cleanup_regions, run_cleanup
from .unroll_interleave import IllegalUnroll, check_unroll_legality, \
    unroll_and_interleave

__all__ = [
    "AlternativeInfo", "CoarsenError", "CoarsenResult", "IllegalUnroll",
    "balance_factors", "block_coarsen", "check_unroll_legality",
    "cleanup_regions", "coarsen_wrapper", "is_uncoarsened",
    "outline_gpu_wrappers",
    "PlannedAlternatives", "plan_coarsening_alternatives",
    "run_cleanup", "run_rewrites", "select_alternative", "thread_coarsen",
    "unroll_and_interleave",
]
