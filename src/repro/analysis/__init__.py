"""Static analyses over the parallel IR.

These feed both the legality checks of the coarsening transformations
(uniformity w.r.t. parallel induction variables) and the performance model
(affine access strides for coalescing, closed-form operation statistics,
shared-memory accounting).
"""

from .affine import AffineForm, affine_of
from .shared_memory import shared_allocas, shared_bytes_per_block
from .stats import KernelStats, kernel_statistics
from .uniformity import contains_barrier, depends_on_values, is_uniform_in

__all__ = [
    "AffineForm", "BenchmarkAnalysis", "CheckReport", "KernelReport",
    "KernelStats", "affine_of", "analyze_benchmark", "check_files",
    "compare_records", "contains_barrier", "depends_on_values",
    "is_uniform_in", "kernel_statistics", "shared_allocas",
    "shared_bytes_per_block",
]

#: report/check live behind a lazy import: they pull in the pipeline,
#: which itself imports this package for the static analyses above
_LAZY = {
    "BenchmarkAnalysis": "report", "KernelReport": "report",
    "analyze_benchmark": "report",
    "CheckReport": "check", "check_files": "check",
    "compare_records": "check",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" %
                             (__name__, name))
    from importlib import import_module
    return getattr(import_module("." + module, __name__), name)
