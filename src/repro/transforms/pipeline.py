"""The cleanup entry points run before and after coarsening."""

from __future__ import annotations

from typing import Sequence, Union

from ..ir import Module, Operation, Region
from .cleanup import REWRITES, SCALAR_REWRITES, cleanup


def run_cleanup(target: Union[Module, Operation],
                parallel_optimizations: bool = True) -> None:
    """Clean ``target``, a whole module or one ``func.func`` op, until no
    rewrite applies.

    A function is isolated from above, as in MLIR: every launch and call
    is inlined into it, so cleaning it alone gives the same IR as
    cleaning the whole module and changes no other function.

    With ``parallel_optimizations`` disabled only the classical scalar
    cleanups run (no LICM, no barrier elimination) — this models the
    paper's "Polygeist-GPU without optimizations" configuration used as
    the clang-parity baseline in Fig. 16.
    """
    op = target.op if isinstance(target, Module) else target
    cleanup(op.regions,
            REWRITES if parallel_optimizations else SCALAR_REWRITES,
            whole=True, parallel=parallel_optimizations)


def cleanup_regions(regions: Sequence[Region],
                    parallel_optimizations: bool = True) -> None:
    """Clean just ``regions`` (the alternatives of one wrapper).

    The enclosing module is never walked: the pure ops that dominate the
    regions from outside are reused by CSE, and the rest of the module is
    left as it is. With the enclosing IR already clean (the autotuning
    flow pre-cleans the wrapper's function before generating
    alternatives) the result is identical to a whole-module
    :func:`run_cleanup` — proven by the benchsuite-wide equivalence test.
    """
    cleanup(regions, REWRITES if parallel_optimizations else SCALAR_REWRITES,
            whole=False, parallel=parallel_optimizations,
            regions=len(regions))
