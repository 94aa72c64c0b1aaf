"""Barrier elimination (one of the pre-existing Polygeist optimizations).

Removes provably redundant ``polygeist.barrier`` ops:

* adjacent barriers with no memory access between them collapse to one
  (the coarsening transformations produce these when merging copies);
* a leading barrier with no preceding shared/global access in the thread
  body orders nothing and is removed;
* likewise a trailing barrier with no following access.
"""

from __future__ import annotations

from typing import Callable

from ..dialects import effects
from ..ir import Block, Operation


def _accesses_memory(op: Operation) -> bool:
    return effects.reads_memory(op) or effects.writes_memory(op)


def eliminate_barriers(threads: Operation,
                       erase: Callable[[Operation], None]) -> None:
    """Remove the redundant barriers of one thread loop's body.

    ``erase`` removes a barrier; it is called as soon as a barrier is
    found redundant, so later checks see the block without it.
    """
    _clean_block(threads.body_block(), erase, top_level=True)


def _clean_block(block: Block, erase, top_level: bool) -> None:
    # collapse adjacent barriers (no memory access in between)
    pending_barrier = None
    for op in list(block.ops):
        if op.name == "polygeist.barrier":
            if pending_barrier is not None:
                erase(op)
                continue
            pending_barrier = op
        elif _accesses_memory(op) or effects.is_sync(op):
            pending_barrier = None
        for region in op.regions:
            for nested in region.blocks:
                _clean_block(nested, erase, top_level=False)
    if not top_level:
        return
    # leading barrier: nothing before it accesses memory
    _trim(block, erase, forward=True)
    _trim(block, erase, forward=False)


def _trim(block: Block, erase, forward: bool) -> None:
    ops = block.ops if forward else list(reversed(block.ops))
    for op in list(ops):
        if op.name == "polygeist.barrier":
            erase(op)
            return
        if _accesses_memory(op) or effects.is_sync(op) or op.regions:
            return


def is_thread_loop(op: Operation) -> bool:
    return op.name == "scf.parallel" and op.attr("gpu.kind") == "threads"
