"""Shared-memory accounting for kernels in the parallel representation.

The alternatives pipeline (§VI) prunes coarsening configurations whose static
shared-memory requirement exceeds the target's per-block limit, *before* any
further compilation work — the paper's "early pruning" stage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..ir import MemRefType, Operation

if TYPE_CHECKING:  # the stream's module imports the analyses
    from ..targets.lowering import Linearized


def shared_allocas(root: Operation,
                   skip: Optional[Operation] = None) -> List[Operation]:
    """All shared-space allocas nested in ``root``, in preorder, without
    descending into ``skip``."""
    found: List[Operation] = []
    _collect_shared(root, skip, found)
    return found


def _collect_shared(root: Operation, skip: Optional[Operation],
                    found: List[Operation]) -> None:
    for region in root.regions:
        for block in region.blocks:
            for op in block.ops:
                if op is skip:
                    continue
                if op.name == "memref.alloca":
                    type_ = op.results[0].type
                    if isinstance(type_, MemRefType) and \
                            type_.memory_space == "shared":
                        found.append(op)
                if op.regions:
                    _collect_shared(op, skip, found)


def shared_bytes(allocas: List[Operation]) -> int:
    """Total static size of ``allocas``, in bytes."""
    return sum(op.result().type.size_bytes() for op in allocas)


def shared_bytes_per_block(block_parallel: Operation,
                           lin: Optional["Linearized"] = None) -> int:
    """Total static shared memory allocated per GPU block, in bytes.

    ``lin``, the stream of a thread loop in the block, stands in for that
    loop's body: its allocas come from the stream, and the body is not
    walked again.
    """
    if lin is None:
        return shared_bytes(shared_allocas(block_parallel))
    return shared_bytes(shared_allocas(block_parallel, lin.loop)) + \
        shared_bytes(lin.shared_allocas)
