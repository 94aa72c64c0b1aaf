"""Loop-invariant code motion, including GPU shared-memory loads.

The paper attributes its lavaMD speedup (§VII-C) to "better loop invariant
code motion with respect to GPU shared memory": loads from shared buffers
that are not written inside the loop get hoisted out of the innermost
compute loops. This pass implements that: pure ops are hoisted whenever
their operands are loop-invariant, and loads additionally require that no
write to the same buffer occurs inside the loop and that they execute on
every iteration of a loop with a known positive trip count.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..dialects import arith, effects, memref as memref_d
from ..ir import Operation, OpResult, Value


def _defined_inside(value: Value, loop: Operation) -> bool:
    """True if ``value`` is a result or block argument nested in ``loop``."""
    block = value.owner.parent if value.__class__ is OpResult \
        else value.owner
    outside = loop.parent
    while block is not None and block is not outside:
        region = block.parent
        if region is None:
            return False
        op = region.parent
        if op is loop:
            return True
        if op is None:
            return False
        block = op.parent
    return False


def _written_buffers(op: Operation) -> Set[int]:
    """ids of memref base values stored to anywhere inside ``op``."""
    written: Set[int] = set()

    def collect(child: Operation) -> None:
        if child.name in ("memref.store", "memref.atomic_rmw"):
            written.add(id(memref_d.load_op_ref(child)))
        elif child.name in ("func.call", "gpu.launch_func"):
            written.add(-1)  # unknown writes

    op.walk_preorder(collect)
    return written


def _has_positive_trip_count(loop: Operation) -> bool:
    lb = arith.constant_value(loop.operand(0))
    ub = arith.constant_value(loop.operand(1))
    return lb is not None and ub is not None and ub > lb


def _is_speculatable(op: Operation) -> bool:
    """Pure and safe to execute even if the loop body never ran."""
    if op.regions or not effects.is_pure(op):
        return False
    if op.name in ("arith.divsi", "arith.remsi", "arith.divui",
                   "arith.remui"):
        divisor = arith.constant_value(op.operand(1))
        return divisor is not None and divisor != 0
    return True


def hoist_invariants(loop: Operation) -> List[Operation]:
    """Move ``loop``'s invariant ops in front of it, in body order.

    Returns the hoisted ops. An op is invariant when none of its operands
    is defined inside the loop (ops hoisted earlier in the same walk count
    as outside).
    """
    written: Optional[Set[int]] = None
    guarded_trip = _has_positive_trip_count(loop)
    parent = loop.parent
    hoisted: List[Operation] = []
    for op in list(loop.body_block().ops):
        if any(_defined_inside(operand, loop) for operand in op._operands):
            continue
        if not _is_speculatable(op):
            if op.name != "memref.load" or not guarded_trip:
                continue
            if written is None:
                written = _written_buffers(loop)
            if id(memref_d.load_op_ref(op)) in written or -1 in written:
                continue
        op.detach()
        parent.insert(parent.ops.index(loop), op)
        hoisted.append(op)
    return hoisted
