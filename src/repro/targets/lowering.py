"""Device lowering: flatten a thread body into a linear virtual-ISA stream.

The platform-specific backend of the paper (ptxas / AMD) consumes lowered
kernels; here the equivalent is a linearized instruction list with loop span
markers, consumed by the register estimator (live intervals) and available
to the timing model (instruction mix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dialects import arith
from ..ir import (Block, FloatType, IndexType, IntegerType, MemRefType,
                  Operation, OpResult, Type, Value)


@dataclass
class LinearInstr:
    """One instruction in the linearized stream."""

    index: int
    op: Operation
    kind: str                   # "alu", "fpu32", "fpu64", "special",
    #                             "load", "store", "barrier", "branch",
    #                             "loop_begin", "loop_end", "const"
    #: nesting depth of enclosing loops (for weighting)
    loop_depth: int


@dataclass
class Linearized:
    """A flattened thread body."""

    instrs: List[LinearInstr] = field(default_factory=list)
    #: per-value definition index
    def_index: Dict[Value, int] = field(default_factory=dict)
    #: per-value last-use index (extended to loop ends for loop-crossing)
    last_use: Dict[Value, int] = field(default_factory=dict)
    #: (start, end) spans of loop bodies
    loop_spans: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.instrs)


def _kind_of(op: Operation) -> Optional[str]:
    name = op.name
    if name == "arith.constant":
        return "const"
    if name in ("memref.load",):
        return "load"
    if name in ("memref.store",):
        return "store"
    if name == "memref.atomic_rmw":
        return "load"
    if name == "polygeist.barrier":
        return "barrier"
    if name.startswith("math."):
        return "special"
    if name.startswith("arith."):
        width = None
        probe = op.results[0].type if op.results else (
            op.operand(0).type if op.num_operands else None)
        if isinstance(probe, FloatType):
            return "fpu64" if probe.width == 64 else "fpu32"
        return "alu"
    if name in ("memref.alloca", "memref.alloc", "memref.dim",
                "memref.get_global", "memref.dealloc"):
        return "alu"
    return None


def _value_registers(value: Value) -> int:
    """32-bit registers needed to hold a value (0 when rematerializable)."""
    if isinstance(value, OpResult) and \
            value.owner.name == "arith.constant":
        return 0  # immediates are rematerialized
    type_ = value.type
    if isinstance(type_, FloatType):
        return 2 if type_.width == 64 else 1
    if isinstance(type_, IndexType):
        return 2
    if isinstance(type_, IntegerType):
        return 2 if type_.width == 64 else 1
    if isinstance(type_, MemRefType):
        return 2  # a pointer
    return 1


def _note_use(lin: Linearized, value: Value, index: int) -> None:
    if value in lin.last_use:
        lin.last_use[value] = max(lin.last_use[value], index)
    else:
        lin.last_use[value] = index


def _emit(lin: Linearized, op: Operation, kind: str, depth: int) -> None:
    index = len(lin.instrs)
    lin.instrs.append(LinearInstr(index, op, kind, depth))
    for operand in op.operands:
        _note_use(lin, operand, index)
    for result in op.results:
        lin.def_index[result] = index


def _walk_block(lin: Linearized, block: Block, depth: int) -> None:
    # module level, not a closure: a self-referencing nested function is
    # a reference cycle that keeps the whole stream alive until a full GC
    for op in block.ops:
        name = op.name
        if name in ("scf.yield", "scf.condition"):
            index = len(lin.instrs)
            for operand in op.operands:
                _note_use(lin, operand, index)
            continue
        if name in ("scf.for", "scf.while", "scf.parallel"):
            start = len(lin.instrs)
            _emit(lin, op, "loop_begin", depth)
            for arg_source in op.operands:
                _note_use(lin, arg_source, start)
            for region in op.regions:
                for nested in region.blocks:
                    for arg in nested.args:
                        lin.def_index[arg] = start
                    _walk_block(lin, nested, depth + 1)
            end = len(lin.instrs)
            lin.instrs.append(LinearInstr(end, op, "loop_end", depth))
            lin.loop_spans.append((start, end))
            for result in op.results:
                lin.def_index[result] = end
            continue
        if name == "scf.if":
            _emit(lin, op, "branch", depth)
            for region in op.regions:
                for nested in region.blocks:
                    _walk_block(lin, nested, depth)
            end = len(lin.instrs)
            for result in op.results:
                lin.def_index[result] = end
            continue
        if name == "polygeist.alternatives":
            _walk_block(lin, op.body_block(0), depth)
            continue
        kind = _kind_of(op)
        if kind is None:
            kind = "alu"
        _emit(lin, op, kind, depth)


def linearize_thread_body(thread_parallel: Operation) -> Linearized:
    """Flatten the body of a GPU thread loop into :class:`Linearized`."""
    lin = Linearized()
    _walk_block(lin, thread_parallel.body_block(), 0)

    # extend lifetimes across loop back-edges: any value defined before a
    # loop and used inside it stays live until the loop's end. Values are
    # bucketed by their current last use so each span only inspects the
    # indices it covers (spans are in post-order, so by the time an outer
    # span is processed, inner-span extensions have already landed in its
    # range — the same cascade the naive spans × values scan produces).
    if lin.loop_spans:
        buckets: Dict[int, List[Value]] = {}
        for value, use in lin.last_use.items():
            buckets.setdefault(use, []).append(value)
        def_index = lin.def_index
        last_use = lin.last_use
        for start, end in lin.loop_spans:
            for use in range(start, end):  # use == end extends to itself
                values = buckets.get(use)
                if not values:
                    continue
                kept = []
                for value in values:
                    if def_index.get(value, 0) < start:
                        last_use[value] = end
                        buckets.setdefault(end, []).append(value)
                    else:
                        kept.append(value)
                buckets[use] = kept
    return lin
