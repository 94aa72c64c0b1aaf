"""Device lowering: flatten a thread body into a linear virtual-ISA stream.

The platform-specific backend of the paper (ptxas / AMD) compiles each
alternative once and reports both kernel statistics and register usage.
Here the equivalent is one linearized instruction list with loop span
markers and per-thread execution weights. It is the only walk of a thread
body on the modeling path: the operation statistics, the coalescing and
bank-conflict analyses, the divergence count and the register estimator
(live intervals) all consume it. Its memory accesses form one
arch-independent table (:meth:`Linearized.access_table`), built on first
use, that the access analyses and the load/store counts fold over.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from ..analysis.affine import AccessMemo
from ..dialects import arith
from ..dialects import memref as memref_d
from ..ir import (Block, FloatType, IndexType, IntegerType, MemRefType,
                  Operation, OpResult, Value, byte_width)

#: assumed trip count for loops whose bounds are not compile-time constants
SYMBOLIC_TRIPS = 16.0


class _Scope(threading.local):
    #: this thread's memo of :func:`linearize_thread_body`, keyed by
    #: thread loop; ``None`` outside :func:`linearized_cache` scopes
    cache: Optional[Dict[Operation, "Linearized"]] = None


_SCOPE = _Scope()


@contextmanager
def linearized_cache():
    """Memoize :func:`linearize_thread_body` by operation identity.

    One tuning run linearizes each alternative's thread loops in the spill
    filter and again when the timing model characterizes the survivor, on
    every target architecture. Inside this scope all of them share one
    stream per loop. The cache is only sound while the analyzed IR is not
    mutated, so it is scoped: entries live for the dynamic extent of the
    ``with`` block (keys hold strong references, so operation identity
    cannot be recycled underneath the cache). Nested scopes share the
    outermost cache. Scopes are per thread: tunes overlapping in threads
    (``repro serve --isolation thread``) neither share entries nor end
    each other's scope.
    """
    outer = _SCOPE.cache
    if outer is None:
        _SCOPE.cache = {}
    try:
        yield
    finally:
        if outer is None:
            _SCOPE.cache = None


@dataclass
class LinearInstr:
    """One instruction in the linearized stream."""

    index: int
    op: Operation
    kind: str                   # "alu", "fpu32", "fpu64", "special",
    #                             "load", "store", "barrier", "branch",
    #                             "loop_begin", "loop_end", "const"
    #: executions per thread: the product of the enclosing trip counts,
    #: times 0.5 per enclosing ``scf.if``; on a ``loop_begin`` the loop's
    #: own iterations, on a ``loop_end`` the loop's own executions
    executions: float


@dataclass
class MemoryAccess:
    """One load, store or atomic of a stream: the facts the access
    analyses and the operation statistics fold over."""

    instr: LinearInstr
    is_store: bool
    is_atomic: bool
    #: memory space of the accessed memref (None when it is not a memref)
    space: Optional[str]
    element_bytes: int
    #: executions per thread, as on :attr:`instr`
    executions: float
    #: elements stepped per +1 of threadIdx.x (None = unknown/irregular)
    stride_x: Optional[int]


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
    #: True when some trip count was estimated (``SYMBOLIC_TRIPS``)
    symbolic: bool = False
    #: the load, store and atomic instructions, in stream order
    memory: List[LinearInstr] = field(default_factory=list)
    #: shared-space allocas in the body (in every region the walk enters)
    shared_allocas: List[Operation] = field(default_factory=list)
    #: the GPU thread loop whose body this is
    loop: Optional[Operation] = None
    _accesses: Optional[List[MemoryAccess]] = field(default=None,
                                                    repr=False)

    @property
    def length(self) -> int:
        return len(self.instrs)

    def access_table(self, memo: Optional[AccessMemo] = None
                     ) -> List[MemoryAccess]:
        """One record per memory instruction, in stream order.

        Built on the first call, with ``memo`` (by default a fresh
        :class:`AccessMemo` over :attr:`loop`) answering the strides.
        Every memo of the loop answers alike, so later calls return the
        same table whichever memo they pass.
        """
        if self._accesses is not None:
            return self._accesses
        if memo is None:
            memo = AccessMemo(self.loop)
        table = []
        for instr in self.memory:
            op = instr.op
            type_ = memref_d.load_op_ref(op).type
            if isinstance(type_, MemRefType):
                space = type_.memory_space
                element_bytes = byte_width(type_.element)
            else:
                space = None
                element_bytes = 0
            table.append(MemoryAccess(
                instr, op.name == memref_d.STORE,
                op.name == memref_d.ATOMIC_RMW, space, element_bytes,
                instr.executions, memo.stride(op)))
        self._accesses = table
        return table

    @cached_property
    def max_live(self) -> int:
        """Most 32-bit register units live at once over the stream."""
        # a value holds its units from its definition through its last
        # use: +units at the one index, -units just past the other
        deltas = [0] * (len(self.instrs) + 2)
        last_use = self.last_use
        for value, definition in self.def_index.items():
            last = last_use.get(value)
            if last is None or last < definition:
                continue
            units = _value_registers(value)
            deltas[definition] += units
            deltas[last + 1] -= units
        return max(0, max(accumulate(deltas)))


def _kind_of(op: Operation) -> str:
    name = op.name
    if name == "arith.constant":
        return "const"
    if name in ("memref.load", "memref.atomic_rmw"):
        return "load"
    if name == "memref.store":
        return "store"
    if name == "polygeist.barrier":
        return "barrier"
    if name.startswith("math."):
        return "special"
    if name.startswith("arith."):
        probe = op.results[0].type if op.results else (
            op.operand(0).type if op.num_operands else None)
        if isinstance(probe, FloatType):
            return "fpu64" if probe.width == 64 else "fpu32"
    return "alu"


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


def _trips(lin: Linearized, op: Operation) -> float:
    """Iterations of a loop op per execution; marks ``lin`` symbolic when
    some bound is not a compile-time constant."""
    if op.name == "scf.for":
        lb = arith.constant_value(op.operand(0))
        ub = arith.constant_value(op.operand(1))
        step = arith.constant_value(op.operand(2))
        if lb is None or ub is None or step is None or step <= 0:
            lin.symbolic = True
            return SYMBOLIC_TRIPS
        return max(0.0, float((ub - lb + step - 1) // step))
    if op.name == "scf.while":
        lin.symbolic = True
        return SYMBOLIC_TRIPS
    # a nested (non-GPU) scf.parallel runs the product of its extents
    trips = 1.0
    n = op.attr("num_dims")
    for d in range(n):
        ub = arith.constant_value(op.operands[n + d])
        lb = arith.constant_value(op.operands[d])
        if ub is None or lb is None:
            lin.symbolic = True
            trips *= SYMBOLIC_TRIPS
        else:
            trips *= max(0, ub - lb)
    return trips


def _note_use(lin: Linearized, value: Value, index: int) -> None:
    if value in lin.last_use:
        lin.last_use[value] = max(lin.last_use[value], index)
    else:
        lin.last_use[value] = index


def _emit(lin: Linearized, op: Operation, kind: str,
          executions: float) -> None:
    index = len(lin.instrs)
    instr = LinearInstr(index, op, kind, executions)
    lin.instrs.append(instr)
    if kind == "load" or kind == "store":
        lin.memory.append(instr)
    elif op.name == memref_d.ALLOCA:
        type_ = op.results[0].type
        if isinstance(type_, MemRefType) and type_.memory_space == "shared":
            lin.shared_allocas.append(op)
    for operand in op.operands:
        _note_use(lin, operand, index)
    for result in op.results:
        lin.def_index[result] = index


def _walk_block(lin: Linearized, block: Block, weight: float) -> None:
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
            inner = weight * _trips(lin, op)
            start = len(lin.instrs)
            _emit(lin, op, "loop_begin", inner)
            for arg_source in op.operands:
                _note_use(lin, arg_source, start)
            for region in op.regions:
                for nested in region.blocks:
                    for arg in nested.args:
                        lin.def_index[arg] = start
                    _walk_block(lin, nested, inner)
            end = len(lin.instrs)
            lin.instrs.append(LinearInstr(end, op, "loop_end", weight))
            lin.loop_spans.append((start, end))
            for result in op.results:
                lin.def_index[result] = end
            continue
        if name == "polygeist.alternatives":
            _walk_block(lin, op.body_block(0), weight)
            continue
        if name == "scf.if":
            _emit(lin, op, "branch", weight)
            # both sides at half weight (unknown probability)
            inner = weight * 0.5
        else:
            _emit(lin, op, _kind_of(op), weight)
            inner = weight
        if op.regions:
            for region in op.regions:
                for nested in region.blocks:
                    _walk_block(lin, nested, inner)
            end = len(lin.instrs)
            for result in op.results:
                lin.def_index[result] = end


def linearize_thread_body(thread_parallel: Operation) -> Linearized:
    """Flatten the body of a GPU thread loop into :class:`Linearized`.

    The walk descends into every region of every op except
    ``polygeist.alternatives``, of which only the first alternative is
    taken. A nested ``scf.parallel`` counts as a loop over the product of
    its extents, an ``scf.while`` as ``SYMBOLIC_TRIPS`` iterations. Inside
    a :func:`linearized_cache` scope the stream is built once per loop.
    """
    cache = _SCOPE.cache
    if cache is not None:
        hit = cache.get(thread_parallel)
        if hit is not None:
            return hit
    lin = Linearized()
    lin.loop = thread_parallel
    _walk_block(lin, thread_parallel.body_block(), 1.0)

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
    if cache is not None:
        cache[thread_parallel] = lin
    return lin
