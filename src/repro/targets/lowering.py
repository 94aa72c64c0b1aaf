"""Device lowering: flatten a thread body into a linear virtual-ISA stream.

The platform-specific backend of the paper (ptxas / AMD) compiles each
alternative once and reports both kernel statistics and register usage.
Here the equivalent is one linearized instruction list with loop span
markers and per-thread execution weights. It is the only walk of a thread
body on the modeling path: the operation statistics, the coalescing and
bank-conflict analyses, the divergence count and the register estimator
(live intervals) all consume it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..dialects import arith
from ..ir import (Block, FloatType, IndexType, IntegerType, MemRefType,
                  Operation, OpResult, Value)

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

    @property
    def length(self) -> int:
        return len(self.instrs)

    @cached_property
    def max_live(self) -> int:
        """Most 32-bit register units live at once over the stream."""
        events = []  # (index, +units) and (index, -units)
        for value, definition in self.def_index.items():
            last = self.last_use.get(value)
            if last is None or last < definition:
                continue
            units = _value_registers(value)
            if units == 0:
                continue
            events.append((definition, units))
            events.append((last + 1, -units))
        events.sort()
        live = 0
        max_live = 0
        for _, delta in events:
            live += delta
            max_live = max(max_live, live)
        return max_live


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
    lin.instrs.append(LinearInstr(index, op, kind, executions))
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
