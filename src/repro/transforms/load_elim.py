"""Redundant load elimination.

Within a block, a load from the same buffer at the same index values as an
earlier load — with no intervening store to that buffer and no barrier —
reuses the earlier value. This is the standard backend optimization that
makes coarsening pay off: unroll-and-interleave copies whose addresses do
not depend on the unrolled induction variable become *identical* loads, and
eliminating them is precisely the cross-(coarsened-)block data reuse the
paper measures in Table II (block coarsening cutting L2→L1 read traffic;
thread coarsening cutting shared-memory requests).

Barriers act as memory fences: all cached loads are invalidated, matching
the conservative behaviour of real GPU backends around ``__syncthreads``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir import Operation, Value

#: ops that may write memory or synchronize: a region op holding one of
#: them (at any depth) invalidates everything known in its block
EFFECTFUL = frozenset(("memref.store", "memref.atomic_rmw",
                       "polygeist.barrier", "func.call",
                       "gpu.launch_func"))

#: region-free ops :meth:`Forwarding.step` reads or invalidates on
TRACKED = frozenset(("memref.load", "memref.store", "memref.atomic_rmw",
                     "polygeist.barrier"))


class Forwarding:
    """What one block knows about memory, in program order: the earliest
    load of each (buffer, indices) cell and the value last stored there."""

    __slots__ = ("available", "stored")

    def __init__(self):
        #: (id(base), index value ids) -> available load op
        self.available: Dict[Tuple, Operation] = {}
        #: (id(base), index value ids) -> last value stored there
        self.stored: Dict[Tuple, Value] = {}

    def step(self, op: Operation) -> Optional[Value]:
        """Advance past region-free ``op``; for a redundant load, return
        the value that replaces it."""
        name = op.name
        if name == "memref.load":
            operands = op._operands
            key = (id(operands[0]), tuple(map(id, operands[1:])))
            forwarded = self.stored.get(key)
            if forwarded is not None:
                # store-to-load forwarding: the thread just wrote this
                # cell and nothing synchronized in between
                return forwarded
            earlier = self.available.get(key)
            if earlier is not None:
                return earlier.result()
            self.available[key] = op
        elif name == "memref.store":
            operands = op._operands
            base = operands[1]
            self._invalidate_base(base)
            self.stored[(id(base), tuple(map(id, operands[2:])))] = \
                operands[0]
        elif name == "memref.atomic_rmw":
            self._invalidate_base(op._operands[1])
        elif name == "polygeist.barrier":
            self.clear()
        return None

    def clear(self) -> None:
        """Forget everything: a barrier, or a region op that may store or
        synchronize."""
        self.available.clear()
        self.stored.clear()

    def _invalidate_base(self, base: Value) -> None:
        base_id = id(base)
        for table in (self.available, self.stored):
            for key in [k for k in table if k[0] == base_id]:
                del table[key]


def has_effects_inside(op: Operation) -> bool:
    """True if anything nested in ``op`` is in :data:`EFFECTFUL`."""
    # explicit stack so the walk stops at the first hit instead of
    # visiting the whole subtree
    stack = [op]
    while stack:
        current = stack.pop()
        for region in current.regions:
            for block in region.blocks:
                for child in block.ops:
                    if child.name in EFFECTFUL:
                        return True
                    if child.regions:
                        stack.append(child)
    return False
