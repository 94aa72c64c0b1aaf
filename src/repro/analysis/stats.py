"""Closed-form kernel statistics (§VI "Kernel Statistics").

Counts operations executed by one thread of a kernel, weighting each by
its executions in the linearized thread body: the product of the enclosing
trip counts, exact when bounds are compile-time constants and
``SYMBOLIC_TRIPS`` otherwise (see :mod:`repro.targets.lowering`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..ir import FloatType

if TYPE_CHECKING:  # the stream's module imports the analyses
    from ..targets.lowering import Linearized


@dataclass
class KernelStats:
    """Per-thread operation counts."""

    flops_f32: float = 0.0
    flops_f64: float = 0.0
    int_ops: float = 0.0
    special_ops: float = 0.0       # transcendental math
    loads_global: float = 0.0
    stores_global: float = 0.0
    loads_shared: float = 0.0
    stores_shared: float = 0.0
    loads_local: float = 0.0
    stores_local: float = 0.0
    atomics: float = 0.0
    barriers: float = 0.0
    branches: float = 0.0
    #: True when some trip count was estimated rather than exact
    symbolic: bool = False

    @property
    def flops(self) -> float:
        return self.flops_f32 + self.flops_f64

    @property
    def global_accesses(self) -> float:
        return self.loads_global + self.stores_global

    @property
    def shared_accesses(self) -> float:
        return self.loads_shared + self.stores_shared

    def scaled(self, factor: float) -> "KernelStats":
        scaled = KernelStats()
        for name in _NUMERIC_FIELDS:
            setattr(scaled, name, getattr(self, name) * factor)
        scaled.symbolic = self.symbolic
        return scaled

    def merge(self, other: "KernelStats") -> None:
        for name in _NUMERIC_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.symbolic = self.symbolic or other.symbolic


_NUMERIC_FIELDS = [
    "flops_f32", "flops_f64", "int_ops", "special_ops", "loads_global",
    "stores_global", "loads_shared", "stores_shared", "loads_local",
    "stores_local", "atomics", "barriers", "branches",
]

_FLOAT_ARITH = {"arith.addf", "arith.subf", "arith.mulf", "arith.divf",
                "arith.remf", "arith.minf", "arith.maxf", "arith.negf",
                "arith.cmpf", "arith.select"}


#: the counter of a load (index 0) or store (index 1) in each memory space;
#: an operand that is not a memref counts as global
_ACCESS_COUNTERS = {
    "global": ("loads_global", "stores_global"),
    "constant": ("loads_global", "stores_global"),
    None: ("loads_global", "stores_global"),
    "shared": ("loads_shared", "stores_shared"),
    "local": ("loads_local", "stores_local"),
}


def kernel_statistics(lin: Linearized) -> KernelStats:
    """Per-thread statistics of a linearized GPU thread loop body."""
    stats = KernelStats(symbolic=lin.symbolic)
    for instr in lin.instrs:
        kind = instr.kind
        if kind == "loop_end":
            continue
        op = instr.op
        name = op.name
        factor = instr.executions
        if kind == "loop_begin":
            if name == "scf.for":
                stats.int_ops += factor  # induction increment
            elif name == "scf.while":
                stats.branches += factor
        elif kind == "branch":
            stats.branches += factor
        elif kind == "load" or kind == "store":
            continue  # counted from the access table below
        elif name == "polygeist.barrier":
            stats.barriers += factor
        elif name in _FLOAT_ARITH:
            result_type = op.results[0].type if op.results else None
            operand_type = op.operand(0).type if op.num_operands else None
            width_source = result_type or operand_type
            if isinstance(width_source, FloatType) and \
                    width_source.width == 64:
                stats.flops_f64 += factor
            elif isinstance(width_source, FloatType):
                stats.flops_f32 += factor
            else:
                stats.int_ops += factor
        elif name.startswith("math."):
            stats.special_ops += factor
        elif name.startswith("arith.") and name != "arith.constant":
            stats.int_ops += factor
    for access in lin.access_table():
        if access.is_atomic:
            stats.atomics += access.executions
            continue
        counter = _ACCESS_COUNTERS[access.space][access.is_store]
        setattr(stats, counter,
                getattr(stats, counter) + access.executions)
    return stats
