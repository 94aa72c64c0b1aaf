"""Static coalescing analysis (§II-A2, Fig. 11 of the paper).

For every global-memory access in a linearized thread body (see
:mod:`repro.targets.lowering`), compute the affine stride of its flattened
address with respect to ``threadIdx.x`` and derive how many memory
transactions one warp's execution of the access needs. Thread coarsening
with the coalescing-friendly ``iv + k·new_ub`` indexing keeps stride 1
for every copy; naive ``iv·f + k`` indexing would double the stride — the
distinction at the heart of Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.affine import AffineForm, affine_of
from ..analysis.uniformity import DependenceMemo
from ..dialects import memref as memref_d
from ..ir import MemRefType, Operation, Value, byte_width
from ..targets.lowering import Linearized


@dataclass
class GlobalAccess:
    """One static global-memory access site."""

    op: Operation
    is_store: bool
    element_bytes: int
    #: executions per thread (loop trip products; 0.5 per enclosing if)
    executions: float
    #: elements stepped per +1 of threadIdx.x (None = unknown/irregular)
    stride_x: Optional[int]
    #: memory transactions one warp needs per execution
    transactions_per_warp: float
    #: useful bytes / transferred bytes
    efficiency: float


class AccessMemo:
    """The questions both access analyses ask about one thread body.

    Holds the affine form of each index value, as ``affine_of(index)``
    computes it from the root, and a :class:`DependenceMemo` over
    ``{threadIdx.x}``. Build one per thread loop and pass it to
    :func:`analyze_coalescing` and :func:`analyze_shared_conflicts`; the
    answers equal fresh calls', so results do not depend on sharing.
    """

    def __init__(self, thread_parallel: Operation):
        self.tid_x = thread_parallel.body_block().arg(0)
        self.depends_on_tid = DependenceMemo((self.tid_x,))
        self._forms: Dict[Value, AffineForm] = {}

    def affine(self, index: Value) -> AffineForm:
        # forms are shared: callers build new forms, never mutate these
        form = self._forms.get(index)
        if form is None:
            form = self._forms[index] = affine_of(index)
        return form


def _flat_affine(op: Operation, memo: AccessMemo) -> Optional[AffineForm]:
    ref = memref_d.load_op_ref(op)
    type_ = ref.type
    if not isinstance(type_, MemRefType):
        return None
    # row-major strides only need the non-outermost extents to be static
    if any(extent < 0 for extent in type_.shape[1:]):
        return None
    strides: List[int] = []
    stride = 1
    for extent in reversed(type_.shape):
        strides.append(stride)
        stride *= max(extent, 1)
    strides.reverse()
    form = AffineForm(0)
    for scale, index in zip(strides, memref_d.access_indices(op)):
        form = form.add(memo.affine(index).scaled(scale))
    return form


def _stride_of(form: AffineForm, memo: AccessMemo) -> Optional[int]:
    tid_x = memo.tid_x
    coeff = form.coefficient(tid_x)
    for sym in form.terms:
        if sym is tid_x:
            continue
        if memo.depends_on_tid(sym):
            return None
    return coeff


def transactions_for_stride(stride_elements: Optional[int],
                            element_bytes: int, warp_size: int,
                            transaction_bytes: int = 32) -> float:
    """Transactions per warp access for a given per-lane stride."""
    if stride_elements is None:
        return float(warp_size)  # fully scattered
    stride_bytes = abs(stride_elements) * element_bytes
    if stride_bytes == 0:
        return 1.0  # broadcast
    if stride_bytes >= transaction_bytes:
        return float(warp_size)
    total_span = warp_size * stride_bytes
    return max(1.0, total_span / transaction_bytes)


def bank_conflict_factor(stride_elements: Optional[int],
                         element_bytes: int,
                         banks: int = 32) -> float:
    """Serialized passes one warp's shared access needs (bank conflicts).

    With 4-byte banks, lanes hitting word stride ``s`` spread over
    ``banks / gcd(s, banks)`` distinct banks, so the access serializes into
    ``gcd(s, banks)`` passes. Stride 0 is a broadcast (one pass).
    """
    import math
    if stride_elements is None:
        return float(banks) / 4.0  # scattered: partial conflicts
    word_stride = abs(stride_elements) * max(1, element_bytes // 4)
    if word_stride == 0:
        return 1.0
    return float(math.gcd(word_stride, banks))


def analyze_shared_conflicts(lin: Linearized, memo: AccessMemo,
                             banks: int = 32) -> float:
    """Execution-weighted average bank-conflict factor over all shared
    accesses of a linearized thread body (1.0 = conflict free)."""
    total_weight = 0.0
    weighted = 0.0
    for instr in lin.instrs:
        op = instr.op
        if op.name != "memref.load" and op.name != "memref.store":
            continue
        ref = memref_d.load_op_ref(op)
        if not isinstance(ref.type, MemRefType) or \
                ref.type.memory_space != "shared":
            continue
        element_bytes = byte_width(ref.type.element)
        form = _flat_affine(op, memo)
        stride = None if form is None else _stride_of(form, memo)
        conflict = bank_conflict_factor(stride, element_bytes, banks)
        weighted += instr.executions * conflict
        total_weight += instr.executions
    return weighted / total_weight if total_weight else 1.0


def analyze_coalescing(lin: Linearized, memo: AccessMemo, warp_size: int,
                       transaction_bytes: int = 32) -> List[GlobalAccess]:
    """Analyze every global access of a linearized thread body."""
    accesses: List[GlobalAccess] = []
    for instr in lin.instrs:
        op = instr.op
        if op.name not in ("memref.load", "memref.store",
                           "memref.atomic_rmw"):
            continue
        ref = memref_d.load_op_ref(op)
        if not isinstance(ref.type, MemRefType):
            continue
        space = ref.type.memory_space
        if space not in ("global", "constant"):
            continue
        element_bytes = byte_width(ref.type.element)
        form = _flat_affine(op, memo)
        stride = None if form is None else _stride_of(form, memo)
        transactions = transactions_for_stride(
            stride, element_bytes, warp_size, transaction_bytes)
        useful = warp_size * element_bytes
        efficiency = min(1.0, useful / (transactions * transaction_bytes))
        accesses.append(GlobalAccess(
            op=op,
            is_store=(op.name == "memref.store"),
            element_bytes=element_bytes,
            executions=instr.executions,
            stride_x=stride,
            transactions_per_warp=transactions,
            efficiency=efficiency))
    return accesses
