"""Static coalescing analysis (§II-A2, Fig. 11 of the paper).

For every global-memory access in a linearized thread body (see
:mod:`repro.targets.lowering`), take the affine stride of its flattened
address with respect to ``threadIdx.x`` from the stream's access table and
derive how many memory transactions one warp's execution of the access
needs. Thread coarsening with the coalescing-friendly ``iv + k·new_ub``
indexing keeps stride 1 for every copy; naive ``iv·f + k`` indexing would
double the stride — the distinction at the heart of Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.affine import AccessMemo
from ..ir import Operation
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
    loads and stores of a linearized thread body (1.0 = conflict free).
    ``memo`` answers the strides if the stream's access table is not built
    yet."""
    total_weight = 0.0
    weighted = 0.0
    for access in lin.access_table(memo):
        if access.space != "shared" or access.is_atomic:
            continue
        conflict = bank_conflict_factor(access.stride_x,
                                        access.element_bytes, banks)
        weighted += access.executions * conflict
        total_weight += access.executions
    return weighted / total_weight if total_weight else 1.0


def analyze_coalescing(lin: Linearized, memo: AccessMemo, warp_size: int,
                       transaction_bytes: int = 32) -> List[GlobalAccess]:
    """Analyze every global access of a linearized thread body. ``memo``
    answers the strides if the stream's access table is not built yet."""
    accesses: List[GlobalAccess] = []
    for access in lin.access_table(memo):
        if access.space != "global" and access.space != "constant":
            continue
        element_bytes = access.element_bytes
        transactions = transactions_for_stride(
            access.stride_x, element_bytes, warp_size, transaction_bytes)
        useful = warp_size * element_bytes
        efficiency = min(1.0, useful / (transactions * transaction_bytes))
        accesses.append(GlobalAccess(
            op=access.instr.op,
            is_store=access.is_store,
            element_bytes=element_bytes,
            executions=access.executions,
            stride_x=access.stride_x,
            transactions_per_warp=transactions,
            efficiency=efficiency))
    return accesses
