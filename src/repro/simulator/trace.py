"""Trace-driven simulation: functional execution feeding a cache model.

This is the high-fidelity path behind the Table II experiment: the kernel is
executed by the interpreter with a :class:`TraceCollector` observing every
memory access; accesses are grouped into per-warp transactions (coalescing
on *actual* addresses), streamed through L1/L2 cache models, and reduced to
Nsight-Compute-style counters. Unlike the analytical model this captures
cross-thread and cross-(coarsened-)block locality — e.g. block coarsening's
reduced L2→L1 traffic on lud.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..interpreter import Interpreter, MemoryBuffer, Tracer
from ..ir import Module
from ..targets import GPUArchitecture
from .cache import Cache
from .metrics import KernelMetrics


@dataclass
class _Access:
    op_id: int
    buffer_id: int
    byte_address: int
    nbytes: int
    is_store: bool
    space: str
    thread: int
    seq: int


class TraceCollector(Tracer):
    """Collects every GPU memory access, grouped per block."""

    def __init__(self):
        #: block id -> list of accesses
        self.blocks: Dict[int, List[_Access]] = defaultdict(list)
        #: per (block, thread, op) occurrence counters
        self._seq: Dict[Tuple[int, int, int], int] = defaultdict(int)
        self.barriers = 0

    def _record(self, buffer: MemoryBuffer, linear: int, nbytes: int,
                block: Optional[int], thread: Optional[int], op,
                is_store: bool) -> None:
        if block is None or thread is None:
            return  # host-side access
        op_id = id(op)
        key = (block, thread, op_id)
        seq = self._seq[key]
        self._seq[key] = seq + 1
        self.blocks[block].append(_Access(
            op_id, buffer.buffer_id, linear * nbytes, nbytes, is_store,
            buffer.space, thread, seq))

    def on_load(self, buffer, linear, nbytes, block, thread, op=None):
        self._record(buffer, linear, nbytes, block, thread, op, False)

    def on_store(self, buffer, linear, nbytes, block, thread, op=None):
        self._record(buffer, linear, nbytes, block, thread, op, True)

    def on_barrier(self, block):
        self.barriers += 1


def _warp_transactions(accesses: Sequence[_Access], warp_size: int,
                       transaction_bytes: int):
    """Group accesses into per-warp requests and coalesced transactions.

    Returns (requests, transactions) where each transaction is a
    (buffer_id, segment, is_store) triple; requests is the number of
    warp-level memory requests (one per (warp, op, seq) group).
    """
    groups: Dict[Tuple[int, int, int], List[_Access]] = defaultdict(list)
    for access in accesses:
        warp = access.thread // warp_size
        groups[(warp, access.op_id, access.seq)].append(access)
    transactions = []
    requests = 0
    for group in groups.values():
        requests += 1
        segments = {}
        for access in group:
            segment = access.byte_address // transaction_bytes
            segments[(access.buffer_id, segment)] = access.is_store
        for (buffer_id, segment), is_store in segments.items():
            transactions.append((buffer_id, segment, is_store))
    return requests, transactions


@dataclass
class TraceResult:
    """Counters extracted from a full functional trace."""

    metrics: KernelMetrics
    l1_hit_rate: float
    l2_hit_rate: float
    shared_bank_conflict_factor: float
    global_read_requests: int
    global_write_requests: int


def trace_kernel(module: Module, func_name: str, args: Sequence[object],
                 arch: GPUArchitecture,
                 alternative_selector=None) -> TraceResult:
    """Functionally execute ``func_name`` and derive memory counters."""
    collector = TraceCollector()
    interp = Interpreter(module, tracer=collector,
                         alternative_selector=alternative_selector)
    interp.run_func(func_name, list(args))

    # NVIDIA caches are sectored: presence is tracked at the 32 B
    # transaction granularity, matching the analytical model's accounting
    l2 = Cache(arch.l2_bytes, line_bytes=arch.transaction_bytes, ways=16)
    tbytes = arch.transaction_bytes
    metrics = KernelMetrics()
    read_requests = 0
    write_requests = 0
    shared_requests = 0
    shared_conflict_passes = 0

    for block_id in sorted(collector.blocks):
        accesses = collector.blocks[block_id]
        global_accesses = [a for a in accesses
                           if a.space in ("global", "constant")]
        shared_accesses = [a for a in accesses if a.space == "shared"]

        # one L1 per resident block (approximation: block-private L1 slice)
        l1 = Cache(arch.l1_bytes_per_sm,
                   line_bytes=arch.transaction_bytes, ways=8)
        requests, transactions = _warp_transactions(
            global_accesses, arch.warp_size, tbytes)
        for buffer_id, segment, is_store in transactions:
            if is_store:
                # write-through: every store transaction reaches L2
                metrics.l1_to_l2_write_bytes += tbytes
                if not l2.access(buffer_id, segment * tbytes):
                    metrics.dram_write_bytes += tbytes
            else:
                if not l1.access(buffer_id, segment * tbytes):
                    metrics.l2_to_l1_read_bytes += tbytes
                    if not l2.access(buffer_id, segment * tbytes):
                        metrics.dram_read_bytes += tbytes

        groups_read, _ = _warp_transactions(
            [a for a in global_accesses if not a.is_store],
            arch.warp_size, tbytes)
        groups_write, _ = _warp_transactions(
            [a for a in global_accesses if a.is_store],
            arch.warp_size, tbytes)
        read_requests += groups_read
        write_requests += groups_write

        # shared memory: warp requests and bank conflicts
        shared_groups: Dict[Tuple[int, int, int], List[_Access]] = \
            defaultdict(list)
        for access in shared_accesses:
            warp = access.thread // arch.warp_size
            shared_groups[(warp, access.op_id, access.seq)].append(access)
        for group in shared_groups.values():
            shared_requests += 1
            banks: Dict[int, set] = defaultdict(set)
            for access in group:
                bank = (access.byte_address // 4) % arch.shared_banks
                banks[bank].add(access.byte_address // 4)
            passes = max((len(words) for words in banks.values()),
                         default=1)
            shared_conflict_passes += passes
            if group[0].is_store:
                metrics.sm_to_shmem_write_requests += 1
            else:
                metrics.shmem_to_sm_read_requests += 1

    metrics.l1_to_sm_read_requests = read_requests
    metrics.sm_to_l1_write_requests = write_requests
    conflict_factor = (shared_conflict_passes / shared_requests
                       if shared_requests else 1.0)
    return TraceResult(
        metrics=metrics,
        l1_hit_rate=1.0 - (metrics.l2_to_l1_read_bytes /
                           (read_requests * tbytes)
                           if read_requests else 0.0),
        l2_hit_rate=l2.stats.hit_rate,
        shared_bank_conflict_factor=conflict_factor,
        global_read_requests=read_requests,
        global_write_requests=write_requests)
