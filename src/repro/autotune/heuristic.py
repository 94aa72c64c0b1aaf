"""Heuristic coarsening-factor selection (the paper's §VIII-A future work).

The paper notes that prior per-strategy heuristics [18, 20, 25] could not be
readily applied to its *combined* coarsening and leaves factor-selection
heuristics to future work. This module implements one: a static,
model-guided rule that picks a single (block, thread) configuration from
the kernel's resource profile without running TDO's full sweep —

1. estimate the kernel's latency-hiding deficit from its occupancy and
   memory intensity: low active-warp counts need more in-flight work per
   thread, which is exactly what coarsening supplies;
2. satisfy the deficit with **block** factors first (shared-memory capacity
   permitting — they preserve coalescing and block shape, §V-C), then with
   **thread** factors that keep blocks at full warps and divide the extent;
3. cap everything so the register estimate stays below the spill threshold.

The companion experiment (``benchmarks/bench_heuristic.py``) measures how
much of TDO's benefit this recovers at a fraction of the compile cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis import kernel_statistics, shared_bytes_per_block
from ..ir import Operation
from ..targets import (GPUArchitecture, LANE_WARP_WIDTH, compute_occupancy,
                       estimate_registers, linearize_thread_body)
from ..transforms.coarsen import parallel_extents, thread_parallel

#: never propose more combined coarsening than this
MAX_TOTAL = 16
#: assume spilling starts when the scaled register estimate crosses this
SPILL_HEADROOM = 0.85
# The latency-hiding deficit below is measured in 32-thread warp
# equivalents via the shared ``repro.targets.LANE_WARP_WIDTH`` constant —
# the same normalization the simulator model uses, so heuristic and model
# can never drift apart on wavefront-64 targets. The absolute targets
# (48/16) are in those lane-normalized units.


def lane_warps(occupancy) -> float:
    """Active parallelism in 32-thread warp equivalents (lane-normalized)."""
    return occupancy.active_threads / LANE_WARP_WIDTH


@dataclass
class HeuristicChoice:
    """The selected configuration with its reasoning trail."""

    block_total: int
    thread_total: int
    reasons: list

    def as_config(self) -> Dict[str, int]:
        return {"block_total": self.block_total,
                "thread_total": self.thread_total}


def choose_factors(block_parallel: Operation,
                   arch: GPUArchitecture) -> HeuristicChoice:
    """Pick (block_total, thread_total) for one kernel without timing."""
    reasons = []
    threads = thread_parallel(block_parallel)
    extents = [e or 1 for e in parallel_extents(threads)]
    threads_per_block = 1
    for extent in extents:
        threads_per_block *= extent
    lin = linearize_thread_body(threads)
    stats = kernel_statistics(lin)
    registers = estimate_registers(lin, arch)
    shared = shared_bytes_per_block(block_parallel, lin)
    occupancy = compute_occupancy(arch, threads_per_block,
                                  registers.registers_per_thread, shared)

    # 1. how much extra per-thread parallelism do we want? Both sides of
    # the comparison are lane-normalized (see LANE_WARP_WIDTH), so the
    # deficit is computed in the same units on 32- and 64-wide targets.
    active_warps = lane_warps(occupancy)
    warps_wanted = 48.0 if stats.global_accesses >= 1 else 16.0
    deficit = warps_wanted / max(active_warps, 1.0)
    target = 1
    while target < deficit and target < MAX_TOTAL:
        target *= 2
    target = min(target, MAX_TOTAL)
    reasons.append("active warps %.0f vs wanted %.0f -> target x%d" %
                   (active_warps, warps_wanted, target))
    if target == 1:
        reasons.append("occupancy already sufficient; no coarsening")
        return HeuristicChoice(1, 1, reasons)

    # 2. block factors first, bounded by shared-memory capacity
    block_total = 1
    while block_total * 2 <= target:
        next_shared = shared * block_total * 2
        if shared and next_shared > arch.shared_mem_per_block:
            reasons.append(
                "block factor capped at x%d by shared memory (%d B)" %
                (block_total, next_shared))
            break
        block_total *= 2
    if block_total == target:
        reasons.append("block coarsening x%d covers the target" %
                       block_total)

    # 3. thread factors for the remainder, keeping full warps
    remainder = target // block_total
    thread_total = 1
    while thread_total * 2 <= remainder:
        next_threads = threads_per_block // (thread_total * 2)
        if next_threads < arch.warp_size:
            reasons.append(
                "thread factor capped at x%d to keep full warps" %
                thread_total)
            break
        if threads_per_block % (thread_total * 2) != 0:
            break
        thread_total *= 2
    if thread_total > 1:
        reasons.append("thread coarsening x%d fills the remainder" %
                       thread_total)

    # 4. register-pressure guard: scale back until below the spill line
    while block_total * thread_total > 1:
        scaled = registers.registers_per_thread * \
            (1 + 0.35 * (block_total * thread_total - 1))
        if scaled <= SPILL_HEADROOM * arch.max_registers_per_thread:
            break
        if thread_total > 1:
            thread_total //= 2
        else:
            block_total //= 2
        reasons.append("backed off for register pressure")
    return HeuristicChoice(block_total, thread_total, reasons)


def heuristic_tune(wrapper: Operation,
                   arch: GPUArchitecture) -> Optional[HeuristicChoice]:
    """Apply the heuristic's single choice to a gpu_wrapper in place.

    Returns the choice, or None if the chosen coarsening is illegal (in
    which case the wrapper is left untouched).
    """
    from ..transforms.coarsen import (CoarsenError, block_parallels,
                                      coarsen_wrapper)
    mains = block_parallels(wrapper, include_epilogues=False)
    if len(mains) != 1:
        return None
    choice = choose_factors(mains[0], arch)
    if choice.block_total > 1:
        try:
            coarsen_wrapper(wrapper, block_total=choice.block_total)
        except CoarsenError as error:
            choice.reasons.append("block coarsening illegal: %s" % error)
            choice.block_total = 1
    if choice.thread_total > 1:
        try:
            coarsen_wrapper(wrapper, thread_total=choice.thread_total)
        except CoarsenError as error:
            choice.reasons.append("thread coarsening illegal: %s" % error)
            choice.thread_total = 1
    return choice
