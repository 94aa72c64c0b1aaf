"""Analytical GPU kernel timing model.

Combines the first-order quantities through which the paper's coarsening
transformations act on performance:

* **occupancy** (registers/thread × threads/block × shared/block vs the SM's
  resources, §II-A3) determines how many warps are active per SM;
* **memory-level parallelism**: coarsening interleaves ``f`` independent
  copies of each statement, multiplying the outstanding loads per warp. By
  Little's law the achieved DRAM bandwidth is
  ``min(peak, inflight_bytes / latency)`` — this is the mechanism by which
  coarsening compensates reduced occupancy (§II-A3 "balancing per-thread
  workload and occupancy");
* **coalescing efficiency** of every global access (Fig. 11);
* **sub-warp waste**: blocks whose thread count is not a warp multiple
  leave SIMD lanes idle (the lud thread-factor ≥ 16 cliff of Fig. 14, the
  gaussian block-size-16 pathology of §VII-C);
* **shared-memory throughput**, with the AMD LDS→global offload quirk
  (§VII-D2, the nw anomaly);
* **FP64 throughput ratio** (§VII-D2: f64-heavy benchmarks favor RX6800);
* **divergence** (§VI "kernel statistics": branches hurt);
* a fixed **launch overhead** per kernel, visible in composite timings.

Absolute seconds are not meant to match the paper's hardware; the *shape*
of comparisons (which configuration wins, where cliffs fall) is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis import kernel_statistics, shared_bytes_per_block
from ..analysis.uniformity import depends_on_values
from ..dialects import arith, scf
from ..ir import Operation, OpResult, Value
from ..obs import tracer as obs_tracer
from ..targets import (GPUArchitecture, LANE_WARP_WIDTH, Occupancy,
                       compute_occupancy, estimate_registers)
from .coalescing import (AccessMemo, analyze_coalescing,
                         analyze_shared_conflicts)
from .metrics import KernelMetrics

#: seconds of fixed overhead per kernel launch
LAUNCH_OVERHEAD = 5e-6
#: DRAM latency in cycles
DRAM_LATENCY_CYCLES = 400.0
#: shared-memory latency in cycles
SHARED_LATENCY_CYCLES = 25.0
#: baseline outstanding memory requests per warp (before coarsening)
BASE_MLP = 2.0
#: baseline instruction-level parallelism per thread
BASE_ILP = 1.5
#: warps needed per scheduler to hide arithmetic latency
COMPUTE_LATENCY_WARPS = 8.0
#: bytes per shared-memory bank access
SHARED_BANK_BYTES = 4
#: fraction of non-dominant pipeline work that fails to overlap with the
#: dominant one (issue-slot and LSU contention)
OVERLAP_LEAK = 0.25


class InvalidLaunch(ValueError):
    """The kernel cannot launch on this architecture at all."""


#: InvalidLaunch reason of a launch whose grid size cannot be evaluated
UNEVALUABLE_GRID = "cannot evaluate grid size for modeling"


@dataclass
class LaunchTiming:
    """Modeled execution of one block-level parallel loop."""

    time_seconds: float
    occupancy: Occupancy
    metrics: KernelMetrics
    breakdown: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class LaunchFeatures:
    """Everything the timing formula needs that does NOT depend on the
    launch's block count.

    Extracted once per :class:`KernelModel` so the scalar reference path
    and :class:`~repro.simulator.batch.BatchedKernelModel` consume the
    *same* per-model scalars — the equivalence between the two paths then
    reduces to the (identically-grouped) arithmetic over ``num_blocks``.
    """

    # compute pipeline
    compute_cycles_per_thread: float
    compute_cycles_per_block: float
    compute_util: float
    #: lane-normalized active parallelism (32-thread warp equivalents)
    active_warps: float
    # global-memory pipeline (all per-block quantities)
    read_bytes: float           #: transferred (transaction) read bytes
    write_bytes: float          #: transferred (transaction) write bytes
    useful_read: float          #: bytes the SM actually requested
    useful_write: float
    read_requests: float
    write_requests: float
    rw_bytes: float             #: read_bytes + write_bytes, summed once
    inflight_bytes_per_sm: float
    dram_latency_seconds: float
    peak_bandwidth: float
    # shared-memory pipeline
    shared_bytes: float         #: per block
    shared_bw_per_sm: float
    bank_conflicts: float
    lds_offloaded: bool
    lds_offload_penalty: float
    # latency floor
    block_latency_cycles: float
    wave_divisor: int           #: max(1, blocks_per_sm * num_sms)
    # machine scalars
    clock: float
    num_sms: int
    blocks_per_sm: int


@dataclass(frozen=True)
class LaunchTerms:
    """The intermediate pipeline terms of one scored launch."""

    compute_seconds: float
    memory_seconds: float
    shared_seconds: float
    latency_floor: float
    busy: float
    time_seconds: float


def evaluate_launch(f: LaunchFeatures, num_blocks: int) -> LaunchTerms:
    """The scalar reference evaluation of the timing formula.

    :class:`~repro.simulator.batch.BatchedKernelModel` mirrors this
    function expression-for-expression (same operand grouping), which is
    what makes the batched times bit-identical — keep the two in sync.
    """
    sms_used = min(f.num_sms, num_blocks)
    compute_seconds = (f.compute_cycles_per_block * num_blocks /
                       (sms_used * f.clock * f.compute_util))

    total_bytes = f.rw_bytes * num_blocks
    achievable_bw = sms_used * f.inflight_bytes_per_sm / \
        f.dram_latency_seconds
    achieved_bw = min(f.peak_bandwidth, achievable_bw)
    memory_seconds = total_bytes / achieved_bw if total_bytes else 0.0

    if f.lds_offloaded:
        # demoted to global memory: both slower and bandwidth-consuming
        shared_seconds = (f.shared_bytes * num_blocks *
                          f.lds_offload_penalty / achieved_bw)
        total_bytes += f.shared_bytes * num_blocks
        memory_seconds = total_bytes / achieved_bw
    else:
        shared_seconds = (f.shared_bytes * num_blocks *
                          f.bank_conflicts /
                          (sms_used * f.shared_bw_per_sm))

    waves = -(-num_blocks // f.wave_divisor)
    latency_floor = waves * f.block_latency_cycles / f.clock

    # compute / global-memory / shared-memory pipelines overlap, but
    # imperfectly: the dominant one sets the pace and the others leak
    # through (issue slots, LSU contention). The per-block dependence
    # chain is a separate lower bound.
    work_terms = (compute_seconds, memory_seconds, shared_seconds)
    dominant = max(work_terms)
    busy = dominant + OVERLAP_LEAK * (sum(work_terms) - dominant)
    busy = max(busy, latency_floor)
    time = busy + LAUNCH_OVERHEAD
    return LaunchTerms(compute_seconds, memory_seconds, shared_seconds,
                       latency_floor, busy, time)


def _coarsen_totals(parallel: Operation) -> int:
    """Combined coarsening factor recorded on a loop's history attribute.

    Entries look like ``"thread:dim0:x4"`` (see
    :mod:`repro.transforms.unroll_interleave`); anything else is a sign of
    attribute corruption and is reported as :class:`InvalidLaunch` naming
    the offending entry instead of dying with a bare ``IndexError`` deep
    inside timing.
    """
    total = 1
    for entry in parallel.attr("coarsen.history", []):
        try:
            factor = int(str(entry).rsplit("x", 1)[1])
        except (IndexError, ValueError):
            raise InvalidLaunch(
                "malformed coarsen.history entry %r (expected "
                "'<style>:dim<N>:x<factor>')" % (entry,)) from None
        if factor <= 0:
            raise InvalidLaunch(
                "malformed coarsen.history entry %r: factor must be "
                "positive" % (entry,))
        total *= factor
    return total


def _thread_extents(thread_parallel: Operation) -> List[int]:
    extents = []
    for lb, ub in zip(scf.parallel_lower_bounds(thread_parallel),
                      scf.parallel_upper_bounds(thread_parallel)):
        lb_const = arith.constant_value(lb) or 0
        ub_const = arith.constant_value(ub)
        if ub_const is None:
            raise InvalidLaunch("thread extents must be static")
        extents.append(ub_const - lb_const)
    return extents


def _divergent_branches(thread_parallel: Operation) -> int:
    """Count scf.if ops whose condition varies across threads."""
    ivs = set(thread_parallel.body_block().args)
    count = 0
    stack = [thread_parallel.body_block()]
    while stack:
        block = stack.pop()
        for op in block.ops:
            if op.name == scf.IF and \
                    depends_on_values(op.operand(0), ivs):
                count += 1
            for region in op.regions:
                stack.extend(region.blocks)
    return count


class KernelModel:
    """Static performance characterization of one block-level loop."""

    def __init__(self, block_parallel: Operation, arch: GPUArchitecture):
        from ..transforms.coarsen import thread_parallel as find_threads
        self.arch = arch
        self.block_parallel = block_parallel
        self.threads = find_threads(block_parallel)
        extents = _thread_extents(self.threads)
        self.threads_per_block = 1
        for extent in extents:
            self.threads_per_block *= max(1, extent)
        self.stats = kernel_statistics(self.threads)
        memo = AccessMemo(self.threads)
        self.accesses = analyze_coalescing(
            self.threads, arch.warp_size, arch.transaction_bytes,
            memo=memo)
        self.registers = estimate_registers(self.threads, arch)
        self.bank_conflicts = analyze_shared_conflicts(
            self.threads, arch.shared_banks, memo=memo)
        self.shared_per_block = shared_bytes_per_block(block_parallel)
        self.block_factor = _coarsen_totals(block_parallel)
        self.thread_factor = _coarsen_totals(self.threads)
        self.coarsen_total = self.block_factor * self.thread_factor
        self.divergent_branches = _divergent_branches(self.threads)

        # AMD LDS offload: extreme shared/thread ratios are demoted to
        # global memory by the backend (§VII-D2)
        self.lds_offloaded = False
        if arch.lds_offload_bytes_per_thread is not None and \
                self.shared_per_block > 0:
            ratio = self.shared_per_block / self.threads_per_block
            if ratio > arch.lds_offload_bytes_per_thread:
                self.lds_offloaded = True

        shared_for_occupancy = 0 if self.lds_offloaded \
            else self.shared_per_block
        self.occupancy = compute_occupancy(
            arch, self.threads_per_block,
            self.registers.registers_per_thread, shared_for_occupancy)

        # derived quantities, precomputed: time_launch touches these in its
        # inner loops and the model is immutable after construction
        warp = arch.warp_size
        #: threads the hardware allocates (rounded up to a warp multiple)
        self.alloc_threads_per_block = \
            -(-self.threads_per_block // warp) * warp
        #: fraction of allocated SIMD lanes doing useful work
        self.lane_efficiency = (self.threads_per_block /
                                self.alloc_threads_per_block)
        self._timing_cache: Dict[int, LaunchTiming] = {}
        self._features: Optional[LaunchFeatures] = None

    # -- derived quantities -------------------------------------------------

    def spills(self) -> bool:
        return self.registers.spills

    def ensure_launchable(self) -> None:
        """Raise :class:`InvalidLaunch` if no block fits on an SM.

        The single home of the resource-exhaustion error: the scalar path
        and the batched TDO wiring both raise through here, so the two
        paths produce byte-identical failure reasons.
        """
        if self.occupancy.blocks_per_sm == 0:
            raise InvalidLaunch(
                "kernel exceeds %s resources (limited by %s)" %
                (self.arch.name, self.occupancy.limiter))

    # -- timing ------------------------------------------------------------------

    def time_launch(self, num_blocks: int) -> LaunchTiming:
        """Model a launch of ``num_blocks`` blocks.

        The model is static, so the result depends only on ``num_blocks``
        and is memoized; callers get a private copy (metrics and breakdown
        are theirs to mutate).
        """
        cached = self._timing_cache.get(num_blocks)
        if cached is None:
            cached = self._compute_launch(num_blocks)
            self._timing_cache[num_blocks] = cached
        from dataclasses import replace
        return LaunchTiming(cached.time_seconds, cached.occupancy,
                            replace(cached.metrics),
                            dict(cached.breakdown))

    def time_seconds_for(self, num_blocks: int) -> float:
        """Modeled seconds only — skips the defensive copy of
        :meth:`time_launch`; the hot path of candidate ranking."""
        cached = self._timing_cache.get(num_blocks)
        if cached is None:
            cached = self._compute_launch(num_blocks)
            self._timing_cache[num_blocks] = cached
        return cached.time_seconds

    def _compute_launch(self, num_blocks: int) -> LaunchTiming:
        with obs_tracer.span("model.compute", category="simulator",
                             blocks=num_blocks):
            return self._compute_launch_inner(num_blocks)

    def features(self) -> LaunchFeatures:
        """The launch-count-independent scalars of this kernel, cached.

        This is the data :class:`~repro.simulator.batch.BatchedKernelModel`
        stacks into arrays; the scalar path consumes the same instance so
        the two can only disagree in the ``num_blocks`` arithmetic.
        """
        if self._features is None:
            self._features = self._compute_features()
        return self._features

    def _compute_features(self) -> LaunchFeatures:
        arch = self.arch
        occupancy = self.occupancy
        T = self.threads_per_block
        stats = self.stats
        clock = arch.clock_ghz * 1e9

        # -- compute ---------------------------------------------------------
        lanes32 = max(1.0, arch.fp32_lanes_per_sm)
        spill_penalty = 1.0
        if self.registers.spills:
            # spills hit local memory: painful but bounded (ptxas spills
            # the coldest values first)
            spill_penalty = min(4.0,
                                1.0 + 0.1 * self.registers.spilled_registers)
        divergence = 1.0 + 0.35 * min(self.divergent_branches, 4)
        cycles32 = stats.flops_f32 / lanes32
        lanes64 = max(lanes32 * arch.fp64_ratio, 1e-3)
        cycles64 = stats.flops_f64 / lanes64
        cycles_int = stats.int_ops / lanes32
        cycles_special = stats.special_ops / (lanes32 / 4.0)
        compute_cycles_per_thread = (cycles32 + cycles64 + cycles_int +
                                     cycles_special)
        # idle SIMD lanes in partially-filled warps still occupy the units
        compute_cycles_per_block = (compute_cycles_per_thread * T *
                                    divergence * spill_penalty /
                                    self.lane_efficiency)

        # how well can arithmetic latency be hidden? Parallelism is
        # lane-normalized (32-thread warp equivalents, see
        # repro.targets.LANE_WARP_WIDTH) so 64-wide AMD wavefronts are not
        # undercounted: they issue per-lane
        active_warps = occupancy.active_threads / LANE_WARP_WIDTH
        ilp = BASE_ILP * (1.0 + 0.5 * (self.coarsen_total - 1) ** 0.5)
        compute_util = min(1.0, active_warps * ilp / (
            COMPUTE_LATENCY_WARPS * max(1.0, lanes32 / arch.warp_size)))
        compute_util = max(compute_util, 0.05)

        # -- global memory ------------------------------------------------------
        warps_per_block = self.alloc_threads_per_block // arch.warp_size
        read_bytes = 0.0
        write_bytes = 0.0
        useful_read = 0.0
        useful_write = 0.0
        read_requests = 0.0
        write_requests = 0.0
        for access in self.accesses:
            warp_execs = access.executions * warps_per_block * \
                self.lane_efficiency
            transferred = warp_execs * access.transactions_per_warp * \
                arch.transaction_bytes
            useful = warp_execs * arch.warp_size * access.element_bytes * \
                self.lane_efficiency
            if access.is_store:
                write_bytes += transferred
                useful_write += useful
                write_requests += warp_execs
            else:
                read_bytes += transferred
                useful_read += useful
                read_requests += warp_execs
        # atomics: serialized uncoalesced traffic
        atomic_bytes = stats.atomics * T * 4.0 * arch.warp_size
        read_bytes += atomic_bytes
        write_bytes += atomic_bytes

        # achieved bandwidth via Little's law: outstanding requests
        mlp = BASE_MLP * self.coarsen_total
        mem_ops_per_thread = max(stats.global_accesses, 1e-9)
        mlp = min(mlp, max(mem_ops_per_thread, 1.0) * 4.0, 64.0)
        inflight_bytes_per_sm = (active_warps * mlp *
                                 arch.transaction_bytes)
        latency_seconds = DRAM_LATENCY_CYCLES / clock

        # -- shared memory --------------------------------------------------------
        shared_accesses_per_block = stats.shared_accesses * T
        shared_bytes = shared_accesses_per_block * SHARED_BANK_BYTES
        shared_bw_per_sm = (arch.shared_banks * SHARED_BANK_BYTES * clock *
                            max(self.lane_efficiency, 0.1))

        # -- latency floor ----------------------------------------------------------
        issue_cycles = compute_cycles_per_thread + stats.global_accesses + \
            stats.shared_accesses
        shared_latency = SHARED_LATENCY_CYCLES
        if self.lds_offloaded:
            # offloaded "shared" memory lives in global memory: every
            # access pays DRAM latency (this is what made nw 15x worse
            # with offloading disabled in the paper's experiment)
            shared_latency = DRAM_LATENCY_CYCLES
        dependent_stalls = (
            stats.global_accesses * DRAM_LATENCY_CYCLES / mlp +
            stats.shared_accesses * shared_latency / mlp)
        block_latency_cycles = issue_cycles + dependent_stalls

        return LaunchFeatures(
            compute_cycles_per_thread=compute_cycles_per_thread,
            compute_cycles_per_block=compute_cycles_per_block,
            compute_util=compute_util,
            active_warps=active_warps,
            read_bytes=read_bytes,
            write_bytes=write_bytes,
            useful_read=useful_read,
            useful_write=useful_write,
            read_requests=read_requests,
            write_requests=write_requests,
            rw_bytes=read_bytes + write_bytes,
            inflight_bytes_per_sm=inflight_bytes_per_sm,
            dram_latency_seconds=latency_seconds,
            peak_bandwidth=arch.peak_bandwidth_bytes(),
            shared_bytes=shared_bytes,
            shared_bw_per_sm=shared_bw_per_sm,
            bank_conflicts=self.bank_conflicts,
            lds_offloaded=self.lds_offloaded,
            lds_offload_penalty=arch.lds_offload_penalty,
            block_latency_cycles=block_latency_cycles,
            wave_divisor=max(1, occupancy.blocks_per_sm * arch.num_sms),
            clock=clock,
            num_sms=arch.num_sms,
            blocks_per_sm=occupancy.blocks_per_sm,
        )

    def _compute_launch_inner(self, num_blocks: int) -> LaunchTiming:
        occupancy = self.occupancy
        if num_blocks <= 0:
            metrics = KernelMetrics()
            return LaunchTiming(0.0, occupancy, metrics, {})
        self.ensure_launchable()

        T = self.threads_per_block
        stats = self.stats
        f = self.features()
        terms = evaluate_launch(f, num_blocks)
        busy = terms.busy

        # -- metrics -----------------------------------------------------------------
        # The analytical model has no cache-hit modeling, so every L2→L1
        # transaction reaches DRAM: DRAM traffic equals the *transferred*
        # (transaction-granular) bytes, which for uncoalesced access is ≥
        # the useful bytes — the same invariant trace.py's counters obey.
        metrics = KernelMetrics(
            time_seconds=terms.time_seconds,
            lsu_utilization=min(1.0, terms.memory_seconds / busy
                                if busy else 0.0),
            fma_utilization=min(1.0, terms.compute_seconds / busy
                                if busy else 0.0),
            l2_to_l1_read_bytes=f.read_bytes * num_blocks,
            l1_to_l2_write_bytes=f.write_bytes * num_blocks,
            dram_read_bytes=f.read_bytes * num_blocks,
            dram_write_bytes=f.write_bytes * num_blocks,
            l1_to_sm_read_requests=f.read_requests * num_blocks,
            sm_to_l1_write_requests=f.write_requests * num_blocks,
            shmem_to_sm_read_requests=stats.loads_shared * T * num_blocks,
            sm_to_shmem_write_requests=stats.stores_shared * T * num_blocks,
            occupancy=occupancy.occupancy,
            registers_per_thread=self.registers.registers_per_thread,
            shared_bytes_per_block=self.shared_per_block,
            threads_per_block=T,
            num_blocks=num_blocks,
        )
        breakdown = {
            "compute": terms.compute_seconds,
            "memory": terms.memory_seconds,
            "shared": terms.shared_seconds,
            "latency": terms.latency_floor,
            "overhead": LAUNCH_OVERHEAD,
        }
        return LaunchTiming(terms.time_seconds, occupancy, metrics,
                            breakdown)


# -- wrapper-level modeling -----------------------------------------------------------


_INDEX_OPS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: a // b if b else None,
    "arith.remsi": lambda a, b: a % b if b else None,
    "arith.minsi": min, "arith.maxsi": max,
}


def _eval_index(value: Value, env: Dict[Value, int]) -> Optional[int]:
    """Evaluate an index SSA expression given known leaf values."""
    if value in env:
        return env[value]
    if not isinstance(value, OpResult):
        return None
    op = value.owner
    if op.name == arith.CONSTANT:
        return int(op.attr("value"))
    operands = [_eval_index(v, env) for v in op.operands]
    if any(v is None for v in operands):
        return None
    fn = _INDEX_OPS.get(op.name)
    if fn is None or len(operands) != 2:
        if op.name == "arith.index_cast":
            return operands[0]
        return None
    return fn(*operands)


def block_count(block_parallel: Operation,
                env: Dict[Value, int]) -> Optional[int]:
    """Number of blocks this loop executes, given launch parameter values."""
    total = 1
    for lb, ub in zip(scf.parallel_lower_bounds(block_parallel),
                      scf.parallel_upper_bounds(block_parallel)):
        lb_value = _eval_index(lb, env)
        ub_value = _eval_index(ub, env)
        if lb_value is None or ub_value is None:
            return None
        total *= max(0, ub_value - lb_value)
    return total


class _VecFallback(Exception):
    """Vectorized index evaluation hit a case only the scalar path handles
    (per-env zero divisor, missing leaf binding)."""


def _eval_index_vec(value: Value, cols: Dict[Value, object]):
    """Vectorized :func:`_eval_index`: leaves bind int64 column arrays.

    Returns an int64 array (or plain int for env-independent
    subexpressions), ``None`` for inexpressible values — mirroring the
    scalar evaluator — and raises :class:`_VecFallback` where per-env
    divergence (a zero divisor in *some* envs) needs the scalar path.
    """
    if value in cols:
        return cols[value]
    if not isinstance(value, OpResult):
        return None
    op = value.owner
    if op.name == arith.CONSTANT:
        return int(op.attr("value"))
    operands = [_eval_index_vec(v, cols) for v in op.operands]
    if any(v is None for v in operands):
        return None
    if op.name == "arith.index_cast":
        return operands[0]
    if len(operands) != 2:
        return None
    a, b = operands
    scalar = isinstance(a, int) and isinstance(b, int)
    if op.name == "arith.addi":
        return a + b
    if op.name == "arith.subi":
        return a - b
    if op.name == "arith.muli":
        return a * b
    if op.name in ("arith.divsi", "arith.remsi"):
        if isinstance(b, int):
            if b == 0:
                return None
            return a // b if op.name == "arith.divsi" else a % b
        if np.any(b == 0):
            raise _VecFallback
        return a // b if op.name == "arith.divsi" else a % b
    if op.name == "arith.minsi":
        return min(a, b) if scalar else np.minimum(a, b)
    if op.name == "arith.maxsi":
        return max(a, b) if scalar else np.maximum(a, b)
    return None


def env_columns(envs: Sequence[Dict[Value, int]]):
    """Stack launch environments into per-key int64 columns.

    Returns ``None`` when the envs cannot be stacked (fewer than two, or
    ragged key sets) — callers fall back to the scalar
    :func:`block_count`. Computing the columns once and passing
    them to every :func:`block_counts` call over the same envs avoids
    re-validating and re-stacking per (loop, alternative).
    """
    if len(envs) < 2:
        return None
    keys = list(envs[0])
    if any(len(env) != len(keys) or any(k not in env for k in keys)
           for env in envs[1:]):
        return None
    return {key: np.array([env[key] for env in envs], dtype=np.int64)
            for key in keys}


def block_counts(block_parallel: Operation,
                 envs: Sequence[Dict[Value, int]],
                 cols=None) -> np.ndarray:
    """:func:`block_count` over many launch environments at once.

    Returns one int64 per env, ``-1`` where :func:`block_count` returns
    ``None`` (block counts are never negative). One evaluation of the
    bound expressions over stacked int64 columns replaces ``len(envs)``
    recursive walks; any env set the vectorized evaluator cannot express
    (ragged keys, env-dependent zero divisors) falls back to per-env
    :func:`block_count`, so the result is always elementwise-identical
    to the scalar path.

    ``cols`` may carry :func:`env_columns`'s result for these same envs,
    letting repeat callers pay the stacking cost once.
    """
    if cols is None and len(envs) >= 2:
        cols = env_columns(envs)
    if cols is None:
        return _per_env_block_counts(block_parallel, envs)
    total = 1
    try:
        for lb, ub in zip(scf.parallel_lower_bounds(block_parallel),
                          scf.parallel_upper_bounds(block_parallel)):
            lb_value = _eval_index_vec(lb, cols)
            ub_value = _eval_index_vec(ub, cols)
            if lb_value is None or ub_value is None:
                return np.full(len(envs), -1, dtype=np.int64)
            total = total * np.maximum(0, np.asarray(ub_value - lb_value,
                                                     dtype=np.int64))
    except _VecFallback:
        return _per_env_block_counts(block_parallel, envs)
    return np.broadcast_to(np.asarray(total, dtype=np.int64),
                           (len(envs),))


def _per_env_block_counts(block_parallel: Operation,
                          envs: Sequence[Dict[Value, int]]) -> np.ndarray:
    counts = [block_count(block_parallel, env) for env in envs]
    return np.array([-1 if blocks is None else blocks for blocks in counts],
                    dtype=np.int64)


def model_wrapper_launch(wrapper: Operation, arch: GPUArchitecture,
                         env: Dict[Value, int],
                         models: Optional[Dict[int, KernelModel]] = None
                         ) -> LaunchTiming:
    """Model one execution of a gpu_wrapper (main + epilogue loops).

    ``env`` maps launch-parameter SSA values (e.g. grid-dimension function
    arguments) to their runtime integers. ``models`` optionally caches
    :class:`KernelModel` instances keyed by the loop's
    :meth:`~repro.ir.Operation.stable_uid` (never-reused, unlike ``id()``).
    """
    from ..transforms.coarsen import block_parallels
    total_time = 0.0
    breakdown: Dict[str, float] = {}
    metrics = KernelMetrics()
    occupancy = None
    with obs_tracer.span("model.wrapper_launch",
                         category="simulator") as span:
        for loop in block_parallels(wrapper):
            blocks = block_count(loop, env)
            if blocks is None:
                raise InvalidLaunch(UNEVALUABLE_GRID)
            if blocks <= 0:
                # an empty launch (e.g. a coarsening epilogue with no
                # remainder) costs nothing and needs no model
                continue
            key = loop.stable_uid()
            if models is not None and key in models:
                model = models[key]
            else:
                model = KernelModel(loop, arch)
                if models is not None:
                    models[key] = model
            timing = model.time_launch(blocks)
            total_time += timing.time_seconds
            _merge_metrics(metrics, timing.metrics)
            for name, value in timing.breakdown.items():
                breakdown[name] = breakdown.get(name, 0.0) + value
            if occupancy is None:
                occupancy = timing.occupancy
        span.set(seconds=total_time)
    if occupancy is None:
        occupancy = Occupancy(0, 0, 0.0, "none")
    metrics.time_seconds = total_time
    return LaunchTiming(total_time, occupancy, metrics, breakdown)


def _merge_metrics(into: KernelMetrics, other: KernelMetrics) -> None:
    into.l2_to_l1_read_bytes += other.l2_to_l1_read_bytes
    into.l1_to_l2_write_bytes += other.l1_to_l2_write_bytes
    into.dram_read_bytes += other.dram_read_bytes
    into.dram_write_bytes += other.dram_write_bytes
    into.l1_to_sm_read_requests += other.l1_to_sm_read_requests
    into.sm_to_l1_write_requests += other.sm_to_l1_write_requests
    into.shmem_to_sm_read_requests += other.shmem_to_sm_read_requests
    into.sm_to_shmem_write_requests += other.sm_to_shmem_write_requests
    into.lsu_utilization = max(into.lsu_utilization, other.lsu_utilization)
    into.fma_utilization = max(into.fma_utilization, other.fma_utilization)
    into.occupancy = max(into.occupancy, other.occupancy)
    into.registers_per_thread = max(into.registers_per_thread,
                                    other.registers_per_thread)
    into.shared_bytes_per_block = max(into.shared_bytes_per_block,
                                      other.shared_bytes_per_block)
    into.threads_per_block = max(into.threads_per_block,
                                 other.threads_per_block)
    into.num_blocks += other.num_blocks
