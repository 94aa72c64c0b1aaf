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
from ..analysis.uniformity import DependenceMemo
from ..dialects import arith, scf
from ..ir import Operation, OpResult, Value
from ..obs import tracer as obs_tracer
from ..targets import (GPUArchitecture, LANE_WARP_WIDTH, Occupancy,
                       compute_occupancy, estimate_registers,
                       linearize_thread_body)
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

    Extracted once per :class:`KernelModel`.
    :class:`~repro.simulator.batch.BatchedKernelModel`, the one home of
    the timing formula, stacks these per-model scalars into columns and
    evaluates the arithmetic over ``num_blocks``; one launch is a
    one-row batch.
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
        # one walk of the thread body feeds every analysis below
        lin = linearize_thread_body(self.threads)
        # answers the strides when the coalescing fold builds the
        # stream's access table; the other folds reuse that table
        memo = AccessMemo(self.threads)
        self.accesses = analyze_coalescing(
            lin, memo, arch.warp_size, arch.transaction_bytes)
        self.bank_conflicts = analyze_shared_conflicts(
            lin, memo, arch.shared_banks)
        self.stats = kernel_statistics(lin)
        self.registers = estimate_registers(lin, arch)
        self.shared_per_block = shared_bytes_per_block(block_parallel, lin)
        self.block_factor = _coarsen_totals(block_parallel)
        self.thread_factor = _coarsen_totals(self.threads)
        self.coarsen_total = self.block_factor * self.thread_factor
        varies = DependenceMemo(self.threads.body_block().args)
        #: scf.if ops whose condition varies across threads
        self.divergent_branches = sum(
            1 for instr in lin.instrs
            if instr.kind == "branch" and varies(instr.op.operand(0)))

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

        The single home of the resource-exhaustion error: one-launch
        timing, the batched scorer and the Fig. 13-15 cutoff all raise
        through here, so they produce byte-identical failure reasons.
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

    def _compute_launch(self, num_blocks: int) -> LaunchTiming:
        with obs_tracer.span("model.compute", category="simulator",
                             blocks=num_blocks):
            if num_blocks <= 0:
                return LaunchTiming(0.0, self.occupancy, KernelMetrics(),
                                    {})
            self.ensure_launchable()
            # one launch is a one-row batch of the one timing formula
            from .batch import BatchedKernelModel
            batch = BatchedKernelModel()
            terms = {name: float(column[0]) for name, column in
                     batch.times([batch.add_model(self)],
                                 [num_blocks]).items()}
        T = self.threads_per_block
        stats = self.stats
        f = self.features()
        busy = terms["busy"]
        # The analytical model has no cache-hit modeling, so every L2→L1
        # transaction reaches DRAM: DRAM traffic equals the *transferred*
        # (transaction-granular) bytes, which for uncoalesced access is ≥
        # the useful bytes — the same invariant trace.py's counters obey.
        metrics = KernelMetrics(
            time_seconds=terms["time"],
            lsu_utilization=min(1.0, terms["memory"] / busy
                                if busy else 0.0),
            fma_utilization=min(1.0, terms["compute"] / busy
                                if busy else 0.0),
            l2_to_l1_read_bytes=f.read_bytes * num_blocks,
            l1_to_l2_write_bytes=f.write_bytes * num_blocks,
            dram_read_bytes=f.read_bytes * num_blocks,
            dram_write_bytes=f.write_bytes * num_blocks,
            l1_to_sm_read_requests=f.read_requests * num_blocks,
            sm_to_l1_write_requests=f.write_requests * num_blocks,
            shmem_to_sm_read_requests=stats.loads_shared * T * num_blocks,
            sm_to_shmem_write_requests=stats.stores_shared * T * num_blocks,
            occupancy=self.occupancy.occupancy,
            registers_per_thread=self.registers.registers_per_thread,
            shared_bytes_per_block=self.shared_per_block,
            threads_per_block=T,
            num_blocks=num_blocks,
        )
        breakdown = {
            "compute": terms["compute"],
            "memory": terms["memory"],
            "shared": terms["shared"],
            "latency": terms["latency"],
            "overhead": LAUNCH_OVERHEAD,
        }
        return LaunchTiming(terms["time"], self.occupancy, metrics,
                            breakdown)

    def features(self) -> LaunchFeatures:
        """The launch-count-independent scalars of this kernel, cached.

        This is the data :class:`~repro.simulator.batch.BatchedKernelModel`
        stacks into arrays.
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


# -- shared models --------------------------------------------------------------------


class SharedModels:
    """The models of one never-mutated function's block loops.

    A :class:`KernelModel` reads its loop only while it is built, so the
    model of ``loops[i]`` also models loop ``i`` of any structurally
    identical clone. Each model is built lazily from ``loops``, once per
    ``(ordinal, arch)``; threads that race on a build both build, and the
    first model stored wins.
    """

    def __init__(self, loops: Sequence[Operation]):
        self.loops = list(loops)
        self._built: Dict[tuple, KernelModel] = {}

    def model(self, ordinal: int, arch: GPUArchitecture) -> KernelModel:
        key = (ordinal, arch)
        model = self._built.get(key)
        if model is None:
            model = self._built.setdefault(
                key, KernelModel(self.loops[ordinal], arch))
        return model


class ModelCache(dict):
    """:class:`KernelModel` instances keyed by their loop's
    :meth:`~repro.ir.Operation.stable_uid`: the ``models`` argument of
    :func:`model_wrapper_launch` and
    :class:`~repro.simulator.batch.LaunchScorer`.

    A loop passed to :meth:`link` resolves to its :class:`SharedModels`
    model, built on first lookup, so it is built at the point and in the
    order a plain dict would have the caller build it, and raises there
    as that would. :meth:`unlink` ends that before the loops' IR changes.
    """

    def __init__(self, arch: GPUArchitecture):
        super().__init__()
        self.arch = arch
        self._links: Dict[int, tuple] = {}
        self._linked: Dict[object, List[int]] = {}

    def link(self, owner, loops: Sequence[Operation],
             shared: SharedModels) -> None:
        """Resolve ``loops[i]`` to ``shared``'s model ``i`` until
        :meth:`unlink` of ``owner``, a key naming the loops' function."""
        uids = self._linked[owner] = [loop.stable_uid() for loop in loops]
        for ordinal, uid in enumerate(uids):
            self._links[uid] = (shared, ordinal)

    def unlink(self, owner) -> None:
        for uid in self._linked.pop(owner, ()):
            del self._links[uid]

    def __missing__(self, uid: int) -> KernelModel:
        link = self._links.get(uid)
        if link is None:
            raise KeyError(uid)
        shared, ordinal = link
        return shared.model(ordinal, self.arch)

    def __contains__(self, uid) -> bool:
        return dict.__contains__(self, uid) or uid in self._links

    def get(self, uid, default=None):
        return self[uid] if uid in self else default

    def model(self, loop: Operation) -> KernelModel:
        """``loop``'s model: stored, shared, or built now and stored."""
        uid = loop.stable_uid()
        if uid not in self:
            self[uid] = KernelModel(loop, self.arch)
        return self[uid]


# -- wrapper-level modeling -----------------------------------------------------------


def _eval_columns(value: Value, cols: Dict[Value, object],
                  zero_divisor: np.ndarray):
    """Evaluate an index SSA expression over int64 grid columns.

    Leaves bind one int64 array per launch parameter; the result is an
    int64 array, a plain int for an env-independent subexpression, or
    ``None`` when the expression cannot be evaluated at all (an unbound
    leaf, an op outside the index arithmetic, a constant zero divisor).
    A row that divides by zero is marked in ``zero_divisor`` and divided
    by 1 instead, so the caller can mask exactly those rows.
    """
    if value in cols:
        return cols[value]
    if not isinstance(value, OpResult):
        return None
    op = value.owner
    if op.name == arith.CONSTANT:
        return int(op.attr("value"))
    operands = [_eval_columns(v, cols, zero_divisor) for v in op.operands]
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
        else:
            zero = b == 0
            if zero.any():
                zero_divisor |= zero
                b = np.where(zero, 1, b)
        return a // b if op.name == "arith.divsi" else a % b
    if op.name == "arith.minsi":
        return min(a, b) if scalar else np.minimum(a, b)
    if op.name == "arith.maxsi":
        return max(a, b) if scalar else np.maximum(a, b)
    return None


class LaunchEnvs:
    """Many launches of one wrapper: its grid arguments bound to the
    columns of an int64 grid table (one row per launch).

    :func:`env_columns` hands the scorer :attr:`columns` as they are.
    Indexing or iterating gives per-launch environment dicts, built on
    demand.
    """

    def __init__(self, args: Sequence[Value], table: np.ndarray):
        self.table = table
        self.columns = {arg: table[:, position]
                        for position, arg in enumerate(args)}

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index: int) -> Dict[Value, int]:
        return dict(zip(self.columns, self.table[index].tolist()))

    def __iter__(self):
        return (dict(zip(self.columns, grid))
                for grid in self.table.tolist())


def env_columns(envs: Sequence[Dict[Value, int]]) -> Dict[Value, object]:
    """Per-key int64 columns of many launch environments, one row each.

    A :class:`LaunchEnvs` gives its columns as they are; a sequence of
    env dicts is stacked here, the one place that does. Every dict must
    bind the same keys: a ragged sequence raises ``ValueError``.
    Computing the columns once and passing them to every
    :func:`block_counts` call over the same envs avoids re-validating and
    re-stacking per (loop, alternative).
    """
    if isinstance(envs, LaunchEnvs):
        return envs.columns
    keys = list(envs[0]) if len(envs) else []
    if any(len(env) != len(keys) or any(k not in env for k in keys)
           for env in envs[1:]):
        raise ValueError("launch environments bind different parameters")
    return {key: np.array([env[key] for env in envs], dtype=np.int64)
            for key in keys}


def block_counts(block_parallel: Operation,
                 envs: Sequence[Dict[Value, int]],
                 cols=None) -> np.ndarray:
    """Number of blocks this loop executes in each launch environment.

    Returns one int64 per env, ``-1`` where the grid cannot be evaluated
    (block counts are never negative): for every env when a bound is
    inexpressible, and for exactly the envs that divide by zero. One
    evaluation of the bound expressions over int64 columns serves every
    env, one launch being a one-row table.

    ``envs`` is a :class:`LaunchEnvs` or a sequence of env dicts.
    ``cols`` may carry :func:`env_columns`'s result for these same envs,
    letting repeat callers pay the stacking cost once.
    """
    if cols is None:
        cols = env_columns(envs)
    rows = len(envs)
    zero_divisor = np.zeros(rows, dtype=bool)
    total = 1
    for lb, ub in zip(scf.parallel_lower_bounds(block_parallel),
                      scf.parallel_upper_bounds(block_parallel)):
        lb_value = _eval_columns(lb, cols, zero_divisor)
        ub_value = _eval_columns(ub, cols, zero_divisor)
        if lb_value is None or ub_value is None:
            return np.full(rows, -1, dtype=np.int64)
        total = total * np.maximum(0, np.asarray(ub_value - lb_value,
                                                 dtype=np.int64))
    counts = np.broadcast_to(np.asarray(total, dtype=np.int64), (rows,))
    return np.where(zero_divisor, -1, counts)


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
    envs = [env]
    cols = env_columns(envs)
    with obs_tracer.span("model.wrapper_launch",
                         category="simulator") as span:
        for loop in block_parallels(wrapper):
            blocks = int(block_counts(loop, envs, cols)[0])
            if blocks < 0:
                raise InvalidLaunch(UNEVALUABLE_GRID)
            if blocks == 0:
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
