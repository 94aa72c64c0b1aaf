"""The scalar timing model: the test oracle of the batched product path.

The product holds one copy of the timing formula
(``repro.simulator.batch.BatchedKernelModel.times``) and one bound
evaluator over int64 grid columns (``repro.simulator.model.block_counts``);
a single launch is a one-row table through both. This module keeps the
one-launch-at-a-time scalar reference they replaced:

* :func:`evaluate_launch`, the timing formula over one
  :class:`~repro.simulator.model.LaunchFeatures` and a block count;
* :func:`block_count`, the recursive bound evaluator over one env dict,
  ``None`` where the grid cannot be evaluated;
* :func:`launch_timing`, ``KernelModel.time_launch``'s
  :class:`~repro.simulator.model.LaunchTiming` from the model's features;
* :func:`time_region`, one alternative's seconds in one env;
* :func:`model_wrapper_launch` and :func:`model_launch`, one launch of a
  wrapper and of a :class:`~repro.pipeline.Program` kernel, the loops'
  counters merged by :func:`merge_metrics`;
* :func:`apply_measurement_cutoff`, the Fig. 13-15 cutoff one env at a
  time.

The equivalence tests substitute these for the product with
``monkeypatch`` and compare with ``==``. Every helper reaches the
formula and the evaluator through this module's globals, so a test can
count their calls, and none of them reaches the product's timing or
evaluator: an oracle that did would compare the batch with itself.
Models are built through ``repro.simulator.model.KernelModel`` looked up
at call time, so a test that patches that class sees both paths build.
"""

from dataclasses import dataclass
from typing import Dict, Optional

import repro.simulator.model as model_mod
from repro.autotune.tdo import _UNEVALUABLE
from repro.dialects import arith, polygeist, scf
from repro.ir import Operation, OpResult, Value
from repro.pipeline import _as_dims
from repro.simulator.metrics import KernelMetrics
from repro.simulator.model import (LAUNCH_OVERHEAD, OVERLAP_LEAK,
                                   UNEVALUABLE_GRID, InvalidLaunch,
                                   KernelModel, LaunchFeatures, LaunchTiming)
from repro.targets import GPUArchitecture, Occupancy
from repro.transforms import is_uncoarsened
from repro.transforms.coarsen import (block_parallels,
                                      block_parallels_in_region)

# -- the timing formula ------------------------------------------------------


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
    """The timing formula for one launch of ``num_blocks > 0`` blocks."""
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

    work_terms = (compute_seconds, memory_seconds, shared_seconds)
    dominant = max(work_terms)
    busy = dominant + OVERLAP_LEAK * (sum(work_terms) - dominant)
    busy = max(busy, latency_floor)
    time = busy + LAUNCH_OVERHEAD
    return LaunchTerms(compute_seconds, memory_seconds, shared_seconds,
                       latency_floor, busy, time)


def launch_timing(model: KernelModel, num_blocks: int) -> LaunchTiming:
    """One launch of ``model``'s loop, from its features alone."""
    occupancy = model.occupancy
    if num_blocks <= 0:
        return LaunchTiming(0.0, occupancy, KernelMetrics(), {})
    model.ensure_launchable()
    T = model.threads_per_block
    stats = model.stats
    f = model.features()
    terms = evaluate_launch(f, num_blocks)
    busy = terms.busy
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
        registers_per_thread=model.registers.registers_per_thread,
        shared_bytes_per_block=model.shared_per_block,
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
    return LaunchTiming(terms.time_seconds, occupancy, metrics, breakdown)


# -- the bound evaluator -----------------------------------------------------


_INDEX_OPS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: a // b if b else None,
    "arith.remsi": lambda a, b: a % b if b else None,
    "arith.minsi": min, "arith.maxsi": max,
}


def eval_index(value: Value, env: Dict[Value, int]) -> Optional[int]:
    """Evaluate an index SSA expression given known leaf values."""
    if value in env:
        return env[value]
    if not isinstance(value, OpResult):
        return None
    op = value.owner
    if op.name == arith.CONSTANT:
        return int(op.attr("value"))
    operands = [eval_index(v, env) for v in op.operands]
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
        lb_value = eval_index(lb, env)
        ub_value = eval_index(ub, env)
        if lb_value is None or ub_value is None:
            return None
        total *= max(0, ub_value - lb_value)
    return total


# -- one launch at a time ----------------------------------------------------


def time_region(alt: Operation, index: int, arch: GPUArchitecture,
                env: Dict[Value, int],
                model_cache: Optional[Dict[int, KernelModel]] = None,
                blocks_cache: Optional[Dict[tuple, int]] = None) -> float:
    """Region ``index``'s seconds in ``env``: its loops in order, each
    launching loop's time added to a total from 0.0, stopping at the
    first failure. ``blocks_cache`` is keyed by the env dict's ``id()``,
    so the caller must keep every env it passes alive."""
    total = 0.0
    for loop in block_parallels_in_region(alt.region(index)):
        key = loop.stable_uid()
        blocks = None
        if blocks_cache is not None:
            blocks = blocks_cache.get((key, id(env)))
        if blocks is None:
            blocks = block_count(loop, env)
            if blocks is None:
                raise InvalidLaunch(_UNEVALUABLE)
            if blocks_cache is not None:
                blocks_cache[(key, id(env))] = blocks
        if blocks <= 0:
            continue
        model = None if model_cache is None else model_cache.get(key)
        if model is None:
            model = model_mod.KernelModel(loop, arch)
            if model_cache is not None:
                model_cache[key] = model
        total += launch_timing(model, blocks).time_seconds
    return total


def scalar_seconds(alt: Operation, arch: GPUArchitecture, envs):
    """Per alternative: its seconds summed over ``envs``, or the
    :class:`InvalidLaunch` that stopped it (``tdo._batched_seconds``)."""
    # one dict per launch, alive for the whole call (time_region's cache)
    envs = list(envs)
    model_cache: Dict[int, KernelModel] = {}
    blocks_cache: Dict[tuple, int] = {}
    for index in range(len(alt.regions)):
        try:
            yield sum(time_region(alt, index, arch, one, model_cache,
                                  blocks_cache)
                      for one in envs)
        except InvalidLaunch as error:
            yield error


def model_wrapper_launch(wrapper: Operation, arch: GPUArchitecture,
                         env: Dict[Value, int],
                         models: Optional[Dict[int, KernelModel]] = None
                         ) -> LaunchTiming:
    """One execution of a gpu_wrapper (main and epilogue loops)."""
    total_time = 0.0
    breakdown: Dict[str, float] = {}
    metrics = KernelMetrics()
    occupancy = None
    for loop in block_parallels(wrapper):
        blocks = block_count(loop, env)
        if blocks is None:
            raise InvalidLaunch(UNEVALUABLE_GRID)
        if blocks <= 0:
            continue
        key = loop.stable_uid()
        if models is not None and key in models:
            model = models[key]
        else:
            model = model_mod.KernelModel(loop, arch)
            if models is not None:
                models[key] = model
        timing = launch_timing(model, blocks)
        total_time += timing.time_seconds
        merge_metrics(metrics, timing.metrics)
        for name, value in timing.breakdown.items():
            breakdown[name] = breakdown.get(name, 0.0) + value
        if occupancy is None:
            occupancy = timing.occupancy
    if occupancy is None:
        occupancy = Occupancy(0, 0, 0.0, "none")
    metrics.time_seconds = total_time
    return LaunchTiming(total_time, occupancy, metrics, breakdown)


def merge_metrics(into: KernelMetrics, other: KernelMetrics) -> None:
    """Add one loop's launch counters into a wrapper launch's."""
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


def model_launch(program, kernel: str, grid, block) -> LaunchTiming:
    """``program.model_launch(kernel, grid, block)``: tunes on first use
    through the program, then models the launch here."""
    grid = _as_dims(grid)
    block = _as_dims(block)
    wrapper_name = program._prepare(kernel, grid, block)
    f = program.module.func(wrapper_name)
    wrappers = polygeist.find_gpu_wrappers(f)
    if not wrappers:
        raise InvalidLaunch("no GPU wrapper in %s" % wrapper_name)
    env = dict(zip(f.body_block().args[:len(grid)], grid))
    return model_wrapper_launch(wrappers[0], program.arch, env,
                                program._model_cache)


def apply_measurement_cutoff(plans, alt, arch, envs):
    """``experiments._apply_measurement_cutoff``, one env at a time."""
    from repro.benchsuite.experiments import MIN_KERNEL_SECONDS
    baseline_index = next((info.index for info in plans
                           if is_uncoarsened(info.config)), None)
    if baseline_index is None:
        return envs
    cache: Dict[int, KernelModel] = {}
    kept = []
    for env in envs:
        try:
            seconds = time_region(alt, baseline_index, arch, env, cache)
        except InvalidLaunch:
            continue
        if seconds >= MIN_KERNEL_SECONDS:
            kept.append(env)
    return kept or envs
