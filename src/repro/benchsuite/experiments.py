"""Experiment drivers reproducing the paper's evaluation (§VII).

Each function returns plain data structures that the ``benchmarks/`` harness
formats into the corresponding table or figure:

* :func:`sweep_kernel_configs` / :func:`fig13_data` — §VII-B / Fig. 13;
* :func:`fig14_heatmap`                            — Fig. 14;
* :func:`fig15_dimension_sweep`                    — Fig. 15;
* :func:`table2_profile`                           — Table II;
* :func:`fig16_data`                               — Fig. 16;
* :func:`fig17_data`                               — Fig. 17;
* :func:`hipify_ease_data`                         — §VII-D1.

Fig. 13, Fig. 16, Fig. 17 and Table II are matrices of independent jobs.
Each is defined once, by its ``*_plan`` function, as a :class:`SweepPlan`:
the jobs, the merge that builds the figure's data from their values, and
the figure's defaults. The driver runs that plan through
:func:`~repro.benchsuite.sweeps.run_plan`, in this process or, with
``workers > 1``, over worker processes; ``repro sweep`` runs the same plan
resumably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autotune import paper_sweep_configs
from ..autotune.tdo import materialize_every_plan, timing_driven_optimization
from ..engine import TuningEngine, stage_timer
from ..engine.scheduler import Job
from ..pipeline import build_launch_wrapper
from ..simulator.batch import LaunchScorer
from ..simulator.model import (UNEVALUABLE_GRID, InvalidLaunch, KernelModel,
                               block_counts, env_columns)
from ..targets import A100, A4000, GPUArchitecture, MI210, RX6800, \
    arch_by_name
from ..transforms import is_uncoarsened, run_cleanup
from ..transforms.coarsen import block_parallels_in_region
from ..translate import retarget_ease_report
from .base import BENCHMARKS, get_benchmark, group_launches

#: kernel-measurement cutoff, as in §VII-A ("measurements with runtimes
#: less than 0.0001s are discarded")
MIN_KERNEL_SECONDS = 1e-4


@dataclass
class ConfigTime:
    """One coarsening configuration's modeled kernel time."""

    block_total: int
    thread_total: int
    desc: str
    seconds: float
    valid: bool
    reason: str = ""
    #: the coarsening kwargs this row was planned from
    config: Dict[str, object] = field(default_factory=dict)


@dataclass
class KernelSweep:
    """Full coarsening sweep for one kernel at one launch group."""

    benchmark: str
    kernel: str
    block: Tuple[int, ...]
    results: List[ConfigTime] = field(default_factory=list)

    def baseline(self) -> Optional[ConfigTime]:
        return next((result for result in self.results
                     if result.valid and is_uncoarsened(result.config)),
                    None)

    def best(self, block_only=False, thread_only=False
             ) -> Optional[ConfigTime]:
        candidates = [r for r in self.results if r.valid]
        if block_only:
            candidates = [r for r in candidates if r.thread_total == 1]
        if thread_only:
            candidates = [r for r in candidates if r.block_total == 1]
        return min(candidates, key=lambda r: r.seconds, default=None)

    def speedup(self, **kwargs) -> float:
        baseline = self.baseline()
        best = self.best(**kwargs)
        if baseline is None or best is None or best.seconds <= 0:
            return 1.0
        return baseline.seconds / best.seconds


# -- the figure matrix ------------------------------------------------------


@dataclass
class SweepPlan:
    """One figure as independent jobs plus the merge that builds its data.

    Job payloads are plain picklable data whose ``kind`` names what
    :func:`run_figure_job` computes, so a plan runs the same in this
    process or in worker processes. ``merge`` maps ``{job key: value}``
    to the figure's data; the job keys are ``repro sweep``'s resume
    format.
    """

    figure: str
    jobs: List[Job]
    merge: Callable[[Dict[str, Any]], Any]

    @property
    def keys(self) -> List[str]:
        return [job.key for job in self.jobs]


def _arch(arch) -> GPUArchitecture:
    return arch_by_name(arch) if isinstance(arch, str) else arch


def _by_benchmark(jobs: Sequence[Job], cells: Sequence[Tuple[str, Any]]
                  ) -> Callable[[Dict[str, Any]], Any]:
    """A merge building ``{benchmark: {column: job value}}`` in job order,
    where ``cells[i]`` is job ``i``'s (benchmark, column)."""
    def merge(values):
        data: Dict[str, Dict[Any, Any]] = {}
        for job, (name, column) in zip(jobs, cells):
            data.setdefault(name, {})[column] = values[job.key]
        return data
    return merge


def _run(plan: SweepPlan, workers: int,
         engine: Optional[TuningEngine] = None) -> Any:
    from .sweeps import run_plan  # sweeps imports this module
    return run_plan(plan, workers, engine)


def sweep_kernel_configs(source: str, kernel: str,
                         block: Tuple[int, ...],
                         grids: Sequence[Tuple[int, ...]],
                         arch: GPUArchitecture,
                         configs: Optional[Sequence[Dict]] = None,
                         benchmark_name: str = "",
                         *, engine: Optional[TuningEngine] = None
                         ) -> KernelSweep:
    """Model every coarsening config of one kernel over a set of grids.

    Unlike a tune, nothing is filtered: every legal config is
    materialized and timed. ``engine``, when given, times each stage of
    the sweep into its registry.
    """
    configs = list(configs) if configs is not None \
        else paper_sweep_configs()
    built = build_launch_wrapper(source, kernel, len(grids[0]), block,
                                 engine)
    report, alt = materialize_every_plan(built.wrapper, configs, engine)
    sweep = KernelSweep(benchmark_name, kernel, tuple(block))
    if alt is None:
        return sweep
    envs = _apply_measurement_cutoff(report.alternatives, alt, arch,
                                     [built.env(grid) for grid in grids])
    with stage_timer(engine)("tdo"):
        outcome = timing_driven_optimization(alt, arch, envs, select=False)
    for candidate in outcome.candidates:
        info = report.alternatives[candidate.index]
        # the totals the coarsening applied, however the config spells
        # them (as totals or as per-dimension factors)
        sweep.results.append(ConfigTime(
            block_total=info.result.total_block,
            thread_total=info.result.total_thread,
            desc=candidate.desc,
            seconds=candidate.time_seconds,
            valid=candidate.valid,
            reason=candidate.reason,
            config=info.config))
    for rejected, (config, _) in zip(report.rejected,
                                     report.rejected_configs):
        sweep.results.append(ConfigTime(0, 0, rejected, float("inf"),
                                        False, "illegal coarsening",
                                        config))
    return sweep


def _apply_measurement_cutoff(plans, alt, arch, envs):
    """Drop launch geometries whose baseline runtime is below the paper's
    0.0001 s measurement cutoff (§VII-A); keeps kernel measurements from
    being dominated by launch-overhead tails (e.g. lud's shrinking grids).

    A geometry the baseline cannot be timed at is dropped too: one with
    an unevaluable grid, or one launching a loop whose model cannot be
    built or cannot launch. The rest are timed in one
    :class:`~repro.simulator.batch.LaunchScorer` pass.
    """
    baseline_index = next((info.index for info in plans
                           if is_uncoarsened(info.config)), None)
    if baseline_index is None:
        return envs
    loops = block_parallels_in_region(alt.region(baseline_index))
    cols = env_columns(envs)
    counts = [block_counts(loop, envs, cols) for loop in loops]
    timeable = np.ones(len(envs), dtype=bool)
    for loop_counts in counts:
        timeable &= loop_counts >= 0
    models = {}
    for loop, loop_counts in zip(loops, counts):
        launches = timeable & (loop_counts > 0)
        if not launches.any():
            continue
        try:
            model = KernelModel(loop, arch)
            model.ensure_launchable()
        except InvalidLaunch:
            timeable &= ~launches
            continue
        models[loop.stable_uid()] = model
    timed = [env for env, keep in zip(envs, timeable.tolist()) if keep]
    if not timed:
        return envs
    scorer = LaunchScorer(timed, arch, models, UNEVALUABLE_GRID)
    scorer.add(loops)
    seconds, = scorer.env_seconds()
    kept = [env for env, total in zip(timed, seconds)
            if total >= MIN_KERNEL_SECONDS]
    return kept or envs


def _launch_groups(bench) -> Dict[Tuple[str, Tuple[int, ...]],
                                  List[Tuple[int, ...]]]:
    groups = group_launches(bench.iter_launches(bench.model_size))
    return {key: [tuple(grid) for grid in table.tolist()]
            for key, table in groups.tables.items()}


def resolve_benchmark(name: str):
    """Look up a benchmark by name in the Rodinia suite or the HeCBench
    extras — the union population Fig. 13 sweeps over."""
    if name in BENCHMARKS:
        return BENCHMARKS[name]
    from .hecbench import HECBENCH
    if name in HECBENCH:
        return HECBENCH[name]
    raise KeyError("no benchmark named %r" % name)


def fig13_population(benchmarks: Optional[Sequence[str]] = None,
                     include_hecbench: bool = False) -> Dict[str, object]:
    """The benchmark population of one Fig. 13 sweep, name -> instance."""
    population: Dict[str, object] = {}
    if benchmarks is not None:
        for name in benchmarks:
            population[name] = resolve_benchmark(name)
        return population
    for name in sorted(BENCHMARKS):
        population[name] = get_benchmark(name)
    if include_hecbench:
        from .hecbench import HECBENCH
        population.update(HECBENCH)
    return population


def fig13_benchmark(name: str, arch: GPUArchitecture,
                    configs: Optional[Sequence[Dict]] = None,
                    engine: Optional[TuningEngine] = None
                    ) -> List[KernelSweep]:
    """One Fig. 13 job: the sweeps of one benchmark's launch groups that
    pass the §VII-A cutoff (an uncoarsened baseline of at least
    :data:`MIN_KERNEL_SECONDS`)."""
    bench = resolve_benchmark(name)
    sweeps: List[KernelSweep] = []
    for (kernel, block), grids in _launch_groups(bench).items():
        sweep = sweep_kernel_configs(bench.source, kernel, block, grids,
                                     arch, configs, name, engine=engine)
        baseline = sweep.baseline()
        if baseline is not None and baseline.seconds >= MIN_KERNEL_SECONDS:
            sweeps.append(sweep)
    return sweeps


def fig13_plan(arch=None, benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None,
               include_hecbench: bool = False) -> SweepPlan:
    """Fig. 13: one :func:`fig13_benchmark` job per benchmark on ``arch``
    (default the A100), merged by concatenation in benchmark order."""
    arch = _arch(arch or A100)
    configs = list(configs) if configs is not None else None
    jobs = [Job("fig13|%s|%s" % (name, arch.name),
                {"kind": "fig13", "benchmark": name, "arch": arch.name,
                 "configs": configs})
            for name in sorted(fig13_population(benchmarks,
                                                include_hecbench))]

    def merge(values):
        return [sweep for job in jobs for sweep in values[job.key]]

    return SweepPlan("fig13", jobs, merge)


def fig13_data(arch: Optional[GPUArchitecture] = None,
               benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None,
               include_hecbench: bool = False,
               engine: Optional[TuningEngine] = None,
               workers: int = 1) -> List[KernelSweep]:
    """Per-kernel sweeps across the suite (the Fig. 13 scatter).

    ``include_hecbench`` adds the HeCBench-style extras, mirroring the
    paper's wider 181-kernel population. ``engine``, when given, times
    the sweeps' stages; it needs ``workers=1``. ``workers > 1`` runs one
    benchmark per worker process.
    """
    return _run(fig13_plan(arch, benchmarks, configs, include_hecbench),
                workers, engine)


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fig13_summary(sweeps: Sequence[KernelSweep]) -> Dict[str, float]:
    """The §VII-B headline numbers: geomean speedups per strategy."""
    return {
        "combined": geomean([s.speedup() for s in sweeps]),
        "thread_only": geomean([s.speedup(thread_only=True)
                                for s in sweeps]),
        "block_only": geomean([s.speedup(block_only=True)
                               for s in sweeps]),
    }


def fig14_heatmap(arch: GPUArchitecture = A100,
                  totals: Sequence[int] = (1, 2, 4, 8, 16, 32),
                  kernel: str = "lud_internal"
                  ) -> Dict[Tuple[int, int], Optional[float]]:
    """lud speedups over (block_total, thread_total); None = invalid."""
    bench = get_benchmark("lud")
    groups = _launch_groups(bench)
    (kernel_name, block), grids = next(
        ((k, g) for k, g in groups.items() if k[0] == kernel))
    configs = [{"block_total": b, "thread_total": t}
               for b in totals for t in totals]
    sweep = sweep_kernel_configs(bench.source, kernel_name, block, grids,
                                 arch, configs, "lud")
    baseline = sweep.baseline()
    heatmap: Dict[Tuple[int, int], Optional[float]] = {}
    for result in sweep.results:
        key = (result.block_total, result.thread_total)
        if result.valid and baseline is not None:
            heatmap[key] = baseline.seconds / result.seconds
        else:
            heatmap[key] = None
    return heatmap


def fig15_dimension_sweep(arch: GPUArchitecture = A100,
                          block_x: Sequence[int] = tuple(range(1, 11)),
                          thread_x: Sequence[int] = (1, 2, 4, 8)
                          ) -> Dict[Tuple[int, int], Optional[float]]:
    """lud_internal: block coarsening along x × thread coarsening."""
    bench = get_benchmark("lud")
    groups = _launch_groups(bench)
    (kernel, block), grids = next(
        ((k, g) for k, g in groups.items() if k[0] == "lud_internal"))
    configs = [{"block_factors": (bx, 1), "thread_factors": (tx, 1)}
               for bx in block_x for tx in thread_x]
    sweep = sweep_kernel_configs(bench.source, kernel, block, grids, arch,
                                 configs, "lud")

    def x_factors(result):
        return (result.config["block_factors"][0],
                result.config["thread_factors"][0])

    baseline = sweep.baseline()
    return {x_factors(r): baseline.seconds / r.seconds
            if r.valid and baseline else None for r in sweep.results}


#: the three (block, thread) factor points Table II profiles
TABLE2_CONFIGS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("(1, 1)", {}),
    ("(4, 1)", {"block_total": 4}),
    ("(1, 4)", {"thread_total": 4}),
)


def table2_profile_row(config: Dict[str, int], arch: GPUArchitecture,
                       size: int) -> Dict[str, object]:
    """One Table II row: lud profiling counters at one coarsening config.

    Counters come from trace-driven functional execution (real addresses
    through the cache model); runtimes from the analytical model at
    ``model_size``. Each row is independent: one job of
    :func:`table2_plan`.
    """
    from ..interpreter import MemoryBuffer
    from ..ir import F32
    from ..simulator import trace_kernel
    from ..simulator.model import model_wrapper_launch
    from ..transforms import coarsen_wrapper
    from .lud import make_diagonally_dominant, B

    bench = get_benchmark("lud")

    def coarsened():
        built = build_launch_wrapper(bench.source, "lud_internal", 2,
                                     (B, B))
        if config:
            coarsen_wrapper(built.wrapper, **config)
            run_cleanup(built.module)
        return built

    traced = coarsened()
    remaining = size // B - 1
    matrix = MemoryBuffer((size * size,), F32,
                          data=make_diagonally_dominant(size, 0).ravel())
    trace = trace_kernel(traced.module, traced.name,
                         [remaining, remaining, matrix, size, 0], arch)
    # runtime from the analytical model at paper-ish scale
    model_grid = bench.model_size // B - 1
    modeled = coarsened()
    timing = model_wrapper_launch(modeled.wrapper, arch,
                                  modeled.env((model_grid, model_grid)))
    metrics = trace.metrics
    metrics.time_seconds = timing.time_seconds
    # unit utilizations come from the analytical model (the trace only
    # counts traffic events)
    metrics.lsu_utilization = timing.metrics.lsu_utilization
    metrics.fma_utilization = timing.metrics.fma_utilization
    return metrics.table_row()


def table2_plan(arch=None, size: Optional[int] = None) -> SweepPlan:
    """Table II: one :func:`table2_profile_row` job per
    :data:`TABLE2_CONFIGS` point on ``arch`` (default the A100), tracing
    a ``size`` × ``size`` matrix (default 64)."""
    arch = _arch(arch or A100)
    size = size if size is not None else 64
    jobs = [Job("table2|%s" % label,
                {"kind": "table2", "config": config, "arch": arch.name,
                 "size": size})
            for label, config in TABLE2_CONFIGS]

    def merge(values):
        return {label: values[job.key]
                for (label, _), job in zip(TABLE2_CONFIGS, jobs)}

    return SweepPlan("table2", jobs, merge)


def table2_profile(arch: Optional[GPUArchitecture] = None,
                   size: Optional[int] = None, workers: int = 1
                   ) -> Dict[str, Dict[str, object]]:
    """lud profiling counters at (1,1), (4,1), (1,4) — Table II."""
    return _run(table2_plan(arch, size), workers)


def fig16_plan(archs: Optional[Sequence] = None,
               tiers: Optional[Sequence[str]] = None,
               benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None) -> SweepPlan:
    """Fig. 16: one composite job per benchmark × arch × tier. By default
    all four GPU models and the tiers clang, Polygeist-GPU without the
    parallel optimizations, and Polygeist-GPU."""
    archs = [_arch(arch) for arch in archs] if archs is not None \
        else [A4000, A100, RX6800, MI210]
    tiers = tuple(tiers) if tiers is not None \
        else ("clang", "polygeist-noopt", "polygeist")
    configs = list(configs) if configs is not None else None
    cells = [(name, arch.name, tier)
             for name in sorted(benchmarks or BENCHMARKS)
             for arch in archs for tier in tiers]
    jobs = [Job("fig16|%s|%s|%s" % (name, arch, tier),
                {"kind": "composite", "benchmark": name, "arch": arch,
                 "tier": tier, "configs": configs})
            for name, arch, tier in cells]
    return SweepPlan("fig16", jobs, _by_benchmark(
        jobs, [(name, (arch, tier)) for name, arch, tier in cells]))


def fig16_data(archs: Optional[Sequence[GPUArchitecture]] = None,
               tiers: Optional[Sequence[str]] = None,
               benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None,
               workers: int = 1
               ) -> Dict[str, Dict[Tuple[str, str], float]]:
    """Composite times per benchmark × (arch, tier) — Fig. 16."""
    return _run(fig16_plan(archs, tiers, benchmarks, configs), workers)


def fig16_geomeans(data: Dict[str, Dict[Tuple[str, str], float]],
                   arch_name: str, baseline_tier: str = "clang"
                   ) -> Dict[str, float]:
    """Geomean speedup of each tier over the baseline tier on one arch.

    Missing cells (``None`` / absent) are skipped; a legitimately-0.0
    modeled time cannot form a finite ratio, so it is dropped with a
    warning rather than silently. If *every* benchmark's ratio was
    discarded for a tier, the sweep is all-invalid and this raises
    instead of reporting a masking 1.0 geomean.
    """
    import warnings
    tiers = sorted({tier for rows in data.values()
                    for (a, tier) in rows if a == arch_name})
    result = {}
    for tier in tiers:
        ratios = []
        populated = 0
        dropped_zero = 0
        for name in data:
            base = data[name].get((arch_name, baseline_tier))
            this = data[name].get((arch_name, tier))
            if base is None or this is None:
                continue
            populated += 1
            if base > 0 and this > 0:
                ratios.append(base / this)
            else:
                dropped_zero += 1
                warnings.warn(
                    "fig16_geomeans: %s on %s/%s has a 0.0 modeled time "
                    "(base=%r this=%r); dropping it from the geomean" %
                    (name, arch_name, tier, base, this), RuntimeWarning,
                    stacklevel=2)
        if populated and not ratios:
            raise ValueError(
                "fig16_geomeans: every ratio for tier %r on %s was "
                "discarded (%d zero-time of %d populated cells) — the "
                "sweep is all-invalid" %
                (tier, arch_name, dropped_zero, populated))
        result[tier] = geomean(ratios)
    return result


#: Fig. 17's columns: (label, arch, tier, tuned with the sweep's
#: configs). The untuned RX6800 (clang) column isolates the hardware
#: ratio (fp64 throughput, LDS offload) from per-platform tuning.
FIG17_COLUMNS: Tuple[Tuple[str, GPUArchitecture, str, bool], ...] = (
    ("A4000 (clang)", A4000, "clang", False),
    ("A4000 (Polygeist-GPU)", A4000, "polygeist", True),
    ("RX6800 (Polygeist-GPU)", RX6800, "polygeist", True),
    ("RX6800 (clang)", RX6800, "clang", False),
)


def fig17_plan(benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None) -> SweepPlan:
    """Fig. 17: one composite job per benchmark × :data:`FIG17_COLUMNS`
    column."""
    configs = list(configs) if configs is not None else None
    cells = [(name, column) for name in sorted(benchmarks or BENCHMARKS)
             for column in FIG17_COLUMNS]
    jobs = [Job("fig17|%s|%s" % (name, label),
                {"kind": "composite", "benchmark": name, "arch": arch.name,
                 "tier": tier, "configs": configs if tuned else None})
            for name, (label, arch, tier, tuned) in cells]
    return SweepPlan("fig17", jobs, _by_benchmark(
        jobs, [(name, column[0]) for name, column in cells]))


def fig17_data(benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None,
               workers: int = 1) -> Dict[str, Dict[str, float]]:
    """Composite times per benchmark on the four :data:`FIG17_COLUMNS`:
    A4000 (clang), A4000 (Polygeist-GPU), RX6800 (Polygeist-GPU) and the
    untuned RX6800 (clang) — Fig. 17."""
    return _run(fig17_plan(benchmarks, configs), workers)


# -- running one job of the figure matrix ------------------------------------


#: each multi-job figure's plan, by ``repro sweep`` figure name
FIGURE_PLANS: Dict[str, Callable[..., SweepPlan]] = {
    "fig13": fig13_plan,
    "fig16": fig16_plan,
    "fig17": fig17_plan,
    "table2": table2_plan,
}


def run_figure_job(payload: Dict[str, Any],
                   engine: Optional[TuningEngine] = None) -> Any:
    """Compute one plan job's value. Module-level, so the scheduler can
    ship it to worker processes under any start method."""
    from .base import simulate_composite
    kind = payload["kind"]
    arch = arch_by_name(payload["arch"])
    if kind == "fig13":
        return fig13_benchmark(payload["benchmark"], arch,
                               payload["configs"], engine)
    if kind == "composite":
        return simulate_composite(payload["benchmark"], arch,
                                  tier=payload["tier"],
                                  autotune_configs=payload["configs"],
                                  engine=engine)
    if kind == "table2":
        return table2_profile_row(payload["config"], arch, payload["size"])
    raise ValueError("unknown sweep job kind %r" % kind)


def hipify_ease_data(benchmarks: Optional[Sequence[str]] = None):
    """Manual-fix counts: hipify+clang vs Polygeist-GPU (§VII-D1)."""
    reports = []
    for name in sorted(benchmarks or BENCHMARKS):
        bench = get_benchmark(name)
        # benchmarks ship bare kernels; add the realistic CUDA prelude the
        # paper's Rodinia sources have, which is what trips hipify
        source = ('#include <cuda_runtime.h>\n#include "helper_cuda.h"\n'
                  "#ifdef __CUDACC__\n#endif\n") + bench.source
        reports.append(retarget_ease_report(name, source))
    return reports
