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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..autotune import paper_sweep_configs
from ..autotune.tdo import materialize_every_plan, timing_driven_optimization
from ..engine import TuningEngine, stage_timer
from ..pipeline import build_launch_wrapper
from ..simulator.model import InvalidLaunch
from ..targets import A100, A4000, GPUArchitecture, MI210, RX6800
from ..transforms import run_cleanup
from ..translate import retarget_ease_report
from .base import BENCHMARKS, get_benchmark

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
        for result in self.results:
            if result.block_total == 1 and result.thread_total == 1 and \
                    result.valid:
                return result
        return None

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
        config = report.alternatives[candidate.index].config
        sweep.results.append(ConfigTime(
            block_total=int(config.get("block_total", 1)),
            thread_total=int(config.get("thread_total", 1)),
            desc=candidate.desc,
            seconds=candidate.time_seconds,
            valid=candidate.valid,
            reason=candidate.reason,
            config=config))
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
    """
    from ..autotune.tdo import _time_region
    baseline_index = None
    for info in plans:
        config = info.config
        if int(config.get("block_total", 1)) == 1 and \
                int(config.get("thread_total", 1)) == 1 and \
                not config.get("block_factors") and \
                not config.get("thread_factors"):
            baseline_index = info.index
            break
    if baseline_index is None:
        return envs
    cache = {}
    kept = []
    for env in envs:
        try:
            seconds = _time_region(alt, baseline_index, arch, env,
                                   cache)
        except InvalidLaunch:
            continue
        if seconds >= MIN_KERNEL_SECONDS:
            kept.append(env)
    return kept or envs


def _launch_groups(bench) -> Dict[Tuple[str, Tuple[int, ...]],
                                  List[Tuple[int, ...]]]:
    groups: Dict[Tuple[str, Tuple[int, ...]], List[Tuple[int, ...]]] = {}
    for kernel, grid, block in bench.iter_launches(bench.model_size):
        groups.setdefault((kernel, tuple(block)), []).append(tuple(grid))
    return groups


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


def fig13_data(arch: GPUArchitecture = A100,
               benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None,
               include_hecbench: bool = False,
               engine: Optional[TuningEngine] = None) -> List[KernelSweep]:
    """Per-kernel sweeps across the suite (the Fig. 13 scatter).

    ``include_hecbench`` adds the HeCBench-style extras, mirroring the
    paper's wider 181-kernel population. ``engine``, when given, times
    the sweeps' stages.
    """
    population = fig13_population(benchmarks, include_hecbench)
    sweeps: List[KernelSweep] = []
    for name in sorted(population):
        bench = population[name]
        for (kernel, block), grids in _launch_groups(bench).items():
            sweep = sweep_kernel_configs(bench.source, kernel, block,
                                         grids, arch, configs, name,
                                         engine=engine)
            baseline = sweep.baseline()
            if baseline is None or baseline.seconds < MIN_KERNEL_SECONDS:
                continue  # §VII-A cutoff
            sweeps.append(sweep)
    return sweeps


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

    baseline = next((r.seconds for r in sweep.results
                     if r.valid and x_factors(r) == (1, 1)), None)
    return {x_factors(r): baseline / r.seconds
            if r.valid and baseline else None for r in sweep.results}


#: the three (block, thread) factor points Table II profiles
TABLE2_CONFIGS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("(1, 1)", {}),
    ("(4, 1)", {"block_total": 4}),
    ("(1, 4)", {"thread_total": 4}),
)


def table2_profile_row(config: Dict[str, int],
                       arch: GPUArchitecture = A100,
                       size: int = 64) -> Dict[str, object]:
    """One Table II row: lud profiling counters at one coarsening config.

    Counters come from trace-driven functional execution (real addresses
    through the cache model); runtimes from the analytical model at
    ``model_size``. Each row is independent, which is what lets the
    sharded sweep run them as separate jobs.
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


def table2_profile(arch: GPUArchitecture = A100, size: int = 64
                   ) -> Dict[str, Dict[str, object]]:
    """lud profiling counters at (1,1), (4,1), (1,4) — Table II."""
    rows: Dict[str, Dict[str, object]] = {}
    for label, config in TABLE2_CONFIGS:
        rows[label] = table2_profile_row(config, arch, size)
    return rows


def fig16_data(archs: Optional[Sequence[GPUArchitecture]] = None,
               tiers: Sequence[str] = ("clang", "polygeist-noopt",
                                       "polygeist"),
               benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None
               ) -> Dict[str, Dict[Tuple[str, str], float]]:
    """Composite times per benchmark × (arch, tier) — Fig. 16."""
    from .base import simulate_composite
    archs = list(archs) if archs is not None else [A4000, A100, RX6800,
                                                   MI210]
    data: Dict[str, Dict[Tuple[str, str], float]] = {}
    for name in sorted(benchmarks or BENCHMARKS):
        data[name] = {}
        for arch in archs:
            for tier in tiers:
                seconds = simulate_composite(name, arch, tier=tier,
                                             autotune_configs=configs)
                data[name][(arch.name, tier)] = seconds
    return data


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


def fig17_data(benchmarks: Optional[Sequence[str]] = None,
               configs: Optional[Sequence[Dict]] = None
               ) -> Dict[str, Dict[str, float]]:
    """A4000 (clang), A4000 (Polygeist-GPU), RX6800 (Polygeist-GPU)."""
    from .base import simulate_composite
    data: Dict[str, Dict[str, float]] = {}
    for name in sorted(benchmarks or BENCHMARKS):
        data[name] = {
            "A4000 (clang)": simulate_composite(name, A4000, tier="clang"),
            "A4000 (Polygeist-GPU)": simulate_composite(
                name, A4000, tier="polygeist", autotune_configs=configs),
            "RX6800 (Polygeist-GPU)": simulate_composite(
                name, RX6800, tier="polygeist", autotune_configs=configs),
            # untuned AMD run: isolates the hardware ratio (fp64 throughput,
            # LDS offload) from per-platform tuning differences
            "RX6800 (clang)": simulate_composite(name, RX6800,
                                                 tier="clang"),
        }
    return data


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
