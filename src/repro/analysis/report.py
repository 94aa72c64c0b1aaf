"""Bottleneck attribution reports: from raw observability streams to answers.

``analyze_benchmark`` runs one tuned/simulated composite (the same flow as
:func:`repro.benchsuite.base.simulate_composite`) with the full
observability stack installed — span tracer, metrics registry, TDO
decision log — and synthesizes everything the run produced into one
:class:`KernelReport` per kernel:

* **roofline position**: arithmetic intensity (FLOPs / DRAM bytes) against
  the architecture's ridge point, achieved GFLOP/s as a fraction of peak
  compute, achieved GB/s as a fraction of peak DRAM bandwidth;
* **a named bottleneck verdict** — ``memory-bound`` / ``occupancy-capped``
  / ``divergence`` / ``latency`` / ``compute-bound`` — with the supporting
  numbers (pipeline time split, occupancy and its limiter, coalescing
  efficiency, divergent branch count);
* **a "why the winner won" narrative** from the decision log: which stages
  eliminated the losers, the margin over the runner-up and the uncoarsened
  baseline, and what the winning config traded (occupancy for
  memory-level parallelism).

The tuning run uses a fresh, memory-only engine: a warm on-disk cache
would replay the winner without populating the decision log, and the
report's whole point is the decision evidence.

``repro analyze <bench> --arch …`` fronts this module; ``docs/ANALYZE.md``
documents the schema and methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: bumped when the JSON layout of a report changes shape
REPORT_SCHEMA = 1

#: occupancy below this fraction is "low" for bottleneck attribution
LOW_OCCUPANCY = 0.5


@dataclass
class Roofline:
    """Where one kernel sits against the architecture's roofline."""

    flops: float                    #: total modeled FLOPs over all launches
    dram_bytes: float               #: total DRAM traffic (reads + writes)
    arithmetic_intensity: float     #: FLOP per DRAM byte
    ridge_intensity: float          #: peak_flops / peak_bandwidth
    dtype: str                      #: "f32" or "f64" (dominant flop type)
    achieved_gflops: float
    peak_gflops: float
    pct_peak_flops: float           #: achieved/peak compute, in [0, 1]
    achieved_bandwidth_gbs: float
    peak_bandwidth_gbs: float
    pct_peak_bandwidth: float       #: achieved/peak bandwidth, in [0, 1]

    def as_dict(self) -> Dict[str, object]:
        return {
            "flops": self.flops,
            "dram_bytes": self.dram_bytes,
            "arithmetic_intensity": self.arithmetic_intensity,
            "ridge_intensity": self.ridge_intensity,
            "dtype": self.dtype,
            "achieved_gflops": self.achieved_gflops,
            "peak_gflops": self.peak_gflops,
            "pct_peak_flops": self.pct_peak_flops,
            "achieved_bandwidth_gbs": self.achieved_bandwidth_gbs,
            "peak_bandwidth_gbs": self.peak_bandwidth_gbs,
            "pct_peak_bandwidth": self.pct_peak_bandwidth,
        }


@dataclass
class Bottleneck:
    """The named verdict plus the numbers that support it."""

    verdict: str                    #: one of VERDICTS
    evidence: Dict[str, object] = field(default_factory=dict)
    narrative: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"verdict": self.verdict, "evidence": dict(self.evidence),
                "narrative": self.narrative}


VERDICTS = ("memory-bound", "occupancy-capped", "divergence", "latency",
            "compute-bound")


@dataclass
class KernelReport:
    """Everything the analysis concluded about one kernel × block shape."""

    benchmark: str
    kernel: str
    arch: str
    tier: str
    block: Tuple[int, ...]
    launches: int
    num_blocks: int
    modeled_seconds: float
    #: the uncoarsened (polygeist-noopt) modeled seconds over the same
    #: launches, and the resulting winner speedup; None when the baseline
    #: itself cannot launch (``baseline_note`` then says why)
    baseline_seconds: Optional[float]
    speedup_vs_baseline: Optional[float]
    breakdown: Dict[str, float]
    occupancy: Dict[str, object]
    metrics: Dict[str, float]
    coalescing: Dict[str, float]
    roofline: Roofline
    bottleneck: Bottleneck
    decisions: Dict[str, object]
    #: why the baseline could not be modeled, when it could not
    baseline_note: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "kernel": self.kernel,
            "arch": self.arch,
            "tier": self.tier,
            "block": list(self.block),
            "launches": self.launches,
            "num_blocks": self.num_blocks,
            "modeled_seconds": self.modeled_seconds,
            "baseline_seconds": self.baseline_seconds,
            "speedup_vs_baseline": self.speedup_vs_baseline,
            "baseline_note": self.baseline_note,
            "breakdown": dict(self.breakdown),
            "occupancy": dict(self.occupancy),
            "metrics": dict(self.metrics),
            "coalescing": dict(self.coalescing),
            "roofline": self.roofline.as_dict(),
            "bottleneck": self.bottleneck.as_dict(),
            "decisions": dict(self.decisions),
        }

    def to_markdown(self) -> str:
        lines = ["## %s · %s on %s (block %s)" % (
            self.benchmark, self.kernel, self.arch,
            "x".join(str(d) for d in self.block))]
        lines.append("")
        lines.append("**Verdict: %s** — %s" % (self.bottleneck.verdict,
                                               self.bottleneck.narrative))
        lines.append("")
        roof = self.roofline
        lines.append("- modeled time: %.3es over %d launch(es), "
                     "%d blocks total" % (self.modeled_seconds,
                                          self.launches, self.num_blocks))
        if self.speedup_vs_baseline is not None:
            lines.append("- %.2fx over the uncoarsened baseline (%.3es)"
                         % (self.speedup_vs_baseline,
                            self.baseline_seconds))
        if self.baseline_note is not None:
            lines.append("- uncoarsened baseline not modeled: %s"
                         % self.baseline_note)
        lines.append("- roofline: %.2f flop/B arithmetic intensity "
                     "(ridge %.1f, %s) — %.1f%% of peak bandwidth "
                     "(%.0f / %.0f GB/s), %.1f%% of peak compute "
                     "(%.1f / %.0f GFLOP/s)" % (
                         roof.arithmetic_intensity, roof.ridge_intensity,
                         roof.dtype,
                         100.0 * roof.pct_peak_bandwidth,
                         roof.achieved_bandwidth_gbs,
                         roof.peak_bandwidth_gbs,
                         100.0 * roof.pct_peak_flops,
                         roof.achieved_gflops, roof.peak_gflops))
        occ = self.occupancy
        lines.append("- occupancy: %.0f%% (limiter: %s, %d regs/thread, "
                     "%d B shared/block, %d threads/block)" % (
                         100.0 * occ.get("occupancy", 0.0),
                         occ.get("limiter", "?"),
                         occ.get("registers_per_thread", 0),
                         occ.get("shared_bytes_per_block", 0),
                         occ.get("threads_per_block", 0)))
        total_work = sum(self.breakdown.get(k, 0.0)
                         for k in ("compute", "memory", "shared")) or 1.0
        lines.append("- pipeline split: " + ", ".join(
            "%s %.0f%%" % (name, 100.0 * self.breakdown.get(name, 0.0) /
                           total_work)
            for name in ("memory", "compute", "shared")) +
            " (latency floor %.3es)" % self.breakdown.get("latency", 0.0))
        if self.coalescing:
            lines.append("- coalescing: %.0f%% average efficiency over %d "
                         "access site(s), worst %.0f%%" % (
                             100.0 * self.coalescing.get("mean_efficiency",
                                                         1.0),
                             self.coalescing.get("access_sites", 0),
                             100.0 * self.coalescing.get("worst_efficiency",
                                                         1.0)))
        decisions = self.decisions
        if decisions.get("narrative"):
            lines.append("")
            lines.append("**Why the winner won:** %s"
                         % decisions["narrative"])
        return "\n".join(lines)


@dataclass
class BenchmarkAnalysis:
    """One analyzed run: per-kernel reports plus run-level context."""

    benchmark: str
    arch: str
    tier: str
    size: int
    composite_seconds: float
    pcie_seconds: float
    kernels: List[KernelReport]
    #: per-engine-stage wall seconds of the observed run
    stages: Dict[str, float] = field(default_factory=dict)
    #: hottest span names by self seconds: [(name, calls, self_seconds)]
    spans: List[Tuple[str, int, float]] = field(default_factory=list)
    provenance: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": REPORT_SCHEMA,
            "benchmark": self.benchmark,
            "arch": self.arch,
            "tier": self.tier,
            "size": self.size,
            "composite_seconds": self.composite_seconds,
            "pcie_seconds": self.pcie_seconds,
            "kernels": [k.as_dict() for k in self.kernels],
            "stages": dict(self.stages),
            "spans": [{"name": name, "calls": calls,
                       "self_seconds": self_seconds}
                      for name, calls, self_seconds in self.spans],
            "provenance": dict(self.provenance),
        }

    def to_markdown(self) -> str:
        lines = ["# Analysis: %s on %s (tier %s, size %d)" %
                 (self.benchmark, self.arch, self.tier, self.size)]
        lines.append("")
        lines.append("Composite modeled time %.3es (PCIe %.3es, "
                     "%d kernel(s))." % (self.composite_seconds,
                                         self.pcie_seconds,
                                         len(self.kernels)))
        for report in self.kernels:
            lines.append("")
            lines.append(report.to_markdown())
        if self.stages:
            lines.append("")
            lines.append("## Pipeline stages (wall seconds)")
            lines.append("")
            for name, seconds in sorted(self.stages.items(),
                                        key=lambda kv: -kv[1]):
                lines.append("- %s: %.3fs" % (name, seconds))
        if self.spans:
            lines.append("")
            lines.append("## Hottest spans (self seconds)")
            lines.append("")
            for name, calls, self_seconds in self.spans:
                lines.append("- %s: %d call(s), %.6fs" %
                             (name, calls, self_seconds))
        return "\n".join(lines)


# -- classification -----------------------------------------------------------


def classify_bottleneck(breakdown: Dict[str, float],
                        occupancy: Dict[str, object],
                        roofline: Roofline,
                        divergent_branches: int) -> Bottleneck:
    """Name the limiting resource from the summed pipeline breakdown.

    Mirrors the structure of the timing formula's terms
    (:meth:`repro.simulator.batch.BatchedKernelModel.times`): the
    dominant work term (compute/memory/shared) sets the pace unless the
    per-block dependence chain (latency floor) exceeds it, in which case
    the kernel is starved of parallelism — occupancy-capped when the
    occupancy calculator names a binding resource limiter, raw latency
    otherwise.
    """
    compute = breakdown.get("compute", 0.0)
    memory = breakdown.get("memory", 0.0)
    shared = breakdown.get("shared", 0.0)
    latency = breakdown.get("latency", 0.0)
    occ = float(occupancy.get("occupancy", 0.0))
    limiter = str(occupancy.get("limiter", "none"))
    evidence: Dict[str, object] = {
        "compute_seconds": compute,
        "memory_seconds": memory,
        "shared_seconds": shared,
        "latency_floor_seconds": latency,
        "occupancy": occ,
        "occupancy_limiter": limiter,
        "divergent_branches": divergent_branches,
        "pct_peak_bandwidth": roofline.pct_peak_bandwidth,
        "arithmetic_intensity": roofline.arithmetic_intensity,
    }
    work = {"compute": compute, "memory": memory, "shared": shared}
    dominant = max(work, key=work.get)
    if latency > work[dominant]:
        if occ < LOW_OCCUPANCY and limiter not in ("", "none"):
            return Bottleneck(
                "occupancy-capped", evidence,
                "the latency floor (%.3es) exceeds every pipeline's work "
                "and occupancy is %.0f%% (limited by %s): too few resident "
                "warps to hide memory latency" % (latency, 100.0 * occ,
                                                  limiter))
        return Bottleneck(
            "latency", evidence,
            "the per-block dependence chain (%.3es) dominates all pipeline "
            "work at %.0f%% occupancy: the kernel is latency-bound, not "
            "throughput-bound" % (latency, 100.0 * occ))
    if dominant in ("memory", "shared"):
        via = "DRAM traffic" if dominant == "memory" \
            else "shared-memory throughput"
        return Bottleneck(
            "memory-bound", evidence,
            "%s dominates (%.3es vs %.3es compute) at %.0f%% of peak DRAM "
            "bandwidth with arithmetic intensity %.2f flop/B (ridge %.1f)"
            % (via, work[dominant], compute,
               100.0 * roofline.pct_peak_bandwidth,
               roofline.arithmetic_intensity, roofline.ridge_intensity))
    # compute-dominant cases
    divergence_penalty = 0.35 * min(divergent_branches, 4)
    if divergent_branches and divergence_penalty / \
            (1.0 + divergence_penalty) >= 0.25:
        return Bottleneck(
            "divergence", evidence,
            "compute dominates (%.3es) and %d divergent branch(es) "
            "inflate it by %.0f%%: threads in a warp serialize on "
            "data-dependent control flow" % (compute, divergent_branches,
                                             100.0 * divergence_penalty))
    if occ < LOW_OCCUPANCY and limiter not in ("", "none"):
        return Bottleneck(
            "occupancy-capped", evidence,
            "compute dominates (%.3es) but occupancy is only %.0f%% "
            "(limited by %s), so arithmetic latency is poorly hidden"
            % (compute, 100.0 * occ, limiter))
    return Bottleneck(
        "compute-bound", evidence,
        "compute dominates (%.3es vs %.3es memory) at %.1f%% of peak "
        "%s throughput" % (compute, memory,
                           100.0 * roofline.pct_peak_flops,
                           roofline.dtype))


# -- decision narrative -------------------------------------------------------


def _decision_summary(decision, winner_occupancy: Dict[str, object],
                      baseline_occupancy: Optional[Dict[str, object]],
                      coarsen_total: int) -> Dict[str, object]:
    """Condense one TuneDecision into counts, margins, and a narrative."""
    from ..obs.decisions import STAGES
    from ..transforms.coarsen import is_uncoarsened

    alternatives = decision.alternatives
    eliminated: Dict[str, int] = {}
    for alt in alternatives:
        if alt.eliminated_by:
            eliminated[alt.eliminated_by] = \
                eliminated.get(alt.eliminated_by, 0) + 1
    winner = decision.winner
    timed_losers = [alt for alt in alternatives
                    if alt.time_seconds is not None and not alt.selected]
    runner_up = min(timed_losers, key=lambda alt: alt.time_seconds) \
        if timed_losers else None
    baseline = next((alt for alt in alternatives if alt.config is not None
                     and is_uncoarsened(alt.config)), None)

    parts: List[str] = []
    stage_bits = ", ".join("%d by %s" % (eliminated[s], s)
                           for s in STAGES if s in eliminated)
    parts.append("TDO considered %d alternative(s)%s" % (
        len(alternatives),
        " (%s eliminated)" % stage_bits if stage_bits else ""))
    if winner is not None:
        won = "%s won" % winner.desc
        if winner.time_seconds is not None:
            won += " at %.3es modeled" % winner.time_seconds
        extras = []
        if baseline is not None and baseline.time_seconds and \
                winner.time_seconds and baseline is not winner:
            extras.append("%.2fx over the uncoarsened baseline (%.3es)"
                          % (baseline.time_seconds / winner.time_seconds,
                             baseline.time_seconds))
        if runner_up is not None and winner.time_seconds:
            margin = runner_up.time_seconds / winner.time_seconds - 1.0
            extras.append("%.0f%% ahead of the runner-up (%s)"
                          % (100.0 * margin, runner_up.desc))
        if extras:
            won += " — " + " and ".join(extras)
        parts.append(won)
        if coarsen_total > 1:
            trade = "the winning config coarsens %dx, trading occupancy " \
                % coarsen_total
            if baseline_occupancy is not None:
                trade += "(%.0f%% → %.0f%%, limiter %s) " % (
                    100.0 * baseline_occupancy.get("occupancy", 0.0),
                    100.0 * winner_occupancy.get("occupancy", 0.0),
                    winner_occupancy.get("limiter", "?"))
            else:
                trade += "(now %.0f%%, limiter %s) " % (
                    100.0 * winner_occupancy.get("occupancy", 0.0),
                    winner_occupancy.get("limiter", "?"))
            trade += "for %dx the outstanding loads per thread " \
                     "(memory-level parallelism)" % coarsen_total
            parts.append(trade)
        elif winner is not None and coarsen_total == 1:
            parts.append("the uncoarsened configuration was already "
                         "fastest: extra per-thread work would not repay "
                         "its occupancy cost here")
    return {
        "wrapper": decision.wrapper,
        "alternatives": len(alternatives),
        "eliminated": eliminated,
        "winner": winner.desc if winner is not None else None,
        "winner_seconds": winner.time_seconds if winner is not None
        else None,
        "runner_up": runner_up.desc if runner_up is not None else None,
        "runner_up_seconds": runner_up.time_seconds
        if runner_up is not None else None,
        "baseline_desc_seconds": baseline.time_seconds
        if baseline is not None else None,
        "notes": list(decision.notes),
        "narrative": "; ".join(parts) + ".",
    }


# -- the analysis driver ------------------------------------------------------


def _occupancy_dict(model) -> Dict[str, object]:
    occ = model.occupancy
    return {
        "occupancy": occ.occupancy,
        "blocks_per_sm": occ.blocks_per_sm,
        "active_threads": occ.active_threads,
        "limiter": occ.limiter,
        "registers_per_thread": model.registers.registers_per_thread,
        "shared_bytes_per_block": model.shared_per_block,
        "threads_per_block": model.threads_per_block,
    }


def _coalescing_dict(models) -> Dict[str, float]:
    accesses = [access for model in models for access in model.accesses]
    if not accesses:
        return {}
    weights = [max(access.executions, 1e-12) for access in accesses]
    mean = sum(access.efficiency * weight
               for access, weight in zip(accesses, weights)) / sum(weights)
    return {
        "access_sites": len(accesses),
        "mean_efficiency": mean,
        "worst_efficiency": min(access.efficiency for access in accesses),
    }


def _group_models(program, wrapper_name: str):
    """The per-loop KernelModels of a tuned wrapper, the ones the
    program's own modeling path used."""
    from ..dialects import polygeist
    from ..transforms.coarsen import block_parallels

    f = program.module.func(wrapper_name)
    wrappers = polygeist.find_gpu_wrappers(f)
    if not wrappers:
        return f, []
    return f, [(loop, program.loop_model(loop))
               for loop in block_parallels(wrappers[0])]


def _roofline(arch, flops32: float, flops64: float, dram_bytes: float,
              seconds: float) -> Roofline:
    dtype = "f64" if flops64 > flops32 else "f32"
    flops = flops32 + flops64
    peak_flops = arch.peak_flops(dtype)
    peak_bw = arch.peak_bandwidth_bytes()
    achieved_flops = flops / seconds if seconds > 0 else 0.0
    achieved_bw = dram_bytes / seconds if seconds > 0 else 0.0
    return Roofline(
        flops=flops,
        dram_bytes=dram_bytes,
        arithmetic_intensity=flops / dram_bytes if dram_bytes else 0.0,
        ridge_intensity=arch.ridge_intensity(dtype),
        dtype=dtype,
        achieved_gflops=achieved_flops / 1e9,
        peak_gflops=peak_flops / 1e9,
        pct_peak_flops=achieved_flops / peak_flops if peak_flops else 0.0,
        achieved_bandwidth_gbs=achieved_bw / 1e9,
        peak_bandwidth_gbs=peak_bw / 1e9,
        pct_peak_bandwidth=achieved_bw / peak_bw if peak_bw else 0.0,
    )


def analyze_benchmark(name: str, arch, tier: str = "polygeist",
                      size: Optional[int] = None,
                      configs: Optional[Sequence[Dict]] = None
                      ) -> BenchmarkAnalysis:
    """Tune + model one benchmark with full observability and report.

    ``arch`` may be a :class:`~repro.targets.GPUArchitecture` or a name.
    The run mirrors ``simulate_composite`` (tune over all launches of each
    kernel group, then model each launch), but keeps every intermediate
    the report needs: the tuned IR's :class:`KernelModel`s, the merged
    Table-II metrics, the decision log, and the span trace.
    """
    import platform

    from .. import __version__
    from ..benchsuite.base import get_benchmark, group_launches
    from ..engine import TuningCache, TuningEngine
    from ..obs import decisions as obs_decisions
    from ..obs import tracer as obs_tracer
    from ..obs.export import _aggregate
    from ..pipeline import Program
    from ..runtime.gpu_runtime import PCIE_BANDWIDTH, PCIE_LATENCY
    from ..simulator.batch import merge_timings
    from ..simulator.model import InvalidLaunch, LaunchEnvs, block_counts
    from ..targets import arch_by_name

    if isinstance(arch, str):
        arch = arch_by_name(arch)
    bench = get_benchmark(name)
    size = size or bench.model_size
    # memory-only engine: an on-disk cache hit would replay the winner
    # without running TDO, leaving the decision log (the report's core
    # evidence) empty
    engine = TuningEngine(cache=TuningCache(None))
    log = obs_decisions.DecisionLog()
    tracer = obs_tracer.Tracer()
    groups = group_launches(bench.iter_launches(size))

    with obs_tracer.tracing(tracer), obs_decisions.logging_decisions(log):
        program = Program(bench.source, arch=arch, tier=tier,
                          autotune_configs=configs, engine=engine)
        if tier == "polygeist":
            for (kernel, block), table in groups.tables.items():
                program.tune_aggregate(kernel, block, table)
        # groups come in first-launch order, so wrappers are first used
        # in the order the launches would use them
        per_group: Dict[Tuple[str, Tuple[int, ...]], List] = {
            group: program.model_launches(*group, table)
            for group, table in groups.tables.items()}
        composite = groups.total([[timing.time_seconds for timing in timings]
                                  for timings in per_group.values()])

    # the uncoarsened reference: same launches through the noopt tier
    baseline_program = None
    if tier == "polygeist":
        baseline_program = Program(bench.source, arch=arch,
                                   tier="polygeist-noopt", engine=engine)

    reports: List[KernelReport] = []
    for (kernel, block), table in groups.tables.items():
        total = merge_timings(per_group[(kernel, block)])
        seconds, metrics = total.time_seconds, total.metrics

        launches, rank = table.shape
        wrapper_name = program.generator.get_launch_wrapper(
            kernel, rank, block)
        f, loop_models = _group_models(program, wrapper_name)
        envs = LaunchEnvs(f.body_block().args[:rank], table)

        flops32 = flops64 = 0.0
        divergent = 0
        coarsen_total = 1
        primary_model = None
        for loop, model in loop_models:
            if primary_model is None:
                primary_model = model
            divergent = max(divergent, model.divergent_branches)
            coarsen_total = max(coarsen_total, model.coarsen_total)
            for blocks in block_counts(loop, envs).tolist():
                if blocks > 0:
                    work = model.threads_per_block * blocks
                    flops32 += model.stats.flops_f32 * work
                    flops64 += model.stats.flops_f64 * work

        roofline = _roofline(arch, flops32, flops64, metrics.dram_bytes,
                             seconds)
        occupancy = _occupancy_dict(primary_model) \
            if primary_model is not None else {}
        bottleneck = classify_bottleneck(total.breakdown, occupancy, roofline,
                                         divergent)

        baseline_seconds = None
        baseline_note = None
        speedup = None
        if baseline_program is not None:
            try:
                baseline_seconds = sum(
                    baseline_program.model_launch_seconds(kernel, block,
                                                          table))
                if seconds > 0:
                    speedup = baseline_seconds / seconds
            except InvalidLaunch as error:
                baseline_seconds = None
                baseline_note = str(error)

        decision = next((d for d in log.decisions
                         if d.wrapper == wrapper_name), None)
        baseline_occ = None
        if baseline_program is not None and decision is not None:
            bf, bmodels = _group_models(baseline_program, wrapper_name)
            if bmodels:
                baseline_occ = _occupancy_dict(bmodels[0][1])
        decisions = _decision_summary(decision, occupancy, baseline_occ,
                                      coarsen_total) \
            if decision is not None else {}

        reports.append(KernelReport(
            benchmark=name, kernel=kernel, arch=arch.name, tier=tier,
            block=block, launches=launches,
            num_blocks=metrics.num_blocks,
            modeled_seconds=seconds,
            baseline_seconds=baseline_seconds,
            speedup_vs_baseline=speedup,
            baseline_note=baseline_note,
            breakdown=total.breakdown,
            occupancy=occupancy,
            metrics=metrics.as_dict(),
            coalescing=_coalescing_dict([m for _, m in loop_models]),
            roofline=roofline,
            bottleneck=bottleneck,
            decisions=decisions,
        ))

    pcie = 2 * PCIE_LATENCY + bench.transfer_bytes(size) / PCIE_BANDWIDTH
    aggregated = _aggregate((span.name, span.duration, span.self_seconds)
                            for span in tracer.finished())
    aggregated.sort(key=lambda row: row[3], reverse=True)
    return BenchmarkAnalysis(
        benchmark=name, arch=arch.name, tier=tier, size=size,
        composite_seconds=composite + pcie, pcie_seconds=pcie,
        kernels=reports,
        stages=engine.stage_seconds(),
        spans=[(row[0], row[1], row[3]) for row in aggregated[:5]],
        provenance={
            "schema": REPORT_SCHEMA,
            "repro_version": __version__,
            "arch": arch.name,
            "python": platform.python_version(),
            "created": None,
        },
    )
