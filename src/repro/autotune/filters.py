"""Alternative pruning filters (§VI).

Mirrors the paper's progressive filtering of alternative code paths:

1. **Early pruning for shared memory usage** — static shared allocation per
   block is known from the coarsening plan, before any clone is built;
   alternatives exceeding the target's per-block shared memory are never
   materialized.
2. **Register/spill pruning** — after "backend compilation" (our register
   estimator), alternatives that start spilling are discarded, since GPU
   spills go to local memory orders of magnitude slower than registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ContextManager, List, Sequence, Tuple

from ..dialects import polygeist
from ..ir import Operation
from ..obs import decisions as obs_decisions
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..targets import (GPUArchitecture, estimate_registers,
                       linearize_thread_body)
from ..transforms.alternatives import prune_alternatives
from ..transforms.coarsen import block_parallels_in_region, thread_parallel


@dataclass
class FilterReport:
    """What the pruning stages did.

    ``survivors`` are indices into the alternative list *as seen by the
    stage that produced the report*; the merged report from
    :func:`run_planned_filters` remaps them to indices into the original
    planned list (with ``survivor_descs`` carrying the matching
    descriptions), so it stays meaningful after in-place pruning.
    """

    survivors: List[int] = field(default_factory=list)
    survivor_descs: List[str] = field(default_factory=list)
    dropped_shared: List[str] = field(default_factory=list)
    dropped_spills: List[str] = field(default_factory=list)


def _region_max_registers(alt: Operation, index: int,
                          arch: GPUArchitecture) -> int:
    spilled = 0
    for loop in block_parallels_in_region(alt.region(index)):
        estimate = estimate_registers(
            linearize_thread_body(thread_parallel(loop)), arch)
        spilled = max(spilled, estimate.spilled_registers)
    return spilled


def prune_by_registers(alt: Operation,
                       arch: GPUArchitecture) -> FilterReport:
    """Stage 3: drop alternatives whose backend compilation spills."""
    report = FilterReport()
    descs = polygeist.alternative_descs(alt)
    with obs_tracer.span("filters.registers", category="filters",
                         alternatives=len(alt.regions)) as span:
        spills = [_region_max_registers(alt, i, arch)
                  for i in range(len(alt.regions))]
        for index, spilled in enumerate(spills):
            if spilled == 0:
                report.survivors.append(index)
                report.survivor_descs.append(descs[index])
            else:
                report.dropped_spills.append(
                    "%s (%d spilled registers)" % (descs[index], spilled))
        if not report.survivors:
            # everything spills: keep the least-bad one
            best = min(range(len(spills)), key=lambda i: spills[i])
            report.survivors = [best]
            report.survivor_descs = [descs[best]]
            report.dropped_spills = [d for i, d in enumerate(
                report.dropped_spills) if i != best]
        span.set(survivors=len(report.survivors),
                 dropped=len(alt.regions) - len(report.survivors))
    decision = obs_decisions.active_decision()
    if decision is not None:
        survivor_set = set(report.survivors)
        for index, spilled in enumerate(spills):
            if spilled > 0 and index not in survivor_set:
                decision.eliminate(
                    descs[index], obs_decisions.REGISTERS,
                    "%d register(s) spill to local memory" % spilled)
    obs_metrics.inc("filters.dropped_spills",
                    len(alt.regions) - len(report.survivors))
    if len(report.survivors) < len(alt.regions):
        prune_alternatives(alt, report.survivors)
    return report


def prune_planned_by_shared_memory(plans: Sequence,
                                   arch: GPUArchitecture) -> FilterReport:
    """Stage 1 on *planned* alternatives: score from coarsening metadata.

    ``plans`` are :class:`~repro.transforms.alternatives.AlternativeInfo`
    entries whose ``shared_bytes`` predicts the post-coarsening footprint
    (block copies replicate every shared alloca, thread copies the ones
    inside the thread loop) — the largest static shared footprint of any
    block loop in the cleaned, materialized clone, known before any clone
    exists. Nothing is pruned in place because nothing is materialized
    yet.
    """
    report = FilterReport()
    decision = obs_decisions.active_decision()
    with obs_tracer.span("filters.shared_memory", category="filters",
                         alternatives=len(plans)) as span:
        for index, info in enumerate(plans):
            usage = info.shared_bytes
            if usage > arch.shared_mem_per_block:
                report.dropped_shared.append(
                    "%s (%d B > %d B)" % (info.desc, usage,
                                          arch.shared_mem_per_block))
                if decision is not None:
                    decision.eliminate(
                        info.desc, obs_decisions.SHARED_MEMORY,
                        "%d B static shared memory exceeds the %d B "
                        "per-block limit" % (usage,
                                             arch.shared_mem_per_block))
            else:
                report.survivors.append(index)
                report.survivor_descs.append(info.desc)
        span.set(survivors=len(report.survivors),
                 dropped=len(report.dropped_shared))
    obs_metrics.inc("filters.dropped_shared", len(report.dropped_shared))
    return report


def run_planned_filters(plans: Sequence, arch: GPUArchitecture,
                        materialize: Callable[[List[int]], Operation],
                        stage: Callable[[str], ContextManager]
                        ) -> Tuple[FilterReport, Operation]:
    """Run all static pruning stages over planned alternatives.

    Runs the shared-memory stage on plan metadata, calls
    ``materialize(survivor_indices)`` to build (and clean) IR for just the
    survivors, then runs the register stage on the materialized op, which
    it prunes in place. Returns ``(merged report, alternatives op)``; the
    merged report composes the two stages' index mappings, so its
    ``survivors`` (and ``survivor_descs``) index the original planned
    list. ``stage`` (a :meth:`~repro.engine.TuningEngine.stage`) times
    the filter evaluations; materialization does its own accounting
    inside the callback.
    """
    total = len(plans)
    with obs_tracer.span("filters", category="filters",
                         alternatives=total) as span:
        with stage("filters"):
            shared_report = prune_planned_by_shared_memory(plans, arch)
        # if every plan busts the shared-memory limit, keep them all and
        # let the register stage's least-bad fallback pick
        if shared_report.survivors and \
                len(shared_report.survivors) < total:
            base = shared_report.survivors
        else:
            base = list(range(total))
        alt = materialize(base)
        with stage("filters"):
            register_report = prune_by_registers(alt, arch)
        merged = FilterReport(
            survivors=[base[i] for i in register_report.survivors])
        merged.survivor_descs = [plans[i].desc for i in merged.survivors]
        merged.dropped_shared = shared_report.dropped_shared
        merged.dropped_spills = register_report.dropped_spills
        span.set(survivors=len(merged.survivors))
    obs_metrics.inc("filters.runs")
    obs_metrics.inc("filters.survivors", len(merged.survivors))
    return merged, alt
