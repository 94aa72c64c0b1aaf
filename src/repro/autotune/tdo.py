"""Timing-driven optimization (§VI "Timing-Driven Optimization or
Auto-Tuning").

In the paper, surviving alternatives ship in the binary with dispatch logic;
a profiling mode times each one on real data and a final compilation removes
all but the winner. Here the "timing runs" are simulator evaluations: each
surviving alternative is modeled (or functionally trace-timed) for the
actual launch geometry, and the fastest is selected into place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dialects import polygeist
from ..engine import stage_timer
from ..ir import (Operation, Value, collector_paused, swap_regions,
                  unlink_subtree)
from ..obs import decisions as obs_decisions
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.log import get_logger
from ..simulator.model import InvalidLaunch
from ..targets import GPUArchitecture, linearized_cache
from ..transforms.alternatives import select_alternative
from ..transforms.coarsen import block_parallels_in_region
from .filters import FilterReport, run_planned_filters

logger = get_logger("autotune.tdo")

#: InvalidLaunch reason of an alternative whose grid size cannot be evaluated
_UNEVALUABLE = "grid size not evaluable"


@dataclass
class Candidate:
    index: int
    desc: str
    time_seconds: float
    valid: bool
    reason: str = ""


@dataclass
class TuneOutcome:
    """Everything TDO decided for one kernel wrapper."""

    selected_desc: str
    selected_time: float
    candidates: List[Candidate] = field(default_factory=list)
    filters: Optional[FilterReport] = None
    #: region index of the winner (into the post-filter alternative op)
    selected_index: int = -1
    #: coarsening kwargs of the winner, for cache replay
    selected_config: Optional[Dict[str, object]] = None
    #: differential-validation report, when the gate ran
    validation: Optional[object] = None

    def speedup_over(self, baseline_desc: str) -> float:
        """Speedup of the selection relative to ``baseline_desc``.

        Raises :class:`KeyError` when no *valid* candidate carries that
        description — a missing or invalid baseline is a broken
        comparison, not parity, and must not read as 1.0x.
        """
        for candidate in self.candidates:
            if candidate.desc == baseline_desc and candidate.valid:
                if self.selected_time <= 0.0:
                    # degenerate zero-time selection: report no speedup
                    # rather than dividing by zero
                    return float("inf") if candidate.time_seconds > 0.0 \
                        else 1.0
                return candidate.time_seconds / self.selected_time
        raise KeyError("no valid candidate named %r to compare against"
                       % baseline_desc)


def _batched_seconds(alt: Operation, arch: GPUArchitecture, envs):
    """Every alternative through one
    :class:`~repro.simulator.batch.LaunchScorer`: per-env totals, each
    alternative's first failure found in env-outer, loop-inner order,
    summed with the builtin ``sum``."""
    from ..simulator.batch import LaunchScorer
    scorer = LaunchScorer(envs, arch, {}, _UNEVALUABLE)
    for index in range(len(alt.regions)):
        scorer.add(block_parallels_in_region(alt.region(index)))
    return [result if isinstance(result, InvalidLaunch) else sum(result)
            for result in scorer.env_seconds()]


def score_alternatives(alt: Operation, arch: GPUArchitecture,
                       envs: Sequence[Dict[Value, int]]) -> List[Candidate]:
    """Every alternative's modeled seconds summed over ``envs``.

    The equivalence tests substitute a one-launch-at-a-time scalar oracle
    for :func:`_batched_seconds`; the two must give ``==`` candidates
    (time, validity and reason).
    """
    descs = polygeist.alternative_descs(alt)
    results = iter(_batched_seconds(alt, arch, envs))
    candidates = []
    for index in range(len(alt.regions)):
        # one span per simulated profiling run
        with obs_tracer.span("tdo.alternative", category="tdo",
                             desc=descs[index]) as span:
            seconds = next(results)
            if isinstance(seconds, InvalidLaunch):
                span.set(invalid=str(seconds))
                candidates.append(Candidate(index, descs[index],
                                            float("inf"), False,
                                            str(seconds)))
                continue
            span.set(seconds=seconds)
            obs_metrics.observe("tdo.alternative_seconds", seconds)
            candidates.append(Candidate(index, descs[index], seconds, True))
    return candidates


def timing_driven_optimization(alt: Operation, arch: GPUArchitecture,
                               env,
                               select: bool = True) -> TuneOutcome:
    """Model every alternative and (optionally) select the fastest.

    ``env`` may be a single launch-environment dict, a sequence of them
    or a :class:`~repro.simulator.model.LaunchEnvs` grid table: the
    paper's profiling mode times each alternative over the *whole*
    application run, so alternatives are ranked by their time summed over
    every launch geometry observed (e.g. gaussian's shrinking grids).

    Scoring is :func:`score_alternatives`: all alternatives in one
    :class:`~repro.simulator.batch.LaunchScorer` batch (each one's
    launches × loops block-count matrix, its first failure found in
    env-outer, loop-inner order, one vectorized timing pass over every
    launching entry). This is :func:`tune_wrapper`'s default ranking step.
    """
    envs = [env] if isinstance(env, dict) else env
    with obs_tracer.span("tdo", category="tdo",
                         alternatives=len(alt.regions),
                         launches=len(envs)):
        candidates = score_alternatives(alt, arch, envs)
    obs_metrics.inc("tdo.evaluations", len(candidates))
    if not any(c.valid for c in candidates):
        raise InvalidLaunch("no alternative can launch on %s" % arch.name)
    return select_fastest(alt, candidates, "modeled", select)


def select_fastest(alt: Operation, candidates: List[Candidate],
                   measure: str, select: bool = True) -> TuneOutcome:
    """Pick the fastest valid candidate, the last step of every ranking.

    Records each loser's time in the active decision log, described as
    ``measure`` ("modeled" or "profiled"), and with ``select`` splices
    the winner into place."""
    best = min((c for c in candidates if c.valid),
               key=lambda c: c.time_seconds)
    decision = obs_decisions.active_decision()
    if decision is not None:
        for candidate in candidates:
            if candidate is best:
                continue
            if not candidate.valid:
                decision.eliminate(candidate.desc, obs_decisions.TIMING,
                                   "invalid launch: %s" % candidate.reason)
            else:
                decision.set_time(candidate.desc, candidate.time_seconds)
                if best.time_seconds > 0.0:
                    margin = candidate.time_seconds / best.time_seconds
                    reason = "%.3es %s, %.2fx slower than the winner" % (
                        candidate.time_seconds, measure, margin)
                else:
                    reason = "%.3es %s, slower than the winner" % (
                        candidate.time_seconds, measure)
                decision.eliminate(candidate.desc, obs_decisions.TIMING,
                                   reason)
        decision.select(best.desc, best.time_seconds)
    logger.info("selected %s (%.3es %s) out of %d alternatives",
                best.desc, best.time_seconds, measure, len(candidates))
    if select:
        select_alternative(alt, best.index)
    return TuneOutcome(best.desc, best.time_seconds, candidates,
                       selected_index=best.index)


def _wrapper_label(wrapper: Operation) -> str:
    """The enclosing function's symbol name, for decision-log headers."""
    root = wrapper
    while root is not None and root.name != "func.func":
        root = root.parent_op
    if root is not None:
        return str(root.attr("sym_name") or "gpu_wrapper")
    return "gpu_wrapper"


def _validation_gate(alt: Operation, baseline: Operation, env, decision
                     ) -> Tuple[object, Optional[List[int]]]:
    """Run the differential gate on a (post-filter) alternatives op,
    against ``baseline``, the untransformed wrapper snapshot.

    Prunes diverging regions in place and returns ``(report, keep)`` where
    ``keep`` maps post-validation region indices back to post-filter ones
    (``None`` when nothing was pruned). Raises when every alternative is
    rejected."""
    from ..transforms.alternatives import prune_alternatives
    from ..validate import validate_alternatives

    env0 = env if isinstance(env, dict) else env[0]
    validation = validate_alternatives(baseline, alt, env0)
    if validation.baseline_note and decision is not None:
        decision.note("validation inconclusive: baseline not executable: %s"
                      % validation.baseline_note)
    rejected = 0
    for verdict in validation.verdicts:
        if verdict.passed:
            continue
        rejected += 1
        if verdict.diff is not None:
            reason = "output diverged from baseline: %s" % \
                verdict.diff.summarize().splitlines()[0]
        else:
            reason = verdict.detail or verdict.status
        if decision is not None:
            decision.eliminate(verdict.desc, obs_decisions.VALIDATION,
                               reason)
        logger.warning("validation rejected %s: %s", verdict.desc, reason)
    obs_metrics.inc("validation.alternatives", len(validation.verdicts))
    obs_metrics.inc("validation.rejected", rejected)
    keep = validation.keep_indices()
    if not keep:
        first = validation.first_divergence
        raise ValueError(
            "validation rejected every alternative: %s" %
            (first.explain() if first is not None else "no verdicts"))
    if rejected:
        prune_alternatives(alt, keep)
        return validation, keep
    return validation, None


class NoLegalConfiguration(ValueError):
    """No config could be planned for the wrapper. Raised before anything
    is materialized, so the wrapper still holds its untransformed body."""


def _count_generation(engine, report) -> None:
    engine.registry.counter("alternative_generations").inc()
    engine.registry.counter("alternatives_generated").inc(
        len(report.alternatives))


def _clean(alt: Operation, stage) -> Operation:
    from ..transforms import cleanup_regions
    with stage("cleanup"):
        # scoped to the regions: the rest of the module was pre-cleaned
        # to a fixpoint, so this equals a whole-module cleanup
        # (tests/test_scoped_cleanup.py asserts printed-IR equality
        # benchsuite-wide)
        cleanup_regions(list(alt.regions))
    return alt


def materialize_every_plan(wrapper: Operation,
                           configs: Sequence[Dict[str, object]],
                           engine=None) -> Tuple[object, Optional[Operation]]:
    """:func:`tune_wrapper`'s plan, materialize and cleanup steps over
    every legal config, with no filter: ``(plans, alternatives op)``, the
    op ``None`` when no config is legal. For the callers that need every
    region, the Fig. 13-15 sweeps and source-mode validation.

    ``engine``, when given, times the stages and counts the generation
    into its registry."""
    from ..transforms.alternatives import plan_coarsening_alternatives
    stage = stage_timer(engine)
    with stage("alternatives"):
        report = plan_coarsening_alternatives(wrapper, configs)
    if engine is not None:
        _count_generation(engine, report)
    if not report.alternatives:
        return report, None
    with stage("alternatives"):
        alt = report.materialize(range(len(report.alternatives)))
    return report, _clean(alt, stage)


def tune_wrapper(wrapper: Operation, arch: GPUArchitecture,
                 env,
                 configs: Sequence[Dict[str, object]],
                 engine,
                 rank: Optional[Callable[..., TuneOutcome]] = None
                 ) -> TuneOutcome:
    """Full §VI flow for one gpu_wrapper: alternatives → filters →
    validation → ranking.

    ``engine`` (a :class:`repro.engine.TuningEngine`) times each stage
    into its registry and supplies the validation switch; tuning
    decisions are cached at the :class:`~repro.pipeline.Program` level,
    not here.

    ``rank(alt, arch, env)`` is the last step: it picks the winner among
    the surviving regions, splices it into place and returns the
    :class:`TuneOutcome`. The default is
    :func:`timing_driven_optimization`;
    :meth:`~repro.pipeline.Program.profile_launch` executes each region
    instead (the paper's profiling mode).

    The tune commits a winner or leaves the wrapper as it was. One
    untransformed snapshot, taken just before materialization, is the
    validation gate's baseline; if a later step raises, it goes back in
    place of the alternatives op and the error propagates.

    The tune runs with the cycle collector paused: it builds tens of
    thousands of IR objects, all reference cycles while live, and takes
    apart everything it drops, so an automatic collection here would walk
    live IR and free nothing (``tests/test_cyclic_garbage.py`` checks that
    a tune leaves no cyclic garbage).
    """
    from ..transforms.alternatives import plan_coarsening_alternatives

    if rank is None:
        rank = timing_driven_optimization
    stage = engine.stage
    log = obs_decisions.current()
    decision = log.begin(_wrapper_label(wrapper), arch.name) \
        if log is not None else None
    with collector_paused():
        with stage("alternatives"), \
                obs_tracer.span("tune.alternatives", category="tune"):
            report = plan_coarsening_alternatives(wrapper, configs)
        _count_generation(engine, report)
        if decision is not None:
            for info in report.alternatives:
                decision.add(info.desc, config=dict(info.config))
            for config, reason in report.rejected_configs:
                decision.add(repr(config), config=config)
                decision.eliminate(repr(config), obs_decisions.GENERATION,
                                   "illegal coarsening: %s" % reason)
        if not report.alternatives:
            raise NoLegalConfiguration(
                "no legal coarsening configuration: %s" %
                "; ".join(report.rejected))

        def materialize(indices):
            # clones are built only for the plans that survived the early
            # metadata filter; cost scales with survivors, not candidates
            with stage("alternatives"), \
                    obs_tracer.span("tune.materialize", category="tune",
                                    alternatives=len(indices)):
                alt = report.materialize(indices)
            return _clean(alt, stage)

        snapshot = wrapper.clone({})
        step = "filters"
        try:
            # the IR is stable from materialization until selection, so
            # the spill filter and the timing models may share one
            # linearized thread body per loop
            with linearized_cache():
                filters, alt = run_planned_filters(
                    report.alternatives, arch, materialize, stage)
                survivors = filters.survivors
                validation = None
                if engine.validate:
                    # after the cheap filters, before the ranking: a
                    # fast-but-miscompiled alternative must never win
                    step = "validate"
                    with stage("validate"), \
                            obs_tracer.span("tune.validate",
                                            category="tune"):
                        validation, keep = _validation_gate(
                            alt, snapshot, env, decision)
                    if keep is not None:
                        survivors = [survivors[i] for i in keep]
                step = "rank"
                with stage("tdo"):
                    outcome = rank(alt, arch, env)
        except BaseException as error:
            # the snapshot takes the alternatives op with it
            swap_regions(wrapper, snapshot)
            if decision is not None:
                decision.note("nothing selected: %s failed (%s: %s); the "
                              "wrapper was restored untransformed"
                              % (step, type(error).__name__, error))
            raise
        finally:
            unlink_subtree([snapshot])
    outcome.filters = filters
    outcome.validation = validation
    # the winning region maps back through the validation and filter
    # prunes to its plan, so its coarsening config can be replayed from
    # cache without regenerating alternatives
    outcome.selected_config = dict(
        report.alternatives[survivors[outcome.selected_index]].config)
    return outcome
