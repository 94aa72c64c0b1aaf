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
from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import polygeist
from ..ir import Module, Operation, Value
from ..obs import decisions as obs_decisions
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.log import get_logger
from ..simulator.model import InvalidLaunch, block_count
from ..targets import GPUArchitecture, register_estimate_cache
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


def _time_region(alt: Operation, index: int, arch: GPUArchitecture,
                 env: Dict[Value, int],
                 model_cache: Optional[Dict[int, object]] = None,
                 blocks_cache: Optional[Dict[tuple, int]] = None) -> float:
    from ..simulator.model import KernelModel
    total = 0.0
    for loop in block_parallels_in_region(alt.region(index)):
        key = loop.stable_uid()
        blocks = None
        if blocks_cache is not None:
            # env dicts stay alive for the whole optimization call, so
            # their id() is a stable per-call identity
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
            model = KernelModel(loop, arch)
            if model_cache is not None:
                model_cache[key] = model
        total += model.time_seconds_for(blocks)
    return total


def _batched_seconds(alt: Operation, arch: GPUArchitecture, envs):
    """Every alternative through one
    :class:`~repro.simulator.batch.LaunchScorer`: per-env totals with the
    failure order and accumulation of :func:`_time_region` applied one
    launch at a time, summed with the builtin ``sum``."""
    from ..simulator.batch import LaunchScorer
    scorer = LaunchScorer(envs, arch, {}, _UNEVALUABLE)
    for index in range(len(alt.regions)):
        scorer.add(block_parallels_in_region(alt.region(index)))
    return [result if isinstance(result, InvalidLaunch) else sum(result)
            for result in scorer.env_seconds()]


def score_alternatives(alt: Operation, arch: GPUArchitecture,
                       envs: Sequence[Dict[Value, int]]) -> List[Candidate]:
    """Every alternative's modeled seconds summed over ``envs``.

    The equivalence tests substitute a one-launch-at-a-time oracle built
    on :func:`_time_region` for :func:`_batched_seconds`; the two must
    give ``==`` candidates (time, validity and reason).
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

    ``env`` may be a single launch-environment dict or a sequence of them:
    the paper's profiling mode times each alternative over the *whole*
    application run, so alternatives are ranked by their time summed over
    every launch geometry observed (e.g. gaussian's shrinking grids).

    Scoring is :func:`score_alternatives`: all alternatives in one
    :class:`~repro.simulator.batch.LaunchScorer` batch (each one's
    launches × loops block-count matrix, its first failure found in the
    scalar visit order, one vectorized timing pass over every launching
    entry).
    """
    envs = env if isinstance(env, (list, tuple)) else [env]
    with obs_tracer.span("tdo", category="tdo",
                         alternatives=len(alt.regions),
                         launches=len(envs)):
        candidates = score_alternatives(alt, arch, envs)
    obs_metrics.inc("tdo.evaluations", len(candidates))
    valid = [c for c in candidates if c.valid]
    if not valid:
        raise InvalidLaunch("no alternative can launch on %s" % arch.name)
    best = min(valid, key=lambda c: c.time_seconds)
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
                    reason = "%.3es modeled, %.2fx slower than the " \
                             "winner" % (candidate.time_seconds, margin)
                else:
                    reason = "%.3es modeled, slower than the winner" \
                             % candidate.time_seconds
                decision.eliminate(candidate.desc, obs_decisions.TIMING,
                                   reason)
        decision.select(best.desc, best.time_seconds)
    logger.info("TDO selected %s (%.3es) out of %d alternatives",
                best.desc, best.time_seconds, len(candidates))
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


def _clone_baseline(wrapper: Operation
                    ) -> Tuple[Optional[Operation], Optional[Operation]]:
    """A detached clone of the enclosing func, taken *before* alternative
    generation erases the wrapper body, plus the cloned wrapper matching
    ``wrapper`` (for launch-shape sizing). ``(None, None)`` when the
    wrapper is not nested in a function."""
    func_op = wrapper
    while func_op is not None and func_op.name != "func.func":
        func_op = func_op.parent_op
    if func_op is None:
        return None, None
    wrappers = polygeist.find_gpu_wrappers(func_op)
    position = next((i for i, w in enumerate(wrappers) if w is wrapper), -1)
    baseline_func = func_op.clone({})
    clones = polygeist.find_gpu_wrappers(baseline_func)
    if not 0 <= position < len(clones):
        return None, None
    return baseline_func, clones[position]


def _validation_gate(alt: Operation, baseline_func: Operation,
                     sizing_wrapper: Operation, env, decision
                     ) -> Tuple[object, Optional[List[int]]]:
    """Run the differential gate on a (post-filter) alternatives op.

    Prunes diverging regions in place and returns ``(report, keep)`` where
    ``keep`` maps post-validation region indices back to post-filter ones
    (``None`` when nothing was pruned). Raises when every alternative is
    rejected."""
    from ..transforms.alternatives import prune_alternatives
    from ..validate import validate_alternatives

    env0 = env[0] if isinstance(env, (list, tuple)) else env
    validation = validate_alternatives(baseline_func, alt, env0,
                                       sizing_wrapper)
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


def tune_wrapper(wrapper: Operation, arch: GPUArchitecture,
                 env,
                 configs: Sequence[Dict[str, object]],
                 engine=None) -> TuneOutcome:
    """Full §VI flow for one gpu_wrapper: alternatives → filters → TDO.

    ``engine`` (a :class:`repro.engine.TuningEngine`) contributes its
    per-stage stats and validation switch; tuning decisions are cached at
    the :class:`~repro.pipeline.Program` level, not here.
    """
    from contextlib import nullcontext
    from ..transforms import cleanup_regions
    from ..transforms.alternatives import plan_coarsening_alternatives

    stats = engine.stats if engine is not None else None
    validate = engine is not None and getattr(engine, "validate", False)

    def stage(name):
        return stats.stage(name) if stats is not None else nullcontext()

    log = obs_decisions.current()
    decision = log.begin(_wrapper_label(wrapper), arch.name) \
        if log is not None else None
    baseline_func = sizing_wrapper = None
    if validate:
        # the baseline must be cloned before materialization erases the body
        baseline_func, sizing_wrapper = _clone_baseline(wrapper)
        if baseline_func is None and decision is not None:
            decision.note("validation skipped: wrapper not nested in a "
                          "function")
    with stage("alternatives"), \
            obs_tracer.span("tune.alternatives", category="tune"):
        report = plan_coarsening_alternatives(wrapper, configs)
    if stats is not None:
        stats.count("alternative_generations")
        stats.count("alternatives_generated", len(report.alternatives))
    obs_metrics.inc("alternatives_generated", len(report.alternatives))
    if decision is not None:
        for info in report.alternatives:
            decision.add(info.desc, config=dict(info.config))
        for config, reason in report.rejected_configs:
            decision.add(repr(config), config=config)
            decision.eliminate(repr(config), obs_decisions.GENERATION,
                               "illegal coarsening: %s" % reason)
    if not report.alternatives:
        raise ValueError("no legal coarsening configuration: %s" %
                         "; ".join(report.rejected))

    def materialize(indices):
        # clones are built only for the plans that survived the early
        # metadata filter; cost scales with survivors, not candidates
        with stage("alternatives"), \
                obs_tracer.span("tune.materialize", category="tune",
                                alternatives=len(indices)):
            alt = report.materialize(indices)
        with stage("cleanup"):
            # scoped to the clones: the pipeline pre-cleaned the rest of
            # the module to a fixpoint, so this equals a whole-module
            # cleanup (tests/test_scoped_cleanup.py asserts printed-IR
            # equality benchsuite-wide)
            cleanup_regions(list(alt.regions))
        return alt

    # the IR is stable from materialization until selection, so the spill
    # filter and the timing models may share one register-estimate memo
    # per loop
    with register_estimate_cache():
        filters, alt = run_planned_filters(report.alternatives, arch,
                                           materialize, stage=stage)
        validation = validation_keep = None
        if validate and baseline_func is not None:
            # gate after the cheap static filters, before the timing race:
            # a fast-but-miscompiled alternative must never win
            with stage("validate"), \
                    obs_tracer.span("tune.validate", category="tune"):
                validation, validation_keep = _validation_gate(
                    alt, baseline_func, sizing_wrapper, env, decision)
        with stage("tdo"):
            outcome = timing_driven_optimization(alt, arch, env)
    outcome.filters = filters
    outcome.validation = validation
    # map the winning region back through the validation prune and the
    # filter prune to the original alternative so the winner's coarsening
    # config can be replayed from cache without regenerating alternatives
    index = outcome.selected_index
    if validation_keep is not None and 0 <= index < len(validation_keep):
        index = validation_keep[index]
    survivors = filters.survivors
    original = survivors[index] if 0 <= index < len(survivors) else index
    for info in report.alternatives:
        if info.index == original:
            outcome.selected_config = dict(info.config)
            break
    return outcome
