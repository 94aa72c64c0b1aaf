"""Running the figure matrix: in this process, over worker processes, or
resumably from the CLI.

Fig. 13, Fig. 16, Fig. 17 and Table II are each defined once in
:mod:`~repro.benchsuite.experiments`, as a
:class:`~repro.benchsuite.experiments.SweepPlan`: independent picklable
jobs plus the merge that builds the figure's data from their values. This
module runs those plans two ways:

* :func:`run_plan` — what the figure drivers call (``fig16_data(workers=4)``
  and the like). With ``workers <= 1`` it runs the jobs in order in this
  process, so they share its default engine and tracer; otherwise it runs
  them over :class:`~repro.engine.scheduler.SweepScheduler` worker
  processes (per-job timeout, bounded retry, crash isolation). The merged
  data is the same either way, and a failed job raises an error naming it.
* :func:`run_figure_sweep` — what ``repro sweep`` calls. It always goes
  through the scheduler, reports failed jobs on the returned
  :class:`SweepOutcome` instead of raising, and skips the jobs whose values
  a previous run's JSON already holds (:func:`write_sweep_json` and
  :func:`load_resume_values` write and read that JSON).

Workers share the on-disk tuning cache when ``$REPRO_TUNING_CACHE`` is set,
so repeated sweeps replay tuning decisions across processes. When the
caller has a tracer installed, each scheduled job records its spans under
a tracer of its own and the caller's tracer absorbs them.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..engine import TuningEngine
from ..engine.scheduler import Job, JobResult, SweepScheduler, sweep_workers
from ..obs import tracer as obs_tracer
from ..obs.log import get_logger
from .experiments import (ConfigTime, FIGURE_PLANS, KernelSweep, SweepPlan,
                          run_figure_job)

logger = get_logger("benchsuite.sweeps")


def plan_figure(figure: str, **kwargs) -> SweepPlan:
    """``figure``'s plan; ``kwargs`` are its driver's arguments (without
    ``workers``), and architectures may be given by name."""
    if figure not in FIGURE_PLANS:
        raise ValueError("unknown figure %r (expected one of %s)" %
                         (figure, ", ".join(FIGURE_PLANS)))
    return FIGURE_PLANS[figure](**kwargs)


def run_sweep_job(payload: Dict[str, Any]) -> Any:
    """Execute one scheduled job; the scheduler ships this to workers.

    When the payload carries ``trace: True`` (set whenever the parent
    process has a tracer installed), the job runs under a fresh
    worker-local tracer and returns a wrapped value carrying the recorded
    spans (plus the worker tracer's epoch), which the parent absorbs back
    into its own tracer.
    """
    if not payload.get("trace"):
        return run_figure_job(payload)
    worker_tracer = obs_tracer.Tracer()
    with obs_tracer.tracing(worker_tracer):
        value = run_figure_job(payload)
    return {"__traced__": True, "value": value,
            "epoch": worker_tracer.epoch,
            "spans": [s.as_dict() for s in worker_tracer.finished()]}


def _unwrap_traced(result, parent_tracer) -> Any:
    """Absorb a traced job wrapper's spans; return the payload value."""
    value = result.value
    if isinstance(value, dict) and value.get("__traced__"):
        if parent_tracer is not None:
            parent_tracer.absorb(value.get("spans") or [],
                                 value.get("epoch"))
        result.value = value = value["value"]
    return value


# -- value (de)serialization for resume files --------------------------------


def encode_value(figure: str, value: Any) -> Any:
    """JSON-encode one job value (fig13 returns dataclasses)."""
    if figure == "fig13":
        return [asdict(sweep) for sweep in value]
    return value


def decode_value(figure: str, value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if figure == "fig13":
        return [KernelSweep(
            benchmark=raw["benchmark"], kernel=raw["kernel"],
            block=tuple(raw["block"]),
            results=[ConfigTime(**r) for r in raw["results"]])
            for raw in value]
    return value


def encode_figure_data(figure: str, data: Any) -> Any:
    """JSON-friendly encoding of the merged figure output."""
    if data is None:
        return None
    if figure == "fig13":
        return [asdict(sweep) for sweep in data]
    if figure == "fig16":
        # tuple keys -> nested {benchmark: {arch: {tier: seconds}}}
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name, rows in data.items():
            out[name] = {}
            for (arch_name, tier), seconds in rows.items():
                out[name].setdefault(arch_name, {})[tier] = seconds
        return out
    return data


# -- orchestration -----------------------------------------------------------


@dataclass
class SweepOutcome:
    """Everything one scheduled sweep produced."""

    figure: str
    #: the figure's merged data, or None when jobs failed
    data: Any
    #: per-job values, including resumed ones
    values: Dict[str, Any]
    #: scheduling results for the jobs run in THIS invocation
    results: Dict[str, JobResult] = field(default_factory=dict)
    #: keys skipped because a resume file already had their values
    resumed: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: architecture names the planned jobs cover (for provenance)
    archs: List[str] = field(default_factory=list)

    @property
    def failed(self) -> Dict[str, str]:
        return {key: result.error for key, result in self.results.items()
                if not result.ok}

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.results.values())

    @property
    def timeouts(self) -> int:
        return sum(r.timeouts for r in self.results.values())

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.results.values() if r.degraded)


def _schedule(plan: SweepPlan, workers: int, timeout: Optional[float] = None,
              retries: int = 2,
              resume_values: Optional[Dict[str, Any]] = None
              ) -> SweepOutcome:
    """Run ``plan``'s jobs not in ``resume_values`` over the scheduler and
    merge, when every job has a value."""
    wanted = set(plan.keys)
    resumed = {key: value for key, value in (resume_values or {}).items()
               if key in wanted}
    todo = [job for job in plan.jobs if job.key not in resumed]
    start = time.perf_counter()
    parent_tracer = obs_tracer.current()
    if parent_tracer is not None:
        # ship spans back from the workers: each job runs under its own
        # tracer and the parent absorbs the spans (pid-tagged, epoch-
        # rebased) so one trace covers the whole sharded sweep
        todo = [Job(job.key, dict(job.payload, trace=True))
                for job in todo]
    scheduler = SweepScheduler(workers=workers, timeout=timeout,
                               retries=retries)
    logger.info("sweep %s: %d jobs (%d resumed) on %r", plan.figure,
                len(todo), len(resumed), scheduler)
    with scheduler:  # worker processes reaped even if a merge step throws
        results = scheduler.run(run_sweep_job, todo)
    values: Dict[str, Any] = dict(resumed)
    for key, result in results.items():
        if result.ok:
            values[key] = _unwrap_traced(result, parent_tracer)
    data = plan.merge(values) if len(values) == len(plan.jobs) else None
    return SweepOutcome(plan.figure, data, values, results,
                        sorted(resumed), time.perf_counter() - start,
                        archs=sorted({job.payload["arch"]
                                      for job in plan.jobs}))


def run_figure_sweep(figure: str,
                     workers: Optional[int] = None,
                     timeout: Optional[float] = None,
                     retries: int = 2,
                     resume_values: Optional[Dict[str, Any]] = None,
                     **plan_kwargs) -> SweepOutcome:
    """Plan, schedule and merge one figure sweep.

    ``workers`` defaults to ``$REPRO_SWEEP_WORKERS`` or the CPU count; one
    worker runs the jobs in this process, still under ``timeout``.
    ``resume_values`` maps job keys to already-computed values (decoded
    from a previous run's JSON); those jobs are skipped. Job failures
    never raise: they are reported on the outcome, and ``data`` is
    ``None`` until every job has a value.
    """
    return _schedule(plan_figure(figure, **plan_kwargs),
                     sweep_workers(workers), timeout, retries,
                     resume_values)


def run_plan(plan: SweepPlan, workers: int = 1,
             engine: Optional[TuningEngine] = None) -> Any:
    """The figure data of ``plan``: its jobs run in order in this process
    when ``workers <= 1`` (timed into ``engine`` when given), otherwise
    over ``workers`` worker processes. A failed job raises a
    ``RuntimeError`` that names it; partial data is never returned.
    """
    if workers <= 1:
        values: Dict[str, Any] = {}
        for job in plan.jobs:
            try:
                values[job.key] = run_figure_job(job.payload, engine)
            except Exception as error:
                raise RuntimeError("sweep %s failed for job %s (%s: %s)" % (
                    plan.figure, job.key, type(error).__name__,
                    error)) from error
        return plan.merge(values)
    if engine is not None:
        raise ValueError("an engine times stages in this process only; "
                         "run with workers=1 to pass one")
    outcome = _schedule(plan, workers)
    if outcome.data is None:
        raise RuntimeError(
            "sweep %s failed for %d job(s): %s" %
            (plan.figure, len(outcome.failed),
             "; ".join("%s (%s)" % item
                       for item in sorted(outcome.failed.items()))))
    return outcome.data


# -- resume-file I/O ---------------------------------------------------------


def write_sweep_json(path: str, outcome: SweepOutcome,
                     meta: Optional[Dict[str, Any]] = None,
                     created: Optional[str] = None) -> None:
    """Persist per-job values (for ``--resume``) plus the merged data.

    ``created`` is a caller-supplied timestamp string for the provenance
    header (the CLI stamps wall-clock time; tests leave it ``None`` for
    byte-stable output).
    """
    from ..analysis.check import provenance_header
    payload = {
        "figure": outcome.figure,
        "provenance": provenance_header(outcome.archs, created=created),
        "jobs": {key: encode_value(outcome.figure, value)
                 for key, value in outcome.values.items()
                 if value is not None},
        "failed": outcome.failed,
        "data": encode_figure_data(outcome.figure, outcome.data),
        "meta": dict(meta or {}, elapsed=outcome.elapsed,
                     resumed=len(outcome.resumed),
                     retries=outcome.retries, timeouts=outcome.timeouts,
                     degraded=outcome.degraded),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)


def load_resume_values(path: str, figure: str) -> Dict[str, Any]:
    """Read a sweep JSON back into ``{job key: decoded value}``."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("figure") != figure:
        raise ValueError("resume file %s is for figure %r, not %r" %
                         (path, payload.get("figure"), figure))
    return {key: decode_value(figure, value)
            for key, value in payload.get("jobs", {}).items()}
