"""Spans around the repository's layer entry points, recorded from outside.

:func:`install` replaces each entry point of :data:`TARGETS` at the place
its caller looks it up (a module attribute or a class method) with a
wrapper that records one :class:`Span` per call and, for some, a count
taken from the arguments or the result. :func:`uninstall` puts the
originals back. Spans stay in memory; the benchmark writes them out when
the run ends.

A layer's self time is the time its spans cover minus the part their
child spans cover. :func:`attribute` sums self times per layer; with the
residual -- the self time of the benchmark's own per-job root spans --
they add up to the total of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the per-pass self-time metrics, in report order; these plus
#: ``unattributed_s`` add up to ``traced_total_s``
LAYER_METRICS = (
    "frontend.parse_s", "transforms.cleanup_s", "transforms.plan_s",
    "transforms.materialize_s", "transforms.replay_s",
    "autotune.filters_s", "autotune.tdo_s", "simulator.model_s",
    "engine.cache_lookup_s", "engine.cache_store_s", "engine.scheduler_s",
    "validate.self_s", "interpreter.run_s", "serve.self_s",
    "serve.ledger_append_s",
)
RESIDUAL = "unattributed_s"

#: span name -> layer metric it adds its self time to
LAYER_OF = {
    "frontend.parse": "frontend.parse_s",
    "frontend.codegen": "frontend.parse_s",
    "transforms.cleanup": "transforms.cleanup_s",
    "transforms.plan": "transforms.plan_s",
    "transforms.materialize": "transforms.materialize_s",
    "transforms.replay": "transforms.replay_s",
    "autotune.filters": "autotune.filters_s",
    "autotune.tdo": "autotune.tdo_s",
    "simulator.model": "simulator.model_s",
    "engine.cache_lookup": "engine.cache_lookup_s",
    "engine.cache_store": "engine.cache_store_s",
    "engine.scheduler": "engine.scheduler_s",
    "validate": "validate.self_s",
    "interpreter": "interpreter.run_s",
    "serve.job": "serve.self_s",
    "serve.queue": "serve.self_s",
    "serve.run": "serve.self_s",
    "serve.ledger_append": "serve.ledger_append_s",
    "job": RESIDUAL,
    "serve.worker": RESIDUAL,
}

#: a serve job result's ``stages`` key -> the span name it stands for
STAGE_SPANS = {
    "parse": "frontend.parse",
    "cleanup": "transforms.cleanup",
    "replay": "transforms.replay",
    "alternatives": "transforms.plan",
    "filters": "autotune.filters",
    "tdo": "autotune.tdo",
    "validate": "validate",
}


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {"id": self.ident, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job}


class Recorder:
    """Collects spans and counts; one per traced phase.

    Each thread keeps its own stack of open spans, which gives a span its
    parent and, unless it names one, its job id. Calls made in another
    process (a forked worker inherits the wrappers) are not recorded.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.lock = threading.Lock()
        #: launch wrappers already counted, per frontend generator
        self.wrappers_seen = weakref.WeakKeyDictionary()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(next(self._ids), name, 0.0,
                    parent=parent.ident if parent is not None else None,
                    job=job)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self.lock:
            self.spans.append(span)


# -- what gets wrapped -------------------------------------------------------


def _ir_ops(recorder, args, kwargs, wrapper_name):
    """Ops of each launch wrapper the frontend generates, counted once."""
    generator = args[0]
    seen = recorder.wrappers_seen.setdefault(generator, set())
    if wrapper_name in seen:
        return
    seen.add(wrapper_name)
    ops = [0]

    def bump(_op):
        ops[0] += 1
    generator.module.func(wrapper_name).walk(bump)
    recorder.counts["frontend.ir_ops"] += ops[0]


def _planned(recorder, args, kwargs, planned):
    recorder.counts["transforms.planned"] += len(planned.alternatives)


def _materialized(recorder, args, kwargs, result):
    recorder.counts["transforms.materialized"] += len(args[1])


def _filtered(recorder, args, kwargs, result):
    recorder.counts["autotune.filter_inputs"] += len(args[0])
    recorder.counts["autotune.survivors"] += len(result[0].survivors)


def _candidates(recorder, args, kwargs, outcome):
    recorder.counts["autotune.candidates"] += len(outcome.candidates)


def _lookup(recorder, args, kwargs, result):
    recorder.counts["engine.hits"] += 1 if result[0] else 0


def _validated(recorder, args, kwargs, report):
    recorder.counts["validate.alternatives"] += len(report.verdicts)
    recorder.counts["validate.rejected"] += sum(
        1 for verdict in report.verdicts if not verdict.passed)


def _ledger_job(args, kwargs):
    return kwargs.get("job_id", args[2] if len(args) > 2 else None)


def _scheduler_job(args, kwargs):
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else ())
    return jobs[0].key if len(jobs) == 1 else None


def _client_job(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("job_id")


#: count metric -> the span whose calls it counts
CALL_COUNTS = {
    "transforms.cleanup_calls": "transforms.cleanup",
    "engine.lookups": "engine.cache_lookup",
    "engine.cache_stores": "engine.cache_store",
    "interpreter.calls": "interpreter",
    "serve.ledger_appends": "serve.ledger_append",
}


def counts_of(recorder: "Recorder") -> Counter:
    """The hooks' counts plus one count per call of :data:`CALL_COUNTS`."""
    calls = Counter(span.name for span in recorder.spans)
    counts = Counter(recorder.counts)
    for metric, name in CALL_COUNTS.items():
        counts[metric] += calls[name]
    return counts


#: (module, class or None, attribute, span name, count hook, job-id hook)
TARGETS: Tuple[tuple, ...] = (
    ("repro.pipeline", None, "parse_translation_unit", "frontend.parse",
     None, None),
    ("repro.pipeline", None, "ModuleGenerator", "frontend.codegen",
     None, None),
    ("repro.frontend.codegen", "ModuleGenerator", "get_launch_wrapper",
     "frontend.codegen", _ir_ops, None),
    ("repro.pipeline", None, "run_cleanup", "transforms.cleanup",
     None, None),
    ("repro.transforms", None, "cleanup_regions", "transforms.cleanup",
     None, None),
    ("repro.transforms.alternatives", None, "plan_coarsening_alternatives",
     "transforms.plan", _planned, None),
    ("repro.transforms.alternatives", "PlannedAlternatives", "materialize",
     "transforms.materialize", _materialized, None),
    ("repro.transforms.coarsen", None, "coarsen_wrapper",
     "transforms.replay", None, None),
    ("repro.autotune.tdo", None, "run_planned_filters", "autotune.filters",
     _filtered, None),
    ("repro.autotune.tdo", None, "timing_driven_optimization",
     "autotune.tdo", _candidates, None),
    ("repro.pipeline", "Program", "model_launch_seconds", "simulator.model",
     None, None),
    ("repro.engine.cache", "TuningCache", "lookup", "engine.cache_lookup",
     _lookup, None),
    ("repro.engine.cache", "TuningCache", "store", "engine.cache_store",
     None, None),
    ("repro.validate", None, "validate_alternatives", "validate",
     _validated, None),
    ("repro.interpreter.interp", "Interpreter", "run_func", "interpreter",
     None, None),
    ("repro.serve.server", "TuneServer", "submit_request",
     "serve.submit_request", None, None),
    ("repro.serve.ledger", "JobLedger", "append", "serve.ledger_append",
     None, _ledger_job),
    ("repro.engine.scheduler", "SweepScheduler", "run", "engine.scheduler",
     None, _scheduler_job),
    ("repro.serve.client", "ServeClient", "submit", "serve.client.submit",
     None, None),
    ("repro.serve.client", "ServeClient", "result", "serve.client.poll",
     None, _client_job),
)


def _wrap(recorder: Recorder, func: Callable, name: str,
          count: Optional[Callable], job_of: Optional[Callable]):
    @functools.wraps(func, updated=())
    def traced(*args, **kwargs):
        if os.getpid() != recorder.pid:
            return func(*args, **kwargs)
        if name == "transforms.materialize":
            # materialize takes any iterable; the count needs its length
            args = (args[0], list(args[1])) + tuple(args[2:])
        span = recorder.open(name, job_of(args, kwargs) if job_of else None)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if count is not None:
            with recorder.lock:
                count(recorder, args, kwargs, result)
        return result
    return traced


def install(recorder: Recorder) -> List[tuple]:
    """Wrap every target; returns what :func:`uninstall` needs."""
    saved = []
    for module_name, class_name, attr, name, count, job_of in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr] if class_name is not None \
            else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, original, name, count, job_of))
    return saved


def uninstall(saved: Sequence[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- attribution -------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.ident, ()),
                            key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.ident] = span.duration - covered
    return result


def attribute(spans: Sequence[Span]) -> Tuple[Dict[str, float], float]:
    """``({layer metric: self seconds}, total)`` over a span tree.

    Only spans named in :data:`LAYER_OF` take part; the total is the summed
    duration of the parentless ones (the per-job roots).
    """
    spans = [span for span in spans if span.name in LAYER_OF]
    known = {span.ident for span in spans}
    selfs = self_times(spans)
    layers = {name: 0.0 for name in LAYER_METRICS + (RESIDUAL,)}
    total = 0.0
    for span in spans:
        layers[LAYER_OF[span.name]] += selfs[span.ident]
        if span.parent is None or span.parent not in known:
            total += span.duration
    return layers, total


def serve_job_spans(root: Span, status: Dict[str, object],
                    result: Dict[str, object], recorded: Sequence[Span],
                    ids: Callable[[], int], wall_offset: float
                    ) -> List[Span]:
    """One served job as a span tree under the client's ``root`` span.

    The daemon's ``queued_at``/``started_at``/``finished_at`` stamps (wall
    clock, shifted onto ``perf_counter`` by ``wall_offset``) give the
    queue-wait and run spans; the recorded ledger appends and scheduler
    round trip of this job hang below them; the worker's own time and
    its ``stages`` come from the job result. What is left of the root is
    the client's HTTP time.
    """
    def child(name, start, end, parent):
        start = max(start, parent.start)
        end = max(start, min(end, parent.end))
        return Span(ids(), name, start, end, parent.ident, root.job)

    queued = float(status["queued_at"]) - wall_offset
    started = float(status["started_at"]) - wall_offset
    finished = float(status["finished_at"]) - wall_offset
    queue = child("serve.queue", queued, started, root)
    run = child("serve.run", started, finished, root)
    out = [root, queue, run]
    for span in recorded:
        if span.job != root.job or span.name not in (
                "serve.ledger_append", "engine.scheduler"):
            continue
        parent = queue if span.start < run.start else run
        placed = child(span.name, span.start, span.end, parent)
        out.append(placed)
        if span.name != "engine.scheduler":
            continue
        wall = float(result.get("wall_seconds", 0.0))
        middle = (placed.start + placed.end) / 2.0
        worker = child("serve.worker", middle - wall / 2.0,
                       middle + wall / 2.0, placed)
        out.append(worker)
        cursor = worker.start
        for stage, seconds in sorted((result.get("stages") or {}).items()):
            name = STAGE_SPANS.get(stage)
            if name is None:
                continue
            stage_span = child(name, cursor, cursor + float(seconds), worker)
            cursor = stage_span.end
            out.append(stage_span)
    return out
