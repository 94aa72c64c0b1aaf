"""Tune-request schema and the job runner for the ``repro serve`` daemon.

A :class:`TuneRequest` is the validated form of one ``POST /v1/tune``
body: either a benchsuite benchmark (``{"benchmark": "lud", "arch":
"a100"}``) or inline CUDA source (``{"source": "...", "kernel": "scale",
"grid": [64], "block": [256]}``), plus the tuning options (tier,
max-factor config bound, problem size). Its :meth:`TuneRequest.signature`
is the daemon's single-flight key: two requests with equal signatures are
the same tuning problem, so the queue serializes them and the second one
replays the first one's cached decision.

:func:`run_tune_job` is the module-level runner the daemon hands to
:class:`~repro.engine.scheduler.SweepScheduler` — module-level so it
pickles into worker processes. Each job builds a **fresh**
:class:`~repro.engine.TuningEngine` over the daemon's shared on-disk
:class:`~repro.engine.cache.TuningCache` directory, so cache hit/miss
accounting is exact per request while tuning decisions are shared across
every client (and every worker process) of the daemon.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import decisions as obs_decisions

#: job lifecycle states, in order
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATES = (QUEUED, RUNNING, DONE, FAILED)
TERMINAL = (DONE, FAILED)

#: longest ``GET /v1/jobs/<id>/result?wait=`` holds a request open: the
#: daemon caps what a client asks for, and the client never asks for more
MAX_RESULT_WAIT = 30.0


class RequestError(ValueError):
    """An invalid ``POST /v1/tune`` body (HTTP 400)."""


def _dims(value, name: str, default: Tuple[int, ...]) -> Tuple[int, ...]:
    if value is None:
        return default
    if isinstance(value, str):
        value = [part for part in value.split(",") if part]
    try:
        dims = tuple(int(part) for part in value)
    except (TypeError, ValueError):
        raise RequestError("%s must be a list of integers" % name)
    if not dims or any(d <= 0 for d in dims):
        raise RequestError("%s must be positive integers" % name)
    return dims


@dataclass(frozen=True)
class TuneRequest:
    """One validated tuning request."""

    arch: str                     # canonical architecture name
    tier: str = "polygeist"
    benchmark: Optional[str] = None
    source: Optional[str] = None
    kernel: Optional[str] = None  # source mode; None = first kernel
    grid: Tuple[int, ...] = (1024,)
    block: Tuple[int, ...] = (256,)
    max_factor: Optional[int] = None
    size: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TuneRequest":
        """Validate a request dict; raises :class:`RequestError`."""
        from ..benchsuite import BENCHMARKS
        from ..pipeline import TIERS
        from ..targets import arch_by_name

        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        benchmark = payload.get("benchmark")
        source = payload.get("source")
        if bool(benchmark) == bool(source):
            raise RequestError(
                "exactly one of 'benchmark' or 'source' is required")
        if benchmark is not None and benchmark not in BENCHMARKS:
            raise RequestError(
                "unknown benchmark %r (have: %s)" %
                (benchmark, ", ".join(sorted(BENCHMARKS))))
        try:
            arch = arch_by_name(str(payload.get("arch", "a100"))).name
        except KeyError as error:
            raise RequestError(str(error.args[0]))
        tier = payload.get("tier", "polygeist")
        if tier not in TIERS:
            raise RequestError("tier must be one of %s" % (TIERS,))
        max_factor = payload.get("max_factor")
        if max_factor is not None:
            try:
                max_factor = int(max_factor)
            except (TypeError, ValueError):
                raise RequestError("max_factor must be an integer")
            if max_factor < 1:
                raise RequestError("max_factor must be >= 1")
        size = payload.get("size")
        if size is not None:
            try:
                size = int(size)
            except (TypeError, ValueError):
                raise RequestError("size must be an integer")
            if size < 1:
                raise RequestError("size must be >= 1")
        kernel = payload.get("kernel")
        if kernel is not None and not isinstance(kernel, str):
            raise RequestError("kernel must be a string")
        return cls(arch=arch, tier=tier, benchmark=benchmark,
                   source=source, kernel=kernel,
                   grid=_dims(payload.get("grid"), "grid", (1024,)),
                   block=_dims(payload.get("block"), "block", (256,)),
                   max_factor=max_factor, size=size)

    def as_payload(self) -> Dict[str, Any]:
        """The picklable/JSON form shipped to scheduler workers."""
        return {
            "arch": self.arch, "tier": self.tier,
            "benchmark": self.benchmark, "source": self.source,
            "kernel": self.kernel, "grid": list(self.grid),
            "block": list(self.block), "max_factor": self.max_factor,
            "size": self.size,
        }

    def signature(self) -> str:
        """Content address of the tuning problem (single-flight key)."""
        from ..engine.cache import source_hash
        payload = self.as_payload()
        if self.source is not None:
            payload["source"] = source_hash(self.source)
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        target = self.benchmark if self.benchmark is not None \
            else "source:%s" % (self.kernel or "<first kernel>")
        return "%s on %s (%s)" % (target, self.arch, self.tier)


# -- the runner (module-level: must pickle into worker processes) ------------


def _configs(max_factor: Optional[int]):
    if max_factor is None:
        return None
    from ..autotune import paper_sweep_configs
    return paper_sweep_configs(max_product=max_factor)


def run_tune_job(payload: Dict[str, Any],
                 engine=None) -> Dict[str, Any]:
    """Execute one tuning request; returns a JSON-able result dict.

    ``payload`` is ``TuneRequest.as_payload()`` plus the daemon's
    ``cache_dir`` / ``cache_max_bytes`` / ``cache_max_entries``. A fresh
    engine over the shared cache directory is built unless the caller
    (the thread-isolation dispatcher, which wants live stage progress)
    passes one in.
    """
    from ..engine import TuningCache, TuningEngine
    from ..targets import arch_by_name

    request = TuneRequest.from_payload(payload)
    if engine is None:
        engine = TuningEngine(
            cache=TuningCache(payload.get("cache_dir"),
                              max_bytes=payload.get("cache_max_bytes"),
                              max_entries=payload.get("cache_max_entries")))
    arch = arch_by_name(request.arch)
    configs = _configs(request.max_factor)
    log = obs_decisions.DecisionLog()
    outcomes: Dict[str, Any] = {}
    start = time.perf_counter()
    with obs_decisions.logging_decisions(log):
        if request.benchmark is not None:
            from ..benchsuite.base import simulate_composite
            seconds = simulate_composite(
                request.benchmark, arch, tier=request.tier,
                autotune_configs=configs, size=request.size,
                engine=engine, outcomes=outcomes)
        else:
            from ..pipeline import Program, first_kernel
            program = Program(request.source, arch=arch,
                              tier=request.tier,
                              autotune_configs=configs, engine=engine)
            kernel = request.kernel
            if kernel is None:
                kernel = first_kernel(program.unit)
            timing = program.model_launch(kernel, request.grid,
                                          request.block)
            seconds = timing.time_seconds
            outcomes = program.tuning_outcomes
    wall = time.perf_counter() - start
    cache_stats = engine.cache.stats()
    # from the outcomes, not the decision log: a cache replay logs no
    # decisions, and warm results must name the same winners as cold ones
    winners = [{"wrapper": wrapper, "desc": outcome.selected_desc,
                "time_seconds": outcome.selected_time}
               for wrapper, outcome in outcomes.items()]
    return {
        "request": request.as_payload(),
        "target": request.describe(),
        "seconds": seconds,
        "wall_seconds": wall,
        "cache": {
            "hits": cache_stats["hits"],
            "misses": cache_stats["misses"],
            "stores": cache_stats["stores"],
            "evictions": cache_stats["evictions"],
            "dump_errors": cache_stats["dump_errors"],
            "quarantined": cache_stats.get("quarantined", 0),
        },
        # fully warm: every tuning decision replayed from the shared cache
        "cache_hit": cache_stats["misses"] == 0 and cache_stats["hits"] > 0,
        "stages": engine.stage_seconds(),
        "counters": engine.registry.counter_values(),
        "decisions": log.as_dict()["decisions"],
        "winners": winners,
    }


# -- job records -------------------------------------------------------------


@dataclass
class JobRecord:
    """One submitted job's lifecycle, as tracked by the daemon."""

    id: str
    request: TuneRequest
    signature: str
    payload: Dict[str, Any]
    state: str = QUEUED
    #: wall-clock timestamps, for display only — never subtract these:
    #: time.time() jumps under NTP slew/step and DST, so durations come
    #: from the monotonic anchors below
    queued_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    _queued_mono: float = field(default_factory=time.monotonic, repr=False)
    _started_mono: Optional[float] = field(default=None, repr=False)
    _finished_mono: Optional[float] = field(default=None, repr=False)
    result: Optional[Dict[str, Any]] = None
    error: str = ""
    attempts: int = 0
    timeouts: int = 0
    #: True when a restart re-admitted this job from the durable ledger
    recovered: bool = False
    #: the running job's engine (thread isolation only): lets the status
    #: endpoint report per-stage progress while the job runs
    live_engine: Optional[object] = None
    #: guards the fields above; notified when the job turns terminal and
    #: by :meth:`wake`, so long-polling result requests block on it
    _changed: threading.Condition = field(
        default_factory=threading.Condition, repr=False)

    def mark_running(self) -> None:
        with self._changed:
            self.state = RUNNING
            self.started_at = time.time()
            self._started_mono = time.monotonic()

    def finish(self, job_result) -> None:
        """Absorb the scheduler's :class:`JobResult`."""
        with self._changed:
            self._stamp_finished()
            self.attempts = job_result.attempts
            self.timeouts = job_result.timeouts
            if job_result.ok:
                self.state = DONE
                self.result = job_result.value
            else:
                self.state = FAILED
                self.error = job_result.error
            self._changed.notify_all()

    def fail(self, error: str) -> None:
        """Fail a job the scheduler never reported on (a dispatcher
        crash); a job that is already terminal keeps its outcome."""
        with self._changed:
            if self.state in TERMINAL:
                return
            self._stamp_finished()
            self.state = FAILED
            self.error = error
            self._changed.notify_all()

    def _stamp_finished(self) -> None:
        # callers hold self._changed
        self.finished_at = time.time()
        self._finished_mono = time.monotonic()
        self.live_engine = None

    def wake(self) -> None:
        """Make every :meth:`wait_finished` caller re-check its
        ``released`` condition (the daemon calls this when it stops)."""
        with self._changed:
            self._changed.notify_all()

    def wait_finished(self, timeout: float,
                      released: Callable[[], bool] = lambda: False) -> None:
        """Block until the job is terminal, ``released()`` holds, or
        ``timeout`` seconds pass.

        ``released`` is evaluated under the record's lock, so a caller
        that sets its condition and then calls :meth:`wake` cannot miss a
        waiter that is about to block."""
        with self._changed:
            self._changed.wait_for(
                lambda: self.state in TERMINAL or released(), timeout)

    @property
    def finished(self) -> bool:
        with self._changed:
            return self.state in TERMINAL

    def status_dict(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` payload."""
        with self._changed:
            now = time.monotonic()
            payload: Dict[str, Any] = {
                "job": self.id,
                "state": self.state,
                "target": self.request.describe(),
                "signature": self.signature,
                "queued_at": self.queued_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "attempts": self.attempts,
                "timeouts": self.timeouts,
                "recovered": self.recovered,
            }
            if self.state == QUEUED:
                payload["waiting_seconds"] = now - self._queued_mono
            elif self.state == RUNNING:
                payload["running_seconds"] = \
                    now - (self._started_mono or now)
                if self.live_engine is not None:
                    payload["stages"] = self.live_engine.stage_seconds()
            else:
                payload["wall_seconds"] = \
                    (self._finished_mono or now) - \
                    (self._started_mono or now)
            if self.state == DONE and self.result is not None:
                payload["seconds"] = self.result["seconds"]
                payload["cache_hit"] = self.result["cache_hit"]
                payload["stages"] = self.result["stages"]
            if self.state == FAILED:
                payload["error"] = self.error
            return payload

    def result_dict(self) -> Optional[Dict[str, Any]]:
        """The ``GET /v1/jobs/<id>/result`` payload (None unless done)."""
        with self._changed:
            if self.state != DONE or self.result is None:
                return None
            payload = dict(self.result)
            payload["job"] = self.id
            payload["state"] = self.state
            return payload
