"""The ``repro serve`` daemon: tuning as a long-running service.

The paper's cost argument is that target-specific respecialization is
expensive but *amortizable*; a one-shot CLI never amortizes anything
because every invocation pays cold startup and owns its cache privately.
:class:`TuneServer` makes the tuning pipeline resident: a threaded
HTTP/JSON front end over an async job queue, dispatcher threads that run
each job through :class:`~repro.engine.scheduler.SweepScheduler` (warm
persistent worker pools, per-job timeout, crash isolation), and **one
shared on-disk** :class:`~repro.engine.cache.TuningCache` that every
client of the daemon — and every worker process — reads and writes, so
the Nth identical request replays the first one's decision.

API surface (all JSON):

* ``POST /v1/tune``            — submit a tuning request → job id
  (429 when the queue is full, 503 while draining, 400 on a bad body);
* ``GET /v1/jobs/<id>``        — job status incl. per-stage progress;
* ``GET /v1/jobs/<id>/result`` — the full result: composite seconds,
  cache accounting, per-stage seconds, and the TDO decision log
  (202 while the job is still queued/running); ``?wait=<seconds>``
  holds the request until the job finishes, up to
  :data:`~repro.serve.jobs.MAX_RESULT_WAIT`, so a client needs one
  request per job instead of a poll loop;
* ``GET /v1/cache/stats``      — shared-cache hit/miss/evict/quarantine
  counters, hit rate, and disk occupancy against the configured budget;
* ``GET /v1/ledger``           — durable job-ledger occupancy and the
  restart-recovery counters;
* ``GET /v1/faults``           — the active fault-injection plan (chaos
  campaigns only; ``{"installed": false}`` in production);
* ``GET /healthz``             — liveness, queue counts, uptime.

Shutdown is graceful: SIGTERM/SIGINT stop admissions (503), let the
dispatchers finish the backlog (bounded by ``drain_grace``), shut the
scheduler worker pools down cleanly, then stop the HTTP listener.

Crash safety: every job transition is written (fsync'd) to an
append-only :class:`~repro.serve.ledger.JobLedger` under the cache
directory *before* the daemon acts on it, and replayed on startup —
finished jobs answer from the ledger, queued/in-flight jobs are
re-admitted idempotently by signature. A ``kill -9`` costs at most one
re-run of the interrupted job; see ``docs/SERVE.md``.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import tempfile
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from .. import faults
from ..engine import TuningCache, TuningEngine
from ..engine.cache import default_cache_path, parse_cache_budget
from ..engine.scheduler import Job, SweepScheduler
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from .jobs import DONE, FAILED, MAX_RESULT_WAIT, JobRecord, RequestError, \
    TuneRequest, run_tune_job
from .ledger import JobLedger
from .queue import JobQueue, QueueClosed, QueueFull

logger = get_logger("serve")

#: job execution isolation: worker processes (timeout enforcement, crash
#: isolation) or in-daemon threads (no fork cost; timeouts unenforced)
ISOLATIONS = ("process", "thread")

#: request body bound — tuning sources are small; anything bigger is abuse
MAX_BODY_BYTES = 8 * 1024 * 1024

#: cache counter names aggregated from job results into the daemon registry
_CACHE_COUNTERS = (("hits", "engine.cache.hit"),
                   ("misses", "engine.cache.miss"),
                   ("stores", "engine.cache.store"),
                   ("evictions", "engine.cache.evict"),
                   ("dump_errors", "engine.cache.dump_errors"),
                   ("quarantined", "engine.cache.quarantined"))

_JOB_ID_RE = re.compile(r"^j(\d+)$")


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can be told on the command line."""

    host: str = "127.0.0.1"
    port: int = 8321
    workers: int = 2
    queue_depth: int = 32
    job_timeout: Optional[float] = None
    retries: int = 1
    isolation: str = "process"
    cache_dir: Optional[str] = None
    #: ``$REPRO_TUNING_CACHE_MAX`` syntax: bytes, ``k``/``m``/``g``, or
    #: ``<N>e`` entries
    cache_max: Optional[str] = None
    drain_grace: float = 30.0
    mp_context: Optional[str] = None
    #: durable job ledger (WAL + restart recovery); ``False`` restores
    #: the pre-ledger in-memory-only behavior
    ledger: bool = True


class TuneServer:
    """One daemon: HTTP front end + dispatchers + the shared cache."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config if config is not None else ServerConfig()
        if self.config.isolation not in ISOLATIONS:
            raise ValueError("isolation must be one of %s" %
                             (ISOLATIONS,))
        cache_dir = self.config.cache_dir or default_cache_path()
        if not cache_dir:
            cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
            logger.warning(
                "no cache directory configured ($REPRO_TUNING_CACHE or "
                "--cache); using throwaway %s — configure a persistent "
                "cache directory so the next daemon can find the warm "
                "state and the job ledger", cache_dir)
        self.cache_dir = cache_dir
        max_bytes, max_entries = parse_cache_budget(self.config.cache_max)
        #: the daemon's handle on the shared store (budget + occupancy);
        #: jobs build their own engine over the same directory
        self.cache = TuningCache(cache_dir, max_bytes=max_bytes,
                                 max_entries=max_entries)
        self.registry = obs_metrics.MetricsRegistry()
        self.queue = JobQueue(self.config.queue_depth)
        self.started_at = time.time()
        self.port = self.config.port
        self._draining = False
        self._job_ids = itertools.count(1)
        self._dispatchers: list = []
        self._schedulers: list = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._started = False
        self._serving = False
        self._stopped = threading.Event()
        self.recovered_jobs = 0
        self.replayed_finished = 0
        self.skipped_ledger_jobs = 0
        self.ledger: Optional[JobLedger] = None
        if self.config.ledger:
            self.ledger = JobLedger(os.path.join(cache_dir, "ledger"))
            self._recover()

    # -- restart recovery ----------------------------------------------------

    def _recover(self) -> None:
        """Replay the ledger: finished jobs become answerable records,
        incomplete jobs are re-admitted, and the job-id counter resumes
        past everything the previous daemon handed out."""
        states = self.ledger.recover()
        max_seen = 0
        for state in states.values():
            match = _JOB_ID_RE.match(state.job)
            if match:
                max_seen = max(max_seen, int(match.group(1)))
            payload = {key: value
                       for key, value in (state.payload or {}).items()
                       if key not in ("cache_dir", "cache_max_bytes",
                                      "cache_max_entries")}
            try:
                request = TuneRequest.from_payload(payload)
            except RequestError as error:
                self.skipped_ledger_jobs += 1
                logger.warning("skipping ledger job %s (unusable "
                               "payload: %s)", state.job, error)
                continue
            # the previous daemon's cache settings do not bind this one
            record = JobRecord(
                id=state.job, request=request,
                signature=state.signature or request.signature(),
                payload=dict(request.as_payload(),
                             cache_dir=self.cache_dir,
                             cache_max_bytes=self.cache.max_bytes,
                             cache_max_entries=self.cache.max_entries),
                recovered=True)
            if state.accepted_ts is not None:
                record.queued_at = state.accepted_ts
            if state.finished:
                record.state = DONE if state.event == "done" else FAILED
                record.result = state.result
                record.error = state.error
                record.finished_at = state.finished_ts
                self.queue.register(record)
                self.replayed_finished += 1
            else:
                self.queue.admit_recovered(record)
                self.ledger.append("recovered", record.id,
                                   signature=record.signature)
                self.recovered_jobs += 1
                logger.info("recovered job %s from the ledger (%s)",
                            record.id, request.describe())
        self._job_ids = itertools.count(max_seen + 1)
        if self.recovered_jobs:
            self.registry.counter("serve.recovered_jobs").inc(
                self.recovered_jobs)
        if self.replayed_finished:
            self.registry.counter("serve.replayed_finished").inc(
                self.replayed_finished)
        if self.recovered_jobs or self.replayed_finished:
            self._set_queue_gauges()
            logger.info("ledger replay: %d job(s) re-admitted, %d "
                        "finished job(s) answerable from the ledger",
                        self.recovered_jobs, self.replayed_finished)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and start the dispatcher threads."""
        if self._started:
            return
        self._started = True
        for index in range(max(1, self.config.workers)):
            scheduler = SweepScheduler(
                workers=1,
                timeout=self.config.job_timeout,
                retries=self.config.retries,
                degrade=False,  # a hung job must fail, not block a thread
                isolate=self.config.isolation == "process",
                mp_context=self.config.mp_context)
            # persistent: the worker process stays warm across jobs
            scheduler.__enter__()
            self._schedulers.append(scheduler)
            thread = threading.Thread(
                target=self._dispatch_loop, args=(scheduler,),
                name="serve-dispatch-%d" % index, daemon=True)
            thread.start()
            self._dispatchers.append(thread)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self
        self.port = self._httpd.server_address[1]
        logger.info("repro serve on http://%s:%d (%s isolation, %d "
                    "worker(s), cache %s)", self.config.host, self.port,
                    self.config.isolation, len(self._dispatchers),
                    self.cache_dir)

    def serve_forever(self) -> None:
        """Run the HTTP loop in the calling thread until drained."""
        self.start()
        self._serving = True
        if self._stopped.is_set():  # drained before the loop even began
            self._httpd.server_close()
            return
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self._httpd.server_close()

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        logger.info("received signal %d; draining", signum)
        # drain() joins threads and stops the HTTP loop — neither is
        # safe inside the signal handler running on the serving thread
        threading.Thread(target=self.drain, name="serve-drain",
                         daemon=True).start()

    def drain(self, grace: Optional[float] = None) -> bool:
        """Stop admissions, finish the backlog, reap workers, stop HTTP.

        Returns True when every dispatcher exited within ``grace``
        seconds. Idempotent; safe to call from any non-serving thread.
        """
        grace = self.config.drain_grace if grace is None else grace
        self._draining = True
        self.queue.close()
        deadline = time.monotonic() + max(0.0, grace)
        clean = True
        for thread in self._dispatchers:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
            clean = clean and not thread.is_alive()
        if not clean:
            logger.warning("drain grace (%.1fs) expired with jobs still "
                           "running; scheduler pools will be terminated",
                           grace)
        for scheduler in self._schedulers:
            scheduler.shutdown()
        if self.ledger is not None:
            self.ledger.close()
        self._stopped.set()
        # release long-polling result requests: the listener is about to
        # stop, and their jobs will not finish in this daemon
        for record in self.queue.jobs():
            record.wake()
        # shutdown() blocks until serve_forever's loop exits, so it must
        # only run when that loop is (or is about to be) running — the
        # _serving/_stopped handshake covers a drain that races startup
        if self._httpd is not None and self._serving:
            self._httpd.shutdown()
        return clean

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.config.host, self.port)

    # -- job intake ----------------------------------------------------------

    def submit_request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate + enqueue one request (the ``POST /v1/tune`` body).

        Raises :class:`RequestError` (400), :class:`QueueFull` (429), or
        :class:`QueueClosed` (503).
        """
        if self._draining:
            raise QueueClosed("daemon is draining")
        request = TuneRequest.from_payload(payload)
        signature = request.signature()
        job_payload = dict(request.as_payload(),
                           cache_dir=self.cache_dir,
                           cache_max_bytes=self.cache.max_bytes,
                           cache_max_entries=self.cache.max_entries)
        record = JobRecord(id="j%06d" % next(self._job_ids),
                           request=request, signature=signature,
                           payload=job_payload)
        # single-flight preview: is the same problem already in flight?
        coalesced = any(other.signature == signature
                        and not other.finished
                        for other in self.queue.jobs())
        # WAL-first: the job is durably "accepted" before the queue (and
        # before the client hears the id), so a crash between the two
        # re-admits it on restart instead of losing it
        if self.ledger is not None:
            self.ledger.append("accepted", record.id,
                               signature=signature, payload=job_payload)
        try:
            self.queue.submit(record)
        except QueueFull:
            self.registry.counter("serve.rejected_full").inc()
            if self.ledger is not None:  # rejected ≠ accepted: terminal
                self.ledger.append("failed", record.id,
                                   error="rejected: queue full")
            raise
        except QueueClosed:
            if self.ledger is not None:
                self.ledger.append("failed", record.id,
                                   error="rejected: daemon draining")
            raise
        self.registry.counter("serve.jobs_submitted").inc()
        self._set_queue_gauges()
        logger.info("queued %s: %s%s", record.id, request.describe(),
                    " (single-flight behind an identical job)"
                    if coalesced else "")
        return {"job": record.id, "state": record.state,
                "signature": signature, "single_flight": coalesced,
                "target": request.describe()}

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self, scheduler: SweepScheduler) -> None:
        while True:
            record = self.queue.next_job()
            if record is None:
                return
            try:
                self._execute(scheduler, record)
            except BaseException:  # never lose a dispatcher thread
                logger.exception("dispatcher crashed on job %s", record.id)
                record.fail("internal dispatcher error")
                # keep the ledger truthful: what the client saw as failed
                # must not silently re-run after a restart
                if self.ledger is not None and record.state == FAILED:
                    self.ledger.append("failed", record.id,
                                       error=record.error)
            finally:
                self.queue.task_done()
                self._set_queue_gauges()

    def _execute(self, scheduler: SweepScheduler,
                 record: JobRecord) -> None:
        faults.maybe_fault("serve.dispatch")
        # single-flight: identical tuning problems serialize, so the
        # first pays the tuning and the rest replay the shared cache
        with self.queue.signature_lock(record.signature):
            record.mark_running()
            if self.ledger is not None:
                self.ledger.append("running", record.id)
            if self.config.isolation == "thread":
                engine = TuningEngine(
                    cache=TuningCache(self.cache_dir,
                                      max_bytes=self.cache.max_bytes,
                                      max_entries=self.cache.max_entries))
                record.live_engine = engine
                runner = lambda payload: run_tune_job(payload,  # noqa: E731
                                                      engine=engine)
            else:
                runner = run_tune_job
            results = scheduler.run(runner,
                                    [Job(record.id, record.payload)])
        job_result = results[record.id]
        # WAL ordering: durably terminal before clients can observe it
        if self.ledger is not None:
            if job_result.ok:
                self.ledger.append("done", record.id,
                                   result=job_result.value)
            else:
                self.ledger.append("failed", record.id,
                                   error=job_result.error)
        record.finish(job_result)
        self._account(record)

    def _account(self, record: JobRecord) -> None:
        counter = self.registry.counter
        if record.timeouts:
            counter("serve.job_timeouts").inc(record.timeouts)
        if record.state == FAILED:
            counter("serve.jobs_failed").inc()
            logger.warning("job %s failed: %s", record.id, record.error)
            return
        counter("serve.jobs_completed").inc()
        result = record.result or {}
        self.registry.histogram("serve.job_seconds").observe(
            result.get("wall_seconds", 0.0))
        if result.get("cache_hit"):
            counter("serve.warm_jobs").inc()
        for result_key, counter_name in _CACHE_COUNTERS:
            amount = result.get("cache", {}).get(result_key, 0)
            if amount:
                counter(counter_name).inc(amount)
        for stage, seconds in (result.get("stages") or {}).items():
            self.registry.histogram("stage.%s" % stage).observe(seconds)
        counters = self.registry.counter_values()
        hits = counters.get("engine.cache.hit", 0)
        misses = counters.get("engine.cache.miss", 0)
        self.registry.gauge("serve.cache.hit_rate").set(
            hits / (hits + misses) if hits + misses else 0.0)
        logger.info("job %s done in %.2fs (%s)", record.id,
                    result.get("wall_seconds", 0.0),
                    "cache hit" if result.get("cache_hit")
                    else "cold tuning")

    def _set_queue_gauges(self) -> None:
        counts = self.queue.counts()
        self.registry.gauge("serve.queue_depth").set(counts["queued"])
        self.registry.gauge("serve.running_jobs").set(counts["running"])

    # -- read endpoints ------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.queue.counts(),
            "workers": len(self._dispatchers),
            "isolation": self.config.isolation,
            "queue_depth": self.config.queue_depth,
            "cache_path": self.cache_dir,
            "ledger": self.ledger is not None,
        }

    def cache_stats(self) -> Dict[str, Any]:
        counters = self.registry.counter_values()
        hits = counters.get("engine.cache.hit", 0)
        misses = counters.get("engine.cache.miss", 0)
        occupancy = self.cache.stats()
        return {
            "hits": hits,
            "misses": misses,
            "stores": counters.get("engine.cache.store", 0),
            "evictions": counters.get("engine.cache.evict", 0),
            "dump_errors": counters.get("engine.cache.dump_errors", 0),
            "quarantined": counters.get("engine.cache.quarantined", 0),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "disk_entries": occupancy["disk_entries"],
            "disk_bytes": occupancy["disk_bytes"],
            "max_bytes": self.cache.max_bytes,
            "max_entries": self.cache.max_entries,
            "path": self.cache_dir,
            "jobs": {
                "submitted": counters.get("serve.jobs_submitted", 0),
                "completed": counters.get("serve.jobs_completed", 0),
                "failed": counters.get("serve.jobs_failed", 0),
                "warm": counters.get("serve.warm_jobs", 0),
                "rejected_full": counters.get("serve.rejected_full", 0),
                "timeouts": counters.get("serve.job_timeouts", 0),
                "recovered": counters.get("serve.recovered_jobs", 0),
            },
        }

    def ledger_stats(self) -> Dict[str, Any]:
        """The ``GET /v1/ledger`` payload: WAL + recovery accounting."""
        payload: Dict[str, Any] = {
            "enabled": self.ledger is not None,
            "recovered_jobs": self.recovered_jobs,
            "replayed_finished": self.replayed_finished,
            "skipped_jobs": self.skipped_ledger_jobs,
        }
        if self.ledger is not None:
            payload["ledger"] = self.ledger.stats()
        return payload

    @staticmethod
    def fault_stats() -> Dict[str, Any]:
        """The ``GET /v1/faults`` payload: the active chaos plan."""
        plan = faults.active_plan()
        if plan is None:
            return {"installed": False}
        return dict({"installed": True}, **plan.stats())


# -- HTTP plumbing -----------------------------------------------------------


def _result_wait(query: str) -> float:
    """The ``wait`` seconds of a result request's query string, capped at
    :data:`MAX_RESULT_WAIT`; 0 when absent. Raises ``ValueError`` on a
    value that is not a non-negative number."""
    values = urllib.parse.parse_qs(query).get("wait")
    if not values:
        return 0.0
    wait = float(values[-1])
    if not wait >= 0.0:  # also rejects NaN
        raise ValueError(values[-1])
    return min(wait, MAX_RESULT_WAIT)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the owning :class:`TuneServer`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("http %s", format % args)

    @property
    def app(self) -> TuneServer:
        return self.server.app

    def _json(self, code: int, payload: Dict[str, Any],
              headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            path, _, query = self.path.partition("?")
            path = path.rstrip("/") or "/"
            if path == "/healthz":
                return self._json(200, self.app.health())
            if path == "/v1/cache/stats":
                return self._json(200, self.app.cache_stats())
            if path == "/v1/ledger":
                return self._json(200, self.app.ledger_stats())
            if path == "/v1/faults":
                return self._json(200, self.app.fault_stats())
            if path.startswith("/v1/jobs/"):
                return self._job_route(path[len("/v1/jobs/"):], query)
            return self._json(404, {"error": "no route %s" % path})
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self._internal_error("GET", error)

    def _internal_error(self, verb: str, error: Exception) -> None:
        logger.exception("unhandled error serving %s %s", verb,
                         self.path)
        try:
            self._json(500, {"error": "internal error: %s" % error})
        except OSError:
            pass  # response already underway or the client is gone

    def _job_route(self, rest: str, query: str) -> None:
        parts = rest.split("/")
        record = self.app.queue.get(parts[0])
        if record is None:
            return self._json(404, {"error": "unknown job %r" % parts[0]})
        if len(parts) == 1:
            return self._json(200, record.status_dict())
        if len(parts) == 2 and parts[1] == "result":
            try:
                wait = _result_wait(query)
            except ValueError:
                return self._json(400, {"error": "wait must be a "
                                        "non-negative number of seconds"})
            if wait > 0:
                record.wait_finished(wait, self.app._stopped.is_set)
            result = record.result_dict()
            if result is not None:
                return self._json(200, result)
            status = record.status_dict()
            if status["state"] == FAILED:
                return self._json(200, status)
            return self._json(202, status)  # not finished yet: ask again
        return self._json(404, {"error": "no route under job %s"
                                % parts[0]})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/tune":
            return self._json(404, {"error": "no route %s" % path})
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return self._json(400, {"error": "bad Content-Length"})
        if length > MAX_BODY_BYTES:
            return self._json(413, {"error": "request body over %d bytes"
                                    % MAX_BODY_BYTES})
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as error:
            return self._json(400, {"error": "invalid JSON: %s" % error})
        try:
            return self._json(200, self.app.submit_request(payload))
        except RequestError as error:
            return self._json(400, {"error": str(error)})
        except QueueFull as error:
            return self._json(429, {"error": str(error)},
                              headers={"Retry-After": "1"})
        except QueueClosed as error:
            return self._json(503, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self._internal_error("POST", error)
