"""The four benchmark workloads and their output checks.

Every workload runs in its own process: set-up, then one untimed pass
over the timed code path, then a fixed number of timed passes (fixed so
that percentiles land on the same rank in every run), then the output
checks. A traced run repeats the timed passes with the span wrappers of
:mod:`tracing` installed and reports per-layer numbers instead.

All timed work runs in steps of a few tenths of a second. Each step is
bracketed by :func:`stats.speed_sample` and its times are rescaled to the
reference machine speed by the mean of the two samples, so that the host
slowing down for a while does not read as the code getting slower.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import draw
import stats
import tracing

#: (timed passes per 10 s of ``--seconds``, floor that keeps every
#: percentile the workload reports at ten samples beyond it, jobs per
#: timed step). The counts also keep each percentile's rank inside one
#: cluster of similar-cost jobs, off the boundary between two.
PLAN = {
    "cold_tune": (4, 3, 1),
    "warm_replay": (25, 13, 8),
    "serve_warm": (30, 13, 8),
    "validated_tune": (4, 4, 1),
}

#: serve: closed-loop clients (and daemon workers); nproc is 2 here
CLIENTS = 2
#: serve: result poll interval, well below the ~40-90 ms warm service time
POLL_S = 0.004
#: fresh interpreters timed for the import part of ``setup_s``
IMPORT_REPEATS = 3

#: untuned reference for ``modeled_speedup``: the 1x1 config alone
UNTUNED = [{"block_total": 1, "thread_total": 1}]

Key = Tuple[str, str]


def passes_for(workload: str, seconds: int) -> int:
    per_10s, floor, _ = PLAN[workload]
    return max(floor, round(per_10s * seconds / 10.0))


# -- results and checks ------------------------------------------------------


@dataclass
class JobRecord:
    """What one job returned, for the output checks."""

    program: str
    arch: str
    seconds: Optional[float] = None
    #: wall seconds as measured, and rescaled to the reference speed
    latency: float = 0.0
    scaled: float = 0.0
    hits: int = 0
    misses: int = 0
    winners: Optional[Dict[str, str]] = None
    error: str = ""
    job_id: str = ""

    @property
    def key(self) -> Key:
        return (self.program, self.arch)


@dataclass
class Checks:
    """Output checks; each counts as attempted and, when false, failed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def check_jobs(checks: Checks, records: Sequence[JobRecord]) -> None:
    """Every job must succeed."""
    for record in records:
        checks.check(not record.error and record.seconds is not None,
                     "%s/%s failed: %s" % (record.program, record.arch,
                                           record.error or "no result"))


def check_same(checks: Checks, records: Sequence[JobRecord],
               reference: Dict[Key, JobRecord], warm: bool) -> None:
    """Every result must equal the reference (the same run's cold tune)
    in modeled seconds and, where the result carries them, in the winner
    of every wrapper; a warm result must also replay every tuning
    decision from the cache: zero misses, one hit per tuned wrapper."""
    for record in records:
        if record.error:
            continue  # already counted by check_jobs
        want = reference[record.key]
        label = "%s/%s%s" % (record.program, record.arch,
                             " job %s" % record.job_id
                             if record.job_id else "")
        checks.check(record.seconds == want.seconds,
                     "%s: modeled %r != cold %r" % (label, record.seconds,
                                                    want.seconds))
        if record.winners is not None:
            checks.check(record.winners == want.winners,
                         "%s: winners %r != cold %r" %
                         (label, record.winners, want.winners))
        if warm:
            checks.check(record.misses == 0 and record.hits == want.misses,
                         "%s: %d cache hits / %d misses, want %d / 0" %
                         (label, record.hits, record.misses, want.misses))


# -- timed steps -------------------------------------------------------------


@dataclass
class Step:
    wall: float
    cpu: float
    #: reference speed over the measured speed around this step
    factor: float
    #: what the step ran; steps with equal keys did the same work
    key: object = None


class Timeline:
    """Runs work in steps, each bracketed by a machine-speed sample."""

    def __init__(self):
        self.steps: List[Step] = []
        self._last: Optional[float] = None

    def step(self, body: Callable[[], object], key: object = None):
        """Run ``body``; returns ``(its result, the Step)``."""
        gc.collect()
        if self._last is None:
            self._last = stats.speed_sample()
        cpu = stats.tree_cpu_seconds()
        start = time.perf_counter()
        result = body()
        wall = time.perf_counter() - start
        cpu = stats.tree_cpu_seconds() - cpu
        after = stats.speed_sample()
        factor = 2.0 * stats.REFERENCE_LOOP_S / (self._last + after)
        self._last = after
        step = Step(wall, cpu, factor, key)
        self.steps.append(step)
        return result, step

    def jobs(self, body: Callable[[], list], key: object = None) -> list:
        """A step whose result is job records, or ``(record, ...)``
        tuples; rescales the records' latencies."""
        entries, step = self.step(body, key)
        for entry in entries:
            record = entry[0] if isinstance(entry, tuple) else entry
            record.scaled = record.latency * step.factor
        return entries

    @property
    def wall(self) -> float:
        return sum(step.wall * step.factor for step in self.steps)

    @property
    def raw_wall(self) -> float:
        return sum(step.wall for step in self.steps)

    def robust(self, measure: str) -> float:
        """The rescaled ``measure`` ("wall" or "cpu") summed over steps,
        with each step replaced by the median of the steps that did the
        same work: one slow step does not move it."""
        groups: Dict[object, List[float]] = {}
        for step in self.steps:
            groups.setdefault(step.key, []).append(
                getattr(step, measure) * step.factor)
        return sum(len(values) * stats.median(values)
                   for values in groups.values())


# -- running jobs in process -------------------------------------------------


def _winners(program) -> Dict[str, str]:
    return {wrapper: "%s %s" % (outcome.selected_desc,
                                json.dumps(outcome.selected_config,
                                           sort_keys=True))
            for wrapper, outcome in sorted(program.tuning_outcomes.items())}


@contextmanager
def capturing_programs():
    """Collect the Programs ``simulate_composite`` builds, so a job's
    winner per wrapper can be read after it returns."""
    from repro.benchsuite import base

    original = base.Program
    made: List[object] = []

    class Recording(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    base.Program = Recording
    try:
        yield made
    finally:
        base.Program = original


def new_engine(cache_dir: Optional[str], validate: bool = False):
    from repro.engine import TuningCache, TuningEngine
    return TuningEngine(cache=TuningCache(cache_dir), validate=validate)


class Runner:
    """Runs in-process jobs and keeps what the checks need."""

    def __init__(self, configs, made: List[object]):
        self.configs = configs
        self.made = made

    def run(self, program: str, arch: str, engine,
            recorder: Optional[tracing.Recorder] = None,
            job_id: str = "") -> JobRecord:
        from repro.benchsuite import simulate_composite

        record = JobRecord(program, arch, job_id=job_id)
        root = recorder.open("job", job_id) if recorder else None
        start = time.perf_counter()
        try:
            record.seconds = simulate_composite(
                program, arch, autotune_configs=self.configs, engine=engine)
        except Exception as error:  # noqa: BLE001 - a failed job is data
            record.error = "%s: %s" % (type(error).__name__, error)
        finally:
            record.latency = time.perf_counter() - start
            if root is not None:
                recorder.close(root)
        record.hits = engine.cache.hits
        record.misses = engine.cache.misses
        if self.made:
            record.winners = _winners(self.made[-1])
            del self.made[:]
        return record


# -- set-up and reporting ----------------------------------------------------


class Context:
    """One benchmark run: its arguments, scratch directory and checks."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int,
                 trace: bool, scratch: str):
        from repro.autotune import paper_sweep_configs

        self.root = root
        self.seed = seed
        self.trace = trace
        self.scratch = scratch
        self.passes = passes_for(workload, seconds)
        self.jobs_per_step = PLAN[workload][2]
        self.configs = paper_sweep_configs(max_product=draw.MAX_FACTOR)
        self.checks = Checks()
        self.notes: List[str] = []
        self.spans: List[tracing.Span] = []
        self.setup = Timeline()
        self.setup_imports: List[float] = []

    def tmpdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.scratch)

    def time_imports(self) -> None:
        """Time fresh interpreters importing the package."""
        for _ in range(IMPORT_REPEATS):
            _, step = self.setup.step(lambda: subprocess.run(
                [sys.executable, "-c", "import repro.benchsuite, "
                 "repro.serve"], cwd=self.root, check=True,
                stdout=subprocess.DEVNULL, timeout=120))
            self.setup_imports.append(step.wall * step.factor)

    @property
    def setup_s(self) -> float:
        """Median import plus every other set-up step, rescaled."""
        rest = self.setup.wall - sum(self.setup_imports)
        return stats.median(self.setup_imports) + rest

    def chunks(self, items: Sequence) -> List[Sequence]:
        size = self.jobs_per_step
        return [items[i:i + size] for i in range(0, len(items), size)]


def end_to_end(ctx: Context, timed: Timeline, records: Sequence[JobRecord],
               speedup: float, rss_mb: float,
               jobs_per_pass: int) -> Dict[str, tuple]:
    """``{metric: (value, unit, note)}`` for the untraced timed phase;
    adds one row per job to ``ctx.notes``."""
    by_job: Dict[Key, List[JobRecord]] = {}
    for record in records:
        by_job.setdefault(record.key, []).append(record)
    for (program, arch), runs in by_job.items():
        ctx.notes.append("%-15s %-6s median %8.2f ms (%8.2f as measured) "
                         "over %3d, modeled %.6g s" % (
                             program, arch,
                             stats.median([r.scaled for r in runs]) * 1e3,
                             stats.median([r.latency for r in runs]) * 1e3,
                             len(runs), runs[0].seconds or 0.0))
    ctx.notes.append("timed phase: %.3f s as measured, %.3f s rescaled"
                     % (timed.raw_wall, timed.wall))
    latencies = [record.scaled for record in records]
    n = len(latencies)
    tail = stats.tail_percentile(n)
    return {
        "setup_s": (ctx.setup_s, "s", "median of %d imports + preparation"
                    % IMPORT_REPEATS),
        "compile_cpu_s": (timed.robust("cpu") / ctx.passes, "s",
                          "process-tree CPU per pass of %d jobs, %d passes"
                          % (jobs_per_pass, ctx.passes)),
        "jobs_per_s": (n / timed.robust("wall"), "1/s", "n=%d" % n),
        "job_p50_ms": (stats.percentile(latencies, 50) * 1e3, "ms",
                       "n=%d" % n),
        "job_tail_ms": (stats.percentile(latencies, tail) * 1e3, "ms",
                        "p%.3g, n=%d" % (tail, n)),
        "peak_rss_mb": (rss_mb, "MB", "self + live children"),
        "modeled_speedup": (speedup, "x",
                            "geomean untuned/tuned modeled seconds, "
                            "%d jobs" % jobs_per_pass),
    }


def modeled_speedup(reference: Dict[Key, JobRecord]) -> float:
    """Geomean over jobs of untuned over tuned modeled composite seconds."""
    from repro.benchsuite import simulate_composite

    ratios = []
    for (program, arch), record in sorted(reference.items()):
        untuned = simulate_composite(program, arch, autotune_configs=UNTUNED,
                                     engine=new_engine(None))
        ratios.append(untuned / record.seconds)
    return stats.geomean(ratios)


def verify_drawn(ctx: Context, jobs: Sequence[Key]) -> None:
    """Each drawn program's tuned build must match its numpy reference;
    run untimed, with a throwaway engine."""
    from repro.benchsuite import verify_benchmark
    from repro.engine import set_default_engine
    from repro.targets import arch_by_name

    for program, arch in jobs:
        if program in draw.FIXED:
            continue
        set_default_engine(new_engine(None))
        try:
            result = verify_benchmark(program, arch_by_name(arch),
                                      autotune_configs=ctx.configs)
            ctx.checks.check(result.passed, "%s/%s: verify_benchmark max "
                             "error %g" % (program, arch, result.max_error))
        except Exception as error:  # noqa: BLE001 - a failed check is data
            ctx.checks.check(False, "%s/%s: verify_benchmark raised %s: %s"
                             % (program, arch, type(error).__name__, error))
        finally:
            set_default_engine(None)


def per_layer(ctx: Context, timed: Timeline, traced: Timeline, recorder,
              spans: Sequence[tracing.Span],
              serve: Optional[Dict[str, float]] = None
              ) -> Dict[str, tuple]:
    """Per-layer metrics of the ``traced`` phase, rescaled like its steps;
    ``timed`` is the same work untraced."""
    ctx.spans = list(spans)
    counts = tracing.counts_of(recorder)
    scale = traced.wall / traced.raw_wall
    overhead = traced.wall / timed.wall - 1.0
    layers, total = tracing.attribute(spans)
    per_pass = scale / ctx.passes
    metrics = {name: (layers[name] * per_pass, "s", "self time per pass")
               for name in tracing.LAYER_METRICS}
    metrics[tracing.RESIDUAL] = (layers[tracing.RESIDUAL] * per_pass, "s",
                                 "job time no layer span covers, per pass")
    metrics["traced_total_s"] = (total * per_pass, "s",
                                 "summed job time per pass")
    metrics["tracing_overhead"] = (overhead, "ratio",
                                   "traced/untraced timed-phase wall - 1")
    for name in ("frontend.ir_ops", "transforms.cleanup_calls",
                 "transforms.planned", "transforms.materialized",
                 "autotune.candidates", "engine.cache_stores",
                 "validate.alternatives", "validate.rejected",
                 "interpreter.calls", "serve.ledger_appends"):
        metrics[name] = (counts.get(name, 0) / ctx.passes, "count",
                         "per pass")
    inputs = counts.get("autotune.filter_inputs", 0)
    metrics["autotune.survivor_ratio"] = (
        counts.get("autotune.survivors", 0) / inputs if inputs else 0.0,
        "ratio", "filter survivors / planned alternatives")
    lookups = counts.get("engine.lookups", 0)
    metrics["engine.cache_hit_ratio"] = (
        counts.get("engine.hits", 0) / lookups if lookups else 0.0,
        "ratio", "hits / lookups")
    serve = serve or {}
    for name in ("serve.queue_wait_ms", "serve.run_ms", "serve.http_ms",
                 "engine.scheduler_ipc_ms"):
        metrics[name] = (serve.get(name, 0.0) * scale, "ms",
                         "median per job")
    metrics["serve.polls_per_job"] = (serve.get("serve.polls_per_job", 0.0),
                                      "count", "mean")
    return metrics


def traced_phase(body: Callable[[tracing.Recorder], object]):
    """Run ``body(recorder)`` with the span wrappers installed."""
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        return recorder, body(recorder)
    finally:
        tracing.uninstall(saved)


# -- in-process workloads ----------------------------------------------------


def _in_process(ctx: Context, jobs: Sequence[Key],
                prepare: Optional[Callable[[Runner], Dict[Key, JobRecord]]],
                engine_for: Callable[[], object], warm: bool):
    """The shared shape of cold_tune, warm_replay and validated_tune.

    ``prepare`` does the set-up and returns the cold reference per job;
    without it, the untimed pass is the reference. ``engine_for`` builds
    the engine of one timed job.
    """
    with capturing_programs() as made:
        runner = Runner(ctx.configs, made)
        ctx.time_imports()
        reference = prepare(runner) if prepare is not None else None
        # the untimed pass over the timed code path
        warmup = []
        for program, arch in jobs:
            warmup += ctx.setup.jobs(lambda p=program, a=arch: [
                runner.run(p, a, engine_for())])
        if reference is None:
            reference = {record.key: record for record in warmup}
        gc.collect()
        gc.freeze()  # set-up state is not the timed jobs' garbage

        def timed_passes(recorder=None):
            timeline = Timeline()
            todo = [(program, arch, "%s/%s#%d" % (program, arch, index))
                    for index in range(ctx.passes)
                    for program, arch in jobs]
            out: List[JobRecord] = []
            for chunk in ctx.chunks(todo):
                out += timeline.jobs(lambda chunk=chunk: [
                    runner.run(p, a, engine_for(), recorder, job)
                    for p, a, job in chunk],
                    key=tuple((p, a) for p, a, _ in chunk))
            return timeline, out

        timed, records = timed_passes()
        rss = stats.tree_peak_rss_mb()
        traced = None
        if ctx.trace:
            recorder, (traced, traced_records) = traced_phase(timed_passes)
            records = records + traced_records
    all_records = warmup + records
    check_jobs(ctx.checks, all_records)
    check_same(ctx.checks, all_records, reference, warm)
    if traced is not None:
        return per_layer(ctx, timed, traced, recorder, recorder.spans)
    return end_to_end(ctx, timed, records, modeled_speedup(reference), rss,
                      len(jobs))


def _cold_reference(ctx: Context, runner: Runner, jobs: Sequence[Key],
                    shared_dir: str) -> Dict[Key, JobRecord]:
    """Cold-tune every job into the shared cache directory."""
    reference = {}
    for program, arch in jobs:
        record, = ctx.setup.jobs(lambda p=program, a=arch: [
            runner.run(p, a, new_engine(shared_dir))])
        check_jobs(ctx.checks, [record])
        reference[record.key] = record
    return reference


def _note_jobs(ctx: Context, jobs: Sequence[Key]) -> None:
    ctx.notes.append("jobs: %s" % " ".join("%s/%s" % job for job in jobs))


def cold_tune(ctx: Context):
    jobs = draw.jobs_for(ctx.seed)
    _note_jobs(ctx, jobs)
    metrics = _in_process(ctx, jobs, None,
                          lambda: new_engine(ctx.tmpdir("cold-")),
                          warm=False)
    verify_drawn(ctx, jobs)
    return metrics


def warm_replay(ctx: Context):
    jobs = draw.jobs_for(ctx.seed)
    _note_jobs(ctx, jobs)
    shared = ctx.tmpdir("warm-cache-")
    metrics = _in_process(
        ctx, jobs,
        lambda runner: _cold_reference(ctx, runner, jobs, shared),
        lambda: new_engine(shared), warm=True)
    verify_drawn(ctx, jobs)
    return metrics


def validated_tune(ctx: Context):
    jobs = draw.validated_jobs(ctx.seed)
    _note_jobs(ctx, jobs)
    return _in_process(
        ctx, jobs, None,
        lambda: new_engine(ctx.tmpdir("validated-"), validate=True),
        warm=False)


# -- the served workload -----------------------------------------------------


def closed_loop(client, requests: Sequence[Key],
                recorder: Optional[tracing.Recorder] = None
                ) -> List[Tuple[JobRecord, Optional[tracing.Span], dict]]:
    """``CLIENTS`` threads; each sends its next request only after the
    previous reply arrived, like ``repro submit --wait``."""
    pending = list(enumerate(requests))
    out: List[Optional[tuple]] = [None] * len(requests)
    lock = threading.Lock()

    def client_loop():
        while True:
            with lock:
                if not pending:
                    return
                index, (program, arch) = pending.pop(0)
            record = JobRecord(program, arch)
            root = recorder.open("serve.job") if recorder else None
            start = time.perf_counter()
            result: dict = {}
            try:
                job = client.submit({"benchmark": program, "arch": arch,
                                     "max_factor": draw.MAX_FACTOR})
                record.job_id = job["job"]
                if root is not None:
                    root.job = record.job_id
                result = client.wait(record.job_id, timeout=120.0,
                                     poll=POLL_S)
                record.seconds = result["seconds"]
                record.hits = result["cache"]["hits"]
                record.misses = result["cache"]["misses"]
            except Exception as error:  # noqa: BLE001 - a failed job is data
                record.error = "%s: %s" % (type(error).__name__, error)
            finally:
                record.latency = time.perf_counter() - start
                if root is not None:
                    recorder.close(root)
            out[index] = (record, root, result)

    threads = [threading.Thread(target=client_loop, name="client-%d" % i)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve clients did not finish")
    return [entry for entry in out if entry is not None]


def _serve_layers(client, served, recorder) -> Tuple[list, dict]:
    """Span trees and per-job medians of a traced serve phase."""
    offset = time.time() - time.perf_counter()
    ids = iter(range(10 ** 9, 2 * 10 ** 9)).__next__
    spans, waits, runs, http, ipc, polls = [], [], [], [], [], []
    by_job: Dict[str, List[tracing.Span]] = {}
    for span in recorder.spans:
        if span.job is not None:
            by_job.setdefault(span.job, []).append(span)
    counts = recorder.counts
    for record, root, result in served:
        if record.error or root is None:
            continue
        status = client.job(record.job_id)
        own = by_job.get(record.job_id, [])
        spans.extend(tracing.serve_job_spans(root, status, result, own, ids,
                                             offset))
        queued = float(status["queued_at"])
        started = float(status["started_at"])
        finished = float(status["finished_at"])
        waits.append(started - queued)
        runs.append(finished - started)
        http.append(root.duration - (finished - queued))
        ipc += [span.duration - float(result["wall_seconds"])
                for span in own if span.name == "engine.scheduler"]
        polls.append(sum(1 for span in own
                         if span.name == "serve.client.poll"))
        cache = result["cache"]
        counts["engine.lookups"] += cache["hits"] + cache["misses"]
        counts["engine.hits"] += cache["hits"]
        counts["engine.cache_stores"] += cache["stores"]
    medians = {
        "serve.queue_wait_ms": stats.median(waits) * 1e3,
        "serve.run_ms": stats.median(runs) * 1e3,
        "serve.http_ms": stats.median(http) * 1e3,
        "engine.scheduler_ipc_ms": stats.median(ipc) * 1e3,
        "serve.polls_per_job": sum(polls) / len(polls),
    }
    return spans, medians


def serve_warm(ctx: Context):
    from repro.serve.client import ServeClient
    from repro.serve.server import ServerConfig, TuneServer

    jobs = draw.jobs_for(ctx.seed)
    _note_jobs(ctx, jobs)
    cache_dir = ctx.tmpdir("serve-cache-")
    ctx.time_imports()
    with capturing_programs() as made:
        reference = _cold_reference(ctx, Runner(ctx.configs, made), jobs,
                                    cache_dir)
    # the production defaults: process isolation, 2 workers, ledger on
    server = TuneServer(ServerConfig(host="127.0.0.1", port=0,
                                     workers=CLIENTS, cache_dir=cache_dir))
    serving = threading.Thread(target=server.serve_forever,
                               name="serve-http")
    ctx.setup.step(server.start)
    serving.start()
    try:
        client = ServeClient(server.url, timeout=60.0)
        # the untimed pass: warms both workers and the request path
        served = ctx.setup.jobs(lambda: closed_loop(client, jobs))
        gc.collect()
        gc.freeze()
        requests = [job for _ in range(ctx.passes) for job in jobs]

        def timed_passes(recorder=None):
            timeline = Timeline()
            out = []
            for chunk in ctx.chunks(requests):
                out += timeline.jobs(
                    lambda chunk=chunk: closed_loop(client, chunk, recorder),
                    key=tuple(chunk))
            return timeline, out

        timed, timed_served = timed_passes()
        rss = stats.tree_peak_rss_mb()
        served += timed_served
        layers = None
        if ctx.trace:
            recorder, (traced, traced_served) = traced_phase(timed_passes)
            served += traced_served
            spans, medians = _serve_layers(client, traced_served, recorder)
            layers = per_layer(ctx, timed, traced, recorder, spans, medians)
    finally:
        server.drain(grace=30.0)
        serving.join(timeout=30.0)
    records = [record for record, _, _ in served]
    check_jobs(ctx.checks, records)
    check_same(ctx.checks, records, reference, warm=True)
    verify_drawn(ctx, jobs)
    if layers is not None:
        return layers
    return end_to_end(ctx, timed, [record for record, _, _ in timed_served],
                      modeled_speedup(reference), rss, len(jobs))


WORKLOADS = {
    "cold_tune": cold_tune,
    "warm_replay": warm_replay,
    "serve_warm": serve_warm,
    "validated_tune": validated_tune,
}
