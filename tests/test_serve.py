"""Tests for the ``repro serve`` daemon: request schema, queue admission,
single-flight coalescing, the HTTP API end to end, drain semantics, and
the shared-cache regression paths (LRU eviction budgets, dump-error
accounting)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.engine import TuningCache
from repro.engine.cache import CACHE_MAX_ENV, CacheEntry, \
    parse_cache_budget
from repro.frontend import CodegenError
from repro.obs import metrics as obs_metrics
from repro.serve import (JobQueue, QueueClosed, QueueFull, RequestError,
                         ServeClient, ServeError, ServerConfig,
                         TuneRequest, TuneServer, run_tune_job)
from repro.serve.jobs import MAX_RESULT_WAIT, JobRecord

SOURCE = """
__global__ void scale(float *x, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) x[i] = x[i] * a;
}
"""

SOURCE_REQUEST = {"source": SOURCE, "kernel": "scale", "arch": "a100",
                  "grid": [64], "block": [64], "max_factor": 4}


# -- request schema ----------------------------------------------------------


class TestTuneRequest:
    def test_benchmark_request_roundtrip(self):
        request = TuneRequest.from_payload(
            {"benchmark": "lud", "arch": "a100", "tier": "clang"})
        assert request.benchmark == "lud"
        assert request.arch == "NVIDIA A100"
        assert request.tier == "clang"
        again = TuneRequest.from_payload(request.as_payload())
        assert again.signature() == request.signature()

    def test_source_request_defaults(self):
        request = TuneRequest.from_payload({"source": SOURCE})
        assert request.arch == "NVIDIA A100"
        assert request.grid == (1024,) and request.block == (256,)

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "exactly one"),
        ({"benchmark": "lud", "source": SOURCE}, "exactly one"),
        ({"benchmark": "nope"}, "unknown benchmark"),
        ({"benchmark": "lud", "arch": "gtx9000"}, "no architecture"),
        ({"benchmark": "lud", "tier": "llvm"}, "tier"),
        ({"source": SOURCE, "grid": [0]}, "grid"),
        ({"source": SOURCE, "block": "x,y"}, "block"),
        ({"benchmark": "lud", "max_factor": 0}, "max_factor"),
        ({"benchmark": "lud", "size": "big"}, "size"),
        ("not a dict", "JSON object"),
    ])
    def test_invalid_payloads(self, payload, fragment):
        with pytest.raises(RequestError, match=fragment):
            TuneRequest.from_payload(payload)

    def test_signature_separates_problems(self):
        base = TuneRequest.from_payload({"benchmark": "lud"})
        other_arch = TuneRequest.from_payload(
            {"benchmark": "lud", "arch": "mi210"})
        other_tier = TuneRequest.from_payload(
            {"benchmark": "lud", "tier": "clang"})
        signatures = {base.signature(), other_arch.signature(),
                      other_tier.signature()}
        assert len(signatures) == 3

    def test_signature_uses_source_digest(self):
        one = TuneRequest.from_payload({"source": SOURCE})
        two = TuneRequest.from_payload({"source": SOURCE})
        assert one.signature() == two.signature()
        changed = TuneRequest.from_payload({"source": SOURCE + "// x\n"})
        assert changed.signature() != one.signature()


# -- queue admission ---------------------------------------------------------


def _record(job_id="j1", signature="sig"):
    request = TuneRequest.from_payload({"benchmark": "lud"})
    return JobRecord(id=job_id, request=request, signature=signature,
                     payload=request.as_payload())


class TestJobQueue:
    def test_depth_bound_counts_running_jobs(self):
        queue = JobQueue(depth=2)
        queue.submit(_record("a"))
        queue.submit(_record("b"))
        with pytest.raises(QueueFull):
            queue.submit(_record("c"))
        # pulling a job keeps it counted (running), so still full
        assert queue.next_job().id == "a"
        with pytest.raises(QueueFull):
            queue.submit(_record("c"))
        queue.task_done()
        queue.submit(_record("c"))

    def test_close_rejects_then_drains(self):
        queue = JobQueue(depth=4)
        queue.submit(_record("a"))
        queue.close()
        with pytest.raises(QueueClosed):
            queue.submit(_record("b"))
        assert queue.next_job().id == "a"  # backlog still served
        queue.task_done()
        assert queue.next_job() is None    # then dispatchers retire

    def test_close_wakes_blocked_dispatcher(self):
        queue = JobQueue(depth=4)
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(queue.next_job()), daemon=True)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive() and seen == [None]

    def test_signature_locks_are_shared_and_bounded(self):
        queue = JobQueue()
        assert queue.signature_lock("s1") is queue.signature_lock("s1")
        assert queue.signature_lock("s1") is not queue.signature_lock("s2")
        for index in range(queue.LOCK_TABLE_CAP + 10):
            queue.signature_lock("bulk-%d" % index)
        assert len(queue._signature_locks) <= queue.LOCK_TABLE_CAP + 1

    def test_counts_tracks_lifecycle(self):
        queue = JobQueue()
        record = _record("a")
        queue.submit(record)
        assert queue.counts()["queued"] == 1
        queue.next_job()
        assert queue.counts()["running"] == 1
        assert not queue.idle()
        queue.task_done()
        assert queue.idle()


# -- cache budgets and failure accounting (the bugfix sweep) -----------------


class TestCacheBudgets:
    @pytest.mark.parametrize("text,expect", [
        (None, (None, None)),
        ("", (None, None)),
        ("4096", (4096, None)),
        ("64k", (64 * 1024, None)),
        ("1.5m", (int(1.5 * 1024 ** 2), None)),
        ("2g", (2 * 1024 ** 3, None)),
        ("12e", (None, 12)),
        ("banana", (None, None)),   # warned about, never fatal
    ])
    def test_parse_cache_budget(self, text, expect):
        assert parse_cache_budget(text) == expect

    def test_env_budget_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_ENV, "3e")
        cache = TuningCache(str(tmp_path))
        assert cache.max_entries == 3 and cache.max_bytes is None

    def test_entry_budget_evicts_lru_on_disk(self, tmp_path):
        cache = TuningCache(str(tmp_path), max_entries=2)
        for index in range(4):
            cache.store("key%d" % index, CacheEntry(None, {"i": index}))
            time.sleep(0.01)  # distinct mtimes on coarse filesystems
        assert cache.disk_entries() == 2
        # the newest stores survive; the oldest were evicted
        assert cache.lookup("key3")[0] and cache.lookup("key2")[0]
        assert cache.stats()["evictions"] == 2

    def test_byte_budget_never_evicts_fresh_store(self, tmp_path):
        cache = TuningCache(str(tmp_path), max_bytes=1)
        cache.store("only", CacheEntry(None, {"cfg": 1}))
        # over budget, but the entry just written is never the victim
        assert cache.lookup("only")[0]

    def test_disk_hit_refreshes_lru_position(self, tmp_path):
        cache = TuningCache(str(tmp_path), max_entries=2)
        cache.store("old", CacheEntry(None, {"i": 0}))
        time.sleep(0.01)
        cache.store("mid", CacheEntry(None, {"i": 1}))
        time.sleep(0.01)
        # a fresh reader hits "old" from disk, touching its mtime
        reader = TuningCache(str(tmp_path), max_entries=2)
        assert reader.lookup("old")[0]
        time.sleep(0.01)
        cache.store("new", CacheEntry(None, {"i": 2}))
        assert cache.lookup("old")[0]      # refreshed, survived
        assert not cache.lookup("mid")[0]  # became the LRU victim

    def test_eviction_stable_under_concurrent_writers(self, tmp_path):
        caches = [TuningCache(str(tmp_path), max_entries=4)
                  for _ in range(4)]
        errors = []

        def writer(cache, base):
            try:
                for index in range(12):
                    cache.store("k%d-%d" % (base, index),
                                CacheEntry(None, {"i": index}))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(cache, base))
                   for base, cache in enumerate(caches)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # budget respected (small slack for in-flight racing stores)
        assert caches[0].disk_entries() <= 6
        total_evictions = sum(c.stats()["evictions"] for c in caches)
        assert total_evictions >= 48 - 6

    def test_dump_error_counted_and_warned_once(self, tmp_path, caplog):
        cache = TuningCache(str(tmp_path))
        # a regular file where the cache dir should be makes every dump
        # fail with NotADirectoryError (an OSError) even when running
        # as root, unlike permission bits
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache.path = str(blocker)
        with obs_metrics.collecting() as registry:
            with caplog.at_level("WARNING", logger="repro.engine.cache"):
                cache.store("k1", CacheEntry(None, {"a": 1}))
                cache.store("k2", CacheEntry(None, {"a": 2}))
        assert cache.dump_errors == 2
        assert cache.stats()["dump_errors"] == 2
        assert registry.counter_value("engine.cache.dump_errors") == 2
        warnings = [r for r in caplog.records
                    if "cannot persist tuning cache" in r.message]
        assert len(warnings) == 1  # loud once, quiet after

    def test_metrics_counters_on_installed_registry(self, tmp_path):
        with obs_metrics.collecting() as registry:
            cache = TuningCache(str(tmp_path), max_entries=1)
            cache.store("a", CacheEntry(None, {}))
            time.sleep(0.01)
            cache.store("b", CacheEntry(None, {}))   # evicts "a"
            cache.lookup("b")
            cache.lookup("missing")
        counters = registry.counter_values()
        assert counters["engine.cache.store"] == 2
        assert counters["engine.cache.hit"] == 1
        assert counters["engine.cache.miss"] == 1
        assert counters["engine.cache.evict"] == 1


# -- the job runner ----------------------------------------------------------


class TestRunTuneJob:
    def test_source_job_cold_then_warm(self, tmp_path):
        payload = dict(
            TuneRequest.from_payload(SOURCE_REQUEST).as_payload(),
            cache_dir=str(tmp_path))
        cold = run_tune_job(payload)
        assert cold["seconds"] > 0
        assert not cold["cache_hit"]
        assert cold["cache"]["misses"] >= 1
        assert cold["winners"], "TDO decision log should name a winner"
        warm = run_tune_job(payload)
        assert warm["cache_hit"]
        assert warm["cache"]["misses"] == 0
        assert warm["seconds"] == pytest.approx(cold["seconds"])

    def test_warm_winners_equal_cold_winners(self, tmp_path):
        payload = dict(TuneRequest.from_payload(
            {"benchmark": "gaussian", "arch": "a100", "max_factor": 4}
        ).as_payload(), cache_dir=str(tmp_path))
        cold = run_tune_job(payload)
        warm = run_tune_job(payload)
        # cold winners are what TDO selected, as the decision log says
        logged = [{"wrapper": decision["wrapper"],
                   "desc": alternative["desc"],
                   "time_seconds": alternative["time_seconds"]}
                  for decision in cold["decisions"]
                  for alternative in decision["alternatives"]
                  if alternative["selected"]]
        assert cold["winners"] == logged
        assert [w["wrapper"] for w in cold["winners"]] == \
            ["Fan1__g1b16", "Fan2__g2b4x4"]
        # a replay logs no decisions, yet names the same winners
        assert warm["cache_hit"] and warm["decisions"] == []
        assert warm["winners"] == cold["winners"]

    def test_source_without_kernels_fails(self, tmp_path):
        payload = dict(TuneRequest.from_payload(
            {"source": "int main() { return 0; }"}).as_payload(),
            cache_dir=str(tmp_path))
        with pytest.raises(CodegenError, match="no __global__ kernels"):
            run_tune_job(payload)


# -- the daemon over HTTP ----------------------------------------------------


def _start_server(**overrides):
    config = dict(port=0, workers=2, isolation="thread",
                  queue_depth=8, drain_grace=20.0)
    config.update(overrides)
    server = TuneServer(ServerConfig(**config))
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    # retries=0: admission tests want the raw 429/503, not the backoff
    client = ServeClient(server.url, timeout=10.0, retries=0)
    deadline = time.monotonic() + 10
    while not client.alive():
        assert time.monotonic() < deadline, "daemon never came up"
        time.sleep(0.05)
    return server, client


@pytest.fixture
def daemon(tmp_path):
    server, client = _start_server(cache_dir=str(tmp_path / "cache"))
    yield server, client
    server.drain(grace=20.0)


class TestDaemonHTTP:
    def test_submit_status_result_roundtrip(self, daemon):
        server, client = daemon
        submitted = client.submit(SOURCE_REQUEST)
        assert submitted["state"] == "queued"
        assert not submitted["single_flight"]
        result = client.wait(submitted["job"], timeout=60)
        assert result["state"] == "done"
        assert result["seconds"] > 0
        assert result["decisions"], "result must carry the decision log"
        status = client.job(submitted["job"])
        assert status["state"] == "done"
        assert status["cache_hit"] is False

    def test_second_identical_request_is_warm(self, daemon):
        server, client = daemon
        first = client.wait(client.submit(SOURCE_REQUEST)["job"],
                            timeout=60)
        second = client.wait(client.submit(SOURCE_REQUEST)["job"],
                             timeout=60)
        assert not first["cache_hit"]
        assert second["cache_hit"]
        assert second["cache"]["misses"] == 0
        stats = client.cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1
        assert stats["jobs"]["completed"] == 2
        assert stats["jobs"]["warm"] == 1
        assert stats["disk_entries"] >= 1

    def test_concurrent_identical_requests_single_flight(self, tmp_path):
        server, client = _start_server(
            cache_dir=str(tmp_path / "cache"), workers=4, queue_depth=16)
        try:
            results, errors = [], []

            def one_client():
                try:
                    local = ServeClient(server.url, timeout=10.0)
                    job = local.submit(SOURCE_REQUEST)["job"]
                    results.append(local.wait(job, timeout=120))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=one_client)
                       for _ in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert len(results) == 5
            # one tuning run, N-1 replayed from the shared cache
            cold = [r for r in results if not r["cache_hit"]]
            warm = [r for r in results if r["cache_hit"]]
            assert len(cold) == 1 and len(warm) == 4
            assert all(r["seconds"] ==
                       pytest.approx(cold[0]["seconds"])
                       for r in warm)
            stats = server.cache_stats()
            assert stats["jobs"]["completed"] == 5
            assert stats["jobs"]["warm"] == 4
        finally:
            server.drain(grace=20.0)

    def test_source_without_kernels_fails_the_job(self, daemon):
        # no kernel named and none in the source: accepted, then the job
        # fails saying so
        server, client = daemon
        submitted = client.submit({"source": "int main() { return 0; }"})
        with pytest.raises(ServeError, match="no __global__ kernels"):
            client.wait(submitted["job"], timeout=60)
        assert client.job(submitted["job"])["state"] == "failed"

    def test_bad_request_is_400(self, daemon):
        server, client = daemon
        with pytest.raises(ServeError) as excinfo:
            client.submit({"benchmark": "nope"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({})
        assert excinfo.value.status == 400

    def test_unknown_routes_and_jobs_are_404(self, daemon):
        server, client = daemon
        for path in ("/v1/jobs/j999999", "/v1/nope"):
            with pytest.raises(ServeError) as excinfo:
                client._call(path)
            assert excinfo.value.status == 404

    def test_malformed_json_is_400(self, daemon):
        server, client = daemon
        request = urllib.request.Request(
            server.url + "/v1/tune", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_healthz(self, daemon):
        server, client = daemon
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["isolation"] == "thread"


class TestAdmissionControl:
    def test_queue_full_maps_to_429(self, tmp_path, monkeypatch):
        import repro.serve.server as server_module
        release = threading.Event()

        def stalled_job(payload, engine=None):
            release.wait(30)
            return run_tune_job(payload, engine=engine)

        monkeypatch.setattr(server_module, "run_tune_job", stalled_job)
        server, client = _start_server(
            cache_dir=str(tmp_path / "cache"), workers=1, queue_depth=1)
        try:
            first = client.submit(SOURCE_REQUEST)
            # depth 1: the stalled job saturates queued+running
            with pytest.raises(ServeError) as excinfo:
                client.submit(SOURCE_REQUEST)
            assert excinfo.value.status == 429
            assert server.cache_stats()["jobs"]["rejected_full"] == 1
            release.set()
            assert client.wait(first["job"], timeout=60)["state"] == "done"
        finally:
            release.set()
            server.drain(grace=20.0)

    def test_draining_maps_to_503(self, tmp_path):
        server, client = _start_server(cache_dir=str(tmp_path / "cache"))
        try:
            job = client.submit(SOURCE_REQUEST)["job"]
            drainer = threading.Thread(target=server.drain, daemon=True)
            drainer.start()
            deadline = time.monotonic() + 10
            while not server.draining:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # admissions closed while the backlog still completes
            with pytest.raises((ServeError, OSError)) as excinfo:
                ServeClient(server.url, timeout=5.0,
                            retries=0).submit(SOURCE_REQUEST)
            if isinstance(excinfo.value, ServeError) \
                    and excinfo.value.status:
                assert excinfo.value.status == 503
            drainer.join(timeout=30)
            assert not drainer.is_alive()
            record = server.queue.get(job)
            assert record is not None and record.finished
        finally:
            if not server._stopped.is_set():
                server.drain(grace=20.0)

    def test_drain_reaps_scheduler_pools(self, tmp_path):
        server, client = _start_server(cache_dir=str(tmp_path / "cache"))
        client.wait(client.submit(SOURCE_REQUEST)["job"], timeout=60)
        assert server.drain(grace=20.0)
        assert all(s.pool_size == 0 for s in server._schedulers)
        assert server.queue.closed


# -- client resilience: retry/backoff, daemon-death fail-fast ----------------


class _ScriptedServer:
    """An HTTP stub replaying a scripted list of (status, headers, body)
    responses, for exercising the client's retry loop without a daemon."""

    def __init__(self, script):
        from http.server import BaseHTTPRequestHandler, \
            ThreadingHTTPServer
        self.script = list(script)
        self.requests = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def _reply(self):
                stub.requests.append(self.path)
                status, headers, body = stub.script.pop(0) \
                    if stub.script else (500, {}, {"error": "script over"})
                payload = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):  # noqa: N802
                self._reply()

            def do_POST(self):  # noqa: N802
                self.rfile.read(
                    int(self.headers.get("Content-Length") or 0))
                self._reply()

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = "http://127.0.0.1:%d" % self.httpd.server_address[1]
        threading.Thread(target=self.httpd.serve_forever,
                         daemon=True).start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


class TestClientRetry:
    def test_429_retried_until_success(self):
        stub = _ScriptedServer([
            (429, {"Retry-After": "0"}, {"error": "full"}),
            (429, {"Retry-After": "0"}, {"error": "full"}),
            (200, {}, {"job": "j000001", "state": "queued"}),
        ])
        try:
            client = ServeClient(stub.url, retries=2, backoff=0.01)
            assert client.submit(SOURCE_REQUEST)["job"] == "j000001"
            assert len(stub.requests) == 3
        finally:
            stub.close()

    def test_retry_honors_retry_after(self):
        stub = _ScriptedServer([
            (503, {"Retry-After": "0.4"}, {"error": "draining"}),
            (200, {}, {"job": "j000002", "state": "queued"}),
        ])
        try:
            client = ServeClient(stub.url, retries=1, backoff=0.01)
            start = time.monotonic()
            client.submit(SOURCE_REQUEST)
            # the server asked for 0.4s; exponential backoff alone would
            # have retried after ~0.01s
            assert time.monotonic() - start >= 0.4
        finally:
            stub.close()

    def test_retries_exhausted_raises_last_status(self):
        stub = _ScriptedServer(
            [(429, {"Retry-After": "0"}, {"error": "full"})] * 3)
        try:
            client = ServeClient(stub.url, retries=2, backoff=0.01)
            with pytest.raises(ServeError) as excinfo:
                client.submit(SOURCE_REQUEST)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.0
            assert len(stub.requests) == 3  # initial + 2 retries
        finally:
            stub.close()

    def test_400_never_retried(self):
        stub = _ScriptedServer([(400, {}, {"error": "bad body"})])
        try:
            client = ServeClient(stub.url, retries=3, backoff=0.01)
            with pytest.raises(ServeError) as excinfo:
                client.submit({})
            assert excinfo.value.status == 400
            assert len(stub.requests) == 1
        finally:
            stub.close()

    def test_retries_zero_fails_fast(self):
        stub = _ScriptedServer([(429, {}, {"error": "full"})])
        try:
            client = ServeClient(stub.url, retries=0)
            with pytest.raises(ServeError):
                client.submit(SOURCE_REQUEST)
            assert len(stub.requests) == 1
        finally:
            stub.close()


class TestWaitFailFast:
    def test_wait_fails_fast_on_dead_daemon(self):
        # nothing listens on port 9: connection refused, not a timeout
        client = ServeClient("http://127.0.0.1:9", timeout=2.0,
                             retries=0)
        start = time.monotonic()
        with pytest.raises(ServeError, match="unreachable"):
            client.wait("j000001", timeout=120.0)
        # fail-fast: nowhere near the 120s wait budget
        assert time.monotonic() - start < 30

    def test_wait_fails_fast_when_daemon_dies_mid_poll(
            self, tmp_path, monkeypatch):
        import repro.serve.server as server_module
        release = threading.Event()

        def stalled_job(payload, engine=None):
            release.wait(30)
            return run_tune_job(payload, engine=engine)

        monkeypatch.setattr(server_module, "run_tune_job", stalled_job)
        server, client = _start_server(
            cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            job = client.submit(SOURCE_REQUEST)["job"]
            # the listener dies out from under the polling client
            server._httpd.shutdown()
            server._httpd.server_close()
            start = time.monotonic()
            with pytest.raises(ServeError, match="unreachable"):
                client.wait(job, timeout=120.0)
            assert time.monotonic() - start < 30
        finally:
            release.set()
            server.drain(grace=20.0)


# -- long-polled results -----------------------------------------------------


def _stall_jobs(monkeypatch):
    """Make every job wait for the returned event before it runs."""
    import repro.serve.server as server_module
    release = threading.Event()

    def stalled_job(payload, engine=None):
        release.wait(30)
        return run_tune_job(payload, engine=engine)

    monkeypatch.setattr(server_module, "run_tune_job", stalled_job)
    return release


def _requested_waits(paths):
    return [float(path.split("?wait=")[1]) for path in paths
            if "?wait=" in path]


class TestLongPoll:
    def test_wait_answers_when_the_job_finishes(self, tmp_path,
                                                monkeypatch):
        release = _stall_jobs(monkeypatch)
        server, client = _start_server(cache_dir=str(tmp_path / "cache"),
                                       workers=1)
        calls = []
        result_call = client.result

        def counted(job_id, wait=0.0):
            calls.append(wait)
            return result_call(job_id, wait=wait)

        monkeypatch.setattr(client, "result", counted)
        try:
            job = client.submit(SOURCE_REQUEST)["job"]
            threading.Timer(0.5, release.set).start()
            # poll=30: a sleep-poll loop would answer 30 s late
            result = client.wait(job, timeout=60.0, poll=30.0)
            returned = time.monotonic()
            assert result["state"] == "done"
            finished = server.queue.get(job)._finished_mono
            assert 0.0 <= returned - finished < 0.5
            assert len(calls) == 1
            assert 0.0 < calls[0] <= MAX_RESULT_WAIT
        finally:
            release.set()
            server.drain(grace=20.0)

    def test_replayed_finished_job_answers_at_once(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        server, client = _start_server(cache_dir=cache_dir)
        try:
            result = client.wait(client.submit(SOURCE_REQUEST)["job"],
                                 timeout=60.0)
        finally:
            server.drain(grace=20.0)
        again, client2 = _start_server(cache_dir=cache_dir)
        try:
            start = time.monotonic()
            replay = client2.result(result["job"], wait=30.0)
            assert time.monotonic() - start < 2.0
            assert replay["_status"] == 200
            assert replay["seconds"] == result["seconds"]
        finally:
            again.drain(grace=20.0)

    def test_drain_releases_a_blocked_waiter(self, tmp_path, monkeypatch):
        release = _stall_jobs(monkeypatch)
        parked = threading.Event()
        wait_finished = JobRecord.wait_finished

        def spied(record, timeout, released=lambda: False):
            parked.set()
            return wait_finished(record, timeout, released)

        monkeypatch.setattr(JobRecord, "wait_finished", spied)
        server, client = _start_server(cache_dir=str(tmp_path / "cache"),
                                       workers=1, ledger=False)
        answers = []
        try:
            job = client.submit(SOURCE_REQUEST)["job"]
            waiter = threading.Thread(
                target=lambda: answers.append(client.result(job,
                                                            wait=30.0)))
            waiter.start()
            assert parked.wait(10)
            start = time.monotonic()
            server.drain(grace=0.5)
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            assert time.monotonic() - start < 5.0  # the cap is 30 s
            assert answers[0]["_status"] == 202
            assert answers[0]["state"] == "running"
        finally:
            release.set()
            if not server._stopped.is_set():
                server.drain(grace=20.0)

    def test_wait_is_capped_on_the_server(self, tmp_path, monkeypatch):
        import repro.serve.server as server_module
        release = _stall_jobs(monkeypatch)
        monkeypatch.setattr(server_module, "MAX_RESULT_WAIT", 0.3)
        server, client = _start_server(cache_dir=str(tmp_path / "cache"),
                                       workers=1)
        try:
            job = client.submit(SOURCE_REQUEST)["job"]
            start = time.monotonic()
            answer = client.result(job, wait=5.0)
            elapsed = time.monotonic() - start
            assert answer["_status"] == 202
            assert 0.3 <= elapsed < 3.0
        finally:
            release.set()
            server.drain(grace=20.0)

    def test_bad_wait_is_400(self, daemon):
        server, client = daemon
        job = client.submit(SOURCE_REQUEST)["job"]
        for value in ("soon", "-1", "nan"):
            with pytest.raises(ServeError) as excinfo:
                client._call("/v1/jobs/%s/result?wait=%s" % (job, value))
            assert excinfo.value.status == 400
        client.wait(job, timeout=60.0)

    def test_daemon_ignoring_wait_is_polled(self):
        running = (202, {}, {"job": "j000001", "state": "running"})
        stub = _ScriptedServer([running, running, (200, {}, {
            "job": "j000001", "state": "done", "seconds": 1.5})])
        try:
            client = ServeClient(stub.url, timeout=5.0)
            result = client.wait("j000001", timeout=30.0, poll=0.05)
            assert result["seconds"] == 1.5
            assert len(stub.requests) == 3
            assert len(_requested_waits(stub.requests)) == 3
        finally:
            stub.close()

    @pytest.mark.parametrize("http_timeout,deadline", [
        (0.4, 30.0), (5.0, 30.0), (60.0, 2.0), (300.0, 100.0)])
    def test_requested_wait_stays_below_http_timeout(self, http_timeout,
                                                     deadline):
        running = (202, {}, {"job": "j000001", "state": "running"})
        stub = _ScriptedServer([running] * 3 + [(200, {}, {
            "job": "j000001", "state": "done", "seconds": 1.0})])
        try:
            client = ServeClient(stub.url, timeout=http_timeout)
            client.wait("j000001", timeout=deadline, poll=0.01)
            waits = _requested_waits(stub.requests)
            assert len(waits) == 4
            assert all(0.0 < wait < http_timeout for wait in waits)
            assert all(wait <= min(deadline, MAX_RESULT_WAIT)
                       for wait in waits)
        finally:
            stub.close()


# -- thread-isolation deadline ----------------------------------------------


class TestThreadDeadline:
    def test_thread_isolation_enforces_job_timeout(
            self, tmp_path, monkeypatch):
        import repro.serve.server as server_module

        def stalled_job(payload, engine=None):
            time.sleep(30)
            return run_tune_job(payload, engine=engine)

        monkeypatch.setattr(server_module, "run_tune_job", stalled_job)
        server, client = _start_server(
            cache_dir=str(tmp_path / "cache"), workers=1,
            job_timeout=0.5, retries=0)
        try:
            job = client.submit(SOURCE_REQUEST)["job"]
            start = time.monotonic()
            with pytest.raises(ServeError, match="timeout"):
                client.wait(job, timeout=60.0)
            assert time.monotonic() - start < 20  # not the full stall
            status = client.job(job)
            assert status["state"] == "failed"
            assert status["timeouts"] == 1
            assert "abandoned" in status["error"]
            stats = client.cache_stats()
            assert stats["jobs"]["failed"] == 1
            assert stats["jobs"]["timeouts"] == 1
        finally:
            server.drain(grace=20.0)


# -- restart recovery (in-process) -------------------------------------------


class TestRestartRecovery:
    def test_accepted_job_recovered_and_completes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = ServerConfig(port=0, isolation="thread",
                              cache_dir=cache_dir)
        first = TuneServer(config)
        submitted = first.submit_request(SOURCE_REQUEST)
        # the daemon "dies" before any dispatcher ran: only the WAL's
        # durable "accepted" record survives
        first.ledger.close()
        del first
        server, client = _start_server(cache_dir=cache_dir)
        try:
            status = client.job(submitted["job"])
            assert status["recovered"] is True
            assert status["signature"] == submitted["signature"]
            result = client.wait(submitted["job"], timeout=60.0)
            assert result["state"] == "done"
            assert client.cache_stats()["jobs"]["recovered"] == 1
            ledger = client.ledger_stats()
            assert ledger["enabled"] and ledger["recovered_jobs"] == 1
        finally:
            server.drain(grace=20.0)

    def test_finished_job_answers_after_restart_with_same_result(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        server, client = _start_server(cache_dir=cache_dir)
        try:
            result = client.wait(client.submit(SOURCE_REQUEST)["job"],
                                 timeout=60.0)
        finally:
            server.drain(grace=20.0)
        again, client2 = _start_server(cache_dir=cache_dir)
        try:
            replay = client2.result(result["job"])
            assert replay["_status"] == 200
            assert replay["seconds"] == result["seconds"]
            assert client2.ledger_stats()["replayed_finished"] == 1
            # the job-id counter resumed past the replayed job, and the
            # re-submitted problem replays the shared cache exactly
            fresh = client2.submit(SOURCE_REQUEST)
            assert fresh["job"] != result["job"]
            final = client2.wait(fresh["job"], timeout=60.0)
            assert final["cache_hit"] is True
            assert final["seconds"] == pytest.approx(result["seconds"])
        finally:
            again.drain(grace=20.0)

    def test_double_restart_is_idempotent(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        seed = TuneServer(ServerConfig(port=0, isolation="thread",
                                       cache_dir=cache_dir))
        job = seed.submit_request(SOURCE_REQUEST)["job"]
        seed.ledger.close()
        del seed
        # two successive recoveries must re-admit the job exactly once
        # each, never duplicate it
        middle = TuneServer(ServerConfig(port=0, isolation="thread",
                                         cache_dir=cache_dir))
        assert middle.recovered_jobs == 1
        assert [r.id for r in middle.queue.jobs()] == [job]
        middle.ledger.close()
        del middle
        last = TuneServer(ServerConfig(port=0, isolation="thread",
                                       cache_dir=cache_dir))
        assert last.recovered_jobs == 1
        assert [r.id for r in last.queue.jobs()] == [job]
        last.ledger.close()

    def test_rejected_jobs_are_not_resurrected(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = ServerConfig(port=0, isolation="thread",
                              cache_dir=cache_dir, queue_depth=1)
        first = TuneServer(config)
        kept = first.submit_request(SOURCE_REQUEST)["job"]
        with pytest.raises(QueueFull):
            first.submit_request(dict(SOURCE_REQUEST, max_factor=2))
        first.ledger.close()
        del first
        second = TuneServer(ServerConfig(port=0, isolation="thread",
                                         cache_dir=cache_dir))
        assert [r.id for r in second.queue.jobs()
                if not r.finished] == [kept]
        second.ledger.close()

    def test_no_ledger_mode_opts_out(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        server, client = _start_server(cache_dir=cache_dir, ledger=False)
        try:
            client.wait(client.submit(SOURCE_REQUEST)["job"],
                        timeout=60.0)
            assert client.ledger_stats()["enabled"] is False
            assert not os.path.isdir(os.path.join(cache_dir, "ledger"))
        finally:
            server.drain(grace=20.0)

    def test_fault_endpoint_reports_plan(self, tmp_path):
        from repro import faults
        from repro.faults import FaultPlan
        server, client = _start_server(cache_dir=str(tmp_path / "cache"))
        try:
            clean = client.fault_stats()
            assert clean["installed"] is False
            faults.install_plan(FaultPlan.seeded(11, faults=3))
            stats = client.fault_stats()
            assert stats["installed"] is True and stats["seed"] == 11
        finally:
            faults.uninstall_plan()
            server.drain(grace=20.0)


# -- real process: SIGTERM drain, CLI round trip -----------------------------


@pytest.mark.slow
class TestServeProcess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        ready = tmp_path / "ready"
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--isolation", "thread",
             "--cache", str(tmp_path / "cache"),
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            deadline = time.monotonic() + 30
            while not ready.exists() or not ready.read_text().strip():
                assert daemon.poll() is None, daemon.stdout.read()
                assert time.monotonic() < deadline, "daemon never ready"
                time.sleep(0.1)
            url = ready.read_text().strip()
            submit = subprocess.run(
                [sys.executable, "-m", "repro", "submit", "--url", url,
                 "--benchmark", "lud", "--arch", "a100",
                 "--max-factor", "4", "--wait", "120"],
                env=env, capture_output=True, text=True, timeout=150)
            assert submit.returncode == 0, submit.stderr
            assert "warm=no" in submit.stdout
            daemon.send_signal(signal.SIGTERM)
            output, _ = daemon.communicate(timeout=60)
            assert daemon.returncode == 0, output
            assert "drained" in output
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=30)

    def test_sigkill_recovery_completes_with_same_signature(
            self, tmp_path):
        from repro.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec
        request = {"benchmark": "lud", "arch": "a100", "max_factor": 4}
        cache = str(tmp_path / "cache")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))

        def start_daemon(tag, extra_env=None):
            ready = tmp_path / ("ready-%s" % tag)
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "1", "--isolation", "thread",
                 "--cache", cache, "--ready-file", str(ready)],
                env=dict(env, **(extra_env or {})),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            deadline = time.monotonic() + 30
            while not ready.exists() or not ready.read_text().strip():
                assert daemon.poll() is None, daemon.stdout.read()
                assert time.monotonic() < deadline, "daemon never ready"
                time.sleep(0.1)
            return daemon, ready.read_text().strip()

        # the victim stalls 30s inside the scheduler worker on its first
        # job, guaranteeing the SIGKILL lands mid-run
        stall = FaultPlan([FaultSpec("scheduler.worker", 1, "sleep",
                                     seconds=30.0)])
        victim, url = start_daemon("victim",
                                   {FAULT_PLAN_ENV: stall.to_json()})
        survivor = None
        try:
            client = ServeClient(url, timeout=10.0, retries=0)
            submitted = client.submit(request)
            job = submitted["job"]
            deadline = time.monotonic() + 30
            while client.job(job)["state"] != "running":
                assert time.monotonic() < deadline, "job never ran"
                time.sleep(0.1)
            victim.kill()  # SIGKILL: no drain, no goodbye
            victim.communicate(timeout=30)
            survivor, url2 = start_daemon("survivor")
            client2 = ServeClient(url2, timeout=10.0, retries=0)
            status = client2.job(job)
            assert status["recovered"] is True
            assert status["signature"] == submitted["signature"]
            result = client2.wait(job, timeout=120.0)
            assert result["state"] == "done"
            # the recovered run is indistinguishable from an
            # uninterrupted one: an identical fresh submit replays warm
            confirm = client2.wait(client2.submit(request)["job"],
                                   timeout=120.0)
            assert confirm["cache_hit"] is True
            assert confirm["seconds"] == pytest.approx(result["seconds"])
            assert client2.ledger_stats()["recovered_jobs"] == 1
        finally:
            for process in (victim, survivor):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.communicate(timeout=30)


class TestMonotonicDurations:
    """Job durations must come from monotonic anchors: a wall-clock step
    (NTP, DST) between lifecycle events must never corrupt them."""

    def _step_wall_clock_back(self, monkeypatch, seconds=3600.0):
        import repro.serve.jobs as jobs_mod
        real = time.time
        monkeypatch.setattr(jobs_mod.time, "time",
                            lambda: real() - seconds)

    def test_queued_waiting_seconds_survive_wall_step(self, monkeypatch):
        record = _record()
        self._step_wall_clock_back(monkeypatch)
        status = record.status_dict()
        assert 0.0 <= status["waiting_seconds"] < 60.0

    def test_running_and_wall_seconds_survive_wall_step(self, monkeypatch):
        from types import SimpleNamespace
        record = _record()
        record.mark_running()
        self._step_wall_clock_back(monkeypatch)
        status = record.status_dict()
        assert 0.0 <= status["running_seconds"] < 60.0
        record.finish(SimpleNamespace(ok=False, attempts=1, timeouts=0,
                                      error="boom", value=None))
        status = record.status_dict()
        assert 0.0 <= status["wall_seconds"] < 60.0
        # wall-clock fields still reflect the (stepped) wall clock: they
        # are display-only and never subtracted from each other
        assert status["finished_at"] < status["started_at"]
