"""Tests for the process-sharded sweep engine.

Covers the three layers added for sharded figure sweeps:

* :class:`repro.engine.scheduler.SweepScheduler` — crash isolation,
  per-job timeout, bounded retry, degrade-to-in-process;
* the on-disk :class:`~repro.engine.cache.TuningCache` under concurrent
  multi-process writers (the unique-temp-file fix);
* :mod:`repro.benchsuite.sweeps` — figure plans and their job keys, the
  same data in process and over worker processes, resume files.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine.cache import (CacheEntry, TuningCache, entry_from_dict)
from repro.engine.scheduler import (Job, SweepScheduler, sweep_workers)
from repro.targets import A100, MI210

# -- picklable job runners (module-level for any start method) ---------------


def _dispatch(payload):
    """Multi-behavior runner keyed on payload['kind']."""
    kind = payload["kind"]
    if kind == "double":
        return payload["x"] * 2
    if kind == "boom":
        raise ValueError("boom %s" % payload["x"])
    if kind == "exit":
        os._exit(7)
    if kind == "sleep":
        time.sleep(payload["seconds"])
        return "slept"
    if kind == "flaky":
        # fails until enough attempts have appended to the counter file
        with open(payload["path"], "a") as handle:
            handle.write("x")
        if os.path.getsize(payload["path"]) < payload["succeed_at"]:
            raise RuntimeError("flaky")
        return "finally"
    if kind == "parent-only":
        # dies in any worker process; succeeds only in the parent — the
        # shape of a job that can ONLY complete via the degrade path
        if os.getpid() != payload["pid"]:
            os._exit(7)
        return "in-parent"
    if kind == "pid":
        return os.getpid()
    raise KeyError(kind)


def _double_jobs(count):
    return [Job("job-%d" % i, {"kind": "double", "x": i})
            for i in range(count)]


class TestSweepWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        assert sweep_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert sweep_workers() == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert sweep_workers() == (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert sweep_workers(0) == 1
        assert sweep_workers(-4) == 1


class TestSchedulerBasics:
    def test_results_in_input_order(self):
        scheduler = SweepScheduler(workers=2, backoff=0.01)
        results = scheduler.run(_dispatch, _double_jobs(6))
        assert list(results) == ["job-%d" % i for i in range(6)]
        for i in range(6):
            result = results["job-%d" % i]
            assert result.ok and result.value == i * 2
            assert result.attempts == 1 and result.retries == 0

    def test_sequential_fallback_same_results(self):
        scheduler = SweepScheduler(workers=1)
        results = scheduler.run(_dispatch, _double_jobs(4))
        assert [r.value for r in results.values()] == [0, 2, 4, 6]

    def test_duplicate_keys_rejected(self):
        scheduler = SweepScheduler(workers=1)
        with pytest.raises(ValueError, match="unique"):
            scheduler.run(_dispatch, [Job("same", {}), Job("same", {})])

    def test_empty_job_list(self):
        assert SweepScheduler(workers=2).run(_dispatch, []) == {}


class TestSchedulerFailures:
    def test_exception_isolated_from_other_jobs(self):
        jobs = _double_jobs(3) + [Job("bad", {"kind": "boom", "x": 9})]
        scheduler = SweepScheduler(workers=2, retries=0, degrade=False,
                                   backoff=0.01)
        results = scheduler.run(_dispatch, jobs)
        assert all(results["job-%d" % i].ok for i in range(3))
        assert not results["bad"].ok
        assert "boom 9" in results["bad"].error

    def test_worker_crash_isolated(self):
        # os._exit skips all exception machinery: the worker just dies.
        # The scheduler must respawn a worker and finish the other jobs.
        jobs = [Job("crash", {"kind": "exit"})] + _double_jobs(3)
        scheduler = SweepScheduler(workers=2, retries=0, degrade=False,
                                   backoff=0.01)
        results = scheduler.run(_dispatch, jobs)
        assert not results["crash"].ok
        assert "worker died" in results["crash"].error
        assert all(results["job-%d" % i].ok for i in range(3))

    def test_retry_until_success(self, tmp_path):
        counter = tmp_path / "attempts"
        job = Job("flaky", {"kind": "flaky", "path": str(counter),
                            "succeed_at": 2})
        scheduler = SweepScheduler(workers=2, retries=2, backoff=0.01)
        # force the pool path despite the single job
        results = scheduler.run(_dispatch, [job] + _double_jobs(1))
        result = results["flaky"]
        assert result.ok and result.value == "finally"
        assert result.attempts == 2 and result.retries == 1

    def test_timeout_kills_and_reports(self):
        jobs = [Job("slow", {"kind": "sleep", "seconds": 30})] + \
            _double_jobs(2)
        scheduler = SweepScheduler(workers=2, timeout=0.3, retries=0,
                                   degrade=False, backoff=0.01)
        start = time.monotonic()
        results = scheduler.run(_dispatch, jobs)
        assert time.monotonic() - start < 20  # never waits the full sleep
        assert not results["slow"].ok
        assert results["slow"].timeouts == 1
        assert "timeout" in results["slow"].error
        assert all(results["job-%d" % i].ok for i in range(2))

    def test_degrade_runs_in_process(self):
        # the job dies in every worker but succeeds in the parent, so a
        # passing run PROVES the degrade path executed in-process
        jobs = [Job("picky", {"kind": "parent-only", "pid": os.getpid()}),
                Job("ok", {"kind": "double", "x": 1})]
        scheduler = SweepScheduler(workers=2, retries=1, degrade=True,
                                   backoff=0.01)
        results = scheduler.run(_dispatch, jobs)
        result = results["picky"]
        assert result.ok and result.value == "in-parent"
        assert result.degraded
        assert result.retries == 1
        assert results["ok"].ok and not results["ok"].degraded

    def test_sequential_timeout_enforced(self):
        # workers=1 without isolate takes the in-process path, which
        # used to ignore the deadline entirely (and would hang here)
        jobs = [Job("slow", {"kind": "sleep", "seconds": 30})] + \
            _double_jobs(2)
        scheduler = SweepScheduler(workers=1, timeout=0.3, retries=0,
                                   degrade=False)
        start = time.monotonic()
        results = scheduler.run(_dispatch, jobs)
        assert time.monotonic() - start < 20
        assert not results["slow"].ok
        assert results["slow"].timeouts == 1
        assert "abandoned" in results["slow"].error
        assert all(results["job-%d" % i].ok for i in range(2))

    def test_sequential_timeout_counts_metric(self):
        from repro.obs import metrics as obs_metrics
        with obs_metrics.collecting() as registry:
            scheduler = SweepScheduler(workers=1, timeout=0.2,
                                       retries=0, degrade=False)
            scheduler.run(_dispatch,
                          [Job("slow", {"kind": "sleep", "seconds": 30})])
        assert registry.counter_values().get("sweep.timeouts") == 1

    def test_exhausted_retries_fail_without_degrade(self):
        jobs = [Job("bad", {"kind": "boom", "x": 1})] + _double_jobs(1)
        scheduler = SweepScheduler(workers=2, retries=1, degrade=False,
                                   backoff=0.01)
        results = scheduler.run(_dispatch, jobs)
        assert not results["bad"].ok
        assert results["bad"].attempts == 2


class TestSchedulerLifecycle:
    def test_context_manager_reuses_warm_pool(self):
        jobs = [Job("p", {"kind": "pid"})]
        with SweepScheduler(workers=1, isolate=True) as scheduler:
            first = scheduler.run(_dispatch, jobs)["p"].value
            second = scheduler.run(_dispatch, jobs)["p"].value
            assert scheduler.pool_size == 1
        # same worker process served both runs — the pool persisted
        assert first == second
        assert first != os.getpid()
        assert scheduler.pool_size == 0  # __exit__ reaped it

    def test_isolate_forces_worker_process_for_single_job(self):
        scheduler = SweepScheduler(workers=1, isolate=True)
        pid = scheduler.run(_dispatch, [Job("p", {"kind": "pid"})])
        assert pid["p"].value != os.getpid()
        assert scheduler.pool_size == 0  # non-persistent run cleans up

    def test_without_isolate_single_job_runs_in_process(self):
        scheduler = SweepScheduler(workers=1)
        pid = scheduler.run(_dispatch, [Job("p", {"kind": "pid"})])
        assert pid["p"].value == os.getpid()

    def test_crash_recovery_respawns_pooled_worker(self):
        with SweepScheduler(workers=1, isolate=True, retries=0,
                            degrade=False) as scheduler:
            crashed = scheduler.run(_dispatch,
                                    [Job("x", {"kind": "exit"})])
            assert not crashed["x"].ok
            # the replacement worker serves the next run
            again = scheduler.run(_dispatch, [Job("p", {"kind": "pid"})])
            assert again["p"].ok

    def test_shutdown_is_idempotent_and_unregisters(self):
        from repro.engine.scheduler import _live_pools
        scheduler = SweepScheduler(workers=1, isolate=True)
        with scheduler:
            scheduler.run(_dispatch, [Job("p", {"kind": "pid"})])
            assert scheduler in _live_pools
        assert scheduler not in _live_pools
        scheduler.shutdown()  # second shutdown must be a no-op
        assert scheduler.pool_size == 0


# -- concurrent on-disk cache stress -----------------------------------------

_SHARED_KEYS = 4


def _stress_entry(worker_index):
    from repro.autotune.tdo import TuneOutcome
    # desc and time encode the SAME writer: a torn/interleaved write
    # would decouple them (or fail to parse at all)
    return CacheEntry(
        TuneOutcome(selected_desc="winner-%d" % worker_index,
                    selected_time=float(worker_index),
                    candidates=[], filters=None, selected_index=0,
                    selected_config={"block_total": worker_index}),
        {"block_total": worker_index})


def _cache_stress_worker(cache_dir, worker_index, rounds, barrier):
    barrier.wait()  # maximize overlap between writers
    entry = _stress_entry(worker_index)
    for round_index in range(rounds):
        cache = TuningCache(cache_dir)
        for k in range(_SHARED_KEYS):
            cache.store("shared-%d" % k, entry)
        cache.store("own-%d-%d" % (worker_index, round_index), entry)
        for k in range(_SHARED_KEYS):
            # a fresh cache instance forces a disk read
            hit, got = TuningCache(cache_dir).lookup("shared-%d" % k)
            if hit and got is not None and got.outcome is not None:
                desc = got.outcome.selected_desc
                stamp = int(got.outcome.selected_time)
                assert desc == "winner-%d" % stamp, \
                    "torn read: %s vs %s" % (desc, stamp)


def _quarantine_stress_worker(cache_dir, worker_index, workers, rounds,
                              barrier):
    """Store valid entries, plant torn/stale ones, and read everything
    back while every other process does the same (plus LRU eviction)."""
    barrier.wait()
    entry = _stress_entry(worker_index)
    for round_index in range(rounds):
        cache = TuningCache(cache_dir, max_entries=64)
        cache.store("shared-%d" % (round_index % _SHARED_KEYS), entry)
        torn = "torn-%d-%d" % (worker_index, round_index)
        stale = "stale-%d-%d" % (worker_index, round_index)
        with open(os.path.join(cache_dir, torn + ".json"), "w") as handle:
            handle.write('{"outcome": {"sel')  # torn mid-write
        with open(os.path.join(cache_dir, stale + ".json"), "w") as handle:
            handle.write('{"schema": 1, "outcome": null, '
                         '"selected_config": null}')
        reader = TuningCache(cache_dir, max_entries=64)
        for other in range(workers):
            for prefix in ("torn", "stale"):
                hit, _ = reader.lookup("%s-%d-%d" %
                                       (prefix, other, round_index))
                assert not hit, "served a %s entry" % prefix
        hit, got = reader.lookup("shared-%d" %
                                 (round_index % _SHARED_KEYS))
        if hit and got is not None and got.outcome is not None:
            stamp = int(got.outcome.selected_time)
            assert got.outcome.selected_desc == "winner-%d" % stamp


class TestCacheConcurrency:
    def test_multiprocess_writers_never_corrupt(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        context = multiprocessing.get_context("fork")
        workers, rounds = 4, 6
        barrier = context.Barrier(workers)
        procs = [context.Process(
            target=_cache_stress_worker,
            args=(cache_dir, index, rounds, barrier))
            for index in range(workers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0, \
                "stress worker failed (exitcode %s)" % proc.exitcode
        # every surviving file parses as a complete entry
        names = sorted(os.listdir(cache_dir))
        assert not [n for n in names if n.endswith(".tmp")], \
            "leftover temp files: %s" % names
        parsed = 0
        for name in names:
            assert name.endswith(".json")
            with open(os.path.join(cache_dir, name)) as handle:
                entry = entry_from_dict(json.load(handle))
            assert entry.outcome is not None
            stamp = int(entry.outcome.selected_time)
            assert entry.outcome.selected_desc == "winner-%d" % stamp
            parsed += 1
        # all shared keys plus every worker's private keys made it
        assert parsed == _SHARED_KEYS + workers * rounds

    def test_corrupt_entry_quarantined_on_load(self, tmp_path):
        cache_dir = str(tmp_path)
        cache = TuningCache(cache_dir)
        cache.store("good", _stress_entry(1))
        bad_path = os.path.join(cache_dir, "bad.json")
        with open(bad_path, "w") as handle:
            handle.write('{"outcome": {"selected_')  # torn write
        fresh = TuningCache(cache_dir)
        hit, _ = fresh.lookup("bad")
        assert not hit
        # quarantined, not deleted: the key re-tunes, the evidence stays
        assert not os.path.exists(bad_path)
        assert os.path.exists(bad_path + ".quarantine")
        assert fresh.quarantined == 1
        assert fresh.stats()["quarantined"] == 1
        hit, entry = fresh.lookup("good")
        assert hit and entry.outcome.selected_desc == "winner-1"

    def test_truncated_valid_json_quarantined(self, tmp_path):
        from repro.engine.cache import ENTRY_SCHEMA, entry_to_dict
        cache = TuningCache(str(tmp_path))
        path = os.path.join(str(tmp_path), "half.json")
        payload = json.dumps(entry_to_dict(_stress_entry(3)))
        with open(path, "w") as handle:
            handle.write(payload[:len(payload) // 2])  # torn mid-write
        hit, _ = cache.lookup("half")
        assert not hit
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantine")
        assert cache.quarantined == 1
        assert ENTRY_SCHEMA in json.loads(payload).values()

    def test_stale_schema_quarantined(self, tmp_path):
        from repro.engine.cache import entry_to_dict
        cache = TuningCache(str(tmp_path))
        stale = dict(entry_to_dict(_stress_entry(2)), schema=1)
        path = os.path.join(str(tmp_path), "old.json")
        with open(path, "w") as handle:
            json.dump(stale, handle)
        hit, _ = cache.lookup("old")
        assert not hit, "a stale-schema entry must re-tune, not misread"
        assert os.path.exists(path + ".quarantine")
        assert cache.quarantined == 1
        # quarantined files never count as cache occupancy
        assert cache.disk_entries() == 0

    def test_quarantine_survives_clear(self, tmp_path):
        cache = TuningCache(str(tmp_path))
        with open(os.path.join(str(tmp_path), "bad.json"), "w") as handle:
            handle.write("not json")
        cache.lookup("bad")
        assert os.path.exists(
            os.path.join(str(tmp_path), "bad.json.quarantine"))
        cache.clear()  # clear() wipes quarantine files along with entries
        assert os.listdir(str(tmp_path)) == []

    def test_concurrent_quarantine_under_store_evict(self, tmp_path):
        """4 processes store/evict/plant-corruption concurrently; no bad
        entry is ever served and every bad entry ends up quarantined."""
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        context = multiprocessing.get_context("fork")
        workers, rounds = 4, 5
        barrier = context.Barrier(workers)
        procs = [context.Process(
            target=_quarantine_stress_worker,
            args=(cache_dir, index, workers, rounds, barrier))
            for index in range(workers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0, \
                "stress worker failed (exitcode %s)" % proc.exitcode
        # sweep the leftovers: any planted entry not yet tripped over
        # must quarantine (never serve) on a fresh lookup
        sweeper = TuningCache(cache_dir)
        for name in sorted(os.listdir(cache_dir)):
            if name.endswith(".json") and \
                    name.startswith(("torn-", "stale-")):
                hit, _ = sweeper.lookup(name[:-len(".json")])
                assert not hit
        names = sorted(os.listdir(cache_dir))
        quarantined = [n for n in names if n.endswith(".quarantine")]
        assert quarantined, "the planted corruption must leave evidence"
        # every surviving live entry parses and is self-consistent
        for name in names:
            if not name.endswith(".json"):
                continue
            with open(os.path.join(cache_dir, name)) as handle:
                entry = entry_from_dict(json.load(handle))
            stamp = int(entry.outcome.selected_time)
            assert entry.outcome.selected_desc == "winner-%d" % stamp


# -- sweep plans and determinism ---------------------------------------------


class TestPlans:
    def test_unknown_figure(self):
        from repro.benchsuite.sweeps import plan_figure
        with pytest.raises(ValueError, match="unknown figure"):
            plan_figure("fig99")

    def test_fig16_plan_matches_serial_iteration(self):
        # the job keys are the resume format: files written before the
        # figures became plans must still load, so every figure's keys
        # and their order are pinned here
        from repro.benchsuite.sweeps import plan_figure
        plan = plan_figure("fig16", benchmarks=["nn", "gaussian"],
                           archs=[A100], tiers=("clang", "polygeist"))
        assert plan.keys == [
            "fig16|gaussian|NVIDIA A100|clang",
            "fig16|gaussian|NVIDIA A100|polygeist",
            "fig16|nn|NVIDIA A100|clang",
            "fig16|nn|NVIDIA A100|polygeist",
        ]
        assert plan_figure("fig16", benchmarks=["nn"]).keys == [
            "fig16|nn|%s|%s" % (arch, tier)
            for arch in ("NVIDIA A4000", "NVIDIA A100", "AMD RX6800",
                         "AMD MI210")
            for tier in ("clang", "polygeist-noopt", "polygeist")]
        assert plan_figure("fig17", benchmarks=["nn", "gaussian"]).keys == [
            "fig17|%s|%s" % (name, label)
            for name in ("gaussian", "nn")
            for label in ("A4000 (clang)", "A4000 (Polygeist-GPU)",
                          "RX6800 (Polygeist-GPU)", "RX6800 (clang)")]
        assert plan_figure("fig13", benchmarks=["nn", "gaussian"]).keys == [
            "fig13|gaussian|NVIDIA A100", "fig13|nn|NVIDIA A100"]
        assert plan_figure("fig13", arch="mi210",
                           benchmarks=["nn"]).keys == ["fig13|nn|AMD MI210"]
        assert plan_figure("table2").keys == [
            "table2|(1, 1)", "table2|(4, 1)", "table2|(1, 4)"]

    def test_payloads_are_picklable(self):
        import pickle
        from repro.benchsuite.sweeps import plan_figure
        for figure, kwargs in (("fig13", {"benchmarks": ["nn"]}),
                               ("fig16", {"benchmarks": ["nn"]}),
                               ("fig17", {"benchmarks": ["nn"]}),
                               ("table2", {})):
            plan = plan_figure(figure, **kwargs)
            for job in plan.jobs:
                pickle.dumps(job)

    def test_arch_names_accepted(self):
        from repro.benchsuite.sweeps import plan_figure
        plan = plan_figure("table2", arch="mi210")
        assert plan.jobs[0].payload["arch"] == MI210.name


class TestShardedDeterminism:
    """Each figure driver returns the same data in this process as over
    two worker processes."""

    def test_fig16_in_process_equals_two_workers(self):
        from repro.autotune.search import default_configs
        from repro.benchsuite.experiments import fig16_data
        kwargs = dict(benchmarks=["gaussian", "nn"], archs=[A100, MI210],
                      tiers=("clang", "polygeist"),
                      configs=default_configs(max_total=2))
        in_process = fig16_data(**kwargs)
        sharded = fig16_data(workers=2, **kwargs)
        assert sharded == in_process
        assert repr(sharded) == repr(in_process)

    def test_fig16_defaults_in_process_equals_two_workers(self):
        from repro.autotune.search import default_configs
        from repro.benchsuite.experiments import fig16_data
        kwargs = dict(benchmarks=["nn"],
                      configs=default_configs(max_total=2))
        in_process = fig16_data(**kwargs)
        assert list(in_process["nn"]) == [
            (arch, tier)
            for arch in ("NVIDIA A4000", "NVIDIA A100", "AMD RX6800",
                         "AMD MI210")
            for tier in ("clang", "polygeist-noopt", "polygeist")]
        assert repr(fig16_data(workers=2, **kwargs)) == repr(in_process)

    def test_fig17_in_process_equals_two_workers(self):
        from repro.autotune.search import default_configs
        from repro.benchsuite.experiments import fig17_data
        kwargs = dict(benchmarks=["gaussian", "nn"],
                      configs=default_configs(max_total=2))
        in_process = fig17_data(**kwargs)
        assert list(in_process) == ["gaussian", "nn"]
        assert list(in_process["nn"]) == [
            "A4000 (clang)", "A4000 (Polygeist-GPU)",
            "RX6800 (Polygeist-GPU)", "RX6800 (clang)"]
        assert repr(fig17_data(workers=2, **kwargs)) == repr(in_process)

    def test_table2_in_process_equals_two_workers(self):
        from repro.benchsuite.experiments import table2_profile
        assert table2_profile(workers=2) == table2_profile()

    def test_failure_surfaces_instead_of_partial_data(self, monkeypatch):
        from repro.benchsuite import sweeps
        outcome = sweeps.run_figure_sweep(
            "fig16", workers=2, benchmarks=["no-such-benchmark"],
            archs=[A100], tiers=("clang",), retries=0)
        assert outcome.data is None
        assert len(outcome.failed) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_job_raises_naming_it(self, workers):
        from repro.benchsuite.experiments import fig16_data
        with pytest.raises(RuntimeError,
                           match="fig16[|]no-such-benchmark[|]NVIDIA A100"):
            fig16_data(benchmarks=["no-such-benchmark"], archs=[A100],
                       tiers=("clang",), workers=workers)

    def test_engine_needs_one_worker(self):
        from repro.benchsuite.experiments import fig13_data
        from repro.engine import TuningEngine
        with pytest.raises(ValueError, match="workers=1"):
            fig13_data(benchmarks=["nn"], engine=TuningEngine(), workers=2)

    def test_in_process_spans_reach_the_callers_tracer(self):
        from repro.autotune.search import default_configs
        from repro.benchsuite.experiments import fig16_data
        from repro.obs.tracer import tracing
        with tracing() as tracer:
            fig16_data(benchmarks=["nn"], archs=[A100], tiers=("clang",),
                       configs=default_configs(max_total=2))
        spans = tracer.finished()
        assert spans
        assert {span.pid for span in spans} == {0}  # recorded here


class TestResume:
    def test_round_trip_and_skip(self, tmp_path):
        from repro.autotune.search import default_configs
        from repro.benchsuite.sweeps import (load_resume_values,
                                             run_figure_sweep,
                                             write_sweep_json)
        kwargs = dict(benchmarks=["nn"], archs=[A100], tiers=("clang",),
                      configs=default_configs(max_total=2))
        first = run_figure_sweep("fig16", workers=2, **kwargs)
        assert first.data is not None and len(first.results) == 1
        path = str(tmp_path / "sweep.json")
        write_sweep_json(path, first, {"workers": 2})
        values = load_resume_values(path, "fig16")
        second = run_figure_sweep("fig16", workers=2,
                                  resume_values=values, **kwargs)
        assert second.results == {}  # nothing re-run
        assert second.resumed == sorted(first.values)
        assert second.data == first.data

    def test_figure_mismatch_rejected(self, tmp_path):
        from repro.benchsuite.sweeps import load_resume_values
        path = str(tmp_path / "other.json")
        with open(path, "w") as handle:
            json.dump({"figure": "fig13", "jobs": {}}, handle)
        with pytest.raises(ValueError, match="fig13"):
            load_resume_values(path, "fig16")

    def test_fig13_values_survive_json(self, tmp_path):
        from repro.autotune.search import default_configs
        from repro.benchsuite.sweeps import (decode_value, encode_value,
                                             run_figure_sweep)
        outcome = run_figure_sweep(
            "fig13", workers=2, benchmarks=["nn"],
            configs=default_configs(max_total=2))
        (key, value), = outcome.values.items()
        restored = decode_value("fig13", json.loads(
            json.dumps(encode_value("fig13", value))))
        assert restored == value  # dataclasses, tuples and all
