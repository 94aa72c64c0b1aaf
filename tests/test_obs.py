"""Tests for the ``repro.obs`` observability layer: tracer spans (incl.
per-thread nesting), Chrome trace-event export,
metrics registry and the engine's stage/counter views of it, the TDO
decision log, the ``tune --trace`` / ``--explain`` / ``trace summarize``
CLI, logging flags, and the disabled-path overhead guard."""

import json
import logging
import threading
import time

import pytest

from repro.__main__ import main
from repro.autotune import paper_sweep_configs
from repro.benchsuite import get_benchmark
from repro.engine import TuningCache, TuningEngine
from repro.obs import decisions as obs_decisions
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.decisions import (DecisionLog, GENERATION, REGISTERS,
                                 SHARED_MEMORY, TIMING, TuneDecision)
from repro.obs.export import (chrome_trace_events, flame_summary,
                              summarize_events, summarize_trace_file,
                              trace_payload, write_chrome_trace)
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Tracer, tracing
from repro.targets import A100

SOURCE = """
__global__ void scale(float *x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    x[i] = x[i] * a;
}
"""

EPS = 1e-9


class TestTracer:
    def test_disabled_path_is_shared_noop(self):
        assert obs_tracer.current() is None
        probe = obs_tracer.span("anything", category="x", detail=1)
        assert probe is NULL_SPAN
        assert probe.set(more=2) is NULL_SPAN
        with probe:
            pass  # must be usable as a context manager

    def test_nesting_depth_parent_and_self_time(self):
        with tracing() as tracer:
            with obs_tracer.span("outer"):
                with obs_tracer.span("inner"):
                    time.sleep(0.001)
        spans = {s.name: s for s in tracer.finished()}
        assert spans["inner"].depth == 1
        assert spans["inner"].parent == "outer"
        assert spans["outer"].depth == 0
        assert spans["outer"].parent is None
        assert spans["outer"].child_seconds >= spans["inner"].duration - EPS
        assert spans["outer"].self_seconds <= spans["outer"].duration
        assert spans["inner"].end <= spans["outer"].end + EPS

    def test_span_args_and_set(self):
        with tracing() as tracer:
            with obs_tracer.span("work", category="test", size=4) as live:
                live.set(result=8)
        (recorded,) = tracer.finished()
        assert recorded.category == "test"
        assert recorded.args == {"size": 4, "result": 8}

    def test_exception_is_annotated_and_propagates(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with obs_tracer.span("doomed"):
                    raise ValueError("boom")
        (recorded,) = tracer.finished()
        assert recorded.args["error"] == "ValueError"

    def test_tracing_restores_previous_tracer(self):
        outer = obs_tracer.install(Tracer())
        try:
            with tracing() as inner:
                assert obs_tracer.current() is inner
            assert obs_tracer.current() is outer
        finally:
            obs_tracer.uninstall()

    def test_threads_keep_independent_stacks(self):
        tracer = Tracer()

        def worker(label):
            with tracer.span("outer-%s" % label):
                with tracer.span("inner-%s" % label):
                    time.sleep(0.001)

        with tracing(tracer):
            threads = [threading.Thread(target=worker, args=(str(i),))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for span in tracer.finished():
            if span.name.startswith("inner-"):
                label = span.name.split("-", 1)[1]
                assert span.parent == "outer-%s" % label
                assert span.depth == 1
        _assert_well_nested(tracer.finished())


def _assert_well_nested(spans):
    """Spans on one thread must nest or be disjoint, never interleave."""
    by_tid = {}
    for span in spans:
        by_tid.setdefault(span.tid, []).append(span)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s.start, -s.duration))
        stack = []
        for span in tid_spans:
            while stack and stack[-1].end <= span.start + EPS:
                stack.pop()
            if stack:
                assert span.end <= stack[-1].end + EPS, \
                    "span %r interleaves with %r" % (span.name,
                                                     stack[-1].name)
                assert span.depth > stack[-1].depth
            stack.append(span)


class TestChromeExport:
    def _traced(self):
        with tracing() as tracer:
            with obs_tracer.span("a", category="cat-a", k=1):
                with obs_tracer.span("b", category="cat-b"):
                    time.sleep(0.001)
        return tracer

    def test_events_follow_trace_event_schema(self):
        tracer = self._traced()
        events = chrome_trace_events(tracer.finished())
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str)
            assert isinstance(event["cat"], str)
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert event["tid"] == 0  # compacted, single thread
        named = {e["name"]: e for e in events}
        assert named["a"]["args"] == {"k": 1}

    def test_payload_carries_metrics_and_decisions(self):
        tracer = self._traced()
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        log = DecisionLog()
        log.begin("w", "A100").add("block=1 thread=1")
        payload = trace_payload(tracer, metrics=registry, decisions=log)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["metrics"]["counters"]["hits"] == 3
        assert payload["otherData"]["decisions"][0]["wrapper"] == "w"

    def test_write_roundtrip_and_summary(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, tracer)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]
        summary = summarize_trace_file(path)
        assert "a" in summary and "b" in summary
        assert "self%" in summary

    def test_summarize_accepts_bare_event_array(self, tmp_path):
        events = chrome_trace_events(self._traced().finished())
        path = tmp_path / "array.json"
        path.write_text(json.dumps(events))
        assert "a" in summarize_trace_file(str(path))

    def test_flame_summary_self_time_and_top(self):
        spans = self._traced().finished()
        summary = flame_summary(spans)
        assert summary.splitlines()[0].split()[0] == "span"
        # top truncation keeps percentages relative to the grand total
        truncated = flame_summary(spans, top=1)
        assert len(truncated.splitlines()) == 3
        assert "100.0%" not in truncated or len(spans) == 1

    def test_summarize_events_reconstructs_nesting(self):
        events = [
            {"name": "parent", "ph": "X", "ts": 0.0, "dur": 100.0,
             "pid": 1, "tid": 0},
            {"name": "child", "ph": "X", "ts": 10.0, "dur": 40.0,
             "pid": 1, "tid": 0},
        ]
        summary = summarize_events(events)
        parent_row = next(line for line in summary.splitlines()
                          if line.startswith("parent"))
        # parent self time is 60us of its 100us total
        assert "0.000100s" in parent_row
        assert "0.000060s" in parent_row


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in (1.0, 3.0):
            registry.histogram("h").observe(value)
        assert registry.counter_value("c") == 5
        assert registry.gauge_values() == {"g": 2.5}
        summary = registry.histogram_summaries()["h"]
        assert summary["count"] == 2
        assert summary["total"] == 4.0
        assert summary["mean"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("x") is registry.histogram("x")

    def test_reading_absent_counter_does_not_create_it(self):
        registry = MetricsRegistry()
        assert registry.counter_value("absent") == 0
        assert registry.counter_values() == {}

    def test_module_helpers_are_noop_when_uninstalled(self):
        assert obs_metrics.current() is None
        obs_metrics.inc("nothing")
        obs_metrics.observe("nothing", 1.0)
        obs_metrics.set_gauge("nothing", 1.0)

    def test_collecting_installs_and_restores(self):
        with obs_metrics.collecting() as registry:
            obs_metrics.inc("seen", 2)
            assert obs_metrics.current() is registry
        assert obs_metrics.current() is None
        assert registry.counter_value("seen") == 2

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestEngineStatsFacade:
    """The engine's stage and counter views, read off its registry."""

    def test_stage_records_into_shared_registry(self):
        engine = TuningEngine(cache=TuningCache(), validate=False)
        # installed process-wide, the registry still sees each stage once
        with obs_metrics.collecting(engine.registry):
            with engine.stage("parse"):
                pass
            with engine.stage("parse"):
                pass
        registry = engine.registry
        assert registry.histogram_summaries()["stage.parse"]["count"] == 2
        assert {name: summary["count"] for name, summary
                in engine.stages().items()} == {"parse": 2}
        assert engine.stage_seconds()["parse"] >= 0.0
        registry.counter("cache_hits").inc(2)
        assert registry.counter_value("cache_hits") == 2

    def test_as_dict_shape_is_stable(self):
        from repro.pipeline import Program
        engine = TuningEngine(cache=TuningCache(), validate=False)
        stats = Program(SOURCE, arch=A100, engine=engine).stats()
        assert set(stats) == {"stage_seconds", "stage_calls", "counters",
                              "gauges", "histograms", "cache"}
        assert stats["stage_calls"] == {"parse": 1}

    def test_stage_opens_tracer_span(self):
        engine = TuningEngine(cache=TuningCache(), validate=False)
        with tracing() as tracer:
            with engine.stage("filters"):
                pass
        assert [s.name for s in tracer.finished()] == ["stage:filters"]


class TestDecisionLog:
    def test_first_elimination_wins(self):
        decision = TuneDecision(wrapper="w", arch="A100")
        decision.add("alt", config={"thread_total": 2})
        decision.eliminate("alt", SHARED_MEMORY, "too much smem")
        decision.eliminate("alt", TIMING, "slow")
        record = decision.find("alt")
        assert record.eliminated_by == SHARED_MEMORY
        assert record.reason == "too much smem"
        assert "eliminated by shared-memory" in record.outcome()

    def test_select_clears_elimination(self):
        decision = TuneDecision()
        decision.eliminate("alt", REGISTERS, "spills")
        decision.select("alt", time_seconds=1e-6)
        record = decision.find("alt")
        assert record.selected and record.eliminated_by is None
        assert decision.winner is record
        assert "selected" in record.outcome()

    def test_explain_lists_every_alternative(self):
        log = DecisionLog()
        decision = log.begin("kernel__g2b16x16", "A100")
        decision.add("block=1 thread=1")
        decision.select("block=1 thread=1", 2e-6)
        decision.eliminate("block=2 thread=1", GENERATION, "illegal")
        text = log.explain()
        assert "tuning decision for kernel__g2b16x16 on A100" in text
        assert "winner: block=1 thread=1" in text
        assert "eliminated by generation: illegal" in text

    def test_active_decision_requires_installed_log(self):
        assert obs_decisions.active_decision() is None
        with obs_decisions.logging_decisions() as log:
            decision = log.begin("w")
            assert obs_decisions.active_decision() is decision
        assert obs_decisions.active_decision() is None


class TestFilterStageDecisions:
    def test_filters_record_eliminations(self):
        from repro.autotune import tune_wrapper
        from repro.pipeline import build_launch_wrapper
        engine = TuningEngine()
        built = build_launch_wrapper(get_benchmark("lud").source,
                                     "lud_internal", 2, (16, 16), engine)
        configs = paper_sweep_configs(max_product=32)
        with obs_decisions.logging_decisions() as log:
            tune_wrapper(built.wrapper, A100, [built.env((31, 31))],
                         configs, engine)
        (decision,) = log.decisions
        stages = {d.eliminated_by for d in decision.alternatives}
        assert SHARED_MEMORY in stages
        assert decision.winner is not None
        # every non-winning alternative names its eliminating stage
        for alt in decision.alternatives:
            if not alt.selected:
                assert alt.eliminated_by in (GENERATION, SHARED_MEMORY,
                                             REGISTERS, TIMING)


@pytest.fixture
def lud_file(tmp_path):
    path = tmp_path / "lud.cu"
    path.write_text(get_benchmark("lud").source)
    return str(path)


@pytest.fixture
def gaussian_file(tmp_path):
    path = tmp_path / "gaussian.cu"
    path.write_text(get_benchmark("gaussian").source)
    return str(path)


class TestCLI:
    def test_tune_trace_writes_chrome_json(self, lud_file, tmp_path,
                                           capsys):
        out = str(tmp_path / "trace.json")
        assert main(["tune", lud_file, "lud_internal", "--grid", "31,31",
                     "--block", "16,16", "--max-factor", "32",
                     "--trace", out]) == 0
        assert "wrote" in capsys.readouterr().err
        with open(out) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        names = {e["name"] for e in events}
        assert "frontend.parse" in names
        # cleanup reports one span per call, not one per pass run
        assert "cleanup" in names
        assert not any(name.startswith("pass:") for name in names)
        assert "filters.shared_memory" in names
        assert "filters.registers" in names
        assert "tdo.alternative" in names
        assert "model.compute" in names
        # metrics and the decision log ride along in the same file
        other = payload["otherData"]
        assert other["metrics"]["counters"]["filters.runs"] >= 1
        counters = other["metrics"]["counters"]
        assert counters["cleanup.visited"] > 0
        assert counters["cleanup.rewrites.cse"] > 0
        decisions = other["decisions"]
        assert decisions and decisions[0]["alternatives"]
        # the global tracer/registry are uninstalled afterwards
        assert obs_tracer.current() is None
        assert obs_metrics.current() is None

    def test_tune_stats_count_generations_once_under_trace(self, tmp_path,
                                                          capsys):
        path = tmp_path / "scale.cu"
        path.write_text(SOURCE)
        command = ["tune", str(path), "scale", "--grid", "64", "--block",
                   "256", "--max-factor", "8", "--stats", "--explain"]

        def counters(extra):
            assert main(command + extra) == 0
            rows = [line.split() for line in
                    capsys.readouterr().out.splitlines()]
            return {row[0]: int(row[1]) for row in rows
                    if len(row) == 2 and row[0].startswith("alternative")}

        plain = counters([])
        traced = counters(["--trace", str(tmp_path / "t.json")])
        # the table and the decision log come from one tune
        assert plain["alternative_generations"] == 1
        assert traced == plain

    def test_tune_stats_are_the_same_with_and_without_explain(self,
                                                              tmp_path,
                                                              capsys):
        path = tmp_path / "scale.cu"
        path.write_text(SOURCE)
        command = ["tune", str(path), "scale", "--grid", "64", "--block",
                   "256", "--max-factor", "8", "--stats"]

        def counter_block(extra):
            assert main(command + extra) == 0
            out = capsys.readouterr().out
            table = out[out.index("engine stages:"):]
            return table[table.index("\n\n"):].split()

        # explaining a tune must not tune the kernel again
        assert counter_block(["--explain"]) == counter_block([])

    def test_tune_stats_prints_the_same_counters_under_trace(self, tmp_path,
                                                             capsys):
        path = tmp_path / "scale.cu"
        path.write_text(SOURCE)
        command = ["tune", str(path), "scale", "--grid", "64", "--block",
                   "256", "--max-factor", "8", "--stats", "--explain"]

        def counter_block(extra):
            assert main(command + extra) == 0
            out = capsys.readouterr().out
            table = out[out.index("engine stages:"):]
            # the stage rows carry seconds; the counters follow a blank
            return table[table.index("\n\n"):].split()

        plain = counter_block([])
        traced = counter_block(["--trace", str(tmp_path / "t.json")])
        # the cleanup driver, the filters and TDO record through the
        # installed registry, which the plain run installs too
        for name in ("cleanup.visited", "cleanup.rewrites.cse",
                     "filters.runs", "filters.survivors",
                     "tdo.evaluations"):
            assert name in plain
        assert traced == plain
        assert obs_metrics.current() is None

    def test_tune_explain_names_stage_on_lud(self, lud_file, capsys):
        assert main(["tune", lud_file, "lud_internal", "--grid", "31,31",
                     "--block", "16,16", "--max-factor", "32",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "tuning decision for lud_internal" in out
        assert "winner:" in out
        assert "eliminated by shared-memory" in out
        assert "static shared memory exceeds" in out

    def test_tune_explain_names_stage_on_gaussian(self, gaussian_file,
                                                  capsys):
        assert main(["tune", gaussian_file, "Fan2", "--grid", "32,32",
                     "--block", "4,4", "--max-factor", "8",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "tuning decision for Fan2" in out
        assert "winner:" in out
        assert "eliminated by timing" in out
        assert "slower than the winner" in out

    def test_trace_summarize(self, lud_file, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        assert main(["tune", lud_file, "lud_internal", "--grid", "31,31",
                     "--block", "16,16", "--max-factor", "4",
                     "--trace", out]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", out, "--top", "5"]) == 0
        summary = capsys.readouterr().out
        sections = summary.strip().split("\n\n")
        lines = sections[0].splitlines()
        assert lines[0].split()[0] == "span"
        assert len(lines) <= 2 + 5
        # tune --trace records a metrics snapshot, so the summary gains a
        # histogram table with percentile columns
        assert len(sections) == 2
        header = sections[1].splitlines()[0].split()
        assert header[0] == "histogram"
        assert "p50" in header and "p90" in header

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "nope.json")]) == 1
        assert "cannot summarize" in capsys.readouterr().err

    def test_verbosity_flags_configure_repro_logger(self, capsys):
        try:
            assert main(["-v", "targets"]) == 0
            assert logging.getLogger("repro").level == logging.INFO
            assert main(["-q", "targets"]) == 0
            assert logging.getLogger("repro").level == logging.ERROR
            assert main(["-vv", "targets"]) == 0
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            configure_logging(0)

    def test_single_cli_handler_installed(self):
        configure_logging(1)
        configure_logging(2)
        handlers = [h for h in logging.getLogger("repro").handlers
                    if h.get_name() == "repro-cli"]
        assert len(handlers) == 1
        configure_logging(0)

    def test_get_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("engine.cache").name == "repro.engine.cache"
        child = get_logger("engine.cache")
        parents = set()
        while child is not None:
            parents.add(child)
            child = child.parent
        assert logging.getLogger("repro") in parents


class TestOverheadGuard:
    def test_disabled_tracing_costs_under_two_percent(self):
        from repro.benchsuite.experiments import fig13_data
        assert obs_tracer.current() is None
        configs = paper_sweep_configs(max_product=4)

        def run():
            return fig13_data(benchmarks=["lud"], configs=configs,
                              engine=TuningEngine())

        run()  # warm caches (imports, parse tables)
        start = time.perf_counter()
        run()
        untraced = time.perf_counter() - start

        # how many instrumentation sites does that workload actually hit?
        with tracing() as tracer:
            run()
        site_hits = len(tracer)
        assert site_hits > 0

        # per-call cost of the disabled fast path
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            obs_tracer.span("overhead-probe")
        per_call = (time.perf_counter() - start) / calls

        overhead = site_hits * per_call
        assert overhead < 0.02 * untraced, \
            "disabled tracing costs %.6fs on a %.6fs workload" % (
                overhead, untraced)
