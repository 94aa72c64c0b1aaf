"""Tests for ``repro.analysis.report`` / ``repro.analysis.check`` and the
``repro analyze`` / ``repro check`` CLI: roofline math, bottleneck
classification, the decision narrative, provenance headers on sweep
records, noise-band regression gating (pass / fail / refuse) of sweep
records and saved perfbench outputs, and cross-process worker-span
merging in traced sweeps."""

import json
import os

import pytest

from repro.__main__ import main
from repro.analysis.check import (CheckUsageError, PROVENANCE_SCHEMA,
                                  compare_records, extract_cells,
                                  load_record, parse_noise_band,
                                  parse_perfbench, provenance_header,
                                  record_kind)
from repro.analysis.report import (Bottleneck, REPORT_SCHEMA, Roofline,
                                   VERDICTS, analyze_benchmark,
                                   classify_bottleneck)
from repro.autotune import paper_sweep_configs
from repro.obs import tracer as obs_tracer
from repro.obs.export import chrome_trace_events, summarize_events
from repro.obs.tracer import Span, Tracer, tracing
from repro.targets import A100


@pytest.fixture(scope="module")
def lud_analysis():
    return analyze_benchmark("lud", A100,
                             configs=paper_sweep_configs(max_product=4))


def _roofline(ai=1.0, ridge=10.0, pct_bw=0.5, pct_flops=0.1, dtype="f32"):
    return Roofline(flops=ai * 1e9, dram_bytes=1e9,
                    arithmetic_intensity=ai, ridge_intensity=ridge,
                    dtype=dtype, achieved_gflops=1.0, peak_gflops=10.0,
                    pct_peak_flops=pct_flops, achieved_bandwidth_gbs=1.0,
                    peak_bandwidth_gbs=2.0, pct_peak_bandwidth=pct_bw)


class TestClassifyBottleneck:
    def test_memory_dominant_is_memory_bound(self):
        verdict = classify_bottleneck(
            {"compute": 1.0, "memory": 5.0, "shared": 0.5, "latency": 0.1},
            {"occupancy": 1.0, "limiter": "none"}, _roofline(), 0)
        assert verdict.verdict == "memory-bound"
        assert "DRAM traffic" in verdict.narrative
        assert verdict.evidence["memory_seconds"] == 5.0

    def test_shared_dominant_is_memory_bound_via_shared(self):
        verdict = classify_bottleneck(
            {"compute": 1.0, "memory": 0.5, "shared": 5.0, "latency": 0.1},
            {"occupancy": 1.0, "limiter": "none"}, _roofline(), 0)
        assert verdict.verdict == "memory-bound"
        assert "shared-memory" in verdict.narrative

    def test_latency_floor_dominant(self):
        verdict = classify_bottleneck(
            {"compute": 1.0, "memory": 0.5, "shared": 0.0, "latency": 5.0},
            {"occupancy": 0.9, "limiter": "none"}, _roofline(), 0)
        assert verdict.verdict == "latency"

    def test_latency_with_low_occupancy_is_occupancy_capped(self):
        verdict = classify_bottleneck(
            {"compute": 1.0, "memory": 0.5, "shared": 0.0, "latency": 5.0},
            {"occupancy": 0.25, "limiter": "registers"}, _roofline(), 0)
        assert verdict.verdict == "occupancy-capped"
        assert "registers" in verdict.narrative

    def test_compute_dominant_clean_is_compute_bound(self):
        verdict = classify_bottleneck(
            {"compute": 5.0, "memory": 0.5, "shared": 0.0, "latency": 0.1},
            {"occupancy": 1.0, "limiter": "none"}, _roofline(), 0)
        assert verdict.verdict == "compute-bound"

    def test_compute_dominant_with_divergence(self):
        verdict = classify_bottleneck(
            {"compute": 5.0, "memory": 0.5, "shared": 0.0, "latency": 0.1},
            {"occupancy": 1.0, "limiter": "none"}, _roofline(), 3)
        assert verdict.verdict == "divergence"

    def test_compute_dominant_low_occupancy(self):
        verdict = classify_bottleneck(
            {"compute": 5.0, "memory": 0.5, "shared": 0.0, "latency": 0.1},
            {"occupancy": 0.3, "limiter": "shared"}, _roofline(), 0)
        assert verdict.verdict == "occupancy-capped"

    def test_every_verdict_is_named(self):
        assert set(VERDICTS) == {"memory-bound", "occupancy-capped",
                                 "divergence", "latency", "compute-bound"}


class TestAnalyzeBenchmark:
    def test_reports_cover_every_kernel_group(self, lud_analysis):
        assert lud_analysis.benchmark == "lud"
        assert lud_analysis.arch == A100.name
        kernels = {report.kernel for report in lud_analysis.kernels}
        assert kernels == {"lud_diagonal", "lud_perimeter", "lud_internal"}

    def test_named_bottleneck_with_roofline_numbers(self, lud_analysis):
        for report in lud_analysis.kernels:
            assert report.bottleneck.verdict in VERDICTS
            assert report.bottleneck.narrative
            roof = report.roofline
            assert roof.flops > 0
            assert roof.dram_bytes > 0
            assert roof.arithmetic_intensity == pytest.approx(
                roof.flops / roof.dram_bytes)
            assert roof.ridge_intensity == pytest.approx(
                A100.ridge_intensity(roof.dtype))
            assert 0.0 < roof.pct_peak_bandwidth <= 1.0

    def test_decision_narrative_explains_winner(self, lud_analysis):
        internal = next(r for r in lud_analysis.kernels
                        if r.kernel == "lud_internal")
        decisions = internal.decisions
        assert decisions["alternatives"] > 1
        assert decisions["winner"] is not None
        assert "TDO considered" in decisions["narrative"]
        assert "won" in decisions["narrative"]

    def test_baseline_comparison_present(self, lud_analysis):
        internal = next(r for r in lud_analysis.kernels
                        if r.kernel == "lud_internal")
        assert internal.baseline_seconds is not None
        assert internal.speedup_vs_baseline == pytest.approx(
            internal.baseline_seconds / internal.modeled_seconds)

    def test_modeled_baseline_has_no_note(self, lud_analysis):
        for report in lud_analysis.kernels:
            assert report.baseline_note is None
            assert report.as_dict()["baseline_note"] is None

    def test_stages_and_spans_captured(self, lud_analysis):
        assert "tdo" in lud_analysis.stages
        assert lud_analysis.spans
        assert all(self_seconds >= 0.0
                   for _, _, self_seconds in lud_analysis.spans)

    def test_composite_includes_pcie(self, lud_analysis):
        kernel_seconds = sum(r.modeled_seconds
                             for r in lud_analysis.kernels)
        assert lud_analysis.composite_seconds == pytest.approx(
            kernel_seconds + lud_analysis.pcie_seconds)

    def test_as_dict_is_json_round_trippable(self, lud_analysis):
        payload = json.loads(json.dumps(lud_analysis.as_dict()))
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["provenance"]["schema"] == REPORT_SCHEMA
        assert payload["provenance"]["created"] is None  # caller's job
        verdicts = [k["bottleneck"]["verdict"] for k in payload["kernels"]]
        assert all(v in VERDICTS for v in verdicts)

    def test_markdown_names_verdict_and_winner(self, lud_analysis):
        text = lud_analysis.to_markdown()
        assert "**Verdict:" in text
        assert "Why the winner won" in text
        assert "roofline:" in text


class TestAnalyzeCLI:
    def test_json_and_markdown_output(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(["analyze", "lud", "--arch", "a100",
                     "--max-factor", "4", "--json", out,
                     "--markdown"]) == 0
        printed = capsys.readouterr().out
        assert "**Verdict:" in printed
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["benchmark"] == "lud"
        assert payload["provenance"]["created"]  # CLI stamps a timestamp
        assert payload["kernels"][0]["bottleneck"]["verdict"] in VERDICTS

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["analyze", "no-such-bench"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err


# -- check: noise-band regression gating --------------------------------------


def _sweep_record(polygeist=3.0, clang=5.0, archs=("NVIDIA A100",),
                  **prov_overrides):
    """A fig16 ``sweep --json`` record: lud's two tiers on ``archs``."""
    provenance = provenance_header(list(archs), created=None)
    provenance.update(prov_overrides)
    return {
        "figure": "fig16",
        "provenance": provenance,
        "data": {"lud": {arch: {"clang": clang, "polygeist": polygeist}
                         for arch in archs}},
    }


class TestParseNoiseBand:
    def test_percent_and_fraction(self):
        assert parse_noise_band("5%") == pytest.approx(0.05)
        assert parse_noise_band("0.05") == pytest.approx(0.05)
        assert parse_noise_band(" 12.5% ") == pytest.approx(0.125)

    def test_garbage_and_negative_rejected(self):
        with pytest.raises(CheckUsageError):
            parse_noise_band("lots")
        with pytest.raises(CheckUsageError):
            parse_noise_band("-1%")


class TestCompareRecords:
    def test_identical_records_pass(self):
        report = compare_records(_sweep_record(), _sweep_record())
        assert report.ok
        assert not report.regressions
        assert "PASS" in report.summary()

    def test_regression_beyond_band_fails(self):
        report = compare_records(_sweep_record(polygeist=3.0),
                                 _sweep_record(polygeist=3.5),
                                 noise_band=0.05)
        assert not report.ok
        (cell,) = report.regressions
        assert cell.key == "lud|NVIDIA A100|polygeist"
        assert "REGRESSION" in report.summary()

    def test_slowdown_within_band_is_ok(self):
        report = compare_records(_sweep_record(polygeist=3.0),
                                 _sweep_record(polygeist=3.05),
                                 noise_band=0.05)
        assert report.ok

    def test_improvement_reported_but_passes(self):
        report = compare_records(_sweep_record(polygeist=3.0),
                                 _sweep_record(polygeist=2.0),
                                 noise_band=0.05)
        assert report.ok
        assert "improvement" in report.summary()

    def test_missing_cell_fails(self):
        new = _sweep_record()
        del new["data"]["lud"]["NVIDIA A100"]["polygeist"]
        report = compare_records(_sweep_record(), new)
        assert not report.ok
        assert report.missing
        assert "MISSING" in report.summary()

    def test_added_cell_is_informational(self):
        new = _sweep_record()
        new["data"]["lud"]["NVIDIA A100"]["polygeist-noopt"] = 4.0
        report = compare_records(_sweep_record(), new)
        assert report.ok
        assert "added" in report.summary()

    def test_cross_arch_refused(self):
        with pytest.raises(CheckUsageError, match="cross-arch"):
            compare_records(_sweep_record(),
                            _sweep_record(archs=("AMD MI210",)))

    def test_cross_schema_refused(self):
        with pytest.raises(CheckUsageError, match="cross-schema"):
            compare_records(_sweep_record(),
                            _sweep_record(schema=PROVENANCE_SCHEMA + 1))

    def test_missing_provenance_refused(self):
        bare = _sweep_record()
        del bare["provenance"]
        with pytest.raises(CheckUsageError, match="no provenance"):
            compare_records(_sweep_record(), bare)

    def test_kind_mismatch_refused(self):
        fig13 = {"figure": "fig13",
                 "provenance": provenance_header(["NVIDIA A100"]),
                 "data": []}
        with pytest.raises(CheckUsageError, match="not comparable"):
            compare_records(_sweep_record(), fig13)

    def test_version_skew_warns_but_compares(self):
        report = compare_records(_sweep_record(),
                                 _sweep_record(repro_version="0.9"))
        assert report.ok
        assert any("repro version differs" in w for w in report.warnings)


class TestExtractCells:
    def test_fig16_sweep_cells(self):
        payload = {
            "figure": "fig16",
            "data": {"lud": {"NVIDIA A100": {"clang": 2.0,
                                             "polygeist": 1.0}}},
        }
        assert extract_cells(payload) == {
            "lud|NVIDIA A100|clang": 2.0,
            "lud|NVIDIA A100|polygeist": 1.0,
        }

    def test_fig13_skips_invalid_results(self):
        payload = {
            "figure": "fig13",
            "data": [{"benchmark": "nn", "kernel": "k", "block": [64],
                      "results": [
                          {"desc": "block=1 thread=1", "seconds": 1.0,
                           "valid": True},
                          {"desc": "block=8 thread=8", "seconds": None,
                           "valid": False}]}],
        }
        assert extract_cells(payload) == {
            "nn|k|64|block=1 thread=1": 1.0}

    def test_incomplete_sweep_refused(self):
        with pytest.raises(CheckUsageError, match="no merged data"):
            extract_cells({"figure": "fig16", "data": None})

    def test_record_kind_rejects_garbage(self):
        with pytest.raises(CheckUsageError, match="unrecognized"):
            record_kind({"something": "else"})


class TestCheckCLI:
    def _write(self, tmp_path, name, payload):
        path = str(tmp_path / name)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path

    def test_exit_0_on_identical(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _sweep_record())
        b = self._write(tmp_path, "b.json", _sweep_record())
        assert main(["check", a, b, "--noise-band", "5%"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_1_on_regression(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _sweep_record(polygeist=3.0))
        b = self._write(tmp_path, "b.json", _sweep_record(polygeist=4.0))
        assert main(["check", a, b, "--noise-band", "5%"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_2_on_refusal(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _sweep_record())
        b = self._write(tmp_path, "b.json",
                        _sweep_record(archs=("AMD MI210",)))
        assert main(["check", a, b]) == 2
        assert "check refused" in capsys.readouterr().err

    def test_exit_2_on_unreadable_file(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _sweep_record())
        assert main(["check", a, str(tmp_path / "missing.json")]) == 2
        assert "check refused" in capsys.readouterr().err


# -- check: saved perfbench outputs ------------------------------------------


def _perfbench_out(workload="cold_tune", trace=0, seed=1, compile_cpu=2.0):
    """The stdout of ``perfbench/run.py``, abridged to what check reads."""
    metrics = {
        "setup_s": (4.0, "s"),
        "compile_cpu_s": (compile_cpu, "s"),
        "jobs_per_s": (3.0, "1/s"),
        "job_p50_ms": (250.0, "ms"),
        "job_tail_ms": (300.0, "ms"),
        "peak_rss_mb": (300.0, "MB"),
        "modeled_speedup": (1.1, "x"),
    }
    lines = ["workload %s seed %d trace %d: 3 timed passes, 12.0 s in all"
             % (workload, seed, trace),
             "  loadavg before {'1m': 0.1}, after {'1m': 0.3}"]
    lines += ["  %-28s %14.6g %-6s" % (name, value, unit)
              for name, (value, unit) in metrics.items()]
    lines.append("  checks: 100 attempted, 0 failed (failed_ratio 0.0000)")
    lines.append(json.dumps({
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return "\n".join(lines) + "\n"


class TestPerfbenchRecords:
    def _write(self, tmp_path, name, text):
        path = str(tmp_path / name)
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def test_header_and_last_line_parsed(self):
        record = parse_perfbench(_perfbench_out(trace=1, seed=3))
        assert record["perfbench"] == {"workload": "cold_tune", "seed": 3,
                                       "trace": 1}
        assert record_kind(record) == ("perfbench", "cold_tune trace 1")

    def test_only_time_cells_extracted(self):
        cells = extract_cells(parse_perfbench(_perfbench_out()))
        # 1/s, MB and x metrics have no "lower is better" time direction
        assert cells == {"setup_s": 4.0, "compile_cpu_s": 2.0,
                         "job_p50_ms": 250.0, "job_tail_ms": 300.0}

    def test_other_workload_refused(self):
        with pytest.raises(CheckUsageError, match="not comparable"):
            compare_records(parse_perfbench(_perfbench_out()),
                            parse_perfbench(_perfbench_out("warm_replay")))

    def test_other_trace_mode_refused(self):
        with pytest.raises(CheckUsageError, match="not comparable"):
            compare_records(parse_perfbench(_perfbench_out()),
                            parse_perfbench(_perfbench_out(trace=1)))

    def test_other_seed_warns_but_compares(self):
        report = compare_records(parse_perfbench(_perfbench_out()),
                                 parse_perfbench(_perfbench_out(seed=2)))
        assert report.ok
        assert any("seed differs" in w for w in report.warnings)

    def test_run_without_result_line_refused(self):
        text = _perfbench_out().rsplit("\n", 2)[0] + "\n"
        with pytest.raises(CheckUsageError, match="JSON result"):
            parse_perfbench(text)

    def test_neither_json_nor_perfbench_refused(self, tmp_path):
        assert parse_perfbench("") is None
        path = self._write(tmp_path, "notes.txt", "not a record {\n")
        assert parse_perfbench("not a record {\n") is None
        with pytest.raises(CheckUsageError, match="neither"):
            load_record(path)

    def test_cli_exit_codes(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.out", _perfbench_out())
        b = self._write(tmp_path, "b.out", _perfbench_out())
        slow = self._write(tmp_path, "slow.out",
                           _perfbench_out(compile_cpu=40.0))
        warm = self._write(tmp_path, "warm.out",
                           _perfbench_out("warm_replay"))
        assert main(["check", a, b, "--noise-band", "150%"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["check", a, slow, "--noise-band", "150%"]) == 1
        assert "REGRESSION compile_cpu_s" in capsys.readouterr().out
        assert main(["check", a, warm, "--noise-band", "150%"]) == 2
        assert "check refused" in capsys.readouterr().err


# -- provenance headers on producers ------------------------------------------


class TestProvenanceHeaders:
    def test_header_shape(self):
        header = provenance_header(["NVIDIA A100"], created="t0")
        assert header["schema"] == PROVENANCE_SCHEMA
        assert header["arch"] == ["NVIDIA A100"]
        assert header["created"] == "t0"
        assert header["repro_version"]
        assert header["python"]

    def test_archs_sorted_for_stable_comparison(self):
        header = provenance_header(["b-arch", "a-arch"])
        assert header["arch"] == ["a-arch", "b-arch"]

    def test_sweep_json_stamps_provenance(self, tmp_path):
        from repro.autotune.search import default_configs
        from repro.benchsuite.sweeps import (run_figure_sweep,
                                             write_sweep_json)
        outcome = run_figure_sweep(
            "fig16", workers=1, benchmarks=["nn"], archs=[A100],
            tiers=("clang",), configs=default_configs(max_total=2),
            serial_fallback=False)
        assert outcome.archs == [A100.name]
        path = str(tmp_path / "sweep.json")
        write_sweep_json(path, outcome, created="t1")
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["provenance"]["schema"] == PROVENANCE_SCHEMA
        assert payload["provenance"]["arch"] == [A100.name]
        assert payload["provenance"]["created"] == "t1"
        # and a self-comparison of the written record passes the gate
        report = compare_records(payload, payload)
        assert report.ok


# -- cross-process span merging -----------------------------------------------


class TestWorkerSpanMerge:
    def test_absorb_rebases_epoch_and_keeps_pid(self):
        parent = Tracer()
        remote_epoch = parent.epoch - 2.0
        raw = Span(name="w", category="c", start=5.0, duration=1.0,
                   tid=7, depth=0, parent=None, pid=4242).as_dict()
        assert parent.absorb([raw], epoch=remote_epoch) == 1
        (span,) = parent.finished()
        assert span.pid == 4242
        assert span.start == pytest.approx(3.0)  # 5.0 - 2.0
        assert span.tid == 7

    def test_as_dict_fills_own_pid(self):
        span = Span(name="local", category="c", start=0.0, duration=1.0,
                    tid=1, depth=0, parent=None)
        assert span.as_dict()["pid"] == os.getpid()

    def test_equal_tids_from_different_pids_get_distinct_lanes(self):
        spans = [
            Span(name="local", category="c", start=0.0, duration=1.0,
                 tid=7, depth=0, parent=None, pid=0),
            Span(name="remote", category="c", start=0.0, duration=1.0,
                 tid=7, depth=0, parent=None, pid=999),
        ]
        events = chrome_trace_events(spans, pid=1)
        lanes = {(e["pid"], e["tid"]) for e in events}
        assert len(lanes) == 2

    def test_summarize_events_keeps_processes_apart(self):
        # same tid in two processes; merging the lanes would nest
        # "remote" under "local" and steal its self time
        events = [
            {"name": "local", "ph": "X", "ts": 0.0, "dur": 100.0,
             "pid": 1, "tid": 0},
            {"name": "remote", "ph": "X", "ts": 10.0, "dur": 40.0,
             "pid": 2, "tid": 0},
        ]
        summary = summarize_events(events)
        local_row = next(line for line in summary.splitlines()
                         if line.startswith("local"))
        assert "0.000100s" in local_row  # full 100us kept as self time

    def test_traced_process_pool_sweep_merges_nested_spans(self):
        from repro.autotune.search import default_configs
        from repro.benchsuite.sweeps import run_figure_sweep
        with tracing() as tracer:
            outcome = run_figure_sweep(
                "fig16", workers=2, benchmarks=["gaussian", "nn"],
                archs=[A100], tiers=("clang",),
                configs=default_configs(max_total=2),
                serial_fallback=False)
        assert outcome.data is not None
        spans = tracer.finished()
        worker_pids = {s.pid for s in spans if s.pid != 0}
        assert worker_pids  # worker spans came home
        assert os.getpid() not in worker_pids
        # nesting survived the round trip
        nested = [s for s in spans if s.pid != 0 and s.depth > 0]
        assert nested
        assert all(s.parent is not None for s in nested)
        # lanes stay per-process in the export
        events = chrome_trace_events(spans)
        by_lane = {}
        for event in events:
            by_lane.setdefault((event["pid"], event["tid"]),
                               set()).add(event["pid"])
        assert all(len(pids) == 1 for pids in by_lane.values())

    def test_untraced_sweep_ships_no_spans(self):
        from repro.autotune.search import default_configs
        from repro.benchsuite.sweeps import run_figure_sweep
        assert obs_tracer.current() is None
        outcome = run_figure_sweep(
            "fig16", workers=1, benchmarks=["nn"], archs=[A100],
            tiers=("clang",), configs=default_configs(max_total=2),
            serial_fallback=False)
        assert outcome.data is not None


# -- histogram percentiles ----------------------------------------------------


class TestHistogramPercentiles:
    def test_exact_small_sample(self):
        from repro.obs.metrics import Histogram
        h = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
            h.observe(value)
        assert h.percentile(0.5) == 5.0
        assert h.percentile(0.9) == 9.0
        summary = h.summary()
        assert summary["p50"] == 5.0
        assert summary["p90"] == 9.0
        assert summary["count"] == 10

    def test_reservoir_stays_bounded_and_representative(self):
        from repro.obs.metrics import Histogram
        h = Histogram("h")
        n = 3 * Histogram.SAMPLE_CAP
        for i in range(n):
            h.observe(float(i))
        assert len(h._samples) <= Histogram.SAMPLE_CAP
        assert h.count == n
        # decimation keeps an evenly-strided subsequence, so the
        # percentile estimate stays near the true quantile
        assert h.percentile(0.5) == pytest.approx(n / 2, rel=0.01)
        assert h.percentile(0.9) == pytest.approx(0.9 * n, rel=0.01)

    def test_empty_histogram_summary(self):
        from repro.obs.metrics import Histogram
        summary = Histogram("h").summary()
        assert summary["p50"] == 0.0
        assert summary["p90"] == 0.0

    def test_histogram_table_renders_percentiles(self):
        from repro.obs.export import histogram_table
        table = histogram_table({"stage.tdo": {
            "count": 3, "mean": 2.0, "p50": 2.0, "p90": 3.0, "max": 3.0}})
        header = table.splitlines()[0].split()
        assert header == ["histogram", "count", "mean", "p50", "p90",
                          "max"]
        assert "stage.tdo" in table


class TestBaselineFailure:
    """Only an unlaunchable baseline is reported as missing; any other
    error while modeling it is a bug and must surface."""

    @staticmethod
    def _fail_baseline(monkeypatch, error):
        from repro.pipeline import Program

        model_launch = Program.model_launch

        def failing(self, *args, **kwargs):
            timing = model_launch(self, *args, **kwargs)
            if self.tier == "polygeist-noopt":
                # as a real failure would: after the wrapper was built
                raise error
            return timing

        monkeypatch.setattr(Program, "model_launch", failing)

    def test_unlaunchable_baseline_gives_note(self, monkeypatch):
        from repro.simulator.model import InvalidLaunch

        reason = "kernel exceeds NVIDIA A100 resources (limited by shared)"
        self._fail_baseline(monkeypatch, InvalidLaunch(reason))
        analysis = analyze_benchmark(
            "bfs", A100, configs=paper_sweep_configs(max_product=2))
        assert analysis.kernels
        for report in analysis.kernels:
            assert report.baseline_seconds is None
            assert report.speedup_vs_baseline is None
            assert report.baseline_note == reason
            assert report.as_dict()["baseline_note"] == reason
            assert "baseline not modeled: %s" % reason in \
                report.to_markdown()

    def test_other_baseline_errors_propagate(self, monkeypatch):
        self._fail_baseline(monkeypatch, RuntimeError("model bug"))
        with pytest.raises(RuntimeError, match="model bug"):
            analyze_benchmark("bfs", A100,
                              configs=paper_sweep_configs(max_product=2))
