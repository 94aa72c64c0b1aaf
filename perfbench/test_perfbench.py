"""Tests of the benchmark's own logic: the seeded draw, the percentile
helper, self-time attribution and the output checks.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import draw  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# -- the seeded draw ---------------------------------------------------------


def test_same_seed_same_jobs():
    assert draw.jobs_for(7) == draw.jobs_for(7)
    assert draw.validated_jobs(7) == draw.validated_jobs(7)


def test_different_seeds_different_jobs():
    draws = {tuple(draw.jobs_for(seed)) for seed in range(20)}
    assert len(draws) == 20
    pairs = {draw.drawn_programs(seed) for seed in range(40)}
    assert pairs == {(cheap, mid) for cheap in draw.CHEAP
                     for mid in draw.MID}


def test_a_pass_is_the_fixed_pair_plus_the_drawn_pair_on_both_archs():
    for seed in range(10):
        jobs = draw.jobs_for(seed)
        programs = draw.FIXED + draw.drawn_programs(seed)
        assert sorted(jobs) == sorted((p, a) for p in programs
                                      for a in draw.ARCHS)


def test_drawn_programs_are_benchsuite_programs():
    from repro.benchsuite import BENCHMARKS
    for program in draw.CHEAP + draw.MID:
        assert program in BENCHMARKS and program not in draw.FIXED


# -- percentiles -------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(50), 90)  # rank 45: 5 beyond
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(19), 50)  # rank 10: 9 beyond
    assert stats.percentile(range(100), 90) == 89  # rank 90: 10 beyond
    assert stats.percentile(range(20), 50) == 9


def test_tail_percentile_is_p90_or_the_highest_supported():
    assert stats.tail_percentile(200) == 90
    assert stats.tail_percentile(100) == 90
    q = stats.tail_percentile(24)
    assert q == pytest.approx(100 * 14 / 24)
    samples = list(range(24))
    assert stats.percentile(samples, q) == 13  # 10 beyond
    assert stats.tail_percentile(20) == 50
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(19)


# -- self time and attribution -----------------------------------------------


def _span(ident, name, start, end, parent=None, job="j"):
    return Span(ident, name, start, end, parent, job)


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span(1, "job", 0.0, 10.0),
        _span(2, "autotune.tdo", 1.0, 5.0, parent=1),
        _span(3, "simulator.model", 2.0, 3.0, parent=2),
        _span(4, "transforms.cleanup", 6.0, 8.5, parent=1),
        # overlapping siblings are covered once
        _span(5, "engine.cache_lookup", 6.5, 7.0, parent=4),
        _span(6, "engine.cache_lookup", 6.8, 7.5, parent=4),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.5, 2: 3.0, 3: 1.0, 4: 1.5,
                                   5: 0.5, 6: 0.7})
    layers, total = tracing.attribute(spans)
    assert total == pytest.approx(10.0)
    assert layers["unattributed_s"] == pytest.approx(3.5)
    assert layers["autotune.tdo_s"] == pytest.approx(3.0)
    assert layers["simulator.model_s"] == pytest.approx(1.0)
    assert layers["transforms.cleanup_s"] == pytest.approx(1.5)


def test_layers_plus_residual_equal_the_total_over_many_jobs():
    spans = []
    ident = 0
    for job in range(5):
        base = job * 10.0
        ident += 1
        root = ident
        spans.append(_span(root, "job", base, base + 9.0, job=str(job)))
        for offset, name in enumerate(("frontend.parse", "autotune.tdo",
                                       "validate")):
            ident += 1
            spans.append(_span(ident, name, base + 2 * offset,
                               base + 2 * offset + 1.5, parent=root,
                               job=str(job)))
        ident += 1
        spans.append(_span(ident, "interpreter", base + 4.2, base + 4.4,
                           parent=ident - 1, job=str(job)))
    layers, total = tracing.attribute(spans)
    assert total == pytest.approx(45.0)
    assert sum(layers.values()) == pytest.approx(total)
    assert layers["unattributed_s"] == pytest.approx(5 * (9.0 - 4.5))
    assert layers["validate.self_s"] == pytest.approx(5 * 1.3)


def test_a_served_job_splits_into_http_queue_run_and_worker_stages():
    root = _span(1, "serve.job", 100.0, 100.100, job="j000001")
    recorded = [
        _span(2, "serve.ledger_append", 100.011, 100.012, job="j000001"),
        _span(3, "serve.ledger_append", 100.021, 100.022, job="j000001"),
        _span(4, "engine.scheduler", 100.023, 100.083, job="j000001"),
        _span(5, "serve.ledger_append", 100.084, 100.086, job="j000001"),
        _span(6, "serve.ledger_append", 100.02, 100.03, job="other"),
    ]
    offset = 1000.0  # wall clock = perf_counter + offset
    status = {"queued_at": 1100.010, "started_at": 1100.020,
              "finished_at": 1100.090}
    result = {"wall_seconds": 0.050,
              "stages": {"parse": 0.005, "cleanup": 0.020, "replay": 0.004,
                         "unknown": 1.0}}
    ids = iter(range(100, 200)).__next__
    spans = tracing.serve_job_spans(root, status, result, recorded, ids,
                                    offset)
    layers, total = tracing.attribute(spans)
    assert total == pytest.approx(0.100)
    assert sum(layers.values()) == pytest.approx(total)
    # http 0.020 + queue 0.010 - 0.001 + run 0.070 - 0.003 - 0.060
    assert layers["serve.self_s"] == pytest.approx(0.020 + 0.009 + 0.007)
    assert layers["serve.ledger_append_s"] == pytest.approx(0.004)
    assert layers["engine.scheduler_s"] == pytest.approx(0.010)
    assert layers["frontend.parse_s"] == pytest.approx(0.005)
    assert layers["transforms.cleanup_s"] == pytest.approx(0.020)
    assert layers["transforms.replay_s"] == pytest.approx(0.004)
    assert layers["unattributed_s"] == pytest.approx(0.050 - 0.029)


def test_install_wraps_and_uninstall_restores():
    from repro.engine.cache import TuningCache
    from repro import pipeline
    originals = (TuningCache.__dict__["lookup"], pipeline.run_cleanup)
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        assert TuningCache.__dict__["lookup"] is not originals[0]
        assert pipeline.run_cleanup is not originals[1]
        hit, _ = TuningCache(None).lookup("nothing")
        assert not hit
    finally:
        tracing.uninstall(saved)
    assert (TuningCache.__dict__["lookup"], pipeline.run_cleanup) == \
        originals
    assert [span.name for span in recorder.spans] == ["engine.cache_lookup"]
    counts = tracing.counts_of(recorder)
    assert counts["engine.lookups"] == 1
    assert counts["engine.hits"] == 0


# -- output checks -----------------------------------------------------------


def _records():
    cold = workloads.JobRecord("lud", "a100", seconds=0.18, misses=3,
                               winners={"w": "block=2x2 {}"})
    warm = workloads.JobRecord("lud", "a100", seconds=0.18, hits=3,
                               winners={"w": "block=2x2 {}"})
    return {cold.key: cold}, warm


def test_an_untouched_warm_result_passes():
    reference, warm = _records()
    checks = workloads.Checks()
    workloads.check_same(checks, [warm], reference, warm=True)
    assert (checks.attempted, checks.failed) == (3, 0)


@pytest.mark.parametrize("field, value", [
    ("seconds", 0.18 * (1 + 1e-12)),
    ("winners", {"w": "block=1x1 {}"}),
    ("misses", 1),
    ("hits", 2),
])
def test_a_tampered_warm_result_fails(field, value):
    reference, warm = _records()
    setattr(warm, field, value)
    checks = workloads.Checks()
    workloads.check_same(checks, [warm], reference, warm=True)
    assert checks.failed == 1
    assert "lud/a100" in checks.problems[0]


def test_a_failed_job_counts_as_failed():
    checks = workloads.Checks()
    workloads.check_jobs(checks, [
        workloads.JobRecord("lud", "a100", seconds=0.1),
        workloads.JobRecord("lud", "a100", error="ValueError: boom")])
    assert (checks.attempted, checks.failed) == (2, 1)
