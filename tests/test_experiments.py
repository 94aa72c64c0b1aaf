"""Tests for the experiment drivers behind the paper's figures."""

import pytest

from repro.benchsuite.experiments import (fig13_summary, fig14_heatmap,
                                          geomean, hipify_ease_data,
                                          sweep_kernel_configs,
                                          table2_profile)
from repro.benchsuite import get_benchmark
from repro.engine import TuningEngine
from repro.targets import A100


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([1.0]) == 1.0
        assert geomean([]) == 1.0

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0, -1.0]) == pytest.approx(4.0)


class TestFig16Geomeans:
    """fig16_geomeans must distinguish missing, zero, and valid cells."""

    @staticmethod
    def _data(**cells):
        # two benchmarks, one arch, tiers clang + polygeist
        data = {
            "a": {("GPU", "clang"): 2.0, ("GPU", "polygeist"): 1.0},
            "b": {("GPU", "clang"): 4.0, ("GPU", "polygeist"): 2.0},
        }
        for spec, value in cells.items():
            name, tier = spec.split("_", 1)
            data[name][("GPU", tier)] = value
        return data

    def test_basic_speedups(self):
        from repro.benchsuite.experiments import fig16_geomeans
        means = fig16_geomeans(self._data(), "GPU")
        assert means["polygeist"] == pytest.approx(2.0)
        assert means["clang"] == pytest.approx(1.0)

    def test_none_cells_skipped_not_dropped_as_zero(self):
        from repro.benchsuite.experiments import fig16_geomeans
        means = fig16_geomeans(self._data(b_polygeist=None), "GPU")
        assert means["polygeist"] == pytest.approx(2.0)  # only 'a' counts

    def test_zero_time_warns_instead_of_silent_drop(self):
        from repro.benchsuite.experiments import fig16_geomeans
        with pytest.warns(RuntimeWarning, match="0.0 modeled time"):
            means = fig16_geomeans(self._data(b_polygeist=0.0), "GPU")
        assert means["polygeist"] == pytest.approx(2.0)

    def test_all_ratios_discarded_raises(self):
        from repro.benchsuite.experiments import fig16_geomeans
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError, match="all-invalid"):
                fig16_geomeans(
                    self._data(a_polygeist=0.0, b_polygeist=0.0), "GPU")


class TestKernelSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        bench = get_benchmark("lud")
        configs = [
            {"block_total": 1, "thread_total": 1},
            {"block_total": 2, "thread_total": 1},
            {"block_total": 1, "thread_total": 2},
            {"block_total": 2, "thread_total": 2},
        ]
        return sweep_kernel_configs(
            bench.source, "lud_internal", (16, 16),
            [(120, 120)], A100, configs, "lud",
            engine=TuningEngine(validate=False))

    def test_all_configs_present(self, sweep):
        assert len(sweep.results) == 4
        assert sweep.baseline() is not None

    def test_strategy_filters(self, sweep):
        block_best = sweep.best(block_only=True)
        thread_best = sweep.best(thread_only=True)
        assert block_best.thread_total == 1
        assert thread_best.block_total == 1

    def test_block_beats_thread_on_lud(self, sweep):
        """The paper's lud observation: block-only > thread-only."""
        assert sweep.speedup(block_only=True) >= \
            sweep.speedup(thread_only=True) - 1e-9

    def test_combined_dominates(self, sweep):
        assert sweep.speedup() >= sweep.speedup(block_only=True) - 1e-9
        assert sweep.speedup() >= sweep.speedup(thread_only=True) - 1e-9

    def test_baseline_found_among_per_dimension_factors(self):
        # configs spelled as factors carry no totals, so the uncoarsened
        # row is only known by its factors all being 1
        bench = get_benchmark("lud")
        sweep = sweep_kernel_configs(
            bench.source, "lud_internal", (16, 16), [(120, 120)], A100,
            [{"block_factors": (2, 1), "thread_factors": (1, 1)},
             {"block_factors": (1, 1), "thread_factors": (1, 1)}], "lud",
            engine=TuningEngine(validate=False))
        assert sweep.baseline().config["block_factors"] == (1, 1)
        assert sweep.speedup() > 1.0

    def test_totals_come_from_the_applied_coarsening(self):
        # a config spelled as factors records the totals it coarsens by,
        # so a block-coarsened row never counts as thread-only
        bench = get_benchmark("lud")
        sweep = sweep_kernel_configs(
            bench.source, "lud_internal", (16, 16), [(120, 120)], A100,
            [{"block_factors": (2, 1), "thread_factors": (1, 1)},
             {"block_factors": (1, 1), "thread_factors": (1, 1)}], "lud",
            engine=TuningEngine(validate=False))
        coarsened, = [r for r in sweep.results
                      if r.config["block_factors"] == (2, 1)]
        assert (coarsened.block_total, coarsened.thread_total) == (2, 1)
        assert sweep.best(thread_only=True) is sweep.baseline()


class TestFig14Shapes:
    @pytest.fixture(scope="class")
    def heatmap(self):
        return fig14_heatmap(arch=A100, totals=(1, 2, 4, 32))

    def test_block_coarsening_helps_lud(self, heatmap):
        assert heatmap[(2, 1)] > 1.0
        assert heatmap[(4, 1)] > heatmap[(2, 1)]

    def test_subwarp_thread_cliff(self, heatmap):
        # factor 32 on 256 threads -> 8-thread blocks, far below a warp
        assert heatmap[(1, 32)] < 1.0

    def test_shared_limit_invalidates_block32(self, heatmap):
        assert heatmap[(32, 1)] is None

    def test_summary_ordering(self, heatmap):
        # reconstruct a sweep-like summary from the heatmap
        block_best = max(heatmap[(b, 1)] for b in (1, 2, 4)
                         if heatmap.get((b, 1)))
        thread_best = max(heatmap[(1, t)] for t in (1, 2, 4)
                          if heatmap.get((1, t)))
        assert block_best >= thread_best


class TestTable2Shapes:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2_profile(arch=A100, size=48)

    def _bytes(self, text):
        value, unit = text.split()
        return float(value) * {"B": 1, "KB": 1e3, "MB": 1e6,
                               "GB": 1e9}[unit]

    def _count(self, text):
        if text.endswith("M"):
            return float(text[:-2]) * 1e6
        if text.endswith("K"):
            return float(text[:-2]) * 1e3
        return float(text)

    def test_block_coarsening_reduces_l2_traffic(self, rows):
        base = self._bytes(rows["(1, 1)"]["L2 -> L1 Read"])
        block = self._bytes(rows["(4, 1)"]["L2 -> L1 Read"])
        assert block < base

    def test_thread_coarsening_reduces_shared_requests(self, rows):
        base = self._count(rows["(1, 1)"]["ShMem -> SM Read Req."])
        thread = self._count(rows["(1, 4)"]["ShMem -> SM Read Req."])
        assert thread < base

    def test_runtime_populated(self, rows):
        for label in ("(1, 1)", "(4, 1)", "(1, 4)"):
            assert rows[label]["Runtime"].endswith("s")


class TestHipifyEase:
    def test_zero_fixes_for_ir_route(self):
        reports = hipify_ease_data(benchmarks=["lud", "nw"])
        assert all(r.polygeist_fix_count == 0 for r in reports)
        assert all(r.hipify_fix_count >= 1 for r in reports)
        assert all(r.hipify_automatic_changes >= 1 for r in reports)
