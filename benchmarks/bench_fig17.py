"""Fig. 17 — cross-vendor comparison on comparable GPUs: A4000 (clang),
A4000 (Polygeist-GPU), RX6800 (Polygeist-GPU).

Paper shapes: RX6800 (Polygeist-GPU) achieves ~parity or better with the
A4000 overall (25% geomean over A4000-clang in the paper); nw is the
negative outlier on AMD (136 B shared/thread -> LDS offloaded to global);
the double-precision benchmarks (particlefilter, lavaMD, hotspot3D) favor
the RX6800's stronger FP64.
"""

from conftest import tuning_configs

from repro.benchsuite.experiments import fig17_data, geomean
from repro.benchsuite import get_benchmark
from repro.engine.scheduler import sweep_workers


def test_fig17_cross_vendor(benchmark, report):
    report.name = "fig17"

    def run():
        # one job per (benchmark, column) over $REPRO_SWEEP_WORKERS
        # processes
        return fig17_data(configs=tuning_configs(), workers=sweep_workers())

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    columns = ["A4000 (clang)", "A4000 (Polygeist-GPU)",
               "RX6800 (Polygeist-GPU)"]

    report("FIG. 17: CROSS-VENDOR COMPOSITES, SPEEDUP OVER A4000 (clang)")
    report("")
    report("%-16s %14s %22s %23s" % ("benchmark", *columns))
    report("-" * 80)
    ratios_rx = []
    ratios_pg = []
    for name in sorted(data):
        base = data[name][columns[0]]
        row = [base / data[name][c] for c in columns]
        ratios_pg.append(row[1])
        ratios_rx.append(row[2])
        marker = ""
        if name == "nw":
            marker = "  <- AMD LDS offload"
        elif get_benchmark(name).uses_double:
            marker = "  <- fp64 favors AMD"
        report("%-16s %13.2fx %21.2fx %22.2fx%s" %
               (name, row[0], row[1], row[2], marker))
    report("-" * 80)
    report("%-16s %13.2fx %21.2fx %22.2fx  (geomean)" %
           ("GEOMEAN", 1.0, geomean(ratios_pg), geomean(ratios_rx)))
    report("")
    report("paper: RX6800 (P-G) 25%% geomean over A4000 (clang), 9%% over "
           "A4000 (P-G)")

    # -- shapes --------------------------------------------------------------
    # fp64 benchmarks favor the RX6800 at equal (untuned) tiers: this is
    # the hardware claim (§VII-D2), separated from per-platform tuning
    for name in ("lavaMD", "hotspot3D", "particlefilter"):
        assert data[name]["RX6800 (clang)"] < \
            data[name]["A4000 (clang)"], \
            "%s (double) must favor RX6800 at equal tiers" % name
    # nw is relatively worse on AMD than the suite median
    nw_ratio = data["nw"]["RX6800 (Polygeist-GPU)"] / \
        data["nw"]["A4000 (Polygeist-GPU)"]
    suite_ratio = geomean([
        data[n]["RX6800 (Polygeist-GPU)"] / data[n]["A4000 (Polygeist-GPU)"]
        for n in data])
    assert nw_ratio > suite_ratio, \
        "nw must be a negative outlier on AMD (LDS offload)"
    # Polygeist-GPU on A4000 never loses to clang on A4000
    assert geomean(ratios_pg) >= 1.0
