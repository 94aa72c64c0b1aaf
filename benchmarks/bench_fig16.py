"""Fig. 16 — composite Rodinia runtimes: clang vs Polygeist-GPU without and
with the parallel optimizations, on all four GPU models.

Paper shapes: without optimizations, Polygeist-GPU is near clang parity on
NVIDIA (shared front/back-end) except lavaMD (shared-memory LICM); with
optimizations, 17-27% geomean improvement on NVIDIA and 16-17% on AMD over
the hipify+clang baseline.
"""

from conftest import tuning_configs

from repro.benchsuite.experiments import fig16_data, fig16_geomeans
from repro.engine.scheduler import sweep_workers
from repro.targets import A100, A4000, MI210, RX6800

TIERS = ("clang", "polygeist-noopt", "polygeist")


def test_fig16_composite_all_gpus(benchmark, report):
    report.name = "fig16"
    archs = [A4000, A100, RX6800, MI210]

    def run():
        # one job per benchmark x arch x tier over $REPRO_SWEEP_WORKERS
        # processes; the output does not depend on the worker count
        return fig16_data(archs=archs, tiers=TIERS,
                          configs=tuning_configs(), workers=sweep_workers())

    data = benchmark.pedantic(run, rounds=1, iterations=1)

    report("FIG. 16: COMPOSITE RUNTIMES, NORMALIZED TO clang PER GPU")
    report("(P-G = Polygeist-GPU; no-opt disables parallel optimizations)")
    for arch in archs:
        report("")
        report("== %s ==" % arch.name)
        report("%-16s %12s %14s %12s" %
               ("benchmark", "clang", "P-G (no-opt)", "P-G (opt)"))
        report("-" * 58)
        for name in sorted(data):
            base = data[name][(arch.name, "clang")]
            noopt = data[name][(arch.name, "polygeist-noopt")]
            opt = data[name][(arch.name, "polygeist")]
            report("%-16s %11.2fx %13.2fx %11.2fx" %
                   (name, 1.0, base / noopt, base / opt))
        means = fig16_geomeans(data, arch.name)
        report("-" * 58)
        report("%-16s %11.2fx %13.2fx %11.2fx  (geomean speedup)" %
               ("GEOMEAN", means["clang"], means["polygeist-noopt"],
                means["polygeist"]))

    report("")
    report("paper: optimizations give 17-27%% geomean on NVIDIA GPUs,")
    report("       16-17%% on AMD over hipify+clang; no-opt ~ parity")

    # -- shape assertions ----------------------------------------------------
    for arch in archs:
        means = fig16_geomeans(data, arch.name)
        # optimized never slower than the baseline (TDO keeps factor 1)
        assert means["polygeist"] >= 0.99
        # optimizations add a real geomean win somewhere
    a100 = fig16_geomeans(data, A100.name)
    assert a100["polygeist"] > 1.05, \
        "expected a >5%% geomean win from coarsening+TDO on A100"
    # no-opt parity: within ~25% of clang on NVIDIA (LICM helps a few)
    assert 0.8 <= a100["polygeist-noopt"] <= 1.6
