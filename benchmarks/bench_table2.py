"""Table II — profiling data for lud at (block, thread) factors (1,1),
(4,1), and (1,4).

Counters come from trace-driven functional execution through the cache
model (the Nsight Compute substitute); runtimes from the analytical model.

Paper shapes: block coarsening (4,1) REDUCES L2->L1 read traffic (fused
blocks reuse overlapping rows in L1) while keeping shared-memory requests;
thread coarsening (1,4) keeps global traffic but REDUCES shared-memory
read requests (copies share uniform tile reads).
"""

from repro.benchsuite.experiments import table2_profile
from repro.engine.scheduler import sweep_workers
from repro.targets import A100


def test_table2_lud_profiling(benchmark, report):
    report.name = "table2"

    def profile():
        # one job per (block, thread) config over $REPRO_SWEEP_WORKERS
        # processes
        return table2_profile(arch=A100, size=64, workers=sweep_workers())

    rows = benchmark.pedantic(profile, rounds=1, iterations=1)

    report("TABLE II: PROFILING DATA FOR LUD (A100 model; trace-driven "
           "counters at 64x64, modeled runtime at 8192x8192)")
    report("")
    labels = ["(1, 1)", "(4, 1)", "(1, 4)"]
    keys = list(rows[labels[0]].keys())
    report("%-28s %14s %14s %14s" % ("(block, thread) factors", *labels))
    report("-" * 76)
    for key in keys:
        report("%-28s %14s %14s %14s" %
               (key, rows[labels[0]][key], rows[labels[1]][key],
                rows[labels[2]][key]))
    report("")
    report("paper shapes:")
    report(" * (4,1) has LOWER L2->L1 read traffic than (1,1) "
           "(460 MB vs 583 MB in the paper)")
    report(" * (1,4) keeps L2->L1 traffic ~equal to (1,1) (582 MB)")
    report(" * (1,4) has FEWER shared-memory read requests "
           "(12.53 M vs 41.78 M)")
    report(" * (4,1) keeps shared-memory requests ~equal (41.62 M)")

    def parse_bytes(text):
        value, unit = text.split()
        return float(value) * {"B": 1, "KB": 1e3, "MB": 1e6,
                               "GB": 1e9}[unit]

    def parse_count(text):
        if text.endswith("M"):
            return float(text[:-2]) * 1e6
        if text.endswith("K"):
            return float(text[:-2]) * 1e3
        return float(text)

    l2_base = parse_bytes(rows["(1, 1)"]["L2 -> L1 Read"])
    l2_block = parse_bytes(rows["(4, 1)"]["L2 -> L1 Read"])
    l2_thread = parse_bytes(rows["(1, 4)"]["L2 -> L1 Read"])
    assert l2_block < l2_base, \
        "block coarsening must reduce L2->L1 read traffic"
    assert abs(l2_thread - l2_base) / l2_base < 0.25, \
        "thread coarsening keeps global traffic roughly unchanged"

    sh_base = parse_count(rows["(1, 1)"]["ShMem -> SM Read Req."])
    sh_thread = parse_count(rows["(1, 4)"]["ShMem -> SM Read Req."])
    assert sh_thread < sh_base, \
        "thread coarsening must reduce shared-memory read requests"
