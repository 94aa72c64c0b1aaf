"""One cleaned wrapper function and one model set per process.

:data:`repro.pipeline.FUNCTION_MEMO` keeps every cleaned launch wrapper a
:class:`~repro.pipeline.Program` builds: untuned on first use, and tuned
when a tuning-cache hit replays a winner. A later Program of the same
source clones the memoized function into its own module instead of
generating, cleaning, coarsening and cleaning it again, and its loops
share the memoized :class:`~repro.simulator.model.KernelModel`\\ s.

That is sound only while the clone equals what the Program would have
built and nothing mutates a template: the oracle below clears the memo,
so the Program takes the generate, replay and clean path, and requires
the memo-hit module to print byte for byte the same, benchsuite-wide in
every tier. The templates' printed digests must survive every way a
Program uses and mutates its own functions.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

import repro.benchsuite.base as benchsuite_base
import repro.pipeline
import repro.transforms.coarsen
from repro.autotune import paper_sweep_configs
from repro.benchsuite.base import BENCHMARKS, get_benchmark
from repro.benchsuite.base import simulate_composite
from repro.engine import TuningCache, TuningEngine
from repro.frontend import ModuleGenerator
from repro.ir import OpResult, print_module, print_op
from repro.pipeline import FUNCTION_MEMO, TIERS, Program
from repro.runtime import GPURuntime
from repro.simulator.model import KernelModel
from repro.targets import A100

CONFIGS = paper_sweep_configs(max_product=4)

HOST_SOURCE = """
__global__ void inc(float *x) {
    x[blockIdx.x * blockDim.x + threadIdx.x] += 1.0f;
}
void run(float *x, int iters) {
    for (int i = 0; i < iters; i++) inc<<<4, 32>>>(x);
}
"""


class _RecordingProgram(Program):
    """A :class:`Program` that remembers every instance built."""

    built = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built.append(self)


@pytest.fixture
def recorded(monkeypatch):
    """The Programs ``simulate_composite`` builds, in order."""
    built = []
    monkeypatch.setattr(_RecordingProgram, "built", built)
    monkeypatch.setattr(benchsuite_base, "Program", _RecordingProgram)
    return built


def _engine(cache=None):
    return TuningEngine(cache=TuningCache(None) if cache is None else cache,
                        validate=False)


def _job(name, arch, tier, engine, recorded):
    """One composite job: its modeled seconds and printed module."""
    seconds = simulate_composite(name, arch, tier, CONFIGS, engine=engine)
    return seconds, print_module(recorded[-1].module)


@pytest.mark.parametrize("arch", ["a100", "mi210"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_memo_hits_print_what_the_rebuild_path_prints(name, arch, recorded):
    """The oracle: with the memo cleared, each job builds its wrappers the
    way every job did before the memo. The same job again, now cloning
    from the memo, must model the same seconds and print the same
    module. Cold tunes start from a cloned untuned wrapper too."""
    for tier in TIERS:
        cache = TuningCache(None)
        FUNCTION_MEMO.clear()
        cold = _job(name, arch, tier, _engine(cache), recorded)
        if tier == "polygeist":
            # a warm job on a cleared memo replays and cleans
            FUNCTION_MEMO.clear()
            rebuilt = _job(name, arch, tier, _engine(cache), recorded)
            assert _job(name, arch, tier, _engine(cache), recorded) == \
                rebuilt, "%s %s: warm memo hit" % (name, tier)
            assert rebuilt[0] == cold[0]
        # a cold job whose untuned wrappers come from the memo
        assert _job(name, arch, tier, _engine(), recorded) == cold, \
            "%s %s: cold job on cloned wrappers" % (name, tier)


def _counted(monkeypatch, owner, attr, counts, key):
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counting)


@pytest.mark.parametrize("name", ["gaussian", "lud", "hotspot", "bfs"])
def test_second_warm_job_rebuilds_nothing(name, monkeypatch):
    cache = TuningCache(None)
    for arch in ("a100", "mi210"):
        # cold, then a first warm job, which may fill the memo
        for _ in range(2):
            simulate_composite(name, arch, "polygeist", CONFIGS,
                               engine=_engine(cache))
    misses = cache.misses
    counts = dict.fromkeys(["codegen", "cleanup", "replay", "model"], 0)
    _counted(monkeypatch, ModuleGenerator, "_emit_launch_wrapper", counts,
             "codegen")
    _counted(monkeypatch, repro.pipeline, "run_cleanup", counts, "cleanup")
    _counted(monkeypatch, repro.transforms.coarsen, "coarsen_wrapper",
             counts, "replay")
    _counted(monkeypatch, KernelModel, "__init__", counts, "model")
    for arch in ("a100", "mi210"):
        engine = _engine(cache)
        simulate_composite(name, arch, "polygeist", CONFIGS, engine=engine)
    assert cache.misses == misses
    assert counts == dict.fromkeys(counts, 0)


def test_memo_counters_count_one_hit_per_tuned_wrapper(tmp_path):
    """As perfbench's warm jobs do, every job opens the on-disk cache
    with a fresh engine: the second warm job clones every tuned wrapper."""
    for _ in range(2):
        simulate_composite("lud", A100, "polygeist", CONFIGS,
                           engine=_engine(TuningCache(str(tmp_path))))
    engine = _engine(TuningCache(str(tmp_path)))
    simulate_composite("lud", A100, "polygeist", CONFIGS, engine=engine)
    counters = engine.registry.counter_values()
    assert engine.cache.hits == 3 and engine.cache.misses == 0
    assert counters["pipeline.function_memo.hits"] == engine.cache.hits
    assert counters.get("pipeline.function_memo.misses", 0) == 0
    assert "pipeline.function_memo.hits" in Program(
        get_benchmark("lud").source, engine=engine).stats()["counters"]


def test_a_full_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(FUNCTION_MEMO, "size", 1)
    engine = _engine()
    simulate_composite("gaussian", A100, "clang", engine=engine)
    counters = engine.registry.counter_values()
    # gaussian's two wrappers: storing the second (Fan2) evicts the first
    assert counters["pipeline.function_memo.evictions"] >= 1
    (key, _), = FUNCTION_MEMO.entries()
    assert key[1].startswith("Fan2__")


def test_threads_share_one_memo_and_model_alike():
    """``repro serve --isolation thread`` runs jobs on daemon threads:
    four threads racing on a cleared memo, with a short switch interval,
    all model the composite times and print the wrapper functions of a
    serial run."""
    names = ["gaussian", "lud", "nw"]
    tiers = ["clang", "polygeist"]
    cache = TuningCache(None)

    def run(name, tier):
        program = Program(get_benchmark(name).source, A100, tier=tier,
                          autotune_configs=CONFIGS, engine=_engine(cache))
        bench = get_benchmark(name)
        groups = benchsuite_base.group_launches(
            bench.iter_launches(bench.model_size))
        seconds = []
        for (kernel, block), table in groups.tables.items():
            program.tune_aggregate(kernel, block, table)
            seconds += program.model_launch_seconds(kernel, block, table)
        return seconds, [print_op(f) for f in program.module.funcs]

    # a serial cold pass fills the tuning cache, a serial warm pass gives
    # the reference: the threads race on the memo misses of warm jobs,
    # the path that replays and stores
    for name in names:
        for tier in tiers:
            run(name, tier)
    expected = {(name, tier): run(name, tier)
                for name in names for tier in tiers}
    FUNCTION_MEMO.clear()
    results, errors = [], []

    def job():
        try:
            for name in names:
                for tier in tiers:
                    results.append(((name, tier), run(name, tier)))
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=job) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) == 4 * len(expected)
    for key, result in results:
        assert result == expected[key], key


def _digest(op) -> str:
    return hashlib.sha256(print_op(op).encode()).hexdigest()


def _defining_op(value):
    if isinstance(value, OpResult):
        return value.owner
    return value.owner.parent.parent  # a block argument's op


def _root(op):
    while op.parent_op is not None:
        op = op.parent_op
    return op


class _ProfilingProgram(_RecordingProgram):
    """Runs each wrapper's first launch through :meth:`profile_launch`."""

    def launch(self, kernel, grid, block, args, runtime=None):
        if getattr(self, "_profiling", False):
            return super().launch(kernel, grid, block, args, runtime)
        self._profiling = True
        try:
            return self.profile_launch(kernel, grid, block, args, runtime)
        finally:
            self._profiling = False


@pytest.mark.parametrize("name", ["gaussian", "lud", "hotspot", "nw"])
def test_programs_leave_the_templates_unchanged(name, recorded):
    bench = get_benchmark(name)
    cache = TuningCache(None)
    # fill the memo: untuned wrappers of every tier, replayed winners
    for tier in TIERS + ("polygeist",):
        simulate_composite(name, A100, tier, CONFIGS, engine=_engine(cache))
    Program(HOST_SOURCE, A100).run_host("run", [np.zeros(128, np.float32),
                                                1])
    before = {key: _digest(entry.template)
              for key, entry in FUNCTION_MEMO.entries()}
    assert any(key[3] is not None for key in before), "no tuned template"

    # now every Program clones, then mutates its clones
    for tier in TIERS + ("polygeist",):
        simulate_composite(name, A100, tier, CONFIGS, engine=_engine(cache))
    program = _ProfilingProgram(bench.source, A100, autotune_configs=CONFIGS,
                                engine=_engine())
    size = bench.verify_size
    bench.run_gpu(program, GPURuntime(A100), bench.build_inputs(size, 0),
                  size)
    assert program.tuning_outcomes, "no wrapper was profiled"
    for tier in TIERS:
        data = np.zeros(128, dtype=np.float32)
        _RecordingProgram(HOST_SOURCE, A100, tier=tier).run_host(
            "run", [data, 3])
        np.testing.assert_array_equal(data, 3.0)

    entries = dict(FUNCTION_MEMO.entries())
    for key, digest in before.items():
        if key in entries:
            assert _digest(entries[key].template) == digest, key
    # nothing a Program owns reaches a template, and no shared model's
    # loop sits inside a module, so a Program that takes its module
    # apart cannot take apart a shared loop
    template_ops = set()
    for entry in entries.values():
        assert entry.template.parent is None
        entry.template.walk(lambda op: template_ops.add(id(op)))
        for model in entry.models._built.values():
            assert _root(model.block_parallel) is entry.template
    assert recorded
    for program in recorded:
        module_op = program.module.op

        def check(op):
            assert id(op) not in template_ops
            for value in op.operands:
                assert _root(_defining_op(value)) is module_op
        module_op.walk(check)


@pytest.mark.parametrize("name", ["gaussian", "lud"])
def test_analysis_reads_the_same_from_memoized_wrappers(name):
    """``repro analyze`` reads each loop's model through the Program: the
    report of a run on a cleared memo equals one that clones its
    wrappers and shares their models, wall times aside."""
    from repro.analysis.report import analyze_benchmark

    def report():
        data = analyze_benchmark(name, A100, configs=CONFIGS).as_dict()
        for timed in ("stages", "spans", "provenance"):
            data.pop(timed)
        return data
    FUNCTION_MEMO.clear()
    assert report() == report()


def test_a_rewritten_clone_models_its_own_loops():
    """A Program's cleanup after a rewrite ends the sharing: the loop an
    in-place rewrite changed is modeled from its own IR again."""
    from repro.dialects import polygeist
    from repro.transforms.coarsen import block_parallels

    source = get_benchmark("nn").source
    kernel, block = next(iter(benchsuite_base.group_launches(
        get_benchmark("nn").iter_launches(64)).tables))
    for _ in range(2):  # the second Program clones from the memo
        program = Program(source, A100, tier="clang")
        name = program._prepare(kernel, (4,), block)
    loop = block_parallels(polygeist.find_gpu_wrappers(
        program.module.func(name))[0])[0]
    shared = program.loop_model(loop)
    assert shared.block_parallel is not loop
    loop.attributes["coarsen.history"] = ["block:dim0:x2"]
    program._run_cleanup(name, False)
    own = program.loop_model(loop)
    assert own.block_parallel is loop
    assert (shared.coarsen_total, own.coarsen_total) == (1, 2)
