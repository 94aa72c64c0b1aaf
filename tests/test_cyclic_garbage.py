"""Erased, pruned and unselected IR dies by refcount.

Every IR object links back to its parent (``OpResult.owner``,
``Use.owner``, block and region parent links), so IR that is dropped
while still wired together is a reference cycle only the cycle collector
can free. Unrolling erases the source loop's shell, materialization
erases the original nest, pruning drops regions, selection erases the
alternatives op, and the tune drops its untransformed snapshot (or, when
it fails, the alternatives op the snapshot replaces); each of them takes
the dropped IR apart first
(:func:`repro.ir.unlink_subtree`), so none of it is left for the
collector. These tests run with the collector off and
``gc.DEBUG_SAVEALL`` on, which keeps every object the collector would
have had to free in ``gc.garbage`` where it can be counted.

That is what makes :func:`repro.ir.collector_paused` sound around
``tune_wrapper``: a tune that leaves no cyclic garbage loses nothing when
the collector does not run inside it. The last tests pin the pause's
scoping rules.
"""

import gc
import threading
from contextlib import contextmanager

import pytest

import repro.pipeline
import repro.transforms
import repro.transforms.alternatives
from repro.autotune import default_configs, paper_sweep_configs, tdo
from repro.benchsuite import simulate_composite
from repro.benchsuite.base import BENCHMARKS, get_benchmark
from repro.dialects import polygeist
from repro.engine import TuningCache, TuningEngine
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import Block, Operation, Region, Value, collector_paused
from repro.targets import A100, arch_by_name
from repro.transforms import run_cleanup
from repro.transforms.alternatives import (plan_coarsening_alternatives,
                                           prune_alternatives,
                                           select_alternative)

from tests.test_tune_rollback import FAILURES, failure_case

#: objects one cold gaussian+lud job each on A100 and MI210 leaves for
#: the cycle collector: the Program's module, which the job drops whole
#: at its end (measured with this file's method)
DROPPED_MODULE_GARBAGE = 9908

#: the programs perfbench's validated_tune workload tunes with the gate on
VALIDATED_PROGRAMS = ("myocyte", "gaussian", "nw")

SOURCE = """
__global__ void scale(float *x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    x[i] = x[i] * a;
}
"""


@contextmanager
def _saved_garbage():
    """Collect first, then keep everything the collector finds in the
    block in the yielded list instead of freeing it."""
    found = []
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _ir_objects(objects):
    return [o for o in objects
            if isinstance(o, (Operation, Block, Region, Value))]


def _root_op(op):
    while op.parent_op is not None:
        op = op.parent_op
    return op


def test_cold_job_leaves_only_the_programs_module():
    configs = paper_sweep_configs(max_product=8)
    jobs = [(program, arch) for program in ("gaussian", "lud")
            for arch in ("a100", "mi210")]
    with _saved_garbage() as garbage:
        for program, arch in jobs:
            simulate_composite(
                program, arch, autotune_configs=configs,
                engine=TuningEngine(cache=TuningCache(None)))
    assert len(garbage) <= DROPPED_MODULE_GARBAGE, \
        "%d cyclic objects left by one cold tune" % len(garbage)
    roots = {id(root): root for root in map(
        _root_op, (o for o in garbage if isinstance(o, Operation)))}
    assert [root.name for root in roots.values()] == \
        ["builtin.module"] * len(jobs)


def _tune_garbage(monkeypatch, run):
    """Cyclic objects left by each ``tune_wrapper`` call ``run()``
    makes, counted around the call itself. A failing call is counted
    after its traceback is dropped, then its error is raised again."""
    real = repro.pipeline.tune_wrapper
    counts = []

    def counted(*args, **kwargs):
        failure = None
        with _saved_garbage() as garbage:
            try:
                outcome = real(*args, **kwargs)
            except Exception as error:
                # the traceback holds the tune's frames, and so its IR
                failure = error.with_traceback(None)
        counts.append(len(garbage))
        if failure is not None:
            raise failure
        return outcome

    monkeypatch.setattr(repro.pipeline, "tune_wrapper", counted)
    run()
    return counts


def _cold_jobs(program, validate):
    """One cold job of ``program`` per arch."""
    def run():
        for arch in ("a100", "mi210"):
            simulate_composite(
                program, arch,
                autotune_configs=paper_sweep_configs(max_product=8),
                engine=TuningEngine(cache=TuningCache(None),
                                    validate=validate))
    return run


@pytest.mark.parametrize("program", sorted(BENCHMARKS))
def test_cold_tune_wrapper_leaves_no_cyclic_garbage(monkeypatch, program):
    counts = _tune_garbage(monkeypatch, _cold_jobs(program, False))
    assert counts and counts == [0] * len(counts)


@pytest.mark.parametrize("program", VALIDATED_PROGRAMS)
def test_validated_tune_wrapper_leaves_no_cyclic_garbage(monkeypatch,
                                                         program):
    counts = _tune_garbage(monkeypatch, _cold_jobs(program, True))
    assert counts and counts == [0] * len(counts)


@pytest.mark.parametrize("validate", [False, True])
def test_profiled_tune_leaves_no_cyclic_garbage(monkeypatch, validate):
    # profile mode ranks by executing every region in the interpreter
    from repro.benchsuite.lud import make_diagonally_dominant
    from repro.pipeline import Program

    def run():
        for arch in ("a100", "mi210"):
            program = Program(
                get_benchmark("lud").source, arch=arch_by_name(arch),
                autotune_configs=paper_sweep_configs(max_product=8),
                engine=TuningEngine(cache=TuningCache(None),
                                    validate=validate))
            matrix = make_diagonally_dominant(32, 0).ravel()
            program.profile_launch("lud_internal", (1, 1), (16, 16),
                                   [matrix, 32, 0])
    counts = _tune_garbage(monkeypatch, run)
    assert counts == [0, 0]


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failed_tune_wrapper_leaves_no_cyclic_garbage(monkeypatch, name):
    # the dropped alternatives op and the snapshot are both taken apart,
    # cold and warm on one cache
    source, configs, validate, grid, block, error, match, _ = \
        failure_case(monkeypatch, name)
    cache = TuningCache(None)

    def run():
        for _ in ("cold", "warm"):
            program = repro.pipeline.Program(
                source, A100, autotune_configs=configs,
                engine=TuningEngine(cache=cache, validate=validate))
            with pytest.raises(error, match=match):
                program.model_launch("k", grid, block)
    counts = _tune_garbage(monkeypatch, run)
    assert counts == [0, 0]


def test_pruned_and_unselected_regions_die_by_refcount():
    bench = get_benchmark("lud")
    generator = ModuleGenerator(parse_translation_unit(bench.source))
    generator.get_launch_wrapper("lud_internal", 2, (16, 16))
    module = generator.module
    run_cleanup(module)
    wrapper = polygeist.find_gpu_wrappers(module.op)[0]
    planned = plan_coarsening_alternatives(
        wrapper, paper_sweep_configs(max_product=8))
    alt = planned.materialize(range(len(planned.alternatives)))
    assert len(alt.regions) > 2
    with _saved_garbage() as garbage:
        prune_alternatives(alt, [0, 1])
        select_alternative(alt, 1)
        del alt
    # the module is still referenced here: only dropped IR can be garbage
    assert _ir_objects(garbage) == []
    assert module.op.ops_matching(polygeist.ALTERNATIVES) == []


# -- the pause ---------------------------------------------------------------


@pytest.fixture
def collector_on():
    """Start each scope test with the collector on, and leave it on."""
    gc.enable()
    yield
    gc.enable()


def _scale_tune():
    """A ``tune_wrapper`` call on a fresh one-kernel module."""
    generator = ModuleGenerator(parse_translation_unit(SOURCE))
    name = generator.get_launch_wrapper("scale", 1, (256,))
    run_cleanup(generator.module)
    wrapper = polygeist.find_gpu_wrappers(generator.module.op)[0]
    env = {generator.module.func(name).body_block().arg(0): 64}
    return lambda: tdo.tune_wrapper(wrapper, A100, env,
                                    default_configs(max_total=4),
                                    engine=TuningEngine(validate=False))


def test_nested_scopes_restore_only_at_the_outermost_exit(collector_on):
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_exception_inside_restores_the_collector(collector_on):
    with pytest.raises(RuntimeError):
        with collector_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_collector_already_off_stays_off(collector_on):
    gc.disable()
    with collector_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_tune_wrapper_runs_with_the_collector_paused(collector_on,
                                                     monkeypatch):
    seen = {}

    def recording(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            seen[name] = gc.isenabled()
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    recording(repro.transforms.alternatives, "plan_coarsening_alternatives")
    recording(repro.transforms, "cleanup_regions")
    recording(tdo, "run_planned_filters")
    recording(tdo, "timing_driven_optimization")
    _scale_tune()()
    assert seen == {"plan_coarsening_alternatives": False,
                    "cleanup_regions": False,
                    "run_planned_filters": False,
                    "timing_driven_optimization": False}
    assert gc.isenabled()


def test_overlapping_tunes_in_threads_restore_after_both(collector_on,
                                                         monkeypatch):
    first, second = _scale_tune(), _scale_tune()
    first_inside = threading.Event()
    second_done = threading.Event()
    seen = {}
    real_tdo = tdo.timing_driven_optimization

    def pausing_tdo(*args, **kwargs):
        if threading.current_thread().name == "first":
            first_inside.set()
            # the second tune starts and finishes while this one waits
            assert second_done.wait(60)
            seen["first after second exits"] = gc.isenabled()
        return real_tdo(*args, **kwargs)

    def run_second():
        assert first_inside.wait(60)
        second()
        seen["second exited"] = gc.isenabled()
        second_done.set()

    monkeypatch.setattr(tdo, "timing_driven_optimization", pausing_tdo)
    threads = [threading.Thread(target=first, name="first"),
               threading.Thread(target=run_second, name="second")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert seen == {"first after second exits": False,
                    "second exited": False}
    assert gc.isenabled()
