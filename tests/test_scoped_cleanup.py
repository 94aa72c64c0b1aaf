"""Scoped cleanup and lazy materialization equivalence.

The autotuning flow cleans only the ``polygeist.alternatives`` regions
(:func:`repro.transforms.cleanup_regions`) instead of re-walking the whole
module, a :class:`~repro.pipeline.Program` cleans only the function a
launch uses, and the flow materializes IR clones only for the
configurations that survive the metadata-level shared-memory filter. All
three are pure performance moves: this file proves, benchsuite-wide, that
they change nothing observable — the printed IR after scoped cleanup
equals the whole-module result, the TDO selection is identical, the
planner's shared-memory prediction equals what the cleaned IR allocates,
and the number of wrapper clones built is one less than the post-filter
survivor count (the last survivor coarsens the wrapper's own body).
"""

import pytest

import repro.benchsuite.base as benchsuite_base
from repro.autotune import paper_sweep_configs
from repro.analysis import shared_bytes_per_block
from repro.autotune.tdo import timing_driven_optimization, tune_wrapper
from repro.engine import TuningCache, TuningEngine
from repro.benchsuite.base import (BENCHMARKS, get_benchmark,
                                   group_launches, simulate_composite)
from repro.dialects import polygeist
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import print_module
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import tracing
from repro.pipeline import FUNCTION_MEMO, Program
from repro.targets import arch_by_name
from repro.transforms import cleanup_regions, run_cleanup
from repro.transforms.alternatives import plan_coarsening_alternatives
from repro.transforms.coarsen import block_parallels_in_region

A100 = arch_by_name("a100")


def _launch_groups(bench):
    """(kernel, block) -> grids, at the cheap verification size."""
    groups = {}
    for kernel, grid, block in bench.iter_launches(bench.verify_size):
        groups.setdefault((kernel, tuple(block)), []).append(tuple(grid))
    return groups


def _generate(bench, kernel, block, grid_rank, configs):
    """Parse, pre-clean, plan, and materialize every legal alternative.

    Returns ``(module, func, planned, alternatives op)``; the op is
    ``None`` when no config is legal.
    """
    generator = ModuleGenerator(parse_translation_unit(bench.source))
    name = generator.get_launch_wrapper(kernel, grid_rank, block)
    run_cleanup(generator.module)
    func_op = generator.module.func(name)
    wrapper = polygeist.find_gpu_wrappers(func_op)[0]
    planned = plan_coarsening_alternatives(wrapper, configs)
    alt = None
    if planned.alternatives:
        alt = planned.materialize(range(len(planned.alternatives)))
    return generator.module, func_op, planned, alt


def _candidate_rows(outcome):
    return [(c.desc, c.time_seconds, c.valid, c.reason)
            for c in outcome.candidates]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_scoped_cleanup_matches_whole_module(name):
    """For every kernel of every benchmark: cleaning just the alternatives
    regions produces byte-identical module IR to re-cleaning the whole
    module, and TDO picks the same winner with the same modeled times."""
    bench = get_benchmark(name)
    configs = paper_sweep_configs()
    compared = 0
    for (kernel, block), grids in _launch_groups(bench).items():
        grid_rank = len(grids[0])
        scoped_mod, scoped_func, _, scoped = _generate(
            bench, kernel, block, grid_rank, configs)
        full_mod, full_func, _, full = _generate(
            bench, kernel, block, grid_rank, configs)
        if scoped is None:
            assert full is None
            continue
        cleanup_regions(list(scoped.regions))
        run_cleanup(full_mod)
        assert print_module(scoped_mod) == print_module(full_mod)

        def envs_for(func_op):
            grid_args = func_op.body_block().args[:grid_rank]
            return [dict(zip(grid_args, grid)) for grid in grids]

        chose_scoped = timing_driven_optimization(
            scoped, A100, envs_for(scoped_func), select=False)
        chose_full = timing_driven_optimization(
            full, A100, envs_for(full_func), select=False)
        assert chose_scoped.selected_desc == chose_full.selected_desc
        assert chose_scoped.selected_time == chose_full.selected_time
        assert _candidate_rows(chose_scoped) == _candidate_rows(chose_full)
        compared += 1
    assert compared > 0, "no kernel of %s produced alternatives" % name


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_planned_shared_bytes_match_materialized_ir(name):
    """The shared-memory filter prunes on the planner's prediction alone,
    before any clone exists. For every kernel of every benchmark, the
    prediction must equal the largest static shared footprint of any
    block loop in the materialized, cleaned region."""
    bench = get_benchmark(name)
    configs = paper_sweep_configs()
    checked = 0
    for (kernel, block), grids in _launch_groups(bench).items():
        _, _, planned, alt = _generate(bench, kernel, block, len(grids[0]),
                                       configs)
        if alt is None:
            continue
        cleanup_regions(list(alt.regions))
        for info, region in zip(planned.alternatives, alt.regions):
            measured = max(shared_bytes_per_block(loop)
                           for loop in block_parallels_in_region(region))
            assert info.shared_bytes == measured, \
                "%s/%s %s: planned %d B, IR allocates %d B" % (
                    name, kernel, info.desc, info.shared_bytes, measured)
            checked += 1
    assert checked > 0, "no kernel of %s produced alternatives" % name


BIG_SHARED_KERNEL = """
__global__ void k(float *in, float *out, int n) {
    __shared__ float tile[4096];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    tile[t] = in[g] * 2.0f;
    __syncthreads();
    out[g] = tile[(t + 1) % 8] + 1.5f;
}
"""


def _build_wrapper(source, kernel="k", block=(8,)):
    generator = ModuleGenerator(parse_translation_unit(source))
    name = generator.get_launch_wrapper(kernel, 1, block)
    run_cleanup(generator.module)
    func_op = generator.module.func(name)
    return func_op, polygeist.find_gpu_wrappers(func_op)[0]


def _capturing_plan(monkeypatch):
    import repro.transforms.alternatives as alternatives_mod
    captured = []

    def capture(wrapper, configs):
        planned = plan_coarsening_alternatives(wrapper, configs)
        captured.append(planned)
        return planned

    monkeypatch.setattr(alternatives_mod, "plan_coarsening_alternatives",
                        capture)
    return captured


def test_clones_built_only_for_filter_survivors(monkeypatch):
    """The 16 KiB tile makes block coarsening overshoot the shared-memory
    limit: those plans must never be cloned at all."""
    captured = _capturing_plan(monkeypatch)
    func_op, wrapper = _build_wrapper(BIG_SHARED_KERNEL)
    env = {func_op.body_block().args[0]: 4}
    configs = [{"thread_total": 1}, {"thread_total": 2},
               {"block_total": 2}, {"block_total": 4}]
    outcome = tune_wrapper(wrapper, A100, env, configs,
                           engine=TuningEngine(validate=False))
    planned = captured[0]
    total = len(planned.alternatives)
    dropped = len(outcome.filters.dropped_shared)
    assert dropped > 0, "expected the shared-memory filter to drop plans"
    # every survivor but the last is a clone; the last coarsens the
    # wrapper's own body
    assert planned.clones_materialized == total - dropped - 1 < total - 1
    # the winner is still one of the shared-memory survivors
    assert outcome.selected_desc in outcome.filters.survivor_descs


def test_clones_built_for_all_when_nothing_filtered(monkeypatch):
    """With no shared-memory pressure every plan is materialized — the
    lazy path degenerates to the eager one."""
    captured = _capturing_plan(monkeypatch)
    source = BIG_SHARED_KERNEL.replace("tile[4096]", "tile[8]")
    func_op, wrapper = _build_wrapper(source)
    env = {func_op.body_block().args[0]: 4}
    configs = [{"thread_total": 1}, {"thread_total": 2},
               {"block_total": 2}]
    outcome = tune_wrapper(wrapper, A100, env, configs,
                           engine=TuningEngine(validate=False))
    planned = captured[0]
    assert not outcome.filters.dropped_shared
    assert planned.clones_materialized == len(planned.alternatives) - 1


def test_materialize_is_one_shot():
    func_op, wrapper = _build_wrapper(
        BIG_SHARED_KERNEL.replace("tile[4096]", "tile[8]"))
    planned = plan_coarsening_alternatives(
        wrapper, [{"thread_total": 1}, {"thread_total": 2}])
    planned.materialize(range(len(planned.alternatives)))
    with pytest.raises(ValueError, match="already materialized"):
        planned.materialize([0])


class _RecordingProgram(Program):
    """A :class:`Program` that remembers every instance built."""

    built = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built.append(self)


@pytest.mark.parametrize("arch", ["a100", "mi210"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_function_scoped_jobs_leave_the_module_clean(name, arch,
                                                     monkeypatch):
    """A Program cleans only the function each launch uses. After a job
    of every tier (and a warm replay), cleaning the whole module again
    must change nothing: no function was left dirty."""
    monkeypatch.setattr(_RecordingProgram, "built", [])
    monkeypatch.setattr(benchsuite_base, "Program", _RecordingProgram)
    configs = paper_sweep_configs(max_product=8)
    engine = TuningEngine(cache=TuningCache(None), validate=False)
    jobs = [("polygeist", "cold"), ("polygeist", "warm"), ("clang", ""),
            ("polygeist-noopt", ""), ("polygeist-heuristic", "")]
    for tier, _ in jobs:
        simulate_composite(name, arch, tier, configs, engine=engine)
    assert len(_RecordingProgram.built) == len(jobs)
    for (tier, run), program in zip(jobs, _RecordingProgram.built):
        assert program._cleaned, "%s %s cleaned nothing" % (tier, run)
        printed = print_module(program.module)
        run_cleanup(program.module, tier != "clang")
        assert print_module(program.module) == printed, \
            "%s %s %s left a function unclean" % (name, tier, run)


def _op_count(op):
    count = 0
    stack = [op]
    while stack:
        for region in stack.pop().regions:
            for block in region.blocks:
                count += len(block.ops)
                stack.extend(block.ops)
    return count


def test_second_group_cleanup_visits_only_its_function():
    """The first-use cleanup of gaussian's second launch group (Fan2)
    visits each op of Fan2's wrapper once and none of Fan1's."""
    bench = get_benchmark("gaussian")
    (first, first_grids), (second, second_grids) = \
        group_launches(bench.iter_launches(bench.verify_size)).tables.items()
    alone = ModuleGenerator(parse_translation_unit(bench.source))
    wrapper = alone.module.func(alone.get_launch_wrapper(
        second[0], second_grids.shape[1], second[1]))
    ops = _op_count(wrapper)

    # a memoized wrapper is cloned, not cleaned: clean on first use
    FUNCTION_MEMO.clear()
    program = Program(bench.source, A100,
                      autotune_configs=paper_sweep_configs(max_product=4),
                      engine=TuningEngine(cache=TuningCache(None),
                                          validate=False))
    program.tune_aggregate(first[0], first[1], first_grids)
    # a whole-module cleanup would visit these too
    assert _op_count(program.module.op) > 0
    with tracing() as tracer, obs_metrics.collecting() as registry:
        program.tune_aggregate(second[0], second[1], second_grids)
    spans = [span for span in tracer.finished() if span.name == "cleanup"]
    # the first-use cleanup is whole-function; the tune's own cleanups
    # are region-scoped and name their region count
    first_use = spans[0]
    assert "regions" not in first_use.args
    assert first_use.args["visited"] == ops
    assert registry.counter("cleanup.visited").value == sum(
        span.args["visited"] for span in spans)
