"""Tests for autotuning (TDO), the runtime, and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.autotune import (default_configs, paper_sweep_configs,
                            per_dimension_configs,
                            prune_planned_by_shared_memory,
                            run_planned_filters,
                            timing_driven_optimization, tune_wrapper)
from repro.benchsuite.base import get_benchmark, group_launches
from repro.benchsuite.lud import make_diagonally_dominant
from repro.dialects import polygeist
from repro.engine import TuningCache, TuningEngine
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import verify_module
from repro.pipeline import Program, compile_cuda, grid_table
from repro.runtime import GPURuntime
from repro.targets import A100, RX6800
from repro.transforms import plan_coarsening_alternatives, run_cleanup
from repro.translate import hipify, retarget_ease_report

SOURCE = """
__global__ void scale(float *x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    x[i] = x[i] * a;
}

__global__ void tile_rev(float *in, float *out) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    tile[t] = in[g];
    __syncthreads();
    out[g] = tile[63 - t];
}
"""


class TestSearch:
    def test_paper_sweep_size(self):
        configs = paper_sweep_configs()
        # 6x6 grid minus pairs whose product exceeds 32
        assert len(configs) == 21
        assert {"block_total": 1, "thread_total": 1} in configs
        assert {"block_total": 32, "thread_total": 1} in configs
        assert {"block_total": 32, "thread_total": 32} not in configs
        unbounded = paper_sweep_configs(max_product=None)
        assert len(unbounded) == 36

    def test_default_configs_bounded(self):
        for config in default_configs(max_total=8):
            assert config["block_total"] <= 8
            assert config["thread_total"] <= 8

    def test_per_dimension(self):
        configs = per_dimension_configs(block_x=(1, 2), thread_x=(1, 4))
        assert {"block_factors": (2, 1)} in configs
        assert {"thread_factors": (4, 1)} in configs
        assert {} in configs  # the (1,1,1,1) baseline


def plan_alts(source=SOURCE, kernel="tile_rev", block=(64,), configs=None):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    name = gen.get_launch_wrapper(kernel, 1, block)
    wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
    planned = plan_coarsening_alternatives(
        wrapper, configs or default_configs(max_total=4))
    return gen.module, name, wrapper, planned


def build_alt(source=SOURCE, kernel="tile_rev", block=(64,), configs=None):
    """Plan and materialize every legal alternative; returns the op."""
    module, name, wrapper, planned = plan_alts(source, kernel, block,
                                               configs)
    alt = planned.materialize(range(len(planned.alternatives)))
    return module, name, wrapper, alt


class TestFilters:
    def test_shared_memory_pruning(self):
        # block factor 32 on a 16 KB-shared kernel exceeds 48 KB
        source = """
        __global__ void k(float *a) {
            __shared__ float s[4096];
            s[threadIdx.x] = a[threadIdx.x];
            __syncthreads();
            a[threadIdx.x] = s[threadIdx.x];
        }
        """
        module, name, wrapper, planned = plan_alts(
            source, "k",
            configs=[{"block_total": 1}, {"block_total": 2},
                     {"block_total": 4}])
        result = prune_planned_by_shared_memory(planned.alternatives, A100)
        # 4 x 16 KB = 64 KB > 48 KB: dropped
        assert len(result.dropped_shared) == 1
        assert result.survivors == [0, 1]
        # the full filter pass never materializes the dropped plan
        merged, alt = run_planned_filters(planned.alternatives, A100,
                                          planned.materialize,
                                          TuningEngine(validate=False).stage)
        assert merged.dropped_shared == result.dropped_shared
        assert len(alt.regions) == 2
        # one clone; the second region is the wrapper's own body
        assert planned.clones_materialized == 1

    def test_register_pruning_keeps_least_bad(self):
        module, name, wrapper, planned = plan_alts()
        result, _ = run_planned_filters(planned.alternatives, A100,
                                        planned.materialize,
                                        TuningEngine(validate=False).stage)
        assert result.survivors
        verify_module(module)


class TestTDO:
    def test_selects_and_splices(self):
        module, name, wrapper, alt = build_alt()
        f = module.func(name)
        env = {f.body_block().arg(0): 512}
        outcome = timing_driven_optimization(alt, A100, env)
        verify_module(module)
        assert outcome.selected_time > 0
        assert outcome.selected_desc
        assert len(outcome.candidates) >= 1
        # alternatives op is gone
        assert not module.op.ops_matching("polygeist.alternatives")

    def test_tune_wrapper_end_to_end(self):
        unit = parse_translation_unit(SOURCE)
        gen = ModuleGenerator(unit)
        name = gen.get_launch_wrapper("tile_rev", 1, (64,))
        wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
        f = gen.module.func(name)
        env = {f.body_block().arg(0): 1024}
        outcome = tune_wrapper(wrapper, A100, env,
                               default_configs(max_total=4),
                               engine=TuningEngine(validate=False))
        verify_module(gen.module)
        assert outcome.filters is not None
        baseline = [c for c in outcome.candidates
                    if c.desc == "block=1 thread=1"]
        assert baseline, "the factor-1 baseline must be a candidate"
        assert outcome.selected_time <= baseline[0].time_seconds


class TestRuntime:
    def test_transfer_accounting(self):
        rt = GPURuntime(A100)
        data = np.ones(1 << 20, dtype=np.float32)
        buf = rt.to_device(data)
        rt.to_host(buf)
        assert rt.transfer_seconds > 2 * (data.nbytes / 12e9)
        assert rt.allocated_bytes == data.nbytes

    def test_reset(self):
        rt = GPURuntime(A100)
        rt.to_device(np.zeros(1024, dtype=np.float32))
        rt.reset()
        assert rt.composite_seconds == 0.0


class TestProgram:
    def test_launch_correct_and_timed(self):
        program = compile_cuda(SOURCE, arch=A100, tier="polygeist",
                               autotune_configs=default_configs(4))
        rt = GPURuntime(A100)
        data = rt.to_device(np.arange(128, dtype=np.float32))
        result = program.launch("scale", grid=2, block=64,
                                args=[data, 2.0, 128], runtime=rt)
        np.testing.assert_array_equal(
            rt.to_host(data), np.arange(128, dtype=np.float32) * 2)
        assert result.kernel_seconds > 0
        assert rt.composite_seconds > rt.kernel_seconds

    def test_tuned_kernel_stays_correct(self):
        rng = np.random.default_rng(2)
        data = rng.random(512, dtype=np.float32)
        expected = data.reshape(8, 64)[:, ::-1].ravel()

        program = compile_cuda(SOURCE, arch=A100,
                               autotune_configs=default_configs(8))
        rt = GPURuntime(A100)
        src = rt.to_device(data)
        dst = rt.malloc(512, np.float32)
        program.launch("tile_rev", grid=8, block=64, args=[src, dst],
                       runtime=rt)
        np.testing.assert_array_equal(rt.to_host(dst), expected)
        # TDO ran and recorded an outcome
        assert program.tuning_outcomes

    def test_tiers_differ_in_time_not_results(self):
        rng = np.random.default_rng(3)
        data = rng.random(1 << 14, dtype=np.float32)
        times = {}
        outputs = {}
        for tier in ("clang", "polygeist-noopt", "polygeist"):
            program = compile_cuda(SOURCE, arch=A100, tier=tier,
                                   autotune_configs=default_configs(8))
            rt = GPURuntime(A100)
            src = rt.to_device(data)
            dst = rt.malloc(data.size, np.float32)
            program.launch("tile_rev", grid=data.size // 64, block=64,
                           args=[src, dst], runtime=rt)
            times[tier] = rt.kernel_seconds
            outputs[tier] = rt.to_host(dst)
        np.testing.assert_array_equal(outputs["clang"],
                                      outputs["polygeist"])
        assert times["polygeist"] <= times["clang"]

    def test_numpy_args_written_back(self):
        program = compile_cuda(SOURCE, arch=A100, tier="clang")
        data = np.ones(64, dtype=np.float32)
        program.launch("scale", grid=1, block=64, args=[data, 3.0, 64])
        np.testing.assert_array_equal(data, 3.0)

    def test_host_driven_flow(self):
        source = """
        __global__ void inc(float *x) {
            x[blockIdx.x * blockDim.x + threadIdx.x] += 1.0f;
        }
        void run(float *x, int iters) {
            for (int i = 0; i < iters; i++) inc<<<4, 32>>>(x);
        }
        """
        program = compile_cuda(source, arch=A100)
        rt = GPURuntime(A100)
        data = np.zeros(128, dtype=np.float32)
        program.run_host("run", [data, 3], runtime=rt)
        np.testing.assert_array_equal(data, 3.0)
        assert len(rt.launches) == 3
        assert rt.kernel_seconds > 0

    def test_wrong_arg_count(self):
        program = compile_cuda(SOURCE, tier="clang")
        with pytest.raises(TypeError):
            program.launch("scale", 1, 64, args=[np.zeros(4,
                                                          np.float32)])

    @pytest.mark.parametrize("tier", ["polygeist", "polygeist-noopt"])
    def test_launch_group_of_mixed_grid_ranks_raises(self, tier):
        # the rank comes from every grid of the group, not the first one:
        # the second launch's 4096 must not be dropped silently
        program = compile_cuda(SOURCE, arch=A100, tier=tier,
                               autotune_configs=default_configs(4),
                               engine=TuningEngine(cache=TuningCache(None)))
        grids = [(4,), (4, 4096)]
        with pytest.raises(ValueError, match=r"scale mixes grid ranks 1, 2"):
            program.model_launch_seconds("scale", (64,), grids)
        with pytest.raises(ValueError, match=r"scale mixes grid ranks 1, 2"):
            program.tune_aggregate("scale", (64,), grids)
        with pytest.raises(ValueError, match=r"scale mixes grid ranks 1, 2"):
            group_launches([("scale", grid, (64,)) for grid in grids])

    def test_grid_table_models_like_its_grids(self):
        grids = [(4,), (7,), 16]
        seconds = []
        for launches in (grids, grid_table("scale", grids)):
            program = compile_cuda(
                SOURCE, arch=A100, autotune_configs=default_configs(4),
                engine=TuningEngine(cache=TuningCache(None)))
            seconds.append(program.model_launch_seconds("scale", 64,
                                                        launches))
        program = compile_cuda(SOURCE, arch=A100,
                               autotune_configs=default_configs(4),
                               engine=TuningEngine(cache=TuningCache(None)))
        assert seconds[0] == seconds[1] == [
            program.model_launch("scale", grid, 64).time_seconds
            for grid in grids]
        assert grid_table("scale", grids).tolist() == [[4], [7], [16]]

    def test_launch_groups_sum_in_launch_order(self):
        launches = [("a", (8,), (64,)), ("b", (2, 2), (8, 8)),
                    ("a", (4,), (64,)), ("a", (2,), (32,)),
                    ("b", (1, 1), (8, 8))]
        groups = group_launches(launches)
        assert list(groups.tables) == [("a", (64,)), ("b", (8, 8)),
                                       ("a", (32,))]
        assert [table.tolist() for table in groups.tables.values()] == \
            [[[8], [4]], [[2, 2], [1, 1]], [[2]]]
        assert groups.order.tolist() == [0, 1, 0, 2, 1]
        per_group = [[1e16, -1e16], [1.0, 3.0], [2.0]]
        # launch order: 1e16 + 1.0 - 1e16 + 2.0 + 3.0, one add at a time
        expected = 0.0
        for value in (1e16, 1.0, -1e16, 2.0, 3.0):
            expected += value
        assert groups.total(per_group) == expected == 5.0

    def test_amd_target(self):
        program = compile_cuda(SOURCE, arch=RX6800,
                               autotune_configs=default_configs(4))
        rt = GPURuntime(RX6800)
        data = rt.to_device(np.arange(128, dtype=np.float32))
        program.launch("scale", 2, 64, [data, 2.0, 128], runtime=rt)
        np.testing.assert_array_equal(
            rt.to_host(data), np.arange(128, dtype=np.float32) * 2)


class TestHipify:
    def test_api_renames(self):
        result = hipify("cudaMalloc((void**)&p, n);\ncudaFree(p);")
        assert "hipMalloc" in result.source
        assert "hipFree" in result.source
        assert len(result.changes) == 2

    def test_header_mapping(self):
        result = hipify('#include <cuda_runtime.h>\n__global__ void k(){}')
        assert "hip/hip_runtime.h" in result.source

    def test_external_header_needs_manual_fix(self):
        result = hipify('#include "helper_cuda.h"\n__global__ void k(){}\n'
                        '#include <hip/hip_runtime.h>')
        assert any("helper_cuda.h" in fix for fix in result.manual_fixes)

    def test_cuda_guard_flagged(self):
        result = hipify("#ifdef __CUDACC__\nint x;\n#endif\n"
                        "#include <cuda_runtime.h>")
        assert any("__CUDACC__" in fix for fix in result.manual_fixes)

    def test_missing_hip_header_flagged(self):
        result = hipify("__global__ void k(float* p) { p[0] = 1.0f; }")
        assert any("hip_runtime.h" in fix for fix in result.manual_fixes)

    def test_ease_report_favors_ir_route(self):
        source = ('#include "helper_cuda.h"\n#ifdef __CUDACC__\n#endif\n'
                  "__global__ void k(){}")
        report = retarget_ease_report("bench", source)
        assert report.hipify_fix_count >= 2
        assert report.polygeist_fix_count == 0


class TestProfileMode:
    """The paper's Fig. 12 profiling mode: execute-and-time alternatives."""

    def test_profile_launch_selects_and_stays_correct(self):
        rng = np.random.default_rng(4)
        data = rng.random(512, dtype=np.float32)
        expected = data.reshape(8, 64)[:, ::-1].ravel()
        program = compile_cuda(SOURCE, arch=A100,
                               autotune_configs=default_configs(4))
        rt = GPURuntime(A100)
        src = rt.to_device(data)
        dst = rt.malloc(512, np.float32)
        result = program.launch  # silence linters
        program.profile_launch("tile_rev", 8, 64, [src, dst], runtime=rt)
        np.testing.assert_array_equal(rt.to_host(dst), expected)
        outcome = program.tuning_outcomes["tile_rev__g1b64"]
        assert outcome.candidates
        assert outcome.selected_desc
        # the alternatives op is gone after final selection
        assert not program.module.op.ops_matching("polygeist.alternatives")

    def test_profiling_does_not_leak_side_effects(self):
        """Probe executions must not corrupt device buffers."""
        source = """
        __global__ void inc(float *x) {
            x[blockIdx.x * blockDim.x + threadIdx.x] += 1.0f;
        }
        """
        program = compile_cuda(source, arch=A100,
                               autotune_configs=default_configs(4))
        rt = GPURuntime(A100)
        data = rt.to_device(np.zeros(256, dtype=np.float32))
        program.profile_launch("inc", 4, 64, [data], runtime=rt)
        # exactly ONE increment despite many probe runs
        np.testing.assert_array_equal(rt.to_host(data), 1.0)

    def test_profile_and_model_agree_on_ranking(self):
        """Simulated-execution TDO and analytic TDO pick compatible
        winners (both run the same model under the hood)."""
        program_a = compile_cuda(SOURCE, arch=A100,
                                 autotune_configs=default_configs(4))
        rt = GPURuntime(A100)
        src = rt.to_device(np.zeros(512, dtype=np.float32))
        dst = rt.malloc(512, np.float32)
        program_a.profile_launch("tile_rev", 8, 64, [src, dst], runtime=rt)
        profiled = program_a.tuning_outcomes["tile_rev__g1b64"]

        program_b = compile_cuda(SOURCE, arch=A100,
                                 autotune_configs=default_configs(4))
        program_b.launch("tile_rev", 8, 64, [src, dst])
        modeled = program_b.tuning_outcomes["tile_rev__g1b64"]
        profiled_order = [c.desc for c in sorted(profiled.candidates,
                                                 key=lambda c:
                                                 c.time_seconds)]
        assert modeled.selected_desc in profiled_order[:3]

    def test_profile_prunes_like_tune_wrapper(self):
        """Profiling and TDO share one pruning path: on lud_internal,
        whose block-coarsened tiles overflow the A100's shared memory,
        the profiled candidates are exactly tune_wrapper's survivors."""
        bench = get_benchmark("lud")
        configs = paper_sweep_configs()
        n, grid, block = 32, (1, 1), (16, 16)
        matrix = make_diagonally_dominant(n, 0)
        program = compile_cuda(bench.source, arch=A100,
                               autotune_configs=configs)
        rt = GPURuntime(A100)
        profiled_buf = rt.to_device(matrix.ravel())
        program.profile_launch("lud_internal", grid, block,
                               [profiled_buf, n, 0], runtime=rt)
        (profiled,) = program.tuning_outcomes.values()

        gen = ModuleGenerator(parse_translation_unit(bench.source))
        name = gen.get_launch_wrapper("lud_internal", len(grid), block)
        run_cleanup(gen.module)
        f = gen.module.func(name)
        env = dict(zip(f.body_block().args[:len(grid)], grid))
        tuned = tune_wrapper(polygeist.find_gpu_wrappers(f)[0], A100, env,
                             configs, engine=TuningEngine(validate=False))
        assert tuned.filters.dropped_shared
        assert [c.desc for c in profiled.candidates] == \
            tuned.filters.survivor_descs

        # the compiled-in winner computes what the untuned kernel does
        baseline = compile_cuda(bench.source, arch=A100,
                                tier="polygeist-noopt")
        baseline_buf = rt.to_device(matrix.ravel())
        baseline.launch("lud_internal", grid, block, [baseline_buf, n, 0],
                        runtime=rt)
        np.testing.assert_array_equal(rt.to_host(profiled_buf),
                                      rt.to_host(baseline_buf))
