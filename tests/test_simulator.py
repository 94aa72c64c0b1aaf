"""Tests for the simulator: coalescing, timing model, caches, traces."""

import numpy as np
import pytest

from repro.dialects import polygeist
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.interpreter import MemoryBuffer
from repro.ir import F32, verify_module
from repro.simulator import analyze_coalescing, trace_kernel
from repro.simulator.cache import Cache
from repro.simulator.coalescing import AccessMemo, transactions_for_stride
from repro.simulator.batch import LaunchScorer
from repro.simulator.model import UNEVALUABLE_GRID, InvalidLaunch, KernelModel
from repro.targets import A100, A4000, RX6800, linearize_thread_body
from repro.transforms import block_coarsen, coarsen_wrapper, thread_coarsen
from repro.transforms.coarsen import block_parallels, thread_parallel


def build(source, kernel="k", block=(64,), grid_rank=1, coarsen=None):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    name = gen.get_launch_wrapper(kernel, grid_rank, block)
    verify_module(gen.module)
    wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
    if coarsen:
        coarsen(wrapper)
        verify_module(gen.module)
    return gen.module, name, wrapper


COALESCED = """
__global__ void k(float *a, float *b) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    b[i] = a[i] * 2.0f;
}
"""

STRIDED = """
__global__ void k(float *a, float *b) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    b[i] = a[i * 32];
}
"""

SHARED_HEAVY = """
__global__ void k(float *a) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = a[blockIdx.x * blockDim.x + t];
    __syncthreads();
    float acc = 0.0f;
    for (int j = 0; j < 64; j++) acc += tile[j];
    a[blockIdx.x * blockDim.x + t] = acc;
}
"""


def grid_env(module, name, values):
    f = module.func(name)
    return dict(zip(f.body_block().args, values))


class TestCoalescingAnalysis:
    def test_unit_stride_detected(self):
        module, name, wrapper = build(COALESCED)
        threads = thread_parallel(block_parallels(wrapper)[0])
        accesses = analyze_coalescing(linearize_thread_body(threads),
                                      AccessMemo(threads), warp_size=32)
        assert len(accesses) == 2
        for access in accesses:
            assert access.stride_x == 1
            assert access.efficiency == 1.0
            assert access.transactions_per_warp == 4.0  # 128 B / 32 B

    def test_large_stride_detected(self):
        module, name, wrapper = build(STRIDED)
        threads = thread_parallel(block_parallels(wrapper)[0])
        accesses = analyze_coalescing(linearize_thread_body(threads),
                                      AccessMemo(threads), warp_size=32)
        load = [a for a in accesses if not a.is_store][0]
        assert load.stride_x == 32
        assert load.transactions_per_warp == 32.0
        assert load.efficiency <= 0.125

    def test_transactions_for_stride(self):
        assert transactions_for_stride(0, 4, 32) == 1.0       # broadcast
        assert transactions_for_stride(1, 4, 32) == 4.0       # 128 B span
        assert transactions_for_stride(2, 4, 32) == 8.0       # half waste
        assert transactions_for_stride(None, 4, 32) == 32.0   # scattered
        assert transactions_for_stride(1, 8, 32) == 8.0       # f64

    def test_coalescing_friendly_coarsening_keeps_stride(self):
        """Thread coarsening must not introduce strided accesses
        (Fig. 11: iv + k * new_ub indexing)."""
        module, name, wrapper = build(
            COALESCED, coarsen=lambda w: thread_coarsen(w, (4,)))
        threads = thread_parallel(block_parallels(wrapper)[0])
        accesses = analyze_coalescing(linearize_thread_body(threads),
                                      AccessMemo(threads), warp_size=32)
        assert len(accesses) == 8  # 4 copies x (load + store)
        for access in accesses:
            assert access.stride_x == 1, "coarsening broke coalescing"

    def test_loop_multiplies_executions(self):
        module, name, wrapper = build(SHARED_HEAVY)
        threads = thread_parallel(block_parallels(wrapper)[0])
        accesses = analyze_coalescing(linearize_thread_body(threads),
                                      AccessMemo(threads), warp_size=32)
        # only the two global accesses count (tile is shared)
        assert len(accesses) == 2


class TestKernelModel:
    def test_basic_timing_positive(self):
        module, name, wrapper = build(COALESCED)
        loop = block_parallels(wrapper)[0]
        model = KernelModel(loop, A100)
        timing = model.time_launch(1024)
        assert timing.time_seconds > 0
        assert timing.occupancy.occupancy > 0

    def test_more_blocks_more_time(self):
        module, name, wrapper = build(COALESCED)
        loop = block_parallels(wrapper)[0]
        model = KernelModel(loop, A100)
        t1 = model.time_launch(1 << 10).time_seconds
        t2 = model.time_launch(1 << 14).time_seconds
        assert t2 > t1

    def test_strided_slower_than_coalesced(self):
        m1, n1, w1 = build(COALESCED)
        m2, n2, w2 = build(STRIDED)
        many = 1 << 14
        t_coal = KernelModel(block_parallels(w1)[0],
                             A100).time_launch(many).time_seconds
        t_strided = KernelModel(block_parallels(w2)[0],
                                A100).time_launch(many).time_seconds
        assert t_strided > 2 * t_coal

    def test_sub_warp_block_penalized(self):
        """The gaussian pathology: 16-thread blocks underuse lanes."""
        m1, n1, w1 = build(COALESCED, block=(16,))
        m2, n2, w2 = build(COALESCED, block=(64,))
        # same total threads: 4x blocks for the 16-wide config
        t16 = KernelModel(block_parallels(w1)[0],
                          A100).time_launch(4096).time_seconds
        t64 = KernelModel(block_parallels(w2)[0],
                          A100).time_launch(1024).time_seconds
        assert t16 > t64

    def test_block_coarsening_helps_small_blocks(self):
        """Block coarsening improves under-occupied small-block kernels
        (gaussian in §VII-C)."""
        base_m, base_n, base_w = build(COALESCED, block=(16,))
        t_base = KernelModel(block_parallels(base_w)[0],
                             A100).time_launch(8192).time_seconds

        c_m, c_n, c_w = build(COALESCED, block=(16,),
                              coarsen=lambda w: block_coarsen(w, (8,)))
        main = block_parallels(c_w, include_epilogues=False)[0]
        t_coarse = KernelModel(main, A100).time_launch(1024).time_seconds
        assert t_coarse < t_base

    def test_thread_coarsening_below_warp_penalized(self):
        """The lud Fig. 14 cliff: thread factors that break full warps."""
        def time_with_factor(factor):
            m, n, w = build(COALESCED, block=(64,),
                            coarsen=(lambda w_: thread_coarsen(w_, (factor,)))
                            if factor > 1 else None)
            main = block_parallels(w)[0]
            return KernelModel(main, A100).time_launch(2048).time_seconds

        t2 = time_with_factor(2)
        t32 = time_with_factor(32)  # 64/32 = 2 threads per block!
        assert t32 > t2

    def test_amd_lds_offload_detected(self):
        """The nw anomaly: 136 B shared per thread on AMD (§VII-D2)."""
        source = """
        __global__ void k(float *a) {
            __shared__ float big[16][34];
            int t = threadIdx.x;
            big[t][0] = a[t];
            __syncthreads();
            a[t] = big[15 - t][0];
        }
        """
        m, n, w = build(source, block=(16,))
        loop = block_parallels(w)[0]
        model_amd = KernelModel(loop, RX6800)
        model_nv = KernelModel(loop, A100)
        assert model_amd.lds_offloaded
        assert not model_nv.lds_offloaded
        t_amd = model_amd.time_launch(2048).time_seconds
        # disabled offload comparison: shared counted normally
        assert t_amd > 0

    def test_f64_favors_amd_rx6800_over_a4000(self):
        """§VII-D2: double-precision benchmarks run better on RX6800."""
        source_f64 = """
        __global__ void k(double *a, double *b) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            double x = a[i];
            double acc = 0.0;
            for (int j = 0; j < 64; j++) {
                acc = acc * x + 0.5;
                acc = acc * acc + x;
            }
            b[i] = acc;
        }
        """
        m, n, w = build(source_f64)
        loop = block_parallels(w)[0]
        t_a4000 = KernelModel(loop, A4000).time_launch(4096).time_seconds
        t_rx = KernelModel(loop, RX6800).time_launch(4096).time_seconds
        assert t_rx < t_a4000

    def test_oversized_shared_invalid(self):
        source = """
        __global__ void k(float *a) {
            __shared__ float big[70000];
            big[threadIdx.x] = a[threadIdx.x];
            a[threadIdx.x] = big[threadIdx.x];
        }
        """
        m, n, w = build(source)
        loop = block_parallels(w)[0]
        model = KernelModel(loop, A100)
        with pytest.raises(InvalidLaunch):
            model.time_launch(64)

    def test_scorer_times_wrapper_with_epilogue(self):
        from tests import scalar_oracle
        m, n, w = build(COALESCED,
                        coarsen=lambda w_: block_coarsen(w_, (3,)))
        env = grid_env(m, n, [100])
        scorer = LaunchScorer([env], A100, {}, UNEVALUABLE_GRID)
        scorer.add(block_parallels(w))
        (timing,), = scorer.env_timings()
        assert timing.time_seconds > 0
        # main runs 33 fused blocks + epilogue 1 block
        assert timing.metrics.num_blocks == 34
        assert timing == scalar_oracle.model_wrapper_launch(w, A100, env)


class TestCache:
    def test_hits_on_reuse(self):
        cache = Cache(1024, line_bytes=128, ways=2)
        assert not cache.access(1, 0)
        assert cache.access(1, 64)   # same line
        assert not cache.access(1, 128)
        assert cache.access(1, 0)

    def test_eviction_lru(self):
        cache = Cache(2 * 128, line_bytes=128, ways=2)  # 1 set, 2 ways
        cache.access(1, 0)
        cache.access(1, 128)
        cache.access(1, 256)  # evicts line 0
        assert not cache.access(1, 0)

    def test_distinct_buffers_distinct_lines(self):
        cache = Cache(4096)
        cache.access(1, 0)
        assert not cache.access(2, 0)


class TestTrace:
    def test_counters_from_real_execution(self):
        module, name, wrapper = build(SHARED_HEAVY, block=(64,))
        data = MemoryBuffer((256,), F32,
                            data=np.arange(256, dtype=np.float32))
        result = trace_kernel(module, name, [4, data], A100)
        metrics = result.metrics
        # 4 blocks x 64 threads: 2 warp-requests per warp (load+store)
        assert result.global_read_requests == 4 * 2 * 1
        assert result.global_write_requests == 4 * 2
        assert metrics.shmem_to_sm_read_requests == 4 * 2 * 64
        assert metrics.sm_to_shmem_write_requests == 4 * 2

    def test_coalesced_traffic_less_than_strided(self):
        m1, n1, w1 = build(COALESCED, block=(32,))
        m2, n2, w2 = build(STRIDED, block=(32,))
        a1 = MemoryBuffer((4096,), F32)
        b1 = MemoryBuffer((4096,), F32)
        r1 = trace_kernel(m1, n1, [4, a1, b1], A100)
        a2 = MemoryBuffer((4096,), F32)
        b2 = MemoryBuffer((4096,), F32)
        r2 = trace_kernel(m2, n2, [4, a2, b2], A100)
        assert r2.metrics.l2_to_l1_read_bytes > \
            r1.metrics.l2_to_l1_read_bytes

    def test_block_coarsening_reduces_l2_traffic_on_overlap(self):
        """The lud/Table II effect: fused blocks reuse overlapping data
        in L1, reducing L2->L1 reads."""
        source = """
        __global__ void k(float *a, float *b) {
            // every block reads the same leading row: cross-block reuse
            float acc = 0.0f;
            for (int j = 0; j < 32; j++) acc += a[j];
            b[blockIdx.x * blockDim.x + threadIdx.x] = acc;
        }
        """
        m1, n1, w1 = build(source, block=(32,))
        a1 = MemoryBuffer((4096,), F32)
        b1 = MemoryBuffer((4096,), F32)
        base = trace_kernel(m1, n1, [8, a1, b1], A100)

        m2, n2, w2 = build(source, block=(32,),
                           coarsen=lambda w: block_coarsen(w, (4,)))
        a2 = MemoryBuffer((4096,), F32)
        b2 = MemoryBuffer((4096,), F32)
        fused = trace_kernel(m2, n2, [8, a2, b2], A100)
        assert fused.metrics.l2_to_l1_read_bytes < \
            base.metrics.l2_to_l1_read_bytes


class TestBankConflicts:
    def test_factor_formula(self):
        from repro.simulator.coalescing import bank_conflict_factor
        assert bank_conflict_factor(1, 4) == 1.0    # stride 1: clean
        assert bank_conflict_factor(0, 4) == 1.0    # broadcast
        assert bank_conflict_factor(2, 4) == 2.0    # 2-way
        assert bank_conflict_factor(16, 4) == 16.0  # 16-way
        assert bank_conflict_factor(32, 4) == 32.0  # fully serialized
        assert bank_conflict_factor(3, 4) == 1.0    # odd strides are clean
        assert bank_conflict_factor(1, 8) == 2.0    # f64 spans two banks

    def test_column_access_conflicts_detected(self):
        """tile[t][0]-style column accesses serialize (the lud pattern)."""
        from repro.simulator.coalescing import analyze_shared_conflicts
        source = """
        __global__ void k(float *out) {
            __shared__ float tile[32][32];
            int t = threadIdx.x;
            tile[t][0] = 1.0f;          // word stride 32: 32-way conflict
            __syncthreads();
            out[t] = tile[t][0];
        }
        """
        module, name, wrapper = build(source, block=(32,))
        threads = thread_parallel(block_parallels(wrapper)[0])
        factor = analyze_shared_conflicts(linearize_thread_body(threads),
                                          AccessMemo(threads))
        assert factor == 32.0

    def test_row_access_clean(self):
        from repro.simulator.coalescing import analyze_shared_conflicts
        source = """
        __global__ void k(float *out) {
            __shared__ float tile[32][32];
            int t = threadIdx.x;
            tile[0][t] = 1.0f;           // stride 1: conflict free
            __syncthreads();
            out[t] = tile[0][t];
        }
        """
        module, name, wrapper = build(source, block=(32,))
        threads = thread_parallel(block_parallels(wrapper)[0])
        assert analyze_shared_conflicts(linearize_thread_body(threads),
                                        AccessMemo(threads)) == 1.0

    def test_padding_trick_removes_conflicts(self):
        """The classic [TS][TS+1] padding from hec-transpose."""
        from repro.simulator.coalescing import analyze_shared_conflicts

        def factor_for(cols):
            source = """
            __global__ void k(float *out) {
                __shared__ float tile[32][%d];
                int t = threadIdx.x;
                tile[t][0] = 1.0f;
                __syncthreads();
                out[t] = tile[t][0];
            }
            """ % cols
            module, name, wrapper = build(source, block=(32,))
            threads = thread_parallel(block_parallels(wrapper)[0])
            return analyze_shared_conflicts(
                linearize_thread_body(threads), AccessMemo(threads))

        assert factor_for(32) == 32.0   # power-of-two row: worst case
        assert factor_for(33) == 1.0    # +1 padding: conflict free


class TestMetricsBugfixes:
    """Regressions for the Table II counter and history-attr fixes."""

    def test_dram_counters_report_transferred_bytes(self):
        """Uncoalesced loads: DRAM counters must carry *transferred*
        (transaction) bytes — same as L2→L1 — not the smaller useful-byte
        count the SM requested. The analytical model has no cache-hit
        modeling, so the two levels agree by construction."""
        module, name, wrapper = build(STRIDED)
        model = KernelModel(block_parallels(wrapper)[0], A100)
        features = model.features()
        timing = model.time_launch(64)
        metrics = timing.metrics
        assert metrics.dram_read_bytes == metrics.l2_to_l1_read_bytes
        assert metrics.dram_read_bytes == features.read_bytes * 64
        # stride-32 f32 loads waste most of each 32 B transaction
        assert metrics.dram_read_bytes > 4 * features.useful_read * 64

    def test_coalesced_dram_equals_useful(self):
        """Unit-stride f32: every transferred byte is useful."""
        module, name, wrapper = build(COALESCED)
        model = KernelModel(block_parallels(wrapper)[0], A100)
        features = model.features()
        assert features.read_bytes == features.useful_read

    def test_malformed_coarsen_history_is_invalid_launch(self):
        module, name, wrapper = build(COALESCED)
        loop = block_parallels(wrapper)[0]
        loop.attributes["coarsen.history"] = ["block:dim0:x2", "bogus"]
        with pytest.raises(InvalidLaunch) as excinfo:
            KernelModel(loop, A100)
        assert "malformed coarsen.history entry" in str(excinfo.value)
        assert "bogus" in str(excinfo.value)

    def test_nonpositive_coarsen_factor_is_invalid_launch(self):
        module, name, wrapper = build(COALESCED)
        loop = block_parallels(wrapper)[0]
        loop.attributes["coarsen.history"] = ["thread:dim0:x0"]
        with pytest.raises(InvalidLaunch, match="factor must be positive"):
            KernelModel(loop, A100)


class TestBlockCountsVectorized:
    def test_block_counts_matches_scalar(self):
        from repro.simulator.model import block_counts
        from tests.scalar_oracle import block_count

        module, name, wrapper = build(COALESCED, grid_rank=1)
        loop = block_parallels(wrapper)[0]
        f = module.func(name)
        args = f.body_block().args
        envs = [dict(zip(args, [n] + [0] * (len(args) - 1)))
                for n in (1, 7, 64, 1024, 4096)]
        expected = [block_count(loop, env) for env in envs]
        assert None not in expected
        assert block_counts(loop, envs).tolist() == expected
        # one launch is a one-row table
        for env, blocks in zip(envs, expected):
            assert block_counts(loop, [env]).tolist() == [blocks]

    def test_block_counts_ragged_envs_raise(self):
        from repro.simulator.model import block_counts

        module, name, wrapper = build(COALESCED, grid_rank=1)
        loop = block_parallels(wrapper)[0]
        f = module.func(name)
        args = list(f.body_block().args)
        envs = [dict(zip(args, [8] * len(args))),
                {args[0]: 16}]  # ragged: missing keys
        with pytest.raises(ValueError, match="different parameters"):
            block_counts(loop, envs)
        with pytest.raises(ValueError, match="different parameters"):
            block_counts(loop, envs[::-1])

    def test_block_counts_marks_unevaluable_grids(self):
        from repro.simulator.model import block_counts
        from tests.scalar_oracle import block_count

        module, name, wrapper = build(COALESCED, grid_rank=1)
        loop = block_parallels(wrapper)[0]
        for envs in ([{}], [{}, {}]):
            assert [block_count(loop, env) for env in envs] == \
                [None] * len(envs)
            assert block_counts(loop, envs).tolist() == [-1] * len(envs)


class TestAccessMemo:
    def test_affine_memo_is_root_level_past_max_depth(self):
        # affine_of truncates at _MAX_DEPTH: x100's walk reaches x50 at
        # depth 50, so only root-level results may be reused
        from repro.analysis import affine_of
        from repro.analysis.affine import _MAX_DEPTH
        from repro.dialects import arith
        from repro.ir import Builder
        module, name, wrapper = build(COALESCED)
        threads = thread_parallel(block_parallels(wrapper)[0])
        builder = Builder(threads.body_block())
        one = arith.index_constant(builder, 1)
        chain = [threads.body_block().arg(0)]
        for _ in range(2 * _MAX_DEPTH):
            chain.append(arith.addi(builder, chain[-1], one))
        assert affine_of(chain[-1]) != affine_of(chain[-1 - _MAX_DEPTH])
        memo = AccessMemo(threads)
        for value in reversed(chain):
            assert memo.affine(value) == affine_of(value)
        for value in chain:
            assert memo.affine(value) is memo.affine(value)

    def test_shared_memo_matches_separate_analyses(self):
        from repro.benchsuite import get_benchmark
        from repro.pipeline import Program
        from repro.simulator.coalescing import analyze_shared_conflicts

        checked = 0
        for name in ("lud", "hotspot", "nw"):
            bench = get_benchmark(name)
            program = Program(bench.source, arch=A100,
                              tier="polygeist-noopt")
            for kernel, grid, block in bench.iter_launches(
                    bench.model_size):
                program.model_launch(kernel, grid, block)
            for wrapper in polygeist.find_gpu_wrappers(program.module.op):
                for loop in block_parallels(wrapper):
                    threads = thread_parallel(loop)
                    lin = linearize_thread_body(threads)
                    memo = AccessMemo(threads)
                    assert analyze_coalescing(lin, memo, 32) == \
                        analyze_coalescing(lin, AccessMemo(threads), 32)
                    assert analyze_shared_conflicts(lin, memo) == \
                        analyze_shared_conflicts(lin, AccessMemo(threads))
                    checked += 1
        assert checked >= 3
