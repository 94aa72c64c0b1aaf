"""Tests for architecture models, register estimation, and occupancy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import polygeist
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import verify_module
from repro.targets import (A100, A4000, ALL_ARCHS, MI210, RX6800,
                           arch_by_name, compute_occupancy,
                           estimate_registers, linearize_thread_body,
                           linearized_cache)
from repro.targets.lowering import SYMBOLIC_TRIPS
from repro.transforms import thread_coarsen, block_coarsen
from repro.transforms.coarsen import block_parallels, thread_parallel


def kernel_threads(source, block=(64,), coarsen=None):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    gen.get_launch_wrapper("k", 1, block)
    verify_module(gen.module)
    wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
    if coarsen:
        coarsen(wrapper)
    blocks = block_parallels(wrapper, include_epilogues=False)[0]
    return thread_parallel(blocks)


COMPUTE_KERNEL = """
__global__ void k(float *a, float *b) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float x = a[i];
    float y = x * 2.0f + 1.0f;
    float z = y * y - x;
    b[i] = z / (x + 1.0f);
}
"""

#: a loop, a thread-dependent branch and a shared array
BRANCHY_SHARED_KERNEL = """
__global__ void k(float *a) {
    __shared__ float t[64];
    float acc = 0.0f;
    for (int j = 0; j < 8; j++) {
        if (j > threadIdx.x) acc += a[j * 64 + threadIdx.x];
    }
    t[threadIdx.x] = acc;
    __syncthreads();
    a[threadIdx.x] = t[63 - threadIdx.x];
}
"""


class _CountingOps(list):
    """A block's op list that counts the walks over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestArch:
    def test_table1_values(self):
        assert A100.num_sms == 108
        assert A4000.num_sms == 48
        assert RX6800.num_sms == 60
        assert MI210.num_sms == 104
        assert A100.memory_bandwidth_gbs == 1555.0
        assert MI210.fp64_tflops == MI210.fp32_tflops  # 1:1 on CDNA2

    def test_warp_sizes(self):
        assert A100.warp_size == 32
        assert A4000.warp_size == 32
        assert RX6800.warp_size == 64
        assert MI210.warp_size == 64

    def test_amd_quirks(self):
        assert RX6800.lds_offload_bytes_per_thread is not None
        assert A100.lds_offload_bytes_per_thread is None

    def test_lookup(self):
        assert arch_by_name("a100") is A100
        assert arch_by_name("RX6800") is RX6800
        with pytest.raises(KeyError):
            arch_by_name("H100")

    def test_fp32_lanes_reasonable(self):
        # ~64 FP32 FMA lanes per SM on Ampere
        assert 32 <= A100.fp32_lanes_per_sm <= 128

    def test_describe_row_shape(self):
        row = A100.describe_row()
        assert row["SMs"] == 108
        assert "GB/s" in row["Memory Bandwidth"]


class TestLinearize:
    def test_linearization_covers_body(self):
        threads = kernel_threads(COMPUTE_KERNEL)
        lin = linearize_thread_body(threads)
        kinds = [i.kind for i in lin.instrs]
        assert "load" in kinds
        assert "store" in kinds
        assert "fpu32" in kinds

    def test_loop_spans_recorded(self):
        source = """
        __global__ void k(float *a) {
            float acc = 0.0f;
            for (int j = 0; j < 8; j++) acc += a[j];
            a[threadIdx.x] = acc;
        }
        """
        threads = kernel_threads(source)
        lin = linearize_thread_body(threads)
        assert len(lin.loop_spans) == 1
        start, end = lin.loop_spans[0]
        assert end > start

    def test_executions_weight_loops_and_branches(self):
        source = """
        __global__ void k(float *a) {
            float acc = 0.0f;
            for (int j = 0; j < 10; j++) {
                if (j > threadIdx.x) acc += a[j];
            }
            a[threadIdx.x] = acc;
        }
        """
        lin = linearize_thread_body(kernel_threads(source))
        weights = {(i.kind, i.op.name): i.executions for i in lin.instrs
                   if i.kind in ("load", "store", "loop_begin", "branch")}
        assert weights == {("loop_begin", "scf.for"): 10.0,
                           ("branch", "scf.if"): 10.0,
                           ("load", "memref.load"): 5.0,
                           ("store", "memref.store"): 1.0}
        assert not lin.symbolic

    def test_dynamic_bound_is_symbolic(self):
        source = """
        __global__ void k(float *a, int n) {
            float acc = 0.0f;
            for (int j = 0; j < n; j++) acc += a[j];
            a[threadIdx.x] = acc;
        }
        """
        lin = linearize_thread_body(kernel_threads(source))
        assert lin.symbolic
        loads = [i.executions for i in lin.instrs if i.kind == "load"]
        assert loads == [SYMBOLIC_TRIPS]

    def test_model_walks_the_thread_body_once(self):
        # shared_bytes_per_block's alloca walk skips the thread loop and
        # takes its allocas from the stream
        from repro.simulator.model import KernelModel
        threads = kernel_threads(BRANCHY_SHARED_KERNEL)
        loop = threads.parent_op
        body = threads.body_block()
        body.ops = ops = _CountingOps(body.ops)
        KernelModel(loop, A100)
        assert ops.iterations == 1
        with linearized_cache():
            # the spill filter's question, answered before the model's
            estimate_registers(linearize_thread_body(threads), A100)
            for arch in (A100, MI210):
                ops.iterations = 0
                KernelModel(loop, arch)
                assert ops.iterations == 0

    def test_analyses_leave_no_cyclic_garbage(self):
        # the recursive walker is a module-level function: a nested
        # function that calls itself is a cycle through its closure cell,
        # which would keep the stream and the access memo alive until a
        # full collection
        import gc
        from repro.autotune.heuristic import choose_factors
        from repro.simulator.coalescing import (AccessMemo,
                                                analyze_coalescing,
                                                analyze_shared_conflicts)
        from repro.simulator.model import KernelModel
        threads = kernel_threads(BRANCHY_SHARED_KERNEL)
        loop = threads.parent_op
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            lin = linearize_thread_body(threads)
            memo = AccessMemo(threads)
            accesses = analyze_coalescing(lin, memo, warp_size=32)
            conflicts = analyze_shared_conflicts(lin, memo)
            assert lin.loop_spans and len(accesses) == 2
            assert conflicts >= 1.0
            assert estimate_registers(lin, A100).max_live > 0
            model = KernelModel(loop, A100)
            assert model.divergent_branches == 1
            choice = choose_factors(loop, MI210)
            assert choice.reasons
            del lin, memo, accesses, model, choice
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


SCALE_KERNEL = """
__global__ void k(float *x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    x[i] = x[i] * a;
}
"""


def _scale_tune():
    """One ``tune_wrapper`` call on a fresh module."""
    from repro.autotune import default_configs, tdo
    from repro.engine import TuningEngine
    from repro.transforms import run_cleanup
    gen = ModuleGenerator(parse_translation_unit(SCALE_KERNEL))
    name = gen.get_launch_wrapper("k", 1, (256,))
    run_cleanup(gen.module)
    wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
    env = {gen.module.func(name).body_block().arg(0): 64}
    tdo.tune_wrapper(wrapper, A100, env, default_configs(max_total=4),
                     engine=TuningEngine(validate=False))


class TestLinearizedCacheScope:
    def test_overlapping_tunes_in_threads_keep_their_own_scope(
            self, monkeypatch):
        # the first tune enters its scope, the second enters while the
        # first is inside and is still ranking when the first exits: its
        # timing models must still find the streams its spill filter made
        import threading
        from collections import Counter
        from repro.autotune import tdo
        from repro.targets import lowering
        walks = Counter()

        class Counting(lowering.Linearized):
            def __init__(self):
                super().__init__()
                walks[threading.current_thread().name] += 1

        monkeypatch.setattr(lowering, "Linearized", Counting)
        _scale_tune()
        alone = walks.pop(threading.current_thread().name)
        first_inside = threading.Event()
        second_inside = threading.Event()
        first_done = threading.Event()
        real_tdo = tdo.timing_driven_optimization

        def pausing_tdo(*args, **kwargs):
            if threading.current_thread().name == "first":
                first_inside.set()
                assert second_inside.wait(60)
            else:
                second_inside.set()
                assert first_done.wait(60)
            return real_tdo(*args, **kwargs)

        def run_first():
            _scale_tune()
            first_done.set()

        def run_second():
            assert first_inside.wait(60)
            _scale_tune()

        monkeypatch.setattr(tdo, "timing_driven_optimization", pausing_tdo)
        threads = [threading.Thread(target=run_first, name="first"),
                   threading.Thread(target=run_second, name="second")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        # each tune walks each of its thread loops once, as alone
        assert walks == {"first": alone, "second": alone}


class TestRegisters:
    def test_more_values_more_registers(self):
        few = kernel_threads("""
        __global__ void k(float *a) {
            a[threadIdx.x] = a[threadIdx.x] + 1.0f;
        }
        """)
        many = kernel_threads(COMPUTE_KERNEL)
        est_few = estimate_registers(linearize_thread_body(few), A100)
        est_many = estimate_registers(linearize_thread_body(many), A100)
        assert est_many.registers_per_thread >= est_few.registers_per_thread

    def test_coarsening_increases_registers(self):
        base = kernel_threads(COMPUTE_KERNEL)
        coarse = kernel_threads(
            COMPUTE_KERNEL,
            coarsen=lambda w: thread_coarsen(w, (8,)))
        est_base = estimate_registers(linearize_thread_body(base), A100)
        est_coarse = estimate_registers(linearize_thread_body(coarse), A100)
        assert est_coarse.registers_per_thread > \
            est_base.registers_per_thread

    def test_f64_counts_double(self):
        f32 = kernel_threads(COMPUTE_KERNEL)
        f64 = kernel_threads(COMPUTE_KERNEL.replace("float", "double"))
        est32 = estimate_registers(linearize_thread_body(f32), A100)
        est64 = estimate_registers(linearize_thread_body(f64), A100)
        assert est64.registers_per_thread > est32.registers_per_thread

    def test_extreme_coarsening_spills(self):
        source = """
        __global__ void k(float *a, float *b) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            float x0 = a[i], x1 = a[i+1], x2 = a[i+2], x3 = a[i+3];
            float x4 = a[i+4], x5 = a[i+5], x6 = a[i+6], x7 = a[i+7];
            float y = x0*x1 + x2*x3 + x4*x5 + x6*x7;
            b[i] = y + x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;
        }
        """
        threads = kernel_threads(
            source, coarsen=lambda w: thread_coarsen(w, (16,)))
        est = estimate_registers(linearize_thread_body(threads), A100)
        # 16 copies x ~17 live floats each approaches/exceeds 255
        assert est.registers_per_thread > 100


class TestOccupancy:
    def test_full_occupancy(self):
        occ = compute_occupancy(A100, 256, 32, 0)
        assert occ.occupancy == 1.0
        assert occ.blocks_per_sm == 8

    def test_register_limited(self):
        occ = compute_occupancy(A100, 256, 128, 0)
        # 256*128 = 32768 regs/block; 65536/32768 = 2 blocks = 512 threads
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "registers"
        assert occ.occupancy == 512 / 2048

    def test_shared_limited(self):
        occ = compute_occupancy(A100, 128, 32, 40 * 1024)
        assert occ.limiter == "shared"
        assert occ.blocks_per_sm == (164 * 1024) // (40 * 1024)

    def test_shared_exceeds_block_limit(self):
        occ = compute_occupancy(A100, 128, 32, 60 * 1024)  # > 48 KB
        assert occ.blocks_per_sm == 0
        assert occ.occupancy == 0.0

    def test_small_blocks_limited_by_block_slots(self):
        # gaussian's pathology: block size 16
        occ = compute_occupancy(A100, 16, 32, 0)
        assert occ.blocks_per_sm == A100.max_blocks_per_sm
        # 32 blocks x 32 allocated threads = 1024 of 2048
        assert occ.occupancy == 0.5

    def test_sub_warp_allocation(self):
        occ16 = compute_occupancy(A100, 16, 32, 0)
        occ32 = compute_occupancy(A100, 32, 32, 0)
        assert occ16.active_threads == occ32.active_threads

    def test_oversized_block_rejected(self):
        occ = compute_occupancy(A100, 2048, 32, 0)
        assert occ.occupancy == 0.0

    @given(st.integers(32, 1024), st.integers(16, 200),
           st.integers(0, 48 * 1024))
    @settings(max_examples=60, deadline=None)
    def test_property_occupancy_bounds(self, threads, regs, shared):
        for arch in ALL_ARCHS:
            occ = compute_occupancy(arch, threads, regs, shared)
            assert 0.0 <= occ.occupancy <= 1.0
            if occ.blocks_per_sm:
                # resource constraints hold
                warp = arch.warp_size
                alloc = -(-threads // warp) * warp
                assert occ.blocks_per_sm * alloc <= arch.max_threads_per_sm
                assert occ.blocks_per_sm * alloc * regs <= \
                    arch.registers_per_sm
                if shared:
                    assert occ.blocks_per_sm * shared <= \
                        arch.shared_mem_per_sm

    def test_monotone_in_registers(self):
        previous = None
        for regs in [32, 64, 96, 128, 160, 200]:
            occ = compute_occupancy(A100, 256, regs, 0)
            if previous is not None:
                assert occ.blocks_per_sm <= previous
            previous = occ.blocks_per_sm

    def test_active_warps_in_warp_units(self):
        # regression: active_warps used to return thread units
        occ = compute_occupancy(A100, 256, 128, 0)
        assert occ.blocks_per_sm == 2
        assert occ.active_threads == 512
        assert occ.active_warps == 512 // A100.warp_size

    def test_active_warps_uses_arch_warp_size(self):
        mi210 = next(a for a in ALL_ARCHS if a.warp_size == 64)
        occ = compute_occupancy(mi210, 256, 128, 0)
        assert occ.warp_size == 64
        assert occ.active_warps == occ.active_threads // 64

    def test_limiter_not_blamed_on_unused_resource(self):
        # regression: blocks == max_blocks_per_sm used to tie with the
        # fallback "shared" entry even with zero shared memory requested
        occ = compute_occupancy(A100, 16, 0, 0)
        assert occ.blocks_per_sm == A100.max_blocks_per_sm
        assert occ.limiter == "blocks"

    def test_limiter_tie_prefers_actionable_resource(self):
        # registers tie with the block-slot cap at 32 blocks; the old
        # tie-break override relabeled this "blocks", hiding the register
        # pressure a tuner could actually act on
        occ = compute_occupancy(A100, 16, 64, 0)
        assert occ.blocks_per_sm == 32
        assert occ.limiter == "registers"

    @staticmethod
    def _reference_occupancy(arch, threads, regs, shared):
        """Brute-force: largest block count satisfying every constraint."""
        if threads > arch.max_threads_per_block or \
                shared > arch.shared_mem_per_block:
            return 0
        alloc = -(-threads // arch.warp_size) * arch.warp_size
        best = 0
        for b in range(arch.max_blocks_per_sm, 0, -1):
            if b * alloc > arch.max_threads_per_sm:
                continue
            if b * regs * alloc > arch.registers_per_sm:
                continue
            if b * shared > arch.shared_mem_per_sm:
                continue
            best = b
            break
        return best

    @given(st.integers(1, 1024), st.integers(0, 300),
           st.integers(0, 64 * 1024))
    @settings(max_examples=120, deadline=None)
    def test_property_matches_brute_force(self, threads, regs, shared):
        for arch in ALL_ARCHS:
            occ = compute_occupancy(arch, threads, regs, shared)
            expect = self._reference_occupancy(arch, threads, regs, shared)
            assert occ.blocks_per_sm == expect
            alloc = -(-threads // arch.warp_size) * arch.warp_size
            assert occ.active_threads == expect * alloc
            assert occ.active_warps == expect * (alloc // arch.warp_size)

    @given(st.integers(1, 1024), st.integers(0, 300),
           st.integers(0, 48 * 1024))
    @settings(max_examples=120, deadline=None)
    def test_property_limiter_is_binding(self, threads, regs, shared):
        for arch in ALL_ARCHS:
            occ = compute_occupancy(arch, threads, regs, shared)
            if occ.limiter == "none" or not occ.blocks_per_sm:
                continue
            alloc = -(-threads // arch.warp_size) * arch.warp_size
            caps = {
                "threads": arch.max_threads_per_sm // alloc,
                "blocks": arch.max_blocks_per_sm,
            }
            if regs:
                caps["registers"] = arch.registers_per_sm // (regs * alloc)
            if shared:
                caps["shared"] = arch.shared_mem_per_sm // shared
            # the named limiter's own cap is the binding one, and the
            # kernel actually consumes that resource
            assert occ.limiter in caps
            assert caps[occ.limiter] == occ.blocks_per_sm
