"""Tests for unroll-and-interleave and thread/block coarsening.

The key property (the paper's §VII-A methodology): a coarsened kernel must
produce *bit-identical* output to the original.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import polygeist, scf
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.interpreter import MemoryBuffer, run_module
from repro.ir import F32, INDEX, verify_module
from repro.transforms import (CoarsenError, IllegalUnroll, balance_factors,
                              block_coarsen, coarsen_wrapper,
                              check_unroll_legality, thread_coarsen,
                              unroll_and_interleave)
from repro.transforms.coarsen import block_parallels, thread_parallel


def compile_wrapper(source, kernel, grid_rank=1, block=(8,)):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    wrapper_name = gen.get_launch_wrapper(kernel, grid_rank, block)
    verify_module(gen.module)
    wrappers = polygeist.find_gpu_wrappers(gen.module.op)
    return gen.module, wrapper_name, wrappers[0]


SHARED_KERNEL = """
__global__ void k(float *in, float *out) {
    __shared__ float tile[8];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    tile[t] = in[g] * 2.0f;
    __syncthreads();
    out[g] = tile[7 - t] + 1.0f;
}
"""

LOOP_BARRIER_KERNEL = """
__global__ void k(float *data) {
    __shared__ float s[8];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    s[t] = data[g];
    for (int it = 0; it < 3; it++) {
        int step = 1 << it;
        __syncthreads();
        float v = 0.0f;
        if (t >= step) {
            v = s[t - step];
        }
        __syncthreads();
        s[t] = s[t] + v;
    }
    data[g] = s[t];
}
"""

BLOCK_DIVERGENT_KERNEL = """
__global__ void k(float *data) {
    __shared__ float s[8];
    int t = threadIdx.x;
    if (blockIdx.x > 0) {
        s[t] = data[t];
        __syncthreads();
        data[blockIdx.x * 8 + t] = s[7 - t];
    }
}
"""


def run_both(source, kernel, grid, block, make_args, coarsen):
    """Run original and coarsened kernels; return (original, coarsened)."""
    module1, name1, _ = compile_wrapper(source, kernel, len(grid), block)
    args1 = make_args()
    run_module(module1, name1, list(grid) + args1)

    module2, name2, wrapper2 = compile_wrapper(source, kernel, len(grid),
                                               block)
    coarsen(wrapper2)
    verify_module(module2)
    args2 = make_args()
    run_module(module2, name2, list(grid) + args2)
    return args1, args2


class TestThreadCoarsening:
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_shared_kernel_equivalence(self, factor):
        def make_args():
            rng = np.random.default_rng(42)
            data = rng.random(32, dtype=np.float32)
            return [MemoryBuffer((32,), F32, data=data),
                    MemoryBuffer((32,), F32)]

        args1, args2 = run_both(
            SHARED_KERNEL, "k", (4,), (8,), make_args,
            lambda w: thread_coarsen(w, (factor,)))
        np.testing.assert_array_equal(args1[1].array, args2[1].array)

    @pytest.mark.parametrize("factor", [2, 4])
    def test_loop_barrier_equivalence(self, factor):
        """Barriers inside an scf.for must be jam-merged correctly."""
        def make_args():
            rng = np.random.default_rng(7)
            return [MemoryBuffer((16,), F32,
                                 data=rng.random(16, dtype=np.float32))]

        args1, args2 = run_both(
            LOOP_BARRIER_KERNEL, "k", (2,), (8,), make_args,
            lambda w: thread_coarsen(w, (factor,)))
        np.testing.assert_array_equal(args1[0].array, args2[0].array)

    def test_barrier_count_reduced_not_duplicated(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        before = len(module.op.ops_matching("polygeist.barrier"))
        thread_coarsen(wrapper, (4,))
        after = len(module.op.ops_matching("polygeist.barrier"))
        assert before == after == 1  # merged, never duplicated

    def test_block_extent_shrinks(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        thread_coarsen(wrapper, (2,))
        threads = thread_parallel(block_parallels(wrapper)[0])
        from repro.dialects import arith
        ub = scf.parallel_upper_bounds(threads)[0]
        assert arith.constant_value(ub) == 4

    def test_non_divisor_factor_rejected(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        with pytest.raises(CoarsenError):
            thread_coarsen(wrapper, (3,))

    def test_factor_exceeding_block_rejected(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        with pytest.raises(CoarsenError):
            thread_coarsen(wrapper, (16,))

    def test_2d_thread_coarsening(self):
        source = """
        __global__ void k(float *out) {
            int x = threadIdx.x, y = threadIdx.y;
            out[(blockIdx.x * 4 + y) * 4 + x] = x * 10.0f + y;
        }
        """
        def coarsen(w):
            thread_coarsen(w, (2, 2))

        def make_args():
            return [MemoryBuffer((32,), F32)]

        args1, args2 = run_both(source, "k", (2,), (4, 4), make_args,
                                coarsen)
        np.testing.assert_array_equal(args1[0].array, args2[0].array)


class TestBlockCoarsening:
    @pytest.mark.parametrize("factor", [2, 4])
    def test_divisor_factor_equivalence(self, factor):
        def make_args():
            rng = np.random.default_rng(1)
            data = rng.random(32, dtype=np.float32)
            return [MemoryBuffer((32,), F32, data=data),
                    MemoryBuffer((32,), F32)]

        args1, args2 = run_both(
            SHARED_KERNEL, "k", (4,), (8,), make_args,
            lambda w: block_coarsen(w, (factor,)))
        np.testing.assert_array_equal(args1[1].array, args2[1].array)

    @pytest.mark.parametrize("factor", [3, 5, 7])
    def test_non_divisor_factor_with_epilogue(self, factor):
        """Block coarsening accepts ANY factor via epilogue kernels (§V-C)."""
        def make_args():
            rng = np.random.default_rng(3)
            data = rng.random(64, dtype=np.float32)
            return [MemoryBuffer((64,), F32, data=data),
                    MemoryBuffer((64,), F32)]

        args1, args2 = run_both(
            SHARED_KERNEL, "k", (8,), (8,), make_args,
            lambda w: block_coarsen(w, (factor,)))
        np.testing.assert_array_equal(args1[1].array, args2[1].array)

    def test_epilogue_created_for_non_divisor(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        result = block_coarsen(wrapper, (3,))
        assert result.epilogues == 1
        loops = block_parallels(wrapper)
        assert len(loops) == 2
        assert loops[1].attr("coarsen.epilogue")

    def test_dynamic_grid_epilogue_is_empty_for_divisor(self):
        """Grid sizes are runtime values, so an epilogue is always emitted;
        for divisor factors it must execute zero blocks (§V-C)."""
        def make_args():
            data = np.arange(32, dtype=np.float32)
            return [MemoryBuffer((32,), F32, data=data),
                    MemoryBuffer((32,), F32)]

        args1, args2 = run_both(
            SHARED_KERNEL, "k", (4,), (8,), make_args,
            lambda w: block_coarsen(w, (2,)))
        np.testing.assert_array_equal(args1[1].array, args2[1].array)

    def test_shared_memory_duplicated(self):
        """Block coarsening combines shared allocations (§V-C)."""
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        block_coarsen(wrapper, (2,))
        from repro.analysis import shared_bytes_per_block
        main = block_parallels(wrapper)[0]
        assert shared_bytes_per_block(main) == 2 * 8 * 4

    def test_barrier_merged_across_blocks(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        block_coarsen(wrapper, (2,))
        main = block_parallels(wrapper)[0]
        assert len(main.ops_matching("polygeist.barrier")) == 1

    def test_block_divergent_barrier_rejected(self):
        """Fig. 10 right: duplicating a barrier is illegal."""
        module, name, wrapper = compile_wrapper(BLOCK_DIVERGENT_KERNEL, "k")
        with pytest.raises(CoarsenError):
            block_coarsen(wrapper, (2,))

    def test_thread_coarsening_of_divergent_blocks_ok(self):
        """The same kernel CAN be thread coarsened (convergence)."""
        module, name, wrapper = compile_wrapper(BLOCK_DIVERGENT_KERNEL, "k")
        thread_coarsen(wrapper, (2,))  # must not raise

    def test_loop_barrier_block_coarsening(self):
        def make_args():
            rng = np.random.default_rng(9)
            return [MemoryBuffer((32,), F32,
                                 data=rng.random(32, dtype=np.float32))]

        args1, args2 = run_both(
            LOOP_BARRIER_KERNEL, "k", (4,), (8,), make_args,
            lambda w: block_coarsen(w, (2,)))
        np.testing.assert_array_equal(args1[0].array, args2[0].array)


class TestCombinedCoarsening:
    @pytest.mark.parametrize("block_f,thread_f", [(2, 2), (3, 4), (2, 8)])
    def test_combined_equivalence(self, block_f, thread_f):
        def make_args():
            rng = np.random.default_rng(11)
            data = rng.random(64, dtype=np.float32)
            return [MemoryBuffer((64,), F32, data=data),
                    MemoryBuffer((64,), F32)]

        args1, args2 = run_both(
            SHARED_KERNEL, "k", (8,), (8,), make_args,
            lambda w: coarsen_wrapper(w, block_factors=(block_f,),
                                      thread_factors=(thread_f,)))
        np.testing.assert_array_equal(args1[1].array, args2[1].array)

    def test_totals_balanced(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        result = coarsen_wrapper(wrapper, block_total=2, thread_total=4)
        assert result.total_block == 2
        assert result.total_thread == 4

    def test_epilogue_also_thread_coarsened(self):
        module, name, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        coarsen_wrapper(wrapper, block_factors=(3,), thread_factors=(2,))
        for block_loop in block_parallels(wrapper):
            threads = thread_parallel(block_loop)
            from repro.dialects import arith
            ub = scf.parallel_upper_bounds(threads)[0]
            assert arith.constant_value(ub) == 4


def _statements(block):
    """The ops of ``block`` that unroll-and-interleave replicates: all
    but terminators, barriers and (jammed) nested control flow."""
    return [op for op in block.ops
            if op.name not in ("scf.yield", "polygeist.barrier")
            and not op.regions]


def _contains(ops, op):
    return any(candidate is op for candidate in ops)


class TestCopyZeroIsMoved:
    """Copy 0 of every statement is the source op itself, moved into the
    new loop; only copies 1..f-1 are clones. A revert to
    clone-everything-then-erase fails here, not only in the bench."""

    def test_thread_unroll_moves_source_statements(self):
        module, _, wrapper = compile_wrapper(LOOP_BARRIER_KERNEL, "k")
        threads = thread_parallel(block_parallels(wrapper)[0])
        top = _statements(threads.body_block())
        old_for, = [op for op in threads.body_block().ops
                    if op.name == "scf.for"]
        inner = _statements(old_for.body_block())
        new_threads, _ = unroll_and_interleave(threads, 0, 2, "thread")
        new_body = new_threads.body_block()
        for op in top:
            assert op.parent is new_body and _contains(new_body.ops, op)
        new_for, = [op for op in new_body.ops if op.name == "scf.for"]
        assert new_for is not old_for
        for op in inner:
            assert op.parent is new_for.body_block()
        # one clone per statement beside the moved original
        names = [op.name for op in _statements(new_for.body_block())]
        assert sorted(names) == sorted([op.name for op in inner] * 2)
        # the erased shell is empty and nothing still uses it
        assert threads.regions == [] and old_for.regions == []
        assert old_for.results == [] and old_for.num_operands == 0
        verify_module(module)

    def test_block_unroll_epilogue_is_a_clone(self):
        module, _, wrapper = compile_wrapper(SHARED_KERNEL, "k")
        main, = block_parallels(wrapper)
        source = _statements(main.body_block())
        new_main, epilogue = unroll_and_interleave(main, 0, 3, "block")
        assert epilogue is not None
        for op in source:
            assert op.parent is new_main.body_block()
            assert not _contains(epilogue.body_block().ops, op)
        assert len(_statements(epilogue.body_block())) == len(source)
        verify_module(module)


class TestBalanceFactors:
    def test_paper_footnote_examples(self):
        # "for a total factor of 16, we will coarsen the 3 dimensions with
        #  4, 2, and 2 respectively, whereas for 6 we will coarsen with
        #  3, 2, and 1"
        assert balance_factors(16, [64, 64, 64]) == [4, 2, 2]
        assert balance_factors(6, [64, 64, 64]) == [3, 2, 1]

    def test_size_one_dims_skipped(self):
        assert balance_factors(4, [64, 1, 1]) == [4, 1, 1]
        assert balance_factors(4, [1, 64, 1]) == [1, 4, 1]

    def test_divisibility_respected(self):
        # extent 8 and 6: factor 4 can't go on the 6 side twice
        factors = balance_factors(4, [8, 6], require_divisors=True)
        assert factors[0] * factors[1] == 4
        assert 8 % factors[0] == 0 and 6 % factors[1] == 0

    def test_unplaceable_primes_dropped(self):
        factors = balance_factors(5, [8, 8], require_divisors=True)
        assert factors == [1, 1]  # 5 divides neither extent

    def test_product_preserved_without_divisor_constraint(self):
        for total in [2, 3, 4, 6, 8, 12, 16, 32]:
            factors = balance_factors(total, [None, None, None])
            product = factors[0] * factors[1] * factors[2]
            assert product == total


class TestLegalityAnalysis:
    def test_block_divergent_detected(self):
        module, name, wrapper = compile_wrapper(BLOCK_DIVERGENT_KERNEL, "k")
        blocks = block_parallels(wrapper)[0]
        reason = check_unroll_legality(blocks)
        assert reason is not None
        assert "scf.if" in reason

    def test_uniform_control_flow_legal(self):
        module, name, wrapper = compile_wrapper(LOOP_BARRIER_KERNEL, "k")
        blocks = block_parallels(wrapper)[0]
        assert check_unroll_legality(blocks) is None

    def test_trust_convergence_bypasses_uniformity(self):
        module, name, wrapper = compile_wrapper(BLOCK_DIVERGENT_KERNEL, "k")
        threads = thread_parallel(block_parallels(wrapper)[0])
        assert check_unroll_legality(threads, trust_convergence=True) is None


@st.composite
def coarsening_config(draw):
    block_f = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    thread_f = draw(st.sampled_from([1, 2, 4, 8]))
    return block_f, thread_f


@given(coarsening_config())
@settings(max_examples=12, deadline=None)
def test_property_combined_coarsening_equivalence(config):
    """Any (block, thread) coarsening pair preserves kernel output."""
    block_f, thread_f = config

    def make_args():
        rng = np.random.default_rng(123)
        data = rng.random(64, dtype=np.float32)
        return [MemoryBuffer((64,), F32, data=data),
                MemoryBuffer((64,), F32)]

    args1, args2 = run_both(
        SHARED_KERNEL, "k", (8,), (8,), make_args,
        lambda w: coarsen_wrapper(w, block_factors=(block_f,),
                                  thread_factors=(thread_f,)))
    np.testing.assert_array_equal(args1[1].array, args2[1].array)
