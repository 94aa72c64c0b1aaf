"""Tests for uniformity, affine, statistics, and shared-memory analyses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (affine_of, depends_on_values, is_uniform_in,
                            kernel_statistics, shared_bytes_per_block)
from repro.dialects import arith, func, memref, polygeist, scf
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import (Builder, F32, FunctionType, INDEX, MemRefType, Module,
                      verify_module)
from repro.targets import linearize_thread_body
from repro.targets.lowering import SYMBOLIC_TRIPS
from repro.transforms.coarsen import block_parallels, thread_parallel


def stride_in(index, variable):
    """Stride of ``index`` w.r.t. ``variable``, or None if unknown.

    The stride rule from fresh calls: the stride is known when
    ``variable`` appears as a plain affine term and none of the other
    symbols transitively depend on ``variable``. The oracle for
    :meth:`repro.analysis.affine.AccessMemo.index_stride`.
    """
    form = affine_of(index)
    for sym in form.terms:
        if sym is not variable and depends_on_values(sym, {variable}):
            return None
    return form.coefficient(variable)


def kernel_ir(source, kernel="k", block=(8,), grid_rank=1):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    gen.get_launch_wrapper(kernel, grid_rank, block)
    verify_module(gen.module)
    wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
    blocks = block_parallels(wrapper)[0]
    threads = thread_parallel(blocks)
    return gen.module, blocks, threads


@pytest.fixture
def builder_ctx():
    module = Module()
    b = Builder(module.body)
    f = func.func(b, "f", FunctionType((INDEX, INDEX), ()), ["a", "b"])
    return module, f, Builder(f.body_block())


class TestAffine:
    def test_linear_combination(self, builder_ctx):
        _, f, b = builder_ctx
        a, v = f.body_block().args
        c4 = arith.index_constant(b, 4)
        expr = arith.addi(b, arith.muli(b, a, c4), v)  # 4a + b
        form = affine_of(expr)
        assert form.coefficient(a) == 4
        assert form.coefficient(v) == 1
        assert form.const == 0

    def test_constants_fold(self, builder_ctx):
        _, f, b = builder_ctx
        c3 = arith.index_constant(b, 3)
        c5 = arith.index_constant(b, 5)
        expr = arith.muli(b, c3, c5)
        assert affine_of(expr).const == 15
        assert affine_of(expr).is_constant

    def test_subtraction_and_shift(self, builder_ctx):
        _, f, b = builder_ctx
        a, v = f.body_block().args
        c2 = arith.index_constant(b, 2)
        shifted = arith.binary(b, "arith.shli", a, c2)  # a * 4
        expr = arith.subi(b, shifted, v)
        form = affine_of(expr)
        assert form.coefficient(a) == 4
        assert form.coefficient(v) == -1

    def test_nonlinear_becomes_symbol(self, builder_ctx):
        _, f, b = builder_ctx
        a, v = f.body_block().args
        product = arith.muli(b, a, v)  # non-affine
        form = affine_of(product)
        assert form.coefficient(product) == 1
        assert len(form.terms) == 1

    def test_stride_in(self, builder_ctx):
        _, f, b = builder_ctx
        a, v = f.body_block().args
        c8 = arith.index_constant(b, 8)
        expr = arith.addi(b, arith.muli(b, v, c8), a)  # a + 8b
        assert stride_in(expr, a) == 1
        assert stride_in(expr, v) == 8

    def test_stride_unknown_when_nested(self, builder_ctx):
        _, f, b = builder_ctx
        a, v = f.body_block().args
        hidden = arith.muli(b, a, v)   # contains `a` opaquely
        expr = arith.addi(b, hidden, a)
        assert stride_in(expr, a) is None

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_property_affine_matches_concrete(self, x, y, k):
        """affine_of must agree with concrete evaluation."""
        module = Module()
        b = Builder(module.body)
        f = func.func(b, "f", FunctionType((INDEX, INDEX), ()), ["a", "b"])
        fb = Builder(f.body_block())
        a, v = f.body_block().args
        ck = arith.index_constant(fb, k)
        c7 = arith.index_constant(fb, 7)
        # expr = (a * k) + (b - 7)
        expr = arith.addi(fb, arith.muli(fb, a, ck), arith.subi(fb, v, c7))
        form = affine_of(expr)
        concrete = form.const + form.coefficient(a) * x + \
            form.coefficient(v) * y
        assert concrete == x * k + (y - 7)


class TestUniformity:
    def test_iv_dependence_detected(self, builder_ctx):
        _, f, b = builder_ctx
        c0 = arith.index_constant(b, 0)
        c8 = arith.index_constant(b, 8)
        c1 = arith.index_constant(b, 1)
        par = scf.parallel(b, [c0], [c8], [c1], gpu_kind="threads")
        pb = Builder(par.body_block())
        iv = par.body_block().arg(0)
        derived = arith.addi(pb, iv, c1)
        unrelated = arith.addi(pb, c1, c1)
        scf.yield_(pb)
        assert not is_uniform_in(derived, [iv])
        assert is_uniform_in(unrelated, [iv])

    def test_function_args_uniform(self, builder_ctx):
        _, f, b = builder_ctx
        a = f.body_block().arg(0)
        c0 = arith.index_constant(b, 0)
        c8 = arith.index_constant(b, 8)
        c1 = arith.index_constant(b, 1)
        par = scf.parallel(b, [c0], [c8], [c1], gpu_kind="blocks")
        iv = par.body_block().arg(0)
        assert is_uniform_in(a, [iv])

    def test_loads_conservative(self, builder_ctx):
        _, f, b = builder_ctx
        buf = memref.alloc(b, MemRefType((8,), F32))
        c0 = arith.index_constant(b, 0)
        c8 = arith.index_constant(b, 8)
        c1 = arith.index_constant(b, 1)
        par = scf.parallel(b, [c0], [c8], [c1], gpu_kind="blocks")
        pb = Builder(par.body_block())
        iv = par.body_block().arg(0)
        loaded = memref.load(pb, buf, [c0])
        scf.yield_(pb)
        assert not is_uniform_in(loaded, [iv])
        assert is_uniform_in(loaded, [iv], loads_are_dependent=False)


    def test_dependence_memo_matches_fresh_calls_through_cycles(
            self, builder_ctx):
        # a <-> b is an operand cycle (malformed IR, but the cycle guard
        # exists for it): a fresh query of b meets a provisional False
        # for a, so a cache shared naively would then answer a wrongly
        from itertools import permutations

        from repro.analysis import depends_on_values
        from repro.analysis.uniformity import DependenceMemo
        from repro.ir import Operation

        _, f, _ = builder_ctx
        tid, other = f.body_block().args
        op_a = Operation("test.a", [other], [INDEX])
        op_b = Operation("test.b", [op_a.result(), tid], [INDEX])
        op_a.set_operand(0, op_b.result())
        op_c = Operation("test.c", [op_a.result()], [INDEX])
        op_d = Operation("test.d", [other], [INDEX])
        values = [op.result() for op in (op_a, op_b, op_c, op_d)]
        fresh = [depends_on_values(v, {tid}) for v in values]
        assert fresh == [True, True, True, False]
        for order in permutations(range(len(values))):
            memo = DependenceMemo([tid])
            for position in order + order:  # repeats hit the memo
                assert memo(values[position]) == fresh[position], order


class TestKernelStats:
    def test_flop_and_access_counting(self):
        source = """
        __global__ void k(float *a, float *b) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            float x = a[i] * 2.0f + 1.0f;
            b[i] = x;
        }
        """
        _, _, threads = kernel_ir(source)
        stats = kernel_statistics(linearize_thread_body(threads))
        assert stats.flops_f32 == 2  # mul + add
        assert stats.loads_global == 1
        assert stats.stores_global == 1
        assert not stats.symbolic

    def test_loop_multiplies_counts(self):
        source = """
        __global__ void k(float *a) {
            float acc = 0.0f;
            for (int j = 0; j < 10; j++) acc += a[j];
            a[threadIdx.x] = acc;
        }
        """
        _, _, threads = kernel_ir(source)
        stats = kernel_statistics(linearize_thread_body(threads))
        assert stats.loads_global == 10
        assert stats.flops_f32 == 10

    def test_symbolic_bounds_flagged(self):
        source = """
        __global__ void k(float *a, int n) {
            float acc = 0.0f;
            for (int j = 0; j < n; j++) acc += a[j];
            a[threadIdx.x] = acc;
        }
        """
        _, _, threads = kernel_ir(source)
        stats = kernel_statistics(linearize_thread_body(threads))
        assert stats.symbolic
        assert stats.loads_global == SYMBOLIC_TRIPS

    def test_shared_accesses_classified(self):
        source = """
        __global__ void k(float *a) {
            __shared__ float s[8];
            s[threadIdx.x] = a[threadIdx.x];
            __syncthreads();
            a[threadIdx.x] = s[7 - threadIdx.x];
        }
        """
        _, _, threads = kernel_ir(source)
        stats = kernel_statistics(linearize_thread_body(threads))
        assert stats.loads_shared == 1
        assert stats.stores_shared == 1
        assert stats.loads_global == 1
        assert stats.stores_global == 1
        assert stats.barriers == 1

    def test_branches_counted(self):
        source = """
        __global__ void k(float *a, int n) {
            int i = threadIdx.x;
            if (i < n) a[i] = 1.0f; else a[i] = 2.0f;
        }
        """
        _, _, threads = kernel_ir(source)
        stats = kernel_statistics(linearize_thread_body(threads))
        assert stats.branches == 1
        # each side at half weight
        assert stats.stores_global == 1


class TestSharedBytes:
    def test_static_accounting(self):
        source = """
        __global__ void k(float *a) {
            __shared__ float s1[16][16];
            __shared__ double s2[8];
            s1[threadIdx.x][0] = 0.0f;
            s2[0] = 0.0;
            a[threadIdx.x] = s1[0][0] + (float)s2[0];
        }
        """
        _, blocks, _ = kernel_ir(source, block=(16,))
        assert shared_bytes_per_block(blocks) == 16 * 16 * 4 + 8 * 8

    def test_block_coarsening_doubles_shared(self):
        source = """
        __global__ void k(float *a) {
            __shared__ float s[32];
            s[threadIdx.x] = 1.0f;
            a[threadIdx.x] = s[threadIdx.x];
        }
        """
        module, blocks, _ = kernel_ir(source, block=(8,))
        from repro.transforms import block_coarsen
        wrapper = polygeist.find_gpu_wrappers(module.op)[0]
        block_coarsen(wrapper, (4,))
        main = block_parallels(wrapper, include_epilogues=False)[0]
        assert shared_bytes_per_block(main) == 4 * 32 * 4

    def test_thread_loop_allocas_come_from_the_stream(self):
        # no benchsuite kernel allocates shared memory inside its thread
        # loop; given the loop's stream, the walk skips the loop's body
        from repro.transforms.alternatives import _shared_alloca_split
        source = """
        __global__ void k(float *a) {
            __shared__ float s[32];
            s[threadIdx.x] = 1.0f;
            a[threadIdx.x] = s[threadIdx.x];
        }
        """
        _, blocks, threads = kernel_ir(source)
        memref.alloca(Builder(threads.body_block(), 0),
                      MemRefType((4, 4), F32, "shared"))
        lin = linearize_thread_body(threads)
        assert len(lin.shared_allocas) == 1
        assert shared_bytes_per_block(blocks, lin) == \
            shared_bytes_per_block(blocks) == 32 * 4 + 16 * 4
        assert _shared_alloca_split(blocks) == (32 * 4, 16 * 4)
