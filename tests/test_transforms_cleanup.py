"""Tests for canonicalize, CSE, DCE, LICM, and barrier elimination."""

import numpy as np
import pytest

from repro.dialects import arith, func, memref, polygeist, scf
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.interpreter import MemoryBuffer, run_module
from repro.ir import (Builder, F32, FunctionType, INDEX, MemRefType, Module,
                      verify_module)
from repro.transforms import run_cleanup, run_rewrites


def count_ops(root, name):
    return len(root.ops_matching(name))


def compile_kernel(source, kernel, grid_rank=1, block=(8,)):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    wrapper = gen.get_launch_wrapper(kernel, grid_rank, block)
    verify_module(gen.module)
    return gen.module, wrapper


@pytest.fixture
def simple_func():
    module = Module()
    builder = Builder(module.body)
    f = func.func(builder, "f", FunctionType((INDEX,), ()), ["n"])
    return module, f, Builder(f.body_block())


class TestCanonicalize:
    def test_constant_folding(self, simple_func):
        module, f, b = simple_func
        x = arith.index_constant(b, 6)
        y = arith.index_constant(b, 7)
        product = arith.muli(b, x, y)
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, product, buf, [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("canonicalize",))
        verify_module(module)
        store = module.op.ops_matching("memref.store")[0]
        assert arith.constant_value(store.operand(0)) == 42

    def test_identities(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        zero = arith.index_constant(b, 0)
        one = arith.index_constant(b, 1)
        v1 = arith.addi(b, n, zero)
        v2 = arith.muli(b, v1, one)
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, v2, buf, [zero])
        func.return_(b)
        run_rewrites(module, ("canonicalize",))
        run_rewrites(module, ("dce",))
        verify_module(module)
        store = module.op.ops_matching("memref.store")[0]
        assert store.operand(0) is n

    def test_static_if_inlined(self, simple_func):
        module, f, b = simple_func
        from repro.ir import I1
        cond = arith.constant(b, 1, I1)
        if_op = scf.if_(b, cond, [INDEX])
        tb = Builder(scf.if_then_block(if_op))
        scf.yield_(tb, [arith.index_constant(tb, 5)])
        eb = Builder(scf.if_else_block(if_op))
        scf.yield_(eb, [arith.index_constant(eb, 6)])
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, if_op.result(), buf, [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("canonicalize",))
        verify_module(module)
        assert count_ops(module.op, "scf.if") == 0
        store = module.op.ops_matching("memref.store")[0]
        assert arith.constant_value(store.operand(0)) == 5

    def test_division_folds(self, simple_func):
        module, f, b = simple_func
        a = arith.index_constant(b, -7)
        two = arith.index_constant(b, 2)
        q = arith.divsi(b, a, two)
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, q, buf, [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("canonicalize",))
        store = module.op.ops_matching("memref.store")[0]
        assert arith.constant_value(store.operand(0)) == -3  # C semantics


class TestCSE:
    def test_duplicate_constants_merged(self, simple_func):
        module, f, b = simple_func
        a = arith.index_constant(b, 5)
        c = arith.index_constant(b, 5)
        s = arith.addi(b, a, c)
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, s, buf, [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("cse",))
        run_rewrites(module, ("dce",))
        constants = [op for op in module.op.ops_matching("arith.constant")
                     if op.attr("value") == 5]
        assert len(constants) == 1

    def test_outer_value_reused_in_region(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        outer = arith.addi(b, n, n)
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        loop = scf.for_(b, c0, c1, c1)
        lb = Builder(loop.body_block())
        inner = arith.addi(lb, n, n)  # same computation inside the loop
        memref.store(lb, inner, buf, [arith.index_constant(lb, 0)])
        scf.yield_(lb)
        func.return_(b)
        verify_module(module)
        run_rewrites(module, ("cse",))
        verify_module(module)
        store = module.op.ops_matching("memref.store")[0]
        assert store.operand(0) is outer

    def test_loads_not_csed(self, simple_func):
        module, f, b = simple_func
        buf = memref.alloc(b, MemRefType((4,), F32))
        c0 = arith.index_constant(b, 0)
        v1 = memref.load(b, buf, [c0])
        v2 = memref.load(b, buf, [c0])
        s = arith.addf(b, v1, v2)
        memref.store(b, s, buf, [c0])
        func.return_(b)
        run_rewrites(module, ("cse",))
        assert count_ops(module.op, "memref.load") == 2


class TestDCE:
    def test_unused_pure_removed(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        arith.addi(b, n, n)  # dead
        func.return_(b)
        assert run_rewrites(module, ("dce",))
        assert count_ops(module.op, "arith.addi") == 0

    def test_dead_chain_removed(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        a = arith.addi(b, n, n)
        arith.muli(b, a, a)  # dead; makes `a` dead too
        func.return_(b)
        run_rewrites(module, ("dce",))
        assert count_ops(module.op, "arith.addi") == 0
        assert count_ops(module.op, "arith.muli") == 0

    def test_store_kept(self, simple_func):
        module, f, b = simple_func
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, f.body_block().arg(0), buf,
                     [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("dce",))
        assert count_ops(module.op, "memref.store") == 1

    def test_unused_load_removed(self, simple_func):
        module, f, b = simple_func
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, f.body_block().arg(0), buf,
                     [arith.index_constant(b, 0)])
        memref.load(b, buf, [arith.index_constant(b, 0)])  # dead
        func.return_(b)
        run_rewrites(module, ("dce",))
        assert count_ops(module.op, "memref.load") == 0


class TestLICM:
    def test_invariant_arith_hoisted(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        c0 = arith.index_constant(b, 0)
        c8 = arith.index_constant(b, 8)
        c1 = arith.index_constant(b, 1)
        buf = memref.alloc(b, MemRefType((8,), INDEX))
        loop = scf.for_(b, c0, c8, c1)
        lb = Builder(loop.body_block())
        invariant = arith.addi(lb, n, n)
        iv = loop.body_block().arg(0)
        memref.store(lb, invariant, buf, [iv])
        scf.yield_(lb)
        func.return_(b)
        assert run_rewrites(module, ("licm",))
        verify_module(module)
        assert invariant.owner.parent is f.body_block()

    def test_shared_load_hoisted_when_not_written(self):
        """The lavaMD pattern: shared-memory load inside a compute loop."""
        source = """
        __global__ void k(float *out) {
            __shared__ float s[4];
            s[threadIdx.x % 4] = threadIdx.x % 4;
            __syncthreads();
            float acc = 0.0f;
            for (int i = 0; i < 16; i++) {
                acc += s[1] * i;
            }
            out[threadIdx.x] = acc;
        }
        """
        module, wrapper = compile_kernel(source, "k")
        run_cleanup(module)
        verify_module(module)
        # the s[1] load must have left the loop body
        loop = module.op.ops_matching("scf.for")[0]
        loads_in_loop = loop.ops_matching("memref.load")
        assert not loads_in_loop
        out = MemoryBuffer((8,), F32)
        run_module(module, wrapper, [1, out])
        expected = np.full(8, 1.0 * sum(range(16)), dtype=np.float32)
        np.testing.assert_array_equal(out.array, expected)

    def test_load_not_hoisted_when_buffer_written(self, simple_func):
        module, f, b = simple_func
        c0 = arith.index_constant(b, 0)
        c8 = arith.index_constant(b, 8)
        c1 = arith.index_constant(b, 1)
        buf = memref.alloc(b, MemRefType((8,), F32))
        loop = scf.for_(b, c0, c8, c1)
        lb = Builder(loop.body_block())
        iv = loop.body_block().arg(0)
        v = memref.load(lb, buf, [c0])
        memref.store(lb, v, buf, [iv])
        scf.yield_(lb)
        func.return_(b)
        run_rewrites(module, ("licm",))
        assert v.owner.parent is loop.body_block()

    def test_division_not_speculated(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        buf = memref.alloc(b, MemRefType((8,), INDEX))
        # zero-trip-count possible: bounds are (0, n)
        loop = scf.for_(b, c0, n, c1)
        lb = Builder(loop.body_block())
        c10 = arith.index_constant(lb, 10)
        q = arith.divsi(lb, c10, n)  # n might be 0; must not speculate
        memref.store(lb, q, buf, [loop.body_block().arg(0)])
        scf.yield_(lb)
        func.return_(b)
        run_rewrites(module, ("licm",))
        assert q.owner.parent is loop.body_block()


class TestBarrierElimination:
    def test_adjacent_barriers_merged(self):
        source = """
        __global__ void k(float *out) {
            __shared__ float s[8];
            s[threadIdx.x] = 1.0f;
            __syncthreads();
            __syncthreads();
            out[threadIdx.x] = s[7 - threadIdx.x];
        }
        """
        module, wrapper = compile_kernel(source, "k")
        assert len(module.op.ops_matching("polygeist.barrier")) == 2
        run_rewrites(module, ("barrier-elim",))
        verify_module(module)
        assert len(module.op.ops_matching("polygeist.barrier")) == 1
        out = MemoryBuffer((8,), F32)
        run_module(module, wrapper, [1, out])
        assert (out.array == 1.0).all()

    def test_leading_and_trailing_barriers_removed(self):
        source = """
        __global__ void k(float *out) {
            __syncthreads();
            out[threadIdx.x] = 2.0f;
            __syncthreads();
        }
        """
        module, wrapper = compile_kernel(source, "k")
        run_rewrites(module, ("barrier-elim",))
        assert len(module.op.ops_matching("polygeist.barrier")) == 0

    def test_needed_barrier_kept(self):
        source = """
        __global__ void k(float *out) {
            __shared__ float s[8];
            s[threadIdx.x] = threadIdx.x;
            __syncthreads();
            out[threadIdx.x] = s[7 - threadIdx.x];
        }
        """
        module, wrapper = compile_kernel(source, "k")
        run_rewrites(module, ("barrier-elim",))
        assert len(module.op.ops_matching("polygeist.barrier")) == 1


class TestEndToEndCleanup:
    def test_cleanup_preserves_semantics(self):
        source = """
        __global__ void k(float *out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i >= n) return;
            float v = 0.0f;
            for (int j = 0; j < 4; j++) {
                v += (i + 0) * 1 * j;
            }
            out[i] = v;
        }
        """
        module, wrapper = compile_kernel(source, "k")
        out1 = MemoryBuffer((16,), F32)
        run_module(module, wrapper, [2, out1, 16])
        run_cleanup(module)
        verify_module(module)
        out2 = MemoryBuffer((16,), F32)
        run_module(module, wrapper, [2, out2, 16])
        np.testing.assert_array_equal(out1.array, out2.array)

    def test_cleanup_reduces_op_count(self):
        source = """
        __global__ void k(float *out) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = (i + 0) * 1 + 2 * 3;
        }
        """
        module, wrapper = compile_kernel(source, "k")
        before = []
        module.op.walk(lambda op: before.append(op))
        run_cleanup(module)
        after = []
        module.op.walk(lambda op: after.append(op))
        assert len(after) < len(before)


class TestDivModRecompose:
    def test_pattern_folds_to_source(self, simple_func):
        """(x / y) * y + x % y == x with C division semantics."""
        module, f, b = simple_func
        n = f.body_block().arg(0)
        x = arith.addi(b, n, arith.index_constant(b, 5))
        q = arith.divsi(b, x, n)
        r = arith.remsi(b, x, n)
        recomposed = arith.addi(b, arith.muli(b, q, n), r)
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, recomposed, buf, [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("canonicalize",))
        store = module.op.ops_matching("memref.store")[0]
        assert store.operand(0) is x

    def test_commuted_order_also_folds(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        x = arith.addi(b, n, n)
        q = arith.divsi(b, x, n)
        r = arith.remsi(b, x, n)
        recomposed = arith.addi(b, r, arith.muli(b, n, q))
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, recomposed, buf, [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("canonicalize",))
        store = module.op.ops_matching("memref.store")[0]
        assert store.operand(0) is x

    def test_mismatched_divisor_kept(self, simple_func):
        module, f, b = simple_func
        n = f.body_block().arg(0)
        m = arith.addi(b, n, arith.index_constant(b, 1))
        x = arith.addi(b, n, n)
        q = arith.divsi(b, x, n)
        r = arith.remsi(b, x, m)  # different modulus: NOT recomposable
        v = arith.addi(b, arith.muli(b, q, n), r)
        buf = memref.alloc(b, MemRefType((1,), INDEX))
        memref.store(b, v, buf, [arith.index_constant(b, 0)])
        func.return_(b)
        run_rewrites(module, ("canonicalize",))
        store = module.op.ops_matching("memref.store")[0]
        assert store.operand(0) is v

    def test_srad_indexing_becomes_coalesced(self):
        """The srad row/col idiom must model as stride-1 after cleanup."""
        source = """
        __global__ void k(float *image, float *out, int nr, int nc) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i >= nr * nc) return;
            int row = i / nc;
            int col = i % nc;
            out[i] = image[row * nc + col];
        }
        """
        from repro.simulator import analyze_coalescing
        from repro.simulator.coalescing import AccessMemo
        from repro.targets import linearize_thread_body
        from repro.transforms.coarsen import block_parallels, \
            thread_parallel
        module, wrapper = compile_kernel(source, "k", block=(256,))
        run_cleanup(module)
        from repro.dialects import polygeist as pg
        w = pg.find_gpu_wrappers(module.op)[0]
        threads = thread_parallel(block_parallels(w)[0])
        accesses = analyze_coalescing(linearize_thread_body(threads),
                                      AccessMemo(threads), warp_size=32)
        load = [a for a in accesses if not a.is_store][0]
        assert load.stride_x == 1, "div/mod recomposition must fire"
