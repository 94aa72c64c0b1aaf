"""Interpreter tests: arithmetic, control flow, and GPU barrier semantics."""

import numpy as np
import pytest

from repro.dialects import arith, func, math, memref, polygeist, scf
from repro.interpreter import (ConvergenceError, Interpreter,
                               InterpreterError, MemoryBuffer, Tracer,
                               run_module)
from repro.ir import (Builder, F32, F64, FunctionType, I1, I32, INDEX,
                      MemRefType, Module, verify_module)


def new_func(module, name, inputs, arg_names=()):
    builder = Builder(module.body)
    f = func.func(builder, name, FunctionType(tuple(inputs), ()), arg_names)
    return f, Builder(f.body_block())


class TestScalars:
    def test_integer_arithmetic(self):
        module = Module()
        f, b = new_func(module, "main", (INDEX,), ["out"])
        # compute ((7*3) - 5) / 2 == 8 into nothing; check via buffer
        buf_type = MemRefType((1,), INDEX)
        builder = b
        c7 = arith.index_constant(builder, 7)
        c3 = arith.index_constant(builder, 3)
        c5 = arith.index_constant(builder, 5)
        c2 = arith.index_constant(builder, 2)
        c0 = arith.index_constant(builder, 0)
        v = arith.divsi(builder, arith.subi(
            builder, arith.muli(builder, c7, c3), c5), c2)
        buf = memref.alloc(builder, buf_type)
        memref.store(builder, v, buf, [c0])
        func.return_(builder)
        verify_module(module)
        # host arg is unused; pass 0
        interp = Interpreter(module)
        interp.run_func("main", [0])

    def test_c_style_division(self):
        # -7 / 2 must be -3 (truncation), not -4 (floor)
        from repro.interpreter.interp import _trunc_div, _trunc_rem
        assert _trunc_div(-7, 2) == -3
        assert _trunc_rem(-7, 2) == -1
        assert _trunc_div(7, -2) == -3
        assert _trunc_div(7, 2) == 3
        with pytest.raises(InterpreterError):
            _trunc_div(1, 0)

    def test_float32_precision(self):
        """f32 arithmetic must round like numpy float32 (for correctness
        comparisons against CPU references)."""
        module = Module()
        f, b = new_func(module, "main", (MemRefType((1,), F32),), ["out"])
        x = arith.constant(b, 0.1, F32)
        y = arith.constant(b, 0.2, F32)
        z = arith.addf(b, x, y)
        c0 = arith.index_constant(b, 0)
        memref.store(b, z, f.body_block().arg(0), [c0])
        func.return_(b)
        out = MemoryBuffer((1,), F32)
        run_module(module, "main", [out])
        expected = np.float32(0.1) + np.float32(0.2)
        assert out.array[0] == expected

    def test_math_ops(self):
        module = Module()
        f, b = new_func(module, "main", (MemRefType((2,), F32),), ["out"])
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        x = arith.constant(b, 4.0, F32)
        memref.store(b, math.sqrt(b, x), f.body_block().arg(0), [c0])
        memref.store(b, math.exp(b, arith.constant(b, 0.0, F32)),
                     f.body_block().arg(0), [c1])
        func.return_(b)
        out = MemoryBuffer((2,), F32)
        run_module(module, "main", [out])
        assert out.array[0] == 2.0
        assert out.array[1] == 1.0


class TestControlFlow:
    def _sum_loop_module(self):
        """for i in [0, n): acc += i; out[0] = acc"""
        module = Module()
        f, b = new_func(module, "main",
                        (INDEX, MemRefType((1,), INDEX)), ["n", "out"])
        n, out = f.body_block().args
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        loop = scf.build_for(
            b, c0, n, c1, [c0],
            lambda bb, iv, iters: [arith.addi(bb, iters[0], iv)])
        memref.store(b, loop.result(), out, [c0])
        func.return_(b)
        verify_module(module)
        return module

    def test_for_with_iter_args(self):
        module = self._sum_loop_module()
        out = MemoryBuffer((1,), INDEX)
        run_module(module, "main", [10, out])
        assert out.array[0] == 45

    def test_for_zero_trip(self):
        module = self._sum_loop_module()
        out = MemoryBuffer((1,), INDEX)
        run_module(module, "main", [0, out])
        assert out.array[0] == 0

    def test_if_results(self):
        module = Module()
        f, b = new_func(module, "main",
                        (INDEX, MemRefType((1,), INDEX)), ["n", "out"])
        n, out = f.body_block().args
        c5 = arith.index_constant(b, 5)
        c0 = arith.index_constant(b, 0)
        cond = arith.cmpi(b, "lt", n, c5)
        if_op = scf.if_(b, cond, [INDEX])
        tb = Builder(scf.if_then_block(if_op))
        scf.yield_(tb, [arith.index_constant(tb, 100)])
        eb = Builder(scf.if_else_block(if_op))
        scf.yield_(eb, [arith.index_constant(eb, 200)])
        memref.store(b, if_op.result(), out, [c0])
        func.return_(b)
        verify_module(module)
        out_buf = MemoryBuffer((1,), INDEX)
        run_module(module, "main", [3, out_buf])
        assert out_buf.array[0] == 100
        run_module(module, "main", [7, out_buf])
        assert out_buf.array[0] == 200

    def test_while_loop(self):
        # while (x < 100) x *= 2   with x starting at n
        module = Module()
        f, b = new_func(module, "main",
                        (INDEX, MemRefType((1,), INDEX)), ["n", "out"])
        n, out = f.body_block().args
        c0 = arith.index_constant(b, 0)
        c100 = arith.index_constant(b, 100)
        c2 = arith.index_constant(b, 2)
        w = scf.while_(b, [n], [INDEX])
        before = Builder(w.body_block(0))
        x = w.body_block(0).arg(0)
        cond = arith.cmpi(before, "lt", x, c100)
        scf.condition(before, cond, [x])
        after = Builder(w.body_block(1))
        x2 = w.body_block(1).arg(0)
        scf.yield_(after, [arith.muli(after, x2, c2)])
        memref.store(b, w.result(), out, [c0])
        func.return_(b)
        verify_module(module)
        out_buf = MemoryBuffer((1,), INDEX)
        run_module(module, "main", [3, out_buf])
        assert out_buf.array[0] == 192  # 3,6,12,24,48,96,192

    def test_call(self):
        module = Module()
        g, gb = new_func(module, "store42", (MemRefType((1,), INDEX),),
                         ["out"])
        c0 = arith.index_constant(gb, 0)
        memref.store(gb, arith.index_constant(gb, 42),
                     g.body_block().arg(0), [c0])
        func.return_(gb)
        f, fb = new_func(module, "main", (MemRefType((1,), INDEX),), ["out"])
        func.call(fb, "store42", [f.body_block().arg(0)], [])
        func.return_(fb)
        verify_module(module)
        out = MemoryBuffer((1,), INDEX)
        run_module(module, "main", [out])
        assert out.array[0] == 42


def build_gpu_kernel(body_fn, num_threads=8, num_blocks=2,
                     out_shape=(16,), out_elem=F32):
    """Scaffold: main(out) { wrapper { parallel blocks { parallel threads
    { body_fn } } } }."""
    module = Module()
    f, b = new_func(Module() if False else module, "main",
                    (MemRefType(out_shape, out_elem),), ["out"])
    out = f.body_block().arg(0)
    c0 = arith.index_constant(b, 0)
    c1 = arith.index_constant(b, 1)
    nb = arith.index_constant(b, num_blocks)
    nt = arith.index_constant(b, num_threads)
    wrapper = polygeist.gpu_wrapper(b, "k")
    wb = Builder(wrapper.body_block())
    blocks = scf.parallel(wb, [c0], [nb], [c1], gpu_kind="blocks",
                          iv_names=["bx"])
    bb = Builder(blocks.body_block())
    threads = scf.parallel(bb, [c0], [nt], [c1], gpu_kind="threads",
                           iv_names=["tx"])
    tb = Builder(threads.body_block())
    # builder positioned *before* the thread loop, for shared allocas
    block_builder = Builder(blocks.body_block(), 0)
    body_fn(module, block_builder, tb, blocks.body_block().arg(0),
            threads.body_block().arg(0), out,
            {"c0": c0, "c1": c1, "nt": nt, "nb": nb})
    # fresh builders: block_builder insertions invalidated bb's index
    scf.yield_(Builder(threads.body_block()))
    scf.yield_(Builder(blocks.body_block()))
    func.return_(b)
    verify_module(module)
    return module


class TestGpuExecution:
    def test_parallel_writes_all_threads(self):
        def body(module, bb, tb, bx, tx, out, consts):
            nt = consts["nt"]
            gid = arith.addi(tb, arith.muli(tb, bx, nt), tx)
            value = arith.sitofp(tb, arith.index_cast(tb, gid, I32), F32)
            memref.store(tb, value, out, [gid])

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        run_module(module, "main", [out])
        np.testing.assert_array_equal(out.array, np.arange(16,
                                                           dtype=np.float32))

    def test_barrier_orders_shared_memory(self):
        """Classic reverse-through-shared-memory: requires the barrier."""
        def body(module, bb, tb, bx, tx, out, consts):
            shared = memref.alloca(bb, MemRefType((8,), F32, "shared"))
            # move alloca before the thread loop: builder bb inserts at end,
            # so reposition is needed; simply create in bb before threads is
            # not possible after the fact — instead allocate via tb's parent.
            nt = consts["nt"]
            c7 = arith.index_constant(tb, 7)
            value = arith.sitofp(tb, arith.index_cast(tb, tx, I32), F32)
            memref.store(tb, value, shared, [tx])
            polygeist.barrier(tb, [tx])
            rev = arith.subi(tb, c7, tx)
            loaded = memref.load(tb, shared, [rev])
            gid = arith.addi(tb, arith.muli(tb, bx, nt), tx)
            memref.store(tb, loaded, out, [gid])

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        run_module(module, "main", [out])
        expected = np.concatenate([np.arange(7, -1, -1), np.arange(7, -1, -1)]
                                  ).astype(np.float32)
        np.testing.assert_array_equal(out.array, expected)

    def test_shared_memory_is_per_block(self):
        """Block 0 writes shared memory; block 1 must not see it."""
        def body(module, bb, tb, bx, tx, out, consts):
            shared = memref.alloca(bb, MemRefType((8,), F32, "shared"))
            c0 = arith.index_constant(tb, 0)
            is_block0 = arith.cmpi(tb, "eq", bx, c0)
            if_op = scf.if_(tb, is_block0, [])
            then_b = Builder(scf.if_then_block(if_op))
            memref.store(then_b, arith.constant(then_b, 5.0, F32),
                         shared, [tx])
            scf.yield_(then_b)
            scf.yield_(Builder(scf.if_else_block(if_op)))
            polygeist.barrier(tb, [tx])
            nt = consts["nt"]
            gid = arith.addi(tb, arith.muli(tb, bx, nt), tx)
            memref.store(tb, memref.load(tb, shared, [tx]), out, [gid])

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        run_module(module, "main", [out])
        assert (out.array[:8] == 5.0).all()
        assert (out.array[8:] == 0.0).all()

    def test_divergent_barrier_detected(self):
        """A barrier under thread-dependent control flow must raise."""
        def body(module, bb, tb, bx, tx, out, consts):
            c4 = arith.index_constant(tb, 4)
            cond = arith.cmpi(tb, "lt", tx, c4)
            if_op = scf.if_(tb, cond, [])
            then_b = Builder(scf.if_then_block(if_op))
            polygeist.barrier(then_b, [tx])
            scf.yield_(then_b)
            scf.yield_(Builder(scf.if_else_block(if_op)))

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        with pytest.raises(ConvergenceError):
            run_module(module, "main", [out])

    def test_two_dimensional_threads_linearized_x_fastest(self):
        """Thread (x, y) has linear id x + y * Dx, like CUDA."""
        module = Module()
        f, b = new_func(module, "main", (MemRefType((12,), INDEX),), ["out"])
        out = f.body_block().arg(0)
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        c4 = arith.index_constant(b, 4)
        c3 = arith.index_constant(b, 3)
        wrapper = polygeist.gpu_wrapper(b, "k")
        wb = Builder(wrapper.body_block())
        blocks = scf.parallel(wb, [c0], [c1], [c1], gpu_kind="blocks")
        bb = Builder(blocks.body_block())
        threads = scf.parallel(bb, [c0, c0], [c4, c3], [c1, c1],
                               gpu_kind="threads", iv_names=["tx", "ty"])
        tb = Builder(threads.body_block())
        tx, ty = threads.body_block().args
        gid = arith.addi(tb, tx, arith.muli(tb, ty, c4))
        memref.store(tb, gid, out, [gid])
        scf.yield_(tb)
        scf.yield_(bb)
        func.return_(b)
        verify_module(module)
        out_buf = MemoryBuffer((12,), INDEX)
        run_module(module, "main", [out_buf])
        np.testing.assert_array_equal(out_buf.array, np.arange(12))

    def test_atomic_rmw(self):
        """All 16 threads atomically add into one cell."""
        def body(module, bb, tb, bx, tx, out, consts):
            c0 = arith.index_constant(tb, 0)
            one = arith.constant(tb, 1.0, F32)
            memref.atomic_rmw(tb, "addf", one, out, [c0])

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        run_module(module, "main", [out])
        assert out.array[0] == 16.0


class TestTracer:
    def test_tracer_sees_accesses_and_barriers(self):
        from repro.interpreter import Tracer

        class Recorder(Tracer):
            def __init__(self):
                self.loads, self.stores, self.barriers = [], [], []

            def on_load(self, buffer, linear, nbytes, block, thread,
                        op=None):
                self.loads.append((buffer.space, linear, block, thread))

            def on_store(self, buffer, linear, nbytes, block, thread,
                         op=None):
                self.stores.append((buffer.space, linear, block, thread))

            def on_barrier(self, block):
                self.barriers.append(block)

        def body(module, bb, tb, bx, tx, out, consts):
            shared = memref.alloca(bb, MemRefType((8,), F32, "shared"))
            value = arith.constant(tb, 1.0, F32)
            memref.store(tb, value, shared, [tx])
            polygeist.barrier(tb, [tx])
            nt = consts["nt"]
            gid = arith.addi(tb, arith.muli(tb, bx, nt), tx)
            memref.store(tb, memref.load(tb, shared, [tx]), out, [gid])

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        recorder = Recorder()
        run_module(module, "main", [out], tracer=recorder)
        # 2 blocks x 8 threads: 8 shared + 8 global stores per block
        shared_stores = [s for s in recorder.stores if s[0] == "shared"]
        global_stores = [s for s in recorder.stores if s[0] == "global"]
        assert len(shared_stores) == 16
        assert len(global_stores) == 16
        assert len(recorder.loads) == 16
        assert len(recorder.barriers) == 16  # one event per thread
        # thread ids are present during GPU execution
        assert all(t is not None for (_, _, _, t) in recorder.stores)


class TestMemoryBuffer:
    def test_bounds_checked(self):
        buf = MemoryBuffer((4, 4), F32)
        with pytest.raises(IndexError):
            buf.load([4, 0])
        with pytest.raises(IndexError):
            buf.load([0, -1])
        with pytest.raises(IndexError):
            buf.load([0])

    def test_row_major_linearization(self):
        buf = MemoryBuffer((2, 3), F32)
        assert buf.linear_index([0, 0]) == 0
        assert buf.linear_index([0, 2]) == 2
        assert buf.linear_index([1, 0]) == 3
        assert buf.linear_index([1, 2]) == 5

    def test_for_type_with_dynamic_dims(self):
        from repro.ir import DYNAMIC
        type_ = MemRefType((DYNAMIC, 4), F32)
        buf = MemoryBuffer.for_type(type_, [3])
        assert buf.shape == (3, 4)

    def test_flat_view_aliases_any_input_layout(self):
        data = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
        buf = MemoryBuffer((2, 3), F32, data=data)
        buf.flat_view[buf.linear_index([1, 2])] = 7.0
        assert buf.array[1, 2] == 7.0
        assert buf.load([0, 1]) == 1.0

    def test_data_initialization_copies(self):
        data = np.ones(4, dtype=np.float32)
        buf = MemoryBuffer((4,), F32, data=data)
        data[0] = 99
        assert buf.array[0] == 1.0


class TestUnsignedOps:
    """Unsigned arithmetic must use width-masked bit patterns, not
    Python's ideal signed integers. Found by the differential validation
    harness while building the equivalence gate (the signed fallback made
    shrui/divui on negative values diverge from GPU semantics)."""

    def run_int_op(self, name, lhs, rhs, type_=I32):
        module = Module()
        f, b = new_func(module, "main", (MemRefType((1,), type_),), ["out"])
        x = arith.constant(b, lhs, type_)
        y = arith.constant(b, rhs, type_)
        v = arith.binary(b, name, x, y)
        c0 = arith.index_constant(b, 0)
        memref.store(b, v, f.body_block().arg(0), [c0])
        func.return_(b)
        verify_module(module)
        out = MemoryBuffer((1,), type_)
        Interpreter(module).run_func("main", [out])
        return int(out.array[0])

    def test_shrui_is_logical_shift(self):
        # -8 as u32 is 0xFFFFFFF8; a logical shift brings in zeros
        assert self.run_int_op("arith.shrui", -8, 1) == 0x7FFFFFFC
        # the signed interpretation would keep the sign: make sure not
        assert self.run_int_op("arith.shrsi", -8, 1) == -4

    def test_divui_remui_use_unsigned_operands(self):
        assert self.run_int_op("arith.divui", -8, 3) == (2 ** 32 - 8) // 3
        assert self.run_int_op("arith.remui", -8, 3) == (2 ** 32 - 8) % 3
        assert self.run_int_op("arith.divsi", -8, 3) == -2

    def test_minui_maxui_compare_unsigned(self):
        # 0xFFFFFFFF (=-1 signed) is the *largest* u32, not the smallest
        assert self.run_int_op("arith.minui", -1, 1) == 1
        assert self.run_int_op("arith.maxui", -1, 1) == -1

    def test_unsigned_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            self.run_int_op("arith.divui", 5, 0)
        with pytest.raises(InterpreterError):
            self.run_int_op("arith.remui", 5, 0)


class TestDivergenceDiagnostics:
    """ConvergenceError messages must name the offending threads so the
    validation harness can report actionable barrier-legality failures."""

    def test_thread_divergent_barrier_names_threads(self):
        def body(module, bb, tb, bx, tx, out, consts):
            c4 = arith.index_constant(tb, 4)
            cond = arith.cmpi(tb, "lt", tx, c4)
            if_op = scf.if_(tb, cond, [])
            then_b = Builder(scf.if_then_block(if_op))
            polygeist.barrier(then_b, [tx])
            scf.yield_(then_b)
            scf.yield_(Builder(scf.if_else_block(if_op)))

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        with pytest.raises(ConvergenceError,
                           match="thread-divergent control flow"):
            run_module(module, "main", [out])

    def test_different_barriers_reported(self):
        """Half the threads reach one barrier, half another: the wave
        check must flag the mismatched identity, not hang."""
        def body(module, bb, tb, bx, tx, out, consts):
            c4 = arith.index_constant(tb, 4)
            cond = arith.cmpi(tb, "lt", tx, c4)
            if_op = scf.if_(tb, cond, [])
            then_b = Builder(scf.if_then_block(if_op))
            polygeist.barrier(then_b, [tx])
            scf.yield_(then_b)
            else_b = Builder(scf.if_else_block(if_op))
            polygeist.barrier(else_b, [tx])
            scf.yield_(else_b)

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        with pytest.raises(ConvergenceError, match="different barrier"):
            run_module(module, "main", [out])


class TestReverseParallel:
    """reverse_parallel reorders blocks and thread waves; race-free
    kernels must be insensitive, racy ones visibly differ (the order
    probe behind the differential harness's race detection)."""

    def test_race_free_kernel_is_order_insensitive(self):
        def body(module, bb, tb, bx, tx, out, consts):
            nt = consts["nt"]
            gid = arith.addi(tb, arith.muli(tb, bx, nt), tx)
            value = arith.sitofp(tb, arith.index_cast(tb, gid, I32), F32)
            memref.store(tb, value, out, [gid])

        module = build_gpu_kernel(body)
        forward = MemoryBuffer((16,), F32)
        Interpreter(module).run_func("main", [forward])
        reverse = MemoryBuffer((16,), F32)
        Interpreter(module, reverse_parallel=True).run_func(
            "main", [reverse])
        np.testing.assert_array_equal(forward.array, reverse.array)

    def test_write_write_race_differs_across_orders(self):
        def body(module, bb, tb, bx, tx, out, consts):
            c0 = arith.index_constant(tb, 0)
            value = arith.sitofp(tb, arith.index_cast(tb, tx, I32), F32)
            memref.store(tb, value, out, [c0])

        module = build_gpu_kernel(body)
        forward = MemoryBuffer((16,), F32)
        Interpreter(module).run_func("main", [forward])
        reverse = MemoryBuffer((16,), F32)
        Interpreter(module, reverse_parallel=True).run_func(
            "main", [reverse])
        assert forward.array[0] != reverse.array[0]


class TestBlockPlanFastPath:
    """The interpreter compiles each block once, on its first run, and
    runs the compiled form; results and step-budget semantics are those
    of running the ops one by one."""

    def _arith_module(self, num_adds):
        module = Module()
        f, b = new_func(module, "main", (MemRefType((1,), INDEX),), ["out"])
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        v = c0
        for _ in range(num_adds):
            v = arith.addi(b, v, c1)
        memref.store(b, v, f.body_block().arg(0), [c0])
        func.return_(b)
        verify_module(module)
        return module

    def _loop_module(self, trips=8):
        """main(out) { for i in [0, trips): out[i] = i + 1 }"""
        module = Module()
        f, b = new_func(module, "main", (MemRefType((trips,), INDEX),),
                        ["out"])
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        cn = arith.index_constant(b, trips)
        loop = scf.for_(b, c0, cn, c1)
        lb = Builder(loop.body_block())
        i = loop.body_block().arg(0)
        memref.store(lb, arith.addi(lb, i, c1), f.body_block().arg(0), [i])
        scf.yield_(lb)
        func.return_(b)
        verify_module(module)
        return module

    def test_straight_line_run_executes_correctly(self):
        module = self._arith_module(10)
        out = MemoryBuffer.for_type(MemRefType((1,), INDEX))
        interp = Interpreter(module)
        interp.run_func("main", [out])
        assert out.array[0] == 10
        assert interp.compiled_blocks == 1
        interp.run_func("main", [out])
        assert interp.compiled_blocks == 1

    def test_step_budget_counts_each_op_in_a_run(self):
        module = self._arith_module(10)
        # body has 2 constants + 10 adds + 1 store + 1 return = 14 steps
        out = MemoryBuffer.for_type(MemRefType((1,), INDEX))
        Interpreter(module, max_steps=14).run_func("main", [out])
        assert out.array[0] == 10
        for budget in (1, 5, 13):
            out = MemoryBuffer.for_type(MemRefType((1,), INDEX))
            with pytest.raises(InterpreterError, match="step budget"):
                Interpreter(module, max_steps=budget).run_func(
                    "main", [out])

    def test_budget_trips_before_over_limit_op_executes(self):
        # with budget 12 the store (step 13) must never run: the output
        # buffer stays at its initial value
        module = self._arith_module(10)
        out = MemoryBuffer.for_type(MemRefType((1,), INDEX))
        out.array[0] = -99
        with pytest.raises(InterpreterError, match="step budget"):
            Interpreter(module, max_steps=12).run_func("main", [out])
        assert out.array[0] == -99

    def test_budget_is_exact_inside_a_loop_body(self):
        # 3 constants + the for op = 4 steps, then 3 per iteration (addi,
        # store, yield): iteration k stores at step 4 + 3k + 2, and the
        # return is step 4 + 3 * 8 + 1 = 29
        module = self._loop_module()
        for budget in range(1, 29):
            out = MemoryBuffer.for_type(MemRefType((8,), INDEX))
            with pytest.raises(InterpreterError, match="step budget"):
                Interpreter(module, max_steps=budget).run_func(
                    "main", [out])
            stored = [k for k in range(8) if 4 + 3 * k + 2 <= budget]
            expected = [k + 1 if k in stored else 0 for k in range(8)]
            assert out.array.tolist() == expected, budget
        out = MemoryBuffer.for_type(MemRefType((8,), INDEX))
        Interpreter(module, max_steps=29).run_func("main", [out])
        assert out.array.tolist() == list(range(1, 9))

    def test_plan_reused_across_loop_iterations(self):
        module = Module()
        f, b = new_func(module, "main", (MemRefType((1,), INDEX),), ["out"])
        c0 = arith.index_constant(b, 0)
        c1 = arith.index_constant(b, 1)
        c8 = arith.index_constant(b, 8)
        loop = scf.for_(b, c0, c8, c1, iter_inits=[c0])
        lb = Builder(loop.body_block())
        acc = arith.addi(lb, loop.body_block().arg(1), c1)
        scf.yield_(lb, [acc])
        memref.store(b, loop.result(0), f.body_block().arg(0), [c0])
        func.return_(b)
        verify_module(module)
        out = MemoryBuffer.for_type(MemRefType((1,), INDEX))
        interp = Interpreter(module)
        interp.run_func("main", [out])
        assert out.array[0] == 8
        # the function body and the loop body — not one per iteration
        assert interp.compiled_blocks == 2

    def test_unrepresentable_store_fails_like_memory_buffer_store(self):
        module = Module()
        f, b = new_func(module, "main", (MemRefType((1,), I32),), ["out"])
        c0 = arith.index_constant(b, 0)
        big = arith.constant(b, 2 ** 40, I32)
        memref.store(b, big, f.body_block().arg(0), [c0])
        func.return_(b)
        verify_module(module)
        with pytest.raises(Exception) as direct:
            MemoryBuffer((1,), I32).store([0], 2 ** 40)
        with pytest.raises(Exception) as interpreted:
            Interpreter(module).run_func("main", [MemoryBuffer((1,), I32)])
        assert type(interpreted.value) is type(direct.value)
        assert str(interpreted.value) == str(direct.value)

    def test_barrier_threads_share_one_compiled_body(self):
        # every thread's generator is created before any runs; the body
        # still compiles once: function, wrapper, block loop, thread loop
        interp = Interpreter(TestTracerHooks._barrier_kernel())
        interp.run_func("main", [MemoryBuffer((16,), F32)])
        assert interp.compiled_blocks == 4

    def test_interpreter_leaves_no_cyclic_garbage(self):
        # compiled closures reference the run state, never the
        # interpreter or their own code objects: the validation gate drops
        # one interpreter per run, and reference counting must free it
        # with everything it compiled. The else branch never runs, so it
        # stays an uncompiled stub
        import gc

        def body(module, bb, tb, bx, tx, out, consts):
            always = arith.cmpi(tb, "lt", tx, consts["nt"])
            if_op = scf.if_(tb, always, [])
            then_b = Builder(scf.if_then_block(if_op))
            memref.store(then_b, arith.constant(then_b, 1.0, F32), out,
                         [arith.addi(then_b, arith.muli(
                             then_b, bx, consts["nt"]), tx)])
            scf.yield_(then_b)
            scf.yield_(Builder(scf.if_else_block(if_op)))

        module = build_gpu_kernel(body)
        out = MemoryBuffer((16,), F32)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            interp = Interpreter(module, max_steps=10 ** 6)
            interp.run_func("main", [out])
            assert interp.compiled_blocks == 5
            del interp
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_forget_plans_recompiles_rewritten_ir(self):
        module = self._arith_module(3)
        interp = Interpreter(module)
        out = MemoryBuffer.for_type(MemRefType((1,), INDEX))
        interp.run_func("main", [out])
        assert out.array[0] == 3
        # rewrite the stored value to the first constant (0)
        store = [op for op in module.func("main").body_block().ops
                 if op.name == "memref.store"][0]
        first = module.func("main").body_block().ops[0].result()
        store.set_operand(0, first)
        interp.forget_plans()
        interp.run_func("main", [out])
        assert out.array[0] == 0


class TestTracerHooks:
    """Memory hooks fire in execution order with the accessing block and
    thread; they are bound by the tracer's type, so swapping tracers on
    one interpreter switches them on and off."""

    class Recorder(Tracer):
        def __init__(self):
            self.events = []

        def on_load(self, buffer, linear, nbytes, block, thread, op=None):
            self.events.append(("load", buffer.space, linear, block,
                                thread))

        def on_store(self, buffer, linear, nbytes, block, thread,
                     op=None):
            self.events.append(("store", buffer.space, linear, block,
                                thread))

    @staticmethod
    def _barrier_kernel():
        """Per block: shared[tx] = 1; barrier; out[gid] = shared[7 - tx]."""
        def body(module, bb, tb, bx, tx, out, consts):
            shared = memref.alloca(bb, MemRefType((8,), F32, "shared"))
            memref.store(tb, arith.constant(tb, 1.0, F32), shared, [tx])
            polygeist.barrier(tb, [tx])
            c7 = arith.index_constant(tb, 7)
            nt = consts["nt"]
            gid = arith.addi(tb, arith.muli(tb, bx, nt), tx)
            memref.store(tb, memref.load(tb, shared, [arith.subi(tb, c7, tx)]),
                         out, [gid])
        return build_gpu_kernel(body)

    @staticmethod
    def _barrier_free_kernel():
        """out[gid] = out[gid] + 1."""
        def body(module, bb, tb, bx, tx, out, consts):
            nt = consts["nt"]
            gid = arith.addi(tb, arith.muli(tb, bx, nt), tx)
            one = arith.constant(tb, 1.0, F32)
            memref.store(tb, arith.addf(tb, memref.load(tb, out, [gid]), one),
                         out, [gid])
        return build_gpu_kernel(body)

    def test_barrier_kernel_sequence(self):
        recorder = self.Recorder()
        run_module(self._barrier_kernel(), "main",
                   [MemoryBuffer((16,), F32)], tracer=recorder)
        expected = []
        for b in range(2):
            # wave one runs every thread to the barrier, wave two to the end
            expected += [("store", "shared", t, b, t) for t in range(8)]
            for t in range(8):
                expected += [("load", "shared", 7 - t, b, t),
                             ("store", "global", 8 * b + t, b, t)]
        assert recorder.events == expected

    def test_barrier_free_kernel_sequence(self):
        recorder = self.Recorder()
        run_module(self._barrier_free_kernel(), "main",
                   [MemoryBuffer((16,), F32)], tracer=recorder)
        expected = []
        for b in range(2):
            for t in range(8):
                expected += [("load", "global", 8 * b + t, b, t),
                             ("store", "global", 8 * b + t, b, t)]
        assert recorder.events == expected

    def test_reversed_order_reverses_blocks_and_threads(self):
        recorder = self.Recorder()
        Interpreter(self._barrier_free_kernel(), tracer=recorder,
                    reverse_parallel=True).run_func(
            "main", [MemoryBuffer((16,), F32)])
        assert [e[2:] for e in recorder.events[::2]] == [
            (8 * b + t, b, t) for b in (1, 0) for t in range(7, -1, -1)]

    def test_swapping_tracers_switches_hooks(self):
        module = self._barrier_free_kernel()
        out = MemoryBuffer((16,), F32)
        interp = Interpreter(module)
        interp.run_func("main", [out])
        recorder = self.Recorder()
        interp.tracer = recorder
        interp.run_func("main", [out])
        assert len(recorder.events) == 32
        interp.tracer = Tracer()
        interp.run_func("main", [out])
        assert len(recorder.events) == 32
        np.testing.assert_array_equal(out.array, np.full(16, 3.0))

    def test_hooks_that_are_not_overridden_are_not_called(self):
        class StoresOnly(Tracer):
            def __init__(self):
                self.stores = 0

            def on_store(self, buffer, linear, nbytes, block, thread,
                         op=None):
                self.stores += 1

        tracer = StoresOnly()
        run_module(self._barrier_free_kernel(), "main",
                   [MemoryBuffer((16,), F32)], tracer=tracer)
        assert tracer.stores == 16
