"""Coverage for smaller components: metrics formatting, device buffers,
interpreter op corners, printer attributes."""

import numpy as np
import pytest

from repro.dialects import arith, func, math, memref, scf
from repro.interpreter import MemoryBuffer, run_module
from repro.ir import (Builder, F32, F64, FunctionType, I1, INDEX,
                      MemRefType, Module, format_attr,
                      parse_op, print_op, verify_module)
from repro.runtime import DeviceBuffer, GPURuntime
from repro.simulator.metrics import KernelMetrics, _fmt_bytes, _fmt_count
from repro.targets import A100


class TestMetricsFormatting:
    def test_byte_units(self):
        assert _fmt_bytes(512) == "512 B"
        assert _fmt_bytes(4.2e3) == "4 KB"
        assert _fmt_bytes(460e6) == "460 MB"
        assert _fmt_bytes(1.5e9) == "1.50 GB"

    def test_count_units(self):
        assert _fmt_count(17) == "17"
        assert _fmt_count(4.16e6) == "4.16 M"
        assert _fmt_count(12.5e3) == "12.50 K"

    def test_table_row_keys(self):
        row = KernelMetrics(time_seconds=0.184).table_row()
        assert row["Runtime"] == "0.1840 s"
        assert "LSU utilization" in row
        assert "ShMem -> SM Read Req." in row


class TestDeviceBuffer:
    def test_dtype_mapping(self):
        assert DeviceBuffer((4,), np.float32).buffer.element == F32
        assert DeviceBuffer((4,), np.float64).buffer.element == F64

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            DeviceBuffer((4,), np.complex64)

    def test_write_read_roundtrip(self):
        buf = DeviceBuffer((2, 3), np.float32)
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        buf.write(data)
        np.testing.assert_array_equal(buf.read(), data)
        buf.fill(7)
        assert (buf.read() == 7).all()

    def test_runtime_malloc_int_shape(self):
        rt = GPURuntime(A100)
        buf = rt.malloc(16)
        assert buf.shape == (16,)


class TestInterpreterCorners:
    def _run_unary(self, op_builder, value, in_type=F32):
        module = Module()
        builder = Builder(module.body)
        f = func.func(builder, "f", FunctionType(
            (MemRefType((1,), in_type),), ()), ["out"])
        body = Builder(f.body_block())
        x = arith.constant(body, value, in_type)
        result = op_builder(body, x)
        memref.store(body, result, f.body_block().arg(0),
                     [arith.index_constant(body, 0)])
        func.return_(body)
        verify_module(module)
        out = MemoryBuffer((1,), in_type)
        run_module(module, "f", [out])
        return out.array[0]

    def test_tanh(self):
        got = self._run_unary(
            lambda b, x: math.unary(b, "math.tanh", x), 0.5)
        assert got == pytest.approx(np.tanh(np.float32(0.5)))

    def test_rsqrt(self):
        got = self._run_unary(
            lambda b, x: math.unary(b, "math.rsqrt", x), 4.0)
        assert got == pytest.approx(0.5)

    def test_exp2_f64(self):
        got = self._run_unary(
            lambda b, x: math.unary(b, "math.exp2", x), 3.0, F64)
        assert got == 8.0

    def test_negf(self):
        got = self._run_unary(lambda b, x: arith.negf(b, x), 2.5)
        assert got == -2.5

    def test_remf(self):
        module = Module()
        builder = Builder(module.body)
        f = func.func(builder, "f",
                      FunctionType((MemRefType((1,), F32),), ()), ["out"])
        body = Builder(f.body_block())
        a = arith.constant(body, 7.5, F32)
        b_val = arith.constant(body, 2.0, F32)
        r = arith.binary(body, "arith.remf", a, b_val)
        memref.store(body, r, f.body_block().arg(0),
                     [arith.index_constant(body, 0)])
        func.return_(body)
        out = MemoryBuffer((1,), F32)
        run_module(module, "f", [out])
        assert out.array[0] == pytest.approx(1.5)

    def test_shift_ops(self):
        module = Module()
        builder = Builder(module.body)
        f = func.func(builder, "f",
                      FunctionType((MemRefType((2,), INDEX),), ()), ["out"])
        body = Builder(f.body_block())
        x = arith.index_constant(body, 5)
        two = arith.index_constant(body, 2)
        left = arith.binary(body, "arith.shli", x, two)
        right = arith.binary(body, "arith.shrsi", x, two)
        out_arg = f.body_block().arg(0)
        memref.store(body, left, out_arg, [arith.index_constant(body, 0)])
        memref.store(body, right, out_arg, [arith.index_constant(body, 1)])
        func.return_(body)
        out = MemoryBuffer((2,), INDEX)
        run_module(module, "f", [out])
        assert list(out.array) == [20, 1]

    def test_step_budget(self):
        from repro.interpreter import Interpreter, InterpreterError
        module = Module()
        builder = Builder(module.body)
        f = func.func(builder, "f", FunctionType((), ()))
        body = Builder(f.body_block())
        c0 = arith.index_constant(body, 0)
        c1 = arith.index_constant(body, 1)
        big = arith.index_constant(body, 10 ** 6)
        loop = scf.for_(body, c0, big, c1)
        inner = Builder(loop.body_block())
        arith.addi(inner, c1, c1)
        scf.yield_(inner)
        func.return_(body)
        interp = Interpreter(module, max_steps=1000)
        with pytest.raises(InterpreterError):
            interp.run_func("f", [])


class TestPrinterAttrs:
    def test_attr_kinds_roundtrip(self):
        op = parse_op(print_op(parse_op(
            '"t.op"() {a = [1, 2.5, "x", true, none], b = !memref<4xf32>} '
            ': () -> ()')))
        assert op.attr("a") == [1, 2.5, "x", True, None]

    def test_unprintable_attr_rejected(self):
        with pytest.raises(TypeError):
            format_attr(object())

    def test_negative_and_float_attrs(self):
        op = parse_op('"t.op"() {a = -5, b = -2.5} : () -> ()')
        assert op.attr("a") == -5
        assert op.attr("b") == -2.5


class TestBenchmarkCompare:
    def test_relative_error_scaling(self):
        from repro.benchsuite.base import Benchmark
        bench = Benchmark()
        got = {"x": np.array([100.0, 0.5])}
        want = {"x": np.array([101.0, 0.5])}
        # |100-101|/101 ~ 0.0099, second exact
        assert 0.005 < bench.compare(got, want) < 0.02

    def test_empty_arrays(self):
        from repro.benchsuite.base import Benchmark
        bench = Benchmark()
        assert bench.compare({"x": np.array([])},
                             {"x": np.array([])}) == 0.0
