"""Codegen tests: compiled CUDA kernels must execute correctly."""

import numpy as np
import pytest

from repro.frontend import CodegenError, ModuleGenerator, \
    parse_translation_unit
from repro.interpreter import MemoryBuffer, run_module
from repro.ir import F32, F64, INDEX, verify_module


def compile_kernel(source, kernel, grid_rank=1, block=(8,), defines=None):
    unit = parse_translation_unit(source, defines)
    gen = ModuleGenerator(unit)
    wrapper = gen.get_launch_wrapper(kernel, grid_rank, block)
    verify_module(gen.module)
    return gen.module, wrapper


def compile_host(source, name, defines=None):
    unit = parse_translation_unit(source, defines)
    gen = ModuleGenerator(unit)
    gen.emit_host_function(name)
    verify_module(gen.module)
    return gen.module


class TestKernels:
    def test_global_id_store(self):
        module, wrapper = compile_kernel(
            "__global__ void k(int *out) {"
            " out[blockIdx.x * blockDim.x + threadIdx.x] ="
            "   blockIdx.x * blockDim.x + threadIdx.x; }", "k")
        out = MemoryBuffer((16,), INDEX)
        run_module(module, wrapper, [2, out])
        np.testing.assert_array_equal(out.array, np.arange(16))

    def test_guard_return(self):
        module, wrapper = compile_kernel(
            "__global__ void k(float *out, int n) {"
            " int i = blockIdx.x * blockDim.x + threadIdx.x;"
            " if (i >= n) return;"
            " out[i] = 1.0f; }", "k")
        out = MemoryBuffer((16,), F32)
        run_module(module, wrapper, [2, out, 10])
        assert out.array[:10].sum() == 10
        assert (out.array[10:] == 0).all()

    def test_for_loop_accumulation(self):
        module, wrapper = compile_kernel(
            "__global__ void k(float *out, int n) {"
            " int i = threadIdx.x;"
            " float acc = 0.0f;"
            " for (int j = 0; j < n; j++) acc += j * i;"
            " out[i] = acc; }", "k", block=(4,))
        out = MemoryBuffer((4,), F32)
        run_module(module, wrapper, [1, out, 5])
        expected = np.array([0, 10, 20, 30], dtype=np.float32)
        np.testing.assert_array_equal(out.array, expected)

    def test_while_loop(self):
        module, wrapper = compile_kernel(
            "__global__ void k(int *out) {"
            " int x = threadIdx.x + 1; int steps = 0;"
            " while (x != 1) {"
            "   if (x % 2 == 0) x = x / 2; else x = 3 * x + 1;"
            "   steps++; }"
            " out[threadIdx.x] = steps; }", "k", block=(6,))
        out = MemoryBuffer((6,), INDEX)
        run_module(module, wrapper, [1, out])
        # Collatz steps for 1..6
        np.testing.assert_array_equal(out.array, [0, 1, 7, 2, 5, 8])

    def test_shared_memory_tile(self):
        source = """
        #define TS 8
        __global__ void rev(float *in, float *out) {
            __shared__ float tile[TS];
            int t = threadIdx.x;
            tile[t] = in[blockIdx.x * TS + t];
            __syncthreads();
            out[blockIdx.x * TS + t] = tile[TS - 1 - t];
        }
        """
        module, wrapper = compile_kernel(source, "rev")
        inp = MemoryBuffer((16,), F32, data=np.arange(16, dtype=np.float32))
        out = MemoryBuffer((16,), F32)
        run_module(module, wrapper, [2, inp, out])
        expected = np.concatenate(
            [np.arange(7, -1, -1), np.arange(15, 7, -1)]).astype(np.float32)
        np.testing.assert_array_equal(out.array, expected)

    def test_2d_block_and_shared(self):
        source = """
        __global__ void transpose(float *in, float *out, int n) {
            __shared__ float tile[4][4];
            int x = threadIdx.x, y = threadIdx.y;
            tile[y][x] = in[(blockIdx.y * 4 + y) * n + blockIdx.x * 4 + x];
            __syncthreads();
            out[(blockIdx.x * 4 + x) * n + blockIdx.y * 4 + y] = tile[y][x];
        }
        """
        module, wrapper = compile_kernel(source, "transpose",
                                         grid_rank=2, block=(4, 4))
        n = 8
        data = np.arange(n * n, dtype=np.float32)
        inp = MemoryBuffer((n * n,), F32, data=data)
        out = MemoryBuffer((n * n,), F32)
        run_module(module, wrapper, [2, 2, inp, out, n])
        np.testing.assert_array_equal(
            out.array.reshape(n, n), data.reshape(n, n).T)

    def test_device_function_inlined(self):
        source = """
        __device__ float square(float v) { return v * v; }
        __global__ void k(float *out) {
            int i = threadIdx.x;
            out[i] = square(i + 1.0f);
        }
        """
        module, wrapper = compile_kernel(source, "k", block=(4,))
        out = MemoryBuffer((4,), F32)
        run_module(module, wrapper, [1, out])
        np.testing.assert_array_equal(out.array, [1, 4, 9, 16])

    def test_math_builtins(self):
        module, wrapper = compile_kernel(
            "__global__ void k(float *out) {"
            " out[threadIdx.x] = sqrtf(out[threadIdx.x]) +"
            "   fmaxf(0.5f, 0.25f); }", "k", block=(4,))
        out = MemoryBuffer((4,), F32, data=np.array([1, 4, 9, 16],
                                                    dtype=np.float32))
        run_module(module, wrapper, [1, out])
        np.testing.assert_allclose(out.array, [1.5, 2.5, 3.5, 4.5])

    def test_double_precision(self):
        module, wrapper = compile_kernel(
            "__global__ void k(double *out) {"
            " out[threadIdx.x] = 1.0 / 3.0; }", "k", block=(2,))
        out = MemoryBuffer((2,), F64)
        run_module(module, wrapper, [1, out])
        assert out.array.dtype == np.float64
        np.testing.assert_allclose(out.array, 1.0 / 3.0, rtol=1e-15)

    def test_pointer_arithmetic(self):
        module, wrapper = compile_kernel(
            "__global__ void k(float *data, int off) {"
            " float *p = data + off;"
            " p[threadIdx.x] = 7.0f; }", "k", block=(4,))
        buf = MemoryBuffer((12,), F32)
        run_module(module, wrapper, [1, buf, 4])
        assert (buf.array[4:8] == 7).all()
        assert buf.array[:4].sum() == 0 and buf.array[8:].sum() == 0

    def test_ternary_and_short_circuit(self):
        module, wrapper = compile_kernel(
            "__global__ void k(int *out, int n) {"
            " int i = threadIdx.x;"
            " out[i] = (i > 1 && i < n) ? i * 10 : -1; }", "k", block=(5,))
        out = MemoryBuffer((5,), INDEX)
        run_module(module, wrapper, [1, out, 4])
        np.testing.assert_array_equal(out.array, [-1, -1, 20, 30, -1])

    def test_atomic_add(self):
        module, wrapper = compile_kernel(
            "__global__ void k(float *sum, float *vals) {"
            " atomicAdd(&sum[0], vals[threadIdx.x]); }", "k", block=(8,))
        total = MemoryBuffer((1,), F32)
        vals = MemoryBuffer((8,), F32,
                            data=np.arange(8, dtype=np.float32))
        run_module(module, wrapper, [1, total, vals])
        assert total.array[0] == 28.0

    def test_local_array(self):
        module, wrapper = compile_kernel(
            "__global__ void k(float *out) {"
            " float tmp[4];"
            " for (int i = 0; i < 4; i++) tmp[i] = i * 2.0f;"
            " float s = 0.0f;"
            " for (int i = 0; i < 4; i++) s += tmp[i];"
            " out[threadIdx.x] = s; }", "k", block=(2,))
        out = MemoryBuffer((2,), F32)
        run_module(module, wrapper, [1, out])
        np.testing.assert_array_equal(out.array, [12, 12])

    def test_device_global_array(self):
        source = """
        __device__ float lut[4];
        __global__ void fill(int dummy) {
            lut[threadIdx.x] = threadIdx.x + 10.0f;
        }
        __global__ void use(float *out) {
            out[threadIdx.x] = lut[threadIdx.x] * 2.0f;
        }
        """
        unit = parse_translation_unit(source)
        gen = ModuleGenerator(unit)
        w_fill = gen.get_launch_wrapper("fill", 1, (4,))
        w_use = gen.get_launch_wrapper("use", 1, (4,))
        verify_module(gen.module)
        from repro.interpreter import Interpreter
        interp = Interpreter(gen.module)
        interp.run_func(w_fill, [1, 0])
        out = MemoryBuffer((4,), F32)
        interp.run_func(w_use, [1, out])
        np.testing.assert_array_equal(out.array, [20, 22, 24, 26])

    def test_nested_if_else_merging(self):
        module, wrapper = compile_kernel(
            "__global__ void k(int *out, int n) {"
            " int i = threadIdx.x; int v = 0;"
            " if (i < n) { if (i % 2 == 0) v = 1; else v = 2; }"
            " else v = 3;"
            " out[i] = v; }", "k", block=(6,))
        out = MemoryBuffer((6,), INDEX)
        run_module(module, wrapper, [1, out, 4])
        np.testing.assert_array_equal(out.array, [1, 2, 1, 2, 3, 3])

    def test_decrementing_for_via_while(self):
        module, wrapper = compile_kernel(
            "__global__ void k(int *out) {"
            " int s = 0;"
            " for (int i = 10; i > 0; i--) s += i;"
            " out[threadIdx.x] = s; }", "k", block=(2,))
        out = MemoryBuffer((2,), INDEX)
        run_module(module, wrapper, [1, out])
        np.testing.assert_array_equal(out.array, [55, 55])

    def test_compound_assignments(self):
        module, wrapper = compile_kernel(
            "__global__ void k(int *out) {"
            " int x = 10;"
            " x += 5; x -= 2; x *= 3; x /= 2; x %= 10;"
            " out[threadIdx.x] = x; }", "k", block=(1,))
        out = MemoryBuffer((1,), INDEX)
        run_module(module, wrapper, [1, out])
        assert out.array[0] == ((10 + 5 - 2) * 3 // 2) % 10

    def test_postfix_prefix_incdec(self):
        module, wrapper = compile_kernel(
            "__global__ void k(int *out) {"
            " int x = 5;"
            " out[0] = x++; out[1] = x; out[2] = ++x; out[3] = x--;"
            " out[4] = --x; }", "k", block=(1,))
        out = MemoryBuffer((5,), INDEX)
        run_module(module, wrapper, [1, out])
        np.testing.assert_array_equal(out.array, [5, 6, 7, 7, 5])


class TestHostCode:
    def test_host_launch_inlined(self):
        source = """
        __global__ void scale(float *x, float a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) x[i] = x[i] * a;
        }
        void run(float *x, int n) {
            scale<<<(n + 7) / 8, 8>>>(x, 2.0f, n);
        }
        """
        module = compile_host(source, "run")
        buf = MemoryBuffer((10,), F32, data=np.ones(10, dtype=np.float32))
        run_module(module, "run", [buf, 10])
        np.testing.assert_array_equal(buf.array, 2.0)

    def test_host_launch_with_dim3(self):
        source = """
        __global__ void fill(float *x, int n) {
            int i = (blockIdx.y * gridDim.x + blockIdx.x) * blockDim.x
                    + threadIdx.x;
            x[i] = 3.0f;
        }
        void run(float *x, int n) {
            dim3 grid(2, 2);
            dim3 block(4);
            fill<<<grid, block>>>(x, n);
        }
        """
        module = compile_host(source, "run")
        buf = MemoryBuffer((16,), F32)
        run_module(module, "run", [buf, 16])
        np.testing.assert_array_equal(buf.array, 3.0)

    def test_host_loop_of_launches(self):
        source = """
        __global__ void inc(float *x) {
            x[blockIdx.x * blockDim.x + threadIdx.x] += 1.0f;
        }
        void run(float *x, int iters) {
            for (int i = 0; i < iters; i++) {
                inc<<<2, 4>>>(x);
            }
        }
        """
        module = compile_host(source, "run")
        buf = MemoryBuffer((8,), F32)
        run_module(module, "run", [buf, 5])
        np.testing.assert_array_equal(buf.array, 5.0)

    def test_host_function_with_return_value(self):
        source = "int add(int a, int b) { return a + b; }"
        module = compile_host(source, "add")
        result = run_module(module, "add", [3, 4])
        assert result == [7]


class TestCodegenErrors:
    def test_dynamic_block_size_rejected(self):
        source = """
        __global__ void k(float *x) { x[0] = 1.0f; }
        void run(float *x, int b) { k<<<1, b>>>(x); }
        """
        with pytest.raises(CodegenError):
            compile_host(source, "run")

    def test_early_return_mid_loop_rejected(self):
        source = """
        __global__ void k(float *x) {
            for (int i = 0; i < 4; i++) { if (i == 2) return; x[i] = 1.0f; }
        }
        """
        with pytest.raises(CodegenError):
            compile_kernel(source, "k")

    def test_break_rejected(self):
        source = """
        __global__ void k(float *x) {
            for (int i = 0; i < 4; i++) { if (i == 2) break; }
        }
        """
        with pytest.raises(CodegenError):
            compile_kernel(source, "k")

    def test_undeclared_identifier(self):
        with pytest.raises(CodegenError):
            compile_kernel("__global__ void k(float *x) { x[0] = bogus; }",
                           "k")

    def test_shared_outside_kernel(self):
        source = "void f() { __shared__ float t[4]; }"
        with pytest.raises(CodegenError):
            compile_host(source, "f")

    def test_unknown_kernel_launch(self):
        source = "void run() { ghost<<<1, 8>>>(); }"
        with pytest.raises(CodegenError):
            compile_host(source, "run")


def test_name_walkers_leave_no_cyclic_garbage():
    # module-level walkers, not self-calling closures: those are cycles
    # through their closure cells that outlive the call
    import gc
    from repro.frontend import c_ast as ast
    from repro.frontend.codegen import _free_names, assigned_names

    source = """
    __global__ void k(float *x, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) { if (i > 2) s += x[i] * 2; }
        x[0] = s > 0 ? s : -s;
    }
    """
    body = parse_translation_unit(source).kernels()[0].body
    loop = next(stmt for stmt in body.stmts if isinstance(stmt, ast.For))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert assigned_names(body) == {"s", "i"}
        assert assigned_names(loop, declared={"i"}) == {"s"}
        assert _free_names(loop.cond) == {"i", "n"}
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
