"""Tests for redundant load elimination and store-to-load forwarding."""

import numpy as np
import pytest

from repro.dialects import arith, func, memref, polygeist, scf
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.interpreter import MemoryBuffer, run_module
from repro.ir import (Builder, F32, FunctionType, INDEX, MemRefType, Module,
                      verify_module)
from repro.transforms import run_rewrites


def count_loads(root):
    return len(root.ops_matching("memref.load"))


@pytest.fixture
def ctx():
    module = Module()
    builder = Builder(module.body)
    f = func.func(builder, "f", FunctionType((MemRefType((8,), F32),), ()),
                  ["buf"])
    return module, f, Builder(f.body_block()), f.body_block().arg(0)


class TestRLE:
    def test_duplicate_loads_merged(self, ctx):
        module, f, b, buf = ctx
        i = arith.index_constant(b, 0)
        v1 = memref.load(b, buf, [i])
        v2 = memref.load(b, buf, [i])
        s = arith.addf(b, v1, v2)
        memref.store(b, s, buf, [i])
        func.return_(b)
        assert run_rewrites(module, ("load-elim",))
        verify_module(module)
        assert count_loads(module.op) == 1

    def test_different_indices_kept(self, ctx):
        module, f, b, buf = ctx
        i0 = arith.index_constant(b, 0)
        i1 = arith.index_constant(b, 1)
        v1 = memref.load(b, buf, [i0])
        v2 = memref.load(b, buf, [i1])
        memref.store(b, arith.addf(b, v1, v2), buf, [i0])
        func.return_(b)
        run_rewrites(module, ("load-elim",))
        assert count_loads(module.op) == 2

    def test_intervening_store_blocks_reuse(self, ctx):
        module, f, b, buf = ctx
        i = arith.index_constant(b, 0)
        j = arith.index_constant(b, 1)
        v1 = memref.load(b, buf, [i])
        memref.store(b, v1, buf, [j])        # may alias (index values)
        v2 = memref.load(b, buf, [i])
        memref.store(b, arith.addf(b, v1, v2), buf, [j])
        func.return_(b)
        run_rewrites(module, ("load-elim",))
        # load of [i] after store to same buffer must be kept
        assert count_loads(module.op) == 2

    def test_barrier_invalidates(self):
        source = """
        __global__ void k(float *out) {
            __shared__ float s[8];
            s[threadIdx.x] = threadIdx.x;
            float a = s[0];
            __syncthreads();
            float b = s[0];
            out[threadIdx.x] = a + b;
        }
        """
        unit = parse_translation_unit(source)
        gen = ModuleGenerator(unit)
        gen.get_launch_wrapper("k", 1, (8,))
        module = gen.module
        run_rewrites(module, ("load-elim",))
        # both s[0] loads must survive: the barrier fences them
        assert count_loads(module.op) == 2

    def test_semantics_preserved(self):
        source = """
        __global__ void k(float *out, float *in) {
            float a = in[threadIdx.x];
            float b = in[threadIdx.x];
            out[threadIdx.x] = a * b;
        }
        """
        unit = parse_translation_unit(source)
        gen = ModuleGenerator(unit)
        name = gen.get_launch_wrapper("k", 1, (8,))
        data = np.arange(8, dtype=np.float32)
        src_buf = MemoryBuffer((8,), F32, data=data)
        out1 = MemoryBuffer((8,), F32)
        run_module(gen.module, name, [1, out1, src_buf])
        # CSE first: the two loads' index chains are clones until then
        run_rewrites(gen.module, ("canonicalize",))
        run_rewrites(gen.module, ("cse",))
        changed = run_rewrites(gen.module, ("load-elim",))
        assert changed
        out2 = MemoryBuffer((8,), F32)
        src_buf2 = MemoryBuffer((8,), F32, data=data)
        run_module(gen.module, name, [1, out2, src_buf2])
        np.testing.assert_array_equal(out1.array, out2.array)


class TestStoreToLoadForwarding:
    def test_forwarded(self, ctx):
        module, f, b, buf = ctx
        i = arith.index_constant(b, 0)
        value = arith.constant(b, 3.0, F32)
        memref.store(b, value, buf, [i])
        loaded = memref.load(b, buf, [i])
        memref.store(b, arith.addf(b, loaded, loaded), buf, [i])
        func.return_(b)
        run_rewrites(module, ("load-elim",))
        verify_module(module)
        assert count_loads(module.op) == 0

    def test_forwarding_blocked_by_barrier(self):
        source = """
        __global__ void k(float *out) {
            __shared__ float s[8];
            s[threadIdx.x] = 1.0f;
            __syncthreads();
            out[threadIdx.x] = s[7 - threadIdx.x];
        }
        """
        unit = parse_translation_unit(source)
        gen = ModuleGenerator(unit)
        name = gen.get_launch_wrapper("k", 1, (8,))
        run_rewrites(gen.module, ("load-elim",))
        assert count_loads(gen.module.op) == 1  # the post-barrier load

    def test_forwarding_preserves_execution(self):
        source = """
        __global__ void k(float *out) {
            float tmp[2];
            tmp[0] = 5.0f;
            tmp[1] = tmp[0] * 2.0f;
            out[threadIdx.x] = tmp[1];
        }
        """
        unit = parse_translation_unit(source)
        gen = ModuleGenerator(unit)
        name = gen.get_launch_wrapper("k", 1, (4,))
        run_rewrites(gen.module, ("load-elim",))
        verify_module(gen.module)
        out = MemoryBuffer((4,), F32)
        run_module(gen.module, name, [1, out])
        assert (out.array == 10.0).all()

    def test_cross_copy_reuse_after_block_coarsening(self):
        """The lud mechanism: copies' uniform loads dedup after coarsening."""
        from repro.transforms import block_coarsen, run_cleanup
        source = """
        __global__ void k(float *a, float *b) {
            float shared_row = a[threadIdx.x];   // uniform in blockIdx.x
            b[blockIdx.x * blockDim.x + threadIdx.x] = shared_row;
        }
        """
        unit = parse_translation_unit(source)
        gen = ModuleGenerator(unit)
        gen.get_launch_wrapper("k", 1, (32,))
        run_cleanup(gen.module)
        wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
        block_coarsen(wrapper, (4,))
        run_cleanup(gen.module)
        from repro.transforms.coarsen import block_parallels
        main = block_parallels(wrapper, include_epilogues=False)[0]
        # 4 copies of the load collapse to 1; 4 stores remain
        assert len(main.ops_matching("memref.load")) == 1
        assert len(main.ops_matching("memref.store")) == 4
