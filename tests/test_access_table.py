"""The access table of a linearized thread body against fresh-call oracles.

Every stream the tuning path builds for the benchsuite (the pre-cleaned
wrapper's loops and every ``paper_sweep_configs(max_product=8)``
alternative) must give, for each memory access, the stride a fresh
:class:`AccessMemo` computes from the flattened address, and the same
``max_live`` as the sort-based sweep the stream used to run.
"""

import pytest

from repro.analysis.affine import AccessMemo, _flat_affine, _stride_of
from repro.dialects import arith, memref
from repro.ir import Builder, F32, MemRefType
from repro.targets import linearize_thread_body
from repro.targets.lowering import _value_registers
from repro.transforms.coarsen import thread_parallel
from tests.test_analysis import kernel_ir, stride_in
from tests.test_model_equivalence import generator

MAX_PRODUCT = 8


def sorted_max_live(lin):
    """``Linearized.max_live`` as one sort over (index, ±units) events."""
    events = []
    for value, definition in lin.def_index.items():
        last = lin.last_use.get(value)
        if last is None or last < definition:
            continue
        units = _value_registers(value)
        if units == 0:
            continue
        events.append((definition, units))
        events.append((last + 1, -units))
    events.sort()
    live = 0
    max_live = 0
    for _, delta in events:
        live += delta
        max_live = max(max_live, live)
    return max_live


def benchsuite_thread_loops(name):
    """The thread loop of every block loop a tune of ``name`` models."""
    from repro.autotune import paper_sweep_configs
    from repro.benchsuite.base import get_benchmark
    from repro.dialects import polygeist
    from repro.frontend import ModuleGenerator, parse_translation_unit
    from repro.transforms import cleanup_regions, run_cleanup
    from repro.transforms.alternatives import plan_coarsening_alternatives
    from repro.transforms.coarsen import (block_parallels,
                                          block_parallels_in_region)

    materialize = generator._materialize_generator()
    bench = get_benchmark(name)
    for (kernel, block), grids in materialize.launch_groups(bench).items():
        gen = ModuleGenerator(parse_translation_unit(bench.source))
        wrapper_name = gen.get_launch_wrapper(kernel, len(grids[0]), block)
        run_cleanup(gen.module)
        wrapper = polygeist.find_gpu_wrappers(
            gen.module.func(wrapper_name))[0]
        for loop in block_parallels(wrapper):
            yield thread_parallel(loop)
        planned = plan_coarsening_alternatives(
            wrapper, paper_sweep_configs(max_product=MAX_PRODUCT))
        if not planned.alternatives:
            continue
        alt = planned.materialize(range(len(planned.alternatives)))
        cleanup_regions(list(alt.regions))
        for region in alt.regions:
            for loop in block_parallels_in_region(region):
                yield thread_parallel(loop)


@pytest.mark.parametrize("name", generator.benchmarks())
def test_benchsuite_streams_match_fresh_oracles(name):
    streams = accesses = 0
    for threads in benchsuite_thread_loops(name):
        lin = linearize_thread_body(threads)
        memo = AccessMemo(threads)
        table = lin.access_table(memo)
        assert [access.instr for access in table] == \
            [instr for instr in lin.instrs if instr.kind in ("load", "store")]
        for access in table:
            op = access.instr.op
            fresh = AccessMemo(threads)
            assert access.stride_x == \
                _stride_of(_flat_affine(op, fresh), fresh), op
            for index in memref.access_indices(op):
                assert memo.index_stride(index) == \
                    stride_in(index, memo.tid_x)
        assert lin.max_live == sorted_max_live(lin)
        streams += 1
        accesses += len(table)
    assert streams and accesses


def test_cancelling_indices_use_the_flattened_form():
    # s[d + x][x - 4d] over an 8x4 memref flattens to 4(d + x) + (x - 4d)
    # = 5x: both indices carry d = x * x, which depends on threadIdx.x,
    # so neither index has a stride of its own, but d cancels in the sum
    from repro.simulator.coalescing import analyze_shared_conflicts
    _, _, threads = kernel_ir("""
    __global__ void k(float *a) {
        a[threadIdx.x] = 0.0f;
    }
    """)
    body = threads.body_block()
    x = body.arg(0)
    builder = Builder(body, 0)
    ref = memref.alloca(builder, MemRefType((8, 4), F32, "shared"))
    d = arith.muli(builder, x, x)
    first = arith.addi(builder, d, x)
    second = arith.subi(builder, x, arith.muli(
        builder, arith.index_constant(builder, 4), d))
    memref.load(builder, ref, [first, second])

    memo = AccessMemo(threads)
    assert memo.index_stride(first) is None
    assert memo.index_stride(second) is None
    lin = linearize_thread_body(threads)
    [access] = [access for access in lin.access_table(memo)
                if access.space == "shared"]
    fresh = AccessMemo(threads)
    assert access.stride_x == \
        _stride_of(_flat_affine(access.instr.op, fresh), fresh) == 5
    # stride 5 words hits 32 distinct banks: no conflict
    assert analyze_shared_conflicts(lin, memo) == 1.0
