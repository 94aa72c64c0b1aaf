"""Tests for alternative code paths (multi-versioning, §VI)."""

import numpy as np
import pytest

from repro.dialects import polygeist
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.interpreter import MemoryBuffer, run_module
from repro.ir import F32, verify_module
from repro.transforms import (plan_coarsening_alternatives,
                              select_alternative)
from repro.transforms.alternatives import find_alternatives, \
    prune_alternatives

SOURCE = """
__global__ void k(float *in, float *out) {
    __shared__ float tile[8];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    tile[t] = in[g] * 2.0f;
    __syncthreads();
    out[g] = tile[7 - t];
}
"""

DIVERGENT = """
__global__ void k(float *out) {
    __shared__ float s[8];
    if (blockIdx.x > 0) {
        s[threadIdx.x] = 1.0f;
        __syncthreads();
        out[blockIdx.x * 8 + threadIdx.x] = s[threadIdx.x];
    }
}
"""


def build(source=SOURCE):
    unit = parse_translation_unit(source)
    gen = ModuleGenerator(unit)
    name = gen.get_launch_wrapper("k", 1, (8,))
    wrapper = polygeist.find_gpu_wrappers(gen.module.op)[0]
    return gen.module, name, wrapper


CONFIGS = [
    {"block_total": 1, "thread_total": 1},
    {"block_total": 2, "thread_total": 1},
    {"block_total": 1, "thread_total": 2},
    {"block_total": 2, "thread_total": 2},
]


def generate(wrapper, configs=CONFIGS):
    """Plan every config and materialize all legal ones."""
    planned = plan_coarsening_alternatives(wrapper, configs)
    return planned, planned.materialize(range(len(planned.alternatives)))


def _ops_in(regions):
    ops = set()
    for region in regions:
        for block in region.blocks:
            for op in block.ops:
                op.walk(ops.add)
    return ops


def _dangling_uses(module):
    """Uses, of any value reachable from ``module``, whose owner is not an
    op of ``module`` (a dropped op the use lists still remember)."""
    live, values = set(), {}
    def visit(op):
        live.add(op)
        for value in op.results + op.operands:
            values[id(value)] = value
        for region in op.regions:
            for block in region.blocks:
                for arg in block.args:
                    values[id(arg)] = arg
    module.op.walk(visit)
    return [(value, use.owner.name) for value in values.values()
            for use in value.uses if use.owner not in live]


class TestGeneration:
    def test_regions_created(self):
        module, name, wrapper = build()
        planned, alt = generate(wrapper)
        verify_module(module)
        assert len(alt.regions) == 4
        assert len(polygeist.alternative_descs(alt)) == 4
        assert not planned.rejected

    def test_illegal_configs_rejected(self):
        module, name, wrapper = build(DIVERGENT)
        planned, alt = generate(wrapper)
        # block coarsening configs are illegal for this kernel
        assert len(planned.rejected) == 2
        assert len(planned.alternatives) == 2
        assert len(alt.regions) == 2

    def test_each_alternative_equivalent(self):
        rng = np.random.default_rng(5)
        data = rng.random(32, dtype=np.float32)

        module, name, wrapper = build()
        inp = MemoryBuffer((32,), F32, data=data)
        reference = MemoryBuffer((32,), F32)
        run_module(module, name, [4, inp, reference])

        module2, name2, wrapper2 = build()
        _, alt = generate(wrapper2)
        verify_module(module2)
        for index in range(len(alt.regions)):
            inp2 = MemoryBuffer((32,), F32, data=data)
            out2 = MemoryBuffer((32,), F32)
            run_module(module2, name2, [4, inp2, out2],
                       alternative_selector=lambda op: index)
            np.testing.assert_array_equal(out2.array, reference.array,
                                          err_msg="alternative %d" % index)


class TestSelection:
    def test_select_splices_region(self):
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        select_alternative(alt, 3)
        verify_module(module)
        assert not find_alternatives(module.op)
        # the selected config (block 2, thread 2) is in place
        from repro.transforms.coarsen import block_parallels, \
            thread_parallel
        from repro.dialects import arith, scf
        mains = block_parallels(wrapper, include_epilogues=False)
        threads = thread_parallel(mains[0])
        ub = scf.parallel_upper_bounds(threads)[0]
        assert arith.constant_value(ub) == 4  # 8 / thread factor 2

    def test_selected_module_runs(self):
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        select_alternative(alt, 1)
        verify_module(module)
        inp = MemoryBuffer((32,), F32,
                           data=np.arange(32, dtype=np.float32))
        out = MemoryBuffer((32,), F32)
        run_module(module, name, [4, inp, out])
        expected = (np.arange(32).reshape(4, 8) * 2)[:, ::-1].ravel()
        np.testing.assert_array_equal(out.array,
                                      expected.astype(np.float32))

    def test_prune(self):
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        prune_alternatives(alt, [0, 2])
        verify_module(module)
        assert len(alt.regions) == 2
        descs = polygeist.alternative_descs(alt)
        assert len(descs) == 2

    def test_prune_unlinks_dropped_regions(self):
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        dropped = [alt.regions[1], alt.regions[3]]
        # the dropped regions do read values defined outside them
        inside = _ops_in(dropped)
        assert any(use.owner in inside
                   for arg in module.func(name).body_block().args
                   for use in arg.uses)
        prune_alternatives(alt, [0, 2])
        assert _dangling_uses(module) == []
        select_alternative(alt, 1)
        assert _dangling_uses(module) == []

    def test_register_filter_prune_unlinks(self, monkeypatch):
        from repro.autotune import filters
        from repro.targets import A100
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        monkeypatch.setattr(filters, "_region_max_registers",
                            lambda alt, index, arch: 0 if index == 2 else 8)
        report = filters.prune_by_registers(alt, A100)
        assert report.survivors == [2] and len(alt.regions) == 1
        assert _dangling_uses(module) == []

    def test_validation_gate_prune_unlinks(self, monkeypatch):
        import repro.validate
        from repro.autotune.tdo import _validation_gate
        from repro.validate.differential import (DIVERGED, OK,
                                                 AlternativeVerdict,
                                                 ValidationReport)
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        descs = polygeist.alternative_descs(alt)
        report = ValidationReport(verdicts=[
            AlternativeVerdict(desc, OK if index % 2 else DIVERGED,
                               "forced")
            for index, desc in enumerate(descs)])
        monkeypatch.setattr(repro.validate, "validate_alternatives",
                            lambda *args: report)
        _, keep = _validation_gate(alt, None, {}, None)
        assert keep == [1, 3] and len(alt.regions) == 2
        assert _dangling_uses(module) == []

    def test_prune_all_rejected(self):
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        with pytest.raises(ValueError):
            prune_alternatives(alt, [])

    def test_out_of_range_selection(self):
        module, name, wrapper = build()
        _, alt = generate(wrapper)
        with pytest.raises(IndexError):
            select_alternative(alt, 9)
