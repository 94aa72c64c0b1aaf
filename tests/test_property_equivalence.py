"""Property-based semantic equivalence of the coarsening transformations.

Hypothesis generates random CUDA kernels — arithmetic expression trees,
shared-memory tiles with barriers, constant-bound accumulation loops,
thread-dependent guards — and checks that every legal coarsening
configuration produces bit-identical results to the original (§VII-A's
methodology, generalized to a random program population).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import polygeist
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.interpreter import MemoryBuffer, run_module
from repro.ir import F32, verify_module
from repro.transforms import (CoarsenError, coarsen_wrapper, run_cleanup)
from repro.transforms.cleanup import REWRITES, cleanup

BLOCK = 8
GRID = 6
N = BLOCK * GRID


@st.composite
def random_expression(draw, depth=0):
    """A random float expression over t (thread), g (global id), x."""
    if depth >= 2 or draw(st.booleans()):
        return draw(st.sampled_from([
            "x", "(float)t", "(float)g", "1.5f", "0.25f", "v",
        ]))
    op = draw(st.sampled_from(["+", "-", "*"]))
    lhs = draw(random_expression(depth=depth + 1))
    rhs = draw(random_expression(depth=depth + 1))
    return "(%s %s %s)" % (lhs, op, rhs)


@st.composite
def random_kernel(draw):
    """A random but race-free kernel over in/out buffers of size N."""
    lines = [
        "int t = threadIdx.x;",
        "int g = blockIdx.x * blockDim.x + t;",
        "float x = in[g];",
        "float v = 0.0f;",
    ]
    use_shared = draw(st.booleans())
    if use_shared:
        lines.insert(0, "__shared__ float tile[%d];" % BLOCK)
        lines.append("tile[t] = %s;" % draw(random_expression()))
        lines.append("__syncthreads();")
        # read a rotated neighbor: exercises the barrier ordering
        shift = draw(st.integers(1, BLOCK - 1))
        lines.append("v = v + tile[(t + %d) %% %d];" % (shift, BLOCK))
    n_statements = draw(st.integers(1, 3))
    for _ in range(n_statements):
        kind = draw(st.sampled_from(["assign", "loop", "guard"]))
        if kind == "assign":
            lines.append("v = v + %s;" % draw(random_expression()))
        elif kind == "loop":
            trips = draw(st.integers(2, 5))
            lines.append("for (int j = 0; j < %d; j++) { v = v + x * j; }"
                         % trips)
        else:
            threshold = draw(st.integers(1, BLOCK - 1))
            lines.append("if (t < %d) { v = v + %s; }" %
                         (threshold, draw(random_expression())))
    if use_shared and draw(st.booleans()):
        # a second barrier phase
        lines.append("__syncthreads();")
        lines.append("tile[t] = v;")
        lines.append("__syncthreads();")
        lines.append("v = tile[%d] + v;" % draw(st.integers(0, BLOCK - 1)))
    lines.append("out[g] = v;")
    body = "\n    ".join(lines)
    return "__global__ void k(float *in, float *out) {\n    %s\n}" % body


def assert_at_fixpoint(module):
    """A second cleanup driver run over cleaned IR applies no rewrite."""
    counts = cleanup(module.op.regions, REWRITES, whole=True)
    assert not any(counts.values()), counts


def run_kernel(source, coarsen_config, data):
    unit = parse_translation_unit(source)
    generator = ModuleGenerator(unit)
    name = generator.get_launch_wrapper("k", 1, (BLOCK,))
    run_cleanup(generator.module)
    if coarsen_config:
        wrapper = polygeist.find_gpu_wrappers(generator.module.op)[0]
        coarsen_wrapper(wrapper, **coarsen_config)
        run_cleanup(generator.module)
    verify_module(generator.module)
    assert_at_fixpoint(generator.module)
    src_buf = MemoryBuffer((N,), F32, data=data)
    out = MemoryBuffer((N,), F32)
    run_module(generator.module, name, [GRID, src_buf, out])
    return out.array


CONFIGS = [
    {"thread_total": 2},
    {"thread_total": 4},
    {"block_total": 2},
    {"block_total": 3},           # non-divisor: exercises the epilogue
    {"block_total": 2, "thread_total": 2},
]


@given(random_kernel(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_property_coarsening_equivalence(source, seed):
    rng = np.random.default_rng(seed)
    data = rng.random(N, dtype=np.float32)
    reference = run_kernel(source, None, data)
    for config in CONFIGS:
        try:
            result = run_kernel(source, config, data)
        except CoarsenError:
            continue  # illegal for this kernel: fine, skip
        np.testing.assert_array_equal(
            result, reference,
            err_msg="config %r broke kernel:\n%s" % (config, source))


@given(random_kernel())
@settings(max_examples=15, deadline=None)
def test_property_cleanup_equivalence(source):
    """The cleanup pipeline alone must also preserve semantics."""
    rng = np.random.default_rng(7)
    data = rng.random(N, dtype=np.float32)

    unit = parse_translation_unit(source)
    generator = ModuleGenerator(unit)
    name = generator.get_launch_wrapper("k", 1, (BLOCK,))
    src1 = MemoryBuffer((N,), F32, data=data)
    out1 = MemoryBuffer((N,), F32)
    run_module(generator.module, name, [GRID, src1, out1])

    run_cleanup(generator.module)
    verify_module(generator.module)
    assert_at_fixpoint(generator.module)
    src2 = MemoryBuffer((N,), F32, data=data)
    out2 = MemoryBuffer((N,), F32)
    run_module(generator.module, name, [GRID, src2, out2])
    np.testing.assert_array_equal(out1.array, out2.array)


# -- benchsuite-wide differential validation ----------------------------------

from repro.benchsuite import BENCHMARKS, get_benchmark
from repro.validate import validate_source
from repro.validate.differential import BENCH_CONFIGS

#: kernels whose baseline is known to execute and be order-insensitive
#: under seeded inputs; a regression that knocks one back to "skipped"
#: (e.g. a broken scalar ladder or race probe) must fail loudly
CONCLUSIVE_KERNELS = {
    "bfs": {"bfs_kernel2"},
    "cfd": {"cuda_compute_flux", "cuda_time_step"},
    "gaussian": {"Fan1", "Fan2"},
    "hotspot": {"calculate_temp"},
    "hotspot3D": {"hotspotOpt1"},
    "myocyte": {"solver_kernel"},
    "nn": {"euclid"},
    "particlefilter": {"likelihood_kernel", "sum_kernel",
                       "normalize_kernel", "find_index_kernel"},
    "srad_v1": {"extract", "reduce", "srad", "srad2"},
    "streamcluster": {"compute_cost"},
}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchsuite_differential_equivalence(name):
    """Every coarsening alternative of every benchsuite kernel must match
    the untransformed baseline under {thread, block} x {2, 4} (exact for
    ints, tolerant for floats); inconclusive baselines are skipped but
    the kernels in CONCLUSIVE_KERNELS must stay conclusive."""
    bench = get_benchmark(name)
    seen = set()
    conclusive = set()
    for kernel, grid, block in bench.iter_launches(bench.verify_size):
        key = (kernel, len(grid), tuple(block))
        if key in seen:
            continue
        seen.add(key)
        report = validate_source(bench.source, kernel, list(grid),
                                 tuple(block),
                                 configs=list(BENCH_CONFIGS))
        assert report.ok, "%s/%s:\n%s" % (name, kernel, report.summary())
        if not report.baseline_note:
            conclusive.add(kernel)
    missing = CONCLUSIVE_KERNELS.get(name, set()) - conclusive
    assert not missing, \
        "kernels regressed to inconclusive validation: %s" % sorted(missing)
