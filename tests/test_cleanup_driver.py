"""The cleanup worklist driver: rewrite chains, fixpoints and cost.

Each chain test builds IR where one rewrite enables another (CSE makes a
select foldable, forwarding exposes a fold, a fold makes an op loop
invariant for LICM and then CSE, an inlined ``scf.if`` meets CSE, a dead
chain spans nested regions). The driver must re-enqueue what each rewrite
changed, so the printed IR after :func:`run_cleanup` must equal what the
pass-per-rewrite pipeline printed when run to its fixpoint (recorded
below). A second run over any cleaned output must apply no rewrite, and
cleaning an already clean region must cost one walk, not a confirmation
round of every pass.
"""

import pytest

from repro.autotune import paper_sweep_configs
from repro.benchsuite.base import BENCHMARKS, get_benchmark
from repro.dialects import arith, func, memref, polygeist, scf
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import (Builder, FunctionType, I1, INDEX, MemRefType, Module,
                      print_module, verify_module)
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import tracing
from repro.transforms import cleanup_regions, run_cleanup
from repro.transforms.alternatives import plan_coarsening_alternatives
from repro.transforms.cleanup import REWRITES, cleanup


def assert_at_fixpoint(roots, whole=True):
    """A second driver run over cleaned IR applies no rewrite."""
    counts = cleanup(roots, REWRITES, whole=whole)
    assert not any(counts.values()), counts


def _func():
    module = Module()
    f = func.func(Builder(module.body), "f", FunctionType((INDEX,), ()),
                  ["n"])
    b = Builder(f.body_block())
    n = f.body_block().arg(0)
    buf = memref.alloc(b, MemRefType((8,), INDEX))
    return module, b, n, buf


def cse_enables_select_fold():
    module, b, n, buf = _func()
    c0 = arith.index_constant(b, 0)
    x = arith.addi(b, n, n)
    y = arith.addi(b, n, n)
    cond = arith.cmpi(b, "lt", n, x)
    memref.store(b, arith.select(b, cond, x, y), buf, [c0])
    func.return_(b)
    return module


def forwarding_enables_fold():
    module, b, n, buf = _func()
    c0 = arith.index_constant(b, 0)
    c5 = arith.index_constant(b, 5)
    memref.store(b, c5, buf, [c0])
    loaded = memref.load(b, buf, [c0])
    total = arith.addi(b, loaded, arith.index_constant(b, 2))
    memref.store(b, total, buf, [n])
    func.return_(b)
    return module


def fold_licm_cse():
    module, b, n, buf = _func()
    c0 = arith.index_constant(b, 0)
    c1 = arith.index_constant(b, 1)
    c8 = arith.index_constant(b, 8)
    loop = scf.for_(b, c0, c8, c1)
    lb = Builder(loop.body_block())
    i = loop.body_block().arg(0)
    zero = arith.muli(lb, i, c0)
    inner = arith.cmpi(lb, "lt", n, zero)
    memref.store(lb, arith.select(lb, inner, i, n), buf, [i])
    scf.yield_(lb)
    after = arith.cmpi(b, "lt", n, c0)
    memref.store(b, arith.select(b, after, n, c1), buf, [c0])
    func.return_(b)
    return module


def inlined_if_then_cse():
    module, b, n, buf = _func()
    c0 = arith.index_constant(b, 0)
    outer = arith.addi(b, n, n)
    memref.store(b, outer, buf, [n])
    if_op = scf.if_(b, arith.constant(b, 1, I1), [INDEX])
    tb = Builder(scf.if_then_block(if_op))
    scf.yield_(tb, [arith.addi(tb, n, n)])
    eb = Builder(scf.if_else_block(if_op))
    scf.yield_(eb, [n])
    memref.store(b, if_op.result(), buf, [c0])
    func.return_(b)
    return module


def dead_chain_across_regions():
    module, b, n, buf = _func()
    c0 = arith.index_constant(b, 0)
    c1 = arith.index_constant(b, 1)
    c8 = arith.index_constant(b, 8)
    dead = arith.addi(b, n, n)
    loop = scf.for_(b, c0, c8, c1)
    lb = Builder(loop.body_block())
    i = loop.body_block().arg(0)
    product = arith.muli(lb, dead, i)
    if_op = scf.if_(lb, arith.cmpi(lb, "lt", i, n))
    tb = Builder(scf.if_then_block(if_op))
    arith.addi(tb, product, product)
    scf.yield_(tb)
    scf.yield_(Builder(scf.if_else_block(if_op)))
    memref.store(lb, i, buf, [i])
    scf.yield_(lb)
    func.return_(b)
    return module


#: the printed IR the pass pipeline reached at its fixpoint
EXPECTED = {
    "cse_enables_select_fold": """\
"builtin.module"() : () -> () (
  {
    "func.func"() {function_type = !(index) -> (), sym_name = "f"} : () -> () (
      {
        ^(%n: index):
        %buf = "memref.alloc"() : () -> (memref<8xindex>)
        %c0 = "arith.constant"() {value = 0} : () -> (index)
        %v = "arith.addi"(%n, %n) : (index, index) -> (index)
        "memref.store"(%v, %buf, %c0) : (index, memref<8xindex>, index) -> ()
        "func.return"() : () -> ()
      }
    )
  }
)""",
    "forwarding_enables_fold": """\
"builtin.module"() : () -> () (
  {
    "func.func"() {function_type = !(index) -> (), sym_name = "f"} : () -> () (
      {
        ^(%n: index):
        %buf = "memref.alloc"() : () -> (memref<8xindex>)
        %c0 = "arith.constant"() {value = 0} : () -> (index)
        %c5 = "arith.constant"() {value = 5} : () -> (index)
        "memref.store"(%c5, %buf, %c0) : (index, memref<8xindex>, index) -> ()
        %c7 = "arith.constant"() {value = 7} : () -> (index)
        "memref.store"(%c7, %buf, %n) : (index, memref<8xindex>, index) -> ()
        "func.return"() : () -> ()
      }
    )
  }
)""",
    "fold_licm_cse": """\
"builtin.module"() : () -> () (
  {
    "func.func"() {function_type = !(index) -> (), sym_name = "f"} : () -> () (
      {
        ^(%n: index):
        %buf = "memref.alloc"() : () -> (memref<8xindex>)
        %c0 = "arith.constant"() {value = 0} : () -> (index)
        %c1 = "arith.constant"() {value = 1} : () -> (index)
        %c8 = "arith.constant"() {value = 8} : () -> (index)
        %v = "arith.cmpi"(%n, %c0) {predicate = "lt"} : (index, index) -> (i1)
        "scf.for"(%c0, %c8, %c1) : (index, index, index) -> () (
          {
            ^(%i: index):
            %v_1 = "arith.select"(%v, %i, %n) : (i1, index, index) -> (index)
            "memref.store"(%v_1, %buf, %i) : (index, memref<8xindex>, index) -> ()
            "scf.yield"() : () -> ()
          }
        )
        %v_2 = "arith.select"(%v, %n, %c1) : (i1, index, index) -> (index)
        "memref.store"(%v_2, %buf, %c0) : (index, memref<8xindex>, index) -> ()
        "func.return"() : () -> ()
      }
    )
  }
)""",
    "inlined_if_then_cse": """\
"builtin.module"() : () -> () (
  {
    "func.func"() {function_type = !(index) -> (), sym_name = "f"} : () -> () (
      {
        ^(%n: index):
        %buf = "memref.alloc"() : () -> (memref<8xindex>)
        %c0 = "arith.constant"() {value = 0} : () -> (index)
        %v = "arith.addi"(%n, %n) : (index, index) -> (index)
        "memref.store"(%v, %buf, %n) : (index, memref<8xindex>, index) -> ()
        "memref.store"(%v, %buf, %c0) : (index, memref<8xindex>, index) -> ()
        "func.return"() : () -> ()
      }
    )
  }
)""",
    "dead_chain_across_regions": """\
"builtin.module"() : () -> () (
  {
    "func.func"() {function_type = !(index) -> (), sym_name = "f"} : () -> () (
      {
        ^(%n: index):
        %buf = "memref.alloc"() : () -> (memref<8xindex>)
        %c0 = "arith.constant"() {value = 0} : () -> (index)
        %c1 = "arith.constant"() {value = 1} : () -> (index)
        %c8 = "arith.constant"() {value = 8} : () -> (index)
        "scf.for"(%c0, %c8, %c1) : (index, index, index) -> () (
          {
            ^(%i: index):
            %v = "arith.cmpi"(%i, %n) {predicate = "lt"} : (index, index) -> (i1)
            "scf.if"(%v) : (i1) -> () (
              {
                "scf.yield"() : () -> ()
              },
              {
                "scf.yield"() : () -> ()
              }
            )
            "memref.store"(%i, %buf, %i) : (index, memref<8xindex>, index) -> ()
            "scf.yield"() : () -> ()
          }
        )
        "func.return"() : () -> ()
      }
    )
  }
)""",
}

CHAINS = {
    "cse_enables_select_fold": cse_enables_select_fold,
    "forwarding_enables_fold": forwarding_enables_fold,
    "fold_licm_cse": fold_licm_cse,
    "inlined_if_then_cse": inlined_if_then_cse,
    "dead_chain_across_regions": dead_chain_across_regions,
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_rewrite_chain_reaches_the_pipeline_fixpoint(name):
    module = CHAINS[name]()
    verify_module(module)
    run_cleanup(module)
    verify_module(module)
    assert print_module(module) == EXPECTED[name]
    assert_at_fixpoint(module.op.regions)


class _CountingOps(list):
    """A block's op list that counts the walks over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _lud_alternatives():
    bench = get_benchmark("lud")
    generator = ModuleGenerator(parse_translation_unit(bench.source))
    generator.get_launch_wrapper("lud_internal", 2, (16, 16))
    run_cleanup(generator.module)
    wrapper = polygeist.find_gpu_wrappers(generator.module.op)[0]
    planned = plan_coarsening_alternatives(
        wrapper, paper_sweep_configs(max_product=4))
    alt = planned.materialize(range(len(planned.alternatives)))
    return generator.module, alt


def _blocks_under(regions):
    blocks = []
    stack = [block for region in regions for block in region.blocks]
    while stack:
        block = stack.pop()
        blocks.append(block)
        for op in block.ops:
            for region in op.regions:
                stack.extend(region.blocks)
    return blocks


def test_clean_region_costs_one_walk():
    # a whole round of six passes to confirm the fixpoint walked every
    # block at least six times
    _, alt = _lud_alternatives()
    cleanup_regions(list(alt.regions))
    blocks = _blocks_under(alt.regions)
    for block in blocks:
        block.ops = _CountingOps(block.ops)
    with obs_metrics.collecting() as registry:
        cleanup_regions(list(alt.regions))
    assert max(block.ops.iterations for block in blocks) <= 2
    ops = sum(len(block.ops) for block in blocks)
    assert registry.counter("cleanup.visited").value <= 2 * ops


def test_cleanup_reports_one_span_and_counters_per_call():
    module, alt = _lud_alternatives()
    with tracing() as tracer, obs_metrics.collecting() as registry:
        cleanup_regions(list(alt.regions))
    (span,) = [s for s in tracer.finished() if s.name == "cleanup"]
    assert span.args["regions"] == len(alt.regions)
    assert span.args["visited"] > 0
    assert set(REWRITES) <= set(span.args)
    assert span.args["cse"] > 0 and span.args["dce"] > 0
    counters = registry.snapshot()["counters"]
    for rewrite in REWRITES:
        assert counters["cleanup.rewrites." + rewrite] == span.args[rewrite]
    assert counters["cleanup.visited"] == span.args["visited"]
    assert not [s for s in tracer.finished() if s.name.startswith("pass:")]


def _launch_groups(bench):
    groups = {}
    for kernel, grid, block in bench.iter_launches(bench.verify_size):
        groups.setdefault((kernel, tuple(block)), []).append(tuple(grid))
    return groups


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchsuite_cleanup_output_is_a_fixpoint(name):
    """Every launch group the materialize fixture covers, at every
    ``max_product``: the pre-cleaned module and the cleaned alternatives
    regions give a second driver run nothing to do."""
    bench = get_benchmark(name)
    checked = 0
    for (kernel, block), grids in _launch_groups(bench).items():
        for max_product in (4, 8, 16):
            generator = ModuleGenerator(parse_translation_unit(bench.source))
            wrapper_name = generator.get_launch_wrapper(
                kernel, len(grids[0]), block)
            module = generator.module
            run_cleanup(module)
            if max_product == 4:
                assert_at_fixpoint(module.op.regions)
            wrapper = polygeist.find_gpu_wrappers(
                module.func(wrapper_name))[0]
            planned = plan_coarsening_alternatives(
                wrapper, paper_sweep_configs(max_product=max_product))
            if not planned.alternatives:
                continue
            alt = planned.materialize(range(len(planned.alternatives)))
            cleanup_regions(list(alt.regions))
            assert_at_fixpoint(list(alt.regions), whole=False)
            assert_at_fixpoint(module.op.regions)
            checked += 1
    assert checked > 0
