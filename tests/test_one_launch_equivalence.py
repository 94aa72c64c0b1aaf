"""One launch is a one-row table: equivalence with the scalar oracle.

The product has no scalar timing path. ``KernelModel.time_launch``
times one launch as a one-row ``BatchedKernelModel`` batch and derives
its metrics and breakdown from the batch's terms;
``Program.model_launch`` counts each loop's blocks with ``block_counts``
over a one-row table and builds on ``time_launch``. These tests hold both
to the scalar oracle of ``tests/scalar_oracle.py`` with ``==``, no
tolerance, on every field: benchsuite-wide in every tier on A100 and
MI210. A hypothesis property sweep holds ``block_counts`` to the oracle's
``block_count`` over random index expression trees and grid tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import paper_sweep_configs
from repro.benchsuite.base import BENCHMARKS, get_benchmark, group_launches
from repro.dialects import polygeist
from repro.engine import TuningCache, TuningEngine
from repro.pipeline import TIERS, Program
from repro.simulator.model import InvalidLaunch
from repro.targets import A100, MI210
from repro.transforms.coarsen import block_parallels

from tests import scalar_oracle

CONFIGS = paper_sweep_configs(max_product=4)


def _outcome(fn, *args):
    """``fn(*args)``, or the reason of the InvalidLaunch it raised."""
    try:
        return fn(*args)
    except InvalidLaunch as error:
        return "InvalidLaunch: %s" % error


def _modeled_program(name, arch, tier):
    """A Program of ``name`` in ``tier``, tuned over every launch group
    like a composite job, and the groups at the model size."""
    bench = get_benchmark(name)
    program = Program(bench.source, arch=arch, tier=tier,
                      autotune_configs=CONFIGS,
                      engine=TuningEngine(cache=TuningCache(None),
                                          validate=False))
    groups = group_launches(bench.iter_launches(bench.model_size))
    if tier == "polygeist":
        for (kernel, block), table in groups.tables.items():
            program.tune_aggregate(kernel, block, table)
    return program, groups


def _block_counts_to_check(model):
    """0, 1, one short of and one past the SM count, one past a wave."""
    num_sms = model.arch.num_sms
    return (0, 1, num_sms - 1, num_sms + 1,
            model.features().wave_divisor + 1)


@pytest.mark.parametrize("arch", [A100, MI210], ids=lambda a: a.name)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_one_launch_matches_scalar_oracle(name, arch):
    checked_loops = 0
    for tier in TIERS:
        program, groups = _modeled_program(name, arch, tier)
        for (kernel, block), table in groups.tables.items():
            for grid in table.tolist():
                product = _outcome(program.model_launch, kernel, grid,
                                   block)
                oracle = _outcome(scalar_oracle.model_launch, program,
                                  kernel, grid, block)
                assert product == oracle, (tier, kernel, grid)
        if tier == "polygeist":
            # the tuned winners are among the loops checked below
            assert program.tuning_outcomes
        for wrapper in polygeist.find_gpu_wrappers(program.module.op):
            for loop in block_parallels(wrapper):
                model = _outcome(program.loop_model, loop)
                if isinstance(model, str):
                    continue
                for blocks in _block_counts_to_check(model):
                    product = _outcome(model.time_launch, blocks)
                    oracle = _outcome(scalar_oracle.launch_timing, model,
                                      blocks)
                    assert product == oracle, (tier, blocks)
                checked_loops += 1
    assert checked_loops


def test_zero_blocks_time_to_nothing():
    program, groups = _modeled_program("nw", A100, "clang")
    (kernel, block), table = next(iter(groups.tables.items()))
    program.model_launch(kernel, table[0].tolist(), block)
    wrapper = polygeist.find_gpu_wrappers(program.module.op)[0]
    model = program.loop_model(block_parallels(wrapper)[0])
    timing = model.time_launch(0)
    assert timing.time_seconds == 0.0
    assert timing.metrics == scalar_oracle.KernelMetrics()
    assert timing.breakdown == {}


# -- property test over random index expressions ----------------------------

#: the binary index ops of the bound evaluator
_BINARY = ("arith.addi", "arith.subi", "arith.muli", "arith.divsi",
           "arith.remsi", "arith.minsi", "arith.maxsi")
#: grid arguments per table; leaf values stay small enough that no tree
#: below overflows int64 (at most 8 leaves of magnitude <= 9, two dims)
_ARGS = 3

_leaf = st.one_of(st.tuples(st.just("arg"), st.integers(0, _ARGS - 1)),
                  st.tuples(st.just("const"), st.integers(-4, 4)))
_tree = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(_BINARY), children, children),
        st.tuples(st.just("arith.index_cast"), children)),
    max_leaves=8)


def _build(builder, args, tree):
    from repro.dialects import arith
    from repro.ir import INDEX

    kind = tree[0]
    if kind == "arg":
        return args[tree[1]]
    if kind == "const":
        return arith.index_constant(builder, tree[1])
    operands = [_build(builder, args, child) for child in tree[1:]]
    return builder.create(kind, operands, [INDEX]).result()


def _loop_over(bounds):
    """A block loop whose (lower, upper) bound trees are ``bounds``, and
    the grid arguments its trees read."""
    from repro.dialects import arith, scf
    from repro.ir import INDEX, Block, Builder

    entry = Block([INDEX] * _ARGS)
    builder = Builder(entry)
    lbs = [_build(builder, entry.args, lb) for lb, _ in bounds]
    ubs = [_build(builder, entry.args, ub) for _, ub in bounds]
    steps = [arith.index_constant(builder, 1) for _ in bounds]
    loop = scf.parallel(builder, lbs, ubs, steps, gpu_kind="blocks")
    return loop, entry.args


@settings(max_examples=300, deadline=None)
@given(bounds=st.lists(st.tuples(_tree, _tree), min_size=1, max_size=2),
       table=st.integers(1, 6).flatmap(lambda rows: st.lists(
           st.lists(st.integers(-9, 9), min_size=_ARGS, max_size=_ARGS),
           min_size=rows, max_size=rows)))
def test_block_counts_match_scalar_evaluator(bounds, table):
    import numpy as np

    from repro.simulator.model import LaunchEnvs, block_counts

    loop, args = _loop_over(bounds)
    envs = LaunchEnvs(args, np.array(table, dtype=np.int64))
    expected = []
    for env in envs:
        blocks = scalar_oracle.block_count(loop, env)
        expected.append(-1 if blocks is None else blocks)
    assert block_counts(loop, envs).tolist() == expected
    # a dict list stacks to the same table, and each row alone agrees
    dicts = list(envs)
    assert block_counts(loop, dicts).tolist() == expected
    for env, blocks in zip(dicts, expected):
        assert block_counts(loop, [env]).tolist() == [blocks]
