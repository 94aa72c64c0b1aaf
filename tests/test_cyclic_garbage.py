"""Erased, pruned and unselected IR dies by refcount.

Every IR object links back to its parent (``OpResult.owner``,
``Use.owner``, block and region parent links), so IR that is dropped
while still wired together is a reference cycle only the cycle collector
can free. Unrolling erases the source loop's shell, materialization
erases the original nest, pruning drops regions and selection erases the
alternatives op; each of them takes the dropped IR apart first
(:func:`repro.ir.unlink_subtree`), so none of it is left for the
collector. These tests run with the collector off and
``gc.DEBUG_SAVEALL`` on, which keeps every object the collector would
have had to free in ``gc.garbage`` where it can be counted.
"""

import gc
from contextlib import contextmanager

from repro.autotune import paper_sweep_configs
from repro.benchsuite import simulate_composite
from repro.benchsuite.base import get_benchmark
from repro.dialects import polygeist
from repro.engine import TuningCache, TuningEngine
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import Block, Operation, Region, Value
from repro.transforms import run_cleanup
from repro.transforms.alternatives import (plan_coarsening_alternatives,
                                           prune_alternatives,
                                           select_alternative)

#: objects one cold gaussian+lud tune on A100 and MI210 left for the
#: cycle collector while unrolling cloned copy 0 and erased IR kept its
#: internal links (measured with this file's method)
CLONE_AND_ERASE_GARBAGE = 357050


@contextmanager
def _saved_garbage():
    """Collect first, then keep everything the collector finds in the
    block in the yielded list instead of freeing it."""
    found = []
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _ir_objects(objects):
    return [o for o in objects
            if isinstance(o, (Operation, Block, Region, Value))]


def test_cold_tune_leaves_a_quarter_of_the_clone_and_erase_garbage():
    configs = paper_sweep_configs(max_product=8)
    with _saved_garbage() as garbage:
        for program in ("gaussian", "lud"):
            for arch in ("a100", "mi210"):
                simulate_composite(
                    program, arch, autotune_configs=configs,
                    engine=TuningEngine(cache=TuningCache(None)))
    assert len(garbage) <= CLONE_AND_ERASE_GARBAGE // 4, \
        "%d cyclic objects left by one cold tune" % len(garbage)


def test_pruned_and_unselected_regions_die_by_refcount():
    bench = get_benchmark("lud")
    generator = ModuleGenerator(parse_translation_unit(bench.source))
    generator.get_launch_wrapper("lud_internal", 2, (16, 16))
    module = generator.module
    run_cleanup(module)
    wrapper = polygeist.find_gpu_wrappers(module.op)[0]
    planned = plan_coarsening_alternatives(
        wrapper, paper_sweep_configs(max_product=8))
    alt = planned.materialize(range(len(planned.alternatives)))
    assert len(alt.regions) > 2
    with _saved_garbage() as garbage:
        prune_alternatives(alt, [0, 1])
        select_alternative(alt, 1)
        del alt
    # the module is still referenced here: only dropped IR can be garbage
    assert _ir_objects(garbage) == []
    assert module.op.ops_matching(polygeist.ALTERNATIVES) == []
