"""Record what alternative materialization builds across the benchsuite.

For every benchsuite launch group (kernel and block shape, at the cheap
verification size) and every ``paper_sweep_configs(max_product=N)`` with
N in 4, 8 and 16, the kernel's launch wrapper is parsed, pre-cleaned,
planned and materialized with every legal alternative. The record holds
a SHA-256 of the printed module just after materialization and another
after :func:`repro.transforms.cleanup_regions`, plus the TDO winner
(description and modeled seconds, summed over the group's grids) on
A100 and MI210.

``tests/test_materialize_equivalence.py`` recomputes the record and
asserts it equals the committed ``materialize_equivalence.json``, so a
change to coarsening that alters a single printed byte of any
alternative, before or after cleanup, or any winner, fails tier-1.

Regenerate (only when a change is *meant* to alter these results)::

    PYTHONPATH=src python3 tests/data/make_materialize_equivalence.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "materialize_equivalence.json")
ARCHS = ("a100", "mi210")
MAX_PRODUCTS = (4, 8, 16)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def launch_groups(bench) -> Dict[tuple, List[tuple]]:
    """(kernel, block) -> grids, at the cheap verification size."""
    groups: Dict[tuple, List[tuple]] = {}
    for kernel, grid, block in bench.iter_launches(bench.verify_size):
        groups.setdefault((kernel, tuple(block)), []).append(tuple(grid))
    return groups


def collect_group(bench, kernel: str, block: tuple, grids: List[tuple],
                  max_product: int,
                  on_materialized: Optional[Callable] = None
                  ) -> Dict[str, object]:
    """The record of one launch group at one ``max_product``.

    ``on_materialized`` is called with the ``polygeist.alternatives`` op
    right after materialization, before cleanup.
    """
    from repro.autotune import paper_sweep_configs
    from repro.autotune.tdo import timing_driven_optimization
    from repro.dialects import polygeist
    from repro.frontend import ModuleGenerator, parse_translation_unit
    from repro.ir import print_module
    from repro.targets import arch_by_name
    from repro.transforms import cleanup_regions, run_cleanup
    from repro.transforms.alternatives import plan_coarsening_alternatives

    grid_rank = len(grids[0])
    generator = ModuleGenerator(parse_translation_unit(bench.source))
    name = generator.get_launch_wrapper(kernel, grid_rank, block)
    module = generator.module
    run_cleanup(module)
    func_op = module.func(name)
    wrapper = polygeist.find_gpu_wrappers(func_op)[0]
    planned = plan_coarsening_alternatives(
        wrapper, paper_sweep_configs(max_product=max_product))
    record: Dict[str, object] = {
        "alternatives": len(planned.alternatives)}
    if not planned.alternatives:
        return record
    alt = planned.materialize(range(len(planned.alternatives)))
    if on_materialized is not None:
        on_materialized(alt)
    record["materialized"] = _sha(print_module(module))
    cleanup_regions(list(alt.regions))
    record["cleaned"] = _sha(print_module(module))
    grid_args = func_op.body_block().args[:grid_rank]
    envs = [dict(zip(grid_args, grid)) for grid in grids]
    record["winners"] = {}
    for arch in ARCHS:
        outcome = timing_driven_optimization(alt, arch_by_name(arch), envs,
                                             select=False)
        record["winners"][arch] = [outcome.selected_desc,
                                   repr(outcome.selected_time)]
    return record


def group_key(kernel: str, block: tuple, max_product: int) -> str:
    return "%s/%s/mp%d" % (kernel, "x".join(map(str, block)), max_product)


def collect_benchmark(name: str,
                      on_materialized: Optional[Callable] = None
                      ) -> Dict[str, object]:
    """Every launch group of one benchmark at every ``max_product``."""
    from repro.benchsuite.base import get_benchmark

    bench = get_benchmark(name)
    record: Dict[str, object] = {}
    for (kernel, block), grids in launch_groups(bench).items():
        for max_product in MAX_PRODUCTS:
            record[group_key(kernel, block, max_product)] = collect_group(
                bench, kernel, block, grids, max_product, on_materialized)
    return record


def benchmarks() -> List[str]:
    from repro.benchsuite.base import BENCHMARKS
    return sorted(BENCHMARKS)


def collect() -> Dict[str, object]:
    return {name: collect_benchmark(name) for name in benchmarks()}


def main() -> int:
    record = collect()
    with open(FIXTURE, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    groups = sum(len(groups) for groups in record.values())
    print("wrote %s: %d benchmarks, %d launch groups x max_product"
          % (FIXTURE, len(record), groups))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                    "src"))
    sys.exit(main())
