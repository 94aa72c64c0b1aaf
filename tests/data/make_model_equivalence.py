"""Record what the static kernel model computes across the benchsuite.

For every benchsuite launch group (kernel and block shape, at the cheap
verification size), the kernel's launch wrapper is parsed, pre-cleaned,
planned with ``paper_sweep_configs(max_product=16)`` (a superset of the
4 and 8 sweeps), materialized with every legal alternative and cleaned.
For every block loop of every alternative, on A100 and MI210, a
:class:`repro.simulator.model.KernelModel` is built and the record takes
the ``repr`` of its launch features, kernel statistics and register
estimate, every global access (store flag, element bytes, executions,
stride, transactions per warp, efficiency), the bank-conflict factor and
the divergent-branch count, or the :class:`InvalidLaunch` text when
construction fails. It also takes
:func:`repro.autotune.heuristic.choose_factors` on every block loop of
the pre-cleaned wrapper. Each group's record is stored as one SHA-256.

``tests/test_model_equivalence.py`` recomputes the digests and asserts
they equal the committed ``model_equivalence.json``, so a change to the
analyses behind the model that moves a single float of any result fails
tier-1.

Regenerate (only when a change is *meant* to alter these results)::

    PYTHONPATH=src python3 tests/data/make_model_equivalence.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "model_equivalence.json")
ARCHS = ("a100", "mi210")
MAX_PRODUCT = 16


def _materialize_generator():
    spec = importlib.util.spec_from_file_location(
        "make_materialize_equivalence",
        os.path.join(HERE, "make_materialize_equivalence.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _model_entry(loop, arch) -> List[str]:
    from repro.simulator.model import InvalidLaunch, KernelModel
    try:
        model = KernelModel(loop, arch)
        features = repr(model.features())
    except InvalidLaunch as error:
        return ["InvalidLaunch", str(error)]
    accesses = [repr((access.is_store, access.element_bytes,
                      access.executions, access.stride_x,
                      access.transactions_per_warp, access.efficiency))
                for access in model.accesses]
    return [features, repr(model.stats), repr(model.registers),
            accesses, repr(model.bank_conflicts),
            repr(model.divergent_branches)]


def _heuristic_entry(loop, arch) -> List[object]:
    from repro.autotune.heuristic import choose_factors
    choice = choose_factors(loop, arch)
    return [choice.block_total, choice.thread_total, choice.reasons]


def collect_group(bench, kernel: str, block: tuple, grids: List[tuple]
                  ) -> Dict[str, object]:
    """Every model result of one launch group, keyed by loop and arch."""
    from repro.autotune import paper_sweep_configs
    from repro.dialects import polygeist
    from repro.frontend import ModuleGenerator, parse_translation_unit
    from repro.targets import arch_by_name, linearized_cache
    from repro.transforms import cleanup_regions, run_cleanup
    from repro.transforms.alternatives import plan_coarsening_alternatives
    from repro.transforms.coarsen import (block_parallels,
                                          block_parallels_in_region)

    generator = ModuleGenerator(parse_translation_unit(bench.source))
    name = generator.get_launch_wrapper(kernel, len(grids[0]), block)
    module = generator.module
    run_cleanup(module)
    wrapper = polygeist.find_gpu_wrappers(module.func(name))[0]
    archs = [arch_by_name(arch) for arch in ARCHS]
    record: Dict[str, object] = {}
    # the tuning path builds its models inside one cache scope, so the
    # record does too
    with linearized_cache():
        for position, loop in enumerate(block_parallels(wrapper)):
            for arch in archs:
                record["heuristic/loop%d/%s" % (position, arch.name)] = \
                    _heuristic_entry(loop, arch)
        planned = plan_coarsening_alternatives(
            wrapper, paper_sweep_configs(max_product=MAX_PRODUCT))
    if not planned.alternatives:
        return record
    alt = planned.materialize(range(len(planned.alternatives)))
    cleanup_regions(list(alt.regions))
    with linearized_cache():
        for index, region in enumerate(alt.regions):
            loops = block_parallels_in_region(region)
            for position, loop in enumerate(loops):
                for arch in archs:
                    record["alt%d/loop%d/%s" % (index, position,
                                                arch.name)] = \
                        _model_entry(loop, arch)
    return record


def digest(record: Dict[str, object]) -> Dict[str, object]:
    text = json.dumps(record, sort_keys=True)
    return {"entries": len(record),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def collect_benchmark(name: str) -> Dict[str, object]:
    """The digest of every launch group of one benchmark."""
    from repro.benchsuite.base import get_benchmark

    materialize = _materialize_generator()
    bench = get_benchmark(name)
    record: Dict[str, object] = {}
    for (kernel, block), grids in materialize.launch_groups(bench).items():
        key = "%s/%s" % (kernel, "x".join(map(str, block)))
        record[key] = digest(collect_group(bench, kernel, block, grids))
    return record


def benchmarks() -> List[str]:
    from repro.benchsuite.base import BENCHMARKS
    return sorted(BENCHMARKS)


def main() -> int:
    record = {name: collect_benchmark(name) for name in benchmarks()}
    with open(FIXTURE, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    groups = sum(len(groups) for groups in record.values())
    entries = sum(group["entries"] for groups in record.values()
                  for group in groups.values())
    print("wrote %s: %d benchmarks, %d launch groups, %d entries"
          % (FIXTURE, len(record), groups, entries))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                    "src"))
    sys.exit(main())
