"""Record what composite modeling returns across the benchsuite.

For every benchsuite program, on A100 and MI210, at its model size and
with ``paper_sweep_configs(max_product=8)``, the record takes the
``repr`` of :func:`repro.benchsuite.base.simulate_composite` for the
``polygeist`` tier twice on one memory-only tuning cache (cold, then
warm: every decision replayed from the cache), then for the ``clang``,
``polygeist-noopt`` and ``polygeist-heuristic`` tiers. It also takes the
tuning key of every tuned launch group, in the order the cold run
stored them, so a change to how launch geometries reach the key (and
with it every on-disk cache) fails too.

``tests/test_composite_equivalence.py`` recomputes each program's record
and asserts it equals the committed ``composite_equivalence.json``.

Regenerate (only when a change is *meant* to alter these results)::

    PYTHONPATH=src python3 tests/data/make_composite_equivalence.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "composite_equivalence.json")
ARCHS = ("a100", "mi210")
MAX_PRODUCT = 8
#: the tiers modeled after the cold and warm ``polygeist`` runs
OTHER_TIERS = ("clang", "polygeist-noopt", "polygeist-heuristic")


def collect_program(name: str) -> Dict[str, Dict[str, object]]:
    """Every composite time and tuning key of one program, per arch."""
    from repro.autotune import paper_sweep_configs
    from repro.benchsuite.base import simulate_composite
    from repro.engine import TuningCache, TuningEngine

    configs = paper_sweep_configs(max_product=MAX_PRODUCT)
    record: Dict[str, Dict[str, object]] = {}
    for arch in ARCHS:
        engine = TuningEngine(cache=TuningCache(None))
        entry: Dict[str, object] = {}
        entry["polygeist cold"] = repr(simulate_composite(
            name, arch, "polygeist", configs, engine=engine))
        entry["tuning keys"] = list(engine.cache._memory)
        entry["polygeist warm"] = repr(simulate_composite(
            name, arch, "polygeist", configs, engine=engine))
        for tier in OTHER_TIERS:
            entry[tier] = repr(simulate_composite(name, arch, tier, configs,
                                                  engine=engine))
        record[arch] = entry
    return record


def benchmarks() -> List[str]:
    from repro.benchsuite.base import BENCHMARKS
    return sorted(BENCHMARKS)


def main() -> int:
    record = {name: collect_program(name) for name in benchmarks()}
    with open(FIXTURE, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    values = sum(1 for arches in record.values()
                 for entry in arches.values()
                 for key in entry if key != "tuning keys")
    keys = sum(len(entry["tuning keys"]) for arches in record.values()
               for entry in arches.values())
    print("wrote %s: %d programs, %d composite values, %d tuning keys"
          % (FIXTURE, len(record), values, keys))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                    "src"))
    sys.exit(main())
