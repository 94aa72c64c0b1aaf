"""Record what ``repro analyze`` reports across the benchsuite.

For every benchsuite program, on A100 and MI210, at its model size and
with the default tuning configurations, the record takes the ``repr`` of
:func:`repro.analysis.report.analyze_benchmark`'s ``composite_seconds``
and the SHA-256 of its ``as_dict()`` as canonical JSON (sorted keys, no
whitespace), with the wall-clock parts dropped: ``stages``, ``spans``
and ``provenance``. What is left is every modeled number of the report:
per-kernel seconds, breakdown, merged Table-II metrics, occupancy,
roofline, verdict, the uncoarsened baseline and the TDO narrative.

``tests/test_analyze_equivalence.py`` recomputes each program's record
and asserts it equals the committed ``analyze_equivalence.json``.

Regenerate (only when a change is *meant* to alter these results)::

    PYTHONPATH=src python3 tests/data/make_analyze_equivalence.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "analyze_equivalence.json")
ARCHS = ("a100", "mi210")
#: the parts of a report that are wall-clock measurements, not model
#: results
_UNTIMED = ("stages", "spans", "provenance")


def report_digest(report: Dict[str, object]) -> str:
    """SHA-256 of ``report`` as canonical JSON, its timed parts dropped."""
    kept = {key: value for key, value in report.items()
            if key not in _UNTIMED}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def collect_program(name: str) -> Dict[str, Dict[str, str]]:
    """One program's composite seconds and report digest, per arch."""
    from repro.analysis.report import analyze_benchmark

    record: Dict[str, Dict[str, str]] = {}
    for arch in ARCHS:
        analysis = analyze_benchmark(name, arch)
        record[arch] = {
            "composite_seconds": repr(analysis.composite_seconds),
            "report_sha256": report_digest(analysis.as_dict()),
        }
    return record


def benchmarks() -> List[str]:
    from repro.benchsuite.base import BENCHMARKS
    return sorted(BENCHMARKS)


def main() -> int:
    record = {name: collect_program(name) for name in benchmarks()}
    with open(FIXTURE, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s: %d programs x %d archs"
          % (FIXTURE, len(record), len(ARCHS)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                    "src"))
    sys.exit(main())
