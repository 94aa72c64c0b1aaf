"""Record what the validation gate decides across the whole benchsuite.

Every benchsuite program is tuned on A100 and MI210 with the
differential validation gate on, over
``paper_sweep_configs(max_product=4)``. For each job the record holds
the modeled composite seconds, the winner per launch wrapper and, for
every gate invocation, its verdicts plus a SHA-256 digest of the final
buffers of each interpreted run (the baseline, its reversed-order rerun
and every alternative, in execution order).

``tests/test_interp_equivalence.py`` recomputes the record and asserts
it equals the committed ``interp_equivalence.json``, so any change to the
interpreter that alters a verdict, a diff, a winner, a modeled time or a
single buffer bit fails tier-1.

Regenerate (only when a change is *meant* to alter these results)::

    PYTHONPATH=src python3 tests/data/make_interp_equivalence.py
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "interp_equivalence.json")
ARCHS = ("a100", "mi210")
MAX_PRODUCT = 4

#: anonymous buffers are named by a process-wide counter in diagnostics;
#: mask it so the record does not depend on what ran before
_BUFFER_ID = re.compile(r"\bbuf\d+\b")


def _text(value: str) -> str:
    return _BUFFER_ID.sub("buf#", value)


def _digest(args) -> str:
    from repro.interpreter import MemoryBuffer

    sha = hashlib.sha256()
    for arg in args:
        if isinstance(arg, MemoryBuffer):
            sha.update(("%s%s" % (arg.array.dtype.str, arg.shape)).encode())
            sha.update(arg.array.tobytes())
        else:
            sha.update(repr(arg).encode())
        sha.update(b"|")
    return sha.hexdigest()


@contextmanager
def _recording(job: Dict[str, object]):
    """Wrap the gate and the interpreter's entry points for one job."""
    import repro.validate as validate
    from repro.benchsuite import base
    from repro.interpreter import Interpreter

    gates: List[dict] = job.setdefault("gates", [])
    current: List[Optional[dict]] = [None]
    programs: List[object] = []
    original_gate = validate.validate_alternatives
    original_run_func = Interpreter.run_func
    original_run_block = Interpreter.run_block
    original_program = base.Program

    def gate(*args, **kwargs):
        entry = {"runs": []}
        current[0] = entry
        try:
            report = original_gate(*args, **kwargs)
        finally:
            current[0] = None
        entry["label"] = report.label
        entry["baseline_note"] = _text(report.baseline_note)
        entry["verdicts"] = [
            [v.desc, v.status,
             _text(v.diff.summarize() if v.diff is not None else v.detail)]
            for v in report.verdicts]
        gates.append(entry)
        return report

    def traced(method):
        def run(self, target, args):
            outcome = "ok"
            try:
                return method(self, target, args)
            except Exception as error:
                outcome = "%s: %s" % (type(error).__name__, _text(str(error)))
                raise
            finally:
                runs = current[0]["runs"] if current[0] is not None \
                    else job.setdefault("other_runs", [])
                runs.append([outcome, _digest(args)])
        return run

    class Recording(original_program):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            programs.append(self)

    validate.validate_alternatives = gate
    Interpreter.run_func = traced(original_run_func)
    Interpreter.run_block = traced(original_run_block)
    base.Program = Recording
    try:
        yield programs
    finally:
        validate.validate_alternatives = original_gate
        Interpreter.run_func = original_run_func
        Interpreter.run_block = original_run_block
        base.Program = original_program


def collect_job(program: str, arch: str) -> Dict[str, object]:
    """The record of one validated tune of ``program`` on ``arch``."""
    from repro.autotune import paper_sweep_configs
    from repro.benchsuite import simulate_composite
    from repro.engine import TuningCache, TuningEngine

    job: Dict[str, object] = {}
    engine = TuningEngine(cache=TuningCache(None), validate=True)
    with _recording(job) as programs:
        seconds = simulate_composite(
            program, arch,
            autotune_configs=paper_sweep_configs(max_product=MAX_PRODUCT),
            engine=engine)
    job["modeled_seconds"] = repr(seconds)
    job["winners"] = {
        wrapper: [outcome.selected_desc,
                  json.dumps(outcome.selected_config, sort_keys=True)]
        for made in programs
        for wrapper, outcome in sorted(made.tuning_outcomes.items())}
    return job


def jobs() -> List[str]:
    from repro.benchsuite import BENCHMARKS
    return ["%s/%s" % (program, arch)
            for program in sorted(BENCHMARKS) for arch in ARCHS]


def collect() -> Dict[str, object]:
    return {key: collect_job(*key.split("/")) for key in jobs()}


def main() -> int:
    record = collect()
    with open(FIXTURE, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    gates = sum(len(job.get("gates", ())) for job in record.values())
    runs = sum(len(gate["runs"]) for job in record.values()
               for gate in job.get("gates", ()))
    print("wrote %s: %d jobs, %d gate calls, %d interpreted runs"
          % (FIXTURE, len(record), gates, runs))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                    "src"))
    sys.exit(main())
